"""Permission queries over a valid policy model.

A role reaches a purpose through its own grants or those of any transitive
inferior (a superior holds at least all the access of its inferiors, with the
inferior's conditions kept unchanged).  A purpose reaches attributes through
its tasks and through granted groups.  `can_access` joins the two sides into
candidate paths, one per (attribute source, usable grant) pair, conjoins the
conditions found along each, and picks the most permissive verdict: Allow >
Conditional > Deny.  An attribute's sources are grouped in (purpose, source)
order on its first query, so a query sorts nothing: it meets the candidates
in (purpose, source, via) order, stops at the first Allow and builds only the
deciding path.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from .conditions import (
    ConditionExpr,
    ConditionTypeError,
    EvalContext,
    TriBool,
    evaluate,
    render_condition,
    value_type,
)
from .model import PolicyModel, RoleClosure, RolePurposeGrant, SourceEntry


class QueryEvaluationError(ValueError):
    """A condition on an inspected path could not be evaluated."""


@value_type
class EffectiveGrant(NamedTuple):
    purpose: str
    condition: Optional[ConditionExpr]
    via: str  # role whose grant supplies this entry


@value_type
class AttributeSource(NamedTuple):
    attribute: str
    source: str  # task id or group id
    kind: str  # "task" | "group"
    granularity: Optional[str] = None
    condition: Optional[ConditionExpr] = None


class Outcome(enum.Enum):
    ALLOW = "Allow"
    DENY = "Deny"
    CONDITIONAL = "Conditional"


@value_type
class PathCondition(NamedTuple):
    origin: str  # "grant" (role-purpose) | "source" (task or group binding)
    condition: ConditionExpr


@value_type
class AccessPath(NamedTuple):
    """One structural way a role reaches an attribute."""

    role: str
    via: str
    hops: tuple[str, ...]  # role chain from the queried role down to `via`
    purpose: str
    source: str
    source_kind: str
    granularity: Optional[str]
    conditions: tuple[PathCondition, ...]


@value_type
class Decision(NamedTuple):
    outcome: Outcome
    residual: tuple[ConditionExpr, ...]  # non-empty iff Conditional
    path: Optional[AccessPath]  # None only for a structural Deny

    def describe(self) -> str:
        """Stable multi-line rendering: outcome, residuals, then the trace."""
        lines = [self.outcome.value]
        for condition in self.residual:
            lines.append(f"residual: {render_condition(condition)}")
        if self.path is not None:
            p = self.path
            lines.append(f"purpose: {p.purpose} (granted to {p.via})")
            lines.append(f"hops: {' -> '.join(p.hops)}")
            lines.append(f"source: {p.source_kind} {p.source}")
            if p.granularity is not None:
                lines.append(f"granularity: {p.granularity}")
            for pc in p.conditions:
                lines.append(f"condition ({pc.origin}): {render_condition(pc.condition)}")
        return "\n".join(lines)


_STRUCTURAL_DENY = Decision(Outcome.DENY, (), None)
_new = tuple.__new__  # builds a value without its constructor's frame; see `value_type`


def effective_purposes(model: PolicyModel, role_id: str) -> list[EffectiveGrant]:
    """Grants usable by `role_id`: its own plus every inferior's.

    Inherited entries keep their conditions; `via` names the supplying role.
    Sorted by (purpose, via) and deduplicated per that pair.
    """
    return [
        EffectiveGrant(grant.purpose, grant.condition, grant.role)
        for grants in model.role_closure(role_id).grants.values()
        for grant in grants
    ]


def accessible_attributes(model: PolicyModel, purpose_id: str) -> list[AttributeSource]:
    """Attributes reachable from a purpose, with their sources.

    Task entries come first in task-list order, each with its first
    condition, then group-grant members in grant order; the same attribute
    may appear once per distinct source.  Built on each call, in time linear
    in the model plus the output.  Unknown ids raise UnknownEntityError: the
    purpose first, then its tasks, then its granted groups.
    """
    purpose = model.purpose(purpose_id)
    conditions = {c.task: c.condition for c in reversed(model.pt_conditions) if c.purpose == purpose_id}
    sources = [AttributeSource(task.reads, task.id, "task", task.via, conditions.get(task.id))
               for task in map(model.task, purpose.tasks)]
    for grant in model.pg_grants:
        if grant.purpose == purpose_id:
            sources += [AttributeSource(attribute, grant.group, "group", None, grant.condition)
                        for attribute in model.group_members(grant.group)]
    return sources


def can_access(
    model: PolicyModel,
    role_id: str,
    attribute_id: str,
    purpose_id: Optional[str] = None,
    ctx: Optional[EvalContext] = None,
) -> Decision:
    """Decide whether `role_id` may access `attribute_id`.

    With `purpose_id` the check is restricted to that purpose; otherwise all
    purposes are tried and the most permissive verdict wins.  Conditions on
    the chosen path that stay Unknown under `ctx` become the residual of a
    Conditional decision.  A type clash while evaluating raises
    QueryEvaluationError naming the grant.
    """
    closure = model.role_closure(role_id)  # raises first for an unknown role
    if attribute_id not in model.attributes_by_id:
        model.attribute(attribute_id)
    if purpose_id is not None and purpose_id not in model.purposes_by_id:
        model.purpose(purpose_id)
    ctx = ctx or {}
    # The attribute's sources come grouped by (purpose, source id) in order
    # and a purpose's grants by supplying role, so this walk meets the
    # candidates in (purpose, source, via) order: the first Allow decides.
    # The memo is read inline: a method call would cost every request a frame.
    groups = model._sources_by_attribute.get(attribute_id)
    if groups is None:
        groups = model.attribute_sources(attribute_id)
    first = conditional = None
    for group in groups:
        purpose = group[0][1]
        if purpose_id is not None and purpose != purpose_id:
            continue
        for grant in closure.grants.get(purpose, ()):
            for entry in group:
                if grant.condition is None and entry[5] is None:
                    return _decide(Outcome.ALLOW, (), entry, grant, closure)
                first = first or (Outcome.DENY, (), entry, grant)
                unknowns: list[ConditionExpr] = []
                for origin, condition in (("grant", grant.condition), ("source", entry[5])):
                    if condition is None:
                        continue
                    try:
                        status = evaluate(condition, ctx)
                    except ConditionTypeError as exc:
                        raise QueryEvaluationError(
                            f"cannot evaluate the {origin} condition {render_condition(condition)!r} "
                            f"on grant {grant.role}->{purpose}: {exc}"
                        ) from exc
                    if status is TriBool.FALSE:
                        break
                    if status is TriBool.UNKNOWN:
                        unknowns.append(condition)
                else:
                    if not unknowns:
                        return _decide(Outcome.ALLOW, (), entry, grant, closure)
                    if conditional is None:
                        conditional = Outcome.CONDITIONAL, tuple(unknowns), entry, grant
    chosen = conditional or first
    return _STRUCTURAL_DENY if chosen is None else _decide(*chosen, closure)


def _decide(outcome: Outcome, residual: tuple[ConditionExpr, ...], entry: SourceEntry,
            grant: RolePurposeGrant, closure: RoleClosure) -> Decision:
    """The decision that carries the path of (`entry`, `grant`)."""
    _, purpose, source, kind, granularity, condition = entry
    conditions: tuple[PathCondition, ...] = ()
    if grant.condition is not None:
        conditions = (_new(PathCondition, ("grant", grant.condition)),)
    if condition is not None:
        conditions += (_new(PathCondition, ("source", condition)),)
    via = grant.role
    path = _new(AccessPath, (closure.role, via, closure.hops(via), purpose, source, kind,
                             granularity, conditions))
    return _new(Decision, (outcome, residual, path))
