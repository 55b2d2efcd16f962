"""Permission queries over a valid policy model.

A role reaches a purpose through its own grants or those of any transitive
inferior (a superior holds at least all the access of its inferiors, with the
inferior's conditions kept unchanged).  A purpose reaches attributes through
its tasks and through granted groups.  `can_access` joins the two sides into
concrete access paths, conjoins all conditions found along a path, and picks
the most permissive verdict: Allow > Conditional > Deny.
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
from .model import PolicyModel


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

    Task entries come first in task-list order, then group-grant members in
    grant order; the same attribute may appear once per distinct source.
    """
    model.purpose(purpose_id)
    return [
        AttributeSource(attribute, source, kind, granularity, condition)
        for attribute, _, source, kind, granularity, condition
        in model.sources_by_purpose[purpose_id]
    ]


def _paths(
    model: PolicyModel,
    role_id: str,
    attribute_id: str,
    purpose_id: Optional[str],
) -> list[AccessPath]:
    closure = model.role_closure(role_id)
    paths: list[AccessPath] = []
    for _, purpose, source, kind, granularity, condition in model.sources_by_attribute.get(
        attribute_id, ()
    ):
        if purpose_id is not None and purpose != purpose_id:
            continue
        for grant in closure.grants.get(purpose, ()):
            conditions: list[PathCondition] = []
            if grant.condition is not None:
                conditions.append(PathCondition("grant", grant.condition))
            if condition is not None:
                conditions.append(PathCondition("source", condition))
            paths.append(
                AccessPath(
                    role=role_id,
                    via=grant.role,
                    hops=closure.hops(grant.role),
                    purpose=purpose,
                    source=source,
                    source_kind=kind,
                    granularity=granularity,
                    conditions=tuple(conditions),
                )
            )
    # Equally permissive paths tie-break by (purpose, source, via); a task
    # and a group sharing an id stay in source order, the task first.
    paths.sort(key=lambda p: (p.purpose, p.source, p.via))
    return paths


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
    model.role(role_id)
    model.attribute(attribute_id)
    if purpose_id is not None:
        model.purpose(purpose_id)
    ctx = ctx or {}

    best_conditional: Optional[tuple[AccessPath, tuple[ConditionExpr, ...]]] = None
    first_path: Optional[AccessPath] = None
    for path in _paths(model, role_id, attribute_id, purpose_id):
        if first_path is None:
            first_path = path
        verdict = TriBool.TRUE
        unknowns: list[ConditionExpr] = []
        for pc in path.conditions:
            try:
                status = evaluate(pc.condition, ctx)
            except ConditionTypeError as exc:
                raise QueryEvaluationError(
                    f"cannot evaluate the {pc.origin} condition "
                    f"{render_condition(pc.condition)!r} on grant "
                    f"{path.via}->{path.purpose}: {exc}"
                ) from exc
            if status is TriBool.FALSE:
                verdict = TriBool.FALSE
                break
            if status is TriBool.UNKNOWN:
                verdict = TriBool.UNKNOWN
                unknowns.append(pc.condition)
        if verdict is TriBool.TRUE:
            return Decision(Outcome.ALLOW, (), path)
        if verdict is TriBool.UNKNOWN and best_conditional is None:
            best_conditional = (path, tuple(unknowns))
    if best_conditional is not None:
        path, residual = best_conditional
        return Decision(Outcome.CONDITIONAL, residual, path)
    return Decision(Outcome.DENY, (), first_path)
