"""Gap-analysis lint catalog for valid policy models.

Each rule looks for a policy smell that a model makes mechanically checkable:
purposes nobody may use, catch-all grants, group grants wider than the tasks
that justify them, attributes nothing touches, and contradictory collection
statements.  Rules only read the model, and a group only for its size (its
members through `Attribute.groups`); a LintConfig may override severities.

Each rule is a row of `RULES` that reports entries of one PolicyModel field,
its `field`.  A finding's subject names its entry the way a `validate` report
does (`model.subject`): a role, purpose or attribute by its id, a role-purpose
grant as `role:purpose` and a purpose-group grant as `purpose:group`.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .conditions import collector_paused, tsv, value_type
from .model import PolicyModel, PurposeGroupGrant, reach, require_valid, subject

SEVERITIES = ("error", "warning", "info")
_new = tuple.__new__  # builds a value without its constructor's frame; see `value_type`


@value_type
class Finding(NamedTuple):
    rule: str
    severity: str
    subject: str
    message: str


@value_type
class LintRule(NamedTuple):
    id: str
    name: str
    severity: str
    summary: str
    field: str  # the PolicyModel field whose entries the rule reports
    find: Callable[[PolicyModel], Iterable[tuple[Any, str]]]  # (entry, message)

    def check(self, model: PolicyModel) -> list[tuple[str, str]]:
        """The rule's (subject, message) pairs on a valid model, in the order found."""
        return [(subject(self.field, entry), message) for entry, message in self.find(model)]


def _granted_purposes(model: PolicyModel) -> set[str]:
    return {g.purpose for g in model.rp_grants}


def _read_attributes(model: PolicyModel) -> set[str]:
    return {t.reads for t in model.tasks}


def _spans_every_attribute(model: PolicyModel, grant: PurposeGroupGrant) -> bool:
    # A valid model's group members are distinct attribute ids, so a group
    # spans every attribute exactly when it has as many members.
    return 0 < len(model.members_by_group[grant.group]) == len(model.attributes)


def _orphan_purposes(model: PolicyModel) -> Iterator[tuple[Any, str]]:
    granted = _granted_purposes(model)
    for p in model.purposes:
        if p.id not in granted:
            yield p, f"no role is allowed to use purpose {p.id!r} ({p.label})"


def _orphan_roles(model: PolicyModel) -> Iterator[tuple[Any, str]]:
    # A role holds a purpose iff it is or lies above a role with a grant of
    # its own: one `reach` up the superior edges from those roles finds them.
    superiors: dict[str, list[str]] = {}
    for edge in model.role_edges:
        superiors.setdefault(edge.inferior, []).append(edge.superior)
    holding = model.grants_by_role.keys() | reach(superiors, model.grants_by_role)
    for role in model.roles:
        if role.id not in holding:
            yield role, f"role {role.id!r} ({role.label}) has no direct or inherited purpose"


def _universal_purpose_grants(model: PolicyModel) -> Iterator[tuple[Any, str]]:
    for grant in model.rp_grants:
        purpose = model.purposes_by_id[grant.purpose]
        if purpose.universal:
            yield grant, (f"role {grant.role!r} may use the universal purpose "
                          f"{grant.purpose!r} ({purpose.label})")


def _universal_data_grants(model: PolicyModel) -> Iterator[tuple[Any, str]]:
    for grant in model.pg_grants:
        if model.purposes_by_id[grant.purpose].universal:
            yield grant, (f"universal purpose {grant.purpose!r} holds a grant to group "
                          f"{grant.group!r}")
        elif _spans_every_attribute(model, grant):
            yield grant, (f"group {grant.group!r} granted to {grant.purpose!r} spans every "
                          "attribute in the model")


def _unjustified_group_grants(model: PolicyModel) -> Iterator[tuple[Any, str]]:
    # Only the purpose's own tasks can justify its group grant.  The distinct
    # attributes they read in a group are members, so counting them suffices.
    needed: Counter[tuple[str, str]] = Counter()
    for purpose in {g.purpose for g in model.pg_grants}:
        reads = {model.tasks_by_id[t].reads for t in model.purposes_by_id[purpose].tasks}
        needed.update((purpose, g) for a in reads for g in model.attributes_by_id[a].groups)
    for grant in model.pg_grants:
        count, size = needed[grant.purpose, grant.group], len(model.members_by_group[grant.group])
        if 0 < count < size:
            yield grant, (f"purpose {grant.purpose!r} tasks need only {count} of group "
                          f"{grant.group!r}; {size - count} granted attribute(s) "
                          "are unjustified")


def _unused_attributes(model: PolicyModel) -> Iterator[tuple[Any, str]]:
    read = _read_attributes(model)
    # A grant of the entire attribute universe is a catch-all, not evidence
    # that any particular attribute is used.
    covering = {g.group for g in model.pg_grants if not _spans_every_attribute(model, g)}
    for a in model.attributes:
        if a.id not in read and covering.isdisjoint(a.groups):
            yield a, (f"attribute {a.id!r} ({a.label}) is read by no task and covered by no "
                      "group grant")


def _taskless_granted_purposes(model: PolicyModel) -> Iterator[tuple[Any, str]]:
    granted = _granted_purposes(model)
    for p in model.purposes:
        if p.id in granted and not p.tasks:
            yield p, f"purpose {p.id!r} ({p.label}) is granted to a role but declares no tasks"


def _dangling_empty_groups(model: PolicyModel) -> Iterator[tuple[Any, str]]:
    for grant in model.pg_grants:
        if not model.members_by_group[grant.group]:
            yield grant, (f"group {grant.group!r} is granted to {grant.purpose!r} but contains "
                          "no attributes")


def _collection_conflicts(model: PolicyModel) -> Iterator[tuple[Any, str]]:
    read = _read_attributes(model)
    for a in model.attributes:
        if a.collected_conflict:
            yield a, f"attribute {a.id!r} ({a.label}) is declared both collected and not collected"
        elif a.collected is False and a.id in read:
            yield a, f"attribute {a.id!r} ({a.label}) is read by a task but declared not collected"


RULES: tuple[LintRule, ...] = (
    LintRule("L1", "orphan-purpose", "warning", "purpose with no role-purpose grant",
             "purposes", _orphan_purposes),
    LintRule("L2", "orphan-role", "warning", "role with no direct or inherited grant",
             "roles", _orphan_roles),
    LintRule("L3", "universal-purpose", "error", "grant of a universal (catch-all) purpose",
             "rp_grants", _universal_purpose_grants),
    LintRule("L4", "universal-data-grant", "error",
             "group grant on a universal purpose, or a grant spanning all attributes",
             "pg_grants", _universal_data_grants),
    LintRule("L5", "unjustified-group-grant", "warning",
             "group grant wider than what the purpose's tasks read",
             "pg_grants", _unjustified_group_grants),
    LintRule("L6", "unused-attribute", "warning",
             "attribute read by no task and covered by no group grant",
             "attributes", _unused_attributes),
    LintRule("L7", "taskless-granted-purpose", "info", "granted purpose with an empty task list",
             "purposes", _taskless_granted_purposes),
    LintRule("L8", "dangling-empty-group", "warning", "granted group containing zero attributes",
             "pg_grants", _dangling_empty_groups),
    LintRule("L9", "collection-conflict", "error",
             "contradictory or violated collection statements",
             "attributes", _collection_conflicts),
)

RULES_BY_ID: Mapping[str, LintRule] = {rule.id: rule for rule in RULES}


class _LintSelection(NamedTuple):
    enabled: Optional[frozenset[str]]
    severity_overrides: Mapping[str, str]


@value_type
class LintConfig(_LintSelection):
    """Which rules run and with what severity.

    `enabled` of None means all rules, and `severity_overrides` of None no
    overrides.  Unknown rule ids and an empty selection are rejected.
    """

    __slots__ = ()

    def __new__(
        cls,
        enabled: Optional[frozenset[str]] = None,
        severity_overrides: Optional[Mapping[str, str]] = None,
    ) -> LintConfig:
        if enabled is not None and not enabled:
            raise ValueError("no lint rule selected")
        overrides = {} if severity_overrides is None else severity_overrides
        # Sorted, so the unknown id named is the same on every run.
        for rule_id in sorted({*(enabled or ()), *overrides}):
            if rule_id not in RULES_BY_ID:
                raise ValueError(f"unknown lint rule {rule_id!r}")
        for severity in overrides.values():
            if severity not in SEVERITIES:
                raise ValueError(f"unknown severity {severity!r}")
        return super().__new__(cls, enabled, overrides)

    def _replace(self, **changes: Any) -> LintConfig:
        """A copy with `changes`, checked as a new config is."""
        return LintConfig(**{**self._asdict(), **changes})

    def severity_for(self, rule: LintRule) -> str:
        return self.severity_overrides.get(rule.id, rule.severity)

    def is_enabled(self, rule: LintRule) -> bool:
        return self.enabled is None or rule.id in self.enabled


@collector_paused
def run_lints(model: PolicyModel, config: Optional[LintConfig] = None) -> list[Finding]:
    """All findings from the enabled rules, sorted by (rule, subject).

    Raises InvalidModelError when the model does not pass validation: lint
    semantics assume resolvable references.
    """
    require_valid(model, "lint")
    config = config or LintConfig()
    findings: list[Finding] = []
    for rule in RULES:
        if not config.is_enabled(rule):
            continue
        severity = config.severity_for(rule)
        findings += [_new(Finding, (rule.id, severity, name, message))
                     for name, message in rule.check(model)]
    findings.sort(key=itemgetter(0, 2, 3))  # rule, subject, message
    return findings


def format_findings(findings: Iterable[Finding]) -> str:
    """One line per finding: RULE<TAB>SEVERITY<TAB>SUBJECT<TAB>MESSAGE.

    A tab, CR or LF inside a field is written as \\t, \\r or \\n.
    """
    return tsv([(f.rule, f.severity, f.subject, f.message) for f in findings])
