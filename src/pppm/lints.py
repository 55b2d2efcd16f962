"""Gap-analysis lint catalog for valid policy models.

Each rule looks for a policy smell that a model makes mechanically checkable:
purposes nobody may use, catch-all grants, group grants wider than the tasks
that justify them, attributes nothing touches, and contradictory collection
statements.  Rules only ever read the model; severities are defaults that a
LintConfig can override.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from .conditions import tsv
from .model import PolicyModel, require_valid

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    rule: str
    severity: str
    subject: str
    message: str


@dataclass(frozen=True)
class LintRule:
    id: str
    name: str
    severity: str
    summary: str
    check: Callable[[PolicyModel], list[tuple[str, str]]]  # (subject, message)


def _orphan_purposes(model: PolicyModel) -> list[tuple[str, str]]:
    granted = {g.purpose for g in model.rp_grants}
    return [
        (p.id, f"no role is allowed to use purpose {p.id!r} ({p.label})")
        for p in model.purposes
        if p.id not in granted
    ]


def _orphan_roles(model: PolicyModel) -> list[tuple[str, str]]:
    # A role with a grant of its own needs no closure.
    return [
        (role.id, f"role {role.id!r} ({role.label}) has no direct or inherited purpose")
        for role in model.roles
        if role.id not in model.grants_by_role and not model.role_closure(role.id).grants
    ]


def _universal_purpose_grants(model: PolicyModel) -> list[tuple[str, str]]:
    out = []
    for grant in model.rp_grants:
        purpose = model.purpose(grant.purpose)
        if purpose.universal:
            out.append(
                (
                    f"{grant.role}:{grant.purpose}",
                    f"role {grant.role!r} may use the universal purpose {grant.purpose!r} ({purpose.label})",
                )
            )
    return out


def _universal_data_grants(model: PolicyModel) -> list[tuple[str, str]]:
    all_attrs = {a.id for a in model.attributes}
    out = []
    for grant in model.pg_grants:
        purpose = model.purpose(grant.purpose)
        subject = f"{grant.purpose}:{grant.group}"
        if purpose.universal:
            out.append(
                (subject, f"universal purpose {grant.purpose!r} holds a grant to group {grant.group!r}")
            )
        elif all_attrs and set(model.group_members(grant.group)) == all_attrs:
            out.append(
                (
                    subject,
                    f"group {grant.group!r} granted to {grant.purpose!r} spans every attribute in the model",
                )
            )
    return out


def _unjustified_group_grants(model: PolicyModel) -> list[tuple[str, str]]:
    out = []
    for grant in model.pg_grants:
        members = set(model.group_members(grant.group))
        purpose = model.purpose(grant.purpose)
        # Only the purpose's own tasks can justify its group grant.
        reads = {model.task(t).reads for t in purpose.tasks}
        needed = reads & members
        if needed and needed != members:
            unused = len(members - needed)
            out.append(
                (
                    f"{grant.purpose}:{grant.group}",
                    f"purpose {grant.purpose!r} tasks need only "
                    f"{len(needed)} of group {grant.group!r}; "
                    f"{unused} granted attribute(s) are unjustified",
                )
            )
    return out


def _unused_attributes(model: PolicyModel) -> list[tuple[str, str]]:
    all_attrs = {a.id for a in model.attributes}
    read = {t.reads for t in model.tasks}
    covered: set[str] = set()
    for grant in model.pg_grants:
        members = set(model.group_members(grant.group))
        # A grant of the entire attribute universe is a catch-all, not
        # evidence that any particular attribute is used.
        if members == all_attrs:
            continue
        covered |= members
    return [
        (a.id, f"attribute {a.id!r} ({a.label}) is read by no task and covered by no group grant")
        for a in model.attributes
        if a.id not in read and a.id not in covered
    ]


def _taskless_granted_purposes(model: PolicyModel) -> list[tuple[str, str]]:
    granted = {g.purpose for g in model.rp_grants}
    return [
        (
            p.id,
            f"purpose {p.id!r} ({p.label}) is granted to a role but declares no tasks",
        )
        for p in model.purposes
        if p.id in granted and not p.tasks
    ]


def _dangling_empty_groups(model: PolicyModel) -> list[tuple[str, str]]:
    return [
        (
            f"{grant.purpose}:{grant.group}",
            f"group {grant.group!r} is granted to {grant.purpose!r} but contains no attributes",
        )
        for grant in model.pg_grants
        if not model.group_members(grant.group)
    ]


def _collection_conflicts(model: PolicyModel) -> list[tuple[str, str]]:
    read = {t.reads for t in model.tasks}
    out = []
    for attr in model.attributes:
        if attr.collected_conflict:
            out.append(
                (
                    attr.id,
                    f"attribute {attr.id!r} ({attr.label}) is declared both collected and not collected",
                )
            )
        elif attr.collected is False and attr.id in read:
            out.append(
                (
                    attr.id,
                    f"attribute {attr.id!r} ({attr.label}) is read by a task but declared not collected",
                )
            )
    return out


RULES: tuple[LintRule, ...] = (
    LintRule("L1", "orphan-purpose", "warning",
             "purpose with no role-purpose grant", _orphan_purposes),
    LintRule("L2", "orphan-role", "warning",
             "role with no direct or inherited grant", _orphan_roles),
    LintRule("L3", "universal-purpose", "error",
             "grant of a universal (catch-all) purpose", _universal_purpose_grants),
    LintRule("L4", "universal-data-grant", "error",
             "group grant on a universal purpose, or a grant spanning all attributes",
             _universal_data_grants),
    LintRule("L5", "unjustified-group-grant", "warning",
             "group grant wider than what the purpose's tasks read", _unjustified_group_grants),
    LintRule("L6", "unused-attribute", "warning",
             "attribute read by no task and covered by no group grant", _unused_attributes),
    LintRule("L7", "taskless-granted-purpose", "info",
             "granted purpose with an empty task list", _taskless_granted_purposes),
    LintRule("L8", "dangling-empty-group", "warning",
             "granted group containing zero attributes", _dangling_empty_groups),
    LintRule("L9", "collection-conflict", "error",
             "contradictory or violated collection statements", _collection_conflicts),
)

RULES_BY_ID: Mapping[str, LintRule] = {rule.id: rule for rule in RULES}


@dataclass(frozen=True)
class LintConfig:
    """Which rules run and with what severity.

    `enabled` of None means all rules.  Unknown rule ids are rejected.
    """

    enabled: Optional[frozenset[str]] = None
    severity_overrides: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Sorted, so the unknown id named is the same on every run.
        for rule_id in sorted({*(self.enabled or ()), *self.severity_overrides}):
            if rule_id not in RULES_BY_ID:
                raise ValueError(f"unknown lint rule {rule_id!r}")
        for severity in self.severity_overrides.values():
            if severity not in SEVERITIES:
                raise ValueError(f"unknown severity {severity!r}")

    def severity_for(self, rule: LintRule) -> str:
        return self.severity_overrides.get(rule.id, rule.severity)

    def is_enabled(self, rule: LintRule) -> bool:
        return self.enabled is None or rule.id in self.enabled


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
        for subject, message in rule.check(model):
            findings.append(Finding(rule.id, severity, subject, message))
    findings.sort(key=lambda f: (f.rule, f.subject, f.message))
    return findings


def format_findings(findings: Iterable[Finding]) -> str:
    """One line per finding: RULE<TAB>SEVERITY<TAB>SUBJECT<TAB>MESSAGE.

    A tab, CR or LF inside a field is written as \\t, \\r or \\n.
    """
    return tsv([(f.rule, f.severity, f.subject, f.message) for f in findings])
