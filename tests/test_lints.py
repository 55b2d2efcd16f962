from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pppm.dsl import load_policy
from pppm.lints import (
    RULES,
    Finding,
    RULES_BY_ID,
    LintConfig,
    format_findings,
    run_lints,
)
from pppm.model import (
    Attribute,
    AttributeGroup,
    InvalidModelError,
    PolicyModel,
    Purpose,
    PurposeGroupGrant,
    Role,
    RoleEdge,
    RolePurposeGrant,
    Task,
    subject,
)

import gen
from conftest import FIXTURES
from oracles import brute_inferiors, brute_lints

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def subjects(findings, rule):
    return {f.subject for f in by_rule(findings, rule)}


def test_rule_catalog_shape():
    assert [r.id for r in RULES] == [f"L{i}" for i in range(1, 10)]
    assert {r.severity for r in RULES} == {"error", "warning", "info"}
    assert RULES_BY_ID["L3"].severity == "error"
    assert RULES_BY_ID["L9"].severity == "error"
    assert RULES_BY_ID["L7"].severity == "info"


def test_chatterbaby_full_inventory(baby_model):
    findings = run_lints(baby_model)
    assert subjects(findings, "L1") == {"p4", "p17", "p18"}
    assert by_rule(findings, "L2") == []
    assert subjects(findings, "L3") == {"r1:p24"}
    assert subjects(findings, "L4") == {"p24:non_personal", "p21:data"}
    assert subjects(findings, "L5") == {"p12:personal"}
    assert subjects(findings, "L6") == {"d32", "d33", "d34", "d35"}
    assert len(by_rule(findings, "L7")) == 18
    assert subjects(findings, "L8") == {
        "p5:acoustic",
        "p26:profile",
        "p23:service_information",
    }
    assert subjects(findings, "L9") == {"d7"}


def test_chatterbaby_finding_order_is_sorted(baby_model):
    findings = run_lints(baby_model)
    keys = [(f.rule, f.subject, f.message) for f in findings]
    assert keys == sorted(keys)


def test_shop_fixture_is_clean(shop_model):
    assert run_lints(shop_model) == []


def test_severity_levels(baby_model):
    findings = run_lints(baby_model)
    for f in findings:
        assert f.severity == RULES_BY_ID[f.rule].severity


def test_format_findings_is_tab_separated(baby_model):
    text = format_findings(run_lints(baby_model, LintConfig(enabled=frozenset({"L9"}))))
    assert text == (
        "L9\terror\td7\tattribute 'd7' (Credit card information) "
        "is declared both collected and not collected\n"
    )


def test_format_findings_escapes_tabs_and_line_breaks():
    finding = Finding("L1", "warning", "p\t1", "a\tb\r\nc \\ d")
    assert format_findings([finding]) == "L1\twarning\tp\\t1\ta\\tb\\r\\nc \\ d\n"
    assert format_findings([]) == ""


def test_enabled_subset_filters_exactly(baby_model):
    findings = run_lints(baby_model, LintConfig(enabled=frozenset({"L1", "L8"})))
    assert {f.rule for f in findings} == {"L1", "L8"}
    assert len(findings) == 6


def test_severity_overrides(baby_model):
    config = LintConfig(severity_overrides={"L1": "error", "L9": "info"})
    findings = run_lints(baby_model, config)
    assert {f.severity for f in by_rule(findings, "L1")} == {"error"}
    assert {f.severity for f in by_rule(findings, "L9")} == {"info"}


def test_config_rejects_unknown_rule_and_severity():
    with pytest.raises(ValueError):
        LintConfig(enabled=frozenset({"L99"}))
    with pytest.raises(ValueError):
        LintConfig(severity_overrides={"L1": "fatal"})


def test_config_rejects_an_empty_selection():
    # Otherwise an empty selection runs no rule and reports a clean policy.
    with pytest.raises(ValueError, match="no lint rule selected"):
        LintConfig(enabled=frozenset())


# What the README's subject column says each rule field's entries are named by.
README_SUBJECTS = {
    "purposes": "purpose id",
    "roles": "role id",
    "rp_grants": "`role:purpose` grant",
    "pg_grants": "`purpose:group` grant",
    "attributes": "attribute id",
}


def test_readme_lint_table_matches_the_catalog():
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Lint rules\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if re.match(r"\| L\d ", line)
    ]
    assert [row[:3] for row in rows] == [
        [r.id, r.severity, README_SUBJECTS[r.field]] for r in RULES
    ]


def assert_findings_name_entries_of_the_rule_field(model):
    findings = run_lints(model)
    for rule in RULES:
        named = {subject(rule.field, entry) for entry in getattr(model, rule.field)}
        pairs = [(f.subject, f.message) for f in findings if f.rule == rule.id]
        assert {s for s, _ in pairs} <= named, rule.id
        # perfbench times each rule through `check`, so it must do the
        # rule's work when called, not hand back a lazy iterator.
        found = rule.check(model)
        assert isinstance(found, list), rule.id
        assert sorted(found) == pairs, rule.id


def test_fixture_findings_name_entries_of_the_rule_field(shop_model, baby_model):
    assert_findings_name_entries_of_the_rule_field(shop_model)
    assert_findings_name_entries_of_the_rule_field(baby_model)


@given(seeds)
@settings(max_examples=200)
def test_findings_name_entries_of_the_rule_field(seed):
    assert_findings_name_entries_of_the_rule_field(gen.random_model(random.Random(seed)))


def test_run_lints_requires_a_valid_model():
    broken = PolicyModel("x", rp_grants=(RolePurposeGrant("r9", "p9"),))
    with pytest.raises(InvalidModelError):
        run_lints(broken)


def test_l2_fires_only_without_direct_or_inherited_grants():
    # r1 -> r2; granting p1 to r2 covers both roles, r3 stays orphaned.
    text = (
        'policy "x"\nroles { r1: "A" r2: "B" r3: "C" }\n'
        "role_hierarchy { r1 -> r2 }\n"
        'purposes { p1: "P" }\nrole_purpose { r2 allowed p1 }\n'
    )
    findings = run_lints(load_policy(text))
    assert subjects(findings, "L2") == {"r3"}


def test_l2_on_a_long_chain_builds_no_role_closure():
    # Only the leaf of r0 -> r1 -> ... -> r1999 is granted, so every role
    # holds p1 through it, and deciding that needs no per-role closure.
    n = 2000
    model = PolicyModel(
        "x",
        roles=tuple(Role(f"r{i}", "R") for i in range(n)),
        role_edges=tuple(RoleEdge(f"r{i}", f"r{i + 1}") for i in range(n - 1)),
        purposes=(Purpose("p1", "P"),),
        rp_grants=(RolePurposeGrant(f"r{n - 1}", "p1"),),
    )
    assert not by_rule(run_lints(model), "L2")
    assert not model._role_closures


def test_l5_requires_a_nonempty_strict_subset():
    base = (
        'policy "x"\nroles { r1: "A" }\ngroups { g1: "G" }\n'
        'attributes { d1: "D1" groups (g1) d2: "D2" groups (g1) }\n'
        'tasks { t1: "T1" reads d1 t2: "T2" reads d2 }\n'
    )
    # Tasks justify only d1 out of {d1, d2}: a strict subset, so L5 fires.
    partial = base + (
        'purposes { p1: "P" = [t1] }\nrole_purpose { r1 allowed p1 }\n'
        "purpose_group { p1 allowed group g1 }\n"
    )
    assert subjects(run_lints(load_policy(partial)), "L5") == {"p1:g1"}

    # Tasks justify every member: no finding.
    covered = base + (
        'purposes { p1: "P" = [t1, t2] }\nrole_purpose { r1 allowed p1 }\n'
        "purpose_group { p1 allowed group g1 }\n"
    )
    assert by_rule(run_lints(load_policy(covered)), "L5") == []

    # Tasks justify no member at all: the grant brings only new data,
    # which is L4/L6 territory, not a partial-overlap complaint.
    disjoint = base + (
        'purposes { p1: "P" }\nrole_purpose { r1 allowed p1 }\n'
        "purpose_group { p1 allowed group g1 }\n"
    )
    assert by_rule(run_lints(load_policy(disjoint)), "L5") == []


def test_l4_fires_for_universal_purpose_grant_and_catch_all_group():
    text = (
        'policy "x"\nroles { r1: "A" }\ngroups { g1: "G" }\n'
        'attributes { d1: "D1" groups (g1) d2: "D2" groups (g1) }\n'
        'purposes { p1: "Any" universal p2: "P" }\n'
        "purpose_group { p1 allowed group g1 p2 allowed group g1 }\n"
    )
    findings = run_lints(load_policy(text))
    # p1 is universal; g1 spans every attribute, so the p2 grant is also total.
    assert subjects(findings, "L4") == {"p1:g1", "p2:g1"}


def test_l6_ignores_catch_all_group_grants():
    # The g-all grant covers every attribute; treating it as justification
    # would hide genuinely unused attributes.
    text = (
        'policy "x"\nroles { r1: "A" }\ngroups { gall: "All" }\n'
        'attributes { d1: "D1" groups (gall) d2: "D2" groups (gall) }\n'
        'tasks { t1: "T" reads d1 }\n'
        'purposes { p1: "P" = [t1] }\nrole_purpose { r1 allowed p1 }\n'
        "purpose_group { p1 allowed group gall }\n"
    )
    findings = run_lints(load_policy(text))
    assert subjects(findings, "L6") == {"d2"}


def test_l6_counts_proper_group_grants_as_coverage():
    text = (
        'policy "x"\nroles { r1: "A" }\ngroups { g1: "G" }\n'
        'attributes { d1: "D1" groups (g1) d2: "D2" }\n'
        'purposes { p1: "P" }\nrole_purpose { r1 allowed p1 }\n'
        "purpose_group { p1 allowed group g1 }\n"
    )
    findings = run_lints(load_policy(text))
    assert subjects(findings, "L6") == {"d2"}


def test_l9_fires_for_conflict_or_reading_uncollected_data():
    conflict = PolicyModel(
        "x", attributes=(Attribute("d1", "Card", collected_conflict=True),)
    )
    assert subjects(run_lints(conflict), "L9") == {"d1"}

    read_uncollected = PolicyModel(
        "x",
        attributes=(Attribute("d1", "Card", collected=False),),
        tasks=(Task("t1", "T", reads="d1"),),
    )
    assert subjects(run_lints(read_uncollected), "L9") == {"d1"}

    merely_uncollected = PolicyModel(
        "x", attributes=(Attribute("d1", "Card", collected=False),)
    )
    assert by_rule(run_lints(merely_uncollected), "L9") == []


def test_l8_reports_each_empty_group_grant():
    model = PolicyModel(
        "x",
        groups=(AttributeGroup("g1", "Empty"),),
        purposes=(Purpose("p1", "P"), Purpose("p2", "Q")),
        pg_grants=(PurposeGroupGrant("p1", "g1"), PurposeGroupGrant("p2", "g1")),
    )
    assert subjects(run_lints(model), "L8") == {"p1:g1", "p2:g1"}


def test_l3_names_the_role_and_purpose():
    model = PolicyModel(
        "x",
        roles=(Role("r1", "A"),),
        purposes=(Purpose("p1", "Any", universal=True),),
        rp_grants=(RolePurposeGrant("r1", "p1"),),
    )
    findings = run_lints(model)
    assert subjects(findings, "L3") == {"r1:p1"}
    assert by_rule(findings, "L1") == []


def test_lints_are_deterministic(baby_model):
    first = format_findings(run_lints(baby_model))
    second = format_findings(run_lints(baby_model))
    assert first == second
    assert "\r" not in first


@given(seeds)
@settings(max_examples=150)
def test_l1_matches_direct_grant_scan(seed):
    model = gen.random_model(random.Random(seed))
    findings = run_lints(model, LintConfig(enabled=frozenset({"L1"})))
    granted = {g.purpose for g in model.rp_grants}
    assert subjects(findings, "L1") == {p.id for p in model.purposes if p.id not in granted}


@given(seeds)
@settings(max_examples=150)
def test_l2_matches_inherited_grant_scan(seed):
    model = gen.random_model(random.Random(seed))
    findings = run_lints(model, LintConfig(enabled=frozenset({"L2"})))
    granted_roles = {g.role for g in model.rp_grants}
    expected = {
        role.id
        for role in model.roles
        if not ({role.id} | brute_inferiors(model, role.id)) & granted_roles
    }
    assert subjects(findings, "L2") == expected


@given(seeds)
@settings(max_examples=100)
def test_l5_never_fires_when_tasks_cover_the_group(seed):
    model = gen.random_model(random.Random(seed))
    findings = run_lints(model, LintConfig(enabled=frozenset({"L5"})))
    flagged = subjects(findings, "L5")
    for grant in model.pg_grants:
        purpose = model.purposes_by_id[grant.purpose]
        reads = {model.tasks_by_id[t].reads for t in purpose.tasks}
        members = {a.id for a in model.attributes if grant.group in a.groups}
        covered = members and members <= reads
        if covered:
            assert f"{grant.purpose}:{grant.group}" not in flagged


L5_COUNTS = re.compile(r"need only (\d+) of group .*; (\d+) granted attribute\(s\) are")


def lint_inventory(model):
    """`run_lints` as `brute_lints` reports it: sorted (rule, subject, counts)."""
    inventory = []
    for f in run_lints(model):
        counts = L5_COUNTS.search(f.message) if f.rule == "L5" else None
        inventory.append((f.rule, f.subject, tuple(map(int, counts.groups())) if counts else ()))
    return sorted(inventory)


def test_lints_match_the_oracle_on_the_fixtures_and_shapes(shop_model, baby_model):
    shapes = [gen.shape_model(kind, n) for kind in gen.SHAPES for n in (1, 9, 10, 25, 40)]
    # With no attributes, the empty group spans none of them: L8, not L4.
    no_attributes = load_policy(
        'policy "no-attributes"\nroles { r: "R" }\ngroups { g: "G" }\npurposes { p: "P" }\n'
        "role_purpose { r allowed p }\npurpose_group { p allowed group g }\n"
    )
    assert lint_inventory(no_attributes) == [("L7", "p", ()), ("L8", "p:g", ())]
    for model in [shop_model, baby_model, no_attributes, *shapes]:
        assert lint_inventory(model) == brute_lints(model), model.name


@given(seeds)
@settings(max_examples=300)
def test_lints_match_the_oracle(seed):
    model = gen.random_model(random.Random(seed))
    assert lint_inventory(model) == brute_lints(model)


class CountingTuple(tuple):
    """A member tuple that counts the times it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("kind", gen.SHAPES)
def test_no_lint_rule_iterates_a_group_member_list(kind):
    # A rule that reads a group's members once per grant is quadratic on
    # these shapes; membership must come from `Attribute.groups` instead.
    model = gen.shape_model(kind, 2000)
    members = model.members_by_group
    for group, ids in members.items():
        members[group] = CountingTuple(ids)
    assert run_lints(model)
    assert sum(ids.iterations for ids in members.values()) == 0
