from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pppm.conditions import Chain, ConditionExpr, ConditionTypeError, Var, parse_condition
from pppm.model import (
    Attribute,
    AttributeGroup,
    PolicyModel,
    Purpose,
    PurposeGroupGrant,
    PurposeTaskCondition,
    Role,
    RoleEdge,
    RolePurposeGrant,
    Task,
    UnknownEntityError,
    inferiors,
    validate,
)
from pppm.query import (
    Outcome,
    QueryEvaluationError,
    accessible_attributes,
    can_access,
    effective_purposes,
)

import gen
from oracles import brute_can_access, brute_effective_purposes, brute_hops, make_time, purpose_sources
from test_fuzz_validate import SEED, corrupted_models

seeds = st.integers(min_value=0, max_value=2**32 - 1)

TIME_COND = parse_condition("08:00 < now < 17:00")
AGE_COND = parse_condition("age > 18")

_RANK = {Outcome.DENY: 0, Outcome.CONDITIONAL: 1, Outcome.ALLOW: 2}


def test_manager_inherits_every_purpose_with_conditions(shop_model):
    grants = effective_purposes(shop_model, "r1")
    assert [(g.purpose, g.condition, g.via) for g in grants] == [
        ("p1", None, "r2"),
        ("p2", None, "r4"),
        ("p3", TIME_COND, "r4"),
        ("p4", None, "r3"),
    ]


def test_leaf_roles_see_only_their_own_grants(shop_model):
    assert [(g.purpose, g.via) for g in effective_purposes(shop_model, "r2")] == [
        ("p1", "r2")
    ]
    assert [(g.purpose, g.via) for g in effective_purposes(shop_model, "r4")] == [
        ("p2", "r4"),
        ("p3", "r4"),
    ]


def test_effective_purposes_unknown_role(shop_model):
    with pytest.raises(UnknownEntityError):
        effective_purposes(shop_model, "r99")


def test_accessible_attributes_follow_task_order(shop_model):
    sources = accessible_attributes(shop_model, "p1")
    assert [(s.attribute, s.source, s.kind) for s in sources] == [
        ("d1", "t1", "task"),
        ("d2", "t2", "task"),
        ("d3", "t3", "task"),
        ("d4", "t4", "task"),
        ("d5", "t5", "task"),
    ]
    assert all(s.condition is None for s in sources)


def test_accessible_attributes_carry_conditions_and_granularity(shop_model):
    p3 = accessible_attributes(shop_model, "p3")
    assert [(s.attribute, s.condition) for s in p3] == [
        ("d1", AGE_COND),
        ("d5", None),
    ]
    p4 = accessible_attributes(shop_model, "p4")
    assert [(s.attribute, s.granularity) for s in p4] == [
        ("d6", "date2age"),
        ("d2", None),
        ("d7", None),
    ]


def test_accessible_attributes_include_group_grant_members(baby_model):
    sources = accessible_attributes(baby_model, "p12")
    assert (sources[0].attribute, sources[0].kind) == ("d5", "task")
    group_entries = [s for s in sources if s.kind == "group"]
    assert len(group_entries) == 21
    assert all(s.source == "personal" for s in group_entries)
    assert group_entries[0].attribute == "d1"
    assert len(sources) == 22


def test_can_access_conditional_with_both_residuals(shop_model):
    decision = can_access(shop_model, "r4", "d1", "p3")
    assert decision.outcome is Outcome.CONDITIONAL
    assert decision.residual == (TIME_COND, AGE_COND)
    path = decision.path
    assert (path.purpose, path.via, path.source, path.source_kind) == (
        "p3",
        "r4",
        "t1",
        "task",
    )


def test_can_access_resolves_conditions_from_context(shop_model):
    base = dict(now=make_time(10, 0))
    assert (
        can_access(shop_model, "r4", "d1", "p3", {**base, "age": 25}).outcome
        is Outcome.ALLOW
    )
    assert (
        can_access(shop_model, "r4", "d1", "p3", {**base, "age": 15}).outcome
        is Outcome.DENY
    )
    late = dict(now=make_time(18, 0), age=25)
    assert can_access(shop_model, "r4", "d1", "p3", late).outcome is Outcome.DENY
    partial = can_access(shop_model, "r4", "d1", "p3", {"age": 25})
    assert partial.outcome is Outcome.CONDITIONAL
    assert partial.residual == (TIME_COND,)


def test_can_access_unconditional_allow(shop_model):
    decision = can_access(shop_model, "r2", "d1", "p1")
    assert decision.outcome is Outcome.ALLOW
    assert decision.residual == ()
    assert decision.path.hops == ("r2",)


def test_can_access_without_purpose_takes_most_permissive(shop_model):
    # r4 holds p2 (unconditional, reaches d1 through t1) and p3 (conditional),
    # so leaving the purpose open must yield the unconditional allow.
    decision = can_access(shop_model, "r4", "d1")
    assert decision.outcome is Outcome.ALLOW
    assert decision.path.purpose == "p2"


def test_can_access_records_inheritance_hops(shop_model):
    decision = can_access(shop_model, "r1", "d7")
    assert decision.outcome is Outcome.ALLOW
    assert decision.path.purpose == "p4"
    assert decision.path.hops == ("r1", "r3")
    assert decision.path.granularity is None


def test_can_access_structural_deny_has_no_path(shop_model):
    decision = can_access(shop_model, "r2", "d6")
    assert decision.outcome is Outcome.DENY
    assert decision.residual == ()
    assert decision.path is None


def test_can_access_deny_keeps_the_inspected_path(shop_model):
    decision = can_access(shop_model, "r4", "d1", "p3", {"age": 10, "now": make_time(9, 0)})
    assert decision.outcome is Outcome.DENY
    assert decision.path is not None
    assert decision.path.purpose == "p3"


def test_can_access_unknown_ids(shop_model):
    with pytest.raises(UnknownEntityError):
        can_access(shop_model, "r99", "d1")
    with pytest.raises(UnknownEntityError):
        can_access(shop_model, "r1", "d99")
    with pytest.raises(UnknownEntityError):
        can_access(shop_model, "r1", "d1", "p99")


@pytest.mark.parametrize(
    "request_ids, message",
    [
        (("r99", "d99", "p99"), "unknown role 'r99'"),
        (("r1", "d99", "p99"), "unknown attribute 'd99'"),
        (("r1", "d1", "p99"), "unknown purpose 'p99'"),
    ],
)
def test_can_access_checks_the_role_then_the_attribute_then_the_purpose(
    shop_model, request_ids, message
):
    with pytest.raises(UnknownEntityError) as info:
        can_access(shop_model, *request_ids)
    assert str(info.value) == message


def test_can_access_reports_type_clashes(shop_model):
    with pytest.raises(QueryEvaluationError):
        can_access(shop_model, "r4", "d1", "p3", {"age": "fifteen", "now": make_time(9, 0)})
    with pytest.raises(QueryEvaluationError, match="unsupported value type list"):
        can_access(shop_model, "r4", "d1", "p3", {"age": [19], "now": make_time(9, 0)})


def test_can_access_reports_non_finite_numbers(shop_model):
    with pytest.raises(QueryEvaluationError, match="non-finite"):
        can_access(shop_model, "r4", "d1", "p3", {"age": math.nan, "now": make_time(10, 0)})


def _two_purposes(grant_condition=None, source_condition=None):
    """r1 holds p1 and p2, each reaching d1 through one task; p1 sorts first."""
    conditions = ()
    if source_condition is not None:
        conditions = (PurposeTaskCondition("p1", "t1", parse_condition(source_condition)),)
    return PolicyModel(
        "x",
        roles=(Role("r1", "R"),),
        attributes=(Attribute("d1", "D"),),
        tasks=(Task("t1", "T", "d1"), Task("t2", "U", "d1")),
        purposes=(Purpose("p2", "Q", ("t2",)), Purpose("p1", "P", ("t1",))),
        rp_grants=(
            RolePurposeGrant("r1", "p2", parse_condition("age > 18")),
            RolePurposeGrant(
                "r1", "p1", None if grant_condition is None else parse_condition(grant_condition)
            ),
        ),
        pt_conditions=conditions,
    )


def test_a_clash_after_the_deciding_allow_is_not_raised():
    decision = can_access(_two_purposes(), "r1", "d1", None, {"age": "x"})
    assert (decision.outcome, decision.path.purpose) == (Outcome.ALLOW, "p1")


def test_a_clash_on_the_first_candidate_names_its_grant():
    with pytest.raises(QueryEvaluationError) as info:
        can_access(_two_purposes("tier == 1"), "r1", "d1", None, {"tier": "gold"})
    assert str(info.value) == (
        "cannot evaluate the grant condition 'tier == 1' on grant r1->p1: "
        "cannot compare string to number"
    )
    assert isinstance(info.value.__cause__, ConditionTypeError)


def test_a_false_grant_condition_hides_a_clash_in_the_source_condition():
    model = _two_purposes("flag == true", "tier == 1")
    decision = can_access(model, "r1", "d1", "p1", {"flag": False, "tier": "gold"})
    assert (decision.outcome, decision.path.purpose) == (Outcome.DENY, "p1")
    with pytest.raises(QueryEvaluationError) as info:
        can_access(model, "r1", "d1", "p1", {"flag": True, "tier": "gold"})
    assert str(info.value) == (
        "cannot evaluate the source condition 'tier == 1' on grant r1->p1: "
        "cannot compare string to number"
    )


def test_an_operator_outside_relops_names_its_grant():
    # Refused when built, so no grant holds one for `can_access` to meet.
    with pytest.raises(ConditionTypeError, match="^unknown comparison operator '=>'$"):
        ConditionExpr((Chain((Var("age"), 18), ("=>",)),))


def test_a_value_of_no_condition_type_names_its_grant():
    with pytest.raises(ConditionTypeError, match="^unsupported value type list$"):
        ConditionExpr((Chain((Var("age"), [1]), (">",)),))


@pytest.mark.parametrize("operands, ops", [
    ((Var("age"), 1, "x"), (">",)), ((Var("age"),), ()), ((Var("age"),), (">",)),
])
def test_a_malformed_chain_names_its_grant(operands, ops):
    message = f"^malformed chain: {len(operands)} operands, {len(ops)} operators$"
    with pytest.raises(ConditionTypeError, match=message):
        ConditionExpr((Chain(operands, ops),))


def test_a_repeated_purpose_task_condition_resolves_to_its_first():
    first, second = parse_condition("age > 18"), parse_condition("age > 30")
    model = PolicyModel(
        "x",
        roles=(Role("r1", "R"),),
        attributes=(Attribute("d1", "D"),),
        tasks=(Task("t1", "T", "d1"),),
        purposes=(Purpose("p1", "P", ("t1",)),),
        rp_grants=(RolePurposeGrant("r1", "p1"),),
        pt_conditions=(PurposeTaskCondition("p1", "t1", first),
                       PurposeTaskCondition("p1", "t1", second)),
    )
    # The validator names the second as the duplicate, so the first holds.
    assert [e.where for e in model.validation_errors] == [("pt_conditions", 1)]
    decision = can_access(model, "r1", "d1", None, {"age": 20})
    assert decision.outcome is Outcome.ALLOW
    assert [pc.condition for pc in decision.path.conditions] == [first]
    # As a repeated role grant does.
    grants = (RolePurposeGrant("r1", "p1", first), RolePurposeGrant("r1", "p1", second))
    regranted = model._replace(rp_grants=grants, pt_conditions=())
    assert can_access(regranted, "r1", "d1", None, {"age": 20}).outcome is Outcome.ALLOW


def test_decision_describe_is_stable(shop_model):
    decision = can_access(shop_model, "r4", "d1", "p3")
    assert decision.describe() == (
        "Conditional\n"
        "residual: 08:00 < now < 17:00\n"
        "residual: age > 18\n"
        "purpose: p3 (granted to r4)\n"
        "hops: r4\n"
        "source: task t1\n"
        "condition (grant): 08:00 < now < 17:00\n"
        "condition (source): age > 18"
    )


def test_a_task_and_a_group_sharing_an_id_keep_the_source_order():
    # Both paths tie on (purpose, source, via); the task comes first, as in
    # accessible_attributes, so it is the path reported.
    model = PolicyModel(
        "x",
        roles=(Role("r1", "R"),),
        groups=(AttributeGroup("s1", "G"),),
        attributes=(Attribute("d1", "D", frozenset({"s1"})),),
        tasks=(Task("s1", "T", "d1"),),
        purposes=(Purpose("p1", "P", ("s1",)),),
        rp_grants=(RolePurposeGrant("r1", "p1"),),
        pg_grants=(PurposeGroupGrant("p1", "s1"),),
    )
    assert not validate(model)
    assert [s.kind for s in accessible_attributes(model, "p1")] == ["task", "group"]
    assert can_access(model, "r1", "d1").path.source_kind == "task"


def test_a_tie_group_is_walked_per_via_before_the_next_via():
    # Task s1 and group s1 tie on (p1, s1) and both reach d1 through r1 and
    # r2.  In (purpose, source, via) order r1's task path is False, r1's
    # group path allows, and r2's grant, which would raise, is never read.
    model = PolicyModel(
        "x",
        roles=(Role("r0", "Top"), Role("r1", "A"), Role("r2", "B")),
        role_edges=(RoleEdge("r0", "r1"), RoleEdge("r0", "r2")),
        groups=(AttributeGroup("s1", "G"),),
        attributes=(Attribute("d1", "D", frozenset({"s1"})),),
        tasks=(Task("s1", "T", "d1"),),
        purposes=(Purpose("p1", "P", ("s1",)),),
        rp_grants=(
            RolePurposeGrant("r1", "p1"),
            RolePurposeGrant("r2", "p1", parse_condition("tier == 1")),
        ),
        pt_conditions=(PurposeTaskCondition("p1", "s1", AGE_COND),),
        pg_grants=(PurposeGroupGrant("p1", "s1"),),
    )
    assert not validate(model)
    decision = can_access(model, "r0", "d1", None, {"age": 10, "tier": "gold"})
    assert decision.outcome is Outcome.ALLOW
    path = decision.path
    assert (path.via, path.source_kind, path.source, path.hops) == ("r1", "group", "s1", ("r0", "r1"))


def _assert_access_index_order(model):
    for role in model.roles:
        for grants in model.role_closure(role.id).grants.values():
            vias = [grant.role for grant in grants]
            assert vias == sorted(set(vias))
    entries = [entry for purpose in model.purposes_by_id for entry in purpose_sources(model, purpose)]
    for attribute in model.attributes_by_id:
        groups = model.attribute_sources(attribute)
        assert model._sources_by_attribute[attribute] is groups
        keys = [group[0][1:3] for group in groups]
        assert keys == sorted(set(keys))
        for key, group in zip(keys, groups):
            assert all(entry[0] == attribute and entry[1:3] == key for entry in group)
            kinds = [entry[3] for entry in group]
            assert kinds == sorted(kinds, key=lambda kind: kind != "task")
        # Grouping is a stable sort of the source-order entries.
        in_source_order = [entry for entry in entries if entry[0] == attribute]
        expected = sorted(in_source_order, key=itemgetter(1, 2))
        assert [entry for group in groups for entry in group] == expected
    # Every attribute a source reaches has some; the others have none.
    assert {a for a, groups in model._sources_by_attribute.items() if groups} == {
        entry[0] for entry in entries}


@given(seeds)
@settings(max_examples=200)
def test_the_access_index_keeps_the_walk_order(shop_model, baby_model, seed):
    _assert_access_index_order(shop_model)
    _assert_access_index_order(baby_model)
    _assert_access_index_order(gen.random_model(random.Random(seed)))


def _assert_sources_are_the_references(model) -> list[str]:
    """Each purpose's `accessible_attributes` equals its `purpose_sources`, or
    both raise the same UnknownEntityError; returns the messages raised."""
    raised = []
    for purpose in model.purposes_by_id:
        try:
            expected = [entry[:1] + entry[2:] for entry in purpose_sources(model, purpose)]
        except UnknownEntityError as exc:
            with pytest.raises(UnknownEntityError) as info:
                accessible_attributes(model, purpose)
            assert str(info.value) == str(exc)
            raised.append(str(exc))
        else:
            assert [tuple(s) for s in accessible_attributes(model, purpose)] == expected
    return raised


@given(seeds)
@settings(max_examples=200)
def test_accessible_attributes_are_the_purpose_references(shop_model, baby_model, seed):
    rng = random.Random(seed)
    for model in (shop_model, baby_model, gen.random_model(rng), gen.hierarchy_model(rng)):
        assert _assert_sources_are_the_references(model) == []


def test_the_shapes_accessible_attributes_are_the_purpose_references():
    for kind in gen.SHAPES:
        for n in (1, 7, 30):
            assert _assert_sources_are_the_references(gen.shape_model(kind, n)) == []


def test_an_invalid_models_accessible_attributes_are_the_purpose_references():
    raised = Counter()
    for model in corrupted_models(SEED, 1500):
        raised.update(message.split(" ")[1] for message in _assert_sources_are_the_references(model))
    assert raised["task"] and raised["group"], raised


def test_accessible_attributes_check_the_asked_purposes_references_alone():
    # p2 lists the unknown task tx; p3 also lists tx and is granted the
    # unknown group gx; p4 is granted gx alone.
    model = PolicyModel(
        "x",
        roles=(Role("r1", "R"),),
        attributes=(Attribute("d1", "A"),),
        tasks=(Task("t1", "T", "d1"),),
        purposes=(Purpose("p1", "P", ("t1",)), Purpose("p2", "Q", ("tx",)),
                  Purpose("p3", "S", ("t1", "tx")), Purpose("p4", "U", ("t1",))),
        rp_grants=(RolePurposeGrant("r1", "p1"),),
        pg_grants=(PurposeGroupGrant("p3", "gx"), PurposeGroupGrant("p4", "gx")),
    )
    for purpose, message in (("p9", "unknown purpose 'p9'"), ("p3", "unknown task 'tx'"),
                             ("p4", "unknown group 'gx'")):
        with pytest.raises(UnknownEntityError) as info:
            accessible_attributes(model, purpose)
        assert str(info.value) == message
    assert [s.attribute for s in accessible_attributes(model, "p1")] == ["d1"]
    # `can_access` still builds the whole index, so any purpose's dangling
    # task raises first.
    with pytest.raises(UnknownEntityError, match="unknown task 'tx'"):
        can_access(model, "r1", "d1")


def test_a_duplicated_id_resolves_to_its_first_declaration():
    model = PolicyModel(
        "x",
        roles=(Role("r1", "R"),),
        attributes=(Attribute("d1", "A"), Attribute("d2", "B")),
        tasks=(Task("t1", "T", "d1"), Task("t2", "U", "d2")),
        purposes=(Purpose("p", "First", ("t1",)), Purpose("p", "Second", ("t2",))),
        rp_grants=(RolePurposeGrant("r1", "p"),),
    )
    assert model.purpose("p").label == "First"
    assert [s.attribute for s in accessible_attributes(model, "p")] == ["d1"]
    assert can_access(model, "r1", "d1", "p").outcome is Outcome.ALLOW
    assert can_access(model, "r1", "d2", "p").outcome is Outcome.DENY
    [error] = validate(model)
    assert (error.rule, error.subject, error.message, error.where) == (
        "duplicate-id", "p", "duplicate purpose id 'p'", ("purposes", 1)
    )


def test_decisions_are_deterministic(shop_model):
    a = can_access(shop_model, "r1", "d1")
    b = can_access(shop_model, "r1", "d1")
    assert a == b


@given(seeds)
@settings(max_examples=200)
def test_effective_purposes_match_brute_force(seed):
    model = gen.random_model(random.Random(seed))
    for role in model.roles:
        got = [(g.purpose, g.condition, g.via) for g in effective_purposes(model, role.id)]
        assert got == brute_effective_purposes(model, role.id)


@given(seeds)
@settings(max_examples=200)
def test_can_access_outcome_matches_brute_force(seed):
    rng = random.Random(seed)
    model = gen.random_model(rng)
    ctx = gen.random_ctx(rng)
    role = rng.choice(model.roles).id
    attribute = rng.choice(model.attributes).id
    purpose = None
    if model.purposes and rng.random() < 0.5:
        purpose = rng.choice(model.purposes).id
    decision = can_access(model, role, attribute, purpose, ctx)
    assert decision.outcome.value == brute_can_access(model, role, attribute, purpose, ctx)
    if decision.outcome is Outcome.CONDITIONAL:
        assert decision.residual
    else:
        assert decision.residual == ()


@given(seeds)
@settings(max_examples=100)
def test_superiors_are_at_least_as_permissive(seed):
    rng = random.Random(seed)
    model = gen.random_model(rng)
    ctx = gen.random_ctx(rng)
    if not model.attributes:
        return
    attribute = rng.choice(model.attributes).id
    for edge in model.role_edges:
        upper = can_access(model, edge.superior, attribute, None, ctx)
        lower = can_access(model, edge.inferior, attribute, None, ctx)
        assert _RANK[upper.outcome] >= _RANK[lower.outcome]


@given(seeds)
@settings(max_examples=100)
def test_definite_outcomes_survive_context_extension(seed):
    rng = random.Random(seed)
    model = gen.random_model(rng)
    ctx = gen.random_ctx(rng)
    role = rng.choice(model.roles).id
    attribute = rng.choice(model.attributes).id
    before = can_access(model, role, attribute, None, ctx)
    after = can_access(model, role, attribute, None, gen.extend_ctx(rng, ctx))
    if before.outcome is not Outcome.CONDITIONAL:
        assert after.outcome is before.outcome


@given(seeds)
@settings(max_examples=200)
def test_hops_are_the_shortest_chain_with_the_smallest_ids(seed):
    rng = random.Random(seed)
    model = gen.random_model(rng)
    ctx = gen.random_ctx(rng)
    # A hierarchy with diamonds gives a role more than one chain to choose from.
    for model in (model, gen.hierarchy_model(rng)):
        for role in model.roles:
            for attribute in model.attributes:
                for purpose in [None] + [p.id for p in model.purposes]:
                    path = can_access(model, role.id, attribute.id, purpose, ctx).path
                    if path is not None:
                        assert path.hops == brute_hops(model, role.id, path.via)


def test_hops_take_the_shortest_chain_over_a_longer_one_with_smaller_ids():
    # r0 -> r1 -> r3 -> r4 is met first in id order; r0 -> r2 -> r4 is shorter.
    model = PolicyModel(
        "x",
        roles=tuple(Role(f"r{i}", "R") for i in range(5)),
        role_edges=(RoleEdge("r0", "r1"), RoleEdge("r1", "r3"), RoleEdge("r3", "r4"),
                    RoleEdge("r0", "r2"), RoleEdge("r2", "r4")),
        attributes=(Attribute("d1", "D"),),
        tasks=(Task("t1", "T", "d1"),),
        purposes=(Purpose("p1", "P", ("t1",)),),
        rp_grants=(RolePurposeGrant("r4", "p1"),),
    )
    path = can_access(model, "r0", "d1", "p1", {}).path
    assert path.via == "r4" and path.hops == ("r0", "r2", "r4")
    assert path.hops == brute_hops(model, "r0", "r4")


@given(seeds)
@settings(max_examples=100)
def test_answers_do_not_depend_on_query_history(seed):
    rng = random.Random(seed)
    model = gen.random_model(rng)
    twin = model._replace()
    assert twin == model and twin is not model
    requests = [
        (
            rng.choice(model.roles).id,
            rng.choice(model.attributes).id,
            rng.choice([None] + [p.id for p in model.purposes]),
            gen.random_ctx(rng),
        )
        for _ in range(30)
    ]
    forward = [can_access(model, *req).describe() for req in requests]
    # The twin first hands out every derived list and each one is mutated;
    # then it answers the same requests in the reverse order.
    for role in twin.roles:
        below, grants = inferiors(twin, role.id), effective_purposes(twin, role.id)
        below.clear()
        below.append(role.id)
        grants.reverse()
        grants.append(None)
        assert inferiors(twin, role.id) == inferiors(model, role.id)
        assert effective_purposes(twin, role.id) == effective_purposes(model, role.id)
    for purpose in twin.purposes:
        sources = accessible_attributes(twin, purpose.id)
        sources.reverse()
        sources.append(None)
        assert accessible_attributes(twin, purpose.id) == accessible_attributes(model, purpose.id)
    backward = [can_access(twin, *req).describe() for req in reversed(requests)]
    assert backward[::-1] == forward


# Fixed contexts for the fixtures: empty, partial, and one that binds every
# variable either fixture uses (`now`, `age`, `consent`, `subscription`).
FIXTURE_CONTEXTS = (
    {},
    {"age": 25, "consent": True},
    {"now": make_time(10, 0), "age": 15, "consent": False, "subscription": True},
)
DIGEST_SEEDS = 200

# sha256 over repr(can_access(...)) for every role x attribute x purpose
# (None, then each declared purpose) on both fixtures under FIXTURE_CONTEXTS,
# then on gen models 0-199 under three gen contexts each; recorded before
# can_access was rewritten as one fold over candidate tuples.
DECISION_DIGEST = "e9b2aabdd6681a80e25c76f42a6229783f74c99810cf0bd38608b40d5f6bfdb8"


def _decisions(model, contexts):
    for ctx in contexts:
        for role in model.roles:
            for attribute in model.attributes:
                for purpose in [None, *(p.id for p in model.purposes)]:
                    yield can_access(model, role.id, attribute.id, purpose, ctx)


def test_whole_decisions_are_pinned(shop_model, baby_model):
    digest = hashlib.sha256()
    outcomes: Counter = Counter()
    models = [(shop_model, FIXTURE_CONTEXTS), (baby_model, FIXTURE_CONTEXTS)]
    for seed in range(DIGEST_SEEDS):
        rng = random.Random(seed)
        model = gen.random_model(rng)
        models.append((model, [gen.random_ctx(rng) for _ in range(3)]))
    for model, contexts in models:
        for decision in _decisions(model, contexts):
            digest.update(repr(decision).encode("utf-8") + b"\n")
            outcomes[decision.outcome] += 1
        digest.update(b"--\n")
    assert len(outcomes) == 3, outcomes
    assert digest.hexdigest() == DECISION_DIGEST, outcomes
