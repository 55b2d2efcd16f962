from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pppm.model import (
    Aggregation,
    Attribute,
    PolicyModel,
    Purpose,
    PurposeGroupGrant,
    PurposeTaskCondition,
    Role,
    RoleEdge,
    RolePurposeGrant,
    Task,
    UnknownEntityError,
    ValidationError,
    _cycles,
    aggregation_sources,
    inferiors,
    reach,
    validate,
)

import gen
from oracles import brute_aggregation_sources, brute_cycles, brute_inferiors, brute_reach

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _roles(*ids):
    return tuple(Role(i, i.upper()) for i in ids)


def test_fixture_models_are_valid(shop_model, baby_model):
    assert validate(shop_model) == []
    assert validate(baby_model) == []


def test_validate_reports_duplicate_ids():
    model = PolicyModel("x", roles=_roles("r1") + _roles("r1"))
    rules = [e.rule for e in validate(model)]
    assert rules == ["duplicate-id"]


def test_validate_reports_unknown_references():
    model = PolicyModel(
        "x",
        roles=_roles("r1"),
        role_edges=(RoleEdge("r1", "r9"),),
        tasks=(Task("t1", "T", reads="d9"),),
        purposes=(Purpose("p1", "P", tasks=("t9",)),),
        rp_grants=(RolePurposeGrant("r9", "p9"),),
    )
    errors = validate(model)
    assert all(e.rule == "unknown-id" for e in errors)
    missing = {e.message.rsplit("'", 2)[1] for e in errors}
    assert missing == {"r9", "d9", "t9", "p9"}


def test_validate_reports_role_cycle_once_naming_both_roles():
    model = PolicyModel(
        "x",
        roles=_roles("r1", "r2"),
        role_edges=(RoleEdge("r1", "r2"), RoleEdge("r2", "r1")),
    )
    errors = [e for e in validate(model) if e.rule == "role-cycle"]
    assert len(errors) == 1
    assert errors[0].subject == "r1,r2"
    assert "r1" in errors[0].message and "r2" in errors[0].message


def test_validate_reports_self_edge_and_duplicate_edge():
    model = PolicyModel(
        "x",
        roles=_roles("r1", "r2"),
        role_edges=(RoleEdge("r1", "r1"), RoleEdge("r1", "r2"), RoleEdge("r1", "r2")),
    )
    rules = sorted(e.rule for e in validate(model))
    assert rules == ["duplicate-role-edge", "role-self-edge"]


def test_validate_reports_aggregation_problems():
    attrs = tuple(Attribute(f"d{i}", f"A{i}") for i in range(3))
    self_product = PolicyModel(
        "x", attributes=attrs, aggregations=(Aggregation("d0", "d1", "d0"),)
    )
    assert any(e.rule == "aggregation-self" for e in validate(self_product))

    a = Attribute("a", "A", derived=True)
    b = Attribute("b", "B", derived=True)
    c = Attribute("c", "C")
    cyclic = PolicyModel(
        "x",
        attributes=(a, b, c),
        aggregations=(Aggregation("b", "c", "a"), Aggregation("a", "c", "b")),
    )
    cycle_errors = [e for e in validate(cyclic) if e.rule == "aggregation-cycle"]
    assert len(cycle_errors) == 1
    assert cycle_errors[0].subject == "a,b"


def test_validate_checks_derived_flag_consistency():
    attrs = (Attribute("d0", "A"), Attribute("d1", "B"), Attribute("d2", "C"))
    model = PolicyModel("x", attributes=attrs, aggregations=(Aggregation("d0", "d1", "d2"),))
    assert [e.subject for e in validate(model) if e.rule == "derived-flag"] == ["d2"]

    flagged = PolicyModel("x", attributes=(Attribute("d0", "A", derived=True),))
    assert [e.rule for e in validate(flagged)] == ["derived-flag"]


def test_validate_rejects_conflict_flag_with_definite_value():
    model = PolicyModel(
        "x", attributes=(Attribute("d0", "A", collected=True, collected_conflict=True),)
    )
    assert [e.rule for e in validate(model)] == ["collected-conflict-flag"]


def test_validate_reports_duplicate_and_misplaced_connections():
    model = PolicyModel(
        "x",
        roles=_roles("r1"),
        groups=(),
        attributes=(Attribute("d0", "A"),),
        tasks=(Task("t1", "T", reads="d0"), Task("t2", "U", reads="d0")),
        purposes=(Purpose("p1", "P", tasks=("t1", "t1")),),
        rp_grants=(RolePurposeGrant("r1", "p1"), RolePurposeGrant("r1", "p1")),
        pt_conditions=(
            PurposeTaskCondition("p1", "t2", gen.random_condition(random.Random(0))),
        ),
    )
    rules = sorted(e.rule for e in validate(model))
    assert rules == ["duplicate-grant", "duplicate-task-in-purpose", "task-not-in-purpose"]


def test_validate_reports_duplicate_group_grant():
    from pppm.model import AttributeGroup

    model = PolicyModel(
        "x",
        groups=(AttributeGroup("g1", "G"),),
        purposes=(Purpose("p1", "P"),),
        pg_grants=(PurposeGroupGrant("p1", "g1"), PurposeGroupGrant("p1", "g1")),
    )
    assert [e.rule for e in validate(model)] == ["duplicate-group-grant"]


def test_validate_is_deterministic(baby_model):
    assert validate(baby_model) == validate(baby_model)


def test_lookup_helpers_raise_on_unknown_ids(shop_model):
    for getter in ("role", "group", "attribute", "granularity", "task", "purpose"):
        with pytest.raises(UnknownEntityError):
            getattr(shop_model, getter)("nope")
    with pytest.raises(UnknownEntityError):
        inferiors(shop_model, "nope")
    with pytest.raises(UnknownEntityError):
        aggregation_sources(shop_model, "nope")


def test_group_members_in_declaration_order(shop_model):
    assert shop_model.group_members("g1") == ("d1", "d3", "d4", "d5", "d6")


def test_inferiors_examples(shop_model, baby_model):
    assert inferiors(shop_model, "r1") == ["r2", "r3", "r4"]
    assert inferiors(shop_model, "r2") == []
    assert inferiors(shop_model, "r3") == ["r4"]
    assert inferiors(baby_model, "r5") == ["r6", "r7"]
    assert inferiors(baby_model, "r1") == ["r4", "r5", "r6", "r7"]


def test_aggregation_sources_examples(shop_model):
    assert aggregation_sources(shop_model, "d7") == {"d2", "d6"}
    assert aggregation_sources(shop_model, "d1") == set()


def test_aggregation_sources_follow_chains():
    attrs = tuple(
        Attribute(x, x.upper(), derived=x in ("c", "e"))
        for x in ("a", "b", "c", "d", "e")
    )
    model = PolicyModel(
        "x",
        attributes=attrs,
        aggregations=(Aggregation("a", "b", "c"), Aggregation("c", "d", "e")),
    )
    assert validate(model) == []
    assert aggregation_sources(model, "e") == {"a", "b", "c", "d"}
    assert aggregation_sources(model, "c") == {"a", "b"}


@given(seeds)
def test_generated_models_are_valid(seed):
    assert validate(gen.random_model(random.Random(seed))) == []


@given(seeds)
def test_inferiors_matches_path_enumeration(seed):
    model = gen.random_model(random.Random(seed))
    for role in model.roles:
        assert set(inferiors(model, role.id)) == brute_inferiors(model, role.id)


@given(seeds)
def test_inferiors_irreflexive_and_transitive(seed):
    model = gen.random_model(random.Random(seed))
    for role in model.roles:
        below = inferiors(model, role.id)
        assert role.id not in below
        for lower in below:
            assert set(inferiors(model, lower)) <= set(below)


@given(seeds)
def test_aggregation_sources_match_fixpoint(seed):
    model = gen.random_model(random.Random(seed))
    for attr in model.attributes:
        assert aggregation_sources(model, attr.id) == brute_aggregation_sources(
            model, attr.id
        )


def test_validation_error_equality_ignores_where():
    first = ValidationError("unknown-id", "t1", "m", ("tasks", 0))
    other = ValidationError("unknown-id", "t1", "m", ("tasks", 3))
    assert first == other and hash(first) == hash(other)


@given(st.data())
def test_cycles_match_mutual_reachability(data):
    names = [f"n{i}" for i in range(data.draw(st.integers(1, 12)))]
    endpoint = st.sampled_from(names)
    edges = data.draw(st.lists(st.tuples(endpoint, endpoint), max_size=3 * len(names)))
    # Endpoints left out of `nodes` dangle, as references of an invalid model do.
    nodes = set(names) - data.draw(st.sets(endpoint, max_size=2))
    assert _cycles(nodes, edges) == brute_cycles(nodes, edges)


@given(st.data())
def test_cycles_match_mutual_reachability_on_acyclic_and_cyclic_graphs(data):
    # Edges from an earlier to a later node of a shuffled order make an
    # acyclic graph; each reversed copy of one of them closes a cycle.
    names = data.draw(st.permutations([f"n{i}" for i in range(data.draw(st.integers(2, 12)))]))
    index = st.integers(0, len(names) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index).filter(lambda p: p[0] != p[1]).map(sorted),
                               max_size=3 * len(names)))
    edges = [(names[a], names[b]) for a, b in pairs]
    back = data.draw(st.lists(st.sampled_from(edges), max_size=2)) if edges else []
    edges += [(b, a) for a, b in back]
    nodes = set(names)
    assert _cycles(nodes, edges) == brute_cycles(nodes, edges)
    assert bool(_cycles(nodes, edges)) == bool(back)


def test_cycles_of_an_acyclic_graph_make_no_sweep(monkeypatch):
    calls = []
    monkeypatch.setattr("pppm.model.reach", lambda *args: calls.append(args) or {})
    ladder = [(f"r{i}", f"r{j}") for i in range(50) for j in (i + 1, i + 2) if j < 50]
    assert _cycles({f"r{i}" for i in range(50)}, ladder) == [] and calls == []
    _cycles({"a", "b"}, [("a", "b"), ("b", "a")])  # a cycle is swept for
    assert calls


@given(st.data())
def test_reach_is_breadth_first_reachability(data):
    names = [f"n{i}" for i in range(data.draw(st.integers(1, 12)))]
    # x0 and x1 are successors with no entry of their own in `edges`.
    endpoint = st.sampled_from(names + ["x0", "x1"])
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(names), endpoint),
                               max_size=3 * len(names)))
    edges: dict[str, list[str]] = {}
    for a, b in pairs:
        edges.setdefault(a, []).append(b)
    starts = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    parent = reach(edges, starts)

    closure = brute_reach(set(names) | {"x0", "x1"}, pairs)
    assert set(parent) == set().union(*(closure[s] for s in starts)) - set(starts)
    earlier = set(starts)
    for node, via in parent.items():
        assert via in earlier and node in edges[via]
        earlier.add(node)
    # Shortest distances from the starts, by relaxing every edge once per node.
    distance = dict.fromkeys(starts, 0)
    for _ in closure:
        for a, b in pairs:
            if a in distance and distance.get(b, len(closure)) > distance[a] + 1:
                distance[b] = distance[a] + 1
    order = [distance[node] for node in parent]
    assert order == sorted(order)


def test_a_hierarchy_deeper_than_the_recursion_limit():
    n = 20_000
    roles = _roles(*(f"r{i}" for i in range(n)))
    chain = tuple(RoleEdge(f"r{i}", f"r{i + 1}") for i in range(n - 1))
    model = PolicyModel("x", roles=roles, role_edges=chain)
    assert validate(model) == []
    assert len(inferiors(model, "r0")) == n - 1
    ring = PolicyModel("x", roles=roles, role_edges=chain + (RoleEdge(f"r{n - 1}", "r0"),))
    [error] = validate(ring)
    assert (error.rule, error.where) == ("role-cycle", ("role_edges", 0))
    assert error.subject == ",".join(sorted(r.id for r in roles))


def test_cycles_walk_each_edge_once(monkeypatch):
    # A ring of n roles, each also feeding a two-node cycle of its own: every
    # backward sweep from a small cycle meets the ring, and must stop there.
    n = 3_000
    ring = [(f"r{i}", f"r{(i + 1) % n}") for i in range(n)]
    pairs = [edge for i in range(n) for edge in
             ((f"r{i}", f"a{i}"), (f"a{i}", f"b{i}"), (f"b{i}", f"a{i}"))]
    nodes = {node for edge in ring + pairs for node in edge}
    returned = []

    def counting_reach(edges, starts):
        parent = reach(edges, starts)
        returned.append(len(parent))
        return parent

    monkeypatch.setattr("pppm.model.reach", counting_reach)
    cycles = _cycles(nodes, ring + pairs)
    assert len(cycles) == n + 1
    assert sorted(f"r{i}" for i in range(n)) in cycles
    assert sum(returned) <= 2 * (len(nodes) + len(ring + pairs))
