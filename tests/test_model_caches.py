"""The per-model caches (the validation report, the group-member index and
the access index) and the per-parse condition memo."""

from __future__ import annotations

import random
import sys
import types
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pppm.dsl
import pppm.lints
import pppm.model
import pppm.render
from pppm.conditions import parse_condition
from pppm.dsl import lower, parse_policy
from pppm.lints import run_lints
from pppm.model import (
    Attribute,
    AttributeGroup,
    InvalidModelError,
    PolicyModel,
    Purpose,
    PurposeGroupGrant,
    RolePurposeGrant,
    Task,
    UnknownEntityError,
    inferiors,
    validate,
)
from pppm.query import accessible_attributes, can_access
from pppm.render import emit_graph, emit_tables

import gen
from oracles import whole_access_index
from test_fuzz_validate import SEED, corrupted_models

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_a_pass_validates_the_model_once(monkeypatch, shop_text):
    calls = []
    real = pppm.model.validate

    def counting(model):
        calls.append(model)
        return real(model)

    for module in (pppm.model, pppm.dsl, pppm.lints, pppm.render):
        monkeypatch.setattr(module, "validate", counting, raising=False)
    model = lower(parse_policy(shop_text))
    assert len(calls) == 1
    run_lints(model)
    emit_graph(model)
    emit_tables(model)
    assert calls == [model]


def test_invalid_model_is_rejected_on_every_call():
    broken = PolicyModel("x", rp_grants=(RolePurposeGrant("r9", "p9"),))
    for _ in range(2):
        with pytest.raises(InvalidModelError) as info:
            run_lints(broken)
        assert str(info.value) == "model has 2 validation error(s); lint requires a valid model"
        for emit in (emit_graph, emit_tables):
            with pytest.raises(InvalidModelError) as info:
                emit(broken)
            assert str(info.value) == (
                "model has 2 validation error(s); rendering requires a valid model"
            )


def test_validate_returns_a_fresh_list(baby_model):
    broken = PolicyModel("x", rp_grants=(RolePurposeGrant("r9", "p9"),))
    first = validate(broken)
    second = validate(broken)
    assert first == second and first is not second
    first.clear()
    assert validate(broken) == second
    assert validate(baby_model) is not validate(baby_model)


@given(seeds)
def test_group_members_match_an_attribute_scan(seed):
    rng = random.Random(seed)
    model = gen.random_model(rng)
    # Declaration order need not be id order.
    shuffled = model._replace(attributes=tuple(rng.sample(model.attributes, len(model.attributes))))
    for m in (model, shuffled):
        for group in m.groups:
            assert m.group_members(group.id) == tuple(
                a.id for a in m.attributes if group.id in a.groups
            )


def test_group_members_of_unknown_group(shop_model):
    with pytest.raises(UnknownEntityError):
        shop_model.group_members("g99")
    with pytest.raises(UnknownEntityError):
        PolicyModel("x").group_members("g1")


def test_caches_do_not_take_part_in_equality(baby_text):
    warm = pppm.dsl.load_policy(baby_text)
    cold = pppm.dsl.load_policy(baby_text)
    run_lints(warm)
    emit_graph(warm)
    assert "validation_errors" in vars(warm) and "members_by_group" in vars(warm)
    assert "members_by_group" not in vars(cold)
    assert warm == cold and hash(warm) == hash(cold)
    assert warm._replace() == warm
    assert "validation_errors" not in vars(warm._replace())


def test_the_access_index_is_built_lazily(shop_text):
    model = pppm.dsl.load_policy(shop_text)
    index = {"children_by_role", "grants_by_role", "_role_closures",
             "_source_maps", "_sources_by_attribute"}
    assert not index & set(vars(model))
    # `accessible_attributes` builds no part of the access index.
    accessible_attributes(model, "p1")
    assert not {"_source_maps", "_sources_by_attribute"} & set(vars(model))
    inferiors(model, "r3")
    assert set(model._role_closures) == {"r3"}
    assert "_source_maps" not in vars(model)
    can_access(model, "r1", "d1")
    assert set(model._role_closures) == {"r3", "r1"}
    assert index <= set(vars(model))
    # The first query fills the queried attribute's sources alone, and
    # `accessible_attributes` adds nothing to the model.
    assert set(model._sources_by_attribute) == {"d1"}
    built = set(vars(model))
    accessible_attributes(model, "p2")
    assert set(vars(model)) == built and set(model._sources_by_attribute) == {"d1"}
    can_access(model, "r2", "d1", "p1")
    can_access(model, "r1", "d2")
    assert set(model._sources_by_attribute) == {"d1", "d2"}
    assert model == pppm.dsl.load_policy(shop_text)


def test_each_attributes_sources_are_computed_once(monkeypatch, shop_text):
    model = pppm.dsl.load_policy(shop_text)
    calls = []
    real = PolicyModel.attribute_sources
    monkeypatch.setattr(PolicyModel, "attribute_sources",
                        lambda self, attribute: calls.append(attribute) or real(self, attribute))
    for _ in range(3):
        can_access(model, "r1", "d1")
        can_access(model, "r2", "d2", "p1")
    assert calls == ["d1", "d2"]


def _policy_model_code() -> set:
    """The code of every method and cached property of PolicyModel."""
    functions = [getattr(value, "func", value) for value in vars(PolicyModel).values()]
    return {f.__code__ for f in functions if isinstance(f, types.FunctionType)}


def test_a_warmed_request_calls_no_policy_model_method(shop_text):
    model = pppm.dsl.load_policy(shop_text)
    contexts = ({}, {"age": 30}, {"age": 10, "consent": True})
    requests = [(role.id, attribute.id, purpose, ctx) for role in model.roles
                for attribute in model.attributes for purpose in (None, *model.purposes_by_id)
                for ctx in contexts]
    for request in requests:
        can_access(model, *request)
    methods, called = _policy_model_code(), []

    def profile(frame, event, arg):
        if event == "call":
            called.append(frame.f_code)

    sys.setprofile(profile)
    try:
        outcomes = Counter(can_access(model, *request).outcome for request in requests)
    finally:
        sys.setprofile(None)
    assert len(outcomes) == 3  # Allow, Conditional and Deny were all decided
    assert can_access.__code__ in called
    assert [code.co_name for code in called if code in methods] == []


def test_unknown_roles_are_not_memoised(shop_model):
    for _ in range(2):
        with pytest.raises(UnknownEntityError):
            inferiors(shop_model, "r99")
    assert "r99" not in shop_model._role_closures


def test_each_distinct_condition_text_is_parsed_once_per_call(monkeypatch):
    calls = []
    real = pppm.dsl.parse_condition

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(pppm.dsl, "parse_condition", counting)
    text = (
        'policy "x"\n'
        'role_purpose {\n  r1 allowed p1 when "age > 18"\n  r2 allowed p1 when "age > 18"\n'
        '  r3 allowed p1\n  r4 allowed p1 when "consent == true"\n}\n'
        'purpose_task_conditions { p1 task t1 when "age > 18" }\n'
        'purpose_group {\n  p1 allowed group g1 when "consent == true"\n'
        '  p2 allowed group g1 when "age  > 18"\n}\n'
    )
    decls = parse_policy(text)
    assert sorted(calls) == ["age  > 18", "age > 18", "consent == true"]
    conditions = [d.condition for d in decls.entries]
    assert conditions[0] == conditions[1] == conditions[4] == conditions[6]
    assert conditions[3] == conditions[5] and conditions[2] is None
    # Nothing is kept between calls.
    parse_policy(text)
    assert len(calls) == 6


def _first_query_outcome(model: PolicyModel):
    """What the first `can_access` on a copy of `model` raises, or None."""
    fresh = model._replace()
    role, attribute = next(iter(fresh.roles_by_id)), next(iter(fresh.attributes_by_id))
    try:
        can_access(fresh, role, attribute)
    except UnknownEntityError as exc:
        return str(exc)
    return None


def _assert_memo_is_the_whole_index(model: PolicyModel):
    """Each attribute's sources equal those of the whole index, and an
    invalid model's first query raises what building that index raises."""
    try:
        whole = whole_access_index(model)
    except UnknownEntityError as exc:
        whole = str(exc)
    if model.roles and model.attributes:
        assert _first_query_outcome(model) == (whole if type(whole) is str else None)
    if type(whole) is str:
        for attribute in model.attributes_by_id:
            with pytest.raises(UnknownEntityError) as info:
                model.attribute_sources(attribute)
            assert str(info.value) == whole
        return whole
    for attribute in model.attributes_by_id:
        assert model.attribute_sources(attribute) == whole.get(attribute, ())
    return None


@given(seeds)
def test_each_attributes_sources_are_those_of_the_whole_index(seed):
    rng = random.Random(seed)
    _assert_memo_is_the_whole_index(gen.random_model(rng))
    _assert_memo_is_the_whole_index(gen.hierarchy_model(rng))


def test_the_shapes_sources_are_those_of_the_whole_index():
    for kind in gen.SHAPES:
        for n in (1, 7, 30):
            _assert_memo_is_the_whole_index(gen.shape_model(kind, n))


def test_an_invalid_models_sources_and_first_query_are_those_of_the_whole_index():
    raised = Counter()
    for model in corrupted_models(SEED, 1500):
        message = _assert_memo_is_the_whole_index(model)
        if message is not None:
            raised[message.split(" ")[1]] += 1
    # Both raise in some models, and most models raise neither.
    assert raised["task"] and raised["group"], raised
    assert sum(raised.values()) < 1500 // 2, raised


def test_a_tie_group_keeps_source_order_in_an_invalid_model():
    # d1 is declared twice in g1, and p1 is granted g1 twice and lists a
    # task whose id is g1: the task comes first, then each grant's entries
    # once per time g1 lists d1, grant by grant.
    first, second = parse_condition("age > 1"), parse_condition("age > 2")
    model = PolicyModel(
        "x",
        groups=(AttributeGroup("g1", "G"),),
        attributes=(Attribute("d1", "A", frozenset({"g1"})), Attribute("d1", "B", frozenset({"g1"}))),
        tasks=(Task("g1", "T", "d1"),),
        purposes=(Purpose("p1", "P", ("g1",)),),
        pg_grants=(PurposeGroupGrant("p1", "g1", first), PurposeGroupGrant("p1", "g1", second)),
    )
    assert _assert_memo_is_the_whole_index(model) is None
    [group] = model.attribute_sources("d1")
    assert [(entry[3], entry[5]) for entry in group] == [
        ("task", None), ("group", first), ("group", first), ("group", second), ("group", second)]
