"""Values that the query, parse, lower and lint paths build with `tuple.__new__`.

`can_access` and `parse_policy` build their decisions, paths, path
conditions, declaration entries and spans, `lower` and `load_policy` the
attributes of a text that declares each once, and `run_lints` its findings,
without the NamedTuple's generated constructor, which costs a Python frame
per value (see `conditions.value_type`).  These tests pin that no such
constructor runs on those paths, so a later `Decision(...)` fails here and
not only in a benchmark, and that every value so built is the one its
constructor would build: it has one item per field and rebuilds equal from
its own items.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from pppm import dsl
from pppm.dsl import Span, load_policy, lower, parse_policy, serialize
from pppm.lints import Finding, run_lints
from pppm.model import Attribute
from pppm.query import AccessPath, Decision, Outcome, PathCondition, can_access

import gen
from oracles import make_time

FAST_TYPES = (Decision, AccessPath, PathCondition, Span, Attribute, Finding,
              *(section.entry for section in dsl._SECTIONS))
CONTEXTS = ({}, {"age": 25}, {"age": 10, "now": make_time(9, 0)},
            {"age": 25, "now": make_time(10, 0)})

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@contextmanager
def constructor_calls():
    """The names of the FAST_TYPES whose generated `__new__` ran in the block."""
    codes = {cls.__new__.__code__: cls.__name__ for cls in FAST_TYPES}
    called: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            called.append(codes[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield called
    finally:
        sys.setprofile(previous)


def _shop_decisions(model):
    for ctx in CONTEXTS:
        for role in model.roles:
            for attribute in model.attributes:
                for purpose in [None, *(p.id for p in model.purposes)]:
                    yield can_access(model, role.id, attribute.id, purpose, ctx)


def test_the_guard_sees_a_constructor_call():
    with constructor_calls() as called:
        Decision(Outcome.DENY, (), None)
        Span(1, 1, 1, 2)
    assert called == ["Decision", "Span"]


def test_can_access_runs_no_generated_constructor(shop_model):
    with constructor_calls() as called:
        outcomes = {decision.outcome for decision in _shop_decisions(shop_model)}
    assert outcomes == set(Outcome)
    assert called == []


def test_parse_policy_runs_no_generated_constructor(shop_text, baby_text):
    with constructor_calls() as called:
        for text in (shop_text, baby_text):
            parse_policy(text)
    assert called == []


def test_lower_and_load_policy_build_attributes_without_their_constructor(shop_text):
    models = [gen.random_model(random.Random(seed)) for seed in range(40)]
    texts = [shop_text, *(serialize(m) for m in models if not any(
        a.collected_conflict for a in m.attributes))]  # a conflict is written twice
    assert len(texts) > 10
    for text in texts:
        decls = parse_policy(text)
        ids = [decl.id for decl in decls.entries if type(decl) is dsl.AttributeDecl]
        assert len(set(ids)) == len(ids)  # no attribute is declared twice
        with constructor_calls() as called:
            models = [lower(decls), load_policy(text)]
        assert called == []
        for attribute in models[0].attributes + models[1].attributes:
            _assert_whole(attribute)


def test_run_lints_builds_findings_without_their_constructor(shop_model, baby_model):
    with constructor_calls() as called:
        findings = run_lints(shop_model) + run_lints(baby_model)
    assert findings and called == []
    for finding in findings:
        _assert_whole(finding)


def _assert_whole(value):
    """`value` has one item per field and its constructor rebuilds it equal."""
    assert len(value) == len(type(value)._fields)
    assert type(value)(*value) == value


def _assert_whole_decision(decision):
    _assert_whole(decision)
    if decision.path is not None:
        _assert_whole(decision.path)
        for condition in decision.path.conditions:
            _assert_whole(condition)


@given(seeds)
@settings(max_examples=60)
def test_decisions_are_whole_values(seed):
    rng = random.Random(seed)
    ctx = gen.random_ctx(rng)
    for model in (gen.random_model(rng), gen.hierarchy_model(rng)):
        for role in model.roles:
            for attribute in model.attributes:
                for purpose in [None, *(p.id for p in model.purposes)]:
                    _assert_whole_decision(can_access(model, role.id, attribute.id, purpose, ctx))


def test_fixture_decisions_are_whole_values(shop_model):
    for decision in _shop_decisions(shop_model):
        _assert_whole_decision(decision)


def test_parsed_entries_and_spans_are_whole_values(shop_text, baby_text):
    for text in (shop_text, baby_text):
        decls = parse_policy(text)
        assert decls.entries and len(decls.spans) == len(decls.entries)
        for value in decls.entries + decls.spans:
            assert type(value) in FAST_TYPES
            _assert_whole(value)
