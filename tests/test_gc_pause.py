"""The builders that pause the cyclic garbage collector.

`parse_policy`, `lower`, `run_lints` and `emit_tables` allocate thousands of
tracked objects per large policy and create no reference cycles, so they run
with the collector disabled.  These tests pin the three things that make it
safe and worth it: the caller's collector state survives every call, the
builders leave no cyclic garbage behind, and a large policy triggers at most
one collection per paused call.  `serialize` is not paused: it writes a large
model column by column and starts no collection at all.
"""

from __future__ import annotations

import gc
import inspect
import random
from pathlib import Path

import pytest

from pppm import conditions, dsl, query, render
from pppm.dsl import LoweringError, ParseError, load_policy, lower, parse_policy, serialize
from pppm.lints import LintConfig, run_lints
from pppm.model import InvalidModelError, PolicyModel, RolePurposeGrant
from pppm.render import emit_tables

import gen
from conftest import read_fixture

PAUSED = {
    parse_policy: ["text"],
    lower: ["decls"],
    run_lints: ["model", "config"],
    emit_tables: ["model"],
}

BROKEN_MODEL = PolicyModel("x", rp_grants=(RolePurposeGrant("r9", "p9"),))
BAD_SYNTAX = 'policy "x"\nroles {\n  r1 "oops"\n}'
BAD_REFERENCE = 'policy "x"\nrole_purpose {\n  r9 allowed p9\n}'


def _calls():
    text = read_fixture("imaginary_shop.pppm")
    decls = parse_policy(text)
    model = lower(decls)
    return [
        ("parse_policy", lambda: parse_policy(text), None),
        ("parse_policy-error", lambda: parse_policy(BAD_SYNTAX), ParseError),
        ("lower", lambda: lower(decls), None),
        ("lower-error", lambda: lower(parse_policy(BAD_REFERENCE)), LoweringError),
        ("run_lints", lambda: run_lints(model), None),
        ("run_lints-error", lambda: run_lints(BROKEN_MODEL), InvalidModelError),
        ("emit_tables", lambda: emit_tables(model), None),
        ("emit_tables-error", lambda: emit_tables(BROKEN_MODEL), InvalidModelError),
        ("load_policy", lambda: load_policy(text), None),
        ("load_policy-parse-error", lambda: load_policy(BAD_SYNTAX), ParseError),
        ("load_policy-lowering-error", lambda: load_policy(BAD_REFERENCE), LoweringError),
    ]


CALLS = _calls()


@pytest.fixture
def collector_state():
    """Restore the collector's state after the test, whatever it did."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _call(fn, raises):
    if raises is None:
        fn()
    else:
        with pytest.raises(raises):
            fn()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("name, fn, raises", CALLS, ids=[name for name, _, _ in CALLS])
def test_a_call_leaves_the_collector_as_it_found_it(collector_state, enabled, name, fn, raises):
    (gc.enable if enabled else gc.disable)()
    _call(fn, raises)
    assert gc.isenabled() is enabled


def test_the_collector_is_off_during_a_paused_call(collector_state, shop_model):
    seen = []

    class Spy(LintConfig):
        __slots__ = ()

        def is_enabled(self, rule):
            seen.append(gc.isenabled())
            return True

    gc.enable()
    run_lints(shop_model, Spy())
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("fn", list(PAUSED), ids=[fn.__name__ for fn in PAUSED])
def test_a_paused_builder_keeps_its_signature_and_docstring(fn):
    inner = fn.__wrapped__
    assert inspect.signature(fn) == inspect.signature(inner)
    assert list(inspect.signature(fn).parameters) == PAUSED[fn]
    assert fn.__doc__ == inner.__doc__ and fn.__doc__
    assert (fn.__name__, fn.__module__) == (inner.__name__, inner.__module__)


@pytest.mark.parametrize("fn", [
    render.emit_graph, dsl.serialize, query.can_access, query.effective_purposes,
    query.accessible_attributes, conditions.evaluate,
], ids=lambda fn: fn.__name__)
def test_cheap_and_query_path_calls_are_not_paused(fn):
    # Each allocates too little for a collection to start during it, and a
    # query would pay the wrapper's cost on every request.
    assert not hasattr(fn, "__wrapped__")


def _pipeline_inputs() -> list[str]:
    texts = [read_fixture("imaginary_shop.pppm"), read_fixture("chatterbaby.pppm")]
    return texts + [serialize(gen.random_model(random.Random(seed))) for seed in range(50)]


def test_the_builders_create_no_reference_cycles(collector_state):
    # The pause is sound only while this holds: with the collector off, any
    # cycle a builder creates would stay in memory until the next collection.
    texts = _pipeline_inputs()
    decls = [parse_policy(text) for text in texts]
    models = [lower(d) for d in decls]
    stages = [
        ("parse_policy", parse_policy, [(t,) for t in texts]),
        ("lower", lower, [(d,) for d in decls]),
        ("run_lints", run_lints, [(m,) for m in models]),
        ("emit_tables", emit_tables, [(m,) for m in models]),
        ("parse_policy errors", parse_policy, [(BAD_SYNTAX,), ('policy "x"\nroles {',)]),
        ("lower errors", lower, [(parse_policy(BAD_REFERENCE),)]),
        ("run_lints errors", run_lints, [(BROKEN_MODEL,)]),
        ("emit_tables errors", emit_tables, [(BROKEN_MODEL,)]),
    ]
    for _, build, inputs in stages:  # warm every lazy cache and import first
        for args in inputs:
            try:
                build(*args)
            except (ParseError, LoweringError, InvalidModelError):
                pass
    gc.disable()
    garbage = {}
    for name, build, inputs in stages:
        gc.collect()
        for args in inputs:
            try:
                build(*args)
            except (ParseError, LoweringError, InvalidModelError):
                pass
        garbage[name] = gc.collect()
    assert garbage == {name: 0 for name, _, _ in stages}


def _large_policy(n: int) -> str:
    """A valid policy of about 2.7n declarations: n attributes in n // 20
    groups, one task reading each, a purpose per five tasks, and each purpose
    granted to a role and a group under a condition."""
    roles = n // 20
    lines = ['policy "large"', "roles {"]
    lines += [f'  r{i}: "Role {i}"' for i in range(roles)]
    lines += ["}", "role_hierarchy {"]
    lines += [f"  r{i} -> r{i + 1}" for i in range(roles - 1)]
    lines += ["}", "groups {"]
    lines += [f'  g{i}: "Group {i}"' for i in range(roles)]
    lines += ["}", "attributes {"]
    lines += [f'  d{i}: "Attribute {i}" groups (g{i % roles}) collected = yes' for i in range(n)]
    lines += ["}", "tasks {"]
    lines += [f'  t{i}: "Task {i}" reads d{i}' for i in range(n)]
    lines += ["}", "purposes {"]
    lines += [f'  p{i}: "Purpose {i}" = [{", ".join(f"t{j}" for j in range(5 * i, 5 * i + 5))}]'
              for i in range(n // 5)]
    lines += ["}", "role_purpose {"]
    lines += [f'  r{i % roles} allowed p{i} when "age > 18"' for i in range(n // 5)]
    lines += ["}", "purpose_group {"]
    lines += [f'  p{i} allowed group g{i % roles} when "consent == true"' for i in range(n // 5)]
    return "\n".join(lines + ["}"]) + "\n"


def test_a_large_policy_triggers_at_most_one_collection_per_paused_call(collector_state):
    text = _large_policy(2000)
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        decls = parse_policy(text)
        model = lower(decls)
        run_lints(model)
        emit_tables(model)
    finally:
        gc.callbacks.remove(count)
    assert len(decls.entries) > 5000
    assert len(collections) <= len(PAUSED), collections


def test_serializing_a_large_model_starts_no_collection(collector_state, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from policygen import generate  # the benchmark's policy generator

    model = load_policy(generate(7, 2000)[0])
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        text = serialize(model)
    finally:
        gc.callbacks.remove(count)
    assert len(text) > 100_000
    assert collections == []
