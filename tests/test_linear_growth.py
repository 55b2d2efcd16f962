"""Stages that must stay linear in the size of the model, checked by counting.

`line_events` counts the `line` events of frames running code from
`src/pppm` while one call runs.  The count does not depend on the host's
speed or load, so a tier-1 test can assert on it: a stage is taken as linear
when its count grows at most 4.5 times while the input grows 4 times, from
n=50 to n=200.  Only ratios are asserted, since the events of one line differ
between Python versions.

Blind spot: work done inside one C call (`sorted`, `x in list`, `str.join`,
a regular expression's match) counts as one line however long it runs, so a
stage that is superlinear only inside C calls passes.  That now covers most
of the author stages' work on a valid model: the model is built, checked and
written a column at a time (`map`, `set.union`, `dict(zip(...))`), so their
counts mostly measure the Python lines around those calls.

Memory is checked the same way: `traced_peak` is the tracemalloc peak while
one call runs, over what was traced before it, and the peak of parse, lower
and each writer may grow at most 4.5 times from n=50 to n=200.  C calls are
no blind spot here, since tracemalloc sees every allocation.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from pathlib import Path

import pytest

import pppm
from pppm.dsl import load_policy, lower, parse_policy, serialize
from pppm.lints import run_lints
from pppm.model import PolicyModel, validate
from pppm.query import accessible_attributes, can_access
from pppm.render import emit_graph, emit_tables

import gen

PPPM = os.path.dirname(pppm.__file__) + os.sep
GROWTH = 4.5  # the most a count may grow for 4 times the input


def line_events(fn, *args) -> int:
    """The `line` events of frames from `src/pppm` while `fn(*args)` runs.
    The trace function in place before the call is put back after it."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PPPM) else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak while `fn(*args)` runs, in bytes over what was
    traced before the call.  Tracing, if it was off, is off again after it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_the_counter_restores_the_previous_trace_function():
    def outer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        assert line_events(load_policy, 'policy "x"\nroles { r1: "R" }\n') > 0
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)


def test_the_counter_sees_a_quadratic_stage():
    def pairs(n: int) -> None:  # stands for a stage: its frames count
        for _ in range(n):
            for _ in range(n):
                pass

    code = pairs.__code__.replace(co_filename=PPPM + "pairs.py")
    quadratic = type(pairs)(code, globals())
    assert line_events(quadratic, 200) / line_events(quadratic, 50) > 15


def test_the_peak_sees_a_quadratic_stage_and_leaves_tracing_off():
    def grid(n: int) -> list:
        return [[0] * n for _ in range(n)]

    peaks = [traced_peak(grid, n) for n in (50, 200)]
    assert peaks[1] / peaks[0] > 10 and not tracemalloc.is_tracing()


def test_the_first_query_on_star_is_linear():
    # One superior over n roles, each holding a purpose granted the n-member
    # group: building every attribute's sources is n**2, and the first query
    # builds those of one attribute.
    counts = [line_events(can_access, gen.shape_model("star", n), "top", "d0") for n in (50, 200)]
    assert counts[1] / counts[0] <= GROWTH, counts


@pytest.mark.parametrize("shape", ["star", "star+1", "wide"])
def test_a_purposes_accessible_attributes_are_linear(shape):
    counts = [line_events(accessible_attributes, gen.shape_model(shape, n), "p0") for n in (50, 200)]
    assert counts[1] / counts[0] <= GROWTH, counts


def _ask_every_attribute(model: PolicyModel) -> None:
    for attribute in model.attributes_by_id:
        can_access(model, "top", attribute)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: on star each attribute's memo entry "
                                       "copies every grant of its group, n**2 in all")
def test_every_attribute_on_star_asked_once_is_linear():
    counts = [line_events(_ask_every_attribute, gen.shape_model("star", n)) for n in (50, 200)]
    assert counts[1] / counts[0] <= GROWTH, counts


def _ask_every_role(model: PolicyModel) -> None:
    for role in model.roles_by_id:
        can_access(model, role, "d0")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: each role's closure keeps a parent "
                                       "map and a hop chain as long as the chain below it")
def test_one_query_per_role_on_a_chain_is_linear():
    counts = [line_events(_ask_every_role, gen.chain_model(n)) for n in (50, 200)]
    peaks = [traced_peak(_ask_every_role, gen.chain_model(n)) for n in (50, 200)]
    assert counts[1] / counts[0] <= GROWTH and peaks[1] / peaks[0] <= GROWTH, (counts, peaks)


def _generate(monkeypatch, n: int) -> str:
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from policygen import generate  # the benchmark's policy generator

    return generate(7, n)[0]


def test_loading_a_generated_policy_is_linear(monkeypatch):
    counts = [line_events(load_policy, _generate(monkeypatch, n)) for n in (50, 200)]
    assert counts[1] / counts[0] <= GROWTH, counts


# Each stage of the author pass, with its input made of the policy text.  A
# model stage gets a copy of the lowered model, whose lazy maps are not built.
# `spans` is the build that `parse_policy` defers to the first read of a span.
AUTHOR_STAGES = {
    "parse_policy": lambda text: (parse_policy, text),
    "spans": lambda text: (tuple, parse_policy(text).spans),
    "lower": lambda text: (lower, parse_policy(text)),
    **{fn.__name__: lambda text, fn=fn: (fn, PolicyModel._make(load_policy(text)))
       for fn in (validate, run_lints, emit_graph, emit_tables, serialize)},
}


@pytest.mark.parametrize("stage", AUTHOR_STAGES)
def test_each_author_stage_is_linear_on_a_generated_policy(monkeypatch, stage):
    load_policy(_generate(monkeypatch, 50))  # compile the patterns first
    counts = [line_events(*AUTHOR_STAGES[stage](_generate(monkeypatch, n))) for n in (50, 200)]
    assert counts[1] / counts[0] <= GROWTH, counts


@pytest.mark.parametrize("stage", ["parse_policy", "lower", "emit_graph", "emit_tables", "serialize"])
def test_each_author_stages_memory_is_linear_on_a_generated_policy(monkeypatch, stage):
    load_policy(_generate(monkeypatch, 50))  # compile the patterns first
    peaks = [traced_peak(*AUTHOR_STAGES[stage](_generate(monkeypatch, n))) for n in (50, 200)]
    assert peaks[1] / peaks[0] <= GROWTH, peaks


@pytest.mark.parametrize("shape", gen.SHAPES)
@pytest.mark.parametrize("stage", AUTHOR_STAGES)
def test_each_author_stage_is_linear_on_the_shapes(shape, stage):
    texts = [serialize(gen.shape_model(shape, n)) for n in (50, 200)]
    load_policy(texts[0])  # compile the patterns first
    counts = [line_events(*AUTHOR_STAGES[stage](text)) for text in texts]
    assert counts[1] / counts[0] <= GROWTH, counts
