"""`dsl._model`, which builds a model column by column, against the
declaration-at-a-time loop it replaced (`oracles.loop_model`).

Both must give an equal model, entry types included, and the same list of
(rule, declaration index, message) problems.  The inputs are the fixtures,
the fixture mutants of `test_dsl_patterns.py` that parse, serialized random
models, and a corpus of attribute redeclarations: merges, agreeing and
conflicting collection votes, a different label on a later declaration, a
repeat across two sections and a redeclared aggregation product.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from conftest import read_fixture
from oracles import loop_model
from pppm import dsl
from pppm.dsl import ParseError, parse_policy, serialize
from test_dsl_patterns import SEED
from test_fuzz_lowering import CASES, mutants

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _assert_same(text: str) -> tuple:
    decls = parse_policy(text)
    built = dsl._model(decls.name, decls.entries)
    assert built == loop_model(decls.name, decls.entries), text
    # A list of declarations builds the same model.
    assert dsl._model(decls.name, list(decls.entries)) == built
    assert repr(built[0]) == repr(loop_model(decls.name, decls.entries)[0])
    return built


def test_the_fixtures_build_as_the_loop_builds_them(shop_text, baby_text):
    for text in (shop_text, baby_text):
        model, problems = _assert_same(text)
        assert model.attributes and problems == []


@pytest.mark.parametrize("fixture", CASES)
def test_mutated_fixtures_build_as_the_loop_builds_them(fixture):
    built = 0
    for text in mutants(read_fixture(fixture), SEED, CASES[fixture] // 2):
        try:
            _assert_same(text)
        except ParseError:
            continue
        built += 1
    assert built > CASES[fixture] // 6


@given(seeds)
@settings(max_examples=100)
def test_serialized_models_build_as_the_loop_builds_them(seed):
    model = gen.random_model(random.Random(seed))
    assert _assert_same(serialize(model)) == (model, [])


_HEAD = 'policy "x"\ngroups {\n  g1: "G1"\n  g2: "G2"\n}\n'

# Each a policy's attribute sections, each section a list of declarations.
REDECLARATIONS = {
    "same-label merge": [['d1: "A" groups (g1)', 'd2: "B"', 'd1: "A" groups (g2)']],
    "agreeing votes": [['d1: "A" collected = yes', 'd1: "A" collected = yes', 'd1: "A"']],
    "conflicting votes": [['d1: "A" collected = yes', 'd2: "B" collected = no',
                           'd1: "A" collected = no', 'd1: "A" collected = yes', 'd2: "B"']],
    "a vote after none": [['d1: "A"', 'd1: "A" collected = no', 'd1: "A" groups (g1)']],
    "label differs on the 2nd": [['d1: "A" groups (g1)', 'd1: "Other" groups (g2)',
                                  'd1: "A" collected = yes']],
    "label differs on the 3rd": [['d1: "A"', 'd2: "B"', 'd1: "A" collected = yes',
                                  'd1: "Other" collected = no', 'd2: "C"']],
    "across two sections": [['d1: "A" groups (g1)', 'd2: "B"'],
                            ['d3: "C"', 'd1: "A" groups (g2) collected = no', 'd2: "B"']],
    "every declaration repeats": [['d1: "A"', 'd1: "A"', 'd1: "A"']],
}


def _policy(sections: list[list[str]], aggregations: str = "") -> str:
    text = _HEAD + "".join("attributes {\n" + "".join(f"  {d}\n" for d in decls) + "}\n"
                           for decls in sections)
    return text + (f"aggregations {{\n  {aggregations}\n}}\n" if aggregations else "")


@pytest.mark.parametrize("name", REDECLARATIONS)
def test_redeclarations_build_as_the_loop_builds_them(name):
    sections = REDECLARATIONS[name]
    _assert_same(_policy(sections))
    # And with one of the ids the product of an aggregation, declared after it.
    model, _ = _assert_same(_policy([*sections, ['d8: "L"', 'd9: "R"']], "(d8, d9) -> d1"))
    assert model.attributes_by_id["d1"].derived


def test_the_corpus_holds_every_outcome():
    outcomes = set()
    for sections in REDECLARATIONS.values():
        model, problems = _assert_same(_policy(sections))
        d1 = model.attributes_by_id["d1"]
        outcomes.add(("problem" if problems else "merged", d1.collected_conflict,
                      len(d1.groups) > 1))
    assert outcomes >= {("merged", False, True), ("merged", True, False),
                        ("problem", False, False), ("merged", False, False)}
