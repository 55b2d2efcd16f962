"""`render.emit_graph`, which builds each attribute's node line in one walk,
against the renderer it replaced (`oracles.loop_emit_graph`).

Both must give the same DOT text, byte for byte, under every option set of
`test_fuzz_render.OPTIONS`.  The inputs are the render corpus (the fixtures,
hand-built edge cases and seeded random models), the models with an id that
needs escaping, the benchmark's generated policies at n=100 and 500, and a
corpus of attribute groups: attributes with no, one, two and three groups, a
granted group that is no attribute's home, a granted group with no member,
and home groups whose id needs escaping or is not an identifier.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from oracles import loop_emit_graph
from pppm.dsl import load_policy
from pppm.model import (
    Attribute,
    AttributeGroup,
    PolicyModel,
    Purpose,
    PurposeGroupGrant,
    Task,
    validate,
)
from pppm.render import emit_graph
from test_fuzz_render import ODD_ID, OPTIONS, corpus, escaped_id_models

HOME_ID = 'a"b\\c'  # needs escaping, and sorts before every other group id


def group_models() -> list[tuple[str, PolicyModel]]:
    groups = (HOME_ID, ODD_ID, "g1", "g2", "g3", "g-4", "lonely")
    attributes = (
        Attribute("d0", "None"),
        Attribute("d1", "One", frozenset({"g2"})),
        Attribute("d2", "Two", frozenset({"g3", "g1"})),
        Attribute("d3", "Three", frozenset({"g3", HOME_ID, "g2"})),
        Attribute("d4", "Dashed home", frozenset({"g-4"})),
        Attribute("d5", "Odd tooltip", frozenset({ODD_ID, "g1"})),
        Attribute("d6", "Also none"),
    )
    # g3 is granted and in two attributes' groups, but no attribute's home;
    # `lonely` is granted and has no member.
    grants = tuple(PurposeGroupGrant("p1", g) for g in ("g3", "lonely", "g1", HOME_ID))
    grouped = PolicyModel(
        name="groups",
        groups=tuple(AttributeGroup(g, f"Group {i}") for i, g in enumerate(groups)),
        attributes=attributes,
        tasks=(Task("t1", "T", "d1"),),
        purposes=(Purpose("p1", "P", ("t1",)),),
        pg_grants=grants,
    )
    ungranted = grouped._replace(name="ungranted", pg_grants=())
    no_group = grouped._replace(name="no group", groups=(), pg_grants=(), attributes=tuple(
        a._replace(groups=frozenset()) for a in attributes))
    return [("grouped", grouped), ("ungranted", ungranted), ("no group", no_group)]


def generated_models() -> list[tuple[str, PolicyModel]]:
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(perfbench)
        from policygen import generate  # the benchmark's policy generator
    return [(f"policygen {seed} n={n}", load_policy(generate(seed, n)[0]))
            for seed in (7, 11) for n in (100, 500)]


def _assert_same(models: list[tuple[str, PolicyModel]]) -> None:
    for name, model in models:
        for options in OPTIONS:
            assert emit_graph(model, options) == loop_emit_graph(model, options), (name, options)


def test_the_group_corpus_is_valid_and_reaches_every_case():
    for _, model in group_models():
        assert validate(model) == []
    grouped = dict(group_models())["grouped"]
    assert sorted(len(a.groups) for a in grouped.attributes) == [0, 0, 1, 1, 2, 2, 3]
    text = emit_graph(grouped)
    assert 'subgraph "cluster_group_a\\"b\\\\c"' in text
    assert 'subgraph "cluster_group_g-4"' in text
    assert "subgraph cluster_group_g3" in text and "subgraph cluster_group_lonely" in text


def test_the_render_corpus_draws_as_the_loop_draws_it(shop_model, baby_model):
    _assert_same(corpus(shop_model, baby_model) + escaped_id_models())


def test_the_group_corpus_draws_as_the_loop_draws_it():
    _assert_same(group_models())


def test_generated_policies_draw_as_the_loop_draws_them():
    _assert_same(generated_models())
