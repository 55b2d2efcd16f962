"""Render output pinned byte for byte, and its edges checked against its nodes.

Every layer selection is drawn with and without legends and group clusters,
on both fixtures, seeded `gen.random_model`s and hand-built edge cases.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re

import pytest

from pppm.conditions import Chain, ConditionExpr, Var
from pppm.model import (
    Aggregation,
    Attribute,
    AttributeGroup,
    GranularityFn,
    PolicyModel,
    Purpose,
    PurposeGroupGrant,
    PurposeTaskCondition,
    Role,
    RoleEdge,
    RolePurposeGrant,
    Task,
    validate,
)
from pppm.render import ALL_LAYERS, RenderOptions, emit_graph, emit_tables

import gen

SEED = 8
GENERATED = 100

# Every non-empty subset of the five layers, plus the "all" shorthand.
LAYER_SELECTIONS = [("all",)] + [
    combo
    for size in range(1, len(ALL_LAYERS) + 1)
    for combo in itertools.combinations(ALL_LAYERS, size)
]
OPTIONS = [
    RenderOptions(layers, legend, clusters)
    for layers in LAYER_SELECTIONS
    for legend in (True, False)
    for clusters in (True, False)
]

NODE_RE = re.compile(r'^\s+"([^"]+)" \[', re.M)
EDGE_RE = re.compile(r'^\s+"([^"]+)" -> "([^"]+)"', re.M)


def _odd_text() -> ConditionExpr:
    return ConditionExpr((Chain((Var("tier"), 'say "hi" \\ bye'), ("==",)),))


def edge_cases() -> dict[str, PolicyModel]:
    """Small valid models that each reach a corner of the renderer."""
    tricky = PolicyModel(
        name='odd "name" \\ here',
        roles=(Role("r1", 'Man "the" \\ager'), Role("r0", "Back\\slash")),
        role_edges=(RoleEdge("r1", "r0"),),
        groups=(
            AttributeGroup("g1", 'One "g"'),
            AttributeGroup("g2", "Two"),
            AttributeGroup("g3", "Three"),
            AttributeGroup("empty", "Nobody"),
        ),
        attributes=(
            Attribute("d1", 'Quoted "d1"', frozenset({"g1", "g2", "g3"}), True),
            Attribute("d2", "Plain", frozenset(), False, derived=True),
            Attribute("d0", "Grouped", frozenset({"g2"}), None, True),
        ),
        aggregations=(Aggregation("d1", "d0", "d2"),),
        granularities=(GranularityFn("blank", ""), GranularityFn("coarse", 'to "year"')),
        tasks=(
            Task("t1", "Read", "d1", "blank"),
            Task("t2", "Derive", "d2", "coarse"),
            Task("t3", "Loose", "d0"),
            Task("t4", "Blank", "d2", "blank"),
        ),
        purposes=(
            Purpose("p1", 'Serve "x"', ("t1", "t2")),
            Purpose("p0", "Idle"),
            Purpose("p2", "Also idle", (), True),
            Purpose("p3", "Last", ("t3", "t1", "t4")),
        ),
        rp_grants=(
            RolePurposeGrant("r1", "p1", _odd_text()),
            RolePurposeGrant("r0", "p0"),
        ),
        pt_conditions=(PurposeTaskCondition("p1", "t1", _odd_text()),),
        pg_grants=(
            PurposeGroupGrant("p0", "empty"),
            PurposeGroupGrant("p3", "g3", _odd_text()),
        ),
    )
    # More purposes than palette colours, so the palette wraps.
    wrap = PolicyModel(
        name="wrap",
        attributes=(Attribute("d1", "One"),),
        tasks=tuple(Task(f"t{i}", f"Task {i}", "d1") for i in range(11)),
        purposes=tuple(Purpose(f"p{i:02d}", f"Purpose {i}", (f"t{i}",)) for i in range(11)),
    )
    # No entity at all, so no cluster has a legend entry.
    bare = PolicyModel(name="bare")
    return {"tricky": tricky, "wrap": wrap, "bare": bare}


def corpus(shop_model, baby_model) -> list[tuple[str, PolicyModel]]:
    models = [("shop", shop_model), ("baby", baby_model)]
    models += sorted(edge_cases().items())
    rng = random.Random(SEED)
    while len(models) < 5 + GENERATED:
        model = gen.random_model(rng)
        if not validate(model):
            models.append((f"gen{len(models)}", model))
    return models


def test_edge_cases_are_valid():
    for model in edge_cases().values():
        assert validate(model) == []


# sha256 over every graph (each option set in `OPTIONS` order) and the report
# of every model in `corpus`.
RENDER_DIGEST = "66396d6bc59acd276bfd205cb8407fa7e6a8cd6477cf4ef3abb97b7b22f28de5"


def test_render_output_is_pinned(shop_model, baby_model):
    digest = hashlib.sha256()
    for name, model in corpus(shop_model, baby_model):
        for options in OPTIONS:
            digest.update(f"== {name} {options}\n".encode("utf-8"))
            digest.update(emit_graph(model, options).encode("utf-8"))
        digest.update(f"== {name} report\n".encode("utf-8"))
        digest.update(emit_tables(model).encode("utf-8"))
    assert digest.hexdigest() == RENDER_DIGEST


@pytest.mark.parametrize("clusters", (True, False))
def test_every_edge_lands_on_a_drawn_node(shop_model, baby_model, clusters):
    for name, model in corpus(shop_model, baby_model):
        for layers in LAYER_SELECTIONS:
            text = emit_graph(model, RenderOptions(layers, True, clusters))
            nodes = set(NODE_RE.findall(text))
            for src, dst in EDGE_RE.findall(text):
                assert src in nodes and dst in nodes, (name, layers, src, dst)


def test_empty_granularity_keeps_its_empty_label():
    text = emit_graph(edge_cases()["tricky"])
    assert '  "task:t4" -> "attr:d2" [style=dashed, label=""];' in text
    assert '  "task:t3" -> "attr:d0" [style=dashed];' in text
