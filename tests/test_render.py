from __future__ import annotations

import re

import pytest

from pppm.conditions import Chain, ConditionExpr, ConditionTypeError, Var
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
)
from pppm.render import (
    ALL_LAYERS,
    PALETTE,
    RenderOptions,
    emit_graph,
    emit_tables,
)

from conftest import GOLDEN

NODE_RE = re.compile(r'^\s+"(role|purpose|task|attr|group):[^"]+" \[', re.M)
EDGE_RE = re.compile(r'^\s+"[^"]+" -> "[^"]+"', re.M)


def nodes_of(text, kind):
    return re.findall(rf'^\s+"{kind}:([^"]+)" \[', text, re.M)


def edges_of(text, pattern=""):
    return [line for line in text.splitlines() if " -> " in line and pattern in line]


def test_full_render_matches_golden(shop_model):
    expected = (GOLDEN / "imaginary_shop_full.dot").read_text(encoding="utf-8")
    assert emit_graph(shop_model) == expected


def test_roles_render_matches_golden(shop_model):
    expected = (GOLDEN / "imaginary_shop_roles.dot").read_text(encoding="utf-8")
    assert emit_graph(shop_model, RenderOptions(layers=("roles",))) == expected


def test_report_matches_golden(shop_model):
    expected = (GOLDEN / "imaginary_shop_report.txt").read_text(encoding="utf-8")
    assert emit_tables(shop_model) == expected


def test_role_layer_counts(shop_model):
    text = emit_graph(shop_model, RenderOptions(layers=("roles",)))
    assert sorted(nodes_of(text, "role")) == ["r1", "r2", "r3", "r4"]
    assert edges_of(text) == [
        '  "role:r1" -> "role:r2";',
        '  "role:r1" -> "role:r3";',
        '  "role:r3" -> "role:r4";',
    ]


def test_full_render_entity_counts(shop_model):
    text = emit_graph(shop_model)
    assert len(nodes_of(text, "role")) == 4
    assert len(nodes_of(text, "purpose")) == 4
    assert len(nodes_of(text, "task")) == 10
    assert len(nodes_of(text, "attr")) == 7
    assert len(NODE_RE.findall(text)) == 25  # no group anchors here
    assert len(EDGE_RE.findall(text)) == 3 + 13 + 2 + 4 + 10


def test_rp_edges_are_dashed_with_one_condition_label(shop_model):
    text = emit_graph(shop_model)
    rp_edges = [e for e in edges_of(text, '"role:') if '-> "purpose:' in e]
    assert len(rp_edges) == 4
    assert all("style=dashed" in e for e in rp_edges)
    labeled = [e for e in rp_edges if "label=" in e]
    assert labeled == [
        '  "role:r4" -> "purpose:p3" [style=dashed, label="08:00 < now < 17:00"];'
    ]


def test_task_chains_use_the_palette_by_declaration_order(shop_model):
    text = emit_graph(shop_model)
    for purpose, color in zip(("p1", "p2", "p3", "p4"), PALETTE):
        line = f'  "purpose:{purpose}" -> "task:'
        starts = [e for e in edges_of(text) if e.startswith(line)]
        assert len(starts) == 1
        assert f'[color="{color}"]' in starts[0]
    chain_edges = [e for e in edges_of(text) if "color=" in e]
    assert len(chain_edges) == 13


def test_aggregation_edges_are_solid_into_the_product(shop_model):
    text = emit_graph(shop_model)
    agg = [e for e in edges_of(text, "style=solid")]
    assert agg == [
        '  "attr:d2" -> "attr:d7" [style=solid];',
        '  "attr:d6" -> "attr:d7" [style=solid];',
    ]


def test_task_attribute_edges_show_conditions_and_granularity(shop_model):
    text = emit_graph(shop_model)
    assert '  "task:t1" -> "attr:d1" [style=dashed, label="p3: age > 18"];' in text
    assert '  "task:t8" -> "attr:d6" [style=dashed, label="Date2Age"];' in text
    ta_edges = [e for e in edges_of(text, '"task:') if '-> "attr:' in e]
    assert len(ta_edges) == 10


def test_group_clustering_and_tooltips(shop_model):
    text = emit_graph(shop_model)
    assert "subgraph cluster_group_g1" in text
    flat = emit_graph(shop_model, RenderOptions(cluster_groups=False))
    assert "cluster_group_g1" not in flat
    assert sorted(nodes_of(flat, "attr")) == sorted(nodes_of(text, "attr"))


def test_group_anchor_nodes_only_for_granted_groups(baby_model):
    # Clustered and flat layouts draw the anchors in different places.
    for options in (RenderOptions(), RenderOptions(cluster_groups=False)):
        text = emit_graph(baby_model, options)
        anchors = set(nodes_of(text, "group"))
        granted = {g.group for g in baby_model.pg_grants}
        assert anchors == granted
        assert "other" not in anchors  # never granted, so no anchor
        pg_edges = [e for e in edges_of(text, '-> "group:')]
        assert len(pg_edges) == len(baby_model.pg_grants)
        conditional = [e for e in pg_edges if "label=" in e]
        assert {e.split('"group:')[1].split('"')[0] for e in conditional} == {
            "contact_information",
            "data",
        }


def test_legend_lives_in_cluster_labels(shop_model):
    text = emit_graph(shop_model)
    assert "Roles\\lr1 = Manager\\l" in text
    bare = emit_graph(shop_model, RenderOptions(show_legend=False))
    assert "r1 = Manager" not in bare
    assert len(NODE_RE.findall(bare)) == 25


def test_layer_selection_pulls_in_endpoints(shop_model):
    text = emit_graph(shop_model, RenderOptions(layers=("role-purpose",)))
    assert nodes_of(text, "role")
    assert nodes_of(text, "purpose")
    assert not nodes_of(text, "attr")
    assert len([e for e in edges_of(text, "style=dashed")]) == 4


def test_unknown_or_empty_layers_are_rejected(shop_model):
    with pytest.raises(ValueError):
        emit_graph(shop_model, RenderOptions(layers=("widgets",)))
    with pytest.raises(ValueError):
        emit_graph(shop_model, RenderOptions(layers=()))
    assert set(ALL_LAYERS) == {
        "roles",
        "purposes",
        "attributes",
        "role-purpose",
        "purpose-attribute",
    }


def test_render_requires_a_valid_model():
    broken = PolicyModel("x", rp_grants=(RolePurposeGrant("r9", "p9"),))
    with pytest.raises(InvalidModelError):
        emit_graph(broken)
    with pytest.raises(InvalidModelError):
        emit_tables(broken)


def test_empty_model_renders_three_clusters():
    text = emit_graph(PolicyModel("empty"))
    assert text.startswith('digraph "empty" {')
    assert text.count("subgraph cluster_") == 3
    assert NODE_RE.findall(text) == []
    assert EDGE_RE.findall(text) == []
    assert text.endswith("}\n")


def test_render_is_deterministic(baby_model):
    assert emit_graph(baby_model) == emit_graph(baby_model)
    assert "\r" not in emit_graph(baby_model)


def test_tables_have_eight_blocks_even_when_empty():
    text = emit_tables(PolicyModel("empty"))
    headers = re.findall(r"^== (.+) ==$", text, re.M)
    assert headers == [
        "roles",
        "purposes",
        "attributes",
        "role hierarchy",
        "purpose tasks",
        "aggregations",
        "role-purpose grants",
        "task bindings",
    ]


def test_tables_mark_collection_conflicts(baby_model):
    text = emit_tables(baby_model)
    lines = text.splitlines()
    d7 = next(line for line in lines if line.startswith("d7\t"))
    assert d7 == "d7\tCredit card information\tdata, individual, personal\tconflict"
    d1 = next(line for line in lines if line.startswith("d1\t"))
    assert d1.endswith("\tyes")


def test_tables_report_grants_and_bindings(shop_model, baby_model):
    shop = emit_tables(shop_model)
    grants_block = shop.split("== role-purpose grants ==\n")[1].split("\n\n")[0]
    rows = grants_block.splitlines()[1:]
    assert len(rows) == 4
    assert rows[2] == "r4\tp3\t08:00 < now < 17:00"

    bindings_block = shop.split("== task bindings ==\n")[1]
    assert "t1\td1\tp3: age > 18\t" in bindings_block
    assert "t8\td6\t\tDate2Age" in bindings_block

    baby = emit_tables(baby_model)
    baby_grants = baby.split("== role-purpose grants ==\n")[1].split("\n\n")[0]
    assert len(baby_grants.splitlines()) - 1 == 28


def test_tables_skip_taskless_purposes_in_the_task_block(baby_model):
    text = emit_tables(baby_model)
    block = text.split("== purpose tasks ==\n")[1].split("\n\n")[0]
    rows = block.splitlines()[1:]
    assert [r.split("\t")[0] for r in rows] == ["p5", "p6", "p12", "p19", "p20", "p23"]


def test_tables_escape_tabs_and_line_breaks_inside_cells():
    model = PolicyModel("x", roles=(Role("r1", "a\tb\r\nc \\ d"), Role("r2", "cr\ronly")))
    block = emit_tables(model).split("\n\n")[0]
    assert block == "== roles ==\nid\tlabel\nr1\ta\\tb\\r\\nc \\ d\nr2\tcr\\ronly"
    # A CR alone leaves the tab and line counts as they are; it is escaped too.
    lone = PolicyModel("x", roles=(Role("r1", "cr\ronly"),))
    assert "\nr1\tcr\\ronly\n" in emit_tables(lone)
    # An LF alone changes only the line count; it is escaped too.
    lone = PolicyModel("x", roles=(Role("r1", "lf\nonly"),))
    assert "\nr1\tlf\\nonly\n" in emit_tables(lone)


def test_ids_outside_the_policy_language_are_escaped_in_dot():
    # A directly built model may hold ids that a policy file cannot: quotes,
    # backslashes and spaces.
    model = PolicyModel(
        "x",
        roles=(Role('a"b', "A"), Role("c\\d", "C")),
        role_edges=(RoleEdge('a"b', "c\\d"),),
        groups=(AttributeGroup("g x", "G"),),
        attributes=(Attribute('d"1', "D", frozenset({"g x"})),),
        tasks=(Task('t"1', "T", 'd"1'),),
        purposes=(Purpose('p"1', "P", ('t"1',)),),
        rp_grants=(RolePurposeGrant('a"b', 'p"1'),),
        pg_grants=(PurposeGroupGrant('p"1', "g x"),),
    )
    lines = emit_graph(model).splitlines()
    quoted = r'"(?:[^"\\]|\\.)*"'
    edges = [line for line in lines if " -> " in line]
    assert len(edges) == 5
    for line in edges:
        assert re.fullmatch(rf"  {quoted} -> {quoted}( \[.*\])?;", line), line
    assert '    "role:a\\"b" [shape=ellipse, label="a\\"b"];' in lines
    assert '  "role:a\\"b" -> "role:c\\\\d";' in lines
    assert '  "purpose:p\\"1" -> "group:g x" [style=dashed];' in lines
    assert '    subgraph "cluster_group_g x" {' in lines
    assert '      "group:g x" [shape=plaintext, label="g x"];' in lines


@pytest.mark.parametrize("emit", [emit_graph, emit_tables])
def test_a_value_of_no_condition_type_is_named(emit):
    hand_built = ConditionExpr((Chain((Var("age"), [1]), (">",)),))
    model = PolicyModel("x", roles=(Role("r1", "A"),), purposes=(Purpose("p1", "P"),),
                        rp_grants=(RolePurposeGrant("r1", "p1", hand_built),))
    assert not model.validation_errors
    with pytest.raises(ConditionTypeError, match="^unsupported value type list$"):
        emit(model)


@pytest.mark.parametrize("emit", [emit_graph, emit_tables])
@pytest.mark.parametrize("operands, ops", [
    ((Var("a"), 1, "x"), (">",)), ((Var("a"),), ()), ((Var("a"),), (">",)),
])
def test_a_malformed_chain_is_not_drawn(emit, operands, ops):
    hand_built = ConditionExpr((Chain(operands, ops),))
    model = PolicyModel("x", roles=(Role("r1", "A"),), purposes=(Purpose("p1", "P"),),
                        rp_grants=(RolePurposeGrant("r1", "p1", hand_built),))
    assert not model.validation_errors
    message = f"^malformed chain: {len(operands)} operands, {len(ops)} operators$"
    with pytest.raises(ConditionTypeError, match=message):
        emit(model)
