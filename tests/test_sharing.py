"""What one parse and lower share instead of copying, and what stays apart.

Equal id-list captures share one tuple per `parse_policy` call, on both
parsers; attributes whose written group lists are equal share one frozenset
in the lowered model, and an attribute whose declarations merge gets a set
of its own.  The spans of a text the patterns read keep one entry per
section block that holds declarations, not one per declaration.
"""

from __future__ import annotations

import pytest

from pppm import token_parser
from pppm.dsl import AttributeDecl, load_policy, lower, parse_policy, serialize
from pppm.model import Purpose

TEXT = """policy "x"
roles { }
groups { g1: "G1"  g2: "G2" }
attributes {
  d1: "A" groups (g1, g2)
  d2: "B" groups (g1,
                  g2)
  d3: "C"
  d4: "D" collected = no
}
attributes {
  d5: "E" groups (g1, g2)
  d1: "A" groups (g2) collected = yes
}
tasks { t1: "T" reads d1  t2: "U" reads d2 }
purposes { p1: "P" = [t1, t2]  p2: "Q" = [t1, t2]  p3: "R" = [t2, t1] }
"""


@pytest.mark.parametrize("parse", [parse_policy, token_parser.parse_tokens])
def test_equal_id_list_captures_share_one_tuple(parse):
    decls = parse(TEXT)
    attributes = [e for e in decls.entries if type(e) is AttributeDecl]
    d1, d2, d5 = attributes[0], attributes[1], attributes[4]
    assert d1.groups == d2.groups == d5.groups == ("g1", "g2")
    assert d5.groups is d1.groups  # one capture, across two section blocks
    purposes = {e.id: e for e in decls.entries if type(e) is Purpose}
    assert purposes["p1"].tasks is purposes["p2"].tasks
    assert purposes["p3"].tasks == ("t2", "t1")
    # The token parser reads a list as its ids joined by commas, whatever the spacing.
    if parse is token_parser.parse_tokens:
        assert d2.groups is d1.groups


def test_equal_written_group_lists_share_one_set_and_a_merge_gets_its_own():
    model = load_policy(TEXT)
    a = model.attributes_by_id
    assert a["d2"].groups is a["d5"].groups == frozenset({"g1", "g2"})
    assert a["d3"].groups is a["d4"].groups == frozenset()
    # d1's declarations merge into a set equal to d2's, but not shared with it.
    assert a["d1"].groups == a["d2"].groups and a["d1"].groups is not a["d2"].groups
    assert a["d1"].collected is True and a["d2"].groups == frozenset({"g1", "g2"})
    assert lower(parse_policy(serialize(model))) == model


def test_the_spans_keep_one_entry_per_section_block(shop_text, baby_text):
    decls = parse_policy(TEXT)
    keywords = ["groups", "attributes", "attributes", "tasks", "purposes"]  # not the empty roles
    assert [keyword for keyword, _ in decls.spans.runs] == keywords
    assert len(decls.spans) == len(decls.entries) == 13
    for text in (shop_text, baby_text):
        spans = parse_policy(text).spans
        assert len(spans.runs) <= text.count("{") < len(spans)
