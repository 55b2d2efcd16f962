from __future__ import annotations

import copy
import gc
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pppm import dsl
from pppm.conditions import Chain, ConditionExpr, ConditionTypeError, Var, parse_condition
from pppm.dsl import (
    AttributeDecl,
    Declarations,
    LoweringError,
    ParseError,
    load_policy,
    lower,
    parse_policy,
    serialize,
)
from pppm.model import Attribute, PolicyModel, Purpose, Role, RolePurposeGrant

import gen

seeds = st.integers(min_value=0, max_value=2**32 - 1)

MINI = """
# A small but complete policy.
policy "mini"
roles {
  r1: "Manager"
  r2: "Clerk"   # trailing comment
}
role_hierarchy { r1 -> r2 }
groups { g1: "Personal" }
attributes {
  d1: "Name" groups (g1) collected = yes
  d2: "Age"
  d3: "Score"
}
aggregations { (d1, d2) -> d3 }
granularities { fn: "Blur" }
tasks {
  t1: "Read name" reads d1 via fn
  t2: "Read age" reads d2
}
purposes {
  p1: "Serve" = [t1, t2]
  p2: "Anything" universal
}
role_purpose {
  r1 allowed p1 when "age > 18"
  r2 allowed p2
}
purpose_task_conditions { p1 task t1 when "tier == \\"gold\\"" }
purpose_group { p1 allowed group g1 when "consent == true" }
"""


def test_parse_and_lower_full_example():
    model = load_policy(MINI)
    assert model.name == "mini"
    assert [r.id for r in model.roles] == ["r1", "r2"]
    assert model.attribute("d1").groups == frozenset({"g1"})
    assert model.attribute("d1").collected is True
    assert model.attribute("d3").derived is True
    assert model.task("t1").via == "fn"
    assert model.purpose("p1").tasks == ("t1", "t2")
    assert model.purpose("p2").universal
    grant = model.rp_grants[0]
    assert grant.condition == ConditionExpr((Chain((Var("age"), 18), (">",)),))
    assert model.pt_conditions[0].condition.chains[0].operands[1] == "gold"
    assert model.pg_grants[0].group == "g1"


def test_the_section_table_describes_each_section_once():
    sections = dsl._SECTIONS
    # One row per tuple field of PolicyModel, in field order.
    assert [s.field for s in sections] == list(PolicyModel._fields)[1:]
    assert len({s.keyword for s in sections}) == len({s.entry for s in sections}) == 11
    # MINI uses every section: each yields declarations of its type, which
    # are the model's entries but for the attributes, and serialize writes
    # the sections in table order.
    model = load_policy(MINI)
    assert {type(d) for d in parse_policy(MINI).entries} == {s.entry for s in sections}
    for section in sections:
        entity = Attribute if section.entry is AttributeDecl else section.entry
        assert {type(e) for e in getattr(model, section.field)} == {entity}
    headers = [line[:-2] for line in serialize(model).split("\n") if line.endswith(" {")]
    assert headers == [s.keyword for s in sections]


def test_declaration_records_are_pinned_and_copy_faithfully(shop_text, baby_text):
    # AttributeDecl is the one declaration record.  PARSE_DIGESTS hashes the
    # reprs of Declarations, so a renamed field shows here first.
    assert AttributeDecl._fields == ("id", "label", "groups", "collected")
    assert AttributeDecl._fields == Attribute._fields[:4]
    for text in (shop_text, baby_text):
        decls = parse_policy(text)
        for twin in (pickle.loads(pickle.dumps(decls)), copy.deepcopy(decls)):
            assert twin == decls and repr(twin) == repr(decls)
            assert [type(d) for d in twin.entries + twin.spans] == [
                type(d) for d in decls.entries + decls.spans
            ]


def test_entries_and_spans_of_different_lengths_are_rejected():
    role, span = Role("r1", "A"), dsl.Span(1, 1, 1, 8)
    assert lower(Declarations("x", (role,), (span,))).roles == (role,)
    for entries, spans in (((role,), ()), ((), (span,)), ((role,), (span, span))):
        with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer)"):
            lower(Declarations("x", entries, spans))


def test_sections_may_repeat_and_interleave():
    model = load_policy(
        'policy "x"\nroles { r1: "A" }\npurposes { p1: "P" }\nroles { r2: "B" }\n'
    )
    assert [r.id for r in model.roles] == ["r1", "r2"]


def test_empty_sections_are_allowed():
    model = load_policy('policy "x"\nroles { }\nattributes {\n}\n')
    assert model.roles == ()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "expected"),
        ('roles { r1: "A" }', "policy"),
        ('policy "x"\nwidgets { }', "section"),
        ('policy "x"\nroles { r1 "A" }', "':'"),
        ('policy "x"\nroles { r1: A }', "string"),
        ('policy "x"\nroles { r1: "A }', "unterminated"),
        ('policy "x"\nroles { r1: "\\q" }', "escape"),
        ('policy "x"\nroles { r1: "A" ; }', "';'"),
        ('policy "x"\naggregations { d1 -> d2 }', "'('"),
        ('policy "x"\nrole_purpose { r1 allowed p1 when 18 }', "unexpected character"),
        ('policy "x"\nrole_purpose { r1 granted p1 }', "allowed"),
        ('policy "x"\npurpose_group { p1 allowed g1 }', "group"),
        ('policy "x"\nrole_purpose { r1 allowed p1 when "age >" }', "invalid condition"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_policy(text)
    assert fragment in str(info.value)


def test_parse_error_spans_are_one_based():
    with pytest.raises(ParseError) as info:
        parse_policy('policy "x"\nroles {\n  r1 "oops"\n}')
    assert (info.value.span.line, info.value.span.col) == (3, 6)


def test_lexed_tokens_are_no_objects_the_collector_tracks(shop_text, baby_text):
    # The lexer keeps its tokens in parallel lists of str and int, so a large
    # policy's tens of thousands of tokens add nothing for the garbage
    # collector to walk.  Collection stays off until they are checked, since
    # a collection untracks a tuple of atoms and would hide per-token tuples.
    text = "\n".join([shop_text, baby_text] + [
        serialize(gen.random_model(random.Random(seed))) for seed in range(300)
    ])
    enabled = gc.isenabled()
    gc.disable()
    try:
        fields = dsl._lex(text)
        tracked = [sum(map(gc.is_tracked, values)) for values in fields]
    finally:
        if enabled:
            gc.enable()
    assert [type(values) for values in fields] == [list] * 5
    assert len({len(values) for values in fields}) == 1
    assert len(fields[0]) > 30_000
    assert tracked == [0] * 5


def test_lowering_reports_unknown_reference_once():
    with pytest.raises(LoweringError) as info:
        load_policy('policy "x"\nroles { r1: "A" }\nrole_hierarchy { r1 -> r9 }\n')
    diags = info.value.diagnostics
    assert len(diags) == 1
    assert "unknown role 'r9'" in diags[0].message
    assert diags[0].span.line == 3


def test_lowering_reports_duplicate_ids_with_spans():
    with pytest.raises(LoweringError) as info:
        load_policy('policy "x"\nroles { r1: "A" }\nroles { r1: "B" }\n')
    (diag,) = info.value.diagnostics
    assert "duplicate role id 'r1'" in diag.message
    assert diag.span.line == 3


def test_lowering_rejects_condition_on_task_outside_purpose():
    text = (
        'policy "x"\nattributes { d1: "D" }\ntasks { t1: "T" reads d1 }\n'
        'purposes { p1: "P" }\n'
        'purpose_task_conditions { p1 task t1 when "age > 1" }\n'
    )
    with pytest.raises(LoweringError) as info:
        load_policy(text)
    assert "not part of purpose" in info.value.diagnostics[0].message


def test_lowering_reports_role_cycle_once():
    text = (
        'policy "x"\nroles { r1: "Manager" r2: "Deliverer" }\n'
        "role_hierarchy { r1 -> r2 r2 -> r1 }\n"
    )
    with pytest.raises(LoweringError) as info:
        load_policy(text)
    diags = info.value.diagnostics
    assert len(diags) == 1
    assert "r1" in diags[0].message and "r2" in diags[0].message


def test_attribute_redeclaration_merges_groups_and_flags():
    text = (
        'policy "x"\ngroups { g1: "G1" g2: "G2" }\n'
        'attributes {\n  d1: "Name" groups (g1)\n  d1: "Name" groups (g2) collected = yes\n}\n'
    )
    attr = load_policy(text).attribute("d1")
    assert attr.groups == frozenset({"g1", "g2"})
    assert attr.collected is True
    assert not attr.collected_conflict


def test_attribute_redeclaration_with_contradicting_collected_is_a_conflict():
    text = (
        'policy "x"\nattributes {\n'
        '  d1: "Card" collected = yes\n  d1: "Card" collected = no\n}\n'
    )
    attr = load_policy(text).attribute("d1")
    assert attr.collected is None
    assert attr.collected_conflict


# Every sequence of one to three declarations of one attribute, each flag
# `yes`, `no` or absent.
FLAG_SEQUENCES = [seq for n in (1, 2, 3) for seq in itertools.product((True, False, None), repeat=n)]


@pytest.mark.parametrize("flags", FLAG_SEQUENCES)
def test_attribute_redeclarations_merge_collected_flags(flags):
    # The README's rule: both `yes` and `no` make a recorded conflict;
    # otherwise the attribute has the flag that was stated, if any.
    rows = "".join(
        '  d1: "Card"' + ("" if flag is None else f" collected = {'yes' if flag else 'no'}") + "\n"
        for flag in flags
    )
    attr = load_policy(f'policy "x"\nattributes {{\n{rows}}}\n').attribute("d1")
    stated = set(flags) - {None}
    assert attr.collected_conflict == (len(stated) == 2)
    assert attr.collected == (stated.pop() if len(stated) == 1 else None)


def test_attribute_redeclaration_with_other_label_is_an_error():
    with pytest.raises(LoweringError) as info:
        load_policy('policy "x"\nattributes { d1: "Name"\n d1: "Other" }\n')
    assert "different label" in info.value.diagnostics[0].message


def test_serialize_empty_model():
    assert serialize(PolicyModel("x")) == 'policy "x"\n'


@pytest.mark.parametrize(
    "model, text",
    [
        (PolicyModel("x", roles=(Role("r1", "a\nb"),)), "a\nb"),
        (PolicyModel("x", roles=(Role("r1", "A"),), purposes=(Purpose("p1", "P"),),
                     rp_grants=(RolePurposeGrant(
                         "r1", "p1", parse_condition('region == "a\nb"')),)),
         'region == "a\nb"'),
    ],
)
def test_serialize_refuses_a_line_break_it_cannot_write(model, text):
    # A policy string cannot hold a raw LF, so no text would parse back.
    assert not model.validation_errors
    with pytest.raises(ValueError, match="line break") as info:
        serialize(model)
    assert repr(text) in str(info.value)


@pytest.mark.parametrize("role_id", ["a b", "", "a\nb"])
def test_serialize_refuses_an_id_it_cannot_write(role_id):
    # `a b: "L"` and `: "L"` would not parse back, so nothing is written.
    model = PolicyModel("x", roles=(Role("r1", "A"), Role(role_id, "L")))
    assert not model.validation_errors
    with pytest.raises(ValueError, match="cannot write id") as info:
        serialize(model)
    assert repr(role_id) in str(info.value)


def test_serialize_checks_the_id_of_every_declared_entity():
    model = load_policy(
        'policy "x"\nroles { r1: "A" }\ngroups { g1: "G" }\n'
        'attributes { d1: "D" groups (g1) }\ngranularities { f1: "F" }\n'
        'tasks { t1: "T" reads d1 via f1 }\npurposes { p1: "P" = [t1] }\n'
    )
    for field in ("roles", "groups", "attributes", "granularities", "tasks", "purposes"):
        [entity] = getattr(model, field)
        # The rename leaves references dangling; the id is refused first.
        renamed = model._replace(**{field: (entity._replace(id="x y"),)})
        with pytest.raises(ValueError, match="cannot write id 'x y'"):
            serialize(renamed)


def _granted(condition):
    return PolicyModel("x", roles=(Role("r1", "A"),), purposes=(Purpose("p1", "P"),),
                       rp_grants=(RolePurposeGrant("r1", "p1", condition),))


@pytest.mark.parametrize(
    "condition, text",
    [
        (ConditionExpr((Chain((Var("AGE"), 18), (">",)),)), "AGE > 18"),
        (ConditionExpr((Chain((Var("a b"), 18), (">",)),)), "a b > 18"),
        (ConditionExpr((Chain((Var("and"), 18), (">",)),)), "and > 18"),
        (ConditionExpr((Chain((Var("age"), math.inf), (">",)),)), "age > inf.0"),
        (ConditionExpr((Chain((Var("age"), 18), ("=>",)),)), "age => 18"),
        (ConditionExpr((Chain((), ()),)), ""),
        (ConditionExpr(()), ""),
    ],
)
def test_serialize_refuses_a_condition_that_does_not_parse_back(condition, text):
    model = _granted(condition)
    assert not model.validation_errors
    with pytest.raises(ValueError, match="cannot write condition") as info:
        serialize(model)
    assert repr(text) in str(info.value)


def test_serialize_refuses_a_value_of_no_condition_type():
    model = _granted(ConditionExpr((Chain((Var("age"), [1]), (">",)),)))
    assert not model.validation_errors
    with pytest.raises(ConditionTypeError, match="^unsupported value type list$"):
        serialize(model)


@pytest.mark.parametrize("operands, ops", [
    ((Var("a"), 1, "x"), (">",)), ((Var("a"),), ()), ((Var("a"),), (">",)),
])
def test_serialize_refuses_a_malformed_chain(operands, ops):
    model = _granted(ConditionExpr((Chain(operands, ops),)))
    assert not model.validation_errors
    message = f"^malformed chain: {len(operands)} operands, {len(ops)} operators$"
    with pytest.raises(ConditionTypeError, match=message):
        serialize(model)


def test_serialize_normalizes_condition_text():
    model = load_policy(
        'policy "x"\nroles { r1: "A" }\npurposes { p1: "P" }\n'
        'role_purpose { r1 allowed p1 when "Age>18" }\n'
    )
    assert 'r1 allowed p1 when "age > 18"' in serialize(model)


def test_serialize_emits_conflicted_attribute_as_two_declarations():
    text = (
        'policy "x"\nattributes {\n'
        '  d1: "Card" collected = yes\n  d1: "Card" collected = no\n}\n'
    )
    model = load_policy(text)
    out = serialize(model)
    assert '  d1: "Card" collected = yes\n  d1: "Card" collected = no\n' in out
    assert load_policy(out) == model


def test_serialize_round_trips_fixtures(shop_text, baby_text, shop_model, baby_model):
    assert load_policy(serialize(shop_model)) == shop_model
    assert load_policy(serialize(baby_model)) == baby_model
    # and the canonical form is a fixed point
    assert serialize(load_policy(serialize(shop_model))) == serialize(shop_model)


def test_mini_round_trip_preserves_everything():
    model = load_policy(MINI)
    assert load_policy(serialize(model)) == model


@given(seeds)
@settings(max_examples=150)
def test_serialize_round_trips_random_models(seed):
    model = gen.random_model(random.Random(seed))
    assert lower(parse_policy(serialize(model))) == model


@given(seeds)
@settings(max_examples=60)
def test_serialize_is_a_fixed_point_on_random_models(seed):
    model = gen.random_model(random.Random(seed))
    once = serialize(model)
    assert serialize(lower(parse_policy(once))) == once


def test_decimal_literals_round_trip_and_out_of_range_ones_are_rejected():
    text = (
        'policy "x"\nroles { r1: "A" }\npurposes { p1: "P" }\n'
        'role_purpose { r1 allowed p1 when "age > 0.00001 and age < 10000000000000000.5" }\n'
    )
    model = load_policy(text)
    assert lower(parse_policy(serialize(model))) == model
    with pytest.raises(ParseError, match="number out of range"):
        parse_policy(text.replace("0.00001", "9" * 400 + ".5"))
