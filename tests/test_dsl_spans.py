"""Exact source positions of lexer errors, declarations and diagnostics."""

from __future__ import annotations

import pytest

from pppm.dsl import (
    AttributeDecl,
    LowerDiagnostic,
    LoweringError,
    ParseError,
    Span,
    load_policy,
    parse_policy,
)
from pppm.model import Purpose, PurposeGroupGrant, Role, RolePurposeGrant, Task


def _typed(records):
    """Each record with its type and its span's type.  Some records are
    NamedTuples that compare equal to any tuple of the same values, so
    equality alone cannot tell an AttributeDecl from a plain tuple or a Span
    from one."""
    return [(type(r), type(getattr(r, "span", r)), r) for r in records]


def _declared(pairs):
    """`_typed` over each (entry, span) pair."""
    return [_typed(pair) for pair in pairs]


def _pairs(decls):
    return zip(decls.entries, decls.spans, strict=True)


@pytest.mark.parametrize(
    "text, message, span",
    [
        # An unterminated string ends at the newline or at end of input.
        ('policy "x"\nroles { r1: "A\n}\n', "2:13: unterminated string", Span(2, 13, 2, 15)),
        ('policy "x"\nroles { r1: "A', "2:13: unterminated string", Span(2, 13, 2, 15)),
        # An escape spans the backslash and the character after it.
        ('policy "x"\nroles { r1: "a\\q" }\n', "2:15: unsupported escape in string",
         Span(2, 15, 2, 17)),
        ('policy "x"\nroles { r1: "a\\\n" }\n', "2:15: unsupported escape in string",
         Span(2, 15, 2, 17)),
        # An escaped quote does not close the string; an escaped backslash
        # does not escape what follows it.
        ('policy "x"\nroles { r1: "a\\"\n}\n', "2:13: unterminated string", Span(2, 13, 2, 17)),
        ('policy "x"\nroles { r1: "a\\\\\\q" }\n', "2:17: unsupported escape in string",
         Span(2, 17, 2, 19)),
        ('policy "x"\nroles {\n  r1: "A" ; }\n', "3:11: unexpected character ';'",
         Span(3, 11, 3, 12)),
        ('policy "x"\nroles {\n\tr1 - r2 }\n', "3:5: unexpected character '-'",
         Span(3, 5, 3, 6)),
        # '\r' is ordinary whitespace that takes up one column.
        ('policy "x"\r\nroles {\r\n  r1 "A"\r\n}\r\n', "3:6: found a string (expected ':')",
         Span(3, 6, 3, 9)),
        # End of input sits just past the last character, comments included.
        ('policy "x"\nroles { r1: "A"\n# done',
         "3:7: found end of input (expected an identifier)", Span(3, 7, 3, 7)),
        ('policy "x"\nroles {\n  r1: "A"\n',
         "4:1: found end of input (expected an identifier)", Span(4, 1, 4, 1)),
        ('policy "x"\r\nroles {\r\n',
         "3:1: found end of input (expected an identifier)", Span(3, 1, 3, 1)),
        # One row per token of the `policy "name"` header and of every
        # section's declaration (and of the condition string that `when`
        # requires in purpose_task_conditions): the token is replaced by one
        # that still lexes.
        ('policies "x"\n',
         "1:1: found 'policies' (expected 'policy')", Span(1, 1, 1, 9)),
        ('policy s\n',
         "1:8: found 's' (expected a string)", Span(1, 8, 1, 9)),
        ('policy "x"\nroles { "s": "A" }\n',
         '2:9: found a string (expected an identifier)', Span(2, 9, 2, 12)),
        ('policy "x"\nroles { r1 = "A" }\n',
         "2:12: found '=' (expected ':')", Span(2, 12, 2, 13)),
        ('policy "x"\nroles { r1: s }\n',
         "2:13: found 's' (expected a string)", Span(2, 13, 2, 14)),
        ('policy "x"\nrole_hierarchy { "s" -> r2 }\n',
         '2:18: found a string (expected an identifier)', Span(2, 18, 2, 21)),
        ('policy "x"\nrole_hierarchy { r1, r2 }\n',
         "2:20: found ',' (expected '->')", Span(2, 20, 2, 21)),
        ('policy "x"\nrole_hierarchy { r1 -> "s" }\n',
         '2:24: found a string (expected an identifier)', Span(2, 24, 2, 27)),
        ('policy "x"\ngroups { "s": "G" }\n',
         '2:10: found a string (expected an identifier)', Span(2, 10, 2, 13)),
        ('policy "x"\ngroups { g1 = "G" }\n',
         "2:13: found '=' (expected ':')", Span(2, 13, 2, 14)),
        ('policy "x"\ngroups { g1: s }\n',
         "2:14: found 's' (expected a string)", Span(2, 14, 2, 15)),
        ('policy "x"\nattributes { "s": "D" }\n',
         '2:14: found a string (expected an identifier)', Span(2, 14, 2, 17)),
        ('policy "x"\nattributes { d1 = "D" }\n',
         "2:17: found '=' (expected ':')", Span(2, 17, 2, 18)),
        ('policy "x"\nattributes { d1: s }\n',
         "2:18: found 's' (expected a string)", Span(2, 18, 2, 19)),
        ('policy "x"\naggregations { [ d1, d2) -> d3 }\n',
         "2:16: found '[' (expected '(')", Span(2, 16, 2, 17)),
        ('policy "x"\naggregations { ("s", d2) -> d3 }\n',
         '2:17: found a string (expected an identifier)', Span(2, 17, 2, 20)),
        ('policy "x"\naggregations { (d1) d2) -> d3 }\n',
         "2:19: found ')' (expected ',')", Span(2, 19, 2, 20)),
        ('policy "x"\naggregations { (d1, "s") -> d3 }\n',
         '2:21: found a string (expected an identifier)', Span(2, 21, 2, 24)),
        ('policy "x"\naggregations { (d1, d2 ] -> d3 }\n',
         "2:24: found ']' (expected ')')", Span(2, 24, 2, 25)),
        ('policy "x"\naggregations { (d1, d2), d3 }\n',
         "2:24: found ',' (expected '->')", Span(2, 24, 2, 25)),
        ('policy "x"\naggregations { (d1, d2) -> "s" }\n',
         '2:28: found a string (expected an identifier)', Span(2, 28, 2, 31)),
        ('policy "x"\ngranularities { "s": "F" }\n',
         '2:17: found a string (expected an identifier)', Span(2, 17, 2, 20)),
        ('policy "x"\ngranularities { f1 = "F" }\n',
         "2:20: found '=' (expected ':')", Span(2, 20, 2, 21)),
        ('policy "x"\ngranularities { f1: s }\n',
         "2:21: found 's' (expected a string)", Span(2, 21, 2, 22)),
        ('policy "x"\ntasks { "s": "T" reads d1 }\n',
         '2:9: found a string (expected an identifier)', Span(2, 9, 2, 12)),
        ('policy "x"\ntasks { t1 = "T" reads d1 }\n',
         "2:12: found '=' (expected ':')", Span(2, 12, 2, 13)),
        ('policy "x"\ntasks { t1: s reads d1 }\n',
         "2:13: found 's' (expected a string)", Span(2, 13, 2, 14)),
        ('policy "x"\ntasks { t1: "T" other d1 }\n',
         "2:17: found 'other' (expected 'reads')", Span(2, 17, 2, 22)),
        ('policy "x"\ntasks { t1: "T" reads "s" }\n',
         '2:23: found a string (expected an identifier)', Span(2, 23, 2, 26)),
        ('policy "x"\npurposes { "s": "P" }\n',
         '2:12: found a string (expected an identifier)', Span(2, 12, 2, 15)),
        ('policy "x"\npurposes { p1 = "P" }\n',
         "2:15: found '=' (expected ':')", Span(2, 15, 2, 16)),
        ('policy "x"\npurposes { p1: s }\n',
         "2:16: found 's' (expected a string)", Span(2, 16, 2, 17)),
        ('policy "x"\nrole_purpose { "s" allowed p1 }\n',
         '2:16: found a string (expected an identifier)', Span(2, 16, 2, 19)),
        ('policy "x"\nrole_purpose { r1 other p1 }\n',
         "2:19: found 'other' (expected 'allowed')", Span(2, 19, 2, 24)),
        ('policy "x"\nrole_purpose { r1 allowed "s" }\n',
         '2:27: found a string (expected an identifier)', Span(2, 27, 2, 30)),
        ('policy "x"\npurpose_task_conditions { "s" task t1 when "a > 1" }\n',
         '2:27: found a string (expected an identifier)', Span(2, 27, 2, 30)),
        ('policy "x"\npurpose_task_conditions { p1 other t1 when "a > 1" }\n',
         "2:30: found 'other' (expected 'task')", Span(2, 30, 2, 35)),
        ('policy "x"\npurpose_task_conditions { p1 task "s" when "a > 1" }\n',
         '2:35: found a string (expected an identifier)', Span(2, 35, 2, 38)),
        ('policy "x"\npurpose_task_conditions { p1 task t1 other "a > 1" }\n',
         "2:38: found 'other' (expected 'when')", Span(2, 38, 2, 43)),
        ('policy "x"\npurpose_task_conditions { p1 task t1 when s }\n',
         "2:43: found 's' (expected a string)", Span(2, 43, 2, 44)),
        ('policy "x"\npurpose_group { "s" allowed group g1 }\n',
         '2:17: found a string (expected an identifier)', Span(2, 17, 2, 20)),
        ('policy "x"\npurpose_group { p1 other group g1 }\n',
         "2:20: found 'other' (expected 'allowed')", Span(2, 20, 2, 25)),
        ('policy "x"\npurpose_group { p1 allowed other g1 }\n',
         "2:28: found 'other' (expected 'group')", Span(2, 28, 2, 33)),
        ('policy "x"\npurpose_group { p1 allowed group "s" }\n',
         '2:34: found a string (expected an identifier)', Span(2, 34, 2, 37)),
        # A declaration cut off by end of input.
        ('policy "x"\naggregations { (d1, d2) ->',
         '2:27: found end of input (expected an identifier)', Span(2, 27, 2, 27)),
    ],
)
def test_parse_error_messages_and_spans(text, message, span):
    with pytest.raises(ParseError) as info:
        parse_policy(text)
    assert str(info.value) == message
    assert _typed([info.value.span]) == _typed([span])


def test_crlf_declaration_spans_and_escape_values():
    decls = parse_policy(
        'policy "x"\r\nroles {\r\n  r1: "a\\"b\\\\c"  r2: "B"\r\n}\r\n# tail'
    )
    assert _declared(_pairs(decls)) == _declared([
        (Role("r1", 'a"b\\c'), Span(3, 3, 3, 16)),
        (Role("r2", "B"), Span(3, 18, 3, 25)),
    ])


def test_comment_on_last_line_without_newline():
    decls = parse_policy('policy "x"\nroles { r1: "A" }\n# end')
    assert _declared(_pairs(decls)) == _declared([(Role("r1", "A"), Span(2, 9, 2, 16))])


def test_duplicate_task_and_purpose_diagnostics_use_the_first_declaration():
    text = (
        'policy "x"\nattributes { d1: "D" }\n'
        'tasks {\n  t1: "T" reads d9\n  t1: "T2" reads d1\n}\n'
        'purposes {\n  p1: "P" = [t7]\n  p1: "Q"\n}\n'
    )
    with pytest.raises(LoweringError) as info:
        load_policy(text)
    assert _typed(info.value.diagnostics) == _typed([
        LowerDiagnostic("duplicate task id 't1'", Span(5, 3, 5, 20)),
        LowerDiagnostic("duplicate purpose id 'p1'", Span(9, 3, 9, 10)),
        LowerDiagnostic("task 't1' reads unknown attribute 'd9'", Span(4, 3, 4, 19)),
        LowerDiagnostic("purpose 'p1' lists unknown task 't7'", Span(8, 3, 8, 17)),
    ])


def _diagnostics(text):
    with pytest.raises(LoweringError) as info:
        load_policy(text)
    return _typed(info.value.diagnostics)


def test_a_role_and_a_task_with_one_id_are_reported_apart():
    text = (
        'policy "x"\nroles { r1: "A"  r1: "B" }\nattributes { d1: "D" }\n'
        'tasks {\n  r1: "T" reads d9\n  r1: "U" reads d1\n}\n'
        'purposes { r1: "P" = [t9] }\n'
    )
    assert _diagnostics(text) == _typed([
        LowerDiagnostic("duplicate role id 'r1'", Span(2, 18, 2, 25)),
        LowerDiagnostic("duplicate task id 'r1'", Span(6, 3, 6, 19)),
        LowerDiagnostic("task 'r1' reads unknown attribute 'd9'", Span(5, 3, 5, 19)),
        LowerDiagnostic("purpose 'r1' lists unknown task 't9'", Span(8, 12, 8, 26)),
    ])


def test_each_later_declaration_of_an_id_is_reported_at_its_own_span():
    text = 'policy "x"\nroles {\n  r1: "A"\n  r1: "B"\n  r1: "C"\n}\n'
    assert _diagnostics(text) == _typed([
        LowerDiagnostic("duplicate role id 'r1'", Span(4, 3, 4, 10)),
        LowerDiagnostic("duplicate role id 'r1'", Span(5, 3, 5, 10)),
    ])


def test_a_role_cycle_is_reported_beside_a_dangling_reference():
    text = (
        'policy "x"\nroles { r1: "A" r2: "B" }\n'
        'role_hierarchy {\n  r1 -> r2\n  r2 -> r1\n}\n'
        "role_purpose { r1 allowed p9 }\n"
    )
    assert _diagnostics(text) == _typed([
        LowerDiagnostic("roles form a hierarchy cycle: r1, r2", Span(4, 3, 4, 11)),
        LowerDiagnostic("unknown purpose 'p9' in role_purpose", Span(7, 16, 7, 29)),
    ])


def test_a_dangling_reference_in_a_second_declaration_is_reported_there():
    text = (
        'policy "x"\nattributes { d1: "D" }\ntasks { t1: "T" reads d1 }\n'
        'purposes {\n  p1: "P" = [t1]\n  p1: "Q" = [t9]\n}\n'
        "purpose_task_conditions { p1 task t1 when \"age > 1\" }\n"
    )
    assert _diagnostics(text) == _typed([
        LowerDiagnostic("duplicate purpose id 'p1'", Span(6, 3, 6, 17)),
        LowerDiagnostic("purpose 'p1' lists unknown task 't9'", Span(6, 3, 6, 17)),
    ])


# Each optional trailer is taken only when the tokens after its keyword fit
# it; otherwise the keyword is the id (or role, or purpose) of the next
# declaration.
@pytest.mark.parametrize(
    "text, entries",
    [
        ('policy "x"\nattributes { d1: "A" groups: "B" }\n', (
            (AttributeDecl("d1", "A", (), None), Span(2, 14, 2, 21)),
            (AttributeDecl("groups", "B", (), None), Span(2, 22, 2, 33)),
        )),
        ('policy "x"\nattributes { d1: "A" collected: "B" }\n', (
            (AttributeDecl("d1", "A", (), None), Span(2, 14, 2, 21)),
            (AttributeDecl("collected", "B", (), None), Span(2, 22, 2, 36)),
        )),
        ('policy "x"\nattributes { d1: "A" groups (g1) collected: "B" }\n', (
            (AttributeDecl("d1", "A", ("g1",), None), Span(2, 14, 2, 33)),
            (AttributeDecl("collected", "B", (), None), Span(2, 34, 2, 48)),
        )),
        ('policy "x"\ntasks { t1: "T" reads d1 via: "V" reads d2 }\n', (
            (Task("t1", "T", "d1", None), Span(2, 9, 2, 25)),
            (Task("via", "V", "d2", None), Span(2, 26, 2, 43)),
        )),
        ('policy "x"\ntasks { t1: "T" reads d1 via g1 }\n', (
            (Task("t1", "T", "d1", "g1"), Span(2, 9, 2, 32)),
        )),
        ('policy "x"\npurposes { p1: "P" universal: "U" }\n', (
            (Purpose("p1", "P", (), False), Span(2, 12, 2, 19)),
            (Purpose("universal", "U", (), False), Span(2, 20, 2, 34)),
        )),
        ('policy "x"\npurposes { p1: "P" = [t1] universal: "U" }\n', (
            (Purpose("p1", "P", ("t1",), False), Span(2, 12, 2, 26)),
            (Purpose("universal", "U", (), False), Span(2, 27, 2, 41)),
        )),
        ('policy "x"\nrole_purpose { r1 allowed p1 when allowed p2 }\n', (
            (RolePurposeGrant("r1", "p1", None), Span(2, 16, 2, 29)),
            (RolePurposeGrant("when", "p2", None), Span(2, 30, 2, 45)),
        )),
        ('policy "x"\npurpose_group { p1 allowed group g1 when allowed group g2 }\n', (
            (PurposeGroupGrant("p1", "g1", None), Span(2, 17, 2, 36)),
            (PurposeGroupGrant("when", "g2", None), Span(2, 37, 2, 58)),
        )),
    ],
)
def test_a_trailer_keyword_can_be_the_next_declarations_id(text, entries):
    assert _declared(_pairs(parse_policy(text))) == _declared(entries)


@pytest.mark.parametrize(
    "text, message, span",
    [
        # `via t2 :` is the start of a declaration named `via`, which then
        # lacks its ':'.
        ('policy "x"\ntasks { t1: "T" reads d1 via t2: "U" reads d2 }\n',
         "2:30: found 't2' (expected ':')", Span(2, 30, 2, 32)),
        # A trailer keyword as the last token of the input.
        ('policy "x"\nattributes { d1: "A" groups',
         "2:28: found end of input (expected ':')", Span(2, 28, 2, 28)),
        ('policy "x"\nattributes { d1: "A" collected',
         "2:31: found end of input (expected ':')", Span(2, 31, 2, 31)),
        ('policy "x"\ntasks { t1: "T" reads d1 via',
         "2:29: found end of input (expected ':')", Span(2, 29, 2, 29)),
        ('policy "x"\ntasks { t1: "T" reads d1 via t2',
         "2:32: found end of input (expected an identifier)", Span(2, 32, 2, 32)),
        ('policy "x"\npurposes { p1: "P" universal',
         "2:29: found end of input (expected an identifier)", Span(2, 29, 2, 29)),
        ('policy "x"\nrole_purpose { r1 allowed p1 when',
         "2:34: found end of input (expected 'allowed')", Span(2, 34, 2, 34)),
        ('policy "x"\npurpose_group { p1 allowed group g1 when',
         "2:41: found end of input (expected 'allowed')", Span(2, 41, 2, 41)),
        ('policy "x"\npurpose_task_conditions { p1 task t1 when',
         "2:42: found end of input (expected a string)", Span(2, 42, 2, 42)),
        ('policy "x"\nattributes { d1: "A" groups (',
         "2:30: found end of input (expected an identifier)", Span(2, 30, 2, 30)),
        ('policy "x"\nattributes { d1: "A" collected =',
         "2:33: found end of input (expected 'yes' or 'no')", Span(2, 33, 2, 33)),
        ('policy "x"\nattributes { d1: "A" collected = maybe }\n',
         "2:34: found 'maybe' (expected 'yes' or 'no')", Span(2, 34, 2, 39)),
        # An invalid condition is reported at its whole string token.
        ('policy "x"\nrole_purpose { r1 allowed p1 when "age >" }\n',
         "2:35: invalid condition: expected an operand (at offset 5)", Span(2, 35, 2, 42)),
        ('policy "x"\npurpose_task_conditions { p1 task t1 when "age > 18 or x" }\n',
         "2:43: invalid condition: expected 'and' or end of condition (at offset 9)",
         Span(2, 43, 2, 58)),
        ('policy "x"\npurpose_group { p1 allowed group g1 when "" }\n',
         "2:42: invalid condition: expected an operand (at offset 0)", Span(2, 42, 2, 44)),
        # The second use of a text that parsed is fine; a later bad one still
        # gets its own span.
        ('policy "x"\nrole_purpose {\n  r1 allowed p1 when "a > 1"\n'
         '  r2 allowed p1 when "a > 1"\n  r3 allowed p1 when "a >\\"1"\n}\n',
         "5:22: invalid condition: unexpected character '\"' (at offset 3)", Span(5, 22, 5, 30)),
    ],
)
def test_lookahead_errors_and_spans(text, message, span):
    with pytest.raises(ParseError) as info:
        parse_policy(text)
    assert str(info.value) == message
    assert _typed([info.value.span]) == _typed([span])
