"""`load_policy` without a span, and its diagnostics.

A text that the declaration patterns read, and whose model has no problem,
is lowered without building a span: its spans are built when one is read.
`load_policy` is `lower(parse_policy(text))`, and the two are compared on the
fixtures (also with CRLF line ends) and on texts that fail lowering, whose
diagnostics are checked by message and line.
"""

from __future__ import annotations

import pytest

from conftest import read_fixture
from pppm import dsl, token_parser
from pppm.dsl import LoweringError, load_policy, lower, parse_policy


def _outcome(load, text: str) -> tuple:
    """What `load` makes of `text`: its model, or its exception's type,
    message, diagnostics and span."""
    try:
        return ("model", load(text))
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "diagnostics", None),
                getattr(exc, "span", None))


def _assert_same(text: str) -> tuple:
    outcome = _outcome(load_policy, text)
    assert outcome == _outcome(lambda t: lower(parse_policy(t)), text), text
    return outcome


class _NoSpan:
    """Stands for `Span`: building one raises."""

    def __new__(cls, *args):
        raise AssertionError("a Span was built")


def _spanless(text: str):
    """`load_policy(text)`, failing if a Span is built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "Span", _NoSpan)
        patch.setattr(token_parser, "Span", _NoSpan)
        return load_policy(text)


def test_the_fixtures_load_as_the_slow_path_loads_them(shop_text, baby_text):
    for text in (shop_text, baby_text):
        for variant in (text, text.replace("\n", "\r\n")):
            assert _assert_same(variant)[0] == "model"
            assert _spanless(variant) == load_policy(variant)


def test_a_valid_text_builds_no_span(shop_text):
    # The patch bites: reading a span builds the spans, and cannot.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "Span", _NoSpan)
        with pytest.raises(TypeError):
            parse_policy(shop_text).spans[0]
    assert _spanless(shop_text) == lower(parse_policy(shop_text))


SHOP = read_fixture("imaginary_shop.pppm")


@pytest.mark.parametrize("text, message, line", [
    (SHOP.replace("t1: \"Identify client\" reads d1", "t1: \"Identify client\" reads d9"),
     "task 't1' reads unknown attribute 'd9'", 43),
    (SHOP.replace("  r2: \"Deliverer\"\n", "  r2: \"Deliverer\"\n  r1: \"Boss\"\n"),
     "duplicate role id 'r1'", 9),
    (SHOP.replace("  d7: \"Interest\"\n", "  d7: \"Interest\"\n  d1: \"Surname\"\n"),
     "attribute 'd1' redeclared with a different label ('Name' vs 'Surname')", 31),
    # An attribute's declarations merge, and a later attribute's problem is
    # placed at its own declaration.
    (SHOP.replace("  d2: \"Order list\"\n", "  d1: \"Name\" collected = yes\n  d2: \"Order list\" groups (g9)\n"),
     "attribute 'd2' references unknown group 'g9'", 26),
])
def test_texts_that_fail_lowering_raise_as_the_slow_path_raises(text, message, line):
    outcome = _assert_same(text)
    assert outcome[1] is LoweringError
    assert [(d.message, d.span.line) for d in outcome[3]] == [(message, line)]
