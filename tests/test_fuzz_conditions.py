"""Seeded mutation fuzz of condition text and of `--ctx` values.

Condition text and context values arrive from outside the program, so
whatever their shape only ConditionError subclasses may escape
`parse_condition`, `parse_literal` and `evaluate`, and `pppm query --ctx`
exits 0 or 4 (a usage error), never 1 and never with a traceback.  A
condition that parses renders back to text that parses to the same
expression.  What each mutated text parses to, or the error it raises, is
pinned by one digest per entry point.
"""

from __future__ import annotations

import hashlib
import math
import random

from pppm.cli import main
from pppm.conditions import (
    ConditionError,
    ConditionExpr,
    TimeOfDay,
    evaluate,
    parse_condition,
    parse_literal,
    render_condition,
)

import pytest

import gen
from conftest import FIXTURES

SEED = 20241
CONDITION_CASES = 3000
LITERAL_CASES = 3000
CLI_CASES = 300

CONDITIONS = (
    "08:00 < now < 17:00",
    "age > 18",
    "consent == true",
    "subscription == true",
    'tier == "gold" and age >= 21',
    "-4.5 <= score < 30 and flag != false",
    'tier != "a\\"b\\\\c" and now >= 23:59',
    "0 < age <= 99.25 and 00:00 <= now",
)
LITERALS = ("25", "-3.5", "0", "10:00", "23:59", "true", "FALSE", '"gold"', '"a\\"b"', '""')
# Characters the grammar uses, plus near misses: non-ASCII digits and
# letters, exponent and underscore forms, escapes, controls and spaces.
ALPHABET = (
    list("0123456789:.-_\"\\ <>=!andAND") + ["e", "E", "x", "\t", "\n", "\r", "\x00"]
    + ["\u0663", "\u00b2", "\u00e9", "\u00a0", "\ufeff", "\U0001f600"]
)
FRAGMENTS = (" and ", "nan", "inf", "1e3", "1_000", "9" * 5000, "9" * 400 + ".5",
             "24:00", "7:5", "==", "<=<", '"', "\\q", "now", "true")

# sha256 over one line per mutated text: the repr of what it parses to, or
# the ConditionError's class and message (offset included).  Recorded before
# `parse_condition` was rewritten as one flat loop over the tokens.
CONDITION_DIGEST = {
    "condition": "8a69edb8a3eb176c1218631cb1c97fc8ae975ef863be64a574a81f59ff1693f2",
    "literal": "157ce642f81e98c9a02a7e74ba78739744bcf9136f4cf2db347a5dd17668bf98",
}
# Each parse message, by a fragment only it contains; every one must occur.
MESSAGES = {
    "condition": ("unexpected character", "expected an operand", "expected a comparison operator",
                  "expected 'and' or end of condition", "number out of range",
                  "invalid time of day", "unsupported escape", "cannot compare",
                  "ordering comparison"),
    "literal": ("expected a literal", "number out of range", "invalid time of day",
                "unsupported escape"),
}


def mutate(rng: random.Random, text: str) -> str:
    """One to three random character- or fragment-level edits of `text`."""
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text) + 1)
        kind = rng.randrange(6)
        if kind == 0 and text:  # delete a run
            text = text[:pos] + text[pos + rng.randint(1, 3):]
        elif kind == 1:  # insert a character
            text = text[:pos] + rng.choice(ALPHABET) + text[pos:]
        elif kind == 2:  # insert a fragment
            text = text[:pos] + rng.choice(FRAGMENTS) + text[pos:]
        elif kind == 3 and text:  # replace a character
            text = text[:pos] + rng.choice(ALPHABET) + text[pos + 1:]
        elif kind == 4:  # duplicate a slice
            end = rng.randint(pos, len(text))
            text = text[:end] + text[pos:end] + text[end:]
        else:  # truncate
            text = text[:pos]
    return text


def _parsed_or_none(parse, text: str):
    try:
        return parse(text)
    except ConditionError:
        return None


@pytest.mark.parametrize("kind, parse, seed, cases, sources", [
    ("condition", parse_condition, SEED, CONDITION_CASES, CONDITIONS),
    ("literal", parse_literal, SEED + 1, LITERAL_CASES, LITERALS),
])
def test_mutated_parse_outcomes_are_pinned(kind, parse, seed, cases, sources):
    rng = random.Random(seed)
    digest = hashlib.sha256()
    seen = set()
    for _ in range(cases):
        text = mutate(rng, rng.choice(sources))
        try:
            line = repr(parse(text))
        except ConditionError as exc:
            line = f"{type(exc).__name__}: {exc}"
            seen.update(part for part in MESSAGES[kind] if part in str(exc))
        digest.update(f"{line}\n".encode("utf-8"))
    assert sorted(seen) == sorted(MESSAGES[kind])
    assert digest.hexdigest() == CONDITION_DIGEST[kind], seen


def test_mutated_conditions_raise_only_condition_errors():
    rng = random.Random(SEED)
    parsed = 0
    for _ in range(CONDITION_CASES):
        text = mutate(rng, rng.choice(CONDITIONS))
        expr = _parsed_or_none(parse_condition, text)
        if expr is None:
            continue
        parsed += 1
        assert isinstance(expr, ConditionExpr)
        assert parse_condition(render_condition(expr)) == expr, text
        try:
            evaluate(expr, gen.random_ctx(rng))
        except ConditionError:
            pass
    # Both outcomes occur, so neither check above is vacuous.
    assert CONDITION_CASES // 20 <= parsed <= CONDITION_CASES - CONDITION_CASES // 20, parsed


def test_mutated_literals_raise_only_condition_errors():
    rng = random.Random(SEED + 1)
    parsed = 0
    for _ in range(LITERAL_CASES):
        text = mutate(rng, rng.choice(LITERALS))
        value = _parsed_or_none(parse_literal, text)
        if value is None:
            continue
        parsed += 1
        assert isinstance(value, (bool, int, float, str, TimeOfDay)), text
        if isinstance(value, float):
            assert math.isfinite(value), text
    assert LITERAL_CASES // 20 <= parsed <= LITERAL_CASES - LITERAL_CASES // 20, parsed


def test_mutated_ctx_values_exit_zero_or_four(capsys):
    # p3 grants r4 access to d1 when "08:00 < now < 17:00" and "age > 18",
    # so a numeric age answers (exit 0) and any other value is refused
    # (exit 4): unparsable as a usage error, the wrong type as a clash.
    rng = random.Random(SEED + 2)
    shop = str(FIXTURES / "imaginary_shop.pppm")
    codes = {0: 0, 4: 0}
    for _ in range(CLI_CASES):
        value = mutate(rng, rng.choice(LITERALS))
        literal = _parsed_or_none(parse_literal, value)
        numeric = isinstance(literal, (int, float)) and not isinstance(literal, bool)
        code = main(["query", shop, "--role", "r4", "--attribute", "d1", "--purpose", "p3",
                     "--ctx", f"age={value}", "--ctx", "now=10:00"])
        out, err = capsys.readouterr()
        assert code == (0 if numeric else 4), (value, err)
        if code == 0:
            assert out.split("\n", 1)[0] in ("Allow", "Deny"), value
        else:
            assert err.startswith("pppm: error: "), value
        codes[code] += 1
    assert min(codes.values()) >= CLI_CASES // 20, codes

