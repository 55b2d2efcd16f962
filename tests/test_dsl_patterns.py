"""`parse_policy` against the token parser it falls back on.

`parse_policy` reads a text with one pattern match per declaration, and hands
any text the patterns miss to the token parser, which reads it again and
reports every error.  Each test here checks that both give the same outcome:
equal entries and spans, or the same ParseError message and span.  The
inputs are fixture mutants, fixtures with two words glued or a string broken
across lines, serialized random models with their tokens edited and
re-spaced by whitespace, CRLF and comment lines, and the policy texts of the
span tests.  Fixtures and serialized models must never reach the token
parser.  Since a change to both parsers alike would pass these, one digest
also pins the token parser's own outcomes on a seeded corpus.
"""

from __future__ import annotations

import hashlib
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import test_dsl_spans
from conftest import read_fixture
from pppm import dsl, token_parser
from pppm.dsl import ParseError, parse_policy, serialize
from test_fuzz_lowering import CASES, mutants

seeds = st.integers(min_value=0, max_value=2**32 - 1)
SEED = 26

# The tokens of a serialized model: strings, identifiers and punctuation.
_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*"|\w+|->|\S')
# What an edit may insert: a trailer, or the start of a declaration that a
# trailer keyword begins, whole or cut short; a condition string holding a
# line break or a carriage return; punctuation; a string with escapes, an
# empty one and bad ones; and characters no token starts with.
_HAND_INSERTS = (
    "via d0", "via d0 :", 'via: "V" reads d0', "universal", 'universal: "U"', 'when "age > 1"',
    'when allowed p0', 'when "age >"', "groups (g0)", "groups ( g0 , g1 )", "groups ()",
    'groups: "G"', "collected = yes", "collected = no", "collected = maybe", "= [t0]",
    "= [t0, t1]", "= []", 'when "age >\n 1"', 'when "age >\r 1"', "(", ")", "[", "]", ":", ",",
    "=", "->", "{", "}", '"a\\"b\\\\"', '""', '"\\q"', '"', "\f", "\v", "-", "é", "\u2028",
)
# A token of each field kind, to spell the trailers of the section table with.
_SAMPLES = {"ident": "d0", "string": '"S"', "ids": "g0, t0", "yes_no": "no",
            "condition": '"age > 1"'}


def _spelled(tokens: tuple[str, ...]) -> str:
    return " ".join(_SAMPLES.get(token, token.strip("'")) for token in tokens)


# And every trailer of the section table, whole and cut off after its lead,
# so a trailer added to the grammar is fuzzed as it is.
_INSERTS = (*_HAND_INSERTS, *dict.fromkeys(
    text for section in dsl._SECTIONS for trailer in section.trailers
    for text in (_spelled(trailer.lead + trailer.rest), _spelled(trailer.lead))))


def _outcome(parse, text: str) -> tuple:
    """What `parse` makes of `text`: its declarations and their types, or its
    ParseError's message and span."""
    try:
        decls = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.span, type(exc.span))
    return ("parsed", repr(decls), decls, [type(value) for value in decls.entries + decls.spans])


def _assert_same(text: str, parse=parse_policy) -> None:
    assert _outcome(parse, text) == _outcome(token_parser.parse_tokens, text), text


_LABEL_RE = re.compile(r'(: *)"')
_GAPS = (" ", "", "  ", "\t", "\n", "\r\n", "\n\n  ", " \t\r\n\t")
_COMMENTS = ("  # a note\n", '\n# a line, with "quotes" and # marks\r\n  ', "#\n")


def _respaced(rng: random.Random, tokens: list[str], comments: float = 0.0) -> str:
    """`tokens` joined by random gaps of whitespace and CRLF, each a comment
    line with probability `comments`.  Two words keep at least one space."""
    out = [tokens[0]]
    for before, token in zip(tokens, tokens[1:]):
        gap = rng.choice(_COMMENTS if rng.random() < comments else _GAPS)
        if not gap and re.fullmatch(r"\w\w", before[-1] + token[0]):
            gap = " "
        out += [gap, token]
    return "".join(out) + rng.choice(["", "\n", "\r\n", "\n# the end"])


def _edited(rng: random.Random, text: str, inserts: tuple[str, ...] = _INSERTS) -> list[str]:
    """The tokens of `text` with one deleted, duplicated or joined to the one
    before it, or with one of `inserts` inserted; most often at the start of
    a line, that is after a declaration."""
    lines = [_TOKEN_RE.findall(line) for line in text.split("\n")]
    at = rng.randrange(1, len(lines))
    i = 0 if rng.random() < 0.7 else rng.randrange(len(lines[at]) + 1)
    i += sum(map(len, lines[:at]))
    tokens = [token for line in lines for token in line]
    edit = rng.choice(("delete", "duplicate", "join", "insert", "insert", "insert"))
    if edit == "insert":
        tokens.insert(i, rng.choice(inserts))
    elif i < len(tokens) and edit == "duplicate":
        tokens.insert(i, tokens[i])
    elif i < len(tokens) and edit == "join":
        tokens[i - 1:i + 1] = [tokens[i - 1] + tokens[i]]
    elif i < len(tokens):
        del tokens[i]
    return tokens


def _escaped(text: str) -> str:
    """`text` with an escaped quote and backslash in front of every label."""
    return _LABEL_RE.sub(r'\1"\\"\\\\', text)


def _by_patterns(text: str) -> dsl.Declarations:
    """`parse_policy(text)`, failing if the token parser reads `text`."""
    def refuse(text: str) -> dsl.Declarations:
        raise AssertionError(f"the declaration patterns missed {text!r}")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(token_parser, "parse_tokens", refuse)
        return parse_policy(text)


@pytest.mark.parametrize("fixture", CASES)
def test_mutated_fixtures_parse_as_the_token_parser_reads_them(fixture):
    # Other mutants than test_fuzz_lowering's, half as many.
    for text in mutants(read_fixture(fixture), SEED, CASES[fixture] // 2):
        _assert_same(text)


@given(seeds)
@settings(max_examples=150)
def test_respaced_and_edited_models_parse_as_the_token_parser_reads_them(seed):
    rng = random.Random(seed)
    text = serialize(gen.random_model(rng))
    if rng.random() < 0.5:
        text = _escaped(text)
    tokens, edited = _TOKEN_RE.findall(text), _edited(rng, text)
    for comments in (0.0, 0.02, 0.3):
        _assert_same(_respaced(rng, tokens, comments))
        _assert_same(_respaced(rng, edited, comments))


TRAILER_ROWS = (
    test_dsl_spans.test_a_trailer_keyword_can_be_the_next_declarations_id.pytestmark[0].args[1])
ROWS = [row[0] for row in (
    *test_dsl_spans.test_parse_error_messages_and_spans.pytestmark[0].args[1],
    *TRAILER_ROWS,
    *test_dsl_spans.test_lookahead_errors_and_spans.pytestmark[0].args[1],
)]


@pytest.mark.parametrize("text", ROWS)
def test_span_test_texts_parse_as_the_token_parser_reads_them(text):
    _assert_same(text)


@pytest.mark.parametrize("text", [row[0] for row in TRAILER_ROWS])
def test_a_trailer_keyword_as_the_next_id_never_reaches_the_token_parser(text):
    _assert_same(text, _by_patterns)


def test_fixtures_never_reach_the_token_parser(shop_text, baby_text):
    for text in (shop_text, baby_text):
        for variant in (text, text.replace("\n", "\r\n"), _escaped(text)):
            _assert_same(variant, _by_patterns)


@pytest.mark.parametrize("fixture", CASES)
def test_glued_words_and_broken_strings_parse_as_the_token_parser_reads_them(fixture):
    # Two words glued together, across a line break too, are one identifier,
    # and a string does not run past its line.
    text = read_fixture(fixture)
    for m in re.finditer(r"(?<=\w)\s+(?=\w)", text):
        _assert_same(text[:m.start()] + text[m.end():])
    for m in re.finditer(r'"[^"\n]', text):
        _assert_same(text[:m.end()] + "\n" + text[m.end():])


def test_a_failed_match_backtracks_over_comments_in_linear_time():
    # A comment runs to its line's end, so a gap holds its comments one way
    # only.  Were each `#` a possible start of another comment, a pattern
    # would try each of the 2**15 ways to split this one, which takes
    # seconds per match.
    text = 'policy "x"\nroles {\n  r1: "A"  ' + "# " * 16 + "\n  ; }\n"
    start = time.perf_counter()
    _assert_same(text)
    assert time.perf_counter() - start < 1


@given(seeds)
@settings(max_examples=100)
def test_serialized_models_never_reach_the_token_parser(seed):
    rng = random.Random(seed)
    text = serialize(gen.random_model(rng))
    # Nor does any spacing of their tokens by whitespace alone.
    for variant in (text, _escaped(text), _respaced(rng, _TOKEN_RE.findall(text))):
        _assert_same(variant, _by_patterns)


# The sha256 of the token parser's outcome on every text of a seeded corpus:
# the repr of its Declarations, or the ParseError message and span.  The
# corpus is fixture mutants and serialized random models with one token
# edited (from the hand-written inserts only, so a trailer added to the
# grammar later leaves it as it is), re-spaced with comment lines.
ERROR_DIGEST = "9b94619d00035dfaaa974cbfa86634e7f051fd14aec91003628aa730b19f4e1f"


def test_the_token_parsers_outcomes_are_pinned():
    texts = [text for fixture, count in CASES.items()
             for text in mutants(read_fixture(fixture), SEED, count // 4)]
    rng = random.Random(SEED)
    for _ in range(3000):
        text = serialize(gen.random_model(rng))
        if rng.random() < 0.5:
            text = _escaped(text)
        texts.append(_respaced(rng, _edited(rng, text, _HAND_INSERTS), 0.05))
    outcomes = {"parsed": 0, "error": 0}
    digest = hashlib.sha256()
    for text in texts:
        outcome = _outcome(token_parser.parse_tokens, text)
        digest.update(f"{outcome[1]} {outcome[2]!r}\n".encode("utf-8") if outcome[0] == "error"
                      else f"{outcome[1]}\n".encode("utf-8"))
        outcomes[outcome[0]] += 1
    assert min(outcomes.values()) >= len(texts) // 5, outcomes
    assert digest.hexdigest() == ERROR_DIGEST, outcomes
