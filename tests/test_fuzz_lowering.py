"""Seeded mutation fuzz of parse + lower on the two bundled fixtures.

Each case applies one to three random edits to a fixture: swap two ids,
point one id at another, duplicate or delete a line, reverse an edge or an
aggregation, or delete a token.  Whatever the edit, only ParseError and
LoweringError may escape, every reported span lies inside the text, and a
policy that lowers round-trips through `serialize` and can be linted and
rendered.  One digest over every mutant's parse outcome pins the parser's
exact output, errors and spans included.
"""

from __future__ import annotations

import hashlib
import random
import re

import pytest

from pppm.dsl import LoweringError, ParseError, Span, lower, parse_policy, serialize
from pppm.lints import run_lints
from pppm.render import emit_graph

from conftest import read_fixture

# About 2,000 cases in all; the larger fixture gets fewer, as each parse of
# it costs more.
CASES = {"imaginary_shop.pppm": 1400, "chatterbaby.pppm": 600}
SEED = 20240

# Strings and comments are skipped whole, so edits touch only bare words.
_WORD_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"|#.*|(?P<word>[A-Za-z_][A-Za-z0-9_]*)')
_KEYWORDS = frozenset(
    "policy roles role_hierarchy groups attributes aggregations granularities tasks "
    "purposes role_purpose purpose_task_conditions purpose_group collected yes no "
    "reads via universal allowed when task group".split()
)
_EDGE_RE = re.compile(r"(\w+)( *-> *)(\w+)")
_AGGREGATION_RE = re.compile(r"\((\w+)(, *\w+\) *-> *)(\w+)")


def _words(line: str, ids_only: bool) -> list[tuple[int, int]]:
    return [
        m.span("word")
        for m in _WORD_RE.finditer(line)
        if m.group("word") and not (ids_only and m.group("word") in _KEYWORDS)
    ]


def _pick_word(rng: random.Random, lines: list[str], ids_only: bool):
    """A random (line index, span) of a bare word, or None."""
    for _ in range(20):
        i = rng.randrange(len(lines))
        words = _words(lines[i], ids_only)
        if words:
            return i, rng.choice(words)
    return None


def _replace(line: str, span: tuple[int, int], text: str) -> str:
    return line[:span[0]] + text + line[span[1]:]


def _mutate(rng: random.Random, lines: list[str]) -> None:
    """Apply one random edit to `lines` in place."""
    kind = rng.choice(("swap", "retarget", "duplicate", "delete", "reverse", "drop_token"))
    if kind in ("swap", "retarget"):
        site_a = _pick_word(rng, lines, ids_only=True)
        site_b = _pick_word(rng, lines, ids_only=True)
        if site_a is None or site_b is None or site_a == site_b:
            return
        (i, a), (j, b) = sorted((site_a, site_b))
        word_a, word_b = lines[i][a[0]:a[1]], lines[j][b[0]:b[1]]
        # Edit the later site first so the earlier one's offsets hold.
        lines[j] = _replace(lines[j], b, word_a)
        if kind == "swap":
            lines[i] = _replace(lines[i], a, word_b)
    elif kind == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    elif kind == "delete" and len(lines) > 1:
        del lines[rng.randrange(len(lines))]
    elif kind == "reverse":
        edges = [i for i, line in enumerate(lines) if "->" in line]
        if edges:
            i = rng.choice(edges)
            swapped = _AGGREGATION_RE.sub(r"(\3\2\1", lines[i], count=1)
            if swapped == lines[i]:
                swapped = _EDGE_RE.sub(r"\3\2\1", lines[i], count=1)
            lines[i] = swapped
    elif kind == "drop_token":
        site = _pick_word(rng, lines, ids_only=False)
        if site is not None:
            i, span = site
            lines[i] = _replace(lines[i], span, "")


def mutants(text: str, seed: int, count: int):
    """`count` seeded mutants of `text`, each one to three edits away."""
    rng = random.Random(seed)
    base = text.split("\n")
    for _ in range(count):
        lines = list(base)
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, lines)
        yield "\n".join(lines)


def _assert_inside(span: Span, lines: list[str]) -> None:
    assert 1 <= span.line <= span.end_line <= len(lines), span
    assert 1 <= span.col <= len(lines[span.line - 1]) + 1, span
    assert 1 <= span.end_col <= len(lines[span.end_line - 1]) + 1, span
    assert (span.line, span.col) <= (span.end_line, span.end_col), span


# Per fixture, the sha256 of every mutant's parse outcome: the repr of its
# Declarations, or the ParseError message and span.
PARSE_DIGESTS = {
    "imaginary_shop.pppm": "7ae22e98c550dfb7bbd73e4ff9c3b4e56055f618075b8d96f966ec78f670a60b",
    "chatterbaby.pppm": "f1aa9a1d1d6a70d3c576b3b4c67ee0d1355f4c593fe42d7fa8c08d177d55913a",
}


@pytest.mark.parametrize("fixture, count", CASES.items())
def test_mutated_fixtures_fail_only_with_documented_errors(fixture, count):
    outcomes = {"parse": 0, "lower": 0, "model": 0}
    digest = hashlib.sha256()
    for text in mutants(read_fixture(fixture), SEED, count):
        lines = text.split("\n")
        try:
            decls = parse_policy(text)
        except ParseError as exc:
            digest.update(f"{exc} {exc.span!r}\n".encode("utf-8"))
            _assert_inside(exc.span, lines)
            outcomes["parse"] += 1
            continue
        digest.update(f"{decls!r}\n".encode("utf-8"))
        try:
            model = lower(decls)
        except LoweringError as exc:
            assert exc.diagnostics
            for diagnostic in exc.diagnostics:
                _assert_inside(diagnostic.span, lines)
            outcomes["lower"] += 1
            continue
        outcomes["model"] += 1
        assert lower(parse_policy(serialize(model))) == model
        run_lints(model)
        emit_graph(model)
    # Every outcome class is exercised, so the checks above are not vacuous.
    assert all(n >= count // 20 for n in outcomes.values()), outcomes
    # The parser's exact output, errors and spans included, is pinned.
    assert digest.hexdigest() == PARSE_DIGESTS[fixture], outcomes

