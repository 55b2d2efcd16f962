"""The spans of a text the declaration patterns read, built on demand.

`parse_policy` keeps each declaration's first and end offsets and builds no
`Span` until one is read.  The sequence it returns must stand for the tuple
of its spans everywhere a reader can tell: equality and hash from either
side, concatenation, indexes and slices, repr, pickle and copies.  Its spans
must equal those of `oracles.brute_spans`, which counts the line breaks
before each offset, on the fixtures (also with CRLF line ends), the fixture
mutants of `test_dsl_patterns.py` that the patterns read, and serialized
random models, also re-spaced across lines.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from conftest import read_fixture
from oracles import brute_spans
from pppm import dsl, token_parser
from pppm.dsl import Declarations, Span, load_policy, lower, parse_policy, serialize
from test_dsl_patterns import _TOKEN_RE, SEED, _respaced
from test_fuzz_lowering import CASES, mutants

seeds = st.integers(min_value=0, max_value=2**32 - 1)
TEXT = 'policy "x"\nroles {\n  r1: "A"\n  r2:\n    "B"\n}\nrole_hierarchy { r1 -> r2 }\n'
SPANS = (Span(3, 3, 3, 10), Span(4, 3, 5, 8), Span(7, 18, 7, 26))


def _lazy(text: str) -> dsl._Spans:
    spans = parse_policy(text).spans
    assert type(spans) is dsl._Spans and spans.built is None
    return spans


def _assert_oracle(text: str) -> None:
    spans = _lazy(text)
    assert tuple(spans) == brute_spans(text, spans.firsts, spans.ends), text


def test_the_fixtures_spans_are_the_oracles(shop_text, baby_text):
    for text in (shop_text, baby_text):
        for variant in (text, text.replace("\n", "\r\n")):
            _assert_oracle(variant)


@pytest.mark.parametrize("fixture", CASES)
def test_the_spans_of_mutated_fixtures_are_the_oracles(fixture):
    read = 0
    for text in mutants(read_fixture(fixture), SEED, CASES[fixture] // 2):
        if dsl._match_policy(text) is not None:
            _assert_oracle(text)
            read += 1
    assert read >= CASES[fixture] // 8, read


@given(seeds)
@settings(max_examples=100)
def test_the_spans_of_serialized_models_are_the_oracles(seed):
    rng = random.Random(seed)
    text = serialize(gen.random_model(rng))
    _assert_oracle(text)
    _assert_oracle(_respaced(rng, _TOKEN_RE.findall(text)))


def test_the_spans_equal_and_hash_as_their_tuple_from_either_side():
    spans = _lazy(TEXT)
    assert spans == SPANS and SPANS == spans and not spans != SPANS and not SPANS != spans
    assert hash(spans) == hash(SPANS)
    assert spans == _lazy(TEXT) and {spans: 1}[SPANS] == 1
    assert spans != SPANS[:2] and SPANS[:2] != spans and spans != list(SPANS)
    # The token parser's declarations hold a tuple, and equal these.
    decls, tokens = parse_policy(TEXT), token_parser.parse_tokens(TEXT)
    assert decls == tokens and tokens == decls and hash(decls) == hash(tokens)


def test_the_spans_concatenate_index_and_slice_as_their_tuple():
    decls = parse_policy(TEXT)
    spans = decls.spans
    assert decls.entries + spans == decls.entries + SPANS
    assert spans + () == SPANS and type(spans + ()) is tuple
    assert (spans[0], spans[-1], spans[-3]) == (SPANS[0], SPANS[2], SPANS[0])
    assert spans[1:] == SPANS[1:] and type(spans[1:]) is tuple and spans[::-1] == SPANS[::-1]
    for index in (3, -4):
        with pytest.raises(IndexError, match="^tuple index out of range$"):
            spans[index]
    assert list(spans) == list(SPANS) and list(reversed(spans)) == list(reversed(SPANS))
    assert SPANS[1] in spans and spans.index(SPANS[2]) == 2 and spans.count(SPANS[0]) == 1
    assert not _lazy('policy "x"\n') and _lazy('policy "x"\n') == ()


def test_the_spans_repr_pickle_and_copy_as_their_tuple():
    decls = parse_policy(TEXT)
    assert repr(decls.spans) == repr(SPANS)
    assert repr(decls) == repr(token_parser.parse_tokens(TEXT))
    for spans in (decls.spans, _lazy(TEXT)):  # read and not yet read
        for twin in (pickle.loads(pickle.dumps(spans)), copy.copy(spans), copy.deepcopy(spans)):
            assert twin == spans and type(twin) is dsl._Spans and repr(twin) == repr(SPANS)
    for twin in (pickle.loads(pickle.dumps(decls)), copy.deepcopy(decls)):
        assert type(twin) is Declarations and twin == decls and repr(twin) == repr(decls)


def test_len_and_lowering_a_valid_text_build_no_span(shop_text):
    decls = parse_policy(shop_text)
    spans = decls.spans
    assert len(spans) == len(decls.entries) and spans
    assert lower(decls) == load_policy(shop_text)
    assert spans.built is None
    first = spans[0]
    assert type(spans.built) is tuple and spans.built[0] is first and spans[:] is spans.built


def test_lowering_a_text_with_a_problem_reads_its_spans():
    decls = parse_policy(TEXT.replace("r1 -> r2", "r1 -> r9"))
    with pytest.raises(dsl.LoweringError) as info:
        lower(decls)
    assert [d.span for d in info.value.diagnostics] == [SPANS[2]]
    assert decls.spans.built == SPANS
