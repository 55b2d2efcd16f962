"""The token parser of policy files: `dsl.parse_policy`'s error path.

`dsl.parse_policy` reads a valid text with one pattern match per
declaration.  A text its patterns miss is read again here, token by token,
and the first token that does not fit is reported; so every error, with its
message and span, comes from here.  Since no valid text in the usual layout
reaches this module, it is imported on the first miss only.

The lexer fills five parallel lists indexed by token number: kind, text,
line, column and end column.  `kind` is "ident", "string", "eof" or the
punctuation text itself ("{", "->", ...), and a string's text is its
unescaped content.  Every element is a str or an int, so a token is no object
of its own and the garbage collector tracks none of them.  The lists end with
end-of-input sentinels, so lookahead is a plain index.  A Span is built only
for a declaration (from its first token to its last, all of them once the
text is read) or an error, and each distinct condition text is parsed once
per call.  Each declaration's shape (from its section's row in
`dsl._SECTIONS`) is walked token by token, and its tail is read by the
tail's reader in `_READERS`, with the lookahead that the tail's trailer
pattern has.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Optional

from .conditions import (IDENTIFIER, STRING_BODY, ConditionError, ConditionExpr, parse_condition,
                         unescape_string)
from .dsl import (_ATTRIBUTE_TAIL, _CONDITION_TAIL, _PURPOSE_TAIL, _SECTION_BY_KEYWORD, _VIA_TAIL,
                  _WHEN_TAIL, Declarations, ParseError, Span, _new)

# The whitespace before a token, then one token, comment or stray character.
# Each match starts where the last one ended (only trailing whitespace is
# left unmatched), so a token's column is the sum of the lengths before it.
_TOKEN_RE = re.compile(
    rf"""
    ([ \t\r]*)
    (?:
      ({IDENTIFIER.pattern})                    # ident
    | (->|[{{}}()\[\]:,=])                      # punctuation
    | ("{STRING_BODY.pattern}")                 # string
    | (\#.*)                                    # comment
    | ([^ \t\r])                                # stray character
    )
    """,
    re.VERBOSE,
)
# Lookahead reaches two tokens past the current one, so the token lists end
# with three end-of-input sentinels and a lookahead never runs off them.
_EOF_PAD = 3


def _lex(text: str) -> tuple[list[str], list[str], list[int], list[int], list[int]]:
    """The tokens of `text` as the lists kinds, texts, lines, cols and ends."""
    kinds: list[str] = []
    texts: list[str] = []
    linenos: list[int] = []
    cols: list[int] = []
    ends: list[int] = []
    lines = text.split("\n")
    for lineno, line in enumerate(lines, 1):
        col = 1
        for space, ident, punct, string, comment, bad in _TOKEN_RE.findall(line):
            col += len(space)
            if ident:
                kind, word, end = "ident", ident, col + len(ident)
            elif punct:
                kind, word, end = punct, punct, col + len(punct)
            elif string:
                kind, word, end = "string", string[1:-1], col + len(string)
                if "\\" in word:
                    word = unescape_string(word)
            elif bad:
                raise _lex_error(line, lineno, col - 1)
            else:
                break  # a comment runs to the end of the line
            kinds.append(kind)
            texts.append(word)
            linenos.append(lineno)
            cols.append(col)
            ends.append(end)
            col = end
    col = len(lines[-1]) + 1
    kinds += ["eof"] * _EOF_PAD
    texts += [""] * _EOF_PAD
    linenos += [len(lines)] * _EOF_PAD
    cols += [col] * _EOF_PAD
    ends += [col] * _EOF_PAD
    return kinds, texts, linenos, cols, ends


def _lex_error(line: str, lineno: int, start: int) -> ParseError:
    """The error for the character at `start`, which begins no token."""
    if line[start] != '"':
        return ParseError(
            f"unexpected character {line[start]!r}", Span(lineno, start + 1, lineno, start + 2)
        )
    # The string is not closed on this line, or it holds a bad escape.
    end = STRING_BODY.match(line, start + 1).end()  # type: ignore[union-attr]
    if end < len(line):
        return ParseError("unsupported escape in string", Span(lineno, end + 1, lineno, end + 3))
    return ParseError("unterminated string", Span(lineno, start + 1, lineno, end + 1))


_EXPECTED = {"ident": "an identifier", "string": "a string"}


class _Parser:
    def __init__(self, text: str) -> None:
        self.kinds, self.texts, self.lines, self.cols, self.ends = _lex(text)
        self.pos = 0
        # Condition text -> ConditionExpr: each distinct text is parsed once.
        self.conditions: dict[str, ConditionExpr] = {}

    def expect(self, kind: str, expected: Optional[str] = None) -> str:
        """The current token's text if it is of `kind` (a punctuation text,
        "ident" or "string"), else a ParseError naming `expected` or `kind`."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.unexpected(pos, expected or _EXPECTED.get(kind, repr(kind)))
        self.pos = pos + 1
        return self.texts[pos]

    def at_keyword(self, word: str) -> bool:
        pos = self.pos
        return self.texts[pos] == word and self.kinds[pos] == "ident"

    def at(self, kind: str, ahead: int = 0) -> bool:
        """Whether the token `ahead` past the current one is of `kind`."""
        return self.kinds[self.pos + ahead] == kind

    def span(self, pos: int) -> Span:
        """The span of the token at `pos`."""
        return Span(self.lines[pos], self.cols[pos], self.lines[pos], self.ends[pos])

    def unexpected(self, pos: int, expected: str) -> ParseError:
        kind = self.kinds[pos]
        if kind == "eof":
            found = "end of input"
        elif kind == "string":
            found = "a string"
        else:
            found = repr(self.texts[pos])
        return ParseError(f"found {found}", self.span(pos), expected=expected)

    def fields(self, shape: tuple[str, ...]) -> list[str]:
        """The texts of `shape`'s fields, read token by token from the current
        one; the first token that does not fit `shape` raises.  No shape token
        fits an end-of-input sentinel, so the walk stops before the lists end."""
        fields = []
        for pos, token in enumerate(shape, self.pos):
            if token[0] == "'":
                if self.kinds[pos] != "ident" or self.texts[pos] != token[1:-1]:
                    raise self.unexpected(pos, token)
            elif self.kinds[pos] != token:
                raise self.unexpected(pos, _EXPECTED.get(token, repr(token)))
            elif token in _EXPECTED:
                fields.append(self.texts[pos])
        self.pos += len(shape)
        return fields


def parse_tokens(text: str) -> Declarations:
    """`dsl.parse_policy` by the token parser, which reports every error."""
    parser = _Parser(text)
    kinds, texts = parser.kinds, parser.texts
    (name,) = parser.fields(("'policy'", "string"))
    entries: list[tuple] = []
    firsts: list[int] = []  # each declaration's first token
    lasts: list[int] = []  # and its last
    while kinds[parser.pos] != "eof":
        section = _SECTION_BY_KEYWORD.get(texts[parser.pos])
        if section is None or kinds[parser.pos] != "ident":
            raise parser.unexpected(parser.pos, "a section name")
        parser.pos += 1
        parser.expect("{")
        while kinds[parser.pos] != "}":
            firsts.append(parser.pos)
            fields = parser.fields(section.shape)
            if section.tail is not None:
                fields += _READERS[section.tail](parser)
            entries.append(_new(section.entry, fields))
            lasts.append(parser.pos - 1)
        parser.pos += 1
    line, col, end = parser.lines.__getitem__, parser.cols.__getitem__, parser.ends.__getitem__
    spans = map(_new, repeat(Span), zip(map(line, firsts), map(col, firsts),
                                        map(line, lasts), map(end, lasts)))
    return Declarations(name, tuple(entries), tuple(spans))


def _parse_id_list(parser: _Parser, close: str) -> tuple[str, ...]:
    """`id (, id)*` then `close`."""
    members = [parser.expect("ident")]
    while parser.at(","):
        parser.pos += 1
        members.append(parser.expect("ident"))
    parser.expect(close)
    return tuple(members)


# A tail reads the fields of the entry that follow its shape's, from the token
# after the shape, and returns them in order: `parse_policy` builds the entry
# with `tuple.__new__`.
def _attribute_tail(parser: _Parser) -> tuple[tuple[str, ...], Optional[bool]]:
    groups: tuple[str, ...] = ()
    collected: Optional[bool] = None
    # Both trailers are optional; two-token lookahead separates them from the
    # next declaration, whose id is always followed by ':'.
    if parser.at_keyword("groups") and parser.at("(", 1):
        parser.pos += 2
        groups = _parse_id_list(parser, ")")
    if parser.at_keyword("collected") and parser.at("=", 1):
        parser.pos += 2
        flag = parser.expect("ident", "'yes' or 'no'")
        if flag not in ("yes", "no"):
            raise parser.unexpected(parser.pos - 1, "'yes' or 'no'")
        collected = flag == "yes"
    return groups, collected


def _via_tail(parser: _Parser) -> tuple[Optional[str]]:
    if parser.at_keyword("via") and parser.at("ident", 1) and not parser.at(":", 2):
        parser.pos += 2
        return (parser.texts[parser.pos - 1],)
    return (None,)


def _purpose_tail(parser: _Parser) -> tuple[tuple[str, ...], bool]:
    tasks: tuple[str, ...] = ()
    if parser.at("="):
        parser.pos += 1
        parser.expect("[")
        tasks = _parse_id_list(parser, "]")
    # 'universal' could also start the next declaration as an id; a following
    # ':' disambiguates.
    if parser.at_keyword("universal") and not parser.at(":", 1):
        parser.pos += 1
        return tasks, True
    return tasks, False


def _condition_tail(parser: _Parser) -> tuple[ConditionExpr]:
    """A condition string, parsed once per distinct text."""
    text = parser.expect("string")
    condition = parser.conditions.get(text)
    if condition is None:
        try:
            condition = parser.conditions[text] = parse_condition(text)
        except ConditionError as exc:
            raise ParseError(f"invalid condition: {exc}", parser.span(parser.pos - 1)) from exc
    return (condition,)


def _when_tail(parser: _Parser) -> tuple[Optional[ConditionExpr]]:
    """The condition of a following `when "..."`, or None."""
    if parser.at_keyword("when") and parser.at("string", 1):
        parser.pos += 1
        return _condition_tail(parser)
    return (None,)


# The reader of each tail in `dsl._SECTIONS`.
_READERS = {
    _ATTRIBUTE_TAIL: _attribute_tail,
    _VIA_TAIL: _via_tail,
    _PURPOSE_TAIL: _purpose_tail,
    _CONDITION_TAIL: _condition_tail,
    _WHEN_TAIL: _when_tail,
}
