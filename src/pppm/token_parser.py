"""The token parser of policy files: `dsl.parse_policy`'s error path.

`dsl.parse_policy` reads a valid text with one pattern match per
declaration.  A text its patterns miss is read again here, token by token,
and the first token that does not fit is reported; so every error, with its
message and span, comes from here.  Since no valid text in the usual layout
reaches this module, it is imported on the first miss only.

The lexer fills five parallel lists indexed by token number: kind, text,
line, column and end column.  `kind` is "ident", "string", "eof" or the
punctuation text itself ("{", "->", ...), and a string's text is its body as
written, escapes included.  Every element is a str or an int, so a token is
no object of its own and the garbage collector tracks none of them.  The
lists end with end-of-input sentinels, so lookahead is a plain index.  A
Span is built only for a declaration (from its first token to its last, all
of them once the text is read) or an error.

Each declaration is walked token by token along its section's row in
`dsl._SECTIONS`: its shape, then each trailer that its lead's tokens start
(with the `:` rule of `dsl._Trailer`).  A field is converted by its kind's
converter in `dsl._KINDS`, as the patterns' path converts a capture, so a
string is unescaped there and each distinct condition parsed once per call.
"""

from __future__ import annotations

import re
from itertools import repeat

from .conditions import IDENTIFIER, STRING_BODY, ConditionError, ConditionExpr
from .dsl import _KINDS, _SECTION_BY_KEYWORD, Declarations, ParseError, Span, _new, _Trailer

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


class _Parser:
    def __init__(self, text: str) -> None:
        self.kinds, self.texts, self.lines, self.cols, self.ends = _lex(text)
        self.pos = 0
        # String body -> ConditionExpr: each distinct condition is parsed once.
        self.conditions: dict[str, ConditionExpr] = {}

    def fits(self, token: str, pos: int) -> bool:
        """Whether the token at `pos` can be `token`, a token of a shape or
        trailer; an id list's first, for an id list."""
        if token[0] == "'":
            return self.kinds[pos] == "ident" and self.texts[pos] == token[1:-1]
        return self.kinds[pos] == (_KINDS[token].token if token in _KINDS else token)

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

    def walk(self, tokens: tuple[str, ...]) -> list:
        """The values of the fields among `tokens`, read token by token from
        the current one (an id list's `id (, id)*` as one), each converted by
        its kind as `dsl` converts a pattern's capture; the first token that
        does not fit raises.  No token fits an end-of-input sentinel, so the
        walk stops before the lists end."""
        values = []
        pos = self.pos
        for token in tokens:
            kind = _KINDS.get(token)
            if not self.fits(token, pos):
                raise self.unexpected(pos, kind.expected if kind else
                                      token if token[0] == "'" else repr(token))
            if kind is not None:
                text = self.texts[pos]
                while token == "ids" and self.kinds[pos + 1] == ",":
                    pos += 2
                    if self.kinds[pos] != "ident":
                        raise self.unexpected(pos, kind.expected)
                    text += "," + self.texts[pos]
                try:
                    (value,) = kind.column(self.conditions, (text,))
                except ConditionError as exc:
                    raise ParseError(f"invalid condition: {exc}", self.span(pos)) from exc
                if value is None:  # an identifier other than `yes` or `no`
                    raise self.unexpected(pos, kind.expected)
                values.append(value)
            pos += 1
        self.pos = pos
        return values

    def fields(self, shape: tuple[str, ...], trailers: tuple[_Trailer, ...] = ()) -> list:
        """The field values of a declaration of `shape` and `trailers`, read
        from the current token.  A trailer is taken where its lead's tokens
        fit, unless the lead ends in an identifier or keyword and a `:`
        follows; a flag is True where taken.  A trailer left out has the
        value its kind converts a missing capture (None) to."""
        values = self.walk(shape)
        for trailer in trailers:
            end = self.pos + len(trailer.lead)
            if (all(map(self.fits, trailer.lead, range(self.pos, end)))
                    and not (trailer.refusable and self.kinds[end] == ":")):
                values += self.walk(trailer.lead + trailer.rest) or [True]
            else:
                values += _KINDS[trailer.kind].column(self.conditions, (None,))
        return values


def parse_tokens(text: str) -> Declarations:
    """`dsl.parse_policy` by the token parser, which reports every error."""
    parser = _Parser(text)
    kinds, texts = parser.kinds, parser.texts
    (name,) = parser.walk(("'policy'", "string"))
    entries: list[tuple] = []
    firsts: list[int] = []  # each declaration's first token
    lasts: list[int] = []  # and its last
    while kinds[parser.pos] != "eof":
        section = _SECTION_BY_KEYWORD.get(texts[parser.pos])
        if section is None or kinds[parser.pos] != "ident":
            raise parser.unexpected(parser.pos, "a section name")
        parser.pos += 1
        parser.walk(("{",))
        while kinds[parser.pos] != "}":
            firsts.append(parser.pos)
            entries.append(_new(section.entry, parser.fields(section.shape, section.trailers)))
            lasts.append(parser.pos - 1)
        parser.pos += 1
    line, col, end = parser.lines.__getitem__, parser.cols.__getitem__, parser.ends.__getitem__
    spans = map(_new, repeat(Span), zip(map(line, firsts), map(col, firsts),
                                        map(line, lasts), map(end, lasts)))
    return Declarations(name, tuple(entries), tuple(spans))
