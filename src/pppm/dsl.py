"""The sectioned policy file format: parse, lower, serialize.

A policy file names the policy and then lists sections in any order:

    policy "imaginary-shop"

    roles { r1: "Manager" }
    role_hierarchy { r1 -> r2 }
    groups { g1: "Personal information" }
    attributes { d1: "Name" groups (g1) collected = yes }
    aggregations { (d6, d2) -> d7 }
    granularities { date2age: "Date2Age" }
    tasks { t1: "Identify client" reads d1 via date2age }
    purposes { p1: "Shipment" = [t1, t2] universal }
    role_purpose { r2 allowed p1 when "age > 18" }
    purpose_task_conditions { p3 task t1 when "age > 18" }
    purpose_group { p1 allowed group g1 when "consent == true" }

`#` starts a comment running to end of line.  Ids ([A-Za-z_][A-Za-z0-9_]*) and
strings (double-quoted, with \\" and \\\\ escapes) follow the lexical rules of
condition text, which `conditions` defines once.

The lexer fills five parallel lists indexed by token number: kind, text,
line, column and end column.  `kind` is "ident", "string", "eof" or the
punctuation text itself ("{", "->", ...), and a string's text is its
unescaped content.  Every element is a str or an int, so a token is no object
of its own and the garbage collector tracks none of them.  The lists end with
end-of-input sentinels, so lookahead is a plain index.  A Span is built only
for a declaration (from its first token to its last, all of them once the
text is read) or an error, and each distinct condition text is parsed once
per `parse_policy` call.

Each section is described once, by its row in `_SECTIONS`: its keyword, the
PolicyModel field it fills, the type a declaration is built as, its shape (the
tokens every declaration starts with), the tail that reads what may follow
them, and the writer of an entry's canonical row(s).  A declaration is checked
against its shape with one comparison of token kinds and one of keyword texts;
only a mismatch walks the shape token by token, to report the first token that
does not fit.  The table is in grammar order, the order of PolicyModel's
fields.  A declaration is built once, as the model entry it declares (a Role,
a Task, ...), but for an attribute: declarations of one attribute merge in
`lower`, so each is an AttributeDecl, whose groups stay a tuple as written (a
frozenset would make a Declarations' repr vary with string hashing).  Span and
LowerDiagnostic are NamedTuples.

Parsing produces Declarations: the entries in source order and their spans.
`lower` builds a PolicyModel of them, validates it once with `model.validate`,
and reports every problem together, each at the declaration of the entry it
is about, ordered by rule and then by source position.  A duplicated id is
reported at each declaration after the first; references to it resolve to the
first.  `serialize` writes a model back in canonical form (sections in table
order, two-space indent, LF) such that lower(parse(serialize(m))) == m.

An attribute may be declared more than once under the same label; the
declarations merge (group sets union).  Contradictory `collected` flags mark
the merged attribute as conflicted, which round-trips and is surfaced by the
collection-conflict lint rather than rejected here.
"""

from __future__ import annotations

import re
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, NamedTuple, Optional

from .conditions import (IDENTIFIER, STRING_BODY, ConditionError, ConditionExpr, collector_paused,
                         escape_string, parse_condition, render_condition, unescape_string,
                         value_type)
from .model import (
    Aggregation,
    Attribute,
    AttributeGroup,
    GranularityFn,
    PolicyModel,
    Purpose,
    PurposeGroupGrant,
    PurposeTaskCondition,
    Role,
    RoleEdge,
    RolePurposeGrant,
    Task,
)

_new = tuple.__new__  # builds a value without its constructor's frame; see `value_type`


class Span(NamedTuple):
    """1-based source position range."""

    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class ParseError(ValueError):
    def __init__(self, message: str, span: Span, expected: Optional[str] = None) -> None:
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{span}: {message}{hint}")
        self.span = span
        self.expected = expected


class LowerDiagnostic(NamedTuple):
    message: str
    span: Span


class LoweringError(ValueError):
    def __init__(self, diagnostics: list[LowerDiagnostic]) -> None:
        super().__init__(
            "; ".join(f"{d.span}: {d.message}" for d in diagnostics) or "lowering failed"
        )
        self.diagnostics = diagnostics


class AttributeDecl(NamedTuple):
    """One declaration of an attribute, which `lower` merges with the others."""

    id: str
    label: str
    groups: tuple[str, ...]  # as written
    collected: Optional[bool]


@value_type
class Declarations(NamedTuple):
    """Parsed policy file: its name, its declarations in source order (each the
    model entry it declares, or an AttributeDecl) and their spans, index for index."""

    name: str
    entries: tuple[tuple, ...]
    spans: tuple[Span, ...]


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
_ID_LINES = re.compile(f"(?:{IDENTIFIER.pattern}\n)*")  # ids each followed by a line break
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

    def mismatch(self, pos: int, shape: tuple[str, ...]) -> ParseError:
        """The error at the first token from `pos` on that does not fit
        `shape`.  One does: the caller found a mismatch, and no shape token
        fits an end-of-input sentinel, so the walk stops before the lists end."""
        for pos, token in enumerate(shape, pos):
            if token[0] == "'":
                if self.kinds[pos] != "ident" or self.texts[pos] != token[1:-1]:
                    return self.unexpected(pos, token)
            elif self.kinds[pos] != token:
                return self.unexpected(pos, _EXPECTED.get(token, repr(token)))
        raise AssertionError(f"the tokens from {pos} fit {shape}")


@collector_paused
def parse_policy(text: str) -> Declarations:
    """Parse policy text into declarations; raises ParseError on bad input."""
    parser = _Parser(text)
    kinds, texts = parser.kinds, parser.texts
    if kinds[:2] != ["ident", "string"] or texts[0] != "policy":
        raise parser.mismatch(0, ("'policy'", "string"))
    name, pos = texts[1], 2
    entries: list[tuple] = []
    firsts: list[int] = []  # each declaration's first token
    lasts: list[int] = []  # and its last
    while kinds[pos] != "eof":
        matcher = _MATCHER_BY_KEYWORD.get(texts[pos])
        if matcher is None or kinds[pos] != "ident":
            raise parser.unexpected(pos, "a section name")
        if kinds[pos + 1] != "{":
            raise parser.unexpected(pos + 1, "'{'")
        pos += 2
        entry, shape, tail, size, shape_kinds, keywords, keyword_texts, fields = matcher
        while kinds[pos] != "}":
            end = pos + size
            words = texts[pos:end]
            if kinds[pos:end] != shape_kinds or keywords(words) != keyword_texts:
                raise parser.mismatch(pos, shape)
            firsts.append(pos)
            if tail is None:
                entries.append(_new(entry, fields(words)))
            else:
                parser.pos = end
                entries.append(_new(entry, fields(words) + tail(parser)))
                end = parser.pos
            lasts.append(end - 1)
            pos = end
        pos += 1
    line, col, end = parser.lines.__getitem__, parser.cols.__getitem__, parser.ends.__getitem__
    spans = map(_new, repeat(Span), zip(map(line, firsts), map(col, firsts),
                                        map(line, lasts), map(end, lasts)))
    return Declarations(name, tuple(entries), tuple(spans))


def load_policy(text: str) -> PolicyModel:
    """Parse and lower in one step."""
    return lower(parse_policy(text))


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


def _quote(text: str) -> str:
    if "\n" in text:
        raise ValueError(f"cannot write {text!r}: a policy string cannot hold a line break")
    return f'"{escape_string(text)}"'


def _when(condition: Optional[ConditionExpr]) -> str:
    return "" if condition is None else f" when {_quote(render_condition(condition))}"


def _write_attribute(attr: Attribute) -> tuple[str, ...]:
    row = f"{attr.id}: {_quote(attr.label)}"
    if attr.groups:
        row += f" groups ({', '.join(sorted(attr.groups))})"
    if attr.collected_conflict:
        return (row + " collected = yes", f"{attr.id}: {_quote(attr.label)} collected = no")
    if attr.collected is not None:
        row += f" collected = {'yes' if attr.collected else 'no'}"
    return (row,)


def _write_task(task: Task) -> tuple[str, ...]:
    via = "" if task.via is None else f" via {task.via}"
    return (f"{task.id}: {_quote(task.label)} reads {task.reads}{via}",)


def _write_purpose(purpose: Purpose) -> tuple[str, ...]:
    row = f"{purpose.id}: {_quote(purpose.label)}"
    if purpose.tasks:
        row += f" = [{', '.join(purpose.tasks)}]"
    if purpose.universal:
        row += " universal"
    return (row,)


class _Section(NamedTuple):
    keyword: str  # the section's name in a policy file
    field: str  # the PolicyModel field its entries lower into
    entry: type  # what a declaration is built as: its model entity, or AttributeDecl
    # The tokens every declaration starts with: "ident" or "string" (the
    # entry's leading fields, in order), punctuation, or a quoted keyword.
    shape: tuple[str, ...]
    tail: Optional[Callable[[_Parser], tuple]]  # reads the entry's remaining fields
    write: Callable[[Any], tuple[str, ...]]  # an entry's canonical row(s)


_NAMED = ("ident", ":", "string")  # `id: "label"`, which also starts attributes, tasks and purposes

# Every section, in grammar order, which is also the order of PolicyModel's
# fields and of `serialize`'s output.
_SECTIONS = (
    _Section("roles", "roles", Role, _NAMED, None,
             lambda r: (f"{r.id}: {_quote(r.label)}",)),
    _Section("role_hierarchy", "role_edges", RoleEdge, ("ident", "->", "ident"), None,
             lambda e: (f"{e.superior} -> {e.inferior}",)),
    _Section("groups", "groups", AttributeGroup, _NAMED, None,
             lambda g: (f"{g.id}: {_quote(g.label)}",)),
    _Section("attributes", "attributes", AttributeDecl, _NAMED, _attribute_tail, _write_attribute),
    _Section("aggregations", "aggregations", Aggregation,
             ("(", "ident", ",", "ident", ")", "->", "ident"), None,
             lambda a: (f"({a.left}, {a.right}) -> {a.product}",)),
    _Section("granularities", "granularities", GranularityFn, _NAMED, None,
             lambda g: (f"{g.id}: {_quote(g.description)}",)),
    _Section("tasks", "tasks", Task, (*_NAMED, "'reads'", "ident"), _via_tail, _write_task),
    _Section("purposes", "purposes", Purpose, _NAMED, _purpose_tail, _write_purpose),
    _Section("role_purpose", "rp_grants", RolePurposeGrant, ("ident", "'allowed'", "ident"),
             _when_tail, lambda g: (f"{g.role} allowed {g.purpose}{_when(g.condition)}",)),
    _Section("purpose_task_conditions", "pt_conditions", PurposeTaskCondition,
             ("ident", "'task'", "ident", "'when'"), _condition_tail,
             lambda c: (f"{c.purpose} task {c.task}{_when(c.condition)}",)),
    _Section("purpose_group", "pg_grants", PurposeGroupGrant,
             ("ident", "'allowed'", "'group'", "ident"), _when_tail,
             lambda g: (f"{g.purpose} allowed group {g.group}{_when(g.condition)}",)),
)


def _matcher(shape: tuple[str, ...]) -> tuple:
    """How `parse_policy` matches `shape`: its length and kinds (a keyword's is
    "ident"), a getter of its keywords' texts and those texts, and a getter of
    its fields' texts, a tuple since every shape holds at least two fields."""
    keyword_at = [i for i, token in enumerate(shape) if token[0] == "'"]
    # With no keyword, an empty slice stands in for the keywords' texts.
    keywords = itemgetter(*keyword_at) if keyword_at else itemgetter(slice(0))
    fields = itemgetter(*[i for i, token in enumerate(shape) if token in ("ident", "string")])
    return (len(shape), ["ident" if token[0] == "'" else token for token in shape],
            keywords, keywords([token.strip("'") for token in shape]), fields)


_MATCHER_BY_KEYWORD = {s.keyword: (s.entry, s.shape, s.tail, *_matcher(s.shape)) for s in _SECTIONS}
_FIELD_BY_ENTRY = {section.entry: section.field for section in _SECTIONS}


@collector_paused
def lower(decls: Declarations) -> PolicyModel:
    """Resolve declarations into a validated PolicyModel.

    Each entry goes into the model as it is, a duplicated id's included;
    only attributes are built here, one per id from its declarations.  The
    model is validated once.  Each ValidationError is reported at the span of
    the declaration its `where` names; the one check made here is an attribute
    redeclared with a different label, which a model cannot represent.  All
    problems are raised together as LoweringError, ordered by rule and then by
    source position.  Entries and spans of different lengths raise ValueError.
    """
    entries: dict[str, list] = {section.field: [] for section in _SECTIONS}
    spans: dict[str, list[Span]] = {section.field: [] for section in _SECTIONS}
    attributes: list[Attribute] = entries["attributes"]
    attr_index: dict[str, int] = {}
    problems: list[tuple[str, Span, str]] = []

    for decl, span in zip(decls.entries, decls.spans, strict=True):
        if type(decl) is not AttributeDecl:
            field = _FIELD_BY_ENTRY[type(decl)]
            entries[field].append(decl)
            spans[field].append(span)
        elif decl.id not in attr_index:
            attr_index[decl.id] = len(attributes)
            spans["attributes"].append(span)
            attributes.append(
                Attribute(decl.id, decl.label, frozenset(decl.groups), decl.collected)
            )
        else:
            # Re-declaration: merge group sets and collection votes so a
            # policy's own contradictions stay representable.
            existing = attributes[attr_index[decl.id]]
            if existing.label != decl.label:
                message = (
                    f"attribute {decl.id!r} redeclared with a different label "
                    f"({existing.label!r} vs {decl.label!r})"
                )
                # Ordered among the duplicate-id errors, as a kind of one.
                problems.append(("duplicate-id", span, message))
                continue
            votes = {existing.collected, decl.collected} - {None}
            conflict = existing.collected_conflict or len(votes) > 1
            attributes[attr_index[decl.id]] = existing._replace(
                groups=existing.groups | frozenset(decl.groups),
                collected=None if conflict else next(iter(votes), None),
                collected_conflict=conflict,
            )

    derived = {a.product for a in entries["aggregations"]}
    entries["attributes"] = [
        attr._replace(derived=True) if attr.id in derived else attr for attr in attributes
    ]
    model = PolicyModel(decls.name, **{name: tuple(e) for name, e in entries.items()})

    for error in model.validation_errors:
        name, index = error.where
        problems.append((error.rule, spans[name][index], error.message))
    if problems:
        problems.sort(key=lambda p: (p[0], p[1].line, p[1].col))
        raise LoweringError([LowerDiagnostic(message, span) for _, span, message in problems])
    return model


def serialize(model: PolicyModel) -> str:
    """Canonical text form of a valid model.

    Sections appear in grammar order, entries in model (declaration) order,
    group lists sorted, two-space indent, LF endings.  A collection conflict
    is written as two declarations so it survives a round trip.  A name,
    label, description or condition string holding a line break, and a
    declared id that is not an identifier, cannot be written (ValueError).
    """
    ids = [e.id for s in _SECTIONS if s.entry._fields[0] == "id" for e in getattr(model, s.field)]
    joined = "\n".join([*ids, ""])
    if not _ID_LINES.fullmatch(joined) or joined.count("\n") != len(ids):
        bad = next(i for i in ids if not IDENTIFIER.fullmatch(i))
        raise ValueError(f"cannot write id {bad!r}: a policy id must match {IDENTIFIER.pattern}")
    lines: list[str] = [f"policy {_quote(model.name)}"]
    for section in _SECTIONS:
        rows = [row for entry in getattr(model, section.field) for row in section.write(entry)]
        if rows:
            lines += ["", f"{section.keyword} {{", *[f"  {row}" for row in rows], "}"]
    return "\n".join(lines) + "\n"
