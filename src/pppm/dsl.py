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

Each section is described once, by its row in `_SECTIONS`: its keyword, the
PolicyModel field it fills, the type a declaration is built as, its shape (the
tokens every declaration starts with) and its trailers (what may follow them,
each optional, in order).  A token is punctuation, a quoted keyword, or a field
of a kind in `_KINDS`: an identifier, a string, an id list, `yes` or `no`, or a
condition string.  A trailer is a lead (the tokens that commit to it) and the
tokens that must follow; it holds one field, or none and is then a flag.  A
kind gives a field's pattern, the converter of a column of its captures (a
missing one, None, becomes the value of a trailer left out), the writer of a
column of its values, and the token the token parser reads.  So one row
serves the declaration pattern (`_declaration`), the entries built of its
matches (`_entries`), the token parser's walk, `serialize`'s rows and the
README's grammar.  The table is in grammar order, the order of PolicyModel's
fields.

`parse_policy` reads a text with one pattern match per header and per
declaration: the policy header, then each section's header, its declarations
and its `}`, then the end of the text.  A section's run of declarations is
read by its pattern's scanner, each match starting where the last ended, and
becomes entries column by column of their matches' groups.  Of the matches,
only each declaration's first and end offsets are kept, and the spans are
made of them when one is first read (`_Spans`).  Each distinct condition text
is parsed once per call.

Where the patterns miss (no match where one is due, text left over, or a
condition that does not parse), the token parser (`token_parser`, imported
on the first miss) reads the whole text again: so every error, with its
message and span, is the token parser's.  The patterns also miss a comment
inside a declaration and a form feed or vertical tab anywhere; the token
parser reads such a text to the same declarations.

A declaration is built once, as the model entry it declares (a Role, a Task,
...), but for an attribute: declarations of one attribute merge in `lower`,
so each is an AttributeDecl, whose groups stay a tuple as written (a
frozenset would make a Declarations' repr vary with string hashing).  Span
and LowerDiagnostic are NamedTuples.

Parsing produces Declarations: the entries in source order and their spans.
`lower` builds a PolicyModel of them, validates it once with `model.validate`,
and reports every problem together, each at the declaration of the entry it
is about, ordered by rule and then by source position.  Only a problem reads
a span, so `load_policy`, which is `lower(parse_policy(text))`, builds none
for a valid text.  A duplicated id is reported at each declaration after the
first; references to it resolve to the first.  `serialize` writes a model
back in canonical form (sections in table order, two-space indent, LF) such
that lower(parse(serialize(m))) == m.

An attribute may be declared more than once under the same label; the
declarations merge (group sets union).  Contradictory `collected` flags mark
the merged attribute as conflicted, which round-trips and is surfaced by the
collection-conflict lint rather than rejected here.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cache
from itertools import compress, count, groupby, repeat
from operator import add, attrgetter, is_, is_not, itemgetter, ne, sub
from re import Match
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .conditions import (IDENTIFIER, ConditionError, ConditionExpr, collector_paused,
                         condition_texts, escape_string, escape_strings, parse_condition,
                         unescape_string, value_type)
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
    spans: Sequence[Span]  # a tuple, or a _Spans that stands for one


class _Spans(Sequence):
    """The spans of a text's declarations, made of each one's first and end
    offsets: to a reader, the tuple of them.  `len` reads the offsets; the
    first item, slice or iteration builds the tuple, kept in `built`."""

    __slots__ = ("text", "firsts", "ends", "built")

    def __init__(self, text: str, firsts: list[int], ends: list[int]) -> None:
        self.text, self.firsts, self.ends, self.built = text, firsts, ends, None

    def build(self) -> tuple[Span, ...]:
        if self.built is None:
            text, firsts, ends = self.text, self.firsts, self.ends
            # An offset's line is one more than the line breaks before it, and
            # its column its distance from the last of them; -1 stands before
            # line 1.  A declaration ends on its first line plus the line
            # breaks inside it.
            breaks = [-1, *map(Match.start, re.finditer("\n", text))]
            before = [0, *breaks].__getitem__
            first_lines = list(map(bisect_left, repeat(breaks), firsts))
            end_lines = list(map(add, first_lines, map(text.count, repeat("\n"), firsts, ends)))
            self.built = tuple(map(_new, repeat(Span), zip(
                first_lines, map(sub, firsts, map(before, first_lines)),
                end_lines, map(sub, ends, map(before, end_lines)))))
        return self.built

    __len__ = lambda self: len(self.firsts)
    __getitem__ = lambda self, index: self.build()[index]  # an index or a slice
    __iter__ = lambda self: iter(self.build())
    __eq__ = lambda self, other: self.build() == other
    __hash__ = lambda self: hash(self.build())
    __add__ = lambda self, other: self.build() + other
    __radd__ = lambda self, other: other + self.build()
    __repr__ = lambda self: repr(self.build())
    __reduce__ = lambda self: (_Spans, (self.text, self.firsts, self.ends))


_ID_LINES = f"(?:{IDENTIFIER.pattern}\n)*"  # ids each followed by a line break


@collector_paused
def parse_policy(text: str) -> Declarations:
    """Parse policy text into declarations; raises ParseError on bad input."""
    decls = _match_policy(text)
    if decls is None:
        from .token_parser import parse_tokens  # the error path, imported on a miss
        return parse_tokens(text)
    return decls


@collector_paused
def load_policy(text: str) -> PolicyModel:
    """Parse and lower in one step: `lower(parse_policy(text))`."""
    return lower(parse_policy(text))


def _match_policy(text: str) -> Optional[Declarations]:
    """The declarations of `text` by the declaration patterns, their spans
    made of the matches' offsets; or None where the patterns miss."""
    if "\f" in text or "\v" in text:  # see _GAP
        return None
    m = _HEAD.match(text)
    if m is None:
        return None
    name, pos = _text(m[1]), m.end()
    conditions: dict[str, ConditionExpr] = {}
    entries: list[tuple] = []
    firsts: list[int] = []
    ends: list[int] = []
    while (m := _SECTION_HEAD.match(text, pos)) is not None:
        section = _SECTION_BY_KEYWORD.get(m[1])
        if section is None:
            return None
        pos = m.end()
        # The section's declarations, dropped once read: each match starts where the last ended.
        run = list(iter(_declaration(section.shape, section.trailers)(text, pos).match, None))
        if run:
            pos = run[-1].end()
            try:
                entries += _entries(section, run, conditions)
            except ConditionError:
                return None
            firsts += map(Match.start, run, repeat(1))
            ends += map(Match.end, run)
        if (m := _CLOSE.match(text, pos)) is None:
            return None
        pos = m.end()
    if _END.match(text, pos) is None:
        return None
    return Declarations(name, tuple(entries), _Spans(text, firsts, ends))


# The declaration patterns spell the lexer's rules one declaration at a time.
# In a pattern below, a space stands for the whitespace that may separate two
# tokens; `\s` also takes a form feed and a vertical tab, which the lexer
# does not, so a text holding either goes to the token parser.  Comments may
# stand only between declarations, each running to its line's end: a comment
# inside a declaration makes the patterns miss, and the token parser reads
# the text.  An identifier or keyword ends at a word boundary, as the lexer's
# does, and a string's body stays on its line.
_GAP = r"\s*(?:#.*(?!.)\s*)*"
_ID = r"[A-Za-z_]\w*\b"  # IDENTIFIER, under re.ASCII
_STRING = r'"([^"\\\n]*(?:\\["\\][^"\\\n]*)*)"'  # STRING_BODY on one line, captured


def _compile(pattern: str) -> re.Pattern[str]:
    return re.compile(pattern.replace(" ", r"\s*"), re.ASCII)


def _text(body: str) -> str:
    """The text of a string's body."""
    return unescape_string(body) if "\\" in body else body


def _texts(bodies: tuple[str, ...]) -> Sequence[str]:
    """The texts of string bodies, unescaped together: a body holds no line
    break, and no escape runs past its end."""
    joined = "\n".join(bodies)
    return unescape_string(joined).split("\n") if "\\" in joined else bodies


def _conditions(conditions: dict[str, ConditionExpr],
                bodies: tuple[Optional[str], ...]) -> Iterable:
    """The condition of each string body, or None for none; each distinct body
    is parsed once per `parse_policy` call."""
    for body in set(bodies).difference(conditions, (None,)):
        conditions[body] = parse_condition(_text(body))
    return map(conditions.get, bodies)


def _quote(text: str) -> str:
    if "\n" in text:
        raise ValueError(f"cannot write {text!r}: a policy string cannot hold a line break")
    return f'"{escape_string(text)}"'


def _escaped(texts: list[str]) -> Sequence[str]:
    """`texts` escaped in one pass; the first holding a line break raises as in `_quote`."""
    if any(map(str.__contains__, texts, repeat("\n"))):
        list(map(_quote, texts))
    return escape_strings(texts)


class _Kind(NamedTuple):
    """A kind of field token, the same in every section.  None stands for the
    field of a trailer left out, as a capture and as a written text."""

    pattern: str  # the declaration pattern's text for it, one group
    # A column of its values, of a column of captures and the call's condition cache.
    column: Callable[[dict[str, ConditionExpr], Sequence[Optional[str]]], Iterable]
    # The texts of a column of its values, given each condition's quoted text by `id`.
    write: Callable[[dict[int, str], Iterable], Iterable[Optional[str]]]
    # For the token parser: the lexer's kind of its (first) token, and what an
    # error names as expected in its place.
    token: Optional[str] = None
    expected: Optional[str] = None


_KINDS = {
    "ident": _Kind(f"({_ID})", lambda conditions, column: column,
                   lambda quoted, values: values, "ident", "an identifier"),
    # A string is written escaped, between the quotes of its row's template.
    "string": _Kind(_STRING, lambda conditions, column: _texts(column),
                    lambda quoted, values: _escaped(list(values)), "string", "a string"),
    # An id list is written as it is, but a set (an attribute's groups) sorted.
    "ids": _Kind(rf"({_ID}(?: , {_ID})*)",
                 lambda conditions, column: [() if ids is None else tuple(
                     map(str.strip, ids.split(","))) for ids in column],
                 lambda quoted, values: [(", ".join(ids if type(ids) is tuple else sorted(ids))
                                          if ids else None) for ids in values],
                 "ident", "an identifier"),
    "yes_no": _Kind(r"(yes|no)\b",
                    lambda conditions, column: map({"yes": True, "no": False}.get, column),
                    lambda quoted, values: map({True: "yes", False: "no"}.get, values),
                    "ident", "'yes' or 'no'"),
    "condition": _Kind(_STRING, _conditions,
                       lambda quoted, values: map(quoted.get, map(id, values)),
                       "string", "a string"),
    # The field of a trailer that holds no other: whether it is there.
    "flag": _Kind("()", lambda conditions, column: map(is_not, repeat(None), column),
                  lambda quoted, values: map({True: ""}.get, values)),
}


class _Trailer(NamedTuple):
    """An optional part of a declaration, after its shape.  It is taken where
    the tokens of `lead` match, unless `lead` ends in an identifier or
    keyword and the next token is `:`, which starts the next declaration;
    `rest` must then follow.  It holds one field, or none and is a flag."""

    lead: tuple[str, ...]
    rest: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return next((token for token in self.lead + self.rest if token in _KINDS), "flag")

    @property
    def refusable(self) -> bool:
        """Whether a `:` after the lead refuses the trailer."""
        return self.lead[-1] == "ident" or self.lead[-1][0] == "'"


class _Section(NamedTuple):
    keyword: str  # the section's name in a policy file
    field: str  # the PolicyModel field its entries lower into
    entry: type  # what a declaration is built as: its model entity, or AttributeDecl
    # The tokens every declaration starts with: a field (a key of `_KINDS`;
    # the entry's leading fields, in order), punctuation, or a quoted keyword.
    shape: tuple[str, ...]
    trailers: tuple[_Trailer, ...] = ()  # the entry's remaining fields, one each

    @property
    def kinds(self) -> list[str]:
        """The kind of each of the entry's fields."""
        return [token for token in self.shape if token in _KINDS] + [t.kind for t in self.trailers]


_NAMED = ("ident", ":", "string")  # `id: "label"`, which also starts attributes, tasks and purposes
_WHEN = _Trailer(("'when'", "condition"))

# Every section, in grammar order, which is also the order of PolicyModel's
# fields and of `serialize`'s output.
_SECTIONS = (
    _Section("roles", "roles", Role, _NAMED),
    _Section("role_hierarchy", "role_edges", RoleEdge, ("ident", "->", "ident")),
    _Section("groups", "groups", AttributeGroup, _NAMED),
    _Section("attributes", "attributes", AttributeDecl, _NAMED,
             (_Trailer(("'groups'", "("), ("ids", ")")), _Trailer(("'collected'", "="), ("yes_no",)))),
    _Section("aggregations", "aggregations", Aggregation,
             ("(", "ident", ",", "ident", ")", "->", "ident")),
    _Section("granularities", "granularities", GranularityFn, _NAMED),
    _Section("tasks", "tasks", Task, (*_NAMED, "'reads'", "ident"), (_Trailer(("'via'", "ident")),)),
    _Section("purposes", "purposes", Purpose, _NAMED,
             (_Trailer(("=",), ("[", "ids", "]")), _Trailer(("'universal'",)))),
    _Section("role_purpose", "rp_grants", RolePurposeGrant, ("ident", "'allowed'", "ident"),
             (_WHEN,)),
    _Section("purpose_task_conditions", "pt_conditions", PurposeTaskCondition,
             ("ident", "'task'", "ident", "'when'", "condition")),
    _Section("purpose_group", "pg_grants", PurposeGroupGrant,
             ("ident", "'allowed'", "'group'", "ident"), (_WHEN,)),
)


def _tokens(tokens: tuple[str, ...]) -> str:
    """The pattern of `tokens`, a space between two."""
    return " ".join(_KINDS[token].pattern if token in _KINDS else token[1:-1] + r"\b"
                    if token[0] == "'" else re.escape(token) for token in tokens)


@cache
def _declaration(shape: tuple[str, ...], trailers: tuple[_Trailer, ...]) -> Callable:
    """The scanner method of the pattern of one declaration of `shape` and
    `trailers`, after the gap before it: group 1 marks where the declaration
    starts, a group follows for each field, and the match ends where the
    declaration does.  Compiled on first use."""
    pattern = _GAP + "()" + _tokens(shape)
    for trailer in trailers:
        pattern += ("(?: " + _tokens(trailer.lead) + ("(?! :)" if trailer.refusable else "")
                    + (" " + _tokens(trailer.rest) if trailer.rest else "")
                    + (_KINDS["flag"].pattern if trailer.kind == "flag" else "") + ")?")
    return _compile(pattern).scanner


def _entries(section: _Section, run: list[Match[str]],
             conditions: dict[str, ConditionExpr]) -> Iterable:
    """The entries of a run of declarations of `section`, built column by
    column of their matches' groups, each field by its kind."""
    columns = list(zip(*map(Match.groups, run)))[1:]
    fields = [_KINDS[kind].column(conditions, column)
              for kind, column in zip(section.kinds, columns)]
    return map(_new, repeat(section.entry), zip(*fields))


_HEAD = _compile(rf"{_GAP}policy\b {_STRING}")
_SECTION_HEAD = _compile(rf"{_GAP}({_ID}) \{{")
_CLOSE = _compile(rf"{_GAP}\}}")
_END = _compile(rf"{_GAP}\Z")
_SECTION_BY_KEYWORD = {section.keyword: section for section in _SECTIONS}
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
    if len(decls.entries) != len(decls.spans):
        list(zip(decls.entries, decls.spans, strict=True))  # raises ValueError
    model, problems = _model(decls.name, decls.entries)
    if problems or model.validation_errors:
        # Each model entry's declaration, by field: an attribute's is its first.
        at: dict[str, list[int]] = {section.field: [] for section in _SECTIONS}
        attributes: dict[str, int] = {}
        for i, decl in enumerate(decls.entries):
            if type(decl) is not AttributeDecl or attributes.setdefault(decl.id, i) == i:
                at[_FIELD_BY_ENTRY[type(decl)]].append(i)
        problems += [(error.rule, at[error.where[0]][error.where[1]], error.message)
                     for error in model.validation_errors]
        spans = decls.spans
        problems.sort(key=lambda p: (p[0], spans[p[1]].line, spans[p[1]].col))
        raise LoweringError([LowerDiagnostic(message, spans[i]) for _, i, message in problems])
    return model


def _model(name: str, decls: Sequence[tuple]) -> tuple[PolicyModel, list[tuple[str, int, str]]]:
    """The model of declarations `decls`, not yet validated, and each attribute
    redeclared with a different label as (rule, declaration index, message).
    Attributes are built column by column; then only a repeated id's later
    declarations are folded into its first, in order, merging group sets and
    collection votes so a policy's own contradictions stay representable."""
    entries: dict[str, list] = {section.field: [] for section in _SECTIONS}
    for kind, run in groupby(decls, type):
        entries[_FIELD_BY_ENTRY[kind]] += run
    attributes, problems = entries["attributes"], []
    ids = list(map(itemgetter(0), attributes))
    derived = set(map(attrgetter("product"), entries["aggregations"]))
    entries["attributes"] = built = list(map(_new, repeat(Attribute), zip(
        ids, map(itemgetter(1), attributes), map(frozenset, map(itemgetter(2), attributes)),
        map(itemgetter(3), attributes), repeat(False), map(derived.__contains__, ids))))
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))  # each id's first position
    if len(first) < len(ids):
        for k in compress(count(), map(ne, map(first.__getitem__, ids), count())):
            existing, decl = built[first[ids[k]]], attributes[k]
            if existing.label != decl.label:
                message = (f"attribute {decl.id!r} redeclared with a different label "
                           f"({existing.label!r} vs {decl.label!r})")
                # Ordered among the duplicate-id errors, as a kind of one.
                problems.append(("duplicate-id", k, message))  # k-th of the attributes
                continue
            votes = {existing.collected, decl.collected} - {None}
            conflict = existing.collected_conflict or len(votes) > 1
            built[first[ids[k]]] = existing._replace(
                groups=existing.groups | frozenset(decl.groups),
                collected=None if conflict else next(iter(votes), None), collected_conflict=conflict)
        entries["attributes"] = list(map(built.__getitem__, sorted(first.values())))
    if problems:  # the k-th attribute declaration's index among all declarations
        at = list(compress(count(), map(is_, map(type, decls), repeat(AttributeDecl))))
        problems = [(rule, at[k], message) for rule, k, message in problems]
    return PolicyModel(name, **{field: tuple(e) for field, e in entries.items()}), problems


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
    if not re.fullmatch(_ID_LINES, joined) or joined.count("\n") != len(ids):
        bad = next(i for i in ids if not IDENTIFIER.fullmatch(i))
        raise ValueError(f"cannot write id {bad!r}: a policy id must match {IDENTIFIER.pattern}")
    quoted = {key: _quote(text) for key, text in
              condition_texts(model.rp_grants, model.pt_conditions, model.pg_grants).items()}
    lines: list[str] = [f"policy {_quote(model.name)}"]
    for section in _SECTIONS:
        entries = getattr(model, section.field)
        if not entries:
            continue
        if section.entry is AttributeDecl and any(a.collected_conflict for a in entries):
            # The one entry written as two declarations, so that it survives
            # a round trip: a collection conflict, `yes` and then `no`.
            entries = [row for a in entries for row in (
                (a._replace(collected=True), a._replace(groups=(), collected=False))
                if a.collected_conflict else (a,))]
        literals, trailers = _templates(section.shape, section.trailers)
        fields = [_KINDS[kind].write(quoted, map(itemgetter(i), entries))
                  for i, kind in enumerate(section.kinds)]
        for i, (before, after) in enumerate(trailers, len(fields) - len(trailers)):
            fields[i] = ["" if text is None else before + text + after for text in fields[i]]
        columns = [repeat(literals[0])]
        for texts, literal in zip(fields, literals[1:]):
            columns += (texts, repeat(literal))
        lines += ["", f"{section.keyword} {{", *map("".join, zip(*columns)), "}"]
    return "\n".join(lines) + "\n"


@cache
def _templates(shape: tuple[str, ...], trailers: tuple[_Trailer, ...]) -> tuple[tuple, tuple]:
    """The text of a declaration's row around its fields, indented, a trailer's
    text being a field and a string's quotes text; and the text of each trailer
    before and after its field.  A space stands between two tokens, but none
    after `(` or `[`, or before `)`, `]`, `,` or `:`."""
    def spell(tokens: tuple[str, ...]) -> str:
        text = ""
        for token in tokens:
            word = '"{}"' if token == "string" else "{}" if token in _KINDS else token.strip("'")
            text += word if not text or text[-1] in "([" or word in ")],:" else " " + word
        return text
    return (tuple(("  " + spell(shape) + "{}" * len(trailers)).split("{}")),
            tuple((" " + spell(t.lead + t.rest)).partition("{}")[::2] for t in trailers))
