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
tokens every declaration starts with), its tail (what may follow them), and
the writer of an entry's canonical row(s).  The table is in grammar order, the
order of PolicyModel's fields.  The pattern of one declaration is made of the
shape and the tail, and compiled on first use.  `parse_policy` reads a text
with one pattern match per header and per declaration: the policy header,
then each section's header, its declarations and its `}`, then the end of
the text.  A section's run of declarations becomes entries column by column
of their matches' groups, and every span is computed from match offsets once
the text is read.  Each distinct condition text is parsed once per call.

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
is about, ordered by rule and then by source position.  A duplicated id is
reported at each declaration after the first; references to it resolve to the
first.  `serialize` writes a model back in canonical form (sections in table
order, two-space indent, LF) such that lower(parse(serialize(m))) == m.

`load_policy` builds no span: spans only place problems.  A text the patterns
miss, or whose model has a problem, goes through `lower(parse_policy(text))`,
so every ParseError and LoweringError is that path's.

An attribute may be declared more than once under the same label; the
declarations merge (group sets union).  Contradictory `collected` flags mark
the merged attribute as conflicted, which round-trips and is surfaced by the
collection-conflict lint rather than rejected here.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cache, partial
from itertools import repeat
from operator import is_not, sub
from re import Match
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from .conditions import (IDENTIFIER, ConditionError, ConditionExpr, collector_paused,
                         condition_texts, escape_string, parse_condition, unescape_string,
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


_ID_LINES = f"(?:{IDENTIFIER.pattern}\n)*"  # ids each followed by a line break


@collector_paused
def parse_policy(text: str) -> Declarations:
    """Parse policy text into declarations; raises ParseError on bad input."""
    matched = _match_policy(text)
    if matched is None:
        from .token_parser import parse_tokens  # the error path, imported on a miss
        return parse_tokens(text)
    name, entries, firsts, ends = matched
    # An offset's line is one more than the line breaks before it, and its
    # column its distance from the last of them; -1 stands before line 1.
    breaks = [-1, *map(Match.start, re.finditer("\n", text))]
    line_of, before = partial(bisect_left, breaks), [0, *breaks].__getitem__
    first_lines, end_lines = list(map(line_of, firsts)), list(map(line_of, ends))
    # `max` keeps the first of equal lines, so a span on one line holds one
    # int object for both.
    spans = map(_new, repeat(Span), zip(
        first_lines, map(sub, firsts, map(before, first_lines)),
        map(max, first_lines, end_lines), map(sub, ends, map(before, end_lines))))
    return Declarations(name, tuple(entries), tuple(spans))


def _match_policy(text: str) -> Optional[tuple[str, list[tuple], list[int], list[int]]]:
    """The name, the entries, and each declaration's first offset and the one
    after its last, by the declaration patterns; or None where they miss."""
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
        run: list[Match[str]] = []  # the section's declarations
        match = _declaration(section.shape, section.tail)
        while (m := match(text, pos)) is not None:
            run.append(m)
            pos = m.end()
        if run:
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
    return name, entries, firsts, ends


@collector_paused
def load_policy(text: str) -> PolicyModel:
    """Parse and lower in one step, as `lower(parse_policy(text))` does."""
    matched = _match_policy(text)
    if matched is not None:
        model, problems = _model(matched[0], matched[1])
        if not problems and not model.validation_errors:
            return model
    return lower(parse_policy(text))


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
_IDS = rf"({_ID}(?: , {_ID})*)"  # `id (, id)*`, captured


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


def _ids(ids: Optional[str]) -> tuple[str, ...]:
    """The ids of a captured id list, or none."""
    return () if ids is None else tuple(map(str.strip, ids.split(",")))


def _conditions(conditions: dict[str, ConditionExpr],
                bodies: tuple[Optional[str], ...]) -> Iterable:
    """The condition of each string body, or None for none; each distinct body
    is parsed once per `parse_policy` call."""
    for body in set(bodies).difference(conditions, (None,)):
        conditions[body] = parse_condition(_text(body))
    return map(conditions.get, bodies)


class _Tail(NamedTuple):
    """What may follow a shape: `pattern` matches it, with the lookahead of
    its reader in `token_parser._READERS`, and `fields` makes the entry's
    remaining fields, a column each, of the columns of the pattern's groups
    and the call's condition cache."""

    pattern: str
    fields: Callable[..., tuple[Iterable, ...]]


_ATTRIBUTE_TAIL = _Tail(rf"(?: groups\b \( {_IDS} \))?(?: collected\b = (yes|no)\b)?",
                        lambda conditions, groups, flags: (
                            map(_ids, groups), map({"yes": True, "no": False}.get, flags)))
_VIA_TAIL = _Tail(rf"(?: via\b ({_ID})(?! :))?", lambda conditions, vias: (vias,))
_PURPOSE_TAIL = _Tail(rf"(?: = \[ {_IDS} \])?(?: universal\b(?! :)())?",
                      lambda conditions, tasks, universals: (
                          map(_ids, tasks), map(is_not, repeat(None), universals)))
_CONDITION_TAIL = _Tail(" " + _STRING,
                        lambda conditions, bodies: (_conditions(conditions, bodies),))
_WHEN_TAIL = _Tail(rf"(?: when\b {_STRING})?",
                   lambda conditions, bodies: (_conditions(conditions, bodies),))


def _quote(text: str) -> str:
    if "\n" in text:
        raise ValueError(f"cannot write {text!r}: a policy string cannot hold a line break")
    return f'"{escape_string(text)}"'


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
    tail: Optional[_Tail]  # what may follow the shape: the entry's remaining fields
    write: Callable[[Any], tuple[str, ...]]  # an entry's canonical row(s) but its `when`


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
    _Section("attributes", "attributes", AttributeDecl, _NAMED, _ATTRIBUTE_TAIL, _write_attribute),
    _Section("aggregations", "aggregations", Aggregation,
             ("(", "ident", ",", "ident", ")", "->", "ident"), None,
             lambda a: (f"({a.left}, {a.right}) -> {a.product}",)),
    _Section("granularities", "granularities", GranularityFn, _NAMED, None,
             lambda g: (f"{g.id}: {_quote(g.description)}",)),
    _Section("tasks", "tasks", Task, (*_NAMED, "'reads'", "ident"), _VIA_TAIL, _write_task),
    _Section("purposes", "purposes", Purpose, _NAMED, _PURPOSE_TAIL, _write_purpose),
    _Section("role_purpose", "rp_grants", RolePurposeGrant, ("ident", "'allowed'", "ident"),
             _WHEN_TAIL, lambda g: (f"{g.role} allowed {g.purpose}",)),
    _Section("purpose_task_conditions", "pt_conditions", PurposeTaskCondition,
             ("ident", "'task'", "ident", "'when'"), _CONDITION_TAIL,
             lambda c: (f"{c.purpose} task {c.task}",)),
    _Section("purpose_group", "pg_grants", PurposeGroupGrant,
             ("ident", "'allowed'", "'group'", "ident"), _WHEN_TAIL,
             lambda g: (f"{g.purpose} allowed group {g.group}",)),
)


@cache
def _declaration(shape: tuple[str, ...],
                 tail: Optional[_Tail]) -> Callable[[str, int], Optional[Match[str]]]:
    """The match method of the pattern of one declaration of `shape` and
    `tail`, after the gap before it: group 1 marks where the declaration
    starts, and the match ends where it does.  Compiled on first use."""
    tokens = [f"({_ID})" if token == "ident" else _STRING if token == "string"
              else token[1:-1] + r"\b" if token[0] == "'" else re.escape(token) for token in shape]
    return _compile(_GAP + "()" + " ".join(tokens) + (tail.pattern if tail else "")).match


def _entries(section: _Section, run: list[Match[str]],
             conditions: dict[str, ConditionExpr]) -> Iterable:
    """The entries of a run of declarations of `section`, built column by
    column of their matches' groups: the shape's fields (strings unescaped),
    then the tail's."""
    kinds = [token for token in section.shape if token in ("ident", "string")]
    columns = list(zip(*map(Match.groups, run)))
    fields = [_texts(column) if kind == "string" else column
              for kind, column in zip(kinds, columns[1:])]
    if section.tail is not None:
        fields += section.tail.fields(conditions, *columns[len(kinds) + 1:])
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
    redeclared with a different label as (rule, declaration index, message)."""
    entries: dict[str, list] = {section.field: [] for section in _SECTIONS}
    attributes: list[Attribute] = entries["attributes"]
    attr_index: dict[str, int] = {}
    problems: list[tuple[str, int, str]] = []

    for i, decl in enumerate(decls):
        if type(decl) is not AttributeDecl:
            entries[_FIELD_BY_ENTRY[type(decl)]].append(decl)
        elif decl.id not in attr_index:
            attr_index[decl.id] = len(attributes)
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
                problems.append(("duplicate-id", i, message))
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
    texts = condition_texts(model.rp_grants, model.pt_conditions, model.pg_grants)
    whens = {key: f" when {_quote(text)}" for key, text in texts.items()}
    lines: list[str] = [f"policy {_quote(model.name)}"]
    for section in _SECTIONS:
        entries = getattr(model, section.field)
        rows = [row for entry in entries for row in section.write(entry)]
        if "condition" in section.entry._fields:  # a grant's one row, then its `when`
            rows = [row + whens.get(id(e.condition), "") for row, e in zip(rows, entries)]
        if rows:
            lines += ["", f"{section.keyword} {{", *[f"  {row}" for row in rows], "}"]
    return "\n".join(lines) + "\n"
