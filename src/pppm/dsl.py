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

`#` starts a comment running to end of line.  Ids match
[A-Za-z_][A-Za-z0-9_]*; strings are double-quoted with \\" and \\\\ escapes.

The lexer turns each line into plain tuples (kind, text, line, col, end_col):
`kind` is "ident", "string", "eof" or the punctuation text itself ("{",
"->", ...), and a string's `text` is its unescaped content.  The list ends
with end-of-input sentinels, so lookahead is a plain index.  A Span is built
only for a declaration or an error, and each distinct condition text is
parsed once per `parse_policy` call.

Parsing produces Declarations (flat entries with source spans).  `lower`
builds a PolicyModel from them, validates it once with `model.validate`, and
reports every problem together, each at the declaration of the entry it is
about, ordered by rule and then by source position.  A duplicated id is
reported at each declaration after the first; references to it resolve to the
first.  `serialize` writes a model back in canonical form (fixed section
order, two-space indent, LF) such that lower(parse(serialize(m))) == m.

An attribute may be declared more than once under the same label; the
declarations merge (group sets union).  Contradictory `collected` flags mark
the merged attribute as conflicted, which round-trips and is surfaced by the
collection-conflict lint rather than rejected here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Optional, Union

from .conditions import (
    ConditionError,
    ConditionExpr,
    parse_condition,
    render_condition,
)
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


@dataclass(frozen=True)
class Span:
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


@dataclass(frozen=True)
class LowerDiagnostic:
    message: str
    span: Span


class LoweringError(ValueError):
    def __init__(self, diagnostics: list[LowerDiagnostic]) -> None:
        super().__init__(
            "; ".join(f"{d.span}: {d.message}" for d in diagnostics) or "lowering failed"
        )
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class RoleDecl:
    id: str
    label: str
    span: Span


@dataclass(frozen=True)
class RoleEdgeDecl:
    superior: str
    inferior: str
    span: Span


@dataclass(frozen=True)
class GroupDecl:
    id: str
    label: str
    span: Span


@dataclass(frozen=True)
class AttributeDecl:
    id: str
    label: str
    groups: tuple[str, ...]
    collected: Optional[bool]
    span: Span


@dataclass(frozen=True)
class AggregationDecl:
    left: str
    right: str
    product: str
    span: Span


@dataclass(frozen=True)
class GranularityDecl:
    id: str
    description: str
    span: Span


@dataclass(frozen=True)
class TaskDecl:
    id: str
    label: str
    reads: str
    via: Optional[str]
    span: Span


@dataclass(frozen=True)
class PurposeDecl:
    id: str
    label: str
    tasks: tuple[str, ...]
    universal: bool
    span: Span


@dataclass(frozen=True)
class RolePurposeDecl:
    role: str
    purpose: str
    condition: Optional[ConditionExpr]
    span: Span


@dataclass(frozen=True)
class PurposeTaskConditionDecl:
    purpose: str
    task: str
    condition: ConditionExpr
    span: Span


@dataclass(frozen=True)
class PurposeGroupDecl:
    purpose: str
    group: str
    condition: Optional[ConditionExpr]
    span: Span


Decl = Union[
    RoleDecl,
    RoleEdgeDecl,
    GroupDecl,
    AttributeDecl,
    AggregationDecl,
    GranularityDecl,
    TaskDecl,
    PurposeDecl,
    RolePurposeDecl,
    PurposeTaskConditionDecl,
    PurposeGroupDecl,
]


@dataclass(frozen=True)
class Declarations:
    """Parsed policy file: name plus section entries in source order."""

    name: str
    entries: tuple[Decl, ...]


SECTION_NAMES = (
    "roles",
    "role_hierarchy",
    "groups",
    "attributes",
    "aggregations",
    "granularities",
    "tasks",
    "purposes",
    "role_purpose",
    "purpose_task_conditions",
    "purpose_group",
)

# The whitespace before a token, then one token, comment or stray character.
# Each match starts where the last one ended (only trailing whitespace is
# left unmatched), so a token's column is the sum of the lengths before it.
_TOKEN_RE = re.compile(
    r"""
    ([ \t\r]*)
    (?:
      ([A-Za-z_][A-Za-z0-9_]*)                  # ident
    | (->|[{}()\[\]:,=])                        # punctuation
    | ("[^"\\\n]*(?:\\["\\][^"\\\n]*)*")        # string
    | (\#.*)                                    # comment
    | ([^ \t\r])                                # stray character
    )
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r'\\(["\\])')
# Lookahead reaches two tokens past the current one, so the token list ends
# with three end-of-input sentinels and `peek` never runs off it.
_EOF_PAD = 3


def _lex(text: str) -> list[tuple]:
    tokens: list[tuple] = []
    append = tokens.append
    lines = text.split("\n")
    for lineno, line in enumerate(lines, 1):
        col = 1
        for space, ident, punct, string, comment, bad in _TOKEN_RE.findall(line):
            col += len(space)
            if ident:
                end = col + len(ident)
                append(("ident", ident, lineno, col, end))
            elif punct:
                end = col + len(punct)
                append((punct, punct, lineno, col, end))
            elif string:
                end = col + len(string)
                word = string[1:-1]
                if "\\" in word:
                    word = _ESCAPE_RE.sub(r"\1", word)
                append(("string", word, lineno, col, end))
            elif bad:
                raise _lex_error(line, lineno, col - 1)
            else:
                break  # a comment runs to the end of the line
            col = end
    col = len(lines[-1]) + 1
    tokens.extend([("eof", "", len(lines), col, col)] * _EOF_PAD)
    return tokens


def _lex_error(line: str, lineno: int, start: int) -> ParseError:
    """The error for the character at `start`, which begins no token."""
    if line[start] != '"':
        return ParseError(
            f"unexpected character {line[start]!r}", Span(lineno, start + 1, lineno, start + 2)
        )
    # The string is not closed on this line, or it holds a bad escape.
    i = start + 1
    while i < len(line):
        if line[i] == "\\" and line[i + 1:i + 2] not in ('"', "\\"):
            return ParseError("unsupported escape in string", Span(lineno, i + 1, lineno, i + 3))
        i += 2 if line[i] == "\\" else 1
    return ParseError("unterminated string", Span(lineno, start + 1, lineno, i + 1))


_EXPECTED = {"ident": "an identifier", "string": "a string"}


class _Parser:
    def __init__(self, tokens: list[tuple]) -> None:
        self.tokens = tokens
        self.pos = 0
        # Condition text -> ConditionExpr: each distinct text is parsed once.
        self.conditions: dict[str, ConditionExpr] = {}

    def peek(self, ahead: int = 0) -> tuple:
        return self.tokens[self.pos + ahead]

    def next(self) -> tuple:
        """The current token, which the caller has checked is not eof."""
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str, expected: Optional[str] = None) -> tuple:
        """The current token if it is of `kind` (a punctuation text, "ident"
        or "string"), else a ParseError naming `expected` or else `kind`."""
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise _unexpected(token, expected or _EXPECTED.get(kind, repr(kind)))
        self.pos += 1
        return token

    def expect_keyword(self, word: str) -> tuple:
        token = self.tokens[self.pos]
        if token[1] != word or token[0] != "ident":
            raise _unexpected(token, repr(word))
        self.pos += 1
        return token

    def at_keyword(self, word: str) -> bool:
        token = self.tokens[self.pos]
        return token[1] == word and token[0] == "ident"

    def at_punct(self, text: str, ahead: int = 0) -> bool:
        return self.tokens[self.pos + ahead][0] == text


def _span(token: tuple) -> Span:
    return Span(token[2], token[3], token[2], token[4])


def _span_between(start: tuple, end: tuple) -> Span:
    return Span(start[2], start[3], end[2], end[4])


def _unexpected(token: tuple, expected: str) -> ParseError:
    kind = token[0]
    if kind == "eof":
        found = "end of input"
    elif kind == "string":
        found = "a string"
    else:
        found = repr(token[1])
    return ParseError(f"found {found}", _span(token), expected=expected)


def parse_policy(text: str) -> Declarations:
    """Parse policy text into declarations; raises ParseError on bad input."""
    parser = _Parser(_lex(text))
    parser.expect_keyword("policy")
    name = parser.expect("string")[1]
    entries: list[Decl] = []
    while True:
        token = parser.peek()
        if token[0] == "eof":
            break
        if token[1] not in SECTION_NAMES or token[0] != "ident":
            raise _unexpected(token, "a section name")
        parse_entry = _SECTION_PARSERS[parser.next()[1]]
        parser.expect("{")
        while not parser.at_punct("}"):
            entries.append(parse_entry(parser))
        parser.expect("}")
    return Declarations(name, tuple(entries))


def load_policy(text: str) -> PolicyModel:
    """Parse and lower in one step."""
    return lower(parse_policy(text))


def _parse_head(parser: _Parser) -> tuple[tuple, tuple]:
    """The `id: "label"` that starts most declarations; its two tokens."""
    ident = parser.expect("ident")
    parser.expect(":")
    return ident, parser.expect("string")


def _parse_named_decl(parser: _Parser, cls):
    ident, label = _parse_head(parser)
    return cls(ident[1], label[1], _span_between(ident, label))


def _parse_role(parser: _Parser) -> RoleDecl:
    return _parse_named_decl(parser, RoleDecl)


def _parse_group(parser: _Parser) -> GroupDecl:
    return _parse_named_decl(parser, GroupDecl)


def _parse_granularity(parser: _Parser) -> GranularityDecl:
    return _parse_named_decl(parser, GranularityDecl)


def _parse_role_edge(parser: _Parser) -> RoleEdgeDecl:
    superior = parser.expect("ident")
    parser.expect("->")
    inferior = parser.expect("ident")
    return RoleEdgeDecl(superior[1], inferior[1], _span_between(superior, inferior))


def _parse_id_list(parser: _Parser, close: str) -> tuple[tuple[str, ...], tuple]:
    """`id (, id)*` then `close`; the ids and the closing token."""
    members = [parser.expect("ident")[1]]
    while parser.at_punct(","):
        parser.next()
        members.append(parser.expect("ident")[1])
    return tuple(members), parser.expect(close)


def _parse_attribute(parser: _Parser) -> AttributeDecl:
    ident, end = _parse_head(parser)
    label = end[1]
    groups: tuple[str, ...] = ()
    collected: Optional[bool] = None
    # Both trailers are optional; two-token lookahead separates them from the
    # next declaration, whose id is always followed by ':'.
    if parser.at_keyword("groups") and parser.at_punct("(", 1):
        parser.next()
        parser.next()
        groups, end = _parse_id_list(parser, ")")
    if parser.at_keyword("collected") and parser.at_punct("=", 1):
        parser.next()
        parser.next()
        end = parser.expect("ident", "'yes' or 'no'")
        if end[1] not in ("yes", "no"):
            raise _unexpected(end, "'yes' or 'no'")
        collected = end[1] == "yes"
    return AttributeDecl(ident[1], label, groups, collected, _span_between(ident, end))


def _parse_aggregation(parser: _Parser) -> AggregationDecl:
    start = parser.expect("(")
    left = parser.expect("ident")
    parser.expect(",")
    right = parser.expect("ident")
    parser.expect(")")
    parser.expect("->")
    product = parser.expect("ident")
    return AggregationDecl(left[1], right[1], product[1], _span_between(start, product))


def _parse_task(parser: _Parser) -> TaskDecl:
    ident, label = _parse_head(parser)
    parser.expect_keyword("reads")
    end = parser.expect("ident")
    reads = end[1]
    via: Optional[str] = None
    if parser.at_keyword("via") and parser.peek(1)[0] == "ident" and not parser.at_punct(":", 2):
        parser.next()
        end = parser.next()
        via = end[1]
    return TaskDecl(ident[1], label[1], reads, via, _span_between(ident, end))


def _parse_purpose(parser: _Parser) -> PurposeDecl:
    ident, end = _parse_head(parser)
    label = end[1]
    tasks: tuple[str, ...] = ()
    universal = False
    if parser.at_punct("="):
        parser.next()
        parser.expect("[")
        tasks, end = _parse_id_list(parser, "]")
    # 'universal' could also start the next declaration as an id; a following
    # ':' disambiguates.
    if parser.at_keyword("universal") and not parser.at_punct(":", 1):
        end = parser.next()
        universal = True
    return PurposeDecl(ident[1], label, tasks, universal, _span_between(ident, end))


def _parse_condition_string(parser: _Parser) -> tuple[ConditionExpr, tuple]:
    """A condition string, parsed once per distinct text; and its token."""
    token = parser.expect("string")
    condition = parser.conditions.get(token[1])
    if condition is None:
        try:
            condition = parser.conditions[token[1]] = parse_condition(token[1])
        except ConditionError as exc:
            raise ParseError(f"invalid condition: {exc}", _span(token)) from exc
    return condition, token


def _parse_optional_condition(parser: _Parser, end: tuple):
    """The condition of a following `when "..."`, or None; and the last
    token of the declaration, which is `end` when there is no condition."""
    if parser.at_keyword("when") and parser.peek(1)[0] == "string":
        parser.next()
        return _parse_condition_string(parser)
    return None, end


def _parse_role_purpose(parser: _Parser) -> RolePurposeDecl:
    role = parser.expect("ident")
    parser.expect_keyword("allowed")
    purpose = parser.expect("ident")
    condition, end = _parse_optional_condition(parser, purpose)
    return RolePurposeDecl(role[1], purpose[1], condition, _span_between(role, end))


def _parse_purpose_task_condition(parser: _Parser) -> PurposeTaskConditionDecl:
    purpose = parser.expect("ident")
    parser.expect_keyword("task")
    task = parser.expect("ident")
    parser.expect_keyword("when")
    condition, end = _parse_condition_string(parser)
    return PurposeTaskConditionDecl(purpose[1], task[1], condition, _span_between(purpose, end))


def _parse_purpose_group(parser: _Parser) -> PurposeGroupDecl:
    purpose = parser.expect("ident")
    parser.expect_keyword("allowed")
    parser.expect_keyword("group")
    group = parser.expect("ident")
    condition, end = _parse_optional_condition(parser, group)
    return PurposeGroupDecl(purpose[1], group[1], condition, _span_between(purpose, end))


_SECTION_PARSERS = {
    "roles": _parse_role,
    "role_hierarchy": _parse_role_edge,
    "groups": _parse_group,
    "attributes": _parse_attribute,
    "aggregations": _parse_aggregation,
    "granularities": _parse_granularity,
    "tasks": _parse_task,
    "purposes": _parse_purpose,
    "role_purpose": _parse_role_purpose,
    "purpose_task_conditions": _parse_purpose_task_condition,
    "purpose_group": _parse_purpose_group,
}


# The PolicyModel field each kind of declaration lowers into, and the entry
# it becomes.  Attributes merge by id, so `lower` builds those itself.
_ENTRIES = {
    RoleDecl: ("roles", lambda d: Role(d.id, d.label)),
    RoleEdgeDecl: ("role_edges", lambda d: RoleEdge(d.superior, d.inferior)),
    GroupDecl: ("groups", lambda d: AttributeGroup(d.id, d.label)),
    AggregationDecl: ("aggregations", lambda d: Aggregation(d.left, d.right, d.product)),
    GranularityDecl: ("granularities", lambda d: GranularityFn(d.id, d.description)),
    TaskDecl: ("tasks", lambda d: Task(d.id, d.label, d.reads, d.via)),
    PurposeDecl: ("purposes", lambda d: Purpose(d.id, d.label, d.tasks, d.universal)),
    RolePurposeDecl: ("rp_grants", lambda d: RolePurposeGrant(d.role, d.purpose, d.condition)),
    PurposeTaskConditionDecl: (
        "pt_conditions", lambda d: PurposeTaskCondition(d.purpose, d.task, d.condition)
    ),
    PurposeGroupDecl: ("pg_grants", lambda d: PurposeGroupGrant(d.purpose, d.group, d.condition)),
}


def lower(decls: Declarations) -> PolicyModel:
    """Resolve declarations into a validated PolicyModel.

    Every declaration becomes a model entry, a duplicated id's included, and
    the model is validated once.  Each ValidationError is reported at the
    declaration its `where` names; the one check made here is an attribute
    redeclared with a different label, which a model cannot represent.  All
    problems are raised together as LoweringError, ordered by rule and then
    by source position.
    """
    entries: dict[str, list] = {name: [] for name, _ in _ENTRIES.values()}
    spans: dict[str, list[Span]] = {name: [] for name in entries}
    attributes: list[Attribute] = []
    spans["attributes"] = []
    attr_index: dict[str, int] = {}
    problems: list[tuple[str, Span, str]] = []

    for decl in decls.entries:
        if not isinstance(decl, AttributeDecl):
            name, entry = _ENTRIES[type(decl)]
            entries[name].append(entry(decl))
            spans[name].append(decl.span)
        elif decl.id not in attr_index:
            attr_index[decl.id] = len(attributes)
            spans["attributes"].append(decl.span)
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
                problems.append(("duplicate-id", decl.span, message))
                continue
            collected = existing.collected
            conflict = existing.collected_conflict
            if decl.collected is not None:
                if conflict or (collected is not None and collected != decl.collected):
                    collected = None
                    conflict = True
                elif collected is None:
                    collected = decl.collected
            attributes[attr_index[decl.id]] = replace(
                existing,
                groups=existing.groups | frozenset(decl.groups),
                collected=collected,
                collected_conflict=conflict,
            )

    derived = {a.product for a in entries["aggregations"]}
    entries["attributes"] = [
        replace(attr, derived=True) if attr.id in derived else attr for attr in attributes
    ]
    model = PolicyModel(decls.name, **{name: tuple(e) for name, e in entries.items()})

    for error in model.validation_errors:
        name, index = error.where
        problems.append((error.rule, spans[name][index], error.message))
    if problems:
        problems.sort(key=lambda p: (p[0], p[1].line, p[1].col))
        raise LoweringError([LowerDiagnostic(message, span) for _, span, message in problems])
    return model


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def serialize(model: PolicyModel) -> str:
    """Canonical text form of a valid model.

    Sections appear in grammar order, entries in model (declaration) order,
    group lists sorted, two-space indent, LF endings.  A collection conflict
    is written as two declarations so it survives a round trip.
    """
    lines: list[str] = [f"policy {_quote(model.name)}"]

    def section(name: str, rows: list[str]) -> None:
        if not rows:
            return
        lines.append("")
        lines.append(f"{name} {{")
        lines.extend(f"  {row}" for row in rows)
        lines.append("}")

    section("roles", [f"{r.id}: {_quote(r.label)}" for r in model.roles])
    section(
        "role_hierarchy",
        [f"{e.superior} -> {e.inferior}" for e in model.role_edges],
    )
    section("groups", [f"{g.id}: {_quote(g.label)}" for g in model.groups])

    attr_rows: list[str] = []
    for attr in model.attributes:
        row = f"{attr.id}: {_quote(attr.label)}"
        if attr.groups:
            row += f" groups ({', '.join(sorted(attr.groups))})"
        if attr.collected_conflict:
            attr_rows.append(row + " collected = yes")
            attr_rows.append(f"{attr.id}: {_quote(attr.label)} collected = no")
            continue
        if attr.collected is not None:
            row += f" collected = {'yes' if attr.collected else 'no'}"
        attr_rows.append(row)
    section("attributes", attr_rows)

    section(
        "aggregations",
        [f"({a.left}, {a.right}) -> {a.product}" for a in model.aggregations],
    )
    section(
        "granularities",
        [f"{g.id}: {_quote(g.description)}" for g in model.granularities],
    )

    task_rows: list[str] = []
    for task in model.tasks:
        row = f"{task.id}: {_quote(task.label)} reads {task.reads}"
        if task.via is not None:
            row += f" via {task.via}"
        task_rows.append(row)
    section("tasks", task_rows)

    purpose_rows: list[str] = []
    for purpose in model.purposes:
        row = f"{purpose.id}: {_quote(purpose.label)}"
        if purpose.tasks:
            row += f" = [{', '.join(purpose.tasks)}]"
        if purpose.universal:
            row += " universal"
        purpose_rows.append(row)
    section("purposes", purpose_rows)

    rp_rows: list[str] = []
    for grant in model.rp_grants:
        row = f"{grant.role} allowed {grant.purpose}"
        if grant.condition is not None:
            row += f" when {_quote(render_condition(grant.condition))}"
        rp_rows.append(row)
    section("role_purpose", rp_rows)

    section(
        "purpose_task_conditions",
        [
            f"{c.purpose} task {c.task} when {_quote(render_condition(c.condition))}"
            for c in model.pt_conditions
        ],
    )

    pg_rows: list[str] = []
    for grant in model.pg_grants:
        row = f"{grant.purpose} allowed group {grant.group}"
        if grant.condition is not None:
            row += f" when {_quote(render_condition(grant.condition))}"
        pg_rows.append(row)
    section("purpose_group", pg_rows)

    return "\n".join(lines) + "\n"
