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
from typing import NamedTuple, Optional, Union

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

# One token, comment or stray character per match, within a single line.
# Whitespace matches nothing, so finditer skips it.
_TOKEN_RE = re.compile(
    r"""
    (?P<string>"[^"\\\n]*(?:\\["\\][^"\\\n]*)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>->|[{}()\[\]:,=])
  | (?P<comment>\#.*)
  | (?P<bad>[^ \t\r])
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r'\\(["\\])')


class _Token(NamedTuple):
    kind: str  # ident, string, punct, eof
    text: str  # unescaped content for strings
    line: int
    col: int
    end_col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, self.line, self.end_col)


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    lines = text.split("\n")
    for lineno, line in enumerate(lines, 1):
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind == "comment":
                continue
            if kind == "bad":
                raise _lex_error(line, lineno, m.start())
            word = m.group()
            if kind == "string":
                word = word[1:-1]
                if "\\" in word:
                    word = _ESCAPE_RE.sub(r"\1", word)
            tokens.append(_Token(kind, word, lineno, m.start() + 1, m.end() + 1))
    col = len(lines[-1]) + 1
    tokens.append(_Token("eof", "", len(lines), col, col))
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


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect_punct(self, text: str) -> _Token:
        token = self.peek()
        if token.kind != "punct" or token.text != text:
            raise ParseError(f"found {_describe(token)}", token.span, expected=repr(text))
        return self.next()

    def expect_ident(self, what: str = "an identifier") -> _Token:
        token = self.peek()
        if token.kind != "ident":
            raise ParseError(f"found {_describe(token)}", token.span, expected=what)
        return self.next()

    def expect_keyword(self, word: str) -> _Token:
        token = self.peek()
        if token.kind != "ident" or token.text != word:
            raise ParseError(f"found {_describe(token)}", token.span, expected=repr(word))
        return self.next()

    def expect_string(self) -> _Token:
        token = self.peek()
        if token.kind != "string":
            raise ParseError(f"found {_describe(token)}", token.span, expected="a string")
        return self.next()

    def at_keyword(self, word: str, ahead: int = 0) -> bool:
        token = self.peek(ahead)
        return token.kind == "ident" and token.text == word

    def at_punct(self, text: str, ahead: int = 0) -> bool:
        token = self.peek(ahead)
        return token.kind == "punct" and token.text == text


def _describe(token: _Token) -> str:
    if token.kind == "eof":
        return "end of input"
    if token.kind == "string":
        return "a string"
    return repr(token.text)


def _span_between(start: _Token, end: _Token) -> Span:
    return Span(start.line, start.col, end.line, end.end_col)


def parse_policy(text: str) -> Declarations:
    """Parse policy text into declarations; raises ParseError on bad input."""
    parser = _Parser(_lex(text))
    parser.expect_keyword("policy")
    name = parser.expect_string().text
    entries: list[Decl] = []
    while True:
        token = parser.peek()
        if token.kind == "eof":
            break
        if token.kind != "ident" or token.text not in SECTION_NAMES:
            raise ParseError(
                f"found {_describe(token)}", token.span, expected="a section name"
            )
        section = parser.next().text
        parser.expect_punct("{")
        while not parser.at_punct("}"):
            entries.append(_SECTION_PARSERS[section](parser))
        parser.expect_punct("}")
    return Declarations(name, tuple(entries))


def load_policy(text: str) -> PolicyModel:
    """Parse and lower in one step."""
    return lower(parse_policy(text))


def _parse_named_decl(parser: _Parser, cls):
    ident = parser.expect_ident()
    parser.expect_punct(":")
    label = parser.expect_string()
    return cls(ident.text, label.text, _span_between(ident, label))


def _parse_role(parser: _Parser) -> RoleDecl:
    return _parse_named_decl(parser, RoleDecl)


def _parse_group(parser: _Parser) -> GroupDecl:
    return _parse_named_decl(parser, GroupDecl)


def _parse_granularity(parser: _Parser) -> GranularityDecl:
    return _parse_named_decl(parser, GranularityDecl)


def _parse_role_edge(parser: _Parser) -> RoleEdgeDecl:
    superior = parser.expect_ident()
    parser.expect_punct("->")
    inferior = parser.expect_ident()
    return RoleEdgeDecl(
        superior.text, inferior.text, _span_between(superior, inferior)
    )


def _parse_attribute(parser: _Parser) -> AttributeDecl:
    ident = parser.expect_ident()
    parser.expect_punct(":")
    label = parser.expect_string()
    end = label
    groups: tuple[str, ...] = ()
    collected: Optional[bool] = None
    # Both trailers are optional; two-token lookahead separates them from the
    # next declaration, whose id is always followed by ':'.
    if parser.at_keyword("groups") and parser.at_punct("(", 1):
        parser.next()
        parser.expect_punct("(")
        members = [parser.expect_ident().text]
        while parser.at_punct(","):
            parser.next()
            members.append(parser.expect_ident().text)
        end = parser.expect_punct(")")
        groups = tuple(members)
    if parser.at_keyword("collected") and parser.at_punct("=", 1):
        parser.next()
        parser.expect_punct("=")
        flag = parser.expect_ident("'yes' or 'no'")
        if flag.text not in ("yes", "no"):
            raise ParseError(
                f"found {_describe(flag)}", flag.span, expected="'yes' or 'no'"
            )
        collected = flag.text == "yes"
        end = flag
    return AttributeDecl(
        ident.text, label.text, groups, collected, _span_between(ident, end)
    )


def _parse_aggregation(parser: _Parser) -> AggregationDecl:
    start = parser.expect_punct("(")
    left = parser.expect_ident()
    parser.expect_punct(",")
    right = parser.expect_ident()
    parser.expect_punct(")")
    parser.expect_punct("->")
    product = parser.expect_ident()
    return AggregationDecl(
        left.text, right.text, product.text, _span_between(start, product)
    )


def _parse_task(parser: _Parser) -> TaskDecl:
    ident = parser.expect_ident()
    parser.expect_punct(":")
    label = parser.expect_string()
    parser.expect_keyword("reads")
    reads = parser.expect_ident()
    end = reads
    via: Optional[str] = None
    if parser.at_keyword("via") and parser.peek(1).kind == "ident" and not parser.at_punct(":", 2):
        parser.next()
        fn = parser.expect_ident()
        via = fn.text
        end = fn
    return TaskDecl(
        ident.text, label.text, reads.text, via, _span_between(ident, end)
    )


def _parse_purpose(parser: _Parser) -> PurposeDecl:
    ident = parser.expect_ident()
    parser.expect_punct(":")
    label = parser.expect_string()
    end = label
    tasks: tuple[str, ...] = ()
    universal = False
    if parser.at_punct("="):
        parser.next()
        parser.expect_punct("[")
        members = [parser.expect_ident().text]
        while parser.at_punct(","):
            parser.next()
            members.append(parser.expect_ident().text)
        end = parser.expect_punct("]")
        tasks = tuple(members)
    # 'universal' could also start the next declaration as an id; a following
    # ':' disambiguates.
    if parser.at_keyword("universal") and not parser.at_punct(":", 1):
        end = parser.next()
        universal = True
    return PurposeDecl(
        ident.text, label.text, tasks, universal, _span_between(ident, end)
    )


def _parse_condition_string(parser: _Parser) -> ConditionExpr:
    token = parser.expect_string()
    try:
        return parse_condition(token.text)
    except ConditionError as exc:
        raise ParseError(f"invalid condition: {exc}", token.span) from exc


def _parse_role_purpose(parser: _Parser) -> RolePurposeDecl:
    role = parser.expect_ident()
    parser.expect_keyword("allowed")
    purpose = parser.expect_ident()
    end = purpose
    condition: Optional[ConditionExpr] = None
    if parser.at_keyword("when") and parser.peek(1).kind == "string":
        parser.next()
        end = parser.peek()
        condition = _parse_condition_string(parser)
    return RolePurposeDecl(
        role.text, purpose.text, condition, _span_between(role, end)
    )


def _parse_purpose_task_condition(parser: _Parser) -> PurposeTaskConditionDecl:
    purpose = parser.expect_ident()
    parser.expect_keyword("task")
    task = parser.expect_ident()
    parser.expect_keyword("when")
    end = parser.peek()
    condition = _parse_condition_string(parser)
    return PurposeTaskConditionDecl(
        purpose.text, task.text, condition, _span_between(purpose, end)
    )


def _parse_purpose_group(parser: _Parser) -> PurposeGroupDecl:
    purpose = parser.expect_ident()
    parser.expect_keyword("allowed")
    parser.expect_keyword("group")
    group = parser.expect_ident()
    end = group
    condition: Optional[ConditionExpr] = None
    if parser.at_keyword("when") and parser.peek(1).kind == "string":
        parser.next()
        end = parser.peek()
        condition = _parse_condition_string(parser)
    return PurposeGroupDecl(
        purpose.text, group.text, condition, _span_between(purpose, end)
    )


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
