"""Condition predicates attached to permission grants.

Grammar:

    cond   := chain ("and" chain)*
    chain  := operand (relop operand)+
    relop  := "<" | "<=" | ">" | ">=" | "==" | "!="

Operands are variable names, numbers, times of day (HH:MM, 24h), quoted
strings, or the boolean literals ``true``/``false``.  A number is ASCII
digits with an optional leading minus and fractional part; one too large for
a float, or with more digits than int() converts, is a syntax error.
`parse_literal` reads one literal and `parse_variable` one variable name,
for bindings supplied from outside condition text.  ``now`` is an ordinary
variable reserved for the caller-supplied current time; the library never
reads a clock.

Evaluation is three-valued.  A comparison involving an unbound variable is
Unknown; chains and conjunctions combine by Kleene logic, so a chain with a
definitively false link is False even if another link is Unknown.  A type
clash between two bound operands is an authoring bug and raises
ConditionTypeError instead of returning Unknown.  So does a compared number
that is not finite: nan would make both `x > c` and `x <= c` false.
"""

from __future__ import annotations

import enum
import functools
import gc
import math
import operator
import re
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence, TypeVar, Union


class ConditionError(ValueError):
    """Base class for condition parsing and evaluation failures."""


class ConditionSyntaxError(ConditionError):
    """Malformed condition text; `offset` is the character index of the fault."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ConditionTypeError(ConditionError):
    """Operands of incompatible types were compared."""


class TriBool(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


def value_type(cls: type, compared: Optional[int] = None) -> type:
    """Give the NamedTuple `cls` a value type's equality: an instance equals
    only an instance of its own class with equal fields, never a plain tuple
    or another NamedTuple.  With `compared`, only the first `compared` fields
    take part in equality and the hash.  The methods are assigned after the
    class exists, which keeps tuple's hash; a class-body `__eq__` unsets it.

    A NamedTuple's constructor is a generated Python function, so calling it
    costs a frame.  Code that builds many values builds them as
    `tuple.__new__(cls, fields)` instead (each module binds it as `_new`),
    which makes the same object without that frame.  The one rule: `fields`
    holds exactly `len(cls._fields)` items, because the constructor's arity
    check and defaults are skipped.
    """
    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self[:compared] == other[:compared]  # type: ignore

    cls.__eq__ = __eq__  # type: ignore[assignment]
    cls.__ne__ = lambda self, other: not __eq__(self, other)  # type: ignore[assignment]
    if compared is not None:
        cls.__hash__ = lambda self: hash(self[:compared])  # type: ignore[assignment]
    return cls


def collector_paused(func: _F) -> _F:
    """Run `func` with the cyclic garbage collector disabled, unless it is
    already.  For builders that allocate many tracked objects (NamedTuples
    stay tracked for life) and create no reference cycles, so collecting
    during the call frees nothing.  The pause is process-wide, and a
    `gc.disable()` made by another thread during the call is undone when it
    returns.
    """
    @functools.wraps(func)
    def paused(*args: Any, **kwargs: Any) -> Any:
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()
    return paused  # type: ignore[return-value]


@value_type
class TimeOfDay(NamedTuple):
    """Minutes past midnight; compares chronologically."""

    minutes: int

    def __str__(self) -> str:
        return f"{self.minutes // 60:02d}:{self.minutes % 60:02d}"


@value_type
class Var(NamedTuple):
    name: str


# A literal value as it appears in conditions or evaluation contexts.
Value = Union[int, float, str, bool, TimeOfDay]
Operand = Union[Var, int, float, str, bool, TimeOfDay]

# Bindings supplied by the caller when evaluating.
EvalContext = Mapping[str, Value]
_F = TypeVar("_F", bound=Callable[..., Any])

RELOPS = ("<", "<=", ">", ">=", "==", "!=")
ORDER_OPS = frozenset(("<", "<=", ">", ">="))


@value_type
class Chain(NamedTuple):
    """operand relop operand [relop operand ...] -- pairwise conjunction."""

    operands: tuple[Operand, ...]
    ops: tuple[str, ...]


@value_type
class ConditionExpr(NamedTuple):
    """Conjunction of comparison chains."""

    chains: tuple[Chain, ...]


# The lexical rules that condition text shares with policy files: an identifier,
# and a quoted string's body up to its first escape other than \" and \\.
IDENTIFIER = re.compile("[A-Za-z_][A-Za-z0-9_]*")
STRING_BODY = re.compile(r'[^"\\]*(?:\\["\\][^"\\]*)*')

# One token per match; `_lone_token` reads a lone literal or variable with
# the same pattern.  Digits are ASCII only: int() also takes other scripts' digits.
# A string takes any escape here, so `_token` can report a bad one at its backslash.
_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<time>[0-9]{{1,2}}:[0-9]{{2}})
  | (?P<number>-?[0-9]+(?:\.[0-9]+)?)
  | (?P<ident>{IDENTIFIER.pattern})
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<op><=|>=|==|!=|<|>)
    """,
    re.VERBOSE,
)


# The type class of each value type, `bool` before its base `int`.  A value of
# exactly one of these types is looked up; any other, a subclass included, is
# walked with isinstance by `_type_class`.
_TYPE_CLASSES = {bool: "bool", int: "number", float: "number", TimeOfDay: "time", str: "string"}


def _type_class(value: Operand) -> str | None:
    """Static type of an operand; None when not statically known."""
    if isinstance(value, Var):
        return "time" if value.name == "now" else None
    for cls, type_class in _TYPE_CLASSES.items():
        if isinstance(value, cls):
            return type_class
    raise ConditionTypeError(f"unsupported value type {type(value).__name__}")


def _lex(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ConditionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


def _token(kind: str, raw: str, pos: int) -> tuple[str, object, int]:
    if kind == "time":
        hh, mm = raw.split(":")
        if int(hh) > 23 or int(mm) > 59:
            raise ConditionSyntaxError(f"invalid time of day {raw!r}", pos)
        return ("lit", TimeOfDay(int(hh) * 60 + int(mm)), pos)
    if kind == "number":
        try:
            value = float(raw) if "." in raw else int(raw)
        except ValueError:  # more digits than int() converts
            value = math.inf
        if value in (math.inf, -math.inf):
            raise ConditionSyntaxError("number out of range", pos)
        return ("lit", value, pos)
    if kind == "ident":
        word = raw.lower()
        if word == "and":
            return ("and", word, pos)
        if word in ("true", "false"):
            return ("lit", word == "true", pos)
        # Variable names are case-insensitive; canonical form is lower.
        return ("var", word, pos)
    if kind == "string":
        end = STRING_BODY.match(raw, 1).end()  # type: ignore[union-attr]
        if end < len(raw) - 1:
            raise ConditionSyntaxError(f"unsupported escape \\{raw[end + 1]}", pos + end)
        return ("lit", unescape_string(raw[1:-1]), pos)
    return ("op", raw, pos)


def _lone_token(text: str, kind: str, expected: str) -> Any:
    """The value of `text` if it is exactly one token of `kind`, else a
    ConditionSyntaxError naming `expected`."""
    m = _TOKEN_RE.fullmatch(text)
    token = _token(m.lastgroup, text, 0) if m else None
    if token is None or token[0] != kind:
        raise ConditionSyntaxError(f"expected {expected}, found {text!r}", 0)
    return token[1]


def parse_literal(text: str) -> Value:
    """The value of `text`, exactly one literal of the condition grammar (an
    integer, a decimal, HH:MM, true/false or a quoted string); raises
    ConditionSyntaxError otherwise."""
    return _lone_token(text, "lit", "a literal")


def parse_variable(text: str) -> str:
    """The lower-cased name of the condition variable `text`, one identifier
    other than `and`, `true` or `false`; raises ConditionSyntaxError otherwise."""
    return _lone_token(text, "var", "a condition variable")


def parse_condition(text: str) -> ConditionExpr:
    """Parse condition text; raises ConditionSyntaxError / ConditionTypeError."""
    chains: list[Chain] = []
    operands: list[Operand] = []
    ops: list[str] = []
    op_pos = 0
    for kind, value, pos in _lex(text):
        if len(operands) == len(ops):  # an operand is due
            if kind not in ("var", "lit"):
                raise ConditionSyntaxError("expected an operand", pos)
            operands.append(Var(value) if kind == "var" else value)  # type: ignore[arg-type]
            if ops:
                _check_pair_types(operands[-2], ops[-1], operands[-1], op_pos)
        elif kind == "op":
            ops.append(value)  # type: ignore[arg-type]
            op_pos = pos
        elif not ops:
            raise ConditionSyntaxError("expected a comparison operator", pos)
        elif kind in ("and", "eof"):
            chains.append(Chain(tuple(operands), tuple(ops)))
            operands, ops = [], []
        else:
            raise ConditionSyntaxError("expected 'and' or end of condition", pos)
    return ConditionExpr(tuple(chains))


def _check_pair_types(left: Operand, op: str, right: Operand, offset: int) -> None:
    lt, rt = _type_class(left), _type_class(right)
    if lt is not None and rt is not None and lt != rt:
        raise ConditionSyntaxError(f"cannot compare {lt} to {rt}", offset)
    if op in ORDER_OPS and ("string" in (lt, rt) or "bool" in (lt, rt)):
        raise ConditionSyntaxError(
            f"ordering comparison {op!r} is not defined for strings or booleans",
            offset,
        )


def render_condition(expr: ConditionExpr) -> str:
    """Canonical text form; parse(render(e)) == e."""
    return " and ".join(_render_chain(chain) for chain in expr.chains)


def _render_chain(chain: Chain) -> str:
    operands, ops = chain
    if len(operands) != len(ops) + bool(ops):
        raise _malformed(chain)
    parts = [_render_operand(operands[0])] if operands else []
    for op, operand in zip(ops, operands[1:]):
        parts.append(op)
        parts.append(_render_operand(operand))
    return " ".join(parts)


def _malformed(chain: Chain) -> ConditionTypeError:
    """The error for a hand-built chain that is neither empty nor one more
    operand than its one or more operators."""
    operands, ops = chain
    return ConditionTypeError(f"malformed chain: {len(operands)} operands, {len(ops)} operators")


def _render_operand(operand: Operand) -> str:
    """`operand` as condition text; a value of no condition type raises
    ConditionTypeError, and a number, a subclass's included, is written as one."""
    if isinstance(operand, Var):
        return operand.name
    type_class = _TYPE_CLASSES.get(type(operand)) or _type_class(operand)
    if type_class == "bool":
        return "true" if operand else "false"
    if type_class == "string":
        return f'"{escape_string(operand)}"'
    if type_class == "time":
        return str(operand)
    if isinstance(operand, float):
        # repr writes an exponent below 1e-4 and from 1e16 up, and the
        # grammar has none: write as many places as repr's digits need.
        mantissa, _, exponent = float.__repr__(operand).partition("e")
        places = max(0, len(mantissa.partition(".")[2]) - int(exponent or 0))
        return f"{float(operand):.{places}f}" + ("" if places else ".0")
    return int.__repr__(operand)


def escape_string(text: str) -> str:
    """`text` with backslashes and double quotes backslash-escaped: the body
    of a double-quoted string in a condition, a policy file or DOT."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def unescape_string(body: str) -> str:
    """The text of a string body that STRING_BODY matches whole; `escape_string` undone."""
    return re.sub(r"\\(.)", r"\1", body)


_TSV_ESCAPES = str.maketrans({"\t": "\\t", "\r": "\\r", "\n": "\\n"})


def tsv(rows: Sequence[Sequence[str]]) -> str:
    """`rows`, each as many cells as the first, as tab-separated lines ending in LF.

    A tab, CR or LF inside a cell is written as \\t, \\r or \\n, so every
    line keeps its number of fields; backslashes are written as they are.
    Cells are rewritten only when the joined text's tab or line count
    disagrees with its shape, or it holds a CR.
    """
    if not rows:
        return ""
    text = "\n".join(map("\t".join, rows)) + "\n"
    tabs = len(rows) * (len(rows[0]) - 1)
    if text.count("\n") != len(rows) or text.count("\t") != tabs or "\r" in text:
        cells = [[cell.translate(_TSV_ESCAPES) for cell in row] for row in rows]
        text = "\n".join(map("\t".join, cells)) + "\n"
    return text


def evaluate(expr: ConditionExpr, ctx: EvalContext) -> TriBool:
    """Three-valued evaluation of `expr` under the bindings in `ctx`.

    Every pair is evaluated, even after a False one, so a type clash or an
    operator outside RELOPS anywhere in `expr` raises ConditionTypeError, as
    does a chain that `_malformed` describes.
    """
    unknown = false = False
    for chain in expr.chains:
        operands, ops = chain
        if len(operands) != len(ops) + bool(ops):
            raise _malformed(chain)
        for i, op in enumerate(ops):
            compare = _COMPARE.get(op)
            if compare is None:  # only a hand-built Chain can hold one
                raise ConditionTypeError(f"unknown comparison operator {op!r}")
            lv, rv = operands[i], operands[i + 1]
            if isinstance(lv, Var):
                lv = ctx.get(lv.name, _MISSING)
            if isinstance(rv, Var):
                rv = ctx.get(rv.name, _MISSING)
            if lv is _MISSING or rv is _MISSING:
                unknown = True
                continue
            for value in (lv, rv):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConditionTypeError(f"cannot compare the non-finite number {value!r}")
            lt = _TYPE_CLASSES.get(type(lv)) or _type_class(lv)
            rt = _TYPE_CLASSES.get(type(rv)) or _type_class(rv)
            if lt != rt:
                raise ConditionTypeError(f"cannot compare {lt} to {rt}")
            if op in ORDER_OPS and lt in ("string", "bool"):
                raise ConditionTypeError(f"ordering comparison {op!r} is not defined for {lt}s")
            if not compare(lv, rv):
                false = True
    return TriBool.FALSE if false else TriBool.UNKNOWN if unknown else TriBool.TRUE


_MISSING = object()
_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
