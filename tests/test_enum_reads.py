"""The request path reads no enum member through its class.

On CPython 3.11 `EnumType` defines `__getattr__`, so each `Outcome.ALLOW`
or `TriBool.FALSE` costs several times a plain global's read.  The functions
that every `can_access` request runs bind the members they need once, as
module constants; each is scanned here with `ast`.
"""

from __future__ import annotations

import ast
import enum
import inspect
import textwrap

import pytest

import pppm.conditions
import pppm.query
from pppm.query import Outcome

REQUEST_PATH = (pppm.query.can_access, pppm.query._decide, pppm.conditions.evaluate)


def enum_reads(source: str, namespace: dict) -> list[str]:
    """`Class.member` for each attribute read in `source` of a name that
    `namespace` binds to an `enum.Enum` subclass."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = namespace.get(node.value.id)
            if isinstance(owner, type) and issubclass(owner, enum.Enum):
                found.append(f"{node.value.id}.{node.attr}")
    return found


def test_the_scan_finds_a_member_read_through_its_class():
    source = (
        "def decide(ok, status, p):\n"
        "    if status is TriBool.UNKNOWN:\n"
        "        return Outcome.CONDITIONAL\n"
        "    return _ALLOW if ok else p.outcome\n"
    )
    namespace = {"Outcome": Outcome, "TriBool": pppm.conditions.TriBool, "p": object()}
    assert enum_reads(source, namespace) == ["TriBool.UNKNOWN", "Outcome.CONDITIONAL"]


@pytest.mark.parametrize("function", REQUEST_PATH, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_the_request_path_reads_no_enum_member_through_its_class(function):
    source = textwrap.dedent(inspect.getsource(function))
    assert enum_reads(source, vars(inspect.getmodule(function))) == []
