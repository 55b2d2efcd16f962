"""No function binds a local or a parameter named like one of its module's imports.

CPython 3.11 and 3.13 compile `x.m(...)` as an attribute load and a call,
not as a method call, when `x` is a local that shares its name with a
module-level import: each such call then builds a bound method.
`RoleClosure.hops` once kept its chain of roles in a local named `chain`,
beside `from itertools import chain`, and each hop of a `can_access` query
paid for it.  So each source file is scanned here with `symtable`.
"""

from __future__ import annotations

import symtable

import pytest

from conftest import SRC

SOURCES = sorted((SRC / "pppm").glob("*.py"))


def shadowed_imports(source: str, filename: str = "<source>") -> list[tuple[str, str]]:
    """(function, name) for each local or parameter of a function in
    `source` that is named like one of the module's imports."""
    module = symtable.symtable(source, filename, "exec")
    imported = {symbol.get_name() for symbol in module.get_symbols() if symbol.is_imported()}
    found, tables = [], list(module.get_children())
    while tables:
        table = tables.pop()
        tables += table.get_children()
        if table.get_type() == "function":
            found += [(table.get_name(), symbol.get_name()) for symbol in table.get_symbols()
                      if symbol.get_name() in imported
                      and (symbol.is_local() or symbol.is_parameter())]
    return sorted(found)


def test_the_scan_finds_a_local_or_parameter_that_shadows_an_import():
    source = (
        "from itertools import chain\nimport re\n\n"
        "class C:\n"
        "    def hops(self, role):\n"
        "        chain = [role]\n"
        "        chain.append(role)\n"
        "        return chain\n\n"
        "def match(re):\n"
        "    def inner(chain):\n"
        "        return chain\n"
        "    return inner\n\n"
        "def fine(text):\n"
        "    return re.escape(text), chain(text)\n"
    )
    assert shadowed_imports(source) == [("hops", "chain"), ("inner", "chain"), ("match", "re")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_function_shadows_an_import_of_its_module(path):
    assert shadowed_imports(path.read_text(encoding="utf-8"), str(path)) == []
