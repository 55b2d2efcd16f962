"""Every source file compiles without a warning.

pytest's `error:::pppm` filter turns warnings raised while pppm runs into
errors, but a compile-time warning (an invalid escape such as "\\d" in a
non-raw string: a DeprecationWarning before Python 3.12, a SyntaxWarning
from 3.12) is raised while the file is compiled, and with a cached bytecode
file not at all.  So each file is compiled here, with warnings as errors.
"""

from __future__ import annotations

import warnings

import pytest

from conftest import SRC

SOURCES = sorted((SRC / "pppm").glob("*.py"))


def test_there_are_sources():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "dsl.py", "conditions.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_a_source_file_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
