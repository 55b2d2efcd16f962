"""The public names of the `pppm` package."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import pppm

from conftest import FIXTURES


def test_every_exported_name_resolves():
    assert len(set(pppm.__all__)) == len(pppm.__all__)
    missing = [name for name in pppm.__all__ if not hasattr(pppm, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from pppm import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(pppm.__all__)


# What each command may load beyond the parser and the model: the lazy
# package and the per-command imports in the CLI keep start-up to these.
OPTIONAL = ("pppm.lints", "pppm.query", "pppm.render", "pppm.token_parser", "dataclasses", "inspect")
COMMANDS = {
    "check": (),
    "lint": ("pppm.lints",),
    "query": ("pppm.query",),
    "render": ("pppm.render",),
    "report": ("pppm.render",),
}
PROBE = """\
import contextlib, io, sys
import pppm.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = pppm.cli.main(sys.argv[1:])
print(code, *sorted(m for m in {optional} if m in sys.modules))
"""


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_uses(command):
    argv = [command, str(FIXTURES / "imaginary_shop.pppm")]
    if command == "query":
        argv += ["--role", "r1", "--attribute", "d1"]
    proc = subprocess.run([sys.executable, "-c", PROBE.format(optional=OPTIONAL), *argv],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", *COMMANDS[command]]


def test_pppm_imports_only_the_standard_library_and_itself():
    # pyproject.toml declares no dependencies: an import of anything else
    # would fail on a clean install.
    outside = []
    for path in sorted(Path(pppm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
