from __future__ import annotations

import os
from pathlib import Path

import pytest

from pppm.dsl import load_policy

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

# pytest puts src/ on its own path (pyproject's `pythonpath`); the CLI tests'
# `python -m pppm.cli` subprocesses need it too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
)


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def shop_text() -> str:
    return read_fixture("imaginary_shop.pppm")


@pytest.fixture(scope="session")
def baby_text() -> str:
    return read_fixture("chatterbaby.pppm")


@pytest.fixture(scope="session")
def shop_model(shop_text):
    return load_policy(shop_text)


@pytest.fixture(scope="session")
def baby_model(baby_text):
    return load_policy(baby_text)
