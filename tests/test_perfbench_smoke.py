"""The benchmark harness still runs and its output checks still pass.

No timing is asserted.  One author pass at the smallest setting compares
every output with the digests in perfbench/expected.json, so it also gates
byte-identical findings, DOT, tables and serialized text.  One second of the
serve workload checks 200 of its `can_access` decisions on a generated
n=2000 policy against the brute-force oracle.  One second of the cli
workload runs every `pppm` command as a subprocess on both fixtures and
checks each exit code and stdout digest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seconds: str, trace: str = "0") -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_author_workload_runs_and_checks_its_outputs():
    result = _run("author", "0")
    assert result["correct"] is True
    assert result["failed"] == 0


def test_serve_workload_checks_its_decisions_against_the_oracle():
    result = _run("serve", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_serve_workload_runs_every_query_probe():
    # Only a traced run calls the per-layer probes, `accessible_attributes`
    # among them.
    result = _run("serve", "1", trace="1")
    assert result["correct"] is True
    assert result["failed"] == 0


def test_cli_workload_checks_every_command_against_its_digest():
    result = _run("cli", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
