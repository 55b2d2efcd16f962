"""The benchmark harness still runs and its output checks still pass.

One author pass at the smallest setting; no timing is asserted.  The pass
compares every output with the digests in perfbench/expected.json, so this
also gates byte-identical findings, DOT, tables and serialized text.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_author_workload_runs_and_checks_its_outputs():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "author", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
