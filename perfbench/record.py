"""Record the outputs the benchmark checks against into expected.json.

    python3 perfbench/record.py

Run from the root of a pppm checkout whose outputs are known good.  It
records, for the canary texts and for the `author` ladder of every seed in
`workloads.RECORDED_SEEDS`, the sha256 of the findings, DOT, tables and
serialized text, keyed by the sha256 of the policy text; and the exit code
and stdout digest of every CLI invocation the `cli` workload can make.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402
from policygen import generate  # noqa: E402


def main() -> int:
    texts = {}
    cases = list(workloads.CANARY) + [
        (seed, n) for seed in workloads.RECORDED_SEEDS for n in workloads.AUTHOR_LADDER
    ]
    for seed, n in cases:
        text, _ = generate(seed, n)
        texts[workloads.sha(text)] = workloads.digests(workloads.ladder_pass([text])[0])

    cli = {}
    for (command, fixture), variants in sorted(workloads.CLI_VARIANTS.items()):
        for extra in variants:
            argv = workloads.cli_argv(command, fixture, extra)
            proc = workloads.run_child([sys.executable, "-m", "pppm.cli", *argv])
            cli[" ".join(argv)] = {
                "exit": proc.returncode,
                "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            }

    expected = {"cli": cli, "texts": texts}
    workloads.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(texts)} texts and {len(cli)} CLI invocations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
