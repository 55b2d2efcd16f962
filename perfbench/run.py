"""Benchmark entry point.

    python3 perfbench/run.py --workload author|serve|cli|all --seed N \
        --seconds S --trace 0|1

Run from the root of a pppm checkout (it needs src/, tests/oracles.py and
fixtures/).  Human-readable lines come first; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
The environment, every metric and (when traced) every span are also written
to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
NEEDED = ("src/pppm/__init__.py", "tests/oracles.py", "fixtures/imaginary_shop.pppm",
          "fixtures/chatterbaby.pppm")
WORKLOAD_NAMES = ("author", "serve", "cli")


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith(".us"):
        return "us"
    if name.endswith(".growth"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.startswith("cli.") and "_ms" in name:
        return "ms"
    return "count"


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def pin_to_current_cpu() -> None:
    """Keep this process and its children on the CPU it runs on, so that the
    reference loop samples the same CPU as the work it scales."""
    try:
        with open("/proc/self/stat", encoding="utf-8") as handle:
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        pass


def run_one(args: argparse.Namespace) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    pin_to_current_cpu()

    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    env = environment(args)
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result.layers.items()}
    else:
        metrics = {k: {"value": v, "unit": workloads.E2E_UNITS[k]} for k, v in result.e2e.items()}
    error_rate = result.failed / result.attempted if result.attempted else 1.0

    print(f"env: {json.dumps(env, sort_keys=True)}")
    for name, value, unit in result.named:
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} error_rate = {error_rate:.6g} ratio "
          f"({result.failed} of {result.attempted} operations)")
    for name in sorted(result.self_s):
        print(f"{args.workload} self time {name} = {result.self_s[name]:.6g} s")
    for name in sorted(metrics):
        print(f"{args.workload} {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    for problem in result.problems:
        print(f"{args.workload} FAILED: {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "env": env,
        "metrics": metrics,
        "named": {name: {"value": v, "unit": u} for name, v, u in result.named},
        "error_rate": error_rate,
        "self_s": result.self_s,
        "problems": result.problems,
        "speed_samples": result.speed_samples,
        "op_seconds": result.op_seconds,
        "spans": result.tracer.to_json() if result.tracer else [],
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: workload {name} failed")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, metric in part["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"perfbench: not a pppm checkout, missing {', '.join(missing)}\n")
        return 2
    summary = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
