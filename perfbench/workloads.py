"""The benchmark's workloads (`author`, `serve`, `cli`) and traced-run probes.

Each workload runs a closed loop from a single client for the given number of
seconds, times only the pppm calls, and checks outputs after the loop.  An
untraced run yields the end-to-end metrics.  A traced run makes every
operation twice, traced and untraced (their ratio is `trace.overhead_pct`),
and then probes every layer's public calls on the workload's own inputs, so
each traced run reports every per-layer metric.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import pppm.cli
from oracles import brute_can_access
from pppm import (
    RULES,
    TimeOfDay,
    accessible_attributes,
    can_access,
    effective_purposes,
    emit_graph,
    emit_tables,
    evaluate,
    format_findings,
    inferiors,
    load_policy,
    lower,
    parse_condition,
    parse_policy,
    render_condition,
    run_lints,
    serialize,
    validate,
)

from policygen import Spec, generate
from tracing import Paired, Tracer, direct

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_FILE = HERE / "expected.json"

# Policy sizes (n = attributes = tasks; n/10 roles, n/5 purposes).
AUTHOR_LADDER = (500, 2000)
# Ladder seeds whose output digests expected.json records.
RECORDED_SEEDS = range(100)
SERVE_N = 2000
SERVE_PROBE_LADDER = (500, 2000)
CLI_PROBE_LADDER = (100, 400)
# Small texts whose output digests are recorded; every author run checks them.
CANARY = ((0, 100), (0, 400), (1, 100))

SETUP_REPEATS = 5  # import timings per run
SERVE_LOADS = 3  # load_policy repeats per serve run
ORACLE_SAMPLE = 200  # serve decisions checked against the brute-force oracle
PROBE_REQUESTS = 100  # requests decomposed into layer calls by the query probe
BLOCK_CYCLES = 6  # request-mix cycles per serve throughput block
# The serve loop ends at --seconds or after this many requests.  Its buffers
# are allocated for this many up front, so the harness's share of
# peak_rss_mb does not depend on how many requests finish.
MAX_REQUESTS = 250_000

STAGES = ("dsl.parse_policy", "dsl.lower", "lints.run_lints", "render.emit_graph",
          "render.emit_tables", "dsl.serialize")
GROWTH = ("dsl.parse_policy", "dsl.lower", "model.validate", "lints.run_lints",
          "render.emit_graph", "render.emit_tables")

FIXTURES = ("fixtures/imaginary_shop.pppm", "fixtures/chatterbaby.pppm")
SHOP, BABY = FIXTURES
# Argument variants per (command, fixture); a cycle of the cli workload runs
# one seeded choice for each of the ten pairs.
CLI_VARIANTS: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = {
    ("check", SHOP): ((),),
    ("check", BABY): ((),),
    ("lint", SHOP): ((), ("--format", "tsv"), ("--deny-warnings",)),
    ("lint", BABY): ((), ("--format", "tsv"), ("--rules", "L1,L9")),
    ("render", SHOP): ((), ("--layers", "roles")),
    ("render", BABY): ((), ("--layers", "roles,purposes", "--no-legend")),
    ("report", SHOP): ((),),
    ("report", BABY): ((),),
    ("query", SHOP): (
        ("--role", "r4", "--attribute", "d1", "--purpose", "p3"),
        ("--role", "r4", "--attribute", "d1", "--purpose", "p3",
         "--ctx", "age=25", "--ctx", "now=10:00"),
        ("--role", "r2", "--attribute", "d6"),
        ("--role", "r1", "--attribute", "d7", "--ctx", "age=30"),
    ),
    ("query", BABY): (
        ("--role", "r1", "--attribute", "d5"),
        ("--role", "r1", "--attribute", "d5", "--purpose", "p11", "--ctx", "consent=true"),
        ("--role", "r2", "--attribute", "d1"),
        ("--role", "r5", "--attribute", "d30", "--ctx", "subscription=false"),
    ),
}
# Byte-exact expected stdout where the repository keeps a golden file.
GOLDEN = {
    ("render", SHOP): "tests/golden/imaginary_shop_full.dot",
    ("render", SHOP, "--layers", "roles"): "tests/golden/imaginary_shop_roles.dot",
    ("report", SHOP): "tests/golden/imaginary_shop_report.txt",
}
CLI_COMMANDS = ("check", "lint", "render", "report", "query")


@dataclass
class Result:
    e2e: dict[str, float] = field(default_factory=dict)  # untraced, gated
    named: list[tuple[str, float, str]] = field(default_factory=list)  # summary only
    layers: dict[str, float] = field(default_factory=dict)  # traced
    self_s: dict[str, float] = field(default_factory=dict)  # traced, per layer
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None
    # Untraced: the reference-loop samples, and the raw time of each
    # operation on author and cli, in order, for a look at a noisy run.
    speed_samples: list[float] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; a failed or wrong one is recorded."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values: list[float]) -> tuple[str, float]:
    """Highest of p99/p90 with at least ten samples beyond it, else the max."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return f"p{q}", percentile(values, q)
    return "max", max(values)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# The reference loop takes REF_S seconds on the host the baseline was
# recorded on (2-core Intel Xeon VM, Python 3.11) when its neighbours are
# quiet.
REF_S = 0.010


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python dict, str and sort work."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(50_000):
        table[i % 1000] = table.get(i % 997, 0) + i
    words = [str(i) for i in range(15_000)]
    "".join(sorted(words))
    return time.perf_counter() - start


class Speed:
    """How much the machine is slowed down while the workload runs.

    On a shared host the same code runs up to 2.3x slower for seconds to
    minutes at a time, with the CPU time slowing as much as the wall time,
    for causes outside the VM.  The harness
    samples a fixed reference loop between operations.  An operation's time
    divided by `factor()` over the samples taken around it is its time at
    the reference speed, which is what runs made at different moments can
    be compared on.
    """

    def __init__(self) -> None:
        self.samples = [reference_loop() for _ in range(5)]

    def sample(self) -> None:
        self.samples.append(reference_loop())

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, start: int = 0, end: Optional[int] = None) -> float:
        """Median sample in [start - 1, end), relative to REF_S."""
        return statistics.median(self.samples[max(start - 1, 0):end]) / REF_S


class Paced:
    """A `call` for `ladder_pass` that times each pppm call and samples the
    reference loop after it, outside the timed part."""

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.busy = 0.0

    def __call__(self, name: str, fn: Callable, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.busy += time.perf_counter() - t0
        self.speed.sample()
        return out


def scaled_metrics(setup: float, blocks: list[list[tuple[float, float]]],
                   rss: float) -> dict[str, float]:
    """End-to-end metrics at the reference speed.

    `blocks` holds (seconds, factor) per operation, grouped into blocks of
    the same amount of work.  Throughput is the median over blocks, so that
    a block caught in a burst of contention the scaling missed moves it
    less.
    """
    scaled = [[t / f for t, f in block] for block in blocks]
    return {
        "setup_s": setup,
        "op_p50_ms": statistics.median(t for block in scaled for t in block) * 1e3,
        "ops_per_s": statistics.median(len(block) / sum(block) for block in scaled),
        "peak_rss_mb": rss,
    }


# --- subprocesses -----------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PPPM_NO_COLOR"] = "1"
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=60, check=False
    )


_IMPORT_PROBE = """\
import statistics
import time
{reference}
ref = statistics.median(reference_loop() for _ in range(3))
t = time.perf_counter()
import {module}
print(time.perf_counter() - t, ref)
"""


def import_seconds(module: str) -> tuple[float, float]:
    """Seconds to import `module` in a fresh interpreter, and the reference
    loop's time in that interpreter just before."""
    code = _IMPORT_PROBE.format(reference=inspect.getsource(reference_loop), module=module)
    proc = run_child([sys.executable, "-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed: {proc.stderr.decode(errors='replace')}")
    seconds, ref = proc.stdout.split()
    return float(seconds), float(ref)


def setup_import() -> tuple[float, float]:
    """Median time to import pppm in a fresh interpreter, raw and scaled.

    One untimed import first, so bytecode compilation of a fresh checkout is
    not counted.
    """
    import_seconds("pppm")
    runs = [import_seconds("pppm") for _ in range(SETUP_REPEATS)]
    return (statistics.median(t for t, _ in runs),
            statistics.median(t * REF_S / ref for t, ref in runs))


# --- author pipeline --------------------------------------------------------

def ladder_pass(texts: list[str], call: Callable = direct) -> list[tuple]:
    """parse -> lower -> lint -> graph -> tables -> serialize, per rung."""
    out = []
    for text in texts:
        decls = call("dsl.parse_policy", parse_policy, text)
        model = call("dsl.lower", lower, decls)
        findings = call("lints.run_lints", run_lints, model)
        dot = call("render.emit_graph", emit_graph, model)
        tables = call("render.emit_tables", emit_tables, model)
        canon = call("dsl.serialize", serialize, model)
        out.append((decls, model, findings, dot, tables, canon))
    return out


def digests(rung: tuple) -> dict[str, str]:
    _, _, findings, dot, tables, canon = rung
    return {
        "findings": sha(format_findings(findings)),
        "dot": sha(dot),
        "tables": sha(tables),
        "serialized": sha(canon),
    }


def condition_texts(model) -> list[str]:
    conds = [g.condition for g in model.rp_grants] + [c.condition for c in model.pt_conditions]
    conds += [g.condition for g in model.pg_grants]
    return [render_condition(c) for c in conds if c is not None]


def stage_probe(model, tracer: Tracer) -> None:
    """Layer calls the pipeline makes only internally, traced one by one."""
    tracer.call("model.validate", validate, model)
    for rule in RULES:
        tracer.call(f"lints.{rule.id}", rule.check, model)
    for text in condition_texts(model):
        tracer.call("conditions.parse_condition", parse_condition, text)


def traced_ladder(texts: list[str], call: Paired, rid: int) -> tuple[list[tuple], list[dict]]:
    """One traced pass: the pipeline through `call`, then the stage probe.
    Returns outputs and per-rung seconds by span name."""
    tracer = call.tracer
    tracer.request = rid
    first = len(tracer.spans)
    out = ladder_pass(texts, call)
    per_rung: list[dict] = []
    rung_spans = len(STAGES)
    for rung, outputs in enumerate(out):
        times = _sum_by_name(tracer.spans[first + rung * rung_spans: first + (rung + 1) * rung_spans])
        mark = len(tracer.spans)
        stage_probe(outputs[1], tracer)
        times.update(_sum_by_name(tracer.spans[mark:]))
        per_rung.append(times)
    return out, per_rung


def _sum_by_name(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
    return out


def ladder_layers(per_pass: list[list[dict]], outputs: list[tuple], layers: dict) -> None:
    """`.s` per ladder pass (both rungs) and `.growth` = t(4n)/t(n)."""
    names = list(STAGES) + ["model.validate"] + [f"lints.{r.id}" for r in RULES]
    for name in names:
        layers[f"{name}.s"] = statistics.median(sum(r[name] for r in p) for p in per_pass)
    for name in GROWTH:
        layers[f"{name}.growth"] = statistics.median(p[1][name] / p[0][name] for p in per_pass)
    layers["dsl.decls"] = sum(len(o[0].entries) for o in outputs)
    layers["lints.findings"] = sum(len(o[2]) for o in outputs)
    layers["render.graph_bytes"] = sum(len(o[3].encode("utf-8")) for o in outputs)


def check_ladder(outputs: list[tuple], texts: list[str], seed: int, expected: dict,
                 result: Result) -> list[dict]:
    """Round trip and recorded digests, per rung; returns the digests.

    A seed in RECORDED_SEEDS must have its digests recorded; any other seed
    is checked by the round trip and against the canary texts only.
    """
    found = []
    for text, rung in zip(texts, outputs):
        model = rung[1]
        result.op(lower(parse_policy(rung[5])) == model, "serialize round trip changed the model")
        got = digests(rung)
        want = expected["texts"].get(sha(text))
        if want is not None:
            result.op(got == want, f"outputs differ from the recorded digests for {rung[0].name}")
        elif seed in RECORDED_SEEDS:
            result.op(False, f"ladder text seed {seed} has no recorded digests")
        found.append(got)
    return found


def check_canary(expected: dict, result: Result) -> None:
    for seed, n in CANARY:
        text, _ = generate(seed, n)
        want = expected["texts"].get(sha(text))
        if want is None:
            result.op(False, f"canary text seed {seed} n {n} has no recorded digests")
            continue
        got = digests(ladder_pass([text])[0])
        result.op(got == want, f"canary seed {seed} n {n} outputs differ from the recorded digests")


def author(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    expected = load_expected()
    texts = [generate(seed, n)[0] for n in AUTHOR_LADDER]
    speed = Speed()
    raw_setup, setup = setup_import()

    paired = Paired(Tracer()) if trace else None
    walls: list[float] = []
    factors: list[float] = []
    per_pass: list[list[dict]] = []
    reference: Optional[list[dict]] = None
    outputs: list[tuple] = []
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < seconds:
        try:
            if paired is not None:
                outputs, per_rung = traced_ladder(texts, paired, i)
                per_pass.append(per_rung)
            else:
                mark = speed.mark()
                paced = Paced(speed)
                outputs = ladder_pass(texts, paced)
                walls.append(paced.busy)
                factors.append(speed.factor(mark))
        except Exception as exc:  # a failing pass is counted, the loop goes on
            result.op(False, f"pass {i} raised {exc!r}")
            i += 1
            continue
        if reference is None:
            reference = check_ladder(outputs, texts, seed, expected, result)
        else:
            same = [digests(rung) for rung in outputs] == reference
            result.op(same, f"pass {i} outputs differ from the first pass")
        i += 1
    rss = peak_rss_mb()
    check_canary(expected, result)

    if paired is None:
        ops = list(zip(walls, factors))
        steady = ops[1:] or ops  # the first pass is reported on its own
        result.e2e = scaled_metrics(setup, [[op] for op in steady], rss)
        result.named = [
            ("setup_raw_s", raw_setup, "s"),
            ("author_s", statistics.median(w for w, _ in steady), "s"),
            ("author_first_s", walls[0], "s"),
            ("author_passes", len(walls), "count"),
            ("speed_factor", speed.factor(), "ratio"),
        ]
        result.speed_samples = speed.samples
        result.op_seconds = walls
        return result

    ladder_layers(per_pass, outputs, result.layers)
    result.layers["trace.overhead_pct"] = paired.overhead_pct()
    query_probe(outputs[0][1], generate(seed, AUTHOR_LADDER[0])[1], seed, paired.tracer, result)
    cli_probe(paired.tracer, expected, result)
    return _finish_trace(result, paired.tracer)


def _finish_trace(result: Result, tracer: Tracer) -> Result:
    result.tracer = tracer
    result.self_s = tracer.self_times()
    return result


# --- serve ------------------------------------------------------------------

Request = tuple[str, str, Optional[str], dict]
OUTCOMES = ("Allow", "Conditional", "Deny")
OUTCOME_CODE = {name: code for code, name in enumerate(OUTCOMES)}
RAISED = len(OUTCOMES)  # the code of a request that raised


def full_context(rng: random.Random) -> dict:
    return {
        "age": rng.randrange(10, 40),
        "consent": rng.random() < 0.7,
        "now": TimeOfDay(rng.randrange(0, 24 * 60)),
        "region": rng.choice(("eu", "us")),
    }


def context(rng: random.Random, kind: int) -> dict:
    """Empty (0), partial (1) or full (2) bindings of the condition
    variables, so that Allow, Conditional and Deny all occur."""
    full = full_context(rng)
    if kind == 0:
        return {}
    if kind == 1:
        return {k: v for k, v in full.items() if rng.random() < 0.5}
    return full


class Requests:
    """Seeded `can_access` requests drawn from the generator's Spec.

    Roles are drawn uniformly by hierarchy depth, so leaves and the roles
    near the root (with large inferior sets) both appear.  Half the requests
    name an attribute the role reaches through some grant, half any
    attribute; half give the purpose; a third each have an empty, partial or
    full context.  The shares are exact over every cycle of
    `len(self.slots)` requests, so the mix does not vary with the seed.
    """

    def __init__(self, spec: Spec, seed: int) -> None:
        self.rng = random.Random(f"pppm-requests-{seed}")
        self.spec = spec
        below: dict[str, list[str]] = {}
        for role in reversed(spec.roles):  # inferiors have larger indices
            reached = list(spec.role_grants[role])
            for child in spec.children[role]:
                reached += below[child]
            below[role] = reached
        self.below = below
        by_depth: dict[int, list[str]] = {}
        for role in spec.roles:
            by_depth.setdefault(spec.depth[role], []).append(role)
        self.levels = [by_depth[d] for d in sorted(by_depth)]
        self.attributes = [f"d{i}" for i in range(spec.n)]
        self.slots: list[tuple[int, bool, bool, int]] = []
        self.cycle = len(self.levels) * 2 * 2 * 3

    def _reached(self, role: str) -> tuple[str, str]:
        purpose = self.rng.choice(self.below[role])
        attrs = self.spec.purpose_attrs[purpose] or self.attributes
        return purpose, self.rng.choice(attrs)

    def first(self) -> Request:
        """The fixed-shape first request: the root role, any purpose, a full
        context, and an attribute that exactly one grant reaches."""
        reached = Counter(a for p in self.below["r0"] for a in set(self.spec.purpose_attrs[p]))
        attr = self.rng.choice(sorted(a for a, count in reached.items() if count == 1))
        return ("r0", attr, None, full_context(self.rng))

    def next(self) -> Request:
        rng = self.rng
        if not self.slots:
            self.slots = [
                (level, reach, named, kind)
                for level in range(len(self.levels))
                for reach in (True, False)
                for named in (True, False)
                for kind in range(3)
            ]
            rng.shuffle(self.slots)
        level, reach, named, kind = self.slots.pop()
        role = rng.choice(self.levels[level])
        if reach and self.below[role]:
            purpose, attr = self._reached(role)
        else:
            purpose, attr = rng.choice(self.spec.purposes), rng.choice(self.attributes)
        return (role, attr, purpose if named else None, context(rng, kind))


def serve(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    text, spec = generate(seed, SERVE_N)
    speed = Speed()
    raw_import, scaled_import = setup_import()
    # Set-up ends with the first query on the fresh model, so that state a
    # model builds lazily on first use counts as set-up.
    loads: list[float] = []
    firsts: list[float] = []
    scaled_loads: list[float] = []
    model = None
    first = Requests(spec, seed).first()
    for _ in range(SERVE_LOADS):
        model = None  # let the previous model go before loading the next
        mark = speed.mark()
        t0 = time.perf_counter()
        model = load_policy(text)
        t1 = time.perf_counter()
        can_access(model, *first)
        t2 = time.perf_counter()
        speed.sample()
        loads.append(t1 - t0)
        firsts.append(t2 - t1)
        scaled_loads.append((t2 - t0) / speed.factor(mark))
    setup = scaled_import + statistics.median(scaled_loads)

    paired = Paired(Tracer()) if trace else None
    requests = Requests(spec, seed)
    # Only a code per request is kept; the requests are drawn again from the
    # seed for the check.
    outcomes = bytearray(MAX_REQUESTS)
    timed = array("d", bytes(8 * MAX_REQUESTS))
    count = 0
    errors: dict[int, str] = {}  # the first few exceptions, by request
    factor_marks: list[int] = []  # Speed mark at the start of each mix cycle
    start = time.perf_counter()
    while count < MAX_REQUESTS and time.perf_counter() - start < seconds:
        if count == len(factor_marks) * requests.cycle:
            speed.sample()
            factor_marks.append(speed.mark())
        req = requests.next()
        try:
            if paired is not None:
                paired.tracer.request = count
                decision = paired("query.can_access", can_access, model, *req)
            else:
                t0 = time.perf_counter()
                decision = can_access(model, *req)
                timed[count] = time.perf_counter() - t0
            outcomes[count] = OUTCOME_CODE[decision.outcome.value]
        except Exception as exc:  # counted as a failed request below
            outcomes[count] = RAISED
            if len(errors) < 20:
                errors[count] = repr(exc)
        count += 1
    rss = peak_rss_mb()
    latencies = timed[:count]

    # Correctness: every request that raised fails, and a seeded sample of
    # the decisions is compared with the oracle.
    checker = random.Random(f"pppm-oracle-{seed}")
    sample = set(checker.sample(range(count), min(ORACLE_SAMPLE, count)))
    replay = Requests(spec, seed)
    for index in range(count):
        req = replay.next()
        code = outcomes[index]
        if code == RAISED:
            result.op(False, f"request {req[:3]} raised {errors.get(index, 'an exception')}")
        elif index in sample:
            outcome = OUTCOMES[code]
            want = brute_can_access(model, *req)
            result.op(outcome == want, f"request {req[:3]}: {outcome}, oracle says {want}")
        else:
            result.op(True, "")

    if paired is None:
        name, value = tail(latencies)
        speed.sample()
        factor_marks.append(speed.mark())
        # Each cycle (about 0.3 s) is scaled by the samples of the three
        # cycles on either side of it.
        last = len(factor_marks) - 1
        cycle_factors = [
            speed.factor(factor_marks[max(i - 3, 0)], factor_marks[min(i + 4, last)])
            for i in range(last)
        ]
        ops = [(t, cycle_factors[i // requests.cycle]) for i, t in enumerate(latencies)]
        size = requests.cycle * BLOCK_CYCLES
        blocks = [ops[i:i + size] for i in range(0, len(ops), size)]
        if len(blocks) > 1 and len(blocks[-1]) < size:
            blocks.pop()  # a partial block has another request mix
        result.e2e = scaled_metrics(setup, blocks, rss)
        result.named = [
            ("setup_raw_s", raw_import + statistics.median(l + f for l, f in zip(loads, firsts)), "s"),
            ("load_policy_s", statistics.median(loads), "s"),
            ("query_p50_ms", statistics.median(latencies) * 1e3, "ms"),
            (f"query_{name}_ms", value * 1e3, "ms"),
            ("queries", len(latencies), "count"),
            ("queries_per_s", len(latencies) / sum(latencies), "1/s"),
            ("first_query_ms", statistics.median(firsts) * 1e3, "ms"),
            ("speed_factor", speed.factor(), "ratio"),
        ]
        result.speed_samples = speed.samples
        return result

    tracer = paired.tracer
    result.layers["trace.overhead_pct"] = paired.overhead_pct()
    probe_ladder(seed, SERVE_PROBE_LADDER, tracer, result)
    query_probe(model, spec, seed, tracer, result)
    cli_probe(tracer, load_expected(), result)
    return _finish_trace(result, tracer)


def probe_ladder(seed: int, sizes: tuple[int, int], tracer: Tracer, result: Result) -> None:
    """One traced ladder pass, for workloads whose loop runs no ladder."""
    texts = [generate(seed, n)[0] for n in sizes]
    outputs, per_rung = traced_ladder(texts, Paired(tracer), -1)
    for rung in outputs:
        result.op(lower(parse_policy(rung[5])) == rung[1], "probe round trip changed the model")
    ladder_layers([per_rung], outputs, result.layers)


def query_probe(model, spec: Spec, seed: int, tracer: Tracer, result: Result) -> None:
    """Decompose the first PROBE_REQUESTS requests of the stream into the
    public calls of each layer, traced, then make the request itself."""
    requests = Requests(spec, seed)
    group_grants: dict[str, list[str]] = {}
    for grant in model.pg_grants:
        group_grants.setdefault(grant.purpose, []).append(grant.group)
    counts = {"Allow": 0, "Conditional": 0, "Deny": 0}
    grants_seen = 0
    for rid in range(PROBE_REQUESTS):
        role, attr, purpose, ctx = req = requests.next()
        tracer.request = rid
        tracer.call("model.inferiors", inferiors, model, role)
        grants = tracer.call("query.effective_purposes", effective_purposes, model, role)
        grants_seen += len(grants)
        for grant in grants:
            if purpose is not None and grant.purpose != purpose:
                continue
            if grant.condition is not None:
                tracer.call("conditions.evaluate", evaluate, grant.condition, ctx)
            sources = tracer.call("query.accessible_attributes", accessible_attributes,
                                  model, grant.purpose)
            for group in group_grants.get(grant.purpose, ()):
                tracer.call("model.group_members", model.group_members, group)
            for source in sources:
                if source.attribute == attr and source.condition is not None:
                    tracer.call("conditions.evaluate", evaluate, source.condition, ctx)
        decision = tracer.call("query.can_access", can_access, model, *req)
        counts[decision.outcome.value] += 1
        want = brute_can_access(model, *req)
        result.op(decision.outcome.value == want, f"probe request {req[:3]}: oracle says {want}")
    layers = result.layers
    for name in ("model.inferiors", "model.group_members", "query.effective_purposes",
                 "query.accessible_attributes", "query.can_access", "conditions.evaluate"):
        layers[f"{name}.us"] = statistics.mean(tracer.durations(name)) * 1e6
    layers["conditions.parse_condition.us"] = (
        statistics.mean(tracer.durations("conditions.parse_condition")) * 1e6
    )
    layers["query.grants_per_request"] = grants_seen / PROBE_REQUESTS
    layers["query.allow"] = counts["Allow"]
    layers["query.conditional"] = counts["Conditional"]
    layers["query.deny"] = counts["Deny"]


# --- cli --------------------------------------------------------------------

def cli_argv(command: str, fixture: str, extra: tuple[str, ...]) -> list[str]:
    return [command, fixture, *extra]


def check_cli_output(argv: list[str], code: int, stdout: bytes, expected: dict) -> Optional[str]:
    """None when exit code and stdout are as recorded, else the mismatch."""
    key = " ".join(argv)
    want = expected["cli"].get(key)
    if want is None:
        return f"no recorded output for `pppm {key}`"
    if code != want["exit"]:
        return f"`pppm {key}` exited {code}, expected {want['exit']}"
    golden = GOLDEN.get(tuple(argv))
    if golden is not None:
        if stdout != (ROOT / golden).read_bytes():
            return f"`pppm {key}` stdout differs from {golden}"
    elif hashlib.sha256(stdout).hexdigest() != want["sha256"]:
        return f"`pppm {key}` stdout differs from the recorded digest"
    return None


def cli_cycle(rng: random.Random) -> list[list[str]]:
    """One invocation of every (command, fixture) pair, in seeded order."""
    pairs = sorted(CLI_VARIANTS)
    rng.shuffle(pairs)
    return [cli_argv(c, f, rng.choice(CLI_VARIANTS[(c, f)])) for c, f in pairs]


def cli(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    expected = load_expected()
    speed = Speed()
    raw_setup, setup = setup_import()
    rng = random.Random(f"pppm-cli-{seed}")
    paired = Paired(Tracer()) if trace else None
    walls: list[float] = []
    blocks: list[list[tuple[float, float]]] = []
    outputs: list[tuple[list[str], int, bytes]] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        mark = speed.mark()
        cycle_walls = []
        for argv in cli_cycle(rng):
            full = [sys.executable, "-m", "pppm.cli", *argv]
            if paired is not None:
                paired.tracer.request = len(outputs)
                proc = paired(f"cli.run.{argv[0]}", run_child, full)
            else:
                t0 = time.perf_counter()
                proc = run_child(full)
                cycle_walls.append(time.perf_counter() - t0)
            outputs.append((argv, proc.returncode, proc.stdout))
            speed.sample()
        factor = speed.factor(mark)
        walls += cycle_walls
        blocks.append([(w, factor) for w in cycle_walls])
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    for argv, code, stdout in outputs:
        problem = check_cli_output(argv, code, stdout, expected)
        result.op(problem is None, problem or "")

    if paired is None:
        name, value = tail(walls)
        result.e2e = scaled_metrics(setup, blocks, rss)
        result.named = [
            ("setup_raw_s", raw_setup, "s"),
            ("cli_p50_ms", statistics.median(walls) * 1e3, "ms"),
            (f"cli_{name}_ms", value * 1e3, "ms"),
            ("invocations", len(walls), "count"),
            ("speed_factor", speed.factor(), "ratio"),
        ]
        result.speed_samples = speed.samples
        result.op_seconds = walls
        return result

    tracer = paired.tracer
    result.layers["trace.overhead_pct"] = paired.overhead_pct()
    probe_ladder(seed, CLI_PROBE_LADDER, tracer, result)
    text, spec = generate(seed, CLI_PROBE_LADDER[1])
    query_probe(load_policy(text), spec, seed, tracer, result)
    cli_probe(tracer, expected, result)
    return _finish_trace(result, tracer)


def cli_probe(tracer: Tracer, expected: dict, result: Result) -> None:
    """Interpreter start, `import pppm.cli`, and in-process `main` per command."""
    imports = []
    for _ in range(3):
        tracer.call("cli.interpreter", run_child, [sys.executable, "-c", "pass"])
        imports.append(tracer.call("cli.import", import_seconds, "pppm.cli")[0])
    layers = result.layers
    layers["cli.interpreter_ms"] = statistics.median(tracer.durations("cli.interpreter")) * 1e3
    layers["cli.import_ms"] = statistics.median(imports) * 1e3
    for command in CLI_COMMANDS:
        for _ in range(2):
            for fixture in FIXTURES:
                argv = cli_argv(command, fixture, CLI_VARIANTS[(command, fixture)][0])
                code, stdout = tracer.call(f"cli.main.{command}", _main_captured, argv)
                problem = check_cli_output(argv, code, stdout, expected)
                result.op(problem is None, problem or "")
        layers[f"cli.main_ms.{command}"] = statistics.mean(
            tracer.durations(f"cli.main.{command}")) * 1e3


def _main_captured(argv: list[str]) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = pppm.cli.main(argv)
    return code, buffer.getvalue().encode("utf-8")


WORKLOADS = {"author": author, "serve": serve, "cli": cli}
