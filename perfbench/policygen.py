"""Seeded, size-parameterised policy text generator for the benchmark.

`generate(seed, n)` writes a policy with n attributes and n tasks, n/10 roles
and n/5 purposes.  The text is all that pppm ever sees; the returned `Spec`
keeps the generator's own view of the structure so the harness can draw
requests that hit real grant paths without asking the library.

Every section is filled.  The shape is chosen so that each lint rule has
something to find:

* the role hierarchy is a fan-out-2 tree (role i reports to role (i-1)//2),
  which keeps the path enumeration of the brute-force oracle tractable;
* grants go mostly to leaves, so inner roles are granted only through their
  inferiors (L2 walks the hierarchy) and some leaves get nothing (L2 finds);
* some purposes are never granted (L1), a few are universal (L3, L4) or have
  no tasks (L7);
* some group grants overlap only part of the purpose's reads (L5), some
  attributes are touched by nothing (L6), and a few granted groups have no
  members (L8);
* a few attributes are declared twice with contradictory `collected` flags,
  and some read attributes are declared not collected (L9).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Condition variables: age (number), consent (bool), now (time of day) and
# region (string).
CONDITIONS = (
    "age > 18",
    "age >= 21 and consent == true",
    "08:00 < now < 17:00",
    "consent == true",
    "now < 12:00",
    "age > 16 and 07:00 <= now <= 22:00",
    "region == \"eu\"",
)
GRANULARITIES = (
    ("date2age", "Date of birth to age"),
    ("exact2range", "Exact value to a range"),
    ("geo2region", "Location to region"),
)


@dataclass
class Spec:
    """The generator's view of the policy it wrote, for drawing requests."""

    n: int
    roles: list[str]
    children: dict[str, list[str]]
    depth: dict[str, int]
    purposes: list[str]
    role_grants: dict[str, list[str]]  # role -> purposes granted directly
    purpose_attrs: dict[str, list[str]]  # purpose -> attributes via tasks and groups


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _label(rng: random.Random, kind: str, i: int) -> str:
    # A few labels carry quotes and backslashes so the string lexer and
    # `serialize` quoting are exercised.
    if rng.random() < 0.02:
        return f'{kind} {i} "special" \\ note'
    return f"{kind} {i}"


def _dealt(rng: random.Random, count: int, shares: tuple) -> list:
    """`count` values in exact proportions, shuffled.

    `shares` is ((value, share), ...); the last value takes the remainder.
    Exact rather than independently drawn shares keep the amount of work in
    a policy the same for every seed, so seeds change which entities are
    involved but not how many.
    """
    out: list = []
    for value, share in shares[:-1]:
        out += [value] * round(share * count)
    out += [shares[-1][0]] * (count - len(out))
    rng.shuffle(out)
    return out


def generate(seed: int, n: int) -> tuple[str, Spec]:
    """Policy text and its Spec for `seed` and size `n` (n >= 20)."""
    if n < 20:
        raise ValueError("n must be at least 20")
    rng = random.Random(f"pppm-policy-{seed}-{n}")
    n_roles = n // 10
    n_purposes = n // 5
    n_groups = max(n // 25, 3)
    n_empty = max(n // 500, 1)

    roles = [f"r{i}" for i in range(n_roles)]
    children: dict[str, list[str]] = {r: [] for r in roles}
    depth = {"r0": 0}
    edges = []
    for i in range(1, n_roles):
        parent = f"r{(i - 1) // 2}"
        children[parent].append(f"r{i}")
        depth[f"r{i}"] = depth[parent] + 1
        edges.append((parent, f"r{i}"))
    leaves = [r for r in roles if not children[r]]
    inner = [r for r in roles[1:] if children[r]]

    groups = [f"g{i}" for i in range(n_groups)]
    empty_groups = [f"ge{i}" for i in range(n_empty)]
    members: dict[str, list[str]] = {g: [] for g in groups}
    attr_rows = []
    collected_no: list[int] = []
    definite: list[int] = []
    group_counts = _dealt(rng, n, ((0, 0.3), (1, 0.5), (2, 0.2)))
    flags = _dealt(rng, n, ((None, 0.6), ("yes", 0.3), ("no", 0.1)))
    for i in range(n):
        mine = sorted(rng.sample(groups, group_counts[i]))
        for g in mine:
            members[g].append(f"d{i}")
        row = f"d{i}: {_quote(_label(rng, 'Attribute', i))}"
        if mine:
            row += f" groups ({', '.join(mine)})"
        if flags[i] is not None:
            row += f" collected = {flags[i]}"
            (collected_no if flags[i] == "no" else definite).append(i)
        attr_rows.append(row)
    # Contradictions: re-declare a few `collected = yes` attributes as `no`,
    # in a second attributes section (sections may repeat).
    conflicts = rng.sample(definite, max(n // 200, 1))
    conflict_rows = [
        attr_rows[i].split(" groups ")[0].split(" collected ")[0] + " collected = no"
        for i in sorted(conflicts)
    ]

    products = sorted(rng.sample(range(2, n), max(n // 50, 1)))
    aggregations = []
    for c in products:
        left, right = rng.sample(range(c), 2)
        aggregations.append((f"d{left}", f"d{right}", f"d{c}"))

    task_reads = []
    task_rows = []
    # A few tasks read uncollected attributes, for L9.
    reads_uncollected = _dealt(rng, n, ((True, 0.02), (False, 0.98)))
    vias = _dealt(rng, n, ((True, 0.1), (False, 0.9)))
    for i in range(n):
        a = rng.choice(collected_no) if reads_uncollected[i] else rng.randrange(n)
        task_reads.append(f"d{a}")
        row = f"t{i}: {_quote(_label(rng, 'Task', i))} reads d{a}"
        if vias[i]:
            row += f" via {rng.choice(GRANULARITIES)[0]}"
        task_rows.append(row)

    purposes = [f"p{i}" for i in range(n_purposes)]
    purpose_tasks: dict[str, list[int]] = {}
    purpose_rows = []
    group_granted = _dealt(rng, n_purposes, ((True, 0.3), (False, 0.7)))
    # Universal purposes hold a group grant, so L4 always has a finding.
    universal = set(rng.sample([p for p, g in zip(purposes, group_granted) if g], 2))
    taskless = _dealt(rng, n_purposes, ((True, 0.02), (False, 0.98)))
    for i, p in enumerate(purposes):
        tasks = [] if taskless[i] else rng.sample(range(n), 5)
        purpose_tasks[p] = tasks
        row = f"{p}: {_quote(_label(rng, 'Purpose', i))}"
        if tasks:
            row += f" = [{', '.join(f't{t}' for t in tasks)}]"
        if p in universal:
            row += " universal"
        purpose_rows.append(row)

    # Grants go mostly to leaves; inner roles are then granted only through
    # their inferiors, and some leaves not at all.
    grant_counts = _dealt(rng, n_purposes, ((0, 0.08), (1, 0.8), (2, 0.12)))
    to_leaves = _dealt(rng, n_purposes, ((True, 0.75), (False, 0.25)))
    grants = []
    for i, p in enumerate(purposes):
        pool = leaves if to_leaves[i] or not inner else inner
        grants += [(role, p) for role in rng.sample(pool, grant_counts[i])]
    conditional = _dealt(rng, len(grants), ((True, 0.3), (False, 0.7)))
    role_grants: dict[str, list[str]] = {r: [] for r in roles}
    rp_rows = []
    for (role, p), cond in zip(grants, conditional):
        role_grants[role].append(p)
        row = f"{role} allowed {p}"
        if cond:
            row += f" when {_quote(rng.choice(CONDITIONS))}"
        rp_rows.append(row)

    ptc_rows = []
    with_tasks = [p for p in purposes if purpose_tasks[p]]
    for p in sorted(rng.sample(with_tasks, round(0.2 * len(with_tasks))), key=purposes.index):
        t = rng.choice(purpose_tasks[p])
        ptc_rows.append(f"{p} task t{t} when {_quote(rng.choice(CONDITIONS))}")

    attr_groups: dict[str, list[str]] = {}
    for g, ms in members.items():
        for a in ms:
            attr_groups.setdefault(a, []).append(g)
    purpose_groups: dict[str, list[str]] = {p: [] for p in purposes}
    pg_rows = []
    near_pick = _dealt(rng, n_purposes, ((True, 0.5), (False, 0.5)))
    pg_conditional = _dealt(rng, n_purposes, ((True, 0.4), (False, 0.6)))
    for i, p in enumerate(purposes):
        if not group_granted[i]:
            continue
        # Half the grants pick a group that holds one of the purpose's reads,
        # so L5 sees partial overlaps; the rest pick any group.
        near = [g for t in purpose_tasks[p] for g in attr_groups.get(task_reads[t], ())]
        g = rng.choice(near) if near and near_pick[i] else rng.choice(groups)
        purpose_groups[p].append(g)
        row = f"{p} allowed group {g}"
        if pg_conditional[i]:
            row += f" when {_quote(rng.choice(CONDITIONS))}"
        pg_rows.append(row)
    for g in empty_groups:
        pg_rows.append(f"{rng.choice(purposes)} allowed group {g}")

    purpose_attrs = {
        p: [task_reads[t] for t in purpose_tasks[p]]
        + [a for g in purpose_groups[p] for a in members[g]]
        for p in purposes
    }

    def section(name: str, rows: list[str]) -> str:
        body = "".join(f"  {row}\n" for row in rows)
        return f"{name} {{\n{body}}}\n"

    text = "".join(
        [
            f"# Generated benchmark policy: seed {seed}, n {n}.\n",
            f"policy \"bench-{seed}-{n}\"\n\n",
            section("roles", [f"{r}: {_quote(_label(rng, 'Role', int(r[1:])))}" for r in roles]),
            section("role_hierarchy", [f"{a} -> {b}" for a, b in edges]),
            section(
                "groups",
                [f"{g}: \"Group {g[1:]}\"" for g in groups]
                + [f"{g}: \"Empty group {g[2:]}\"" for g in empty_groups],
            ),
            section("attributes", attr_rows),
            section("aggregations", [f"({a}, {b}) -> {c}" for a, b, c in aggregations]),
            section("granularities", [f"{g}: {_quote(d)}" for g, d in GRANULARITIES]),
            section("tasks", task_rows),
            section("purposes", purpose_rows),
            "# Contradicting collection statements.\n",
            section("attributes", conflict_rows),
            section("role_purpose", rp_rows),
            section("purpose_task_conditions", ptc_rows),
            section("purpose_group", pg_rows),
        ]
    )
    spec = Spec(n, roles, children, depth, purposes, role_grants, purpose_attrs)
    return text, spec
