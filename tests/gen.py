"""Seeded random generators for conditions, contexts, and small valid models.

Everything is driven by a caller-supplied random.Random so both the
hypothesis properties (which draw a seed) and the fixed-count acceptance
loops share one implementation.  Variables have fixed types so generated
expressions never hit runtime type errors:

    age, score : number      now : time      flag : bool      tier : string
"""

from __future__ import annotations

import random

from pppm.conditions import Chain, ConditionExpr, TimeOfDay, Var
from pppm.model import (
    Aggregation,
    Attribute,
    AttributeGroup,
    GranularityFn,
    PolicyModel,
    Purpose,
    PurposeGroupGrant,
    PurposeTaskCondition,
    Role,
    RoleEdge,
    RolePurposeGrant,
    Task,
)

VAR_TYPES = {
    "age": "number",
    "score": "number",
    "now": "time",
    "flag": "bool",
    "tier": "string",
}
_ORDERED = ("number", "time")
_STRINGS = ("gold", "basic", "vip")
_ALL_OPS = ("<", "<=", ">", ">=", "==", "!=")
_EQ_OPS = ("==", "!=")


def literal(rng: random.Random, typ: str):
    if typ == "number":
        if rng.random() < 0.3:
            return rng.randrange(-4, 31) + 0.5
        return rng.randrange(-5, 31)
    if typ == "time":
        return TimeOfDay(rng.randrange(0, 1440))
    if typ == "bool":
        return rng.random() < 0.5
    return rng.choice(_STRINGS)


def _operand(rng: random.Random, typ: str):
    names = [v for v, t in VAR_TYPES.items() if t == typ]
    if rng.random() < 0.5:
        return Var(rng.choice(names))
    return literal(rng, typ)


def random_chain(rng: random.Random) -> Chain:
    typ = rng.choice(("number", "number", "time", "bool", "string"))
    count = rng.randrange(2, 5)
    operands = tuple(_operand(rng, typ) for _ in range(count))
    pool = _ALL_OPS if typ in _ORDERED else _EQ_OPS
    ops = tuple(rng.choice(pool) for _ in range(count - 1))
    return Chain(operands, ops)


def random_condition(rng: random.Random) -> ConditionExpr:
    return ConditionExpr(tuple(random_chain(rng) for _ in range(rng.randrange(1, 4))))


def random_ctx(rng: random.Random, bind_chance: float = 0.5) -> dict:
    return {
        name: literal(rng, typ)
        for name, typ in VAR_TYPES.items()
        if rng.random() < bind_chance
    }


def extend_ctx(rng: random.Random, ctx: dict) -> dict:
    """Superset of ctx: existing bindings untouched, some new ones added."""
    extended = dict(ctx)
    for name, typ in VAR_TYPES.items():
        if name not in extended and rng.random() < 0.6:
            extended[name] = literal(rng, typ)
    return extended


def random_model(rng: random.Random) -> PolicyModel:
    """A structurally valid model: <=5 roles, <=5 purposes, <=6 attributes."""
    n_roles = rng.randrange(1, 6)
    roles = tuple(Role(f"r{i}", f"Role {i}") for i in range(n_roles))
    role_edges = tuple(
        RoleEdge(f"r{i}", f"r{j}")
        for i in range(n_roles)
        for j in range(i + 1, n_roles)
        if rng.random() < 0.3
    )

    groups = tuple(AttributeGroup(f"g{i}", f"Group {i}") for i in range(rng.randrange(0, 3)))
    n_attrs = rng.randrange(1, 7)
    # Products read only lower-numbered attributes, so derivation is acyclic.
    products: dict[int, tuple[int, int]] = {}
    for k in range(2, n_attrs):
        if rng.random() < 0.2:
            left = rng.randrange(0, k)
            right = rng.choice([i for i in range(k) if i != left])
            products[k] = (left, right)
    attributes = []
    for i in range(n_attrs):
        membership = frozenset(g.id for g in groups if rng.random() < 0.4)
        collected = rng.choice((None, None, True, False))
        conflict = collected is None and rng.random() < 0.1
        attributes.append(
            Attribute(f"d{i}", f"Attr {i}", membership, collected, conflict, i in products)
        )
    aggregations = tuple(
        Aggregation(f"d{left}", f"d{right}", f"d{k}")
        for k, (left, right) in sorted(products.items())
    )

    granularities = ()
    if rng.random() < 0.3:
        granularities = (GranularityFn("fn0", "Coarsen 0"),)
    tasks = tuple(
        Task(
            f"t{i}",
            f"Task {i}",
            f"d{rng.randrange(n_attrs)}",
            "fn0" if granularities and rng.random() < 0.2 else None,
        )
        for i in range(rng.randrange(0, 7))
    )
    task_ids = [t.id for t in tasks]

    purposes = tuple(
        Purpose(
            f"p{i}",
            f"Purpose {i}",
            tuple(rng.sample(task_ids, rng.randrange(0, len(task_ids) + 1))),
            rng.random() < 0.08,
        )
        for i in range(rng.randrange(0, 6))
    )

    rp_grants = tuple(
        RolePurposeGrant(
            role.id,
            purpose.id,
            random_condition(rng) if rng.random() < 0.35 else None,
        )
        for role in roles
        for purpose in purposes
        if rng.random() < 0.3
    )
    pt_conditions = tuple(
        PurposeTaskCondition(purpose.id, task_id, random_condition(rng))
        for purpose in purposes
        for task_id in purpose.tasks
        if rng.random() < 0.15
    )
    pg_grants = tuple(
        PurposeGroupGrant(
            purpose.id,
            group.id,
            random_condition(rng) if rng.random() < 0.3 else None,
        )
        for purpose in purposes
        for group in groups
        if rng.random() < 0.2
    )

    return PolicyModel(
        name="gen",
        roles=roles,
        role_edges=role_edges,
        groups=groups,
        attributes=tuple(attributes),
        aggregations=aggregations,
        granularities=granularities,
        tasks=tasks,
        purposes=purposes,
        rp_grants=rp_grants,
        pt_conditions=pt_conditions,
        pg_grants=pg_grants,
    )


def hierarchy_model(rng: random.Random) -> PolicyModel:
    """A valid model whose role hierarchy is rich in diamonds and shortcuts.

    3-8 roles r0, r1, ...; an edge from each role to each higher-numbered one
    at p=0.45, the edges declared in shuffled order.  Role ri alone holds
    purpose pi, whose one task ti reads attribute di, so each role decides
    the requests for its own attribute.
    """
    n = rng.randrange(3, 9)
    edges = [RoleEdge(f"r{i}", f"r{j}")
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
    rng.shuffle(edges)
    return PolicyModel(
        name="hierarchy",
        roles=tuple(Role(f"r{i}", f"Role {i}") for i in range(n)),
        role_edges=tuple(edges),
        attributes=tuple(Attribute(f"d{i}", f"Attr {i}") for i in range(n)),
        tasks=tuple(Task(f"t{i}", f"Task {i}", f"d{i}") for i in range(n)),
        purposes=tuple(Purpose(f"p{i}", f"Purpose {i}", (f"t{i}",)) for i in range(n)),
        rp_grants=tuple(RolePurposeGrant(f"r{i}", f"p{i}") for i in range(n)),
    )


SHAPES = ("star", "wide", "star+1")


def shape_model(kind: str, n: int) -> PolicyModel:
    """A valid model of one of the scaling shapes in SHAPES, with n attributes.

    star    one superior over n roles; n attributes, all in one group; n
            purposes, each with its own task, held by its own role and
            granted the group;
    star+1  star plus one attribute outside the group, so the group no
            longer spans every attribute;
    wide    one purpose with n tasks, held by all n roles and granted
            ceil(n/10) groups of ten attributes; task i reads attribute
            2i mod n, so each group is only partly read when n is even.
    """
    if kind not in SHAPES:
        raise ValueError(f"unknown shape {kind!r}")
    roles = tuple(Role(f"r{i}", f"Role {i}") for i in range(n))
    if kind == "wide":
        groups = tuple(AttributeGroup(f"g{j}", f"Group {j}") for j in range(-(-n // 10)))
        attributes = tuple(
            Attribute(f"d{i}", f"Attr {i}", frozenset({f"g{i // 10}"})) for i in range(n)
        )
        tasks = tuple(Task(f"t{i}", f"Task {i}", f"d{2 * i % n}") for i in range(n))
        return PolicyModel(
            name="wide",
            roles=roles,
            groups=groups,
            attributes=attributes,
            tasks=tasks,
            purposes=(Purpose("p0", "Purpose 0", tuple(t.id for t in tasks)),),
            rp_grants=tuple(RolePurposeGrant(r.id, "p0") for r in roles),
            pg_grants=tuple(PurposeGroupGrant("p0", g.id) for g in groups),
        )
    attributes = tuple(Attribute(f"d{i}", f"Attr {i}", frozenset({"g"})) for i in range(n))
    if kind == "star+1":
        attributes += (Attribute(f"d{n}", f"Attr {n}"),)
    return PolicyModel(
        name=kind,
        roles=(Role("top", "Top"),) + roles,
        role_edges=tuple(RoleEdge("top", r.id) for r in roles),
        groups=(AttributeGroup("g", "Group"),),
        attributes=attributes,
        tasks=tuple(Task(f"t{i}", f"Task {i}", f"d{i}") for i in range(n)),
        purposes=tuple(Purpose(f"p{i}", f"Purpose {i}", (f"t{i}",)) for i in range(n)),
        rp_grants=tuple(RolePurposeGrant(f"r{i}", f"p{i}") for i in range(n)),
        pg_grants=tuple(PurposeGroupGrant(f"p{i}", "g") for i in range(n)),
    )
