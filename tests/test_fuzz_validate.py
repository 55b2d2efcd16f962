"""Seeded corruption fuzz of `validate` over generated models.

Each case builds a valid `gen.random_model` and applies one to six random
edits: duplicate an entry, set a string field to an id from a fixed pool
(unknown ids, "" and "a:b" among them), change an attribute's groups or
flags, a purpose's task list or a task's `via`, append a role edge or an
aggregation (which makes cycles), or delete an entry.  One digest over every
report pins `validate` exactly: each error's rule, subject, message and
`where`, in report order.  Every rule must fire, so the digest is not
vacuous.
"""

from __future__ import annotations

import hashlib
import random
from typing import get_type_hints

from pppm.model import Aggregation, PolicyModel, PurposeTaskCondition, RoleEdge, validate

import gen

CASES = 5000
SEED = 7071

RULES = frozenset((
    "duplicate-id", "empty-label", "unknown-id", "role-self-edge", "duplicate-role-edge",
    "role-cycle", "collected-conflict-flag", "aggregation-self", "aggregation-cycle",
    "derived-flag", "duplicate-task-in-purpose", "duplicate-grant", "task-not-in-purpose",
    "duplicate-task-condition", "duplicate-group-grant",
))

# Ids of every kind `gen.random_model` uses, plus ids it never does.
ID_POOL = ("r0", "r1", "r2", "g0", "g1", "d0", "d1", "d2", "fn0", "t0", "t1", "p0", "p1",
           "x9", "", "a:b")
FIELDS = tuple(f for f in PolicyModel._fields if f != "name")

# sha256 of every corrupted model's report, recorded before `validate` was
# rewritten as tables.
REPORT_DIGEST = "38ddf489070d298d41dc12079b130da3428c42492994868fa741b7ed158e4817"


def _replace_entry(model: PolicyModel, name: str, i: int, entry) -> PolicyModel:
    entries = getattr(model, name)
    return model._replace(**{name: entries[:i] + (entry,) + entries[i + 1:]})


def _corrupt(rng: random.Random, model: PolicyModel) -> PolicyModel:
    """`model` after one random edit."""
    kind = rng.choice(("duplicate", "retarget", "attribute", "purpose", "via", "append",
                       "delete"))
    name = rng.choice(FIELDS)
    entries = getattr(model, name)
    if kind == "duplicate" and entries:
        j = rng.randrange(len(entries) + 1)
        entries = entries[:j] + (rng.choice(entries),) + entries[j:]
        return model._replace(**{name: entries})
    if kind == "retarget" and entries:
        i = rng.randrange(len(entries))
        strings = [f for f, t in get_type_hints(type(entries[i])).items() if t is str]
        value = rng.choice(ID_POOL)
        return _replace_entry(model, name, i,
                              entries[i]._replace(**{rng.choice(strings): value}))
    if kind == "delete" and entries:
        i = rng.randrange(len(entries))
        return model._replace(**{name: entries[:i] + entries[i + 1:]})
    if kind == "attribute" and model.attributes:
        i = rng.randrange(len(model.attributes))
        groups = frozenset(g for g in ("g0", "g1", "g9") if rng.random() < 0.4)
        attribute = model.attributes[i]._replace(
            groups=groups,
            collected=rng.choice((None, True, False)),
            collected_conflict=rng.random() < 0.3,
            derived=rng.random() < 0.3,
        )
        return _replace_entry(model, "attributes", i, attribute)
    if kind == "purpose" and model.purposes:
        i = rng.randrange(len(model.purposes))
        pool = [t.id for t in model.tasks] + ["t9"]
        tasks = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 4)))
        return _replace_entry(model, "purposes", i,
                              model.purposes[i]._replace(tasks=tasks))
    if kind == "via" and model.tasks:
        i = rng.randrange(len(model.tasks))
        via = rng.choice((None, "fn0", "fn9", ""))
        return _replace_entry(model, "tasks", i, model.tasks[i]._replace(via=via))
    if kind == "append":
        if rng.random() < 0.5:
            pool = [r.id for r in model.roles] + ["x9"]
            edge = RoleEdge(rng.choice(pool), rng.choice(pool))
            return model._replace(role_edges=model.role_edges + (edge,))
        pool = [a.id for a in model.attributes] + ["x9"]
        if rng.random() < 0.2 and model.purposes:
            purpose = rng.choice(model.purposes)
            pair = PurposeTaskCondition(purpose.id, rng.choice(ID_POOL),
                                        gen.random_condition(rng))
            return model._replace(pt_conditions=model.pt_conditions + (pair,))
        aggregation = Aggregation(rng.choice(pool), rng.choice(pool), rng.choice(pool))
        return model._replace(aggregations=model.aggregations + (aggregation,))
    return model


def corrupted_models(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        model = gen.random_model(rng)
        for _ in range(rng.randint(1, 6)):
            model = _corrupt(rng, model)
        yield model


def test_validate_reports_on_corrupted_models_are_pinned():
    digest = hashlib.sha256()
    fired: set[str] = set()
    invalid = 0
    for model in corrupted_models(SEED, CASES):
        errors = validate(model)
        invalid += bool(errors)
        for e in errors:
            fired.add(e.rule)
            digest.update(f"{e.rule}\0{e.subject}\0{e.message}\0{e.where}\n".encode("utf-8"))
        digest.update(b"--\n")
    assert fired == RULES
    assert CASES // 4 < invalid < CASES
    assert digest.hexdigest() == REPORT_DIGEST, (invalid, sorted(fired))
