"""Lint findings pinned byte for byte on the fixtures and generated models.

One digest over every finding's rule, severity, subject and message, in
`run_lints` order, pins the whole catalog.  Every message variant must fire
somewhere in the corpus, so the digest is not vacuous.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

from pppm.lints import run_lints

import gen

GENERATED = 2000

# sha256 over the findings of shop, baby and seeds 0-1999, recorded before
# the rules were rewritten as rows over one model field.
LINT_DIGEST = "1eec77894125a312dfa9b7e77df1de70f48d40945c18db8de6911f119d3e3388"

# Each message variant: its rule and a fragment only that variant contains.
VARIANTS = (
    ("L1", "no role is allowed to use purpose"),
    ("L2", "has no direct or inherited purpose"),
    ("L3", "may use the universal purpose"),
    ("L4", "holds a grant to group"),
    ("L4", "spans every attribute in the model"),
    ("L5", "granted attribute(s) are unjustified"),
    ("L6", "is read by no task and covered by no group grant"),
    ("L7", "is granted to a role but declares no tasks"),
    ("L8", "but contains no attributes"),
    ("L9", "is declared both collected and not collected"),
    ("L9", "is read by a task but declared not collected"),
)


def corpus(shop_model, baby_model):
    yield shop_model
    yield baby_model
    for seed in range(GENERATED):
        yield gen.random_model(random.Random(seed))


def test_lint_findings_are_pinned(shop_model, baby_model):
    digest = hashlib.sha256()
    fired: Counter = Counter()
    for model in corpus(shop_model, baby_model):
        for f in run_lints(model):
            digest.update(f"{f.rule}\0{f.severity}\0{f.subject}\0{f.message}\n".encode("utf-8"))
            fired.update((rule, part) for rule, part in VARIANTS
                         if rule == f.rule and part in f.message)
        digest.update(b"--\n")
    assert sorted(fired) == sorted(VARIANTS), fired
    assert digest.hexdigest() == LINT_DIGEST, fired

