"""Independent brute-force reference implementations.

Each function recomputes a library result by the most literal method
available (path enumeration, fixpoint iteration, explicit truth tables)
without sharing traversal code with the package, so agreement between the two
is meaningful.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Optional, Sequence

from pppm.conditions import (
    ConditionExpr,
    EvalContext,
    Operand,
    TimeOfDay,
    TriBool,
    Var,
    condition_texts,
    escape_string,
    escape_strings,
)
from pppm.dsl import _FIELD_BY_ENTRY, _SECTIONS, AttributeDecl, Span
from pppm.model import Attribute, PolicyModel, require_valid
from pppm.render import PALETTE, RenderOptions, _cluster, _selected_layers


def brute_inferiors(model: PolicyModel, role_id: str) -> set[str]:
    """Reachable-by-any-path set, via explicit path enumeration."""
    edges = [(e.superior, e.inferior) for e in model.role_edges]
    found: set[str] = set()
    stack: list[tuple[str, ...]] = [(role_id,)]
    while stack:
        path = stack.pop()
        for sup, inf in edges:
            if sup != path[-1] or inf in path:
                continue
            found.add(inf)
            stack.append(path + (inf,))
    found.discard(role_id)
    return found


def brute_hops(model: PolicyModel, src: str, dst: str) -> Optional[tuple[str, ...]]:
    """The shortest simple superior-to-inferior chain from src to dst, ties
    broken by the smallest id sequence read from src; None if there is none.

    Every simple path is enumerated, so this is exponential: small models only.
    """
    edges = [(e.superior, e.inferior) for e in model.role_edges]
    best: Optional[tuple[str, ...]] = None
    stack: list[tuple[str, ...]] = [(src,)]
    while stack:
        path = stack.pop()
        if path[-1] == dst:
            if best is None or (len(path), path) < (len(best), best):
                best = path
            continue
        for sup, inf in edges:
            if sup == path[-1] and inf not in path:
                stack.append(path + (inf,))
    return best


def brute_aggregation_sources(model: PolicyModel, attribute_id: str) -> set[str]:
    """Transitive sources by rescanning the aggregation list to a fixpoint."""
    sources: set[str] = set()
    changed = True
    while changed:
        changed = False
        for agg in model.aggregations:
            if agg.product == attribute_id or agg.product in sources:
                for src in (agg.left, agg.right):
                    if src != attribute_id and src not in sources:
                        sources.add(src)
                        changed = True
    return sources


def brute_reach(nodes: set[str], edges: list[tuple[str, str]]) -> dict[str, set[str]]:
    """Each node's reachable set, itself included, by rescanning the edges to a
    fixpoint.  Every endpoint must be in `nodes`."""
    reach = {node: {node} for node in nodes}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if not reach[b] <= reach[a]:
                reach[a] |= reach[b]
                changed = True
    return reach


def brute_cycles(nodes: set[str], edges: list[tuple[str, str]]) -> list[list[str]]:
    """Components of more than one node, sorted, from reachability computed
    by rescanning the edges to a fixpoint: two nodes share a component iff
    each reaches the other.  Edges with an endpoint outside `nodes` are
    ignored."""
    reach = brute_reach(nodes, [(a, b) for a, b in edges if a in nodes and b in nodes])
    components = {frozenset(m for m in reach[n] if n in reach[m]) for n in nodes}
    return sorted(sorted(c) for c in components if len(c) > 1)


_TRI_AND = {
    (TriBool.TRUE, TriBool.TRUE): TriBool.TRUE,
    (TriBool.TRUE, TriBool.UNKNOWN): TriBool.UNKNOWN,
    (TriBool.TRUE, TriBool.FALSE): TriBool.FALSE,
    (TriBool.UNKNOWN, TriBool.TRUE): TriBool.UNKNOWN,
    (TriBool.UNKNOWN, TriBool.UNKNOWN): TriBool.UNKNOWN,
    (TriBool.UNKNOWN, TriBool.FALSE): TriBool.FALSE,
    (TriBool.FALSE, TriBool.TRUE): TriBool.FALSE,
    (TriBool.FALSE, TriBool.UNKNOWN): TriBool.FALSE,
    (TriBool.FALSE, TriBool.FALSE): TriBool.FALSE,
}

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _resolve(operand: Operand, ctx: EvalContext):
    if isinstance(operand, Var):
        return ctx[operand.name] if operand.name in ctx else None
    return operand


def brute_evaluate(expr: ConditionExpr, ctx: EvalContext) -> TriBool:
    """Expand every chain into its adjacent pairs and fold the Kleene table.

    Assumes well-typed input (the generators only produce comparable pairs);
    type errors are out of scope here.
    """
    result = TriBool.TRUE
    for chain in expr.chains:
        for i, op in enumerate(chain.ops):
            left = _resolve(chain.operands[i], ctx)
            right = _resolve(chain.operands[i + 1], ctx)
            if left is None or right is None:
                pair = TriBool.UNKNOWN
            else:
                pair = TriBool.TRUE if _OPS[op](left, right) else TriBool.FALSE
            result = _TRI_AND[(result, pair)]
    return result


def brute_effective_purposes(model: PolicyModel, role_id: str) -> list[tuple[str, Optional[ConditionExpr], str]]:
    """(purpose, condition, via) triples from the role and its brute inferiors."""
    usable = {role_id} | brute_inferiors(model, role_id)
    triples = {
        (g.purpose, g.condition, g.role)
        for g in model.rp_grants
        if g.role in usable
    }
    return sorted(triples, key=lambda t: (t[0], t[2]))


def brute_can_access(
    model: PolicyModel,
    role_id: str,
    attribute_id: str,
    purpose_id: Optional[str],
    ctx: EvalContext,
) -> str:
    """Outcome only, by enumerating every (grant, source) pair exhaustively."""
    outcomes: list[TriBool] = []
    for purpose, grant_cond, _via in brute_effective_purposes(model, role_id):
        if purpose_id is not None and purpose != purpose_id:
            continue
        p = model.purposes_by_id[purpose]
        pt = {(c.purpose, c.task): c.condition for c in model.pt_conditions}
        pair_conds: list[list[ConditionExpr]] = []
        for task_id in p.tasks:
            task = model.tasks_by_id[task_id]
            if task.reads == attribute_id:
                conds = [grant_cond, pt.get((purpose, task_id))]
                pair_conds.append([c for c in conds if c is not None])
        for grant in model.pg_grants:
            if grant.purpose != purpose:
                continue
            members = {a.id for a in model.attributes if grant.group in a.groups}
            if attribute_id in members:
                conds = [grant_cond, grant.condition]
                pair_conds.append([c for c in conds if c is not None])
        for conds in pair_conds:
            verdict = TriBool.TRUE
            for cond in conds:
                verdict = _TRI_AND[(verdict, brute_evaluate(cond, ctx))]
            outcomes.append(verdict)
    if TriBool.TRUE in outcomes:
        return "Allow"
    if TriBool.UNKNOWN in outcomes:
        return "Conditional"
    return "Deny"


def whole_access_index(model: PolicyModel) -> dict[str, tuple[tuple[tuple, ...], ...]]:
    """Every attribute's sources at once, by the formula the access index was
    first built with: each purpose's sources (its tasks in task-list order,
    each with its first condition, then its granted groups' members in grant
    order) inverted by attribute, grouped by (purpose, source id) in order.
    Raises as that build did: for a purpose's unknown task, then for a
    grant's unknown group."""
    sources = {p.id: _task_sources(model, p) for p in model.purposes_by_id.values()}
    for grant in model.pg_grants:
        sources.setdefault(grant.purpose, []).extend(_group_sources(model, grant))
    index: dict[str, list[tuple]] = {}
    for entries in sources.values():
        for entry in entries:
            index.setdefault(entry[0], []).append(entry)
    tie = itemgetter(1, 2)
    return {a: tuple(tuple(group) for _, group in groupby(sorted(entries, key=tie), tie))
            for a, entries in index.items()}


def purpose_sources(model: PolicyModel, purpose_id: str) -> list[tuple]:
    """One purpose's sources by that formula; raises for it, then its task, then its group."""
    purpose = model.purpose(purpose_id)
    grants = [grant for grant in model.pg_grants if grant.purpose == purpose_id]
    return _task_sources(model, purpose) + [e for g in grants for e in _group_sources(model, g)]


def _task_sources(model: PolicyModel, purpose) -> list[tuple]:
    conditions = [(c.task, c.condition) for c in model.pt_conditions if c.purpose == purpose.id]
    return [(task.reads, purpose.id, task.id, "task", task.via,
             next((cond for t, cond in conditions if t == task.id), None))
            for task in map(model.task, purpose.tasks)]


def _group_sources(model: PolicyModel, grant) -> list[tuple]:
    return [(attribute, grant.purpose, grant.group, "group", None, grant.condition)
            for attribute in model.group_members(grant.group)]


def loop_model(name: str, decls) -> tuple[PolicyModel, list[tuple[str, int, str]]]:
    """`dsl._model` as it was before it built column by column: one
    declaration at a time, an attribute's repeats merged as they come."""
    entries: dict[str, list] = {section.field: [] for section in _SECTIONS}
    attributes: list[Attribute] = entries["attributes"]
    attr_index: dict[str, int] = {}
    problems: list[tuple[str, int, str]] = []

    for i, decl in enumerate(decls):
        if type(decl) is not AttributeDecl:
            entries[_FIELD_BY_ENTRY[type(decl)]].append(decl)
        elif decl.id not in attr_index:
            attr_index[decl.id] = len(attributes)
            attributes.append(
                Attribute(decl.id, decl.label, frozenset(decl.groups), decl.collected)
            )
        else:
            # Re-declaration: merge group sets and collection votes so a
            # policy's own contradictions stay representable.
            existing = attributes[attr_index[decl.id]]
            if existing.label != decl.label:
                message = (
                    f"attribute {decl.id!r} redeclared with a different label "
                    f"({existing.label!r} vs {decl.label!r})"
                )
                # Ordered among the duplicate-id errors, as a kind of one.
                problems.append(("duplicate-id", i, message))
                continue
            votes = {existing.collected, decl.collected} - {None}
            conflict = existing.collected_conflict or len(votes) > 1
            attributes[attr_index[decl.id]] = existing._replace(
                groups=existing.groups | frozenset(decl.groups),
                collected=None if conflict else next(iter(votes), None),
                collected_conflict=conflict,
            )

    derived = {a.product for a in entries["aggregations"]}
    entries["attributes"] = [
        attr._replace(derived=True) if attr.id in derived else attr for attr in attributes
    ]
    return PolicyModel(name, **{field: tuple(e) for field, e in entries.items()}), problems


def loop_emit_graph(model: PolicyModel, options: RenderOptions = RenderOptions()) -> str:
    """`render.emit_graph` as it was before it built the attribute nodes in one
    walk: a set and a sort per attribute, and a node list per purpose's chain."""
    by_id = attrgetter("id")
    require_valid(model, "rendering")
    layers = _selected_layers(options)
    legend = options.show_legend
    purposes = sorted(model.purposes, key=by_id)
    tasks = sorted(model.tasks, key=by_id)
    ids = [e.id for kind in (model.roles, model.purposes, model.tasks, model.attributes,
                             model.groups) for e in kind]
    esc = dict(zip(ids, escape_strings(ids)))
    texts = condition_texts(model.rp_grants, model.pt_conditions, model.pg_grants)
    labels = {key: f', label="{escape_string(text)}"' for key, text in texts.items()}
    lines = [f'digraph "{escape_string(model.name)}" {{']

    if "roles" in layers:
        roles = sorted(model.roles, key=by_id)
        body = [f'    "role:{e}" [shape=ellipse, label="{e}"];' for e in [esc[r.id] for r in roles]]
        lines += _cluster("roles", "Roles", roles, legend, body)
    if "purposes" in layers:
        body = [f'    "purpose:{e}" [shape=ellipse, label="{e}"];'
                for e in [esc[p.id] for p in purposes]]
        body += [f'    "task:{e}" [shape=point, xlabel="{e}"];' for e in [esc[t.id] for t in tasks]]
        lines += _cluster("purposes", "Purposes", purposes + tasks, legend, body)
    if "attributes" in layers:
        attributes = sorted(model.attributes, key=by_id)
        granted = {g.group for g in model.pg_grants} if "purpose-attribute" in layers else set()
        body = _loop_attribute_cluster(attributes, granted, options.cluster_groups, esc)
        entities = attributes + sorted(model.groups, key=by_id)
        lines += _cluster("attributes", "Attributes", entities, legend, body)

    if "roles" in layers:
        lines += [f'  "role:{esc[e.superior]}" -> "role:{esc[e.inferior]}";'
                  for e in sorted(model.role_edges, key=attrgetter("superior", "inferior"))]
    if "purposes" in layers:
        colors = {p.id: PALETTE[i % len(PALETTE)] for i, p in enumerate(model.purposes)}
        for purpose in purposes:
            chain = [f'"purpose:{esc[purpose.id]}"', *[f'"task:{esc[t]}"' for t in purpose.tasks]]
            color = colors[purpose.id]
            lines += [f'  {src} -> {dst} [color="{color}"];' for src, dst in zip(chain, chain[1:])]
    if "attributes" in layers:
        pairs = sorted((src, a.product) for a in model.aggregations for src in (a.left, a.right))
        lines += [f'  "attr:{esc[src]}" -> "attr:{esc[dst]}" [style=solid];' for src, dst in pairs]
    if "role-purpose" in layers:
        lines += [f'  "role:{esc[g.role]}" -> "purpose:{esc[g.purpose]}" '
                  f'[style=dashed{labels.get(id(g.condition), "")}];'
                  for g in sorted(model.rp_grants, key=attrgetter("role", "purpose"))]
    if "purpose-attribute" in layers:
        conditions: dict[str, list[str]] = {}
        for c in model.pt_conditions:
            conditions.setdefault(c.task, []).append(f"{c.purpose}: {texts[id(c.condition)]}")
        conditions = {task: sorted(parts) for task, parts in conditions.items()}
        granularities = model.granularities_by_id
        for task in tasks:
            parts = conditions.get(task.id, [])
            if task.via is not None:
                parts = parts + [granularities[task.via].description]
            label = f', label="{escape_string("; ".join(parts))}"' if parts else ""
            lines.append(f'  "task:{esc[task.id]}" -> "attr:{esc[task.reads]}" '
                         f'[style=dashed{label}];')
        lines += [f'  "purpose:{esc[g.purpose]}" -> "group:{esc[g.group]}" '
                  f'[style=dashed{labels.get(id(g.condition), "")}];'
                  for g in sorted(model.pg_grants, key=attrgetter("purpose", "group"))]

    lines.append("}")
    return "\n".join(lines) + "\n"


def _loop_attribute_cluster(
    attributes: list[Attribute], granted: set[str], clustered: bool, esc: dict[str, str]
) -> list[str]:
    """The attributes cluster's body, as `render._attribute_cluster` built it:
    attributes grouped by home, then per attribute its groups but the home, sorted."""
    by_home: dict[Optional[str], list[Attribute]] = {}
    for attr in attributes:
        by_home.setdefault(min(attr.groups) if clustered and attr.groups else None, []).append(attr)
    # (group, indent, anchored group ids) of each block; group None is the loose one.
    blocks: list[tuple[Optional[str], str, Sequence[str]]] = []
    if clustered:
        blocks += [(g, "      ", (g,) if g in granted else ())
                   for g in sorted(by_home.keys() - {None} | granted)]
    blocks.append((None, "    ", () if clustered else sorted(granted)))
    lines = []
    for home, indent, anchors in blocks:
        body = [f'{indent}"group:{esc[g]}" [shape=plaintext, label="{esc[g]}"];' for g in anchors]
        for attr in by_home.get(home, ()):
            groups = sorted(attr.groups - {home})
            tooltip = f', tooltip="{", ".join([esc[g] for g in groups])}"' if groups else ""
            body.append(f'{indent}"attr:{esc[attr.id]}" [shape=ellipse, label="{esc[attr.id]}"'
                        f'{tooltip}];')
        if home is None:
            lines += body
        else:
            name = f"cluster_group_{esc[home]}"
            name = name if name.isidentifier() else f'"{name}"'
            lines += [f"    subgraph {name} {{", f'      label="{esc[home]}";', *body, "    }"]
    return lines


def brute_spans(text: str, firsts: list[int], ends: list[int]) -> tuple[Span, ...]:
    """The Span of each declaration of `text` from its first and end offsets:
    an offset's line is one more than the line breaks counted before it, and
    its column its distance from the last of them."""
    def position(offset: int) -> tuple[int, int]:
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    return tuple(Span(*position(first), *position(end))
                 for first, end in zip(firsts, ends, strict=True))


def make_time(hh: int, mm: int) -> TimeOfDay:
    return TimeOfDay(hh * 60 + mm)


def brute_lints(model: PolicyModel) -> list[tuple[str, str, tuple[int, ...]]]:
    """Sorted (rule, subject, counts) for L1-L9, each rule read from the
    README's rule table and decided by scanning the model's fields.  counts
    is L5's (needed, unjustified) pair and () for every other rule."""
    granted = {g.purpose for g in model.rp_grants}
    read = {t.reads for t in model.tasks}
    all_ids = {a.id for a in model.attributes}

    def members(group: str) -> set[str]:
        return {a.id for a in model.attributes if group in a.groups}

    def purpose(purpose_id: str):
        return next(p for p in model.purposes if p.id == purpose_id)

    def spans_all(group: str) -> bool:
        return bool(all_ids) and members(group) == all_ids

    found: list[tuple[str, str, tuple[int, ...]]] = []
    for p in model.purposes:
        if p.id not in granted:
            found.append(("L1", p.id, ()))
        elif not p.tasks:
            found.append(("L7", p.id, ()))
    granted_roles = {g.role for g in model.rp_grants}
    for role in model.roles:
        if not ({role.id} | brute_inferiors(model, role.id)) & granted_roles:
            found.append(("L2", role.id, ()))
    for g in model.rp_grants:
        if purpose(g.purpose).universal:
            found.append(("L3", f"{g.role}:{g.purpose}", ()))
    for g in model.pg_grants:
        name = f"{g.purpose}:{g.group}"
        if purpose(g.purpose).universal or spans_all(g.group):
            found.append(("L4", name, ()))
        tasks = [t for t in model.tasks if t.id in purpose(g.purpose).tasks]
        needed = {t.reads for t in tasks} & members(g.group)
        if needed and needed != members(g.group):
            found.append(("L5", name, (len(needed), len(members(g.group) - needed))))
        if not members(g.group):
            found.append(("L8", name, ()))
    covered = {
        a for g in model.pg_grants if not spans_all(g.group) for a in members(g.group)
    }
    for a in model.attributes:
        if a.id not in read and a.id not in covered:
            found.append(("L6", a.id, ()))
        if a.collected_conflict or (a.collected is False and a.id in read):
            found.append(("L9", a.id, ()))
    return sorted(found)
