"""Core domain types for permission models extracted from privacy policies.

A model holds roles (who accesses data), purposes (why, as ordered task
lists), tasks (atomic steps, each reading exactly one attribute), attributes
with optional group memberships, plus the connections: a role hierarchy,
attribute aggregations, role-purpose grants, per-(purpose, task) conditions,
and purpose-group grants.

Models are immutable after construction and safe to share across threads.
Lookup caches, the access index and the per-role closure memo are filled
lazily on first use; sharing them stays safe because every fill is
idempotent, so threads that race store equal values.  `validate` checks every
structural invariant and returns a report instead of raising, so callers can
show all problems at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

from .conditions import ConditionExpr


class UnknownEntityError(LookupError):
    """An id does not name an entity of the requested kind."""


class InvalidModelError(ValueError):
    """The requested operation needs a model that passes validation."""


@dataclass(frozen=True)
class Role:
    id: str
    label: str


@dataclass(frozen=True)
class RoleEdge:
    superior: str
    inferior: str


@dataclass(frozen=True)
class AttributeGroup:
    id: str
    label: str


@dataclass(frozen=True)
class Attribute:
    id: str
    label: str
    groups: frozenset[str] = frozenset()
    # True = stated as collected, False = stated as not collected,
    # None = the policy does not say.
    collected: Optional[bool] = None
    # True when declarations contradict each other; collected is then None.
    collected_conflict: bool = False
    # True iff the attribute is the product of some aggregation.
    derived: bool = False


@dataclass(frozen=True)
class Aggregation:
    left: str
    right: str
    product: str


@dataclass(frozen=True)
class GranularityFn:
    """Named precision conversion (e.g. a date-to-age reduction); opaque."""

    id: str
    description: str


@dataclass(frozen=True)
class Task:
    id: str
    label: str
    reads: str
    via: Optional[str] = None


@dataclass(frozen=True)
class Purpose:
    id: str
    label: str
    tasks: tuple[str, ...] = ()
    universal: bool = False


@dataclass(frozen=True)
class RolePurposeGrant:
    role: str
    purpose: str
    condition: Optional[ConditionExpr] = None


@dataclass(frozen=True)
class PurposeTaskCondition:
    purpose: str
    task: str
    condition: ConditionExpr


@dataclass(frozen=True)
class PurposeGroupGrant:
    purpose: str
    group: str
    condition: Optional[ConditionExpr] = None


@dataclass(frozen=True)
class PolicyModel:
    name: str
    roles: tuple[Role, ...] = ()
    role_edges: tuple[RoleEdge, ...] = ()
    groups: tuple[AttributeGroup, ...] = ()
    attributes: tuple[Attribute, ...] = ()
    aggregations: tuple[Aggregation, ...] = ()
    granularities: tuple[GranularityFn, ...] = ()
    tasks: tuple[Task, ...] = ()
    purposes: tuple[Purpose, ...] = ()
    rp_grants: tuple[RolePurposeGrant, ...] = ()
    pt_conditions: tuple[PurposeTaskCondition, ...] = ()
    pg_grants: tuple[PurposeGroupGrant, ...] = ()

    # Lookup caches live in __dict__ and do not take part in equality.
    @cached_property
    def roles_by_id(self) -> dict[str, Role]:
        return {r.id: r for r in self.roles}

    @cached_property
    def groups_by_id(self) -> dict[str, AttributeGroup]:
        return {g.id: g for g in self.groups}

    @cached_property
    def attributes_by_id(self) -> dict[str, Attribute]:
        return {a.id: a for a in self.attributes}

    @cached_property
    def granularities_by_id(self) -> dict[str, GranularityFn]:
        return {g.id: g for g in self.granularities}

    @cached_property
    def tasks_by_id(self) -> dict[str, Task]:
        return {t.id: t for t in self.tasks}

    @cached_property
    def purposes_by_id(self) -> dict[str, Purpose]:
        return {p.id: p for p in self.purposes}

    @cached_property
    def members_by_group(self) -> dict[str, tuple[str, ...]]:
        """Attribute ids per group, in declaration order."""
        members: dict[str, list[str]] = {g.id: [] for g in self.groups}
        for a in self.attributes:
            for group_id in a.groups:
                members.setdefault(group_id, []).append(a.id)
        return {g: tuple(ids) for g, ids in members.items()}

    @cached_property
    def children_by_role(self) -> dict[str, tuple[str, ...]]:
        """Each superior's direct inferiors, sorted and deduplicated."""
        children: dict[str, set[str]] = {}
        for edge in self.role_edges:
            children.setdefault(edge.superior, set()).add(edge.inferior)
        return {role: tuple(sorted(ids)) for role, ids in children.items()}

    @cached_property
    def grants_by_role(self) -> dict[str, tuple[RolePurposeGrant, ...]]:
        """Each role's own purpose grants, in declaration order."""
        grants: dict[str, list[RolePurposeGrant]] = {}
        for grant in self.rp_grants:
            grants.setdefault(grant.role, []).append(grant)
        return {role: tuple(g) for role, g in grants.items()}

    @cached_property
    def sources_by_purpose(self) -> dict[str, tuple[SourceEntry, ...]]:
        """What each purpose reaches: its tasks in task-list order, then the
        members of its granted groups in grant order."""
        conditions = {(c.purpose, c.task): c.condition for c in self.pt_conditions}
        sources: dict[str, list[SourceEntry]] = {p: [] for p in self.purposes_by_id}
        for purpose in self.purposes_by_id.values():
            for task_id in purpose.tasks:
                task = self.task(task_id)
                condition = conditions.get((purpose.id, task_id))
                sources[purpose.id].append(
                    (task.reads, purpose.id, task_id, "task", task.via, condition)
                )
        for grant in self.pg_grants:
            for attribute_id in self.group_members(grant.group):
                sources.setdefault(grant.purpose, []).append(
                    (attribute_id, grant.purpose, grant.group, "group", None, grant.condition)
                )
        return {p: tuple(entries) for p, entries in sources.items()}

    @cached_property
    def sources_by_attribute(self) -> dict[str, tuple[SourceEntry, ...]]:
        """`sources_by_purpose` inverted, each purpose's entries kept in order."""
        index: dict[str, list[SourceEntry]] = {}
        for entries in self.sources_by_purpose.values():
            for entry in entries:
                index.setdefault(entry[0], []).append(entry)
        return {a: tuple(entries) for a, entries in index.items()}

    @cached_property
    def _role_closures(self) -> dict[str, RoleClosure]:
        """Memo for `role_closure`, filled one role at a time."""
        return {}

    @cached_property
    def validation_errors(self) -> tuple[ValidationError, ...]:
        """The `validate` report, computed once per model."""
        return tuple(validate(self))

    def role(self, role_id: str) -> Role:
        return _lookup(self.roles_by_id, role_id, "role")

    def group(self, group_id: str) -> AttributeGroup:
        return _lookup(self.groups_by_id, group_id, "group")

    def attribute(self, attribute_id: str) -> Attribute:
        return _lookup(self.attributes_by_id, attribute_id, "attribute")

    def granularity(self, fn_id: str) -> GranularityFn:
        return _lookup(self.granularities_by_id, fn_id, "granularity function")

    def task(self, task_id: str) -> Task:
        return _lookup(self.tasks_by_id, task_id, "task")

    def purpose(self, purpose_id: str) -> Purpose:
        return _lookup(self.purposes_by_id, purpose_id, "purpose")

    def group_members(self, group_id: str) -> tuple[str, ...]:
        """Ids of attributes belonging to `group_id`, in declaration order."""
        self.group(group_id)
        return self.members_by_group[group_id]

    def role_closure(self, role_id: str) -> RoleClosure:
        """What `role_id` reaches down the hierarchy, computed once per role.

        One breadth-first search over the sorted children gives the
        inferiors and the first-found parent of each; the usable grants are
        the role's own and every inferior's, first declaration per (purpose,
        supplying role).  Unknown ids raise UnknownEntityError.
        """
        if role_id in self._role_closures:
            return self._role_closures[role_id]
        self.role(role_id)
        children = self.children_by_role
        parent: dict[str, str] = {}
        queue = deque([role_id])
        while queue:
            current = queue.popleft()
            for child in children.get(current, ()):
                if child != role_id and child not in parent:
                    parent[child] = current
                    queue.append(child)
        usable: dict[tuple[str, str], RolePurposeGrant] = {}
        for role in (role_id, *parent):
            for grant in self.grants_by_role.get(role, ()):
                usable.setdefault((grant.purpose, role), grant)
        grants: dict[str, list[RolePurposeGrant]] = {}
        for key in sorted(usable):
            grants.setdefault(key[0], []).append(usable[key])
        closure = RoleClosure(role_id, parent, {p: tuple(g) for p, g in grants.items()})
        self._role_closures[role_id] = closure
        return closure


# (attribute, purpose, source id, "task" | "group", granularity, condition)
SourceEntry = tuple[str, str, str, str, Optional[str], Optional[ConditionExpr]]


class RoleClosure(NamedTuple):
    """A role's view of the hierarchy below it; see `PolicyModel.role_closure`."""

    role: str
    # Each inferior, breadth-first with ties by id, to the role it was first
    # reached from.  The role itself is never a key.
    parent: dict[str, str]
    grants: dict[str, tuple[RolePurposeGrant, ...]]  # purpose -> grants by role; purposes sorted

    def hops(self, inferior: str) -> tuple[str, ...]:
        """Shortest chain from the role down to `inferior`, ties by id."""
        chain = [inferior]
        while chain[-1] != self.role:
            chain.append(self.parent[chain[-1]])
        return tuple(reversed(chain))


def _lookup(table, key: str, kind: str):
    try:
        return table[key]
    except KeyError:
        raise UnknownEntityError(f"unknown {kind} {key!r}") from None


@dataclass(frozen=True)
class ValidationError:
    """One violated invariant.

    `where` is the (PolicyModel field, index) of the entry the error is
    about, such as ("tasks", 2); `dsl.lower` reports the error at that
    entry's declaration.  It takes no part in equality or the report order.
    """

    rule: str
    subject: str
    message: str
    where: tuple[str, int] = field(compare=False)


def validate(model: PolicyModel) -> list[ValidationError]:
    """Return every violated structural invariant; empty list iff valid.

    References may dangle in the input; nothing is mutated.  The report is
    sorted by (rule, subject, message) so repeated runs are byte-identical.
    A duplicated id is reported at each entry after the first, and a
    reference to it resolves to the first.  A cycle is reported at its first
    role edge, or at the first aggregation whose product lies on it.
    """
    errors: list[ValidationError] = []

    def err(rule: str, subject: str, message: str, where: tuple[str, int]) -> None:
        errors.append(ValidationError(rule, subject, message, where))

    for kind, name, entities in (
        ("role", "roles", model.roles),
        ("group", "groups", model.groups),
        ("attribute", "attributes", model.attributes),
        ("granularity function", "granularities", model.granularities),
        ("task", "tasks", model.tasks),
        ("purpose", "purposes", model.purposes),
    ):
        seen: set[str] = set()
        for i, entity in enumerate(entities):
            if entity.id in seen:
                err("duplicate-id", entity.id, f"duplicate {kind} id {entity.id!r}", (name, i))
            seen.add(entity.id)

    role_ids = {r.id for r in model.roles}
    group_ids = {g.id for g in model.groups}
    attr_ids = {a.id for a in model.attributes}
    gran_ids = {g.id for g in model.granularities}
    task_ids = {t.id for t in model.tasks}
    # Reversed, so that a duplicated purpose id maps to its first declaration.
    purposes_by_id = {p.id: p for p in reversed(model.purposes)}

    for i, role in enumerate(model.roles):
        if not role.label:
            err("empty-label", role.id, f"role {role.id!r} has an empty label", ("roles", i))

    seen_edges: set[tuple[str, str]] = set()
    for i, edge in enumerate(model.role_edges):
        subject = f"{edge.superior}->{edge.inferior}"
        where = ("role_edges", i)
        for endpoint in (edge.superior, edge.inferior):
            if endpoint not in role_ids:
                err("unknown-id", subject, f"unknown role {endpoint!r} in role_hierarchy", where)
        if edge.superior == edge.inferior:
            err("role-self-edge", subject,
                f"role {edge.superior!r} cannot be its own inferior", where)
        if (edge.superior, edge.inferior) in seen_edges:
            err("duplicate-role-edge", subject,
                f"duplicate role edge {edge.superior} -> {edge.inferior}", where)
        seen_edges.add((edge.superior, edge.inferior))

    edge_sites = [(e.superior, e.inferior) if e.superior != e.inferior else () for e in model.role_edges]
    role_sccs = _cycles(role_ids, [site for site in edge_sites if site])
    for scc, i in zip(role_sccs, _first_sites(role_sccs, edge_sites)):
        names = ", ".join(scc)
        err("role-cycle", ",".join(scc), f"roles form a hierarchy cycle: {names}", ("role_edges", i))

    for i, attribute in enumerate(model.attributes):
        where = ("attributes", i)
        for group_id in sorted(attribute.groups):
            if group_id not in group_ids:
                err("unknown-id", attribute.id,
                    f"attribute {attribute.id!r} references unknown group {group_id!r}", where)
        if attribute.collected_conflict and attribute.collected is not None:
            err("collected-conflict-flag", attribute.id,
                f"attribute {attribute.id!r} marks a collection conflict but also a definite flag",
                where)

    products = {a.product for a in model.aggregations}
    for i, aggregation in enumerate(model.aggregations):
        subject = f"({aggregation.left},{aggregation.right})->{aggregation.product}"
        where = ("aggregations", i)
        for ref in (aggregation.left, aggregation.right, aggregation.product):
            if ref not in attr_ids:
                err("unknown-id", subject, f"unknown attribute {ref!r} in aggregation", where)
        if aggregation.product in (aggregation.left, aggregation.right):
            err("aggregation-self", subject,
                f"aggregation product {aggregation.product!r} cannot be one of its sources", where)

    agg_edges = [
        (src, a.product)
        for a in model.aggregations
        for src in (a.left, a.right)
        if src != a.product
    ]
    agg_sccs = _cycles(attr_ids | products, agg_edges)
    product_sites = [(a.product,) for a in model.aggregations]
    for scc, i in zip(agg_sccs, _first_sites(agg_sccs, product_sites)):
        names = ", ".join(scc)
        err("aggregation-cycle", ",".join(scc),
            f"attributes form a derivation cycle: {names}", ("aggregations", i))

    for i, attribute in enumerate(model.attributes):
        if attribute.derived != (attribute.id in products):
            err("derived-flag", attribute.id,
                f"attribute {attribute.id!r} derived flag does not match the aggregations",
                ("attributes", i))

    for i, task in enumerate(model.tasks):
        where = ("tasks", i)
        if task.reads not in attr_ids:
            err("unknown-id", task.id,
                f"task {task.id!r} reads unknown attribute {task.reads!r}", where)
        if task.via is not None and task.via not in gran_ids:
            err("unknown-id", task.id,
                f"task {task.id!r} uses unknown granularity function {task.via!r}", where)

    for i, purpose in enumerate(model.purposes):
        where = ("purposes", i)
        seen_tasks: set[str] = set()
        for task_id in purpose.tasks:
            if task_id not in task_ids:
                err("unknown-id", purpose.id,
                    f"purpose {purpose.id!r} lists unknown task {task_id!r}", where)
            if task_id in seen_tasks:
                err("duplicate-task-in-purpose", purpose.id,
                    f"purpose {purpose.id!r} lists task {task_id!r} more than once", where)
            seen_tasks.add(task_id)

    seen_grants: set[tuple[str, str]] = set()
    for i, grant in enumerate(model.rp_grants):
        subject = f"{grant.role}:{grant.purpose}"
        where = ("rp_grants", i)
        if grant.role not in role_ids:
            err("unknown-id", subject, f"unknown role {grant.role!r} in role_purpose", where)
        if grant.purpose not in purposes_by_id:
            err("unknown-id", subject,
                f"unknown purpose {grant.purpose!r} in role_purpose", where)
        if (grant.role, grant.purpose) in seen_grants:
            err("duplicate-grant", subject,
                f"role {grant.role!r} is granted purpose {grant.purpose!r} more than once", where)
        seen_grants.add((grant.role, grant.purpose))

    seen_ptc: set[tuple[str, str]] = set()
    for i, ptc in enumerate(model.pt_conditions):
        subject = f"{ptc.purpose}:{ptc.task}"
        where = ("pt_conditions", i)
        purpose = purposes_by_id.get(ptc.purpose)
        if purpose is None:
            err("unknown-id", subject,
                f"unknown purpose {ptc.purpose!r} in purpose_task_conditions", where)
        if ptc.task not in task_ids:
            err("unknown-id", subject,
                f"unknown task {ptc.task!r} in purpose_task_conditions", where)
        elif purpose is not None and ptc.task not in purpose.tasks:
            err("task-not-in-purpose", subject,
                f"task {ptc.task!r} is not part of purpose {ptc.purpose!r}", where)
        if (ptc.purpose, ptc.task) in seen_ptc:
            err("duplicate-task-condition", subject,
                f"purpose {ptc.purpose!r} conditions task {ptc.task!r} more than once", where)
        seen_ptc.add((ptc.purpose, ptc.task))

    seen_pg: set[tuple[str, str]] = set()
    for i, grant in enumerate(model.pg_grants):
        subject = f"{grant.purpose}:{grant.group}"
        where = ("pg_grants", i)
        if grant.purpose not in purposes_by_id:
            err("unknown-id", subject,
                f"unknown purpose {grant.purpose!r} in purpose_group", where)
        if grant.group not in group_ids:
            err("unknown-id", subject, f"unknown group {grant.group!r} in purpose_group", where)
        if (grant.purpose, grant.group) in seen_pg:
            err("duplicate-group-grant", subject,
                f"purpose {grant.purpose!r} is granted group {grant.group!r} more than once",
                where)
        seen_pg.add((grant.purpose, grant.group))

    errors.sort(key=lambda e: (e.rule, e.subject, e.message))
    return errors


def require_valid(model: PolicyModel, operation: str) -> None:
    """Raise InvalidModelError, naming `operation`, unless the model is valid."""
    problems = model.validation_errors
    if problems:
        raise InvalidModelError(
            f"model has {len(problems)} validation error(s); {operation} requires a valid model"
        )


def _first_sites(sccs: list[list[str]], sites: list[tuple[str, ...]]) -> list[int]:
    """For each SCC, the index of the first site whose nodes all lie in it."""
    scc_of = {node: k for k, scc in enumerate(sccs) for node in scc}
    first: dict[int, int] = {}
    for i, nodes in enumerate(sites):
        ks = {scc_of.get(node) for node in nodes}
        if len(ks) == 1 and None not in ks:
            first.setdefault(ks.pop(), i)
    return [first[k] for k in range(len(sccs))]


def _cycles(nodes: set[str], edges: list[tuple[str, str]]) -> list[list[str]]:
    """Strongly connected components with more than one node, sorted.

    Self-edges are reported separately by the caller, so singleton SCCs are
    ignored here.  Iterative Tarjan keeps deep hierarchies off the call stack.
    """
    adjacency: dict[str, list[str]] = {}
    for src, dst in edges:
        if src in nodes and dst in nodes:
            adjacency.setdefault(src, []).append(dst)
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    sccs: list[list[str]] = []

    # A node without an outgoing edge is a singleton SCC, so only the
    # sources of edges start a search.
    for start in sorted(adjacency):
        if start in index:
            continue
        work: list[tuple[str, int]] = [(start, 0)]
        while work:
            node, child_idx = work.pop()
            if child_idx == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = adjacency.get(node, ())
            for i in range(child_idx, len(children)):
                child = children[i]
                if child not in index:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sorted(sccs)


def inferiors(model: PolicyModel, role_id: str) -> list[str]:
    """Roles transitively below `role_id`, breadth-first, ties by id.

    The role itself is excluded, even when a cycle or self-edge of an
    invalid model leads back to it.  Unknown ids raise UnknownEntityError.
    """
    return list(model.role_closure(role_id).parent)


def aggregation_sources(model: PolicyModel, attribute_id: str) -> set[str]:
    """All attributes the target is transitively derived from."""
    model.attribute(attribute_id)
    upstream: dict[str, set[str]] = {}
    for aggregation in model.aggregations:
        upstream.setdefault(aggregation.product, set()).update(
            (aggregation.left, aggregation.right)
        )
    sources: set[str] = set()
    frontier = deque([attribute_id])
    while frontier:
        current = frontier.popleft()
        for src in upstream.get(current, ()):
            if src not in sources:
                sources.add(src)
                frontier.append(src)
    sources.discard(attribute_id)
    return sources
