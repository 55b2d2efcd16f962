"""Core domain types for permission models extracted from privacy policies.

A model holds roles (who accesses data), purposes (why, as ordered task
lists), tasks (atomic steps, each reading exactly one attribute), attributes
with optional group memberships, plus the connections: a role hierarchy,
attribute aggregations, role-purpose grants, per-(purpose, task) conditions,
and purpose-group grants.  Each reachability walk over the hierarchy or the
aggregations (role closures, `aggregation_sources`, lint L2, each cycle that
`validate` reports) is one `reach`.

Models are immutable after construction and safe to share across threads.
Lookup caches and the per-role and per-attribute memos of the access index
are filled lazily on first use; sharing them stays safe because every fill
is idempotent, so threads that race store equal values.  No per-purpose
view is kept: `query.accessible_attributes` builds one purpose's sources on
each call.  The six `*_by_id` maps resolve a duplicated id to its first
declaration.

`validate` checks every structural invariant and returns a report instead of
raising, so callers can show all problems at once.  Each reference rule is a
row of `_REFERENCES`, checked against the id maps, and each uniqueness rule a
row of `_KEYS`; one loop walks each table.  A row is checked in bulk, a column
at a time, and its entries are walked one by one only to place a problem.
`subject` names an entry for its report, and the lint findings name theirs
the same way.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, partial
from itertools import chain, groupby
from operator import attrgetter, is_not, itemgetter
from typing import Container, Iterable, Mapping, NamedTuple, Optional

from .conditions import ConditionExpr, value_type


class UnknownEntityError(LookupError):
    """An id does not name an entity of the requested kind."""


class InvalidModelError(ValueError):
    """The requested operation needs a model that passes validation."""


@value_type
class Role(NamedTuple):
    id: str
    label: str


@value_type
class RoleEdge(NamedTuple):
    superior: str
    inferior: str


@value_type
class AttributeGroup(NamedTuple):
    id: str
    label: str


@value_type
class Attribute(NamedTuple):
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


@value_type
class Aggregation(NamedTuple):
    left: str
    right: str
    product: str


@value_type
class GranularityFn(NamedTuple):
    """Named precision conversion (e.g. a date-to-age reduction); opaque."""

    id: str
    description: str


@value_type
class Task(NamedTuple):
    id: str
    label: str
    reads: str
    via: Optional[str] = None


@value_type
class Purpose(NamedTuple):
    id: str
    label: str
    tasks: tuple[str, ...] = ()
    universal: bool = False


@value_type
class RolePurposeGrant(NamedTuple):
    role: str
    purpose: str
    condition: Optional[ConditionExpr] = None


@value_type
class PurposeTaskCondition(NamedTuple):
    purpose: str
    task: str
    condition: ConditionExpr


@value_type
class PurposeGroupGrant(NamedTuple):
    purpose: str
    group: str
    condition: Optional[ConditionExpr] = None


class _PolicyModelFields(NamedTuple):
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


@value_type
class PolicyModel(_PolicyModelFields):
    """A policy's entities and connections, each field a tuple in declaration
    order.  The class has no `__slots__`: its lookup caches live in the
    instance's `__dict__` and take no part in equality."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: a PolicyModel is immutable")

    @cached_property
    def roles_by_id(self) -> dict[str, Role]:
        return _first_by_id(self.roles)

    @cached_property
    def groups_by_id(self) -> dict[str, AttributeGroup]:
        return _first_by_id(self.groups)

    @cached_property
    def attributes_by_id(self) -> dict[str, Attribute]:
        return _first_by_id(self.attributes)

    @cached_property
    def granularities_by_id(self) -> dict[str, GranularityFn]:
        return _first_by_id(self.granularities)

    @cached_property
    def tasks_by_id(self) -> dict[str, Task]:
        return _first_by_id(self.tasks)

    @cached_property
    def purposes_by_id(self) -> dict[str, Purpose]:
        return _first_by_id(self.purposes)

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
    def _source_maps(self) -> tuple[dict, dict, dict]:
        """The access index's parts, each linear in the model and built in this
        order, so a purpose's unknown task raises before a grant's unknown group:
        each attribute's task entries, purpose by purpose, each with its first
        condition; each group's grants; and each attribute's groups, a group
        once per time it lists the attribute."""
        conditions = {(c.purpose, c.task): c.condition for c in reversed(self.pt_conditions)}
        tasks_by_id = self.tasks_by_id  # `task` only for an unknown id, which raises
        listings = [(task.reads, purpose.id, task.id, "task", task.via,
                     conditions.get((purpose.id, task.id)))
                    for purpose in self.purposes_by_id.values() for task_id in purpose.tasks
                    for task in [tasks_by_id.get(task_id) or self.task(task_id)]]
        tasks: dict[str, list[SourceEntry]] = {}
        for entry in listings:
            tasks.setdefault(entry[0], []).append(entry)
        grants: dict[str, list[PurposeGroupGrant]] = {}
        for grant in self.pg_grants:
            self.group(grant.group)
            grants.setdefault(grant.group, []).append(grant)
        groups: dict[str, list[str]] = {}
        for group_id, members in self.members_by_group.items():
            for attribute_id in members:
                groups.setdefault(attribute_id, []).append(group_id)
        return tasks, grants, groups

    @cached_property
    def _sources_by_attribute(self) -> dict[str, tuple[tuple[SourceEntry, ...], ...]]:
        """Memo for `attribute_sources`, filled one attribute at a time; read
        by `query.can_access` directly."""
        return {}

    def attribute_sources(self, attribute_id: str) -> tuple[tuple[SourceEntry, ...], ...]:
        """What reaches `attribute_id`, computed once per attribute: its task
        entries and its groups' grants, grouped by (purpose, source id) in order;
        a group keeps source order, a task before a group."""
        self.attribute(attribute_id)
        tasks, grants, groups = self._source_maps
        entries = list(tasks.get(attribute_id, ()))
        for group_id, count in Counter(groups.get(attribute_id, ())).items():
            for grant in grants.get(group_id, ()):
                entries += [(attribute_id, grant.purpose, group_id, "group", None,
                             grant.condition)] * count
        entries.sort(key=_TIE)
        sources = tuple(tuple(group) for _, group in groupby(entries, _TIE))
        self._sources_by_attribute[attribute_id] = sources
        return sources

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

        `reach` down the sorted children gives the inferiors, breadth-first,
        and the first-found parent of each; the usable grants are
        the role's own and every inferior's, first declaration per (purpose,
        supplying role).  Unknown ids raise UnknownEntityError.
        """
        if role_id in self._role_closures:
            return self._role_closures[role_id]
        self.role(role_id)
        parent = reach(self.children_by_role, (role_id,))
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
_TIE = itemgetter(1, 2)  # the (purpose, source id) a source entry ties on


class RoleClosure(NamedTuple):
    """A role's view of the hierarchy below it; see `PolicyModel.role_closure`."""

    role: str
    # Each inferior, breadth-first with ties by id, to the role it was first
    # reached from.  The role itself is never a key.
    parent: dict[str, str]
    grants: dict[str, tuple[RolePurposeGrant, ...]]  # purpose -> grants by role; purposes sorted

    def hops(self, inferior: str) -> tuple[str, ...]:
        """Shortest chain from the role down to `inferior`, ties by id."""
        role, parent = self.role, self.parent
        path = [inferior]
        while path[-1] != role:
            path.append(parent[path[-1]])
        path.reverse()
        return tuple(path)


def _first_by_id(entities: tuple) -> dict:
    """Each id's first declaration, in declaration order."""
    by_id = dict(zip(map(_ID, entities), entities))
    if len(by_id) < len(entities):  # an id repeats: keep its place, put its first last
        by_id.update(zip(map(_ID, reversed(entities)), reversed(entities)))
    return by_id


def _lookup(table, key: str, kind: str):
    try:
        return table[key]
    except KeyError:
        raise UnknownEntityError(f"unknown {kind} {key!r}") from None


class ValidationError(NamedTuple):
    """One violated invariant.

    `where` is the (PolicyModel field, index) of the entry the error is
    about, such as ("tasks", 2); `dsl.lower` reports the error at that
    entry's declaration.  It takes no part in equality or the report order.
    """

    rule: str
    subject: str
    message: str
    where: tuple[str, int]


value_type(ValidationError, compared=3)


_ID = attrgetter("id")

# How a report names an entry; the entries of other fields are named by id.
_SUBJECTS = {
    "role_edges": lambda e: f"{e.superior}->{e.inferior}",
    "aggregations": lambda e: f"({e.left},{e.right})->{e.product}",
    "rp_grants": lambda e: f"{e.role}:{e.purpose}",
    "pt_conditions": lambda e: f"{e.purpose}:{e.task}",
    "pg_grants": lambda e: f"{e.purpose}:{e.group}",
}


def subject(name: str, entry) -> str:
    """How a report names `entry` of the PolicyModel field `name`."""
    return _SUBJECTS.get(name, _ID)(entry)


# (rule, field, key, message): an entry whose key an earlier entry of the
# field already has is reported.
_KEYS = (
    ("duplicate-id", "roles", _ID, "duplicate role id {e.id!r}"),
    ("duplicate-id", "groups", _ID, "duplicate group id {e.id!r}"),
    ("duplicate-id", "attributes", _ID, "duplicate attribute id {e.id!r}"),
    ("duplicate-id", "granularities", _ID, "duplicate granularity function id {e.id!r}"),
    ("duplicate-id", "tasks", _ID, "duplicate task id {e.id!r}"),
    ("duplicate-id", "purposes", _ID, "duplicate purpose id {e.id!r}"),
    ("duplicate-role-edge", "role_edges", attrgetter("superior", "inferior"),
     "duplicate role edge {e.superior} -> {e.inferior}"),
    ("duplicate-grant", "rp_grants", attrgetter("role", "purpose"),
     "role {e.role!r} is granted purpose {e.purpose!r} more than once"),
    ("duplicate-task-condition", "pt_conditions", attrgetter("purpose", "task"),
     "purpose {e.purpose!r} conditions task {e.task!r} more than once"),
    ("duplicate-group-grant", "pg_grants", attrgetter("purpose", "group"),
     "purpose {e.purpose!r} is granted group {e.group!r} more than once"),
)

# (field, id map of the kind referred to, the entry columns naming ids,
# message): each named id missing from the map is an `unknown-id` report.
_REFERENCES = (
    ("role_edges", "roles_by_id", ("superior", "inferior"), "unknown role {ref!r} in role_hierarchy"),
    ("attributes", "groups_by_id", ("groups",), "attribute {e.id!r} references unknown group {ref!r}"),
    ("aggregations", "attributes_by_id", ("left", "right", "product"),
     "unknown attribute {ref!r} in aggregation"),
    ("tasks", "attributes_by_id", ("reads",), "task {e.id!r} reads unknown attribute {ref!r}"),
    ("tasks", "granularities_by_id", ("via",),
     "task {e.id!r} uses unknown granularity function {ref!r}"),
    ("purposes", "tasks_by_id", ("tasks",), "purpose {e.id!r} lists unknown task {ref!r}"),
    ("rp_grants", "roles_by_id", ("role",), "unknown role {ref!r} in role_purpose"),
    ("rp_grants", "purposes_by_id", ("purpose",), "unknown purpose {ref!r} in role_purpose"),
    ("pt_conditions", "purposes_by_id", ("purpose",),
     "unknown purpose {ref!r} in purpose_task_conditions"),
    ("pt_conditions", "tasks_by_id", ("task",), "unknown task {ref!r} in purpose_task_conditions"),
    ("pg_grants", "purposes_by_id", ("purpose",), "unknown purpose {ref!r} in purpose_group"),
    ("pg_grants", "groups_by_id", ("group",), "unknown group {ref!r} in purpose_group"),
)


def _named(entries: Iterable, column: str) -> Iterable:
    """The ids that `column` of `entries` names, in order: each of a `groups` or
    `tasks` collection, and none for a `via` of None."""
    values = map(attrgetter(column), entries)
    if column in ("groups", "tasks"):
        return chain.from_iterable(values)
    return filter(partial(is_not, None), values) if column == "via" else values


def validate(model: PolicyModel) -> list[ValidationError]:
    """Return every violated structural invariant; empty list iff valid.

    References may dangle in the input; nothing is mutated.  The report is
    sorted by (rule, subject, message) so repeated runs are byte-identical.
    A duplicated id is reported at each entry after the first, and a
    reference to it resolves to the first.  A cycle is reported at its first
    role edge, or at the first aggregation whose product lies on it.
    """
    errors: list[ValidationError] = []

    def report(rule: str, name: str, i: int, message: str, ref: str = "") -> None:
        entry = getattr(model, name)[i]
        message = message.format(e=entry, ref=ref)
        errors.append(ValidationError(rule, subject(name, entry), message, (name, i)))

    for rule, name, key, message in _KEYS:
        entries = getattr(model, name)
        keys = getattr(model, name + "_by_id") if key is _ID else set(map(key, entries))
        if len(keys) < len(entries):
            seen: set = set()
            for i, entry in enumerate(entries):
                k = key(entry)
                if k in seen:
                    report(rule, name, i, message)
                seen.add(k)

    for name, by_id, columns, message in _REFERENCES:
        known, entries = getattr(model, by_id), getattr(model, name)
        if not set().union(*(_named(entries, column) for column in columns)).difference(known):
            continue
        for i, entry in enumerate(entries):
            for ref in chain.from_iterable(_named((entry,), column) for column in columns):
                if ref not in known:
                    report("unknown-id", name, i, message, ref)

    for i, role in enumerate(model.roles):
        if not role.label:
            report("empty-label", "roles", i, "role {e.id!r} has an empty label")

    for i, edge in enumerate(model.role_edges):
        if edge.superior == edge.inferior:
            report("role-self-edge", "role_edges", i, "role {e.superior!r} cannot be its own inferior")

    products = {a.product for a in model.aggregations}
    for i, attribute in enumerate(model.attributes):
        if attribute.collected_conflict and attribute.collected is not None:
            report("collected-conflict-flag", "attributes", i,
                   "attribute {e.id!r} marks a collection conflict but also a definite flag")
        if attribute.derived != (attribute.id in products):
            report("derived-flag", "attributes", i,
                   "attribute {e.id!r} derived flag does not match the aggregations")

    for i, aggregation in enumerate(model.aggregations):
        if aggregation.product in (aggregation.left, aggregation.right):
            report("aggregation-self", "aggregations", i,
                   "aggregation product {e.product!r} cannot be one of its sources")

    edge_sites = [(e.superior, e.inferior) if e.superior != e.inferior else () for e in model.role_edges]
    agg_edges = [(src, a.product) for a in model.aggregations for src in (a.left, a.right)
                 if src != a.product]
    for rule, name, nodes, edges, sites, message in (
        ("role-cycle", "role_edges", model.roles_by_id, [site for site in edge_sites if site],
         edge_sites, "roles form a hierarchy cycle: "),
        ("aggregation-cycle", "aggregations", model.attributes_by_id.keys() | products, agg_edges,
         [(a.product,) for a in model.aggregations], "attributes form a derivation cycle: "),
    ):
        sccs = _cycles(nodes, edges)
        for scc, i in zip(sccs, _first_sites(sccs, sites)):
            errors.append(ValidationError(rule, ",".join(scc), message + ", ".join(scc), (name, i)))

    for i, purpose in enumerate(model.purposes):
        seen_tasks: set[str] = set()
        for task_id in purpose.tasks:
            if task_id in seen_tasks:
                report("duplicate-task-in-purpose", "purposes", i,
                       "purpose {e.id!r} lists task {ref!r} more than once", task_id)
            seen_tasks.add(task_id)

    for i, condition in enumerate(model.pt_conditions):
        purpose = model.purposes_by_id.get(condition.purpose)
        if purpose is not None and condition.task in model.tasks_by_id \
                and condition.task not in purpose.tasks:
            report("task-not-in-purpose", "pt_conditions", i,
                   "task {e.task!r} is not part of purpose {e.purpose!r}")

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


def _cycles(nodes: Container[str], edges: list[tuple[str, str]]) -> list[list[str]]:
    """Strongly connected components with more than one node, sorted (the
    caller reports self-edges).  Two passes (Kosaraju-Sharir): an iterative
    depth-first search lists the nodes by finishing time; then, from the last
    finished node back, each node not yet placed takes as its component what
    `reach` finds backwards from it.
    """
    forward: dict[str, list[str]] = {}
    backward: dict[str, list[str]] = {}
    for src, dst in edges:
        if src in nodes and dst in nodes:
            forward.setdefault(src, []).append(dst)
            backward.setdefault(dst, []).append(src)
    finished: list = []
    seen: set[str] = set()
    # (node, iterator over the children it has not yet looked at).  The root None
    # has the edge sources as children: a node with no outgoing edge is on no cycle.
    work = [(None, iter(forward))]
    while work:
        node, children = work[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                work.append((child, iter(forward.get(child, ()))))
                break
        else:
            work.pop()
            finished.append(node)
    finished.pop()  # the root
    sccs: list[list[str]] = []
    placed: set[str] = set()
    for node in reversed(finished):
        if node not in placed:
            component = [node, *reach(backward, (node,)).keys() - placed]
            placed.update(component)
            # Later sweeps stop at placed nodes, whose reversed edges go: each edge walked once.
            for n in component:
                backward.pop(n, None)
            if len(component) > 1:
                sccs.append(sorted(component))
    return sorted(sccs)


def reach(edges: Mapping[str, Iterable[str]], starts: Iterable[str]) -> dict[str, str]:
    """Each node reachable from `starts` but not a start, mapped to the node it
    was first reached from.  Breadth-first: keys come by distance from the
    starts, each node's successors in the order `edges` lists them."""
    queue = list(starts)
    seen = set(queue)
    parent: dict[str, str] = {}
    for node in queue:  # the loop also visits every node appended below
        for successor in edges.get(node, ()):
            if successor not in seen:
                seen.add(successor)
                parent[successor] = node
                queue.append(successor)
    return parent


def inferiors(model: PolicyModel, role_id: str) -> list[str]:
    """Roles transitively below `role_id`, breadth-first, ties by id.

    The role itself is excluded, even when a cycle or self-edge of an
    invalid model leads back to it.  Unknown ids raise UnknownEntityError.
    """
    return list(model.role_closure(role_id).parent)


def aggregation_sources(model: PolicyModel, attribute_id: str) -> set[str]:
    """All attributes the target is transitively derived from."""
    model.attribute(attribute_id)
    upstream: dict[str, list[str]] = {}
    for aggregation in model.aggregations:
        upstream.setdefault(aggregation.product, []).extend((aggregation.left, aggregation.right))
    return set(reach(upstream, (attribute_id,)))
