"""Deterministic diagram and table rendering for policy models.

`emit_graph` produces DOT text: one digraph, one cluster per selected
component layer, role/purpose nodes as ellipses, tasks as points, group
sub-clusters, solid aggregation arrows into the derived attribute, and dashed
permission edges labeled with their conditions.  All iteration is sorted and
line endings are LF, so output is byte-stable for a given model + options.

Each drawn element is the DOT node named by its kind and id: `"role:ID"`,
`"purpose:ID"`, `"task:ID"`, `"attr:ID"`, and `"group:ID"` for a group that a
drawn purpose-group grant points at, with the id escaped as in a quoted DOT
string.  Every edge joins two such nodes.

`emit_tables` produces a tab-separated report with one block per entity or
connection kind, mirroring the layout policies are usually tabulated in.  A
tab, CR or LF inside a cell is written as `\\t`, `\\r` or `\\n`, so each row
has as many fields as its header; backslashes are written as they are.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .conditions import collector_paused, escape_string, render_condition, tsv, value_type
from .model import Attribute, PolicyModel, Task, require_valid

COMPONENT_LAYERS = ("roles", "purposes", "attributes")
CONNECTION_LAYERS = ("role-purpose", "purpose-attribute")
ALL_LAYERS = COMPONENT_LAYERS + CONNECTION_LAYERS

# The component layers whose nodes each connection layer's edges join.
_ENDPOINTS = {
    "role-purpose": ("roles", "purposes"),
    "purpose-attribute": ("purposes", "attributes"),
}

# Fixed palette cycled by purpose position for task-sequence edges.
PALETTE = (
    "#1b9e77",
    "#d95f02",
    "#7570b3",
    "#e7298a",
    "#66a61e",
    "#e6ab02",
    "#a6761d",
    "#666666",
)

_BY_ID = attrgetter("id")


@value_type
class RenderOptions(NamedTuple):
    layers: tuple[str, ...] = ("all",)
    show_legend: bool = True
    cluster_groups: bool = True


def _selected_layers(options: RenderOptions) -> frozenset[str]:
    if not options.layers:
        raise ValueError("at least one layer must be selected")
    selected: set[str] = set()
    for layer in options.layers:
        if layer == "all":
            selected.update(ALL_LAYERS)
        elif layer in ALL_LAYERS:
            selected.update((layer, *_ENDPOINTS.get(layer, ())))
        else:
            raise ValueError(f"unknown layer {layer!r}")
    return frozenset(selected)


def _cluster(
    name: str, title: str, entities: list, show_legend: bool, body: list[str]
) -> list[str]:
    """One component cluster; its label lists `entities` as "id = label" when shown."""
    label = title
    if show_legend and entities:
        legend = [title] + [escape_string(f"{e.id} = {e.label}") for e in entities]
        label = "\\l".join(legend) + "\\l"
    return [f"  subgraph cluster_{name} {{", f'    label="{label}";', *body, "  }"]


def _node(kind: str, entity_id: str) -> str:
    """The quoted DOT name of the `kind` node drawn for `entity_id`."""
    return f'"{kind}:{escape_string(entity_id)}"'


def _edge(src: str, dst: str, attrs: str, label: Optional[str] = None) -> str:
    """A DOT edge between node names with `attrs`; `label` None draws none,
    "" an empty one."""
    if label is not None:
        attrs += f', label="{escape_string(label)}"'
    return f"  {src} -> {dst} [{attrs}];"


def _condition_text(grant) -> Optional[str]:
    return None if grant.condition is None else render_condition(grant.condition)


def _granularity_text(model: PolicyModel, task: Task) -> Optional[str]:
    return None if task.via is None else model.granularity(task.via).description


def _conditions_by_task(model: PolicyModel) -> dict[str, list[str]]:
    """Each task's "purpose: condition" texts, sorted."""
    by_task: dict[str, list[str]] = {}
    for c in model.pt_conditions:
        by_task.setdefault(c.task, []).append(f"{c.purpose}: {render_condition(c.condition)}")
    return {task: sorted(texts) for task, texts in by_task.items()}


def emit_graph(model: PolicyModel, options: RenderOptions = RenderOptions()) -> str:
    """DOT text for the selected layers of a valid model."""
    require_valid(model, "rendering")
    layers = _selected_layers(options)
    legend = options.show_legend
    purposes = sorted(model.purposes, key=_BY_ID)
    tasks = sorted(model.tasks, key=_BY_ID)
    lines = [f'digraph "{escape_string(model.name)}" {{']

    if "roles" in layers:
        roles = sorted(model.roles, key=_BY_ID)
        body = [f'    {_node("role", r.id)} [shape=ellipse, label="{escape_string(r.id)}"];'
                for r in roles]
        lines += _cluster("roles", "Roles", roles, legend, body)
    if "purposes" in layers:
        body = [f'    {_node("purpose", p.id)} [shape=ellipse, label="{escape_string(p.id)}"];'
                for p in purposes]
        body += [f'    {_node("task", t.id)} [shape=point, xlabel="{escape_string(t.id)}"];'
                 for t in tasks]
        lines += _cluster("purposes", "Purposes", purposes + tasks, legend, body)
    if "attributes" in layers:
        attributes = sorted(model.attributes, key=_BY_ID)
        granted = {g.group for g in model.pg_grants} if "purpose-attribute" in layers else set()
        body = _attribute_cluster(attributes, granted, options.cluster_groups)
        entities = attributes + sorted(model.groups, key=_BY_ID)
        lines += _cluster("attributes", "Attributes", entities, legend, body)

    if "roles" in layers:
        for e in sorted(model.role_edges, key=attrgetter("superior", "inferior")):
            lines.append(f'  {_node("role", e.superior)} -> {_node("role", e.inferior)};')
    if "purposes" in layers:
        colors = {p.id: PALETTE[i % len(PALETTE)] for i, p in enumerate(model.purposes)}
        for purpose in purposes:
            chain = [_node("purpose", purpose.id)] + [_node("task", t) for t in purpose.tasks]
            color = f'color="{colors[purpose.id]}"'
            lines.extend(_edge(src, dst, color) for src, dst in zip(chain, chain[1:]))
    if "attributes" in layers:
        pairs = sorted((src, a.product) for a in model.aggregations for src in (a.left, a.right))
        lines.extend(_edge(_node("attr", src), _node("attr", dst), "style=solid")
                     for src, dst in pairs)
    if "role-purpose" in layers:
        for g in sorted(model.rp_grants, key=attrgetter("role", "purpose")):
            lines.append(_edge(_node("role", g.role), _node("purpose", g.purpose),
                               "style=dashed", _condition_text(g)))
    if "purpose-attribute" in layers:
        conditions = _conditions_by_task(model)
        for task in tasks:
            parts = conditions.get(task.id, [])
            via = _granularity_text(model, task)
            if via is not None:
                parts = parts + [via]
            label = "; ".join(parts) if parts else None
            lines.append(_edge(_node("task", task.id), _node("attr", task.reads),
                               "style=dashed", label))
        for g in sorted(model.pg_grants, key=attrgetter("purpose", "group")):
            lines.append(_edge(_node("purpose", g.purpose), _node("group", g.group),
                               "style=dashed", _condition_text(g)))

    lines.append("}")
    return "\n".join(lines) + "\n"


def _attribute_node(attr: Attribute, indent: str, groups: Sequence[str]) -> str:
    """An attribute node; `groups`, when any, are its tooltip."""
    tooltip = f', tooltip="{escape_string(", ".join(groups))}"' if groups else ""
    label = escape_string(attr.id)
    return f'{indent}{_node("attr", attr.id)} [shape=ellipse, label="{label}"{tooltip}];'


def _group_anchor(group_id: str, indent: str) -> str:
    label = escape_string(group_id)
    return f'{indent}{_node("group", group_id)} [shape=plaintext, label="{label}"];'


def _attribute_cluster(
    attributes: list[Attribute], granted: set[str], clustered: bool
) -> list[str]:
    """The attributes cluster's body: group anchors for `granted` and one node per attribute."""
    if not clustered:
        lines = [_group_anchor(group_id, "    ") for group_id in sorted(granted)]
        return lines + [_attribute_node(a, "    ", sorted(a.groups)) for a in attributes]
    # Each attribute is drawn in its first group (lexicographic).
    by_home: dict[str, list[Attribute]] = {}
    for attr in attributes:
        if attr.groups:
            by_home.setdefault(min(attr.groups), []).append(attr)
    lines = []
    for group_id in sorted(by_home.keys() | granted):
        # A Python identifier is also a DOT identifier; any other name is quoted.
        name = f"cluster_group_{group_id}"
        if not name.isidentifier():
            name = f'"{escape_string(name)}"'
        lines.append(f"    subgraph {name} {{")
        lines.append(f'      label="{escape_string(group_id)}";')
        if group_id in granted:
            lines.append(_group_anchor(group_id, "      "))
        for attr in by_home.get(group_id, ()):
            lines.append(_attribute_node(attr, "      ", sorted(attr.groups - {group_id})))
        lines.append("    }")
    return lines + [_attribute_node(a, "    ", ()) for a in attributes if not a.groups]


def _collected_text(attr: Attribute) -> str:
    if attr.collected_conflict:
        return "conflict"
    if attr.collected is None:
        return ""
    return "yes" if attr.collected else "no"


@collector_paused
def emit_tables(model: PolicyModel) -> str:
    """Tab-separated report: eight blocks, header row then data rows."""
    require_valid(model, "rendering")
    conditions = _conditions_by_task(model)
    blocks = (
        ("roles", ("id", "label"), [(r.id, r.label) for r in model.roles]),
        ("purposes", ("id", "label", "universal"),
         [(p.id, p.label, "yes" if p.universal else "") for p in model.purposes]),
        ("attributes", ("id", "label", "groups", "collected"),
         [(a.id, a.label, ", ".join(sorted(a.groups)), _collected_text(a))
          for a in model.attributes]),
        ("role hierarchy", ("superior", "inferior"),
         [(e.superior, e.inferior) for e in model.role_edges]),
        ("purpose tasks", ("purpose", "tasks"),
         [(p.id, ", ".join(p.tasks)) for p in model.purposes if p.tasks]),
        ("aggregations", ("left", "right", "product"),
         [(a.left, a.right, a.product) for a in model.aggregations]),
        ("role-purpose grants", ("role", "purpose", "condition"),
         [(g.role, g.purpose, _condition_text(g) or "") for g in model.rp_grants]),
        ("task bindings", ("task", "attribute", "condition", "granularity"),
         [(t.id, t.reads, "; ".join(conditions.get(t.id, ())), _granularity_text(model, t) or "")
          for t in model.tasks]),
    )
    return "\n".join(f"== {title} ==\n" + tsv([header, *rows]) for title, header, rows in blocks)
