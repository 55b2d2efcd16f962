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
from typing import NamedTuple, Optional

from .conditions import (collector_paused, condition_texts, escape_string, escape_strings, tsv,
                         value_type)
from .model import Attribute, PolicyModel, require_valid

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
        legend = escape_strings([f"{e.id} = {e.label}" for e in entities])
        label = "\\l".join([title, *legend]) + "\\l"
    return [f"  subgraph cluster_{name} {{", f'    label="{label}";', *body, "  }"]


def _conditions_by_task(model: PolicyModel, texts: dict[int, str]) -> dict[str, str]:
    """Each task's "purpose: condition" texts, sorted, "; "-joined; `texts` as `condition_texts`."""
    by_task: dict[str, list[str]] = {}
    for c in model.pt_conditions:
        by_task.setdefault(c.task, []).append(f"{c.purpose}: {texts[id(c.condition)]}")
    return {task: "; ".join(sorted(parts)) for task, parts in by_task.items()}


def emit_graph(model: PolicyModel, options: RenderOptions = RenderOptions()) -> str:
    """DOT text for the selected layers of a valid model."""
    require_valid(model, "rendering")
    layers = _selected_layers(options)
    legend = options.show_legend
    purposes = sorted(model.purposes, key=_BY_ID)
    tasks = sorted(model.tasks, key=_BY_ID)
    # Every id escaped once; a valid model's references are among its ids.
    ids = [e.id for kind in (model.roles, model.purposes, model.tasks, model.attributes,
                             model.groups) for e in kind]
    esc = dict(zip(ids, escape_strings(ids)))
    texts = condition_texts(model.rp_grants, model.pt_conditions, model.pg_grants)
    # The label attribute of each grant's edge, by its condition's id; none without one.
    labels = {key: f', label="{escape_string(text)}"' for key, text in texts.items()}
    lines = [f'digraph "{escape_string(model.name)}" {{']

    if "roles" in layers:
        roles = sorted(model.roles, key=_BY_ID)
        body = [f'    "role:{e}" [shape=ellipse, label="{e}"];' for e in [esc[r.id] for r in roles]]
        lines += _cluster("roles", "Roles", roles, legend, body)
    if "purposes" in layers:
        body = [f'    "purpose:{e}" [shape=ellipse, label="{e}"];'
                for e in [esc[p.id] for p in purposes]]
        body += [f'    "task:{e}" [shape=point, xlabel="{e}"];' for e in [esc[t.id] for t in tasks]]
        lines += _cluster("purposes", "Purposes", purposes + tasks, legend, body)
    if "attributes" in layers:
        attributes = sorted(model.attributes, key=_BY_ID)
        granted = {g.group for g in model.pg_grants} if "purpose-attribute" in layers else set()
        body = _attribute_cluster(attributes, granted, options.cluster_groups, esc)
        entities = attributes + sorted(model.groups, key=_BY_ID)
        lines += _cluster("attributes", "Attributes", entities, legend, body)

    if "roles" in layers:
        lines += [f'  "role:{esc[e.superior]}" -> "role:{esc[e.inferior]}";'
                  for e in sorted(model.role_edges, key=attrgetter("superior", "inferior"))]
    if "purposes" in layers:
        colors = {p.id: PALETTE[i % len(PALETTE)] for i, p in enumerate(model.purposes)}
        for purpose in purposes:
            src, color = f'"purpose:{esc[purpose.id]}"', colors[purpose.id]
            for task in purpose.tasks:
                dst = f'"task:{esc[task]}"'
                lines.append(f'  {src} -> {dst} [color="{color}"];')
                src = dst
    if "attributes" in layers:
        pairs = sorted((src, a.product) for a in model.aggregations for src in (a.left, a.right))
        lines += [f'  "attr:{esc[src]}" -> "attr:{esc[dst]}" [style=solid];' for src, dst in pairs]
    if "role-purpose" in layers:
        lines += [f'  "role:{esc[g.role]}" -> "purpose:{esc[g.purpose]}" '
                  f'[style=dashed{labels.get(id(g.condition), "")}];'
                  for g in sorted(model.rp_grants, key=attrgetter("role", "purpose"))]
    if "purpose-attribute" in layers:
        conditions = _conditions_by_task(model, texts)
        granularities = model.granularities_by_id
        for task in tasks:
            label = conditions.get(task.id)
            if task.via is not None:
                via = granularities[task.via].description
                label = via if label is None else f"{label}; {via}"
            label = "" if label is None else f', label="{escape_string(label)}"'
            lines.append(f'  "task:{esc[task.id]}" -> "attr:{esc[task.reads]}" '
                         f'[style=dashed{label}];')
        lines += [f'  "purpose:{esc[g.purpose]}" -> "group:{esc[g.group]}" '
                  f'[style=dashed{labels.get(id(g.condition), "")}];'
                  for g in sorted(model.pg_grants, key=attrgetter("purpose", "group"))]

    lines += ("}", "")  # the last line break too: one copy of the text
    return "\n".join(lines)


def _attribute_cluster(
    attributes: list[Attribute], granted: set[str], clustered: bool, esc: dict[str, str]
) -> list[str]:
    """The attributes cluster's body: group anchors for `granted` and one node per
    attribute, its tooltip its groups but the one it is drawn in.  Clustered, each
    attribute is drawn in the sub-cluster of its first group (lexicographic), if any."""
    nodes: dict[Optional[str], list[str]] = {None: []}  # each block's lines; None's is loose
    for g in sorted(granted):  # a group's anchor starts its block; unclustered, the loose one
        home, indent, e = (g, "      ", esc[g]) if clustered else (None, "    ", esc[g])
        nodes.setdefault(home, []).append(f'{indent}"group:{e}" [shape=plaintext, label="{e}"];')
    for attr in attributes:
        groups, home, tooltip = attr.groups, None, ""
        if clustered and len(groups) == 1:
            (home,) = groups
        elif groups:  # sorted once: clustered, the first is the home and the rest the tooltip
            groups = sorted(groups)
            home = groups.pop(0) if clustered else None
            tooltip = f', tooltip="{", ".join([esc[g] for g in groups])}"'
        indent, e = "    " if home is None else "      ", esc[attr.id]
        line = f'{indent}"attr:{e}" [shape=ellipse, label="{e}"{tooltip}];'
        nodes.setdefault(home, []).append(line)
    lines = []
    for home in sorted(nodes.keys() - {None}):
        # A Python identifier is also a DOT identifier; any other name is quoted.
        name = f"cluster_group_{esc[home]}"
        name = name if name.isidentifier() else f'"{name}"'
        lines += [f"    subgraph {name} {{", f'      label="{esc[home]}";', *nodes[home], "    }"]
    return lines + nodes[None]


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
    texts = condition_texts(model.rp_grants, model.pt_conditions, model.pg_grants)
    conditions = _conditions_by_task(model, texts)
    granularities = model.granularities_by_id
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
         [(g.role, g.purpose, texts.get(id(g.condition), "")) for g in model.rp_grants]),
        ("task bindings", ("task", "attribute", "condition", "granularity"),
         [(t.id, t.reads, conditions.get(t.id, ""),
           "" if t.via is None else granularities[t.via].description) for t in model.tasks]),
    )
    return "\n".join(f"== {title} ==\n" + tsv([header, *rows]) for title, header, rows in blocks)
