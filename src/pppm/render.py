"""Deterministic diagram and table rendering for policy models.

`emit_graph` produces DOT text: one digraph, one cluster per selected
component layer, role/purpose nodes as ellipses, tasks as points, group
sub-clusters, solid aggregation arrows into the derived attribute, and dashed
permission edges labeled with their conditions.  All iteration is sorted and
line endings are LF, so output is byte-stable for a given model + options.

`emit_tables` produces a tab-separated report with one block per entity or
connection kind, mirroring the layout policies are usually tabulated in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conditions import escape_string, render_condition
from .model import PolicyModel, require_valid

COMPONENT_LAYERS = ("roles", "purposes", "attributes")
CONNECTION_LAYERS = ("role-purpose", "purpose-attribute")
ALL_LAYERS = COMPONENT_LAYERS + CONNECTION_LAYERS

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


@dataclass(frozen=True)
class RenderOptions:
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
            selected.add(layer)
        else:
            raise ValueError(f"unknown layer {layer!r}")
    # Connection layers need their endpoints drawn.
    if "role-purpose" in selected:
        selected.update(("roles", "purposes"))
    if "purpose-attribute" in selected:
        selected.update(("purposes", "attributes"))
    return frozenset(selected)


def _legend_label(title: str, entries: list[tuple[str, str]], show: bool) -> str:
    if not show or not entries:
        return escape_string(title)
    parts = [title] + [f"{eid} = {label}" for eid, label in entries]
    return "\\l".join(escape_string(part) for part in parts) + "\\l"


def emit_graph(model: PolicyModel, options: RenderOptions = RenderOptions()) -> str:
    """DOT text for the selected layers of a valid model."""
    require_valid(model, "rendering")
    layers = _selected_layers(options)
    lines: list[str] = [f'digraph "{escape_string(model.name)}" {{']

    if "roles" in layers:
        legend = _legend_label(
            "Roles",
            sorted((r.id, r.label) for r in model.roles),
            options.show_legend,
        )
        lines.append("  subgraph cluster_roles {")
        lines.append(f'    label="{legend}";')
        for role in sorted(model.roles, key=lambda r: r.id):
            lines.append(f'    "role:{role.id}" [shape=ellipse, label="{escape_string(role.id)}"];')
        lines.append("  }")

    if "purposes" in layers:
        entries = sorted((p.id, p.label) for p in model.purposes)
        entries += sorted((t.id, t.label) for t in model.tasks)
        legend = _legend_label("Purposes", entries, options.show_legend)
        lines.append("  subgraph cluster_purposes {")
        lines.append(f'    label="{legend}";')
        for purpose in sorted(model.purposes, key=lambda p: p.id):
            lines.append(
                f'    "purpose:{purpose.id}" [shape=ellipse, label="{escape_string(purpose.id)}"];'
            )
        for task in sorted(model.tasks, key=lambda t: t.id):
            lines.append(f'    "task:{task.id}" [shape=point, xlabel="{escape_string(task.id)}"];')
        lines.append("  }")

    if "attributes" in layers:
        lines.extend(_attribute_cluster(model, options, layers))

    lines.extend(_edges(model, layers))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _attribute_cluster(
    model: PolicyModel, options: RenderOptions, layers: frozenset[str]
) -> list[str]:
    entries = sorted((a.id, a.label) for a in model.attributes)
    entries += sorted((g.id, g.label) for g in model.groups)
    legend = _legend_label("Attributes", entries, options.show_legend)
    lines = ["  subgraph cluster_attributes {", f'    label="{legend}";']

    granted_groups = (
        {g.group for g in model.pg_grants} if "purpose-attribute" in layers else set()
    )

    def node(attr, indent: str, tooltip_groups: list[str]) -> str:
        extra = ""
        if tooltip_groups:
            tooltip = ", ".join(tooltip_groups)
            extra = f', tooltip="{escape_string(tooltip)}"'
        return (
            f'{indent}"attr:{attr.id}" [shape=ellipse, '
            f'label="{escape_string(attr.id)}"{extra}];'
        )

    if options.cluster_groups:
        # Each attribute is drawn in its first group (lexicographic).
        by_home: dict[str, list] = {}
        ungrouped = []
        for attr in sorted(model.attributes, key=lambda a: a.id):
            if attr.groups:
                by_home.setdefault(min(attr.groups), []).append(attr)
            else:
                ungrouped.append(attr)
        for group_id in sorted(by_home.keys() | granted_groups):
            lines.append(f"    subgraph cluster_group_{group_id} {{")
            lines.append(f'      label="{escape_string(group_id)}";')
            if group_id in granted_groups:
                lines.append(
                    f'      "group:{group_id}" [shape=plaintext, '
                    f'label="{escape_string(group_id)}"];'
                )
            for attr in by_home.get(group_id, ()):
                lines.append(node(attr, "      ", sorted(attr.groups - {group_id})))
            lines.append("    }")
        for attr in ungrouped:
            lines.append(node(attr, "    ", []))
    else:
        for group_id in sorted(granted_groups):
            lines.append(
                f'    "group:{group_id}" [shape=plaintext, label="{escape_string(group_id)}"];'
            )
        for attr in sorted(model.attributes, key=lambda a: a.id):
            lines.append(node(attr, "    ", sorted(attr.groups)))

    lines.append("  }")
    return lines


def _conditions_by_task(model: PolicyModel) -> dict[str, list[str]]:
    """Each task's "purpose: condition" texts, sorted."""
    by_task: dict[str, list[str]] = {}
    for c in model.pt_conditions:
        by_task.setdefault(c.task, []).append(f"{c.purpose}: {render_condition(c.condition)}")
    return {task: sorted(texts) for task, texts in by_task.items()}


def _edges(model: PolicyModel, layers: frozenset[str]) -> list[str]:
    lines: list[str] = []

    if "roles" in layers:
        for edge in sorted(model.role_edges, key=lambda e: (e.superior, e.inferior)):
            lines.append(f'  "role:{edge.superior}" -> "role:{edge.inferior}";')

    if "purposes" in layers:
        palette_index = {p.id: i % len(PALETTE) for i, p in enumerate(model.purposes)}
        for purpose in sorted(model.purposes, key=lambda p: p.id):
            if not purpose.tasks:
                continue
            color = PALETTE[palette_index[purpose.id]]
            chain = [f'"purpose:{purpose.id}"'] + [f'"task:{t}"' for t in purpose.tasks]
            for src, dst in zip(chain, chain[1:]):
                lines.append(f'  {src} -> {dst} [color="{color}"];')

    if "attributes" in layers:
        pairs = sorted(
            (src, a.product)
            for a in model.aggregations
            for src in (a.left, a.right)
        )
        for src, product in pairs:
            lines.append(f'  "attr:{src}" -> "attr:{product}" [style=solid];')

    if "role-purpose" in layers:
        for grant in sorted(model.rp_grants, key=lambda g: (g.role, g.purpose)):
            attrs = "style=dashed"
            if grant.condition is not None:
                attrs += f', label="{escape_string(render_condition(grant.condition))}"'
            lines.append(f'  "role:{grant.role}" -> "purpose:{grant.purpose}" [{attrs}];')

    if "purpose-attribute" in layers:
        conditions = _conditions_by_task(model)
        for task in sorted(model.tasks, key=lambda t: t.id):
            parts = list(conditions.get(task.id, ()))
            if task.via is not None:
                parts.append(model.granularity(task.via).description)
            attrs = "style=dashed"
            if parts:
                attrs += f', label="{escape_string("; ".join(parts))}"'
            lines.append(f'  "task:{task.id}" -> "attr:{task.reads}" [{attrs}];')
        for grant in sorted(model.pg_grants, key=lambda g: (g.purpose, g.group)):
            attrs = "style=dashed"
            if grant.condition is not None:
                attrs += f', label="{escape_string(render_condition(grant.condition))}"'
            lines.append(f'  "purpose:{grant.purpose}" -> "group:{grant.group}" [{attrs}];')

    return lines


def emit_tables(model: PolicyModel) -> str:
    """Tab-separated report: eight blocks, header row then data rows."""
    require_valid(model, "rendering")
    blocks: list[str] = []

    def block(title: str, header: list[str], rows: list[list[str]]) -> None:
        lines = [f"== {title} ==", "\t".join(header)]
        lines.extend("\t".join(row) for row in rows)
        blocks.append("\n".join(lines))

    block("roles", ["id", "label"], [[r.id, r.label] for r in model.roles])

    block(
        "purposes",
        ["id", "label", "universal"],
        [[p.id, p.label, "yes" if p.universal else ""] for p in model.purposes],
    )

    def collected_text(attr) -> str:
        if attr.collected_conflict:
            return "conflict"
        if attr.collected is None:
            return ""
        return "yes" if attr.collected else "no"

    block(
        "attributes",
        ["id", "label", "groups", "collected"],
        [
            [a.id, a.label, ", ".join(sorted(a.groups)), collected_text(a)]
            for a in model.attributes
        ],
    )

    block(
        "role hierarchy",
        ["superior", "inferior"],
        [[e.superior, e.inferior] for e in model.role_edges],
    )

    block(
        "purpose tasks",
        ["purpose", "tasks"],
        [[p.id, ", ".join(p.tasks)] for p in model.purposes if p.tasks],
    )

    block(
        "aggregations",
        ["left", "right", "product"],
        [[a.left, a.right, a.product] for a in model.aggregations],
    )

    block(
        "role-purpose grants",
        ["role", "purpose", "condition"],
        [
            [
                g.role,
                g.purpose,
                render_condition(g.condition) if g.condition is not None else "",
            ]
            for g in model.rp_grants
        ],
    )

    conditions = _conditions_by_task(model)
    block(
        "task bindings",
        ["task", "attribute", "condition", "granularity"],
        [
            [
                t.id,
                t.reads,
                "; ".join(conditions.get(t.id, ())),
                model.granularity(t.via).description if t.via is not None else "",
            ]
            for t in model.tasks
        ],
    )

    return "\n\n".join(blocks) + "\n"
