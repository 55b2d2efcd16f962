"""Privacy policy permission models: parse, validate, lint, query, render.

The package models a privacy policy as roles, purposes, tasks, and data
attributes, plus the grants that connect them.  Policies are written in a
small declarative text format, checked for structural gaps, and queried for
concrete access decisions.

`import pppm` loads no submodule: each public name is imported from its
submodule on first use (PEP 562), so a caller pays only for what it uses.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Each public name, written once, under the submodule that defines it.
_EXPORTS = {
    "conditions": ("ConditionError", "ConditionExpr", "ConditionSyntaxError",
                   "ConditionTypeError", "EvalContext", "TimeOfDay", "TriBool", "evaluate",
                   "parse_condition", "render_condition"),
    "dsl": ("Declarations", "LoweringError", "ParseError", "Span", "load_policy", "lower",
            "parse_policy", "serialize"),
    "lints": ("Finding", "LintConfig", "LintRule", "RULES", "format_findings", "run_lints"),
    "model": ("Aggregation", "Attribute", "AttributeGroup", "GranularityFn",
              "InvalidModelError", "PolicyModel", "Purpose", "PurposeGroupGrant",
              "PurposeTaskCondition", "Role", "RoleEdge", "RolePurposeGrant", "Task",
              "UnknownEntityError", "ValidationError", "aggregation_sources", "inferiors",
              "validate"),
    "query": ("AccessPath", "AttributeSource", "Decision", "EffectiveGrant", "Outcome",
              "QueryEvaluationError", "accessible_attributes", "can_access",
              "effective_purposes"),
    "render": ("RenderOptions", "emit_graph", "emit_tables"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str) -> object:
    """Import public `name` from its submodule and keep it as a module global."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
