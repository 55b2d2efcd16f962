"""Equality, hashing, immutability and repr of pppm's value types.

Each value type equals only an instance of its own class: never a plain
tuple, and never another type that holds the same field values (a role is
not an attribute group with the same id and label).
"""

from __future__ import annotations

from collections import namedtuple
from inspect import signature

import pytest

from pppm import (
    AccessPath,
    Aggregation,
    Attribute,
    AttributeGroup,
    AttributeSource,
    Declarations,
    Decision,
    EffectiveGrant,
    Finding,
    GranularityFn,
    LintConfig,
    LintRule,
    Outcome,
    PolicyModel,
    Purpose,
    PurposeGroupGrant,
    PurposeTaskCondition,
    RenderOptions,
    Role,
    RoleEdge,
    RolePurposeGrant,
    Task,
    TimeOfDay,
    ValidationError,
    parse_condition,
)
from pppm.conditions import ConditionExpr

COND = parse_condition("age > 18")
COND_REPR = "ConditionExpr(chains=(Chain(operands=(Var(name='age'), 18), ops=('>',)),))"


def _find(model):
    return ()


# (type, field values, repr): every field given, in field order.
SAMPLES = [
    (TimeOfDay, (90,), "TimeOfDay(minutes=90)"),
    (ConditionExpr, (COND.chains,), COND_REPR),
    (Role, ("r1", "Manager"), "Role(id='r1', label='Manager')"),
    (RoleEdge, ("r1", "r2"), "RoleEdge(superior='r1', inferior='r2')"),
    (AttributeGroup, ("g1", "Personal"), "AttributeGroup(id='g1', label='Personal')"),
    (Attribute, ("d1", "Name", frozenset({"g1"}), True, False, False),
     "Attribute(id='d1', label='Name', groups=frozenset({'g1'}), collected=True, "
     "collected_conflict=False, derived=False)"),
    (Aggregation, ("d1", "d2", "d3"), "Aggregation(left='d1', right='d2', product='d3')"),
    (GranularityFn, ("date2age", "Date2Age"),
     "GranularityFn(id='date2age', description='Date2Age')"),
    (Task, ("t1", "Identify", "d1", None),
     "Task(id='t1', label='Identify', reads='d1', via=None)"),
    (Purpose, ("p1", "Shipment", ("t1",), True),
     "Purpose(id='p1', label='Shipment', tasks=('t1',), universal=True)"),
    (RolePurposeGrant, ("r1", "p1", COND),
     f"RolePurposeGrant(role='r1', purpose='p1', condition={COND_REPR})"),
    (PurposeTaskCondition, ("p1", "t1", COND),
     f"PurposeTaskCondition(purpose='p1', task='t1', condition={COND_REPR})"),
    (PurposeGroupGrant, ("p1", "g1", None),
     "PurposeGroupGrant(purpose='p1', group='g1', condition=None)"),
    (PolicyModel, ("x", (Role("r1", "M"),)) + ((),) * 10,
     "PolicyModel(name='x', roles=(Role(id='r1', label='M'),), role_edges=(), groups=(), "
     "attributes=(), aggregations=(), granularities=(), tasks=(), purposes=(), rp_grants=(), "
     "pt_conditions=(), pg_grants=())"),
    (ValidationError, ("unknown-id", "t1", "no d9", ("tasks", 0)),
     "ValidationError(rule='unknown-id', subject='t1', message='no d9', where=('tasks', 0))"),
    (Declarations, ("x", (), ()), "Declarations(name='x', entries=(), spans=())"),
    (Finding, ("L1", "warning", "p1", "no role"),
     "Finding(rule='L1', severity='warning', subject='p1', message='no role')"),
    # A LintRule's repr holds its function's address.
    (LintRule, ("L0", "none", "info", "finds nothing", "roles", _find), None),
    (LintConfig, (frozenset({"L1"}), {"L2": "error"}),
     "LintConfig(enabled=frozenset({'L1'}), severity_overrides={'L2': 'error'})"),
    (EffectiveGrant, ("p1", None, "r2"), "EffectiveGrant(purpose='p1', condition=None, via='r2')"),
    (AttributeSource, ("d1", "t1", "task", "date2age", None),
     "AttributeSource(attribute='d1', source='t1', kind='task', granularity='date2age', "
     "condition=None)"),
    (AccessPath, ("r1", "r2", ("r1", "r2"), "p1", "t1", "task", None, ()),
     "AccessPath(role='r1', via='r2', hops=('r1', 'r2'), purpose='p1', source='t1', "
     "source_kind='task', granularity=None, conditions=())"),
    (Decision, (Outcome.DENY, (), None),
     "Decision(outcome=<Outcome.DENY: 'Deny'>, residual=(), path=None)"),
    (RenderOptions, (("roles",), False, True),
     "RenderOptions(layers=('roles',), show_legend=False, cluster_groups=True)"),
]


def samples(keep=lambda cls, text: True):
    return [pytest.param(*s, id=s[0].__name__) for s in SAMPLES if keep(s[0], s[2])]


# Two types built from the same field values.
TWINS = [
    (Role, AttributeGroup, ("a", "b")),
    (Role, GranularityFn, ("a", "b")),
    (RoleEdge, Role, ("a", "b")),
    (RolePurposeGrant, PurposeGroupGrant, ("a", "b", None)),
    (RolePurposeGrant, PurposeTaskCondition, ("a", "b", COND)),
    (Aggregation, EffectiveGrant, ("a", "b", "c")),
    (Finding, ValidationError, ("a", "b", "c", "d")),
    (Task, Purpose, ("a", "b", "c", "d")),
    (TimeOfDay, ConditionExpr, (COND.chains,)),
]


@pytest.mark.parametrize("cls, values, text", samples())
def test_equal_only_to_the_same_type(cls, values, text):
    value = cls(*values)
    assert value == cls(*values) and not value != cls(*values)
    assert value != tuple(values) and not value == tuple(values)
    assert tuple(values) != value and not tuple(values) == value
    # A named tuple of another type with the same field values.  (With the
    # twin on the left, tuple's own comparison runs first and finds them equal.)
    twin = namedtuple(cls.__name__, [f"f{i}" for i in range(len(values))])(*values)
    assert value != twin and not value == twin


@pytest.mark.parametrize("left, right, values", TWINS,
                         ids=[f"{a.__name__}-{b.__name__}" for a, b, _ in TWINS])
def test_types_sharing_field_values_differ(left, right, values):
    assert left(*values) != right(*values)
    assert not left(*values) == right(*values)
    assert len({left(*values), right(*values)}) == 2


# A LintConfig holds a dict, so it has no hash.
@pytest.mark.parametrize("cls, values, text", samples(lambda cls, text: cls is not LintConfig))
def test_equal_values_hash_equal(cls, values, text):
    assert hash(cls(*values)) == hash(cls(*values))


@pytest.mark.parametrize("cls, values, text", samples())
def test_fields_cannot_be_assigned(cls, values, text):
    value = cls(*values)
    first = next(iter(signature(cls).parameters))
    with pytest.raises(AttributeError):
        setattr(value, first, values[0])
    assert value == cls(*values)


@pytest.mark.parametrize("cls, values, text", samples(lambda cls, text: text is not None))
def test_repr(cls, values, text):
    assert repr(cls(*values)) == text


def test_a_model_keeps_its_caches_out_of_reach():
    model = PolicyModel("x", roles=(Role("r1", "M"),))
    with pytest.raises(AttributeError):
        model.roles_by_id = {}
    assert model.roles_by_id == {"r1": Role("r1", "M")}


def test_validation_errors_differing_only_in_where_are_equal():
    a = ValidationError("unknown-id", "t1", "no d9", ("tasks", 0))
    b = ValidationError("unknown-id", "t1", "no d9", ("tasks", 3))
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != ValidationError("unknown-id", "t2", "no d9", ("tasks", 0))


def test_lint_config_checks_its_arguments():
    assert LintConfig() == LintConfig(None, {}) == LintConfig(enabled=None, severity_overrides={})
    assert LintConfig(severity_overrides={"L1": "error"}) != LintConfig()
    for kwargs, message in (
        ({"enabled": frozenset()}, "no lint rule selected"),
        ({"enabled": frozenset({"L99"})}, "unknown lint rule 'L99'"),
        ({"severity_overrides": {"L0": "info"}}, "unknown lint rule 'L0'"),
        ({"severity_overrides": {"L1": "fatal"}}, "unknown severity 'fatal'"),
    ):
        with pytest.raises(ValueError, match=message):
            LintConfig(**kwargs)


def test_a_replaced_lint_config_is_checked_too():
    config = LintConfig(frozenset({"L1"}))
    assert config._replace(severity_overrides={"L1": "info"}) == LintConfig(
        frozenset({"L1"}), {"L1": "info"})
    with pytest.raises(ValueError, match="no lint rule selected"):
        config._replace(enabled=frozenset())
