from __future__ import annotations

import copy
import enum
import math
import pickle
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pppm.conditions import (
    RELOPS,
    Chain,
    ConditionExpr,
    ConditionSyntaxError,
    ConditionTypeError,
    TimeOfDay,
    TriBool,
    Var,
    escape_string,
    escape_strings,
    evaluate,
    parse_condition,
    parse_literal,
    parse_variable,
    render_condition,
)

import gen
from oracles import brute_evaluate, make_time

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_parse_simple_comparison():
    expr = parse_condition("age > 18")
    assert expr == ConditionExpr((Chain((Var("age"), 18), (">",)),))


def test_parse_chain_of_three_operands():
    expr = parse_condition("08:00 < now < 17:00")
    assert expr == ConditionExpr(
        (Chain((make_time(8, 0), Var("now"), make_time(17, 0)), ("<", "<")),)
    )


def test_parse_conjunction_of_chains():
    expr = parse_condition('age >= 21 and tier == "gold"')
    assert len(expr.chains) == 2
    assert expr.chains[1] == Chain((Var("tier"), "gold"), ("==",))


def test_parse_normalizes_variable_case():
    assert parse_condition("Age>18") == parse_condition("age > 18")
    assert render_condition(parse_condition("Age>18")) == "age > 18"


def test_parse_boolean_and_float_literals():
    expr = parse_condition("flag == true and score != 2.5")
    assert expr.chains[0].operands[1] is True
    assert expr.chains[1].operands[1] == 2.5


def test_render_is_canonical():
    text = 'consent==true and  08:05<now'
    assert render_condition(parse_condition(text)) == "consent == true and 08:05 < now"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "age >",
        "age 18",
        "age",
        "and age > 1",
        "age > 18 and",
        "age > 18 or age < 5",
        "25:00 < now",
        "10:75 < now",
        '18 < "x"',
        '"a" < "b"',
        "true > false",
        'tier >= "gold"',
        "age > 18 &",
        '"unterminated < 1',
        '"bad \\n escape" == tier',
        "now == 5",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ConditionSyntaxError):
        parse_condition(bad)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        # A bad escape is reported at its backslash, after any good ones.
        (parse_condition, 'x == "a\\\\\\q"', "unsupported escape \\q (at offset 9)"),
        (parse_literal, '"a\\q"', "unsupported escape \\q (at offset 2)"),
        # An unclosed string is no token, so its quote is the fault.
        (parse_condition, 'x == "a\\q', "unexpected character '\"' (at offset 5)"),
    ],
)
def test_string_errors_name_the_fault_and_its_offset(parse, text, message):
    with pytest.raises(ConditionSyntaxError) as info:
        parse(text)
    assert str(info.value) == message


def test_syntax_error_carries_offset():
    with pytest.raises(ConditionSyntaxError) as info:
        parse_condition("age > 18 &")
    assert info.value.offset == 9
    # An unsupported escape is reported at its backslash, not at the quote.
    with pytest.raises(ConditionSyntaxError) as info:
        parse_condition('name == "ab\\q"')
    assert info.value.offset == 11
    assert str(info.value) == "unsupported escape \\q (at offset 11)"


def test_conjunction_follows_the_kleene_table():
    T, F, U = TriBool.TRUE, TriBool.FALSE, TriBool.UNKNOWN
    text = {T: "1 < 2", F: "2 < 1", U: "x < 1"}
    # False dominates Unknown from either side.
    table = {(T, T): T, (T, U): U, (U, T): U, (U, U): U,
             (F, U): F, (U, F): F, (F, T): F, (T, F): F, (F, F): F}
    for (a, b), want in table.items():
        assert evaluate(parse_condition(f"{text[a]} and {text[b]}"), {}) is want, (a, b)


def test_time_of_day_ordering_and_str():
    assert make_time(8, 0) < make_time(17, 0)
    assert str(make_time(8, 5)) == "08:05"
    assert str(make_time(0, 0)) == "00:00"


def test_unbound_variable_is_unknown():
    assert evaluate(parse_condition("age > 18"), {}) is TriBool.UNKNOWN


def test_chain_false_link_dominates_unknown_link():
    # Pairwise reading: (x < 2) and (2 > 5); the second pair is definitely
    # false, so the unknown first pair cannot rescue the chain.
    assert evaluate(parse_condition("x < 2 > 5"), {}) is TriBool.FALSE


def test_chain_is_pairwise_not_global():
    assert evaluate(parse_condition("1 < 2 < 3"), {}) is TriBool.TRUE
    assert evaluate(parse_condition("1 < 3 < 2"), {}) is TriBool.FALSE


def test_evaluate_bound_values():
    expr = parse_condition("08:00 < now < 17:00")
    assert evaluate(expr, {"now": make_time(10, 0)}) is TriBool.TRUE
    assert evaluate(expr, {"now": make_time(18, 0)}) is TriBool.FALSE


def test_evaluate_type_clash_raises():
    with pytest.raises(ConditionTypeError):
        evaluate(parse_condition("age > 18"), {"age": "fifteen"})
    with pytest.raises(ConditionTypeError):
        evaluate(parse_condition("age == now"), {"age": 5, "now": make_time(1, 0)})
    with pytest.raises(ConditionTypeError, match="unsupported value type list"):
        evaluate(parse_condition("age > 18"), {"age": [19]})


def test_evaluate_rejects_runtime_string_ordering():
    with pytest.raises(ConditionTypeError):
        evaluate(parse_condition("a < b"), {"a": "x", "b": "y"})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("text", ["age > 18", "age <= 18", "age == age", "18.5 != age"])
def test_evaluate_rejects_non_finite_numbers(text, value):
    with pytest.raises(ConditionTypeError):
        evaluate(parse_condition(text), {"age": value})


def test_non_finite_number_left_unbound_stays_unknown():
    assert evaluate(parse_condition("age > 18"), {"now": math.nan}) is TriBool.UNKNOWN


def test_a_clash_after_a_false_pair_still_raises():
    # Every pair is evaluated: a definite False does not hide a later clash.
    with pytest.raises(ConditionTypeError, match="cannot compare string to number"):
        evaluate(parse_condition("1 > 2 and age > 18"), {"age": "x"})


class _Level(enum.IntEnum):
    HIGH = 20


class _Name(str):
    pass


def test_a_bool_is_not_a_number():
    with pytest.raises(ConditionTypeError, match="cannot compare bool to number"):
        evaluate(parse_condition("age > 18"), {"age": True})


def test_subclasses_compare_as_their_base_type():
    assert evaluate(parse_condition("age > 18"), {"age": _Level.HIGH}) is TriBool.TRUE
    assert evaluate(parse_condition("18 < age"), {"age": _Level.HIGH}) is TriBool.TRUE
    assert evaluate(parse_condition('tier == "gold"'), {"tier": _Name("gold")}) is TriBool.TRUE
    assert evaluate(parse_condition('"gold" == tier'), {"tier": _Name("gold")}) is TriBool.TRUE
    with pytest.raises(ConditionTypeError, match="ordering comparison '<' is not defined for strings"):
        evaluate(parse_condition("tier < name"), {"tier": _Name("basic"), "name": "gold"})


def test_operands_compare_with_their_type_class():
    one, true, decimal = (parse_condition(f"a == {v}") for v in ("1", "true", "1.0"))
    assert one != true and not one == true and decimal != true
    assert parse_condition("a == 0") != parse_condition("a == false")
    # A number compares by value, and a subclass's value as its base type's.
    assert one == decimal and hash(one) == hash(decimal)
    level = ConditionExpr((Chain((Var("a"), _Level.HIGH), ("==",)),))
    assert level == parse_condition("a == 20") and hash(level) == hash(parse_condition("a == 20"))
    assert len({one, true, decimal}) == 2


@given(seeds)
def test_a_condition_read_back_equals_it_and_hashes_alike(seed):
    expr = gen.random_condition(random.Random(seed))
    read = parse_condition(render_condition(expr))
    assert read == expr and not read != expr and hash(read) == hash(expr)


def test_a_subclass_renders_as_its_base_type():
    expr = ConditionExpr((Chain((Var("tier"), _Level.HIGH), (">=",)),
                          Chain((Var("name"), _Name('a"b')), ("==",))))
    # str(IntEnum member) is "_Level.HIGH" on Python 3.10, which would not parse.
    assert render_condition(expr) == 'tier >= 20 and name == "a\\"b"'
    assert parse_condition(render_condition(expr)) == expr


def test_rendering_a_value_of_no_condition_type_names_it():
    with pytest.raises(ConditionTypeError, match="^unsupported value type list$"):
        ConditionExpr((Chain((Var("age"), [1]), (">",)),))


# Hand-built chains whose operand and operator counts do not fit.
MALFORMED_CHAINS = [
    (Chain((Var("a"), 1, "x"), (">",)), "^malformed chain: 3 operands, 1 operators$"),
    (Chain((Var("a"),), ()), "^malformed chain: 1 operands, 0 operators$"),
    (Chain((Var("a"),), (">",)), "^malformed chain: 1 operands, 1 operators$"),
    (Chain((), (">",)), "^malformed chain: 0 operands, 1 operators$"),
]


@pytest.mark.parametrize("chain, message", MALFORMED_CHAINS)
def test_a_malformed_chain_is_neither_evaluated_nor_rendered(chain, message):
    with pytest.raises(ConditionTypeError, match=message):
        ConditionExpr((parse_condition("a > 1").chains[0], chain))


def test_an_unsupported_value_type_is_named():
    with pytest.raises(ConditionTypeError, match="^unsupported value type Decimal$"):
        evaluate(parse_condition("age > 18"), {"age": Decimal(19)})


def test_an_operator_outside_relops_raises():
    with pytest.raises(ConditionTypeError, match="^unknown comparison operator '=>'$"):
        ConditionExpr((Chain((Var("age"), 18), ("=>",)),))


_NO_CHAINS = "^a condition is a non-empty tuple of Chains$"


# Subclasses of these value types are not equal to what their text parses back to.
class _Var(Var):
    __slots__ = ()


class _Time(TimeOfDay):
    __slots__ = ()


# What `parse_condition` cannot return, each with the ConditionTypeError that
# building it raises: (chains, message).
REFUSED = [
    pytest.param((), _NO_CHAINS, id="no chains"),
    pytest.param(None, _NO_CHAINS, id="None"),
    pytest.param([Chain((Var("a"), 1), (">",))], _NO_CHAINS, id="a list of chains"),
    pytest.param(((Var("a"), 1),), _NO_CHAINS, id="a tuple in place of a chain"),
    pytest.param((Chain([Var("a"), 1], [">"]),),
                 "^malformed chain: operands and operators are not tuples$", id="lists"),
    pytest.param((Chain((Var("a"), 1, "x"), (">",)),),
                 "^malformed chain: 3 operands, 1 operators$", id="an operand too many"),
    pytest.param((Chain((Var("a"),), ()),), "^malformed chain: 1 operands, 0 operators$",
                 id="no operator"),
    pytest.param((Chain((Var("a"),), (">",)),), "^malformed chain: 1 operands, 1 operators$",
                 id="an operand too few"),
    pytest.param((Chain((), ()),), "^malformed chain: 0 operands, 0 operators$",
                 id="an empty chain"),
    pytest.param((Chain((Var("a"), 1), ("=>",)),), "^unknown comparison operator '=>'$",
                 id="operator =>"),
    pytest.param((Chain((Var("a"), 1), (5,)),), "^a comparison operator is a str, not int$",
                 id="operator 5"),
    pytest.param((Chain((Var("AGE"), 1), (">",)),),
                 "^Var operand 'AGE' does not parse back the same$", id="variable AGE"),
    pytest.param((Chain((Var("a b"), 1), (">",)),),
                 "^Var operand 'a b' does not parse back the same$", id="variable a b"),
    pytest.param((Chain((Var("and"), 1), (">",)),),
                 "^Var operand 'and' does not parse back the same$", id="variable and"),
    pytest.param((Chain((Var(5), 1), (">",)),), "^Var operand does not parse back the same$",
                 id="variable 5"),
    pytest.param((Chain((Var("a"), [1]), (">",)),), "^unsupported value type list$",
                 id="a list operand"),
    pytest.param((Chain((Var("a"), math.inf), (">",)),),
                 "^cannot compare the non-finite number inf$", id="inf"),
    pytest.param((Chain((math.nan, Var("a")), ("==",)),),
                 "^cannot compare the non-finite number nan$", id="nan"),
    pytest.param((Chain((Var("a"), 10**5000), (">",)),),
                 "^int operand does not parse back the same$", id="an int past the digit limit"),
    pytest.param((Chain((Var("now"), TimeOfDay(1440)), ("<",)),),
                 "^TimeOfDay operand '24:00' does not parse back the same$", id="24:00"),
    pytest.param((Chain((_Var("a"), 1), (">",)),), "^_Var operand 'a' does not parse back the same$",
                 id="a Var subclass"),
    pytest.param((Chain((Var("now"), _Time(60)), ("<",)),),
                 "^_Time operand '01:00' does not parse back the same$", id="a TimeOfDay subclass"),
    pytest.param((Chain((5, "a"), (">",)),), "^cannot compare number to string$",
                 id="5 > 'a'"),
    pytest.param((Chain((Var("a"), "x"), ("<",)),),
                 "^ordering comparison '<' is not defined for strings or booleans$",
                 id="a < 'x'"),
    pytest.param((Chain((Var("now"), 5), ("<",)),), "^cannot compare time to number$",
                 id="now < 5"),
]


@pytest.mark.parametrize("chains, message", REFUSED)
def test_a_condition_parse_condition_cannot_return_is_refused(chains, message):
    with pytest.raises(ConditionTypeError, match=message):
        ConditionExpr(chains)
    with pytest.raises(ConditionTypeError, match=message):
        ConditionExpr._make([chains])
    with pytest.raises(ConditionTypeError, match=message):
        parse_condition("a > 1")._replace(chains=chains)
    # `tuple.__new__` skips the check; a copy or an unpickled value does not.
    forged = tuple.__new__(ConditionExpr, (chains,))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        try:
            data = pickle.dumps(forged, protocol)
        except ValueError as exc:
            # Protocols 0 and 1 write an int in decimal, and one past the
            # digit limit has no decimal form: nothing is written to load.
            assert protocol < 2 and "integer string conversion" in str(exc)
            continue
        with pytest.raises(ConditionTypeError, match=message):
            pickle.loads(data)
    for make_copy in (copy.copy, copy.deepcopy):
        with pytest.raises(ConditionTypeError, match=message):
            make_copy(forged)


def _subclassed(operand):
    """`operand` as a value of a subclass of its type, for an int or a str."""
    if type(operand) is int:
        return enum.IntEnum("_Number", {"N": operand}).N
    return _Name(operand) if type(operand) is str else operand


@given(seeds)
def test_subclass_operands_are_accepted_read_back_and_evaluate(seed):
    rng = random.Random(seed)
    chains = gen.random_condition(rng).chains
    expr = ConditionExpr(tuple(Chain(tuple(map(_subclassed, c.operands)), c.ops) for c in chains))
    assert parse_condition(render_condition(expr)) == expr
    try:
        evaluate(expr, gen.random_ctx(rng))
    except ConditionTypeError:
        pass


def test_a_non_finite_number_is_reported_before_a_clash():
    for text in ('tier == "gold"', '"gold" == tier'):
        with pytest.raises(ConditionTypeError, match="^cannot compare the non-finite number nan$"):
            evaluate(parse_condition(text), {"tier": math.nan})


@given(seeds)
def test_round_trip_parse_render(seed):
    expr = gen.random_condition(random.Random(seed))
    assert parse_condition(render_condition(expr)) == expr


@given(seeds)
def test_evaluate_matches_pairwise_brute_force(seed):
    rng = random.Random(seed)
    expr = gen.random_condition(rng)
    ctx = gen.random_ctx(rng)
    assert evaluate(expr, ctx) is brute_evaluate(expr, ctx)


@given(seeds)
@settings(max_examples=200)
def test_kleene_monotonicity_under_context_extension(seed):
    rng = random.Random(seed)
    expr = gen.random_condition(rng)
    ctx = gen.random_ctx(rng)
    extended = gen.extend_ctx(rng, ctx)
    before = evaluate(expr, ctx)
    after = evaluate(expr, extended)
    if before is not TriBool.UNKNOWN:
        assert after is before


# Numbers where int/float comparison is easy to get wrong: signed zeros, the
# edges of exact float integers, and equal int/float pairs.
_BOUNDARY_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 0.0, -0.0, 2**53 - 1, 2**53, 2**53 + 1, float(2**53), 0.1, -1]),
    st.integers(-(2**64), 2**64),
)


@st.composite
def _numeric_case(draw):
    """A numeric condition over x, y and z, a context, and an extension of it.

    Operands and bindings come from one small pool holding each number's
    int/float twin too, so equal values of both types meet in comparisons.
    """
    pool = draw(st.lists(_BOUNDARY_NUMBERS, min_size=1, max_size=4))
    pool += [float(v) if isinstance(v, int) else int(v) for v in pool if v == int(v)]
    values = st.sampled_from(pool)
    operand = st.one_of(st.sampled_from([Var("x"), Var("y"), Var("z")]), values)
    chain = st.integers(2, 4).flatmap(
        lambda n: st.builds(
            Chain,
            st.tuples(*[operand] * n),
            st.tuples(*[st.sampled_from(RELOPS)] * (n - 1)),
        )
    )
    expr = ConditionExpr(tuple(draw(st.lists(chain, min_size=1, max_size=3))))
    ctx = draw(st.dictionaries(st.sampled_from("xyz"), values))
    extended = {**draw(st.dictionaries(st.sampled_from("xyz"), values)), **ctx}
    return expr, ctx, extended


@given(_numeric_case())
@settings(max_examples=300)
def test_monotonicity_over_floats_and_boundaries(case):
    expr, ctx, extended = case
    before = evaluate(expr, ctx)
    if before is not TriBool.UNKNOWN:
        assert evaluate(expr, extended) is before


@pytest.mark.parametrize(
    "text",
    [
        "age > " + "1" * 5000,  # beyond the digits int() converts
        "age > " + "9" * 400 + ".5",  # beyond the float range
        "age > -" + "9" * 400 + ".5",
        "age > ٣",  # an Arabic-Indic digit
        "age > 1e3",
    ],
)
def test_parse_rejects_numbers_outside_the_grammar(text):
    with pytest.raises(ConditionSyntaxError):
        parse_condition(text)


def test_long_integer_within_the_limit_round_trips():
    expr = parse_condition("age > " + "9" * 400)
    assert expr.chains[0].operands[1] == 10**400 - 1
    assert parse_condition(render_condition(expr)) == expr


@pytest.mark.parametrize("value", [1e-05, 1.5e-07, 1e16, 1.2345678901234567e20, 5e-324, -2.5e-10,
                                   2**-24, -(2**-24)])
def test_decimals_render_without_an_exponent(value):
    expr = ConditionExpr((Chain((Var("x"), value), (">",)),))
    text = render_condition(expr)
    assert "e" not in text.replace("x", "")
    back = parse_condition(text).chains[0].operands[1]
    assert back == value and type(back) is float


@pytest.mark.parametrize(
    "text, value",
    [
        ("7", 7),
        ("-3", -3),
        ("2.5", 2.5),
        ("08:30", make_time(8, 30)),
        ("true", True),
        ("FALSE", False),
        ('"gold"', "gold"),
        ('"a\\"b\\\\c"', 'a"b\\c'),
    ],
)
def test_parse_literal_matches_the_condition_grammar(text, value):
    assert parse_literal(text) == value
    assert parse_condition(f"x == {text}").chains[0].operands[1] == value


@pytest.mark.parametrize(
    "text",
    ["", " 7", "7 ", "1e3", "1_000", "+7", ".5", "٣", "²:00", "25:00", "nan",
     "inf", "age", '"a\\q"', "1" * 5000, "9" * 400 + ".5"],
)
def test_parse_literal_rejects(text):
    with pytest.raises(ConditionSyntaxError):
        parse_literal(text)


@pytest.mark.parametrize("text, name", [("age", "age"), ("AGE", "age"), ("_x1", "_x1"),
                                        ("now", "now"), ("And_", "and_")])
def test_parse_variable_reads_one_variable_name(text, name):
    assert parse_variable(text) == name
    assert parse_condition(f"{text} == y").chains[0].operands[0] == Var(name)


@pytest.mark.parametrize("text", ["", "true", "FALSE", "and", "1age", "a-b", "age ", "7",
                                  '"age"', "25:99"])
def test_parse_variable_rejects(text):
    with pytest.raises(ConditionSyntaxError):
        parse_variable(text)


@pytest.mark.parametrize("texts", [
    [], [""], ['say "hi"'], ["plain", 'a "quote"', "back\\slash", ""],
    ['a "quote"\nand a line break', "b\\", "c"], ["line\nbreak", "\n", "plain"],
])
def test_escape_strings_escapes_each_text(texts):
    assert list(escape_strings(texts)) == [escape_string(t) for t in texts]


@given(st.lists(st.text(alphabet='ab"\\\n')))
def test_escape_strings_matches_escape_string_one_at_a_time(texts):
    assert list(escape_strings(texts)) == [escape_string(t) for t in texts]


def test_escape_strings_returns_a_column_with_nothing_to_escape_as_it_is():
    texts = ["r1", "line\nbreak", "a b"]
    assert escape_strings(texts) is texts
