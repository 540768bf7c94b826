"""Instance model: parsing, validation, serialization, random generation."""

import gc
import sys
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from arcticauction.market import (
    Equilibrium,
    MarketFormatError,
    MarketInstance,
    RunStats,
    best_ratio,
    format_rational,
    generate_random_instance,
    generate_refund_heavy_instance,
    instance_bit_bounds,
    mbpb,
    parse_equilibrium,
    parse_instance,
    parse_rational,
    serialize_equilibrium,
    serialize_instance,
    validate_instance,
)
from arcticauction.costmarket import (
    generate_random_cost_instance,
    parse_cost_instance,
    parse_cost_solution,
    serialize_cost_instance,
    serialize_cost_solution,
    solve_cost_market,
)
from arcticauction.solver import solve

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)
positive_rationals = st.fractions(
    min_value=Fraction(1, 50), max_value=Fraction(100), max_denominator=50
)


def test_parse_single_buyer_single_good():
    inst = parse_instance('{"money":["1"],"utilities":[["2"]]}')
    assert inst.n_buyers == 1 and inst.n_goods == 1
    assert inst.money == (Fraction(1),)
    assert inst.utilities == ((Fraction(2),),)


def test_parse_two_by_two():
    inst = parse_instance('{"money":["1","1"],"utilities":[["2","1"],["1","2"]]}')
    assert inst.n_buyers == 2 and inst.n_goods == 2
    assert inst.utilities[0] == (Fraction(2), Fraction(1))


def test_parse_rejects_buyer_without_positive_utility():
    with pytest.raises(MarketFormatError, match="no positive utility"):
        parse_instance('{"money":["3/2"],"utilities":[["0"]]}')


def test_parse_rejects_malformed_documents():
    with pytest.raises(MarketFormatError):
        parse_instance("not json")
    with pytest.raises(MarketFormatError):
        parse_instance('{"money":["1"]}')
    with pytest.raises(MarketFormatError):
        parse_instance('{"money":["1","2"],"utilities":[["1"]]}')
    with pytest.raises(MarketFormatError):
        parse_instance('{"money":["1"],"utilities":[["1/0"]]}')


def test_validate_accepts_positive_instance():
    inst = MarketInstance(
        money=(Fraction(1), Fraction(2)),
        utilities=((Fraction(1), Fraction(2)), (Fraction(3), Fraction(1))),
    )
    assert validate_instance(inst).ok


def test_validate_flags_undesired_good():
    inst = MarketInstance(
        money=(Fraction(1),),
        utilities=((Fraction(1), Fraction(0)),),
    )
    report = validate_instance(inst)
    assert not report.ok
    assert any("undesired" in v for v in report.violations)


def test_validate_flags_nonpositive_money():
    inst = MarketInstance(money=(Fraction(0),), utilities=((Fraction(1),),))
    report = validate_instance(inst)
    assert any("nonpositive money" in v for v in report.violations)


@pytest.mark.parametrize(
    "money, utilities",
    [((1, 1), ((1, 0), (1,))), ((1,), ((1,), (1,))), ((1, 1), ((1,),))],
    ids=["ragged-rows", "more-rows-than-buyers", "fewer-rows-than-buyers"],
)
def test_validate_reports_a_bad_shape_without_raising(money, utilities):
    # A direct API caller can hand in any shape: it must be reported, and
    # solve must refuse it instead of ignoring a row or indexing past one.
    inst = MarketInstance(
        money=tuple(map(Fraction, money)),
        utilities=tuple(tuple(map(Fraction, row)) for row in utilities),
    )
    report = validate_instance(inst)
    assert not report.ok
    assert any("utility row" in v for v in report.violations)
    with pytest.raises(ValueError, match="invalid instance"):
        solve(inst)


@pytest.mark.parametrize(
    "money, utilities, bad",
    [
        ((0.5, 1), ((1.0, 2), (3, 1)), ["0: money 0.5", "0: utility 1.0 for good 0"]),
        ((True, 1), ((1, 2), (3, False)), ["0: money True", "1: utility False for good 1"]),
        ((1, "2"), (("1", 2), (3, 1)), ["1: money '2'", "0: utility '1' for good 0"]),
    ],
    ids=["float", "bool", "str"],
)
def test_validate_reports_entries_that_are_not_rational(money, utilities, bad):
    # A direct API caller can hand in any entry: only an int or a Fraction
    # is rational, and solve must refuse anything else before it computes.
    inst = MarketInstance(money=money, utilities=utilities)
    report = validate_instance(inst)
    assert [v for v in report.violations if "not an int or a Fraction" in v] == [
        f"buyer {entry} is not an int or a Fraction" for entry in bad
    ]
    with pytest.raises(ValueError, match="^invalid instance: "):
        solve(inst)


@given(a=rationals, b=rationals)
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


@given(x=positive_rationals)
def test_rational_string_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def _random_equilibrium(rng_seed: int) -> tuple[MarketInstance, Equilibrium]:
    import random

    rng = random.Random(rng_seed)
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    inst = generate_random_instance(rng_seed, n, m, 9)
    prices = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m))
    allocation = tuple(
        tuple(Fraction(rng.randint(0, 5), rng.randint(1, 7)) for _ in range(m))
        for _ in range(n)
    )
    returned = tuple(Fraction(rng.randint(0, 3), rng.randint(1, 5)) for _ in range(n))
    alpha = tuple(
        max(inst.utilities[i][j] / prices[j] for j in range(m)) for i in range(n)
    )
    return inst, Equilibrium(prices, allocation, returned, alpha)


@pytest.mark.parametrize("seed", range(20))
def test_equilibrium_serialization_round_trip(seed):
    inst, eq = _random_equilibrium(seed)
    stats = RunStats(phase_count=3, type1=2, type3=1, maxflow_calls=17)
    stats.potential_trace = [
        (1, 2, Fraction(5, 3), Fraction(1, 3), "I"),
        (2, 2, Fraction(1, 3), Fraction(0), "III"),
    ]
    text = serialize_equilibrium(eq, stats)
    back, back_stats = parse_equilibrium(text, inst)
    assert back == eq
    assert back_stats.phase_count == 3
    assert back_stats.maxflow_calls == 17
    assert back_stats.potential_trace == stats.potential_trace


@pytest.mark.parametrize("seed", range(4))
def test_solved_stats_round_trip(seed):
    # Every field of a solve's stats, the note included, comes back from
    # its document with the same value and type.
    for inst in (generate_random_instance(seed, 5, 4, 10), generate_refund_heavy_instance(seed, 6)):
        eq, stats = solve(inst)
        for s in (stats, replace(stats, note="all buyers removed before a full tight set")):
            assert parse_equilibrium(serialize_equilibrium(eq, s), inst) == (eq, s)


def test_serialize_uses_rational_strings():
    inst, eq = _random_equilibrium(3)
    text = serialize_equilibrium(eq, RunStats())
    assert "e-" not in text and "." not in text.replace('"note": null', "")


def test_generator_is_deterministic():
    a = generate_random_instance(7, 2, 2, 5)
    b = generate_random_instance(7, 2, 2, 5)
    assert a == b
    assert serialize_instance(a) == serialize_instance(b)


@pytest.mark.parametrize("seed", range(30))
def test_generator_output_is_valid(seed):
    inst = generate_random_instance(seed, 1 + seed % 4, 1 + seed % 3, 10)
    assert validate_instance(inst).ok


def test_generator_respects_ranges():
    inst = generate_random_instance(1, 4, 3, 10)
    assert inst.n_buyers == 4 and inst.n_goods == 3
    assert all(1 <= m <= 10 and m.denominator == 1 for m in inst.money)
    assert all(0 <= u <= 10 and u.denominator == 1 for row in inst.utilities for u in row)


def test_bit_bounds():
    inst = MarketInstance(
        money=(Fraction(3), Fraction(5)),
        utilities=((Fraction(1), Fraction(7, 2)), (Fraction(2), Fraction(1))),
    )
    mn, total, mx, bits = instance_bit_bounds(inst, [max(row) for row in inst.utilities])
    assert mn == 3 and total == 8 and mx == Fraction(7, 2)
    assert bits > 0


def test_names_metadata_round_trips():
    text = '{"money":["1"],"utilities":[["2"]],"names":{"buyers":["alice"]}}'
    inst = parse_instance(text)
    assert inst.names == {"buyers": ["alice"]}
    again = parse_instance(serialize_instance(inst))
    assert again.names == inst.names


def test_rejects_decimal_and_exponent_tokens():
    for token in ("2.5", "1e3", "nan", "inf", "1/2/3"):
        with pytest.raises(MarketFormatError):
            parse_rational(token)


@pytest.mark.parametrize("quote", ['"', ""], ids=["quoted", "bare"])
@pytest.mark.parametrize(
    "parse, doc",
    [
        (parse_instance, '{"money": [%s], "utilities": [["1"]]}'),
        (parse_cost_instance, '{"money": [%s], "utilities": [["1"]], "costs": ["1"]}'),
        (parse_equilibrium, '{"prices": [%s], "returned": ["0"], "allocation": [["1"]], "alpha": ["1"]}'),
    ],
    ids=["instance", "cost_instance", "equilibrium"],
)
def test_a_number_token_past_the_int_digit_limit_is_a_format_error(parse, doc, quote):
    # Called as a library, the interpreter's int <-> str limit (4,300 digits
    # by default) holds, so a longer number token, quoted or a bare JSON
    # literal, is bad input; where there is no limit it parses.
    token = "7" * 5000
    text = doc % (quote + token + quote)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < len(token):
        with pytest.raises(MarketFormatError, match="int-string limit"):
            parse(text)
    else:
        parse(text)


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
def test_validation_matches_mild_assumptions(a, b):
    # A 2x2 instance is valid exactly when every row and column of the
    # utility matrix has a positive entry (money is fixed positive here).
    inst = MarketInstance(
        money=(Fraction(1), Fraction(2)),
        utilities=((Fraction(a), Fraction(b)), (Fraction(b), Fraction(a))),
    )
    rows_ok = all(any(u > 0 for u in row) for row in inst.utilities)
    cols_ok = all(any(row[j] > 0 for row in inst.utilities) for j in range(2))
    assert validate_instance(inst).ok == (rows_ok and cols_ok)


_BIG = 2**900


def _mbpb_by_division(inst, prices, i, goods):
    """The best ratio by Fraction division, and the goods attaining it."""
    row = inst.utilities[i]
    ratios = {j: row[j] / prices[j] for j in goods if row[j] > 0}
    if not ratios:
        return Fraction(0), frozenset()
    alpha = max(ratios.values())
    return alpha, frozenset(j for j, r in ratios.items() if r == alpha)


_small = st.fractions(min_value=Fraction(1, 9), max_value=Fraction(9), max_denominator=9)
# About 900-bit numerators or denominators.
_huge = st.builds(Fraction, st.integers(_BIG, 2 * _BIG), st.integers(1, 9)) | st.builds(
    Fraction, st.integers(1, 9), st.integers(_BIG, 2 * _BIG)
)


@st.composite
def _mbpb_cases(draw):
    m = draw(st.integers(1, 6))
    utilities = [draw(st.just(Fraction(0)) | _small | _huge) for _ in range(m)]
    # Prices are utility / ratio with ratios drawn from a short list, so
    # exact rational ties are common, even among 900-bit values.
    ratios = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2)])
    prices = [u / draw(ratios | _small) if u > 0 else draw(_small | _huge) for u in utilities]
    if draw(st.booleans()):
        prices = dict(enumerate(prices))
    else:
        prices = tuple(prices)
    goods = draw(st.none() | st.lists(st.integers(0, m - 1), unique=True))
    inst = MarketInstance(money=(Fraction(1),), utilities=(tuple(utilities),))
    return inst, prices, goods


@given(case=_mbpb_cases())
@settings(max_examples=300, deadline=None)
def test_mbpb_matches_fraction_division(case):
    inst, prices, goods = case
    alpha, best = mbpb(inst, prices, 0, goods)
    expected = _mbpb_by_division(inst, prices, 0, inst.goods if goods is None else goods)
    assert (alpha, best) == expected
    assert type(alpha) is Fraction


@st.composite
def _int_rule_cases(draw):
    """A utility row with zeros and denominators up to 10^6, positive prices
    that often tie its ratios, and the goods to look at: every good, or a
    subset in any order."""
    m = draw(st.integers(1, 8))
    value = st.builds(Fraction, st.integers(1, 10**7), st.integers(1, 10**6))
    utilities = [draw(st.just(Fraction(0)) | value) for _ in range(m)]
    ratios = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2)])
    prices = [u / draw(ratios) if u > 0 and draw(st.booleans()) else draw(value) for u in utilities]
    goods = draw(st.just(range(m)) | st.lists(st.integers(0, m - 1), unique=True))
    return utilities, prices, goods


@given(case=_int_rule_cases())
@settings(max_examples=300, deadline=None)
def test_best_ratio_matches_fraction_division(case):
    # The integer rule on a row as ints over its denominator and prices as
    # ints over theirs, as the solver holds them: the pair it gives is a
    # best good's, and over both denominators it is the best ratio by
    # division; the goods are those attaining it, in the order looked at.
    utilities, prices, goods = case
    row_den, scale = lcm(*(u.denominator for u in utilities)), lcm(*(p.denominator for p in prices))
    nums = [u.numerator * (row_den // u.denominator) for u in utilities]
    dens = [p.numerator * (scale // p.denominator) for p in prices]
    num, den, best = best_ratio(nums, dens, goods)
    ratios = {j: utilities[j] / prices[j] for j in goods if utilities[j] > 0}
    if not ratios:
        assert (num, den, best) == (0, 1, [])
        return
    alpha = max(ratios.values())
    assert best == [j for j in goods if ratios.get(j) == alpha]
    assert (num, den) == (nums[best[0]], dens[best[0]])
    assert Fraction(num * scale, den * row_den) == alpha


def test_parsers_leave_no_reference_cycle():
    # With the cyclic collector off, a parsed document must be freed by
    # reference counting alone: a parse that builds a cycle leaves garbage
    # for gc.collect() to find.
    inst = generate_random_instance(7, 12, 12, 10)
    cost_inst = generate_random_cost_instance(7, 4, 3, 10)
    cases = [
        (parse_instance, serialize_instance(inst)),
        (parse_equilibrium, serialize_equilibrium(*solve(inst))),
        (parse_cost_instance, serialize_cost_instance(cost_inst)),
        (parse_cost_solution, serialize_cost_solution(solve_cost_market(cost_inst))),
    ]
    gc.disable()
    try:
        for parse, text in cases:
            gc.collect()
            parse(text)
            assert gc.collect() == 0, parse.__name__
    finally:
        gc.enable()
