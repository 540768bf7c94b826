"""Market instance data model, validation, serialization and random generation.

All quantities are exact rationals (`fractions.Fraction`).  Instances and
equilibria are immutable value objects; the JSON wire format writes every
number as an integer literal or a "p/q" string, never as a float.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import lcm


class MarketFormatError(ValueError):
    """Raised when an instance or solution document cannot be parsed."""


_RATIONAL_TOKEN = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(token) -> Fraction:
    """Parse an integer literal or "p/q" string into an exact rational.

    Decimal and exponent forms are rejected: the wire format carries no
    floating-point numbers.
    """
    if isinstance(token, bool):
        raise MarketFormatError(f"not a rational token: {token!r}")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, str) and _RATIONAL_TOKEN.match(token.strip()):
        try:
            return Fraction(token.strip())
        except ZeroDivisionError as exc:
            raise MarketFormatError(f"zero denominator: {token!r}") from exc
        except ValueError as exc:
            raise MarketFormatError(f"number token past the interpreter's int-string limit: {exc}") from exc
    raise MarketFormatError(f"not a rational token: {token!r}")


def parse_json_object(text: str) -> dict:
    """The JSON object in text; MarketFormatError when it is malformed or not an object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MarketFormatError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise MarketFormatError("JSON nested too deeply") from exc
    except ValueError as exc:
        raise MarketFormatError(f"number token past the interpreter's int-string limit: {exc}") from exc
    if not isinstance(doc, dict):
        raise MarketFormatError("document must be a JSON object")
    return doc


def rational_field(doc: dict, key: str, *shape):
    """doc[key] as a rational, or as nested tuples of rationals of the given
    shape (one length per level; None leaves a length free).

    Raises MarketFormatError when the field is missing, is not an array
    where one is expected, or has the wrong length.
    """
    if key not in doc:
        raise MarketFormatError(f"missing field: {key}")
    return _parse_field(key, doc[key], shape)


def _parse_field(key: str, value, shape: tuple):
    """``rational_field``'s recursion, a module function so that a parse
    leaves no reference cycle behind (a nested function that calls itself
    is one)."""
    if not shape:
        return parse_rational(value)
    if not isinstance(value, list) or shape[0] not in (None, len(value)):
        raise MarketFormatError(f"'{key}' is not an array of the expected shape")
    return tuple(_parse_field(key, v, shape[1:]) for v in value)


def format_rational(value: Fraction) -> str:
    """Render a rational as "p" or "p/q", the inverse of parse_rational."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class MarketInstance:
    """Buyers with money endowments and a linear utility matrix.

    ``utilities[i][j]`` is buyer i's utility for one unit of good j and
    doubles as the price ceiling at which i is still willing to buy j.
    """

    money: tuple[Fraction, ...]
    utilities: tuple[tuple[Fraction, ...], ...]
    names: dict | None = None

    @property
    def n_buyers(self) -> int:
        return len(self.money)

    @property
    def n_goods(self) -> int:
        return len(self.utilities[0]) if self.utilities else 0

    @property
    def buyers(self) -> range:
        return range(self.n_buyers)

    @property
    def goods(self) -> range:
        return range(self.n_goods)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Equilibrium:
    """Prices, allocation, refunds and per-buyer bang-per-buck of a solution."""

    prices: tuple[Fraction, ...]
    allocation: tuple[tuple[Fraction, ...], ...]
    returned: tuple[Fraction, ...]
    alpha: tuple[Fraction, ...]


@dataclass
class RunStats:
    """Run ledger: phase counts, flow-work and exact potential trace."""

    phase_count: int = 0
    type1: int = 0
    type2: int = 0
    type3: int = 0
    maxflow_calls: int = 0
    min_money: Fraction = Fraction(0)
    total_money: Fraction = Fraction(0)
    max_utility: Fraction = Fraction(0)
    input_bits: int = 0
    # (phase index, live buyers at phase start, phi before, phi after, type)
    potential_trace: list[tuple[int, int, Fraction, Fraction, str]] = field(default_factory=list)
    output_max_denominator: int = 1
    note: str | None = None


def bit_size(x: Fraction) -> int:
    return abs(x.numerator).bit_length() + x.denominator.bit_length()


def instance_bit_bounds(inst: MarketInstance, row_max: list[Fraction]) -> tuple[Fraction, Fraction, Fraction, int]:
    """Return (min money, total money, max utility, total input bit size),
    given ``row_max``, each buyer's largest utility."""
    min_money = min(inst.money)
    total_money = sum(inst.money, Fraction(0))
    max_utility = max(row_max)
    bits = sum(bit_size(m) for m in inst.money)
    bits += sum(bit_size(u) for row in inst.utilities for u in row)
    return min_money, total_money, max_utility, bits


def validate_instance(inst: MarketInstance) -> ValidationReport:
    """Check the matrix shape, positivity of money and both mild market assumptions.

    There must be one utility row per buyer, all of one length.  Every
    buyer must desire some good and every good must be desired by some
    buyer (checked only when the shape is right); zero-money buyers are
    rejected outright.  Each money and utility must be of type int or
    Fraction; the checks skip any other, with its row's and the goods'.
    """
    violations = []
    if inst.n_buyers == 0:
        violations.append("no buyers")
    if inst.n_goods == 0:
        violations.append("no goods")
    shaped = len(inst.utilities) == inst.n_buyers
    if not shaped:
        violations.append(f"{len(inst.utilities)} utility rows for {inst.n_buyers} buyers")
    for i, row in enumerate(inst.utilities):
        if len(row) != inst.n_goods:
            shaped = False
            violations.append(f"utility row {i} has wrong length")
    # A rational's sign is its numerator's; an int is its own numerator.
    for i, m in enumerate(inst.money):
        if type(m) not in (int, Fraction):
            violations.append(f"buyer {i}: money {m!r} is not an int or a Fraction")
        elif m.numerator <= 0:
            violations.append(f"buyer {i}: nonpositive money")
    exact = True
    for i, row in enumerate(inst.utilities):
        signs = [u.numerator for u in row if type(u) in (int, Fraction)]
        if any(n < 0 for n in signs):
            violations.append(f"buyer {i}: negative utility")
        if len(signs) < len(row):
            exact = False
            for j, u in enumerate(row):
                if type(u) not in (int, Fraction):
                    violations.append(f"buyer {i}: utility {u!r} for good {j} is not an int or a Fraction")
        elif all(n <= 0 for n in signs):
            violations.append(f"buyer {i}: no positive utility for any good")
    if shaped and exact:
        for j in inst.goods:
            if all(row[j].numerator <= 0 for row in inst.utilities):
                violations.append(f"good {j}: undesired by every buyer")
    return ValidationReport(tuple(violations))


def _parse_matrix(doc: dict) -> MarketInstance:
    money = rational_field(doc, "money", None)
    rows = rational_field(doc, "utilities", len(money), None)
    if len({len(row) for row in rows}) > 1:
        raise MarketFormatError("ragged utility matrix")
    return MarketInstance(money=money, utilities=rows, names=doc.get("names"))


def parse_instance(text: str) -> MarketInstance:
    """Parse and validate the instance JSON format.

    Raises MarketFormatError listing every violation when the document is
    malformed or the mild assumptions fail.
    """
    inst = _parse_matrix(parse_json_object(text))
    report = validate_instance(inst)
    if not report.ok:
        raise MarketFormatError("invalid instance: " + "; ".join(report.violations))
    return inst


def serialize_instance(inst: MarketInstance) -> str:
    doc = {
        "money": [format_rational(m) for m in inst.money],
        "utilities": [[format_rational(u) for u in row] for row in inst.utilities],
    }
    if inst.names is not None:
        doc["names"] = inst.names
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# The RunStats fields that are not JSON values as they are; every other
# field is written and read back unchanged.
_RATIONAL_STATS = ("min_money", "total_money", "max_utility")


def stats_to_doc(stats: RunStats) -> dict:
    doc = {f.name: getattr(stats, f.name) for f in fields(RunStats)}
    for name in _RATIONAL_STATS:
        doc[name] = format_rational(doc[name])
    doc["potential_trace"] = [
        [idx, n_live, format_rational(before), format_rational(after), kind]
        for idx, n_live, before, after, kind in stats.potential_trace
    ]
    return doc


def stats_from_doc(doc: dict) -> RunStats:
    """The inverse of stats_to_doc; a field whose key is missing keeps its default.

    A value of the wrong type, a bool for an int included, is a MarketFormatError."""
    if not isinstance(doc, dict):
        raise MarketFormatError("stats is not an object")
    values = {f.name: doc[f.name] for f in fields(RunStats) if f.name in doc}
    for name, value in values.items():
        if name in _RATIONAL_STATS:
            values[name] = parse_rational(value)
        elif name == "potential_trace":
            if not isinstance(value, list) or not all(
                isinstance(r, list) and len(r) == 5 and type(r[0]) is type(r[1]) is int
                and isinstance(r[4], str) for r in value
            ):
                raise MarketFormatError("stats potential_trace has a row of the wrong shape or types")
            values[name] = [(r[0], r[1], parse_rational(r[2]), parse_rational(r[3]), r[4]) for r in value]
        elif not ((value is None or isinstance(value, str)) if name == "note" else type(value) is int):
            raise MarketFormatError(f"stats {name} has the wrong type: {value!r}")
    return RunStats(**values)


def serialize_equilibrium(eq: Equilibrium, stats: RunStats | None = None) -> str:
    """Emit the equilibrium JSON document with exact rational strings."""
    doc = {
        "prices": [format_rational(p) for p in eq.prices],
        "allocation": [[format_rational(x) for x in row] for row in eq.allocation],
        "returned": [format_rational(s) for s in eq.returned],
        "alpha": [format_rational(a) for a in eq.alpha],
        "stats": stats_to_doc(stats) if stats is not None else {},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_equilibrium(text: str, inst: MarketInstance | None = None) -> tuple[Equilibrium, RunStats]:
    """Parse an equilibrium document; inverse of serialize_equilibrium.

    The instance, if given, is only used to check the dimensions: nothing
    is recomputed from it.  Raises MarketFormatError on a malformed
    document, or on one whose shape does not match the instance.
    """
    doc = parse_json_object(text)
    prices = rational_field(doc, "prices", None)
    returned = rational_field(doc, "returned", None)
    n, m = len(returned), len(prices)
    if inst is not None and (n, m) != (inst.n_buyers, inst.n_goods):
        raise MarketFormatError("dimension mismatch between instance and solution")
    allocation = rational_field(doc, "allocation", n, m)
    alpha = rational_field(doc, "alpha", n)
    stats = stats_from_doc(doc.get("stats", {}))
    eq = Equilibrium(prices=prices, allocation=allocation, returned=returned, alpha=alpha)
    return eq, stats


def over_one_den(values) -> tuple[tuple[int, ...], int]:
    """Rationals as ints over their least common denominator d: (nums, d),
    nums[k] / d == values[k]; a utility row so is ``best_ratio``'s nums."""
    d = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (d // v.denominator) for v in values), d


def best_ratio(nums, dens, goods) -> tuple[int, int, list[int]]:
    """The bang-per-buck rule, the one place a best ratio is computed: the
    best nums[j] / dens[j] over the goods j in ``goods`` with nums[j] > 0,
    as the pair (nums[j], dens[j]) of a good attaining it, and the goods
    attaining it, in ``goods``' order; (0, 1, []) if no num is positive.
    ``nums`` and ``dens`` are ints indexed by good, each den positive: a
    buyer's utilities and the prices, each over one common denominator."""
    top, bottom, best = 0, 1, []
    for j in goods:
        num = nums[j]
        if num > 0:
            den = dens[j]
            lhs, rhs = num * bottom, top * den
            if lhs > rhs:
                top, bottom, best = num, den, [j]
            elif lhs == rhs:
                best.append(j)
    return top, bottom, best


def mbpb(inst: MarketInstance, prices, i: int, goods=None) -> tuple[Fraction, frozenset[int]]:
    """Buyer i's bang-per-buck at positive prices, and the goods attaining it.

    The bang-per-buck is the best utility-to-price ratio u_ij / p_j over
    ``goods`` (every good by default); the goods returned are those of
    positive utility that attain it.  ``prices`` is indexed by good: a dict
    or a tuple.  (0, frozenset()) when no good in ``goods`` has positive
    utility.  It is ``best_ratio``'s Fraction form.
    """
    row = inst.utilities[i]
    goods = inst.goods if goods is None else list(goods)  # read twice
    nums = {j: row[j].numerator * prices[j].denominator for j in goods}
    dens = {j: row[j].denominator * prices[j].numerator for j in goods}
    top, bottom, best = best_ratio(nums, dens, goods)
    return Fraction(top, bottom), frozenset(best)


def equilibrium_for_instance(
    inst: MarketInstance,
    prices: tuple[Fraction, ...],
    allocation: tuple[tuple[Fraction, ...], ...],
    returned: tuple[Fraction, ...],
) -> Equilibrium:
    """Build an Equilibrium, deriving alphas from inst."""
    alpha = tuple(mbpb(inst, prices, i)[0] for i in inst.buyers)
    return Equilibrium(prices=prices, allocation=allocation, returned=returned, alpha=alpha)


def generate_random_instance(seed: int, n: int, m: int, max_value: int) -> MarketInstance:
    """Deterministically generate a valid instance with integer data.

    Money is uniform in [1, max_value]; utilities are uniform in
    [0, max_value], resampled until both mild assumptions hold.
    """
    if n < 1 or m < 1 or max_value < 1:
        raise ValueError("need n, m >= 1 and max_value >= 1")
    rng = random.Random(seed)
    money = tuple(Fraction(rng.randint(1, max_value)) for _ in range(n))
    while True:
        rows = [[Fraction(rng.randint(0, max_value)) for _ in range(m)] for _ in range(n)]
        if all(any(u > 0 for u in row) for row in rows) and all(
            any(rows[i][j] > 0 for i in range(n)) for j in range(m)
        ):
            break
    utilities = tuple(tuple(row) for row in rows)
    return MarketInstance(money=money, utilities=utilities)


def generate_refund_heavy_instance(seed: int, n: int) -> MarketInstance:
    """Deterministically generate an n x n instance in which many buyers get
    money back: utilities uniform in [1, 10], drawn first, money in [10, 40]."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    rows = [[Fraction(rng.randint(1, 10)) for _ in range(n)] for _ in range(n)]
    money = tuple(Fraction(rng.randint(10, 40)) for _ in range(n))
    return MarketInstance(money=money, utilities=tuple(map(tuple, rows)))
