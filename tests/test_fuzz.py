"""Fuzzing the input contract: parsers and CLI commands on generated documents.

Every document or command line ends in a documented exit code (0 success, 1
verification failed, 2 bad input, 3 contract violation) and never in a
traceback; every exit-0 solve and oracle answer passes the exact KKT
verifier.  Instances are at most 4x4, with coprime and huge denominators,
tied utilities and 1xm or nx1 shapes; the oracle's are at most 3x3 or just
past its 4x4 size guard.  On valid instances of at most 3x3, ``solve`` must
give the enumeration oracle's prices and refunds bit for bit.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from arcticauction.cli import main
from arcticauction.costmarket import parse_cost_instance, parse_cost_solution
from arcticauction.kkt import verify_arctic_kkt, verify_cost_kkt
from arcticauction.market import MarketFormatError, parse_equilibrium, parse_instance
from arcticauction.oracle import oracle_solve
from arcticauction.solver import solve

FUZZ = settings(max_examples=25, deadline=None)

# Small, pairwise coprime and huge denominators.
DENOMINATORS = st.sampled_from([1, 2, 3, 7, 999_983, 2**61 - 1, 10**40 + 1])
SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 4)),
    st.tuples(st.integers(1, 4), st.just(1)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
)
# The oracle enumerates sign patterns, and a tied 4x4 instance can take it
# about 20 s: within its guard, shapes stop at 3x3.
ORACLE_SHAPES = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.tuples(st.just(5), st.integers(1, 2)),
    st.tuples(st.integers(1, 2), st.just(5)),
)
JUNK = st.one_of(
    st.sampled_from(["1/0", "1.5", "1e400", "-1", "0/3", "", "x", "1/-2", True, None, 1.5, [], {}]),
    st.text(max_size=4),
    st.integers(-3, 3),
)


@st.composite
def positive(draw):
    den = draw(DENOMINATORS)
    return Fraction(draw(st.integers(1, 10 * den)), den)


def token(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@st.composite
def instance_docs(draw, costs=False, corrupt=True, shapes=SHAPES, valid=False):
    """An instance document; utilities come from a pool of at most three values, so ties are common.

    With ``valid`` the instance is valid as drawn: a buyer row, then a good
    column, left without a positive utility gets one from the pool."""
    n, m = draw(shapes)
    pool = [Fraction(0), *draw(st.lists(positive(), min_size=1, max_size=3))]
    utilities = [[draw(st.sampled_from(pool)) for _ in range(m)] for _ in range(n)]
    if valid:
        for row in utilities:
            if not any(row):
                row[draw(st.integers(0, m - 1))] = draw(st.sampled_from(pool[1:]))
        for j in range(m):
            if not any(row[j] for row in utilities):
                utilities[draw(st.integers(0, n - 1))][j] = draw(st.sampled_from(pool[1:]))
    doc = {
        "money": [token(draw(positive())) for _ in range(n)],
        "utilities": [[token(u) for u in row] for row in utilities],
    }
    if costs:
        doc["costs"] = [token(draw(positive())) for _ in range(m)]
    if corrupt:
        doc = draw(corrupted(doc))
    return doc


@st.composite
def corrupted(draw, doc):
    """doc unchanged, or with one token, field or shape broken."""
    doc = json.loads(json.dumps(doc))
    key = draw(st.sampled_from(sorted(doc)))
    how = draw(st.sampled_from(["none", "none", "token", "drop", "shape", "scalar"]))
    if how == "drop":
        del doc[key]
    elif how == "scalar":
        doc[key] = draw(JUNK)
    elif how == "shape":
        value = doc[key]
        if isinstance(value, list) and value:
            target = value[0] if isinstance(value[0], list) and draw(st.booleans()) else value
            target.pop() if draw(st.booleans()) else target.append("1")
    elif how == "token":
        value = doc[key]
        while isinstance(value, list) and value and isinstance(value[0], list):
            value = value[draw(st.integers(0, len(value) - 1))]
        if isinstance(value, list) and value:
            value[draw(st.integers(0, len(value) - 1))] = draw(JUNK)
        else:
            doc[key] = draw(JUNK)
    return doc


def run(argv) -> tuple[int, str]:
    """main(argv) with its output captured; returns the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, err.getvalue()


def parses(parse, text) -> bool:
    try:
        parse(text)
    except MarketFormatError:
        return False
    return True


@contextlib.contextmanager
def files(**texts):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in (*texts, "out")}
        for name, text in texts.items():
            paths[name].write_text(text)
        yield paths


@given(text=st.one_of(st.text(max_size=40), instance_docs().map(json.dumps)))
@FUZZ
def test_parse_instance_returns_or_raises_format_error(text):
    parses(parse_instance, text)
    parses(parse_cost_instance, text)


@given(doc=instance_docs())
@FUZZ
def test_solve_ends_in_a_documented_exit_code(doc):
    text = json.dumps(doc)
    with files(inst=text) as p:
        code, err = run(["solve", "-i", p["inst"], "-o", p["out"]])
        assert "Traceback" not in err
        if not parses(parse_instance, text):
            assert code == 2 and err.startswith("error:")
            return
        assert code == 0, err
        inst = parse_instance(text)
        eq, _ = parse_equilibrium(p["out"].read_text(), inst)
        assert verify_arctic_kkt(inst, eq).overall


@given(doc=instance_docs(corrupt=False), data=st.data())
@FUZZ
def test_verify_ends_in_a_documented_exit_code(doc, data):
    text = json.dumps(doc)
    assume(parses(parse_instance, text))
    with files(inst=text) as p:
        assert run(["solve", "-i", p["inst"], "-o", p["out"]])[0] == 0
        solution = data.draw(corrupted(json.loads(p["out"].read_text())))
        p["out"].write_text(json.dumps(solution))
        code, err = run(["verify", "-i", p["inst"], "--solution", p["out"]])
    assert "Traceback" not in err
    inst = parse_instance(text)
    if not parses(lambda s: parse_equilibrium(s, inst), json.dumps(solution)):
        assert code == 2
    else:
        assert code in (0, 1)


@given(doc=instance_docs(costs=True))
@FUZZ
def test_cost_ends_in_a_documented_exit_code(doc):
    text = json.dumps(doc)
    with files(inst=text) as p:
        code, err = run(["cost", "-i", p["inst"], "-o", p["out"]])
        assert "Traceback" not in err
        if not parses(parse_cost_instance, text):
            assert code == 2 and err.startswith("error:")
            return
        assert code == 0, err
        sol = parse_cost_solution(p["out"].read_text())
        assert verify_cost_kkt(parse_cost_instance(text), sol).overall
        assert run(["verify", "-i", p["inst"], "--solution", p["out"]])[0] == 0


@given(doc=instance_docs(corrupt=False, shapes=ORACLE_SHAPES))
@FUZZ
def test_oracle_ends_in_a_documented_exit_code(doc):
    text = json.dumps(doc)
    with files(inst=text) as p:
        code, err = run(["oracle", "-i", p["inst"], "-o", p["out"]])
        assert "Traceback" not in err
        if not parses(parse_instance, text):
            assert code == 2 and err.startswith("error:")
            return
        inst = parse_instance(text)
        if max(inst.n_buyers, inst.n_goods) > 4:
            assert code == 2 and "guard" in err
            return
        assert code == 0, err
        eq, _ = parse_equilibrium(p["out"].read_text(), inst)
        assert verify_arctic_kkt(inst, eq).overall
        assert run(["verify", "-i", p["inst"], "--solution", p["out"]])[0] == 0


@given(
    doc=instance_docs(corrupt=False, shapes=st.tuples(st.integers(1, 3), st.integers(1, 3)), valid=True),
    data=st.data(),
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_solve_matches_the_oracle(doc, data):
    # Money comes from a pool of at most two values, so refund splits tie.
    # Allocations are not unique, so only prices and refunds are compared.
    pool = data.draw(st.lists(positive(), min_size=1, max_size=2))
    doc["money"] = [token(data.draw(st.sampled_from(pool))) for _ in doc["money"]]
    inst = parse_instance(json.dumps(doc))
    eq, _ = solve(inst)
    expected = oracle_solve(inst).equilibrium
    assert (eq.prices, eq.returned) == (expected.prices, expected.returned)
    assert verify_arctic_kkt(inst, eq).overall


@st.composite
def bench_args(draw):
    """bench's flags and values: all valid, or one value out of range or junk."""
    args = {"--seed": draw(st.integers(-5, 2**64)), "--buyers": draw(st.integers(1, 4))}
    args["--goods"] = draw(st.integers(1, 4))
    if draw(st.booleans()):
        args["--count"] = draw(st.integers(0, 3))
    if draw(st.booleans()):
        args["--max-value"] = draw(st.integers(1, 10))
    args = {flag: str(value) for flag, value in args.items()}
    how = draw(st.sampled_from(["none", "range", "junk"]))
    if how != "none":
        flag = draw(st.sampled_from(sorted(args)))
        args[flag] = str(draw(st.integers(-3, 0))) if how == "range" else json.dumps(draw(JUNK))
    return args


@given(args=bench_args())
@FUZZ
def test_bench_ends_in_a_documented_exit_code(args):
    with files() as p:
        code, err = run(["bench", *(x for item in args.items() for x in item), "-o", p["out"]])
        assert "Traceback" not in err
        try:
            ints = {flag: int(value) for flag, value in args.items()}
        except ValueError:
            assert code == 2 and "invalid int value" in err
            return
        count = ints.get("--count", 10)
        sizes = [ints["--buyers"], ints["--goods"], ints.get("--max-value", 10)]
        if count < 0 or (count > 0 and min(sizes) < 1):
            assert code == 2 and err.startswith("error:")
            return
        assert code == 0, err
        assert len(p["out"].read_text().splitlines()) == 1 + count


@given(doc=st.one_of(instance_docs(corrupt=False), instance_docs()))
@FUZZ
def test_trace_ends_in_a_documented_exit_code(doc):
    text = json.dumps(doc)
    with files(inst=text) as p:
        code, err = run(["trace", "-i", p["inst"], "-o", p["out"]])
        assert "Traceback" not in err
        if not parses(parse_instance, text):
            assert code == 2 and err.startswith("error:")
            return
        assert code == 0, err
        header, *rows = p["out"].read_text().splitlines()
        assert header.startswith("phase,iteration,event") and rows
