"""Command-line interface: pipelines, determinism, exit codes."""

import importlib.util
import json
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from arcticauction import balanced, oracle, solver
from arcticauction.cli import main
from arcticauction.flownet import FlowError
from arcticauction.kkt import verify_arctic_kkt
from arcticauction.market import (
    generate_random_instance,
    parse_equilibrium,
    parse_instance,
)
from reference import answers_digest


def run(argv):
    return main([str(a) for a in argv])


def test_gen_is_byte_identical_per_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "--seed", 3, "--buyers", 2, "--goods", 2, "-o", a]) == 0
    assert run(["gen", "--seed", 3, "--buyers", 2, "--goods", 2, "-o", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_then_verify_pipeline(tmp_path):
    inst = tmp_path / "inst.json"
    eq = tmp_path / "eq.json"
    rep = tmp_path / "rep.json"
    assert run(["gen", "--seed", 11, "--buyers", 3, "--goods", 2, "-o", inst]) == 0
    assert run(["solve", "-i", inst, "-o", eq]) == 0
    assert run(["verify", "-i", inst, "--solution", eq, "-o", rep]) == 0
    report = json.loads(rep.read_text())
    assert report["overall"] is True
    assert report["lambda"] == "1"


def test_verify_rejects_tampered_solution(tmp_path):
    inst = tmp_path / "inst.json"
    eq = tmp_path / "eq.json"
    assert run(["gen", "--seed", 5, "--buyers", 2, "--goods", 2, "-o", inst]) == 0
    assert run(["solve", "-i", inst, "-o", eq]) == 0
    doc = json.loads(eq.read_text())
    doc["returned"] = ["1"] * len(doc["returned"])
    doc["allocation"] = [["0"] * len(r) for r in doc["allocation"]]
    eq.write_text(json.dumps(doc))
    assert run(["verify", "-i", inst, "--solution", eq]) == 1


@pytest.mark.parametrize(
    "forged",
    [{"alpha": ["1", "1"]}, {"alpha": ["1", "1"], "prices": ["0"]}, {"prices": ["-5"]}],
    ids=["alpha", "alpha-zero-price", "negative-price"],
)
def test_verify_rejects_forged_alpha_or_price(tmp_path, capsys, forged):
    # Buyer 1's best ratio is 1/5; a document that claims 1 for it, or a
    # price that is not positive, fails verification and raises nothing.
    inst = tmp_path / "inst.json"
    eq = tmp_path / "eq.json"
    inst.write_text('{"money": ["10", "1"], "utilities": [["5"], ["1"]]}')
    assert run(["solve", "-i", inst, "-o", eq]) == 0
    doc = json.loads(eq.read_text())
    assert (doc["prices"], doc["alpha"], doc["returned"]) == (["5"], ["1", "1/5"], ["5", "1"])
    eq.write_text(json.dumps({**doc, **forged}))
    assert run(["verify", "-i", inst, "--solution", eq]) == 1
    assert json.loads(capsys.readouterr().out)["overall"] is False


def test_solve_and_oracle_agree_on_prices(tmp_path):
    inst = tmp_path / "inst.json"
    eq = tmp_path / "eq.json"
    orc = tmp_path / "orc.json"
    assert run(["gen", "--seed", 21, "--buyers", 3, "--goods", 3, "-o", inst]) == 0
    assert run(["solve", "-i", inst, "-o", eq]) == 0
    assert run(["oracle", "-i", inst, "-o", orc]) == 0
    eq_doc = json.loads(eq.read_text())
    orc_doc = json.loads(orc.read_text())
    assert eq_doc["prices"] == orc_doc["prices"]
    assert "support" in orc_doc


def test_cost_command_and_verify(tmp_path):
    inst = tmp_path / "cost.json"
    out = tmp_path / "sol.json"
    inst.write_text(
        json.dumps(
            {
                "money": ["3", "5"],
                "utilities": [["2", "1"], ["1", "4"]],
                "costs": ["1", "2"],
            }
        )
    )
    assert run(["cost", "-i", inst, "-o", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["profit"] == "0"
    assert run(["verify", "-i", inst, "--solution", out]) == 0


def test_verify_rejects_a_cost_solution_with_a_false_revenue_and_profit(tmp_path):
    inst, sol, rep = tmp_path / "c.json", tmp_path / "s.json", tmp_path / "rep.json"
    inst.write_text(json.dumps({"money": ["3", "5/2"], "utilities": [["2", "1"], ["1", "4"]], "costs": ["1", "2"]}))
    assert run(["cost", "-i", inst, "-o", sol]) == 0
    sol.write_text(json.dumps({**json.loads(sol.read_text()), "revenue": "999", "profit": "-7"}))
    assert run(["verify", "-i", inst, "--solution", sol, "-o", rep]) == 1
    failed = [c for c in json.loads(rep.read_text())["conditions"] if not c["passed"]]
    assert failed == [
        {"name": "zero_profit", "passed": False, "residual": "0", "detail": "stated fields off the recomputed ones: revenue, profit"}
    ]


def test_trace_and_bench(tmp_path):
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.csv"
    bench = tmp_path / "bench.csv"
    assert run(["gen", "--seed", 2, "--buyers", 3, "--goods", 2, "-o", inst]) == 0
    assert run(["trace", "-i", inst, "-o", trace]) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "phase,iteration,event,theta_star,phi,I_size,J_size,Z_size,prices_hash"
    assert (
        run(
            ["bench", "--seed", 2, "--count", 3, "--buyers", 3, "--goods", 2, "-o", bench]
        )
        == 0
    )
    rows = bench.read_text().strip().splitlines()
    assert rows[0] == "n,m,seed,phases,type1,type2,type3,maxflow_calls,micros"
    assert len(rows) == 4


def test_bench_phase_counts_match_trace(tmp_path):
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.csv"
    bench = tmp_path / "bench.csv"
    assert run(["gen", "--seed", 9, "--buyers", 3, "--goods", 3, "-o", inst]) == 0
    assert run(["trace", "-i", inst, "-o", trace]) == 0
    assert (
        run(["bench", "--seed", 9, "--count", 1, "--buyers", 3, "--goods", 3, "-o", bench])
        == 0
    )
    bench_row = bench.read_text().strip().splitlines()[1].split(",")
    phases = int(bench_row[3])
    trace_rows = trace.read_text().strip().splitlines()[1:]
    trace_phases = max(int(r.split(",")[0]) for r in trace_rows)
    assert phases == trace_phases


_INSTANCE = {"money": ["1"], "utilities": [["2"]]}
_EQUILIBRIUM = {"prices": ["1"], "allocation": [["1"]], "returned": ["0"], "alpha": ["2"]}
_COST_SOLUTION = {
    "prices": ["1"],
    "allocation": [["1"]],
    "produced": ["1"],
    "returned": ["0"],
    "revenue": "1",
    "profit": "0",
}


@pytest.mark.parametrize(
    "instance,solution",
    [
        (_INSTANCE, []),
        ({**_INSTANCE, "costs": ["1"]}, []),
        (_INSTANCE, {**_EQUILIBRIUM, "allocation": [1]}),
        (_INSTANCE, {**_EQUILIBRIUM, "prices": 5}),
        (_INSTANCE, {**_EQUILIBRIUM, "allocation": [[]]}),
        (_INSTANCE, {**_EQUILIBRIUM, "stats": []}),
        ({**_INSTANCE, "costs": ["1"]}, {**_COST_SOLUTION, "allocation": [1]}),
        ({**_INSTANCE, "costs": ["1"]}, {**_COST_SOLUTION, "prices": 5}),
        ({**_INSTANCE, "costs": ["1"]}, {**_COST_SOLUTION, "allocation": [[]]}),
        (_INSTANCE, {**_EQUILIBRIUM, "stats": {"potential_trace": [{}]}}),
        # Stats fields of the wrong type.
        (_INSTANCE, {**_EQUILIBRIUM, "stats": {"phase_count": "x", "type1": [1], "note": 5}}),
        (_INSTANCE, {**_EQUILIBRIUM, "stats": {"type2": True}}),
        (_INSTANCE, {**_EQUILIBRIUM, "stats": {"note": 5}}),
        (_INSTANCE, {**_EQUILIBRIUM, "stats": {"potential_trace": "abcde"}}),
        (_INSTANCE, {**_EQUILIBRIUM, "stats": {"potential_trace": [[1, 1, "0", "0"]]}}),
        (_INSTANCE, {**_EQUILIBRIUM, "stats": {"potential_trace": [[1, "1", "0", "0", "I"]]}}),
        (_INSTANCE, {**_EQUILIBRIUM, "stats": {"potential_trace": [[1, 1, "0", 0.5, "I"]]}}),
        (_INSTANCE, {**_EQUILIBRIUM, "stats": {"potential_trace": [[1, 1, "0", "0", 3]]}}),
    ],
)
def test_verify_malformed_solution_is_bad_input(tmp_path, capsys, instance, solution):
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    inst.write_text(json.dumps(instance))
    sol.write_text(json.dumps(solution))
    assert run(["verify", "-i", inst, "--solution", sol]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing --input
    assert exc.value.code == 2


def test_missing_file_exit_code(tmp_path):
    assert run(["solve", "-i", tmp_path / "nope.json"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "-i", "{dir}"],
        ["solve", "-i", "{inst}", "-o", "{dir}"],
        ["solve", "-i", "{inst}", "-o", "{out}", "--trace-file", "{dir}"],
        ["verify", "-i", "{inst}", "--solution", "{dir}"],
        ["bench", "--seed", "1", "--count", "-3", "--buyers", "2", "--goods", "2"],
    ],
    ids=["solve-input-dir", "solve-output-dir", "solve-trace-dir", "verify-solution-dir", "bench-negative-count"],
)
def test_directory_path_or_negative_count_is_bad_input(tmp_path, capsys, argv):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_INSTANCE))
    paths = {"dir": tmp_path, "inst": inst, "out": tmp_path / "eq.json"}
    assert run([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "-i", "{deep}"],
        ["verify", "-i", "{inst}", "--solution", "{deep}"],
        ["cost", "-i", "{deep}"],
    ],
    ids=["solve", "verify-solution", "cost"],
)
def test_deeply_nested_json_is_bad_input(tmp_path, capsys, argv):
    # The JSON decoder gives up on this nesting with a RecursionError.
    inst, deep = tmp_path / "inst.json", tmp_path / "deep.json"
    inst.write_text(json.dumps(_INSTANCE))
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert run([a.format(inst=inst, deep=deep) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _raise_flow_error(*args, **kwargs):
    raise FlowError("pinned network failed to saturate")


@pytest.mark.parametrize(
    "command,module,name,replacement",
    [
        ("solve", solver, "_balance", _raise_flow_error),
        ("oracle", oracle, "_pattern_equilibrium", lambda *args: None),
    ],
    ids=["solve-flow-error", "oracle-error"],
)
def test_contract_violation_exits_3(tmp_path, capsys, monkeypatch, command, module, name, replacement):
    # A broken flow contract is a FlowError (a ValueError) and an oracle that
    # verifies nothing is an OracleError (a RuntimeError); both are bugs.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"money": ["1", "2"], "utilities": [["2", "1"], ["1", "3"]]}))
    monkeypatch.setattr(module, name, replacement)
    assert run([command, "-i", inst]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal contract violation:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_broken_water_level_exits_3(tmp_path, capsys, monkeypatch):
    # A water level asked for past its caps' total is a broken contract
    # inside balance, not bad input: exit 3, not 2, and no traceback.
    water_level = balanced._water_level
    monkeypatch.setattr(balanced, "_water_level", lambda caps, target: water_level(caps, sum(caps) + 1))
    inst = tmp_path / "inst.json"
    assert run(["gen", "--seed", 1, "--buyers", 4, "--goods", 3, "-o", inst]) == 0
    capsys.readouterr()
    assert run(["solve", "-i", inst]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal contract violation: water level target out of range\n"
    assert captured.out == ""


def test_a_new_edge_that_leaves_a_source_arc_unfilled_exits_3(tmp_path, capsys, monkeypatch):
    # The balanced flow after a new edge must fill every source arc: the
    # next iteration's tight-set search reads its bound off that flow.  A
    # balance that leaves one unit of a source arc unfilled there is a
    # broken contract: exit 3, the new edge's message, no traceback.
    new_edge, balance = solver.apply_new_edge, solver.balance
    edges = []

    def counted(state, i, j):
        edges.append((i, j))
        return new_edge(state, i, j)

    def short(g, goods):
        balance(g, goods)
        if edges:
            # One unit off a path s -> j -> i -> t; good j's source arc is arc j.
            j, i, a = next((j, i, a) for j, i, a in g.pairs() if g.flow[a])
            for arc in (j, a, g.sink_arc(i)):
                g.flow[arc] -= 1

    monkeypatch.setattr(solver, "apply_new_edge", counted)
    monkeypatch.setattr(solver, "balance", short)
    inst = tmp_path / "inst.json"
    assert run(["gen", "--seed", 1, "--buyers", 4, "--goods", 3, "-o", inst]) == 0
    capsys.readouterr()
    assert run(["solve", "-i", inst]) == 3
    captured = capsys.readouterr()
    assert edges
    assert captured.err == "internal contract violation: price cut invariant broken at new edge\n"
    assert captured.out == ""


@pytest.mark.parametrize("seed", range(3))
def test_a_tight_set_found_early_exits_3(tmp_path, capsys, monkeypatch, seed):
    # A tight-set search that reports its set at a theta halfway to the one
    # where the set goes tight fires a tight set that is not tight yet:
    # apply_tight_set's exactness check must catch it.
    search = solver._tight_set_search

    def early(state, theta_cap):
        found = search(state, theta_cap)
        if found is None:
            return None
        theta, tight = found
        return (state.theta + theta) / 2, tight

    monkeypatch.setattr(solver, "_tight_set_search", early)
    inst = tmp_path / "inst.json"
    assert run(["gen", "--seed", seed, "--buyers", 4, "--goods", 4, "-o", inst]) == 0
    capsys.readouterr()
    assert run(["solve", "-i", inst]) == 3
    assert capsys.readouterr() == ("", "internal contract violation: tight set is not exactly tight\n")


def test_a_partial_return_one_unit_short_exits_3(tmp_path, capsys, monkeypatch):
    # A least spend one unit below the true one leaves the buyer too little
    # sink cap to take what her goods cost: the partial money return's
    # invariant check must catch it.
    least_spend = solver._least_spend

    def short(g, i):
        spend = least_spend(g, i)
        return spend - 1 if spend > 1 else spend

    monkeypatch.setattr(solver, "_least_spend", short)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"money": ["3"], "utilities": [["1", "1"]]}))
    assert run(["solve", "-i", inst]) == 3
    captured = capsys.readouterr()
    assert captured == ("", "internal contract violation: price cut invariant broken at partial money return\n")


def test_determinism_of_solve(tmp_path):
    inst = tmp_path / "inst.json"
    out1 = tmp_path / "eq1.json"
    out2 = tmp_path / "eq2.json"
    assert run(["gen", "--seed", 31, "--buyers", 4, "--goods", 3, "-o", inst]) == 0
    assert run(["solve", "-i", inst, "-o", out1]) == 0
    assert run(["solve", "-i", inst, "-o", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_huge_utility(tmp_path):
    inst = tmp_path / "inst.json"
    eq = tmp_path / "eq.json"
    inst.write_text(json.dumps({"money": ["1"], "utilities": [["1" + "0" * 400]]}))
    assert run(["solve", "-i", inst, "-o", eq]) == 0
    instance = parse_instance(inst.read_text())
    solution, _ = parse_equilibrium(eq.read_text(), instance)
    assert verify_arctic_kkt(instance, solution).overall


def test_oracle_huge_utility(tmp_path):
    inst = tmp_path / "inst.json"
    orc = tmp_path / "orc.json"
    inst.write_text(json.dumps({"money": ["1"], "utilities": [["1" + "0" * 400]]}))
    assert run(["oracle", "-i", inst, "-o", orc]) == 0
    assert json.loads(orc.read_text())["prices"] == ["1"]


def test_answer_past_the_int_digit_limit(tmp_path):
    # Every input token is short enough to parse, but the answer needs
    # numbers of 11,999 characters, past the interpreter's default 4,300-digit
    # int <-> str limit; the command lifts that limit and restores it after.
    a, b, c = "7" + "3" * 2999, "1" * 3000, "9" + "2" * 2999
    inst = tmp_path / "inst.json"
    eq = tmp_path / "eq.json"
    inst.write_text(json.dumps({"money": [f"{a}/{b}", f"{c}/{a}"], "utilities": [[f"{b}/{c}", "1"], [f"{a}/{c}", f"{c}/{b}"]]}))
    limit = sys.get_int_max_str_digits()
    assert run(["solve", "-i", inst, "-o", eq]) == 0
    assert run(["verify", "-i", inst, "--solution", eq, "-o", tmp_path / "rep.json"]) == 0
    assert sys.get_int_max_str_digits() == limit
    assert max(map(len, re.findall(r"\d+", eq.read_text()))) > 4300


def test_bench_sweep_writes_one_row_per_size(tmp_path, monkeypatch):
    # tools/bench_sweep.py drives `arctic bench` and writes BENCH_<tag>.json
    # to the current directory, one row per size with every seed's solve.
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_sweep.py"
    spec = importlib.util.spec_from_file_location("bench_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.chdir(tmp_path)
    # The oracle rows time criterion 01's 200 oracle calls, about 10 s; here
    # only their bookkeeping is checked (criterion 01 runs the real oracle),
    # with the solver's answer, which the oracle's equals, in its place.
    monkeypatch.setattr(oracle, "oracle_solve", lambda inst: SimpleNamespace(equilibrium=solver.solve(inst)[0]))
    # The bank rows' sizes (100 to 400 buyers) take seconds; smaller ones
    # check the same bookkeeping.
    monkeypatch.setattr(sweep, "BANK_SIZES", (6, 9))
    monkeypatch.setattr(sweep, "RATIONAL_BANK_SIZES", (5, 7))
    assert sweep.main(["--tag", "t", "--sizes", "3", "4", "--seeds", "2"]) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [row["n"] for row in doc["rows"]] == [3, 4]
    assert [(row["n"], row["m"]) for row in doc["bank_rows"]] == [(6, 3), (9, 3)]
    from workloads import random_rational_instance  # on the path the sweep gave its rows

    for key in ("rational_bank_rows", "rounded_bank_rows"):
        assert [(row["n"], row["m"]) for row in doc[key]] == [(5, 3), (7, 3)]
        for row in doc[key]:
            instances = [random_rational_instance(random.Random(seed), row["n"], 3) for seed in (0, 1)]
            if key == "rounded_bank_rows":
                # Each money is rounded to a multiple of 10^-6; the utilities are kept.
                instances = [
                    replace(inst, money=tuple(Fraction(round(x * 10**6), 10**6) for x in inst.money))
                    for inst in instances
                ]
            assert row["answers_sha256"] == answers_digest(instances)
            assert row["phases"] == row["type1"] + row["type2"] + row["type3"] > 0
    for row in doc["rows"] + doc["bank_rows"]:
        assert [s["seed"] for s in row["solves"]] == [0, 1]
        assert row["answers_sha256"] == answers_digest(
            generate_random_instance(seed, row["n"], row["m"], 10) for seed in (0, 1)
        )
        assert row["phases"] == row["type1"] + row["type2"] + row["type3"] > 0
        assert 0 < row["median_s"] <= row["max_s"]
    shapes = [(row["n"], row["m"]) for row in doc["oracle_rows"]]
    assert shapes == sorted(set(shapes)) and set(shapes) <= {(n, m) for n in range(1, 5) for m in range(1, 5)}
    assert sum(row["count"] for row in doc["oracle_rows"]) == 200
    for row in doc["oracle_rows"]:
        assert 0 <= row["median_s"] <= row["max_s"] <= row["total_s"]
    for row in doc["refund_heavy_rows"] + doc["oracle_rows"]:
        assert re.fullmatch("[0-9a-f]{64}", row["answers_sha256"])


def _bench_sweep():
    """tools/bench_sweep.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_sweep.py"
    spec = importlib.util.spec_from_file_location("bench_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_bench_sweep_against_times_two_checkouts_side_by_side():
    # With --against, a fresh pair of worker processes, one per checkout,
    # times each item, the two alternating in ABBA order; each row then
    # carries both checkouts' answers digests and the per-seed time ratios.
    # Here both are this checkout, so every answer matches.
    root = Path(__file__).resolve().parents[1]
    sweep = _bench_sweep()
    started = []

    class Counted(sweep.Worker):
        def __init__(self, src):
            started.append(src)
            super().__init__(src)

    sweep.Worker = Counted
    todo = [("rows", 3, 3, 0), ("rows", 3, 3, 1), ("refund_heavy_rows", 4, 4, 0), ("oracle_rows", 2, 2, 5)]
    rows, against = sweep.compare(todo, *sweep.side_by_side(todo, 1, root))
    assert started == [root / "src", root / "src"] * len(todo)
    assert [len(rows[key]) for key in sweep.FAMILIES] == [len(against[key]) for key in sweep.FAMILIES] == [1, 1, 0, 0, 0, 1]
    row = rows["rows"][0]
    assert [s["seed"] for s in row["solves"]] == [0, 1]
    assert row["answers_sha256"] == against["rows"][0]["answers_sha256"] == answers_digest(
        generate_random_instance(seed, 3, 3, 10) for seed in (0, 1)
    )
    for row in (r for key in sweep.FAMILIES for r in rows[key]):
        assert row["same_answers"] and row["median_ratio"] > 0 and 0 <= row["faster"] <= 2


def test_bench_sweep_against_exits_1_when_answers_differ(tmp_path, monkeypatch, capsys):
    # A row whose answers differ between the two checkouts is written with
    # same_answers false, named on stderr, and the sweep exits 1.
    root = Path(__file__).resolve().parents[1]
    sweep = _bench_sweep()
    monkeypatch.chdir(tmp_path)
    sweep.items = lambda sizes, seeds: [("rows", 3, 3, 0), ("bank_rows", 6, 3, 0)]
    counts = dict.fromkeys(sweep.COUNTED, 1)
    sweep.side_by_side = lambda todo, repeat, there: (
        [(0.001, counts, "a"), (0.001, counts, "b")],
        [(0.002, counts, "a"), (0.001, counts, "c")],
    )
    assert sweep.main(["--tag", "t", "--against", str(root)]) == 1
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["rows"][0]["same_answers"] and doc["rows"][0]["median_ratio"] == 0.5
    assert not doc["bank_rows"][0]["same_answers"]
    assert "answers differ on bank_rows 6x3" in capsys.readouterr().err
