"""Acceptance suite: one test per criterion, one printed verdict line each.

The corpora are fixed by explicit seeds; every numeric comparison is exact
rational arithmetic except where a criterion states a float tolerance.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from arcticauction.balanced import balanced_flow
from arcticauction.costmarket import generate_random_cost_instance, solve_cost_market
from arcticauction.flownet import FlowNetwork, max_flow
from arcticauction.kkt import verify_arctic_kkt, verify_cost_kkt, verify_market_clearing
from arcticauction.market import generate_random_instance
from arcticauction.oracle import oracle_cost_solve
from arcticauction.solver import TraceRecorder, solve
from reference import (
    check_invariant,
    numeric_objective,
    oracle_balanced_surplus,
    perturbed_feasible_point,
    snapshot_network,
    surplus,
    verify_property1,
)

F = Fraction


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def _sizes(count, lo, hi, salt):
    rng = random.Random(salt)
    return [(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(count)]


_SOLVE_SECONDS: dict[str, float] = {}


@pytest.fixture(scope="module")
def small_runs():
    t0 = time.time()
    runs = []
    for k, (n, m) in enumerate(_sizes(200, 1, 4, salt=424242)):
        inst = generate_random_instance(1000 + k, n, m, 10)
        recorder = TraceRecorder()
        eq, stats = solve(inst, recorder=recorder)
        runs.append((inst, eq, stats, recorder))
    _SOLVE_SECONDS["small"] = time.time() - t0
    return runs


@pytest.fixture(scope="module")
def medium_runs():
    runs = []
    for k, (n, m) in enumerate(_sizes(100, 5, 8, salt=777)):
        inst = generate_random_instance(2000 + k, n, m, 10)
        recorder = TraceRecorder()
        eq, stats = solve(inst, recorder=recorder)
        runs.append((inst, eq, stats, recorder))
    return runs


def test_criterion_01_oracle_equivalence(small_runs, criterion_01_oracle):
    t0 = time.time()
    results, oracle_seconds = criterion_01_oracle
    price_mismatch, refund_mismatch, clearing_failures = [], [], []
    for k, ((inst, eq, _, _), result) in enumerate(zip(small_runs, results, strict=True)):
        if eq.prices != result.equilibrium.prices:
            price_mismatch.append(k)
        if eq.returned != result.equilibrium.returned:
            refund_mismatch.append(k)
        if not verify_market_clearing(inst, eq).overall:
            clearing_failures.append((k, "solver"))
        if not verify_market_clearing(inst, result.equilibrium).overall:
            clearing_failures.append((k, "oracle"))
    elapsed = time.time() - t0 + _SOLVE_SECONDS.get("small", 0.0) + oracle_seconds
    ok = not price_mismatch and not refund_mismatch and not clearing_failures and elapsed < 300
    verdict(
        1,
        ok,
        f"200 instances in {elapsed:.1f}s; price mismatches {len(price_mismatch)}, "
        f"refund mismatches {len(refund_mismatch)} (degenerate optima: both sides "
        f"KKT-verified), clearing failures {len(clearing_failures)}",
    )
    assert elapsed < 300
    assert not clearing_failures
    assert not price_mismatch
    assert not refund_mismatch


def test_criterion_02_kkt_exactness(small_runs, medium_runs):
    bad = []
    for tag, runs in (("small", small_runs), ("medium", medium_runs)):
        for k, (inst, eq, _, _) in enumerate(runs):
            report = verify_arctic_kkt(inst, eq)
            if not report.overall:
                bad.append((tag, k, [c.name for c in report.failures()][:3]))
            elif any(
                c.residual != 0
                for c in report.condition_results
                if c.name.startswith(("kkt2", "kkt4", "kkt6", "kkt8", "trichotomy"))
            ):
                bad.append((tag, k, "nonzero equality residual"))
    verdict(2, not bad, f"300 solves, every KKT system exact; violations: {bad[:3]}")
    assert not bad


def test_criterion_03_invariant_preservation(small_runs, medium_runs):
    bad = []
    for tag, runs in (("small", small_runs), ("medium", medium_runs)):
        for k, (inst, eq, _, recorder) in enumerate(runs):
            for snap in recorder.phases:
                net = snapshot_network(inst, snap)
                if not check_invariant(net):
                    bad.append((tag, k, snap["label"]))
            terminal = recorder.phases[-1]
            assert terminal["label"] == "terminal"
            net = snapshot_network(inst, terminal)
            f = max_flow(net)
            # ({s}...{t}) and ({s,B,G},{t}) are both minimum cuts at the end.
            if not (f.value == net.total_price == net.total_money):
                bad.append((tag, k, "terminal cut"))
    verdict(3, not bad, f"invariant held at every phase boundary; violations: {bad[:3]}")
    assert not bad


def test_criterion_04_potential_drops(small_runs, medium_runs):
    bad = []
    for tag, runs in (("small", small_runs), ("medium", medium_runs)):
        for k, (inst, _, stats, _) in enumerate(runs):
            type2 = 0
            for idx, n_live, before, after, kind in stats.potential_trace:
                if kind == "I":
                    if after > (1 - F(1, n_live**3)) * before:
                        bad.append((tag, k, idx, "type I drop"))
                elif kind == "III":
                    if after > (1 - F(1, 4 * n_live**3)) * before:
                        bad.append((tag, k, idx, "type III drop"))
                elif kind == "II":
                    type2 += 1
                    if after > before:
                        bad.append((tag, k, idx, "type II increase"))
            if type2 > inst.n_buyers:
                bad.append((tag, k, "type II count"))
    verdict(4, not bad, f"multiplicative potential drops exact; violations: {bad[:3]}")
    assert not bad


def test_criterion_05_trichotomy(small_runs, medium_runs):
    bad = []
    for tag, runs in (("small", small_runs), ("medium", medium_runs)):
        for k, (inst, eq, _, _) in enumerate(runs):
            for i in inst.buyers:
                alpha = eq.alpha[i]
                spend = sum(
                    (eq.allocation[i][j] * eq.prices[j] for j in inst.goods), F(0)
                )
                cases = [
                    alpha > 1 and eq.returned[i] == 0 and spend == inst.money[i],
                    alpha == 1 and spend + eq.returned[i] == inst.money[i],
                    alpha < 1
                    and eq.returned[i] == inst.money[i]
                    and all(eq.allocation[i][j] == 0 for j in inst.goods),
                ]
                if sum(cases) != 1:
                    bad.append((tag, k, i))
    verdict(5, not bad, f"terminal buyer trichotomy exact; violations: {bad[:3]}")
    assert not bad


def _random_net(seed, max_buyers):
    rng = random.Random(seed)
    n = rng.randint(1, max_buyers)
    m = rng.randint(1, max(2, max_buyers))
    prices = {j: F(rng.randint(1, 10), rng.randint(1, 3)) for j in range(m)}
    caps = {i: F(rng.randint(0, 10), rng.randint(1, 3)) for i in range(n)}
    edges = {(j, i) for j in range(m) for i in range(n) if rng.random() < 0.5}
    return FlowNetwork(
        goods=tuple(range(m)),
        buyers=tuple(range(n)),
        source_caps=prices,
        sink_caps=caps,
        edges=frozenset(edges),
    )


def test_criterion_06_balanced_flow_correctness():
    bad = []
    for seed in range(100):
        net = _random_net(3000 + seed, max_buyers=6)
        f = balanced_flow(net)
        if f.value != max_flow(net).value:
            bad.append((seed, "not max"))
        if not verify_property1(net, f):
            bad.append((seed, "residual order"))
        if surplus(net, f) != oracle_balanced_surplus(net):
            bad.append((seed, "oracle mismatch"))
    for seed in range(100):
        net = _random_net(4000 + seed, max_buyers=20)
        f = balanced_flow(net)
        if f.value != max_flow(net).value:
            bad.append((seed, "large not max"))
        if not verify_property1(net, f):
            bad.append((seed, "large residual order"))
    verdict(6, not bad, f"100 oracle-checked + 100 large networks; violations: {bad[:3]}")
    assert not bad


def test_criterion_07_monotonicity(small_runs, medium_runs):
    bad = []
    for tag, runs in (("small", small_runs), ("medium", medium_runs)):
        for k, (inst, _, _, recorder) in enumerate(runs):
            prev_p, prev_a = None, None
            for row in recorder.events:
                if prev_p is not None:
                    if any(row["prices"][j] < prev_p[j] for j in prev_p):
                        bad.append((tag, k, "price drop"))
                    if any(row["alphas"][i] > prev_a[i] for i in prev_a):
                        bad.append((tag, k, "ratio rise"))
                prev_p, prev_a = row["prices"], row["alphas"]
    verdict(7, not bad, f"prices nondecreasing, ratios nonincreasing; violations: {bad[:3]}")
    assert not bad


def test_criterion_08_cost_market():
    bad = []
    for k in range(200):
        rng = random.Random(5000 + k)
        inst = generate_random_cost_instance(5000 + k, rng.randint(1, 3), rng.randint(1, 3), 10)
        sol = solve_cost_market(inst)
        if sol.profit != 0:
            bad.append((k, "profit"))
        if not verify_cost_kkt(inst, sol).overall:
            bad.append((k, "kkt"))
        osol = oracle_cost_solve(inst)
        if sol.prices != osol.prices or sol.returned != osol.returned:
            bad.append((k, "oracle"))
    verdict(8, not bad, f"200 cost instances, zero profit and oracle-equal; violations: {bad[:3]}")
    assert not bad


def test_criterion_09_termination_budget(small_runs, medium_runs):
    bad = []
    for tag, runs in (("small", small_runs), ("medium", medium_runs)):
        for k, (inst, _, stats, _) in enumerate(runs):
            n = inst.n_buyers
            cap = 64 * n**3 * (
                math.log2(n)
                + n * math.log2(float(stats.max_utility) + 2)
                + math.log2(float(stats.total_money) + 2)
            )
            if stats.phase_count > cap:
                bad.append((tag, k, stats.phase_count, cap))
    verdict(9, not bad, f"phase counts within the polynomial cap; violations: {bad[:3]}")
    assert not bad


def test_criterion_10_local_optimality(small_runs):
    rng = random.Random(99)
    bad = []
    for k, (inst, eq, _, _) in enumerate(small_runs[:50]):
        base = numeric_objective(inst, eq.allocation, eq.returned)
        for _ in range(1000):
            x, s = perturbed_feasible_point(
                inst, eq, rng, rng.choice([1e-4, 1e-3, 1e-2, 1e-1])
            )
            try:
                val = numeric_objective(inst, x, s)
            except ValueError:
                continue
            if val > base + 1e-9:
                bad.append((k, val - base))
                break
    verdict(10, not bad, f"50 instances x 1000 perturbations; improvements found: {bad[:3]}")
    assert not bad
