"""End-to-end acceptance gate.

Every test prints exactly one "[criterion N] PASS ..." or "... FAIL ..." line
before asserting, so `pytest -s tests/test_acceptance.py` reads as a
checklist.  Criteria 1 and 7 share one 200-instance estimate sweep.
"""

from __future__ import annotations

import json
import math
import time

import pytest

from spinz import (
    build_family_graph,
    check_contraction,
    check_decay_geometric,
    check_edge_factor_lipschitz,
    check_saw_identity_exhaustive,
    check_saw_identity_random,
    check_telescoping,
    exact_log_partition,
    fptas_log_partition,
    ising_system,
    save_system,
    truncation_depth,
)
from spinz.cli import main as cli_main
from .helpers import ACCEPTANCE_FAMILIES, acceptance_instance


def announce(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def estimate_sweep():
    """200 near-critical instances: 5 families x 2 models x 2 eps x 10 seeds."""
    rows = []
    seed = 7000
    start = time.perf_counter()
    for family in ACCEPTANCE_FAMILIES:
        for model in ("ising", "random"):
            for eps in (0.2, 0.05):
                for _ in range(10):
                    system = acceptance_instance(family, model, seed)
                    seed += 1
                    report = fptas_log_partition(system, eps)
                    rows.append((family, model, eps, system, report,
                                 exact_log_partition(system)))
    return rows, time.perf_counter() - start


def test_criterion_1_estimate_accuracy(estimate_sweep):
    rows, elapsed = estimate_sweep
    failures = []
    worst = 0.0
    for family, model, eps, system, report, exact in rows:
        ratio = abs(report.log_z_hat - exact) / eps
        worst = max(worst, ratio)
        if ratio > 1.0:
            failures.append((family, model, eps, ratio))
    ok = not failures and elapsed < 120.0
    announce(1, ok,
             f"{len(rows) - len(failures)}/{len(rows)} instances within eps, "
             f"worst |error|/eps = {worst:.4f}, sweep took {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_2_walk_tree_identity():
    exhaustive = check_saw_identity_exhaustive(max_n=5, draws=20)
    random_part = check_saw_identity_random(instances=50, max_n=10)
    ok = exhaustive.passed and random_part.passed
    announce(2, ok,
             f"exhaustive n<=5 max gap {exhaustive.max_violation:.3e} over "
             f"{exhaustive.trials} marginals, random n<=10 max gap "
             f"{random_part.max_violation:.3e} (tolerance 1e-09)")
    assert ok, (exhaustive, random_part)


def test_criterion_3_contraction_inequality():
    slope = check_contraction(trials=100_000)
    lipschitz = check_edge_factor_lipschitz(trials=10_000)
    ok = slope.passed and lipschitz.passed
    announce(3, ok,
             f"sextuple slope bound worst excess {slope.max_violation:.3e} over "
             f"{slope.trials} trials, log-Lipschitz worst excess "
             f"{lipschitz.max_violation:.3e} over {lipschitz.trials} trials "
             f"(slack 1e-12)")
    assert ok, (slope, lipschitz)


def test_criterion_4_decay_envelope():
    reports = check_decay_geometric()
    bounds = [r for r in reports if r.name == "boundary-decay-bound"]
    ratios = [r for r in reports if r.name == "boundary-decay-geometric"]
    ok = all(r.passed for r in reports) and bounds and ratios
    worst_bound = max(r.max_violation for r in bounds)
    worst_ratio = max(r.max_violation for r in ratios)
    announce(4, ok,
             f"{len(bounds)} envelope checks (worst relative excess "
             f"{worst_bound:.3e}) and {len(ratios)} geometric-ratio checks "
             f"(worst margin {worst_ratio:.3e})")
    assert ok, reports


def test_criterion_5_telescoping_product():
    report = check_telescoping(instances=50, max_n=12)
    announce(5, report.passed,
             f"reconstructed log Z within {report.max_violation:.3e} of exact "
             f"on {report.trials} instances (tolerance 1e-09)")
    assert report.passed, report


def test_criterion_6_depth_formula():
    base = truncation_depth(10, 0.3, 3, 0.1)
    rate = 2.0 * math.tanh(0.3)
    half_range = math.atanh(math.tanh(0.3) * math.tanh(2 * 0.3))
    step = math.ceil(math.log(2.0) / math.log(1.0 / rate)) + 1
    growth_ok = True
    smallest_ok = True
    for n, eps in [(10, 0.1), (40, 0.2), (160, 0.05), (10, 0.0125)]:
        bigger_n = truncation_depth(2 * n, 0.3, 3, eps)
        smaller_eps = truncation_depth(n, 0.3, 3, eps / 2)
        here = truncation_depth(n, 0.3, 3, eps)
        growth_ok = growth_ok and (bigger_n - here <= step) and (smaller_eps - here <= step)
        # the smallest depth whose frontier half-range a, carried up t
        # levels and summed over the n*d/2 edges' free ends, fits the
        # budget D that solves D * (1/2 + D/4) = eps: n*d*a*rate^t <= D,
        # one level less than the a-priori rule, so the sweep certifies
        # itself from its walks' charges
        budget = 4 * eps / (1 + math.sqrt(1 + 4 * eps))
        assert budget * (0.5 + budget / 4) == pytest.approx(eps, rel=1e-12)
        smallest_ok = smallest_ok and (
            n * 3 * half_range * rate ** here <= budget
            < n * 3 * half_range * rate ** (here - 1)
        )
    ok = base == 7 and growth_ok and smallest_ok
    announce(6, ok,
             f"depth(n=10, J=0.3, d=3, eps=0.1) = {base} (expected 7); "
             f"doubling n / halving eps grows depth by <= {step}; each depth t is "
             f"the smallest with n*d*a*rate^t <= D, D*(1/2 + D/4) = eps")
    assert ok


def test_criterion_7_node_budget(estimate_sweep):
    rows, _ = estimate_sweep
    worst_total = 0.0
    trees = full = 0
    failures = []
    for family, model, eps, system, report, _ in rows:
        d = report.degree_bound
        t = report.truncation_depth
        # the most nodes a depth-t walk tree of maximum degree d can have;
        # trees whose depth-t neighbourhood has no cycle reach it exactly
        budget = 1 + d * sum((d - 1) ** k for k in range(t))
        for vertex in report.vertices:
            trees += 1
            full += vertex.node_count == budget
            if vertex.node_count > budget:
                failures.append((family, model, eps, vertex.vertex, vertex.node_count, budget))
        if report.vertices:
            worst_total = max(worst_total, report.total_nodes / (len(report.vertices) * budget))
    announce(7, not failures,
             f"every walk tree within 1 + d*sum((d-1)^k, k<t) nodes on all "
             f"{len(rows)} runs ({full}/{trees} trees reach it), tightest "
             f"total/(n*max) {worst_total:.4f}")
    assert not failures, failures


def test_criterion_8_hot_instance_refused(tmp_path, capsys):
    path = tmp_path / "hot.json"
    save_system(
        ising_system(build_family_graph("random_regular", n=10, degree=3, seed=1), 0.6),
        path,
    )
    code = cli_main(["estimate", "--graph", str(path), "--eps", "0.1"])
    out = capsys.readouterr().out
    report = json.loads(out)
    ok = code == 2 and report["applicable"] is False and "log_z_hat" not in report
    with capsys.disabled():
        announce(8, ok,
                 f"contraction {report['contraction']:.4f} >= 1 exits with "
                 f"code {code} and no estimate in the report")
    assert ok, (code, report)
