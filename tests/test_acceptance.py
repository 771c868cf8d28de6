"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from egtan import counterexamples
from egtan.certificates import (
    ALL_TERM_NAMES,
    BRANCHES,
    CertificateAssignment,
    check_constrained_identity,
    check_expansion_identities,
    check_newsos_claim,
    check_p2_block_identity,
    check_unconstrained_identity,
)
from egtan.instances import AffineOperator, VIInstance
from egtan.measures import (
    gap,
    natural_residual,
    tangent_residual,
)
from egtan.sets import Box, NonnegativeOrthant
from egtan.solvers import SolverConfig, eg_run, pp_run, pp_step, rate_report_pp, solve_reference
from tests.oracles import tangent_residual_orthant_closed_form, tangent_residual_variants

SUITE_SEED = 1234
SUITE_SIZE = 100


def make_suite_instance(rng):
    """Random monotone box/orthant instance, n <= 8, skew-plus-PSD operator."""
    n = int(rng.integers(2, 9))
    raw = rng.standard_normal((n, n))
    skew = raw - raw.T
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    mu = float(rng.uniform(0.02, 0.12))
    M = skew + mu * (G.T @ G) + 0.02 * np.eye(n)
    op = AffineOperator.create(M, rng.standard_normal(n))
    if rng.random() < 0.5:
        feasible = NonnegativeOrthant(n)
        z0 = rng.uniform(0.0, 1.5, n)
    else:
        lo = rng.uniform(-1.0, 0.0, n)
        feasible = Box(lo, lo + rng.uniform(0.5, 2.5, n))
        z0 = rng.uniform(feasible.l, feasible.u)
    return VIInstance.create(op, feasible), z0


@pytest.fixture(scope="module")
def suite():
    rng = np.random.default_rng(SUITE_SEED)
    return [make_suite_instance(rng) for _ in range(SUITE_SIZE)]


def report(criterion: str, ok: bool, detail: str = "") -> None:
    flag = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {flag}{'  (' + detail + ')' if detail else ''}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_counterexample_reproduction():
    ok = True
    details = []
    for name in ("natural-residual", "half-step-dist", "full-step-dist", "gap"):
        start = time.perf_counter()
        rep = counterexamples.reproduce(name)
        elapsed = time.perf_counter() - start
        ok = ok and rep["ok"] and elapsed < 1.0
        details.append(f"{name}: dev {max(rep['series_deviation']):.1e} in {elapsed:.2f}s")
        if name == "gap":
            ok = ok and rep["resolved_domain"] == [0.0, 10.0]
    # series tolerances are pinned inside the counterexample records:
    # 1e-9 for the three residual/distance series, 3e-8 (print-precision
    # limited) for the gap series under the resolved [0,10]^2 domain
    report("criterion-1 counterexample reproduction", ok, "; ".join(details))


def test_criterion_2_certificate_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    from fractions import Fraction

    for _ in range(100):
        dim = int(rng.integers(1, 9))
        vecs = [
            [Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 10))) for _ in range(dim)]
            for _ in range(3)
        ]
        ok = ok and check_unconstrained_identity(*vecs)
    for branch in BRANCHES:
        ok = ok and check_constrained_identity(branch)
    ok = ok and check_p2_block_identity()
    for _ in range(1000):
        vals = [Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 12))) for _ in range(3)]
        ok = ok and check_expansion_identities(*vals)
    ok = ok and check_newsos_claim()
    # every one of the 14 identity terms is load-bearing
    for term in ALL_TERM_NAMES:
        branches = ("neg",) if term == "cons-9" else BRANCHES
        for branch in branches:
            ok = ok and not check_constrained_identity(branch, mutate=term)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report("criterion-2 certificate suite", ok, f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def suite_runs(suite):
    runs = []
    for inst, z0 in suite:
        eta = 0.9 / inst.operator.lipschitz
        runs.append((inst, z0, eta, eg_run(inst, SolverConfig(eta=eta, T=100), z0)))
    return runs


def test_criterion_3_tangent_residual_monotonicity(suite_runs):
    worst = -math.inf
    nonmonotone_nat = 0
    for inst, _, _, traj in suite_runs:
        r_tan = [tangent_residual(inst, z) for z in traj.iterates]
        r_nat = [natural_residual(inst, z) for z in traj.iterates]
        worst = max(worst, max(b - a for a, b in zip(r_tan, r_tan[1:])))
        if any(b > a + 1e-12 for a, b in zip(r_nat, r_nat[1:])):
            nonmonotone_nat += 1
    ok = worst <= 1e-8 and nonmonotone_nat >= 1
    report(
        "criterion-3 tangent-residual monotonicity",
        ok,
        f"worst increase {worst:.2e}; natural residual non-monotone on "
        f"{nonmonotone_nat}/{len(suite_runs)} instances",
    )


def test_criterion_4_last_iterate_rate(suite):
    start = time.perf_counter()
    worst = math.inf
    for inst, z0 in suite:
        L = inst.operator.lipschitz
        eta = 0.9 / L
        z_star = solve_reference(inst, eta=0.5 / L)
        traj = eg_run(inst, SolverConfig(eta=eta, T=1000), z0)
        dist0 = float(np.linalg.norm(z0 - z_star))
        D = 2.0 * dist0 if dist0 > 0 else 1.0
        bound = 3.0 * D * dist0 / (eta * math.sqrt(1.0 - (eta * L) ** 2))
        for T in (10, 100, 1000):
            slack = bound + 1e-6 - gap(inst, traj.iterates[T], D) * math.sqrt(T)
            worst = min(worst, slack)
    elapsed = time.perf_counter() - start
    ok = worst >= 0 and elapsed < 60.0
    report(
        "criterion-4 last-iterate gap rate",
        ok,
        f"worst slack {worst:.3e}; {elapsed:.1f}s for {len(suite)} instances",
    )


def test_criterion_5_proximal_point_suite(suite):
    rng = np.random.default_rng(SUITE_SEED + 1)
    # non-expansiveness on 1000 random pairs spread over the suite
    worst_pair = math.inf
    pair_instances = suite[:20]
    for inst, _ in pair_instances:
        eta = 0.5 / inst.operator.lipschitz
        n = inst.dimension
        for _ in range(50):
            z = inst.set.project(2.0 * rng.standard_normal(n))
            zh = inst.set.project(2.0 * rng.standard_normal(n))
            w = pp_step(inst, eta, z)
            wh = pp_step(inst, eta, zh)
            worst_pair = min(
                worst_pair,
                float(np.linalg.norm(z - zh) - np.linalg.norm(w - wh)),
            )
    ok = worst_pair >= -1e-8

    # distance monotonicity, 1/sqrt(k) distance drop, 1/k residual drop, and
    # the gap rate along 50-step runs, at the report tolerance: PP steps are exact
    worst_report = math.inf
    for inst, z0 in suite[:20]:
        eta = 0.5 / inst.operator.lipschitz
        z_star = solve_reference(inst, eta=eta)
        traj = pp_run(inst, SolverConfig(eta=eta, T=50), z0)
        rep = rate_report_pp(traj, z_star, gap_stride=1)
        required = {"best_iterate_descent", "step_monotone", "step_drop_rate",
                    "residual_drop_rate", "gap_rate"}
        assert required.issubset(rep.checks)
        worst_report = min(worst_report, rep.worst_slack + rep.tolerance)
    ok = ok and worst_report >= 0
    report(
        "criterion-5 proximal-point suite",
        ok,
        f"pair slack {worst_pair:.2e}; run slack+tol {worst_report:.2e}",
    )


def test_criterion_6_strongly_monotone_linear_rate():
    rng = np.random.default_rng(SUITE_SEED + 2)
    worst_gap = math.inf
    worst_dist = math.inf
    for _ in range(10):
        n = int(rng.integers(2, 7))
        raw = rng.standard_normal((n, n))
        gamma = float(rng.uniform(0.2, 1.0))
        M = gamma * np.eye(n) + (raw - raw.T)
        op = AffineOperator.create(M, rng.standard_normal(n))
        inst = VIInstance.create(op, NonnegativeOrthant(n))
        L = op.lipschitz
        eta = 0.5 / L
        etaL = eta * L
        z0 = rng.uniform(0.0, 2.0, n)
        z_star = solve_reference(inst, eta=eta)
        traj = eg_run(inst, SolverConfig(eta=eta, T=201), z0)
        dist0 = float(np.linalg.norm(z0 - z_star))
        D = 2.0 * dist0 if dist0 > 0 else 1.0
        const = 3.0 * D * dist0 / (eta * math.sqrt(1.0 - etaL**2))
        decay = 1.0 + 2.0 * eta * op.gamma * (1.0 - etaL) ** 2
        for T in range(0, 201):
            g = gap(inst, traj.iterates[T + 1], D)
            worst_gap = min(worst_gap, decay ** (-T / 2.0) * const + 1e-6 - g)
            gT = gap(inst, traj.iterates[T], D)
            worst_dist = min(
                worst_dist,
                gT / op.gamma + 1e-6
                - float(np.linalg.norm(traj.iterates[T] - z_star)) ** 2,
            )
    ok = worst_gap >= 0 and worst_dist >= 0
    report(
        "criterion-6 strongly monotone linear rate",
        ok,
        f"gap slack {worst_gap:.3e}; distance slack {worst_dist:.3e}",
    )


def test_criterion_7_measure_coherence():
    rng = np.random.default_rng(SUITE_SEED + 3)
    worst_dom = math.inf
    worst_gap = math.inf
    worst_spread = -math.inf
    worst_closed = -math.inf
    for i in range(1000):
        n = int(rng.integers(2, 7))
        raw = rng.standard_normal((n, n))
        mu = float(rng.uniform(0.0, 0.5))
        M = raw - raw.T + mu * np.eye(n)
        op = AffineOperator.create(M, rng.standard_normal(n))
        use_orthant = i % 2 == 0
        if use_orthant:
            feasible = NonnegativeOrthant(n)
            z = np.where(rng.random(n) < 0.35, 0.0, rng.uniform(0.0, 2.0, n))
        else:
            lo = rng.uniform(-1.5, 0.0, n)
            feasible = Box(lo, lo + rng.uniform(0.5, 2.0, n))
            z = rng.uniform(feasible.l, feasible.u)
            pins = rng.random(n) < 0.3
            z[pins] = np.where(rng.random(n)[pins] < 0.5, feasible.l[pins], feasible.u[pins])
        inst = VIInstance.create(op, feasible)
        r_tan = tangent_residual(inst, z)
        r_nat = natural_residual(inst, z)
        worst_dom = min(worst_dom, r_tan - r_nat + 1e-10)
        D = float(rng.uniform(0.5, 3.0))
        worst_gap = min(worst_gap, D * r_tan + 1e-8 - gap(inst, z, D))
        variants = tangent_residual_variants(inst, z)
        assert len(variants.available()) == 6
        worst_spread = max(worst_spread, variants.spread())
        if use_orthant:
            closed = tangent_residual_orthant_closed_form(op(z), z)
            worst_closed = max(worst_closed, abs(closed - r_tan))
    ok = (
        worst_dom >= 0
        and worst_gap >= 0
        and worst_spread <= 1e-9
        and worst_closed <= 1e-10
    )
    report(
        "criterion-7 measure coherence",
        ok,
        f"domination slack {worst_dom:.2e}; gap slack {worst_gap:.2e}; "
        f"route spread {worst_spread:.2e}; closed-form dev {worst_closed:.2e}",
    )
