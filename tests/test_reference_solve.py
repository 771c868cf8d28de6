"""The reference solve against the EG loop that checks every iterate.

``solve_reference`` evaluates the natural residual only once the half step is
short, since ``r_nat(z) >= min(1, 1/eta) ||z - z_half||`` by the projection-arc
lemma.  A skipped check could never have stopped the run.  On a ball, whose
EG runs step one by one, it must return the very iterate of the loop below,
which projects three times per step.  On a box or a halfspace set the run is
taken in affine segments (``tests/test_eg_segments.py``), so it agrees with
the loop's iterates to rounding; a natural residual near the tolerance then
carries enough rounding to stop one step earlier or later.
"""

import numpy as np
import pytest

from egtan.instances import AffineOperator, VIInstance, make_bilinear
from egtan.measures import natural_residual
from egtan.sets import Ball, Box, HalfspaceIntersection, NonnegativeOrthant, WholeSpace
from egtan.solvers import REFERENCE_TOL, ReferenceSolveError, eg_step, solve_reference
from tests.test_cli import counted
from tests.test_instances import bilinear_spec


def three_projection_solve(inst, eta, tol=1e-11, max_iter=2_000_000, z0=None):
    """EG until ``||z - proj(z - F z)|| <= tol``, checked at every iterate.

    Returns that iterate and the iterates one step before (unless it is the
    first) and one step after it.
    """
    z = inst.set.project(np.zeros(inst.dimension)) if z0 is None else np.asarray(z0, dtype=float)
    before = []
    for _ in range(max_iter):
        F_z = inst.operator(z)
        if np.linalg.norm(z - inst.set.project(z - F_z)) <= tol:
            return z, [*before, z, eg_step(inst, eta, z)[1]]
        z_half = inst.set.project(z - eta * F_z)
        before = [z]
        z = inst.set.project(z - eta * inst.operator(z_half))
    raise AssertionError("the oracle ran out of budget")


SET_KINDS = ("rn", "orthant", "box", "ball", "halfspaces")


def random_instance(rng, kind, n, lipschitz):
    """A strongly monotone affine operator scaled to ``lipschitz``, on a set of ``kind``."""
    raw = rng.standard_normal((n, n))
    M = raw - raw.T + 0.6 * np.eye(n)
    M *= lipschitz / np.linalg.norm(M, 2)
    op = AffineOperator.create(M, rng.standard_normal(n))
    if kind == "rn":
        feasible = WholeSpace(n)
    elif kind == "orthant":
        feasible = NonnegativeOrthant(n)
    elif kind == "box":
        lo = rng.uniform(-1.0, 0.0, n)
        feasible = Box(lo, lo + rng.uniform(0.2, 1.5, n))
    elif kind == "ball":
        feasible = Ball(rng.standard_normal(n), float(rng.uniform(0.3, 1.0)))
    else:
        a = rng.standard_normal((3, n))
        b = a @ rng.standard_normal(n) - rng.uniform(0.0, 0.5, 3)
        feasible = HalfspaceIntersection(list(zip(a, b)))
    return VIInstance.create(op, feasible)


@pytest.mark.parametrize("kind", SET_KINDS)
@pytest.mark.parametrize("lipschitz, eta_L", [(2.0, 0.5), (0.4, 0.9)], ids=["eta<=1", "eta>1"])
@pytest.mark.parametrize("explicit_z0", [False, True], ids=["default-z0", "explicit-z0"])
def test_matches_the_three_projection_loop(kind, lipschitz, eta_L, explicit_z0):
    rng = np.random.default_rng([SET_KINDS.index(kind), int(10 * lipschitz), int(explicit_z0)])
    for _ in range(3):
        n = int(rng.integers(2, 5))
        inst = random_instance(rng, kind, n, lipschitz)
        eta = eta_L / inst.operator.lipschitz
        assert (eta > 1.0) == (lipschitz < 0.5)
        z0 = inst.set.project(2.0 * rng.standard_normal(n)) if explicit_z0 else None
        z = solve_reference(inst, eta, z0=z0)
        want, near = three_projection_solve(inst, eta, z0=z0)
        if kind == "ball":
            assert np.array_equal(z, want)
        else:
            assert natural_residual(inst, z) <= REFERENCE_TOL
            assert min(np.linalg.norm(z - w) / (1.0 + np.linalg.norm(w)) for w in near) <= 1e-12


@pytest.mark.parametrize("kind", SET_KINDS)
def test_best_residual_is_finite_when_the_budget_runs_out(kind, monkeypatch):
    # the check never runs in 5 steps from far away; the error reports the
    # residual at the last iterate
    rng = np.random.default_rng(5)
    inst = random_instance(rng, kind, 3, 2.0)
    z0 = inst.set.project(np.full(3, 50.0))
    monkeypatch.setattr("egtan.solvers.REFERENCE_TOL", 1e-16)
    monkeypatch.setattr("egtan.solvers.REFERENCE_MAX_ITER", 5)
    with pytest.raises(ReferenceSolveError) as err:
        solve_reference(inst, 0.25, z0=z0)
    assert 0 < err.value.best_residual < np.inf


def test_two_projections_per_step_above_the_gate(monkeypatch):
    # far from tolerance the residual check is skipped; only the error's final
    # residual adds a projection
    calls = []
    inst = make_bilinear(bilinear_spec([[1.0, 2.0], [1.0, 1.0]], [1, 1], [1, 1]))
    monkeypatch.setattr(type(inst.set), "project", counted(type(inst.set).project, calls))
    monkeypatch.setattr("egtan.solvers.REFERENCE_TOL", 1e-16)
    monkeypatch.setattr("egtan.solvers.REFERENCE_MAX_ITER", 50)
    with pytest.raises(ReferenceSolveError):
        solve_reference(inst, eta=0.1, z0=np.full(4, 0.5))
    assert len(calls) <= 2 * 50 + 1
