"""EG and PP runs on boxes and halfspace sets taken in affine segments,
against the step-by-step run.

``eg_run`` and ``solve_reference`` take point steps until a step lands on
the faces of the step before it.  On a box or a halfspace set they then
predict blocks of 8 iterates, growing ×8, from the affine map of a step on
that face and check every prediction in one stacked step; a block that
leaves the face goes back to point steps.  So a run no longer equals its
steps taken one by one bit for bit.  What holds instead, and is pinned here:

* every half iterate is ``eg_step`` of its iterate, bit for bit, and so is
  every iterate a point step makes: the first two after each change of face;
* every iterate lies within ``_nnls_stop(n + 1, n) (1 + ||z||)`` of the
  full step of the iterate before it, on the face that step accepted: on a
  box exactly on every bound it lands on, on a halfspace set on the rows
  its projection holds, to the rounding of both;
* on a contractive run the iterates agree with the stepwise run
  (``tests.oracles.eg_iterates_by_steps``) to 1e-12 relative, and on an
  integer box with an exact rational run to 1e-12 (1 + ||z||).

The ball is the set that never gets a map: every step is a point step, and
an EG run equals its steps bit for bit.  An operator that is not an
``AffineOperator`` is called on points only.

A PP run goes in the same segments, on the face its steps accept: every
iterate a point step makes is ``pp_step`` of the one before, bit for bit,
the first two after each change of face among them, and every other
iterate lies within the same floor of that step, on its face.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egtan import solvers
from egtan.instances import AffineOperator, VIInstance
from egtan.sets import Box, HalfspaceIntersection, NonnegativeOrthant, WholeSpace, _floor, _nnls_stop
from egtan.solvers import (SolverConfig, _eg_method, _eg_steps, _predict, _segments, _step_matrix, eg_run,
                           eg_step, pp_run, pp_step, solve_reference)
from tests.oracles import eg_iterates_by_steps, eg_step_exact, pp_iterates_by_steps, tangent_residual_sq_exact
from tests.test_affine_vi import random_operator, random_set
from tests.test_cli import counted


def assert_steps_pinned(inst, eta, traj):
    """Each step of a segmented run against ``eg_step`` from its iterate.

    The half iterate is ``eg_step``'s bit for bit.  The next iterate is
    within the floor of its full step, and on the face that full step
    accepted: on a box exactly on every bound the step lands on, so the
    tangent cone reads the same active bounds; on a halfspace set on each
    row the step's projection holds, to the floor and the projection's own
    rounding.
    """
    n = inst.dimension
    zs = traj.iterates
    for k in range(len(zs) - 1):
        z_half, z_next = eg_step(inst, eta, zs[k])
        np.testing.assert_array_equal(traj.half_iterates[k], z_half)
        floor = _nnls_stop(n + 1, n) * (1.0 + np.linalg.norm(zs[k + 1]))
        assert np.linalg.norm(zs[k + 1] - z_next) <= floor, k
        if isinstance(inst.set, Box):
            on = np.logical_or(*inst.set._active_bounds(z_next))
            np.testing.assert_array_equal(zs[k + 1][on], z_next[on])
            continue
        to_next = zs[k] - eta * inst.operator(z_half)
        poly, face = inst.set._polyhedron, inst.set._project_on_faces(to_next[None])[1][0]
        rounding = _floor(n, len(poly.b), poly.offset, np.linalg.norm(to_next), np.linalg.norm(z_next))
        slack = poly.A[face] @ zs[k + 1] - poly.b[face]
        assert np.all(np.abs(slack) <= floor + rounding), k


def pp_run_recorded(inst, config, z0):
    """``pp_run`` and the iterates its point steps made: each ``solve_affine_vi`` answer, in order."""
    made, solve = [], inst.set.solve_affine_vi

    def recording(H, g, hint=None):
        out = solve(H, g, hint)
        made.append(out[0])
        return out

    inst.set.solve_affine_vi = recording
    try:
        return pp_run(inst, config, z0), made
    finally:
        del inst.set.solve_affine_vi


def assert_pp_steps_pinned(inst, eta, traj, made):
    """Each step of a segmented PP run on a polyhedral set against ``pp_step`` from its iterate.

    ``made`` holds the iterates the run's point steps made, in order
    (:func:`pp_run_recorded`): each is ``pp_step`` of the iterate before
    it, bit for bit.  Every other iterate is within the floor of that
    step, and on the face the step's solve accepted: each of its rows holds
    there to the floor and the solve's own rounding.
    """
    n, zs, poly = inst.dimension, traj.iterates, inst.set._polyhedron
    H = np.eye(n) + eta * inst.operator.M
    points = iter(made)
    point = next(points, None)
    for k in range(len(zs) - 1):
        w, S = inst.set.solve_affine_vi(H, eta * inst.operator.q - zs[k])  # pp_step's call, with its face
        if point is not None and np.array_equal(zs[k + 1], point):
            np.testing.assert_array_equal(zs[k + 1], w)
            point = next(points, None)
            continue
        floor = _nnls_stop(n + 1, n) * (1.0 + np.linalg.norm(zs[k + 1]))
        assert np.linalg.norm(zs[k + 1] - w) <= floor, k
        x = np.linalg.solve(H, zs[k] - eta * inst.operator.q)
        rounding = _floor(n, len(poly.b), poly.offset, np.linalg.norm(x), np.linalg.norm(w))
        assert np.all(np.abs(poly.A[S] @ zs[k + 1] - poly.b[S]) <= floor + rounding), k
    assert point is None  # every point step's iterate is in the run, in order


def skew_game(rng, kind):
    """A bilinear game's operator ``[[0, A], [-A^T, 0]]`` (gamma = 0) on a set of ``kind``."""
    a, b = (int(d) for d in rng.integers(1, 4, 2))
    A = rng.standard_normal((a, b))
    n = a + b
    M = np.block([[np.zeros((a, a)), A], [-A.T, np.zeros((b, b))]])
    op = AffineOperator.create(M, rng.standard_normal(n))
    if kind == "box":
        lo = rng.uniform(-1.0, 0.0, n)
        feasible = Box(lo, lo + rng.uniform(0.2, 1.5, n))
    elif kind == "halfspaces":
        feasible = random_set(rng, kind, n)[0]
    else:
        feasible = NonnegativeOrthant(n) if kind == "orthant" else WholeSpace(n)
    inst = VIInstance.create(op, feasible)
    return inst, feasible.project(2.0 * rng.standard_normal(n))


@settings(max_examples=60)
@given(st.sampled_from(("box", "orthant", "rn", "halfspaces")), st.sampled_from((0.5, 0.9, 0.99, 1.2)),
       st.integers(0, 2**32 - 1))
def test_segmented_runs_keep_every_step(kind, eta_L, seed):
    inst, z0 = skew_game(np.random.default_rng(seed), kind)
    eta = eta_L / inst.operator.lipschitz
    config = SolverConfig(eta=eta, T=150)
    if eta_L < 1.0:
        traj = eg_run(inst, config, z0)
    else:  # expansive: the run warns, and its predictions must not overflow
        with pytest.warns(UserWarning, match="do not apply"):
            traj = eg_run(inst, config, z0)
    assert_steps_pinned(inst, eta, traj)
    if eta_L < 1.0:
        zs, halfs = eg_iterates_by_steps(inst, eta, z0, config.T)
        scale = 1.0 + np.linalg.norm(zs, axis=1)
        assert np.all(np.linalg.norm(traj.iterates - zs, axis=1) <= 1e-12 * scale)
        assert np.all(np.linalg.norm(traj.half_iterates - halfs, axis=1) <= 1e-12 * scale[:-1])
        # PP runs in the same segments, on the faces its steps accept
        traj, made = pp_run_recorded(inst, config, z0)
        assert_pp_steps_pinned(inst, eta, traj, made)
        zs = pp_iterates_by_steps(inst, eta, z0, config.T)
        scale = 1.0 + np.linalg.norm(zs, axis=1)
        assert np.all(np.linalg.norm(traj.iterates - zs, axis=1) <= 1e-12 * scale)


def integer_box_instance(rng, n):
    """Integer monotone data on an integer box: ``M = R - R^T + G^T G``."""
    R = rng.integers(-3, 4, (n, n))
    G = rng.integers(-2, 3, (n, n))
    M, q = R - R.T + G.T @ G, rng.integers(-5, 6, n)
    l = rng.integers(-3, 1, n)
    u = l + rng.integers(1, 5, n)
    return M, q, l, u, rng.integers(l, u + 1)


@settings(max_examples=40)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_exact_tangent_residual_never_increases_on_integer_boxes(n, seed):
    M, q, l, u, z0 = integer_box_instance(np.random.default_rng(seed), n)
    op = AffineOperator.create(M.astype(float), q.astype(float))
    eta = Fraction(1, max(1, math.ceil(2.0 * op.lipschitz)))
    data = [[int(m) for m in row] for row in M], [int(x) for x in q], list(map(int, l)), list(map(int, u))
    zs = [[Fraction(int(x)) for x in z0]]
    for _ in range(40):
        zs.append(eg_step_exact(*data, eta, zs[-1])[1])
    r_sq = [tangent_residual_sq_exact(*data, z) for z in zs]
    assert all(after <= before for before, after in zip(r_sq, r_sq[1:]))

    inst = VIInstance.create(op, Box(l.astype(float), u.astype(float)))
    traj = eg_run(inst, SolverConfig(eta=float(eta), T=40), z0.astype(float))
    exact = np.array([[float(x) for x in z] for z in zs])
    assert np.all(np.linalg.norm(traj.iterates - exact, axis=1)
                  <= 1e-12 * (1.0 + np.linalg.norm(exact, axis=1)))


def orthant_instance(seed, n=4, mu=0.2):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    op = AffineOperator.create(raw - raw.T + mu * np.eye(n), rng.standard_normal(n))
    return VIInstance.create(op, NonnegativeOrthant(n)), rng.uniform(0.0, 1.5, n)


def test_box_runs_project_per_segment_not_per_step(monkeypatch):
    # a run past its last change of face adds a block per ×8 growth, not a step's projections
    calls = []
    monkeypatch.setattr(Box, "project", counted(Box.project, calls))
    inst, z0 = orthant_instance(7)
    eta = 0.5 / inst.operator.lipschitz
    counts = []
    for T in (100, 1000):
        calls.clear()
        eg_run(inst, SolverConfig(eta=eta, T=T), z0)
        counts.append(len(calls))
    assert counts[1] - counts[0] <= 2 * 6
    assert counts[0] < 100


def test_a_reference_solve_projects_far_less_than_twice_per_step(monkeypatch):
    inst, _ = orthant_instance(11)
    eta = 0.5 / inst.operator.lipschitz
    z = solve_reference(inst, eta)
    zs, _ = eg_iterates_by_steps(inst, eta, inst.set.project(np.zeros(4)), 5000)
    steps = int(np.argmin(np.linalg.norm(zs - z, axis=1)))
    assert np.linalg.norm(zs[steps] - z) <= 1e-12 * (1.0 + np.linalg.norm(z))
    calls = []
    monkeypatch.setattr(Box, "project", counted(Box.project, calls))
    solve_reference(inst, eta)
    assert steps > 100 and len(calls) <= steps / 5


@pytest.mark.parametrize("push, z0, bound, at", [
    (1.0, 10.0 - 2.0**-49, 0.0, 20), (-1.0, 10.0 + 2.0**-49, 15.0, 10),
], ids=["lower", "upper"])
def test_a_crossing_inside_the_floor_lands_on_the_bound(push, z0, bound, at):
    # a constant F moves z by eta = 1/2 a step, and step `at` overshoots the
    # bound by 2^-49, less than the floor: only the face tells the predicted
    # free step from the projection onto the bound
    op = AffineOperator.create(np.zeros((1, 1)), np.full(1, push))
    inst = VIInstance.create(op, Box(np.zeros(1), np.full(1, 15.0)))
    traj = eg_run(inst, SolverConfig(eta=0.5, T=40), np.array([z0]))
    assert_steps_pinned(inst, 0.5, traj)
    assert np.all(traj.iterates[at:] == bound) and np.all(traj.iterates[:at] != bound)


@pytest.mark.parametrize("seed", range(8))
def test_a_non_normal_step_keeps_every_prediction_inside_the_floor(seed):
    # powers of a far-from-normal step matrix carry more rounding than one
    # step does; the predictions that drift past the floor are not kept
    rng = np.random.default_rng(seed)
    M = np.array([[0.0, 100.0], [-0.01, 0.0]]) + 0.01 * rng.standard_normal((2, 2))
    inst = VIInstance.create(AffineOperator.create(M, rng.standard_normal(2)), WholeSpace(2))
    eta = 0.99 / inst.operator.lipschitz
    assert_steps_pinned(inst, eta, eg_run(inst, SolverConfig(eta=eta, T=1000), rng.standard_normal(2)))


def step_faces(inst, eta, traj):
    """The faces of each step of a run, its half step's then its full step's, as the engine reads them."""
    Z = traj.iterates[:-1]
    faces = _eg_steps(inst.operator, inst.set._project_on_faces, eta, Z, inst.operator(Z))[2:]
    return np.concatenate(faces, axis=1)


def test_predictions_from_reused_powers_equal_fresh_ones():
    # a block on the face the last one ended on reuses its step matrix and
    # squarings, and squares further only for a longer block
    inst, z0 = orthant_instance(7)
    eta = 0.5 / inst.operator.lipschitz
    traj = eg_run(inst, SolverConfig(eta=eta, T=50), z0)
    face = step_faces(inst, eta, traj)[-1]
    powers = [_step_matrix(inst, eta, face)]
    _predict(powers, traj.iterates[0], 4)
    assert len(powers) == 2
    reused = _predict(powers, traj.iterates[-1], 64)
    assert len(powers) == 6
    fresh = [_step_matrix(inst, eta, face)]
    np.testing.assert_array_equal(reused, _predict(fresh, traj.iterates[-1], 64))
    for kept, made in zip(powers, fresh, strict=True):
        np.testing.assert_array_equal(kept, made)


def confirmed_faces(faces):
    """How many faces a point step confirms with steps left, by the engine's rule on a run's step faces.

    Without a map, a step is a point step, and one that lands on the faces
    of the step before it, with steps left, builds that face's map; the
    steps after it run on the map until one leaves its face.  A block that
    failed on drift alone would cost one more build; no prediction on the
    contractive runs counted here drifts past the floor.
    """
    builds, face = 0, None
    for k in range(1, len(faces)):
        if face is not None:
            face = face if (faces[k] == face).all() else None
        elif (faces[k] == faces[k - 1]).all() and k < len(faces) - 1:
            builds, face = builds + 1, faces[k]
    return builds


@pytest.mark.parametrize("kind", ["box", "halfspaces"])
def test_a_step_matrix_is_built_once_per_face_a_point_step_confirms(kind, monkeypatch):
    # a map is built only when a point step repeats the faces of the step
    # before it; a face the run leaves after one step costs no build
    calls = []
    monkeypatch.setattr(solvers, "_step_matrix", counted(_step_matrix, calls))
    inst, z0 = orthant_instance(7) if kind == "box" else halfspace_instance(0)
    eta = 0.5 / inst.operator.lipschitz
    T = 1000
    traj = eg_run(inst, SolverConfig(eta=eta, T=T), z0)
    faces = step_faces(inst, eta, traj)
    assert (faces[T // 2:] == faces[-1]).all()  # the faces settle
    changes = int(np.count_nonzero((faces[1:] != faces[:-1]).any(axis=1)))
    assert changes >= 1
    assert len(calls) == confirmed_faces(faces)


def test_a_long_run_on_one_face_takes_few_blocks():
    # two point steps confirm the face of R^n, then blocks of 8, 64, 512 and the rest
    inst, _ = orthant_instance(7)
    inst = VIInstance.create(inst.operator, WholeSpace(4))
    eta = 0.5 / inst.operator.lipschitz
    blocks = list(_segments(np.ones(4), 1000, *_eg_method(inst, eta)))
    assert [len(np.atleast_2d(Z)) for Z, *_ in blocks] == [1, 1, 8, 64, 512, 414]


@pytest.mark.parametrize("kind, seed", [("box", 0), ("box", 2), ("halfspaces", 0), ("halfspaces", 1)])
def test_the_two_iterates_after_a_change_of_face_are_true_steps(kind, seed):
    # they are point steps: the full step of eg_step bit for bit, not a prediction
    inst, z0 = orthant_instance(seed) if kind == "box" else halfspace_instance(seed)
    eta = 0.5 / inst.operator.lipschitz
    T = 300
    traj = eg_run(inst, SolverConfig(eta=eta, T=T), z0)
    faces = step_faces(inst, eta, traj)
    changes = [0] + [k for k in range(1, T) if (faces[k] != faces[k - 1]).any()]
    assert len(changes) >= 2
    for k in changes:
        for j in range(k, min(k + 2, T)):
            np.testing.assert_array_equal(traj.iterates[j + 1], eg_step(inst, eta, traj.iterates[j])[1])


def test_a_long_pp_run_with_an_interior_solution_takes_few_point_steps():
    # the empty face holds all along: two point steps confirm it, then blocks
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((4, 4))
    M = raw - raw.T + 0.5 * np.eye(4)
    z_star = rng.uniform(1.5, 2.5, 4)
    inst = VIInstance.create(AffineOperator.create(M, -M @ z_star), NonnegativeOrthant(4))
    eta = 0.5 / inst.operator.lipschitz
    traj, made = pp_run_recorded(inst, SolverConfig(eta=eta, T=1000), z_star + rng.uniform(-0.5, 0.5, 4))
    assert len(made) <= 10  # a run of point steps makes 1000
    assert_pp_steps_pinned(inst, eta, traj, made)
    np.testing.assert_allclose(traj.iterates[-1], z_star, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind, seed", [("box", 0), ("box", 2), ("halfspaces", 1), ("halfspaces", 3)])
def test_the_two_pp_iterates_after_a_change_of_face_are_true_steps(kind, seed):
    # they are point steps, pp_step bit for bit, while the run takes few point steps in all
    inst, z0 = orthant_instance(seed) if kind == "box" else halfspace_instance(seed)
    eta = 0.5 / inst.operator.lipschitz
    T = 300
    traj, made = pp_run_recorded(inst, SolverConfig(eta=eta, T=T), z0)
    H = np.eye(inst.dimension) + eta * inst.operator.M
    faces = [inst.set.solve_affine_vi(H, eta * inst.operator.q - z)[1] for z in traj.iterates[:-1]]
    changes = [0] + [k for k in range(1, T) if not np.array_equal(faces[k], faces[k - 1])]
    assert len(changes) >= 2 and len(made) <= 3 * len(changes) + 2
    for k in changes:
        for j in range(k, min(k + 2, T)):
            np.testing.assert_array_equal(traj.iterates[j + 1], pp_step(inst, eta, traj.iterates[j]))


def test_ball_runs_equal_their_steps():
    rng = np.random.default_rng(3)
    feasible, z0 = random_set(rng, "ball", 4)
    inst = VIInstance.create(random_operator(rng, 4, monotone=True), feasible)
    eta = 0.9 / inst.operator.lipschitz
    traj = eg_run(inst, SolverConfig(eta=eta, T=50), z0)
    zs, halfs = eg_iterates_by_steps(inst, eta, z0, 50)
    np.testing.assert_array_equal(traj.iterates, zs)
    np.testing.assert_array_equal(traj.half_iterates, halfs)
    np.testing.assert_array_equal(traj.operator_values, inst.operator(zs))


def halfspace_instance(seed, n=4, rows=3):
    """A cli-mixed-like instance: a strongly monotone operator on ``rows`` halfspaces, and a start."""
    rng = np.random.default_rng(seed)
    z0, a = rng.standard_normal(n), rng.standard_normal((rows, n))
    feasible = HalfspaceIntersection(list(zip(a, a @ z0 - rng.uniform(0.0, 0.5, rows))))
    return VIInstance.create(random_operator(rng, n, monotone=True), feasible), z0


@pytest.mark.parametrize("seed", range(4))
def test_halfspace_runs_project_per_segment_not_per_step(seed, monkeypatch):
    # a stepwise fallback would find the faces of 2 T projections, one per call
    calls = []
    monkeypatch.setattr(HalfspaceIntersection, "_project_on_faces",
                        counted(HalfspaceIntersection._project_on_faces, calls))
    inst, z0 = halfspace_instance(seed)
    eta = 0.5 / inst.operator.lipschitz
    traj = eg_run(inst, SolverConfig(eta=eta, T=100), z0)
    assert len(calls) <= 50
    assert_steps_pinned(inst, eta, traj)
    calls.clear()
    solve_reference(inst, eta)
    assert len(calls) <= 50


class RecordingOperator:
    """An operator that is not an :class:`AffineOperator`: it records each argument."""

    def __init__(self, op):
        self.op, self.args = op, []
        self.M, self.q, self.lipschitz = op.M, op.q, op.lipschitz

    def __call__(self, z):
        self.args.append(np.shape(z))
        return self.op(z)


def test_an_operator_that_is_not_affine_is_called_per_row():
    # only an AffineOperator promises that a stack's rows equal its points,
    # so any other operator sees points, and the run is the same bit for bit
    inst, z0 = orthant_instance(7)
    wrapped = RecordingOperator(inst.operator)
    config = SolverConfig(eta=0.5 / inst.operator.lipschitz, T=200)
    plain = eg_run(inst, config, z0)
    traj = eg_run(VIInstance(operator=wrapped, set=inst.set, dimension=4), config, z0)
    for name in ("iterates", "half_iterates", "operator_values"):
        np.testing.assert_array_equal(getattr(traj, name), getattr(plain, name))
    assert set(wrapped.args) == {(4,)} and len(wrapped.args) > 2 * config.T
