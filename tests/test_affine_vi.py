"""Property tests of ``FeasibleSet.solve_affine_vi``, the exact proximal-point
kernel: on all five set types, for monotone and non-monotone operators with
``eta L < 1``, the step is the fixed point of ``w -> proj(z - eta F(w))`` to
rounding and agrees with Picard iteration.  On polyhedral sets a step is the
same bits whether a hint found it or a cold solve did, and a run equals its
steps; on the ball both agree to rounding.  A run takes its steps warm: no
projection, and only a few cold solves."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egtan import sets
from egtan.instances import AffineOperator, VIInstance
from egtan.sets import Ball, Box, EmptySetError, HalfspaceIntersection, NonnegativeOrthant, WholeSpace
from egtan.solvers import SolverConfig, pp_run, pp_step
from tests.oracles import min_norm_point_by_enumeration, pp_iterates_by_steps, prox_point_by_picard
from tests.test_halfspace_projection import assert_kkt, halfspace_problems

SET_KINDS = ("box", "orthant", "rn", "ball", "halfspaces")


def random_set(rng, kind, n):
    """A set of the named kind and a point inside it."""
    if kind == "box":
        lo = rng.uniform(-1.0, 0.0, n)
        hi = lo + rng.uniform(0.5, 2.5, n)
        return Box(lo, hi), rng.uniform(lo, hi)
    if kind == "orthant":
        return NonnegativeOrthant(n), rng.uniform(0.0, 1.5, n)
    if kind == "rn":
        return WholeSpace(n), rng.standard_normal(n)
    if kind == "ball":
        center, radius, d = rng.standard_normal(n), rng.uniform(0.5, 2.0), rng.standard_normal(n)
        return Ball(center, radius), center + rng.uniform(0.0, 0.9) * radius * d / np.linalg.norm(d)
    z = rng.standard_normal(n)
    a = rng.standard_normal((4, n))
    return HalfspaceIntersection(list(zip(a, a @ z - rng.uniform(0.0, 0.5, 4)))), z


def random_operator(rng, n, monotone):
    """A skew part, a PSD part and a shift of the identity (monotone), or any matrix."""
    if monotone:
        skew, G = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        skew -= skew.T  # zero when n = 1
        M = 1.5 * skew / (np.linalg.norm(skew, 2) or 1.0) + 0.3 * G.T @ G / np.linalg.norm(G.T @ G, 2)
        M += 0.5 * np.eye(n)
    else:
        M = rng.standard_normal((n, n))
    return AffineOperator.create(M, rng.standard_normal(n))


@st.composite
def prox_problems(draw):
    """An instance, a step size with ``eta L`` in [0.1, 0.9] and a start ``z``.

    ``z`` is a point of the set or one moved off it by up to 3 in each
    coordinate.
    """
    kind = draw(st.sampled_from(SET_KINDS))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feasible, z = random_set(rng, kind, n)
    op = random_operator(rng, n, monotone=draw(st.booleans()))
    if draw(st.booleans()):
        z = z + rng.uniform(-3.0, 3.0, n)
    eta = draw(st.floats(0.1, 0.9)) / op.lipschitz
    return VIInstance.create(op, feasible), eta, z


def fixed_point_residual(inst, eta, z, w):
    return float(np.linalg.norm(inst.set.project(z - eta * inst.operator(w)) - w))


@settings(max_examples=250)
@given(prox_problems())
def test_step_is_the_fixed_point_and_matches_picard(problem):
    inst, eta, z = problem
    w = pp_step(inst, eta, z)
    scale = 1.0 + np.linalg.norm(z) + np.linalg.norm(w)
    assert fixed_point_residual(inst, eta, z, w) <= 1e-13 * scale
    np.testing.assert_allclose(w, prox_point_by_picard(inst, eta, z), rtol=0, atol=1e-10)


def assert_rows_close(got, want):
    """Each row of ``got`` within ``1e-13 (1 + ||want||)`` of ``want``'s."""
    gap = np.linalg.norm(np.atleast_2d(got - want), axis=1)
    assert np.all(gap <= 1e-13 * (1.0 + np.linalg.norm(np.atleast_2d(want), axis=1))), gap.max()


@settings(max_examples=150)
@given(prox_problems())
def test_warm_and_cold_steps_are_the_same_bits(problem):
    """A hinted step equals a cold one, and ``pp_run`` the loop of ``pp_step`` calls.

    On polyhedra the two are the same bits.  On the ball a hinted Newton run
    ends at its own root, so they agree to ``1e-13 (1 + ||w||)``, and each
    step is the fixed point to rounding.
    """
    inst, eta, z = problem
    H = np.eye(inst.dimension) + eta * inst.operator.M
    w, hint = inst.set.solve_affine_vi(H, eta * inst.operator.q - z)
    w_again, hint_again = inst.set.solve_affine_vi(H, eta * inst.operator.q - z, hint)
    # the next step, with this step's hint and cold; then a run against its steps
    g = eta * inst.operator.q - w
    w_next = inst.set.solve_affine_vi(H, g, hint)[0]
    traj = pp_run(inst, SolverConfig(eta=eta, T=8), inst.set.project(z))
    pairs = [(w_again, w), (w_next, inst.set.solve_affine_vi(H, g)[0]),
             (traj.iterates, pp_iterates_by_steps(inst, eta, traj.iterates[0], 8))]
    if not isinstance(inst.set, Ball):
        np.testing.assert_array_equal(hint_again, hint)
        for got, want in pairs:
            np.testing.assert_array_equal(got, want)
        return
    for got, want in pairs:
        assert_rows_close(got, want)
    steps = [(z, w_again), (w, w_next), *zip(traj.iterates[:-1], traj.iterates[1:])]
    for start, step in steps:
        scale = 1.0 + np.linalg.norm(start) + np.linalg.norm(step)
        assert fixed_point_residual(inst, eta, start, step) <= 1e-13 * scale


# the degenerate one-row cases of test_halfspace_projection.py, and a two-row
# vertex: with H = I the step is the projection
DEGENERATE = {
    "duplicate-rows": ([([1.0, 1.0], 2.0), ([1.0, 1.0], 2.0)], [0.0, 0.0], [1.0, 1.0]),
    "hyperplane-below": ([([1.0, -1.0], 1.0), ([-1.0, 1.0], -1.0)], [0.0, 0.0], [0.5, -0.5]),
    "hyperplane-above": ([([1.0, -1.0], 1.0), ([-1.0, 1.0], -1.0)], [2.0, 0.0], [1.5, 0.5]),
    # the second row passes through the answer: active, with zero multiplier
    "zero-multiplier": ([([0.0, 1.0], 0.0), ([1.0, 1.0], 0.0)], [0.0, -1.0], [0.0, 0.0]),
    # the wedge x + y >= 1, -x/2 + y >= 1 at its vertex, both multipliers positive
    "wedge-vertex": ([([1.0, 1.0], 1.0), ([-0.5, 1.0], 1.0)], [-0.5, -1.0], [0.0, 1.0]),
}


@pytest.mark.parametrize("rows, p, expected", DEGENERATE.values(), ids=DEGENERATE.keys())
def test_degenerate_halfspace_cases(rows, p, expected):
    feasible = HalfspaceIntersection([(np.array(a), b) for a, b in rows])
    p = np.array(p)
    w, hint = feasible.solve_affine_vi(np.eye(2), -p)
    np.testing.assert_allclose(w, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, min_norm_point_by_enumeration(feasible.a, feasible.b, p), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(feasible.solve_affine_vi(np.eye(2), -p, hint)[0], w)
    # a skew operator, monotone and not, at eta L = 0.5 and 0.9
    for M, etaL in (([[0.2, -1.0], [1.0, 0.2]], 0.5), ([[-0.3, 2.0], [0.4, 0.1]], 0.9)):
        inst = VIInstance.create(AffineOperator.create(np.array(M), np.array([0.5, -0.25])), feasible)
        eta = etaL / inst.operator.lipschitz
        step = pp_step(inst, eta, p)
        assert fixed_point_residual(inst, eta, p, step) <= 1e-14
        np.testing.assert_allclose(step, prox_point_by_picard(inst, eta, p), rtol=0, atol=1e-10)


@settings(max_examples=300)
@given(halfspace_problems(), st.integers(0, 2**32 - 1))
# a cone with one row nine times over and its opposite: degenerate pivots
# bring z0 to 0 only to rounding, and past that point the next column is a ray
@example(
    (np.array([[1.0, 0, 0], [3, 1, 1], [4, 1, 1], *[[1, 0, 0]] * 4, [-8, -2, -2], *[[1, 0, 0]] * 3,
               [0, -3, -2], [1, 0, 0]]), np.zeros(13), np.zeros(3)),
    2171,
)
# an 18-row cone with one row twelve times over: Lemke ends on a basis with
# multipliers up to 40, and the step carries their rounding, 1.3e-12
@example(
    (np.array([*[[0.0, -2, 3, -2, -1]] * 3, [3, 1, -2, -3, -2], *[[0, -2, 3, -2, -1]] * 2,
               [3, 1, -1, -2, 0], *[[0, -2, 3, -2, -1]] * 2, [-6, -2, 2, 4, 0],
               *[[0, -2, 3, -2, -1]] * 5, [1, -1, 2, 1, 2], [-2, 3, -2, 2, 3], [0, -2, 3, -2, -1]]),
     np.zeros(18), np.zeros(5)),
    21,
)
def test_lemke_on_structured_halfspace_sets(problem, seed):
    """Repeated, parallel, opposite and redundant rows, and cones, up to 20 rows.

    With ``H = I`` the step is the projection (which returns a point that
    violates the set by at most ``FEASIBILITY_TOL`` as it is); with a
    non-symmetric ``H`` it is the fixed point, and a second call with the
    first one's hint returns it again.
    """
    A, b, p = problem
    feasible = HalfspaceIntersection(list(zip(A, b)))
    n = len(p)
    scale = 1.0 + np.abs(b).max() + np.abs(p).max()
    w, hint = feasible.solve_affine_vi(np.eye(n), -p)
    assert_kkt(A, b, p, w)
    np.testing.assert_allclose(w, feasible.project(p), rtol=0, atol=sets.FEASIBILITY_TOL * scale)
    inst = VIInstance.create(random_operator(np.random.default_rng(seed), n, monotone=False), feasible)
    eta = 0.7 / inst.operator.lipschitz
    H = np.eye(n) + eta * inst.operator.M
    w, hint = feasible.solve_affine_vi(H, eta * inst.operator.q - p)
    assert fixed_point_residual(inst, eta, p, w) <= 1e-11 * scale
    np.testing.assert_array_equal(feasible.solve_affine_vi(H, eta * inst.operator.q - p, hint)[0], w)


def test_empty_halfspace_sets_raise_empty_set_error():
    # a row repeated, negated and moved 1e-3 past itself; the NNLS used to run
    # out of passes on a few of these and raise LinAlgError instead
    rng = np.random.default_rng(0)
    for _ in range(300):
        a, b, i = rng.standard_normal((4, 4)), rng.standard_normal(4), rng.integers(4)
        rows = list(zip(np.vstack((a, -a[i])), np.append(b, 1e-3 - b[i])))
        with pytest.raises(EmptySetError):
            HalfspaceIntersection(rows)


def narrow_wedge(eps):
    """``{x + eps y >= 1, -x + eps y >= 1}``, whose point nearest 0 is ``(0, 1/eps)``."""
    return HalfspaceIntersection([([1.0, eps], 1.0), ([-1.0, eps], 1.0)])


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
def test_narrow_wedge_steps(eps):
    # the face's point comes from an SVD of its rows, never from the normal
    # equations A H^-1 A^T, which at eps = 1e-8 are singular to rounding
    feasible = narrow_wedge(eps)
    vertex = np.array([0.0, 1.0 / eps])
    tol = 1e-9 * np.linalg.norm(vertex)  # 1e-9 relative
    w, hint = feasible.solve_affine_vi(np.eye(2), np.zeros(2))
    np.testing.assert_allclose(w, vertex, rtol=0, atol=tol)
    assert hint.tolist() == [0, 1]
    inst = VIInstance.create(AffineOperator.create(np.array([[0.2, -1.0], [1.0, 0.2]]),
                                                   np.array([0.5, -0.25])), feasible)
    eta = 0.5 / inst.operator.lipschitz
    for z in (np.zeros(2), vertex + 3.0):
        step = pp_step(inst, eta, z)
        np.testing.assert_allclose(step, prox_point_by_picard(inst, eta, z), rtol=0, atol=tol)
        np.testing.assert_allclose(step, vertex, rtol=0, atol=tol)


def vi_searches_go_cold(monkeypatch):
    """Leave every row of a VI's active-set search cold: a step its hint does not settle takes Lemke."""
    search = sets._Polyhedron.search

    def all_cold(poly, rows, x, H):
        z, faces, cold, r = search(poly, rows, x, H)
        if H is not None:
            cold[:] = True
        return z, faces, cold, r

    monkeypatch.setattr(sets._Polyhedron, "search", all_cold)


def test_a_lemke_ray_on_a_nonempty_set_names_the_parallel_rows(monkeypatch):
    # with the iteration made to go cold, the cold route is Lemke's method on
    # A H^-1 A^T, which rounding makes singular at eps = 1e-8: it ends on a
    # ray, though the step has a solution, and the error says why
    vi_searches_go_cold(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="rows 0 and 1 are nearly parallel"):
        narrow_wedge(1e-8).solve_affine_vi(np.eye(2), np.zeros(2))


def _no_projection(*args):
    raise AssertionError("a proximal-point step made a projection")


@pytest.mark.parametrize("kind", SET_KINDS)
def test_runs_take_warm_steps_and_never_project(kind, monkeypatch):
    """``pp_run`` with T = 100: no projection, and only a few cold solves.

    A cold solve is an active-set search from a point that violates a row
    (it ends on a face or goes cold) or a Lemke call on a polyhedral set,
    or a secular-equation run that starts at ``mu = 0`` and
    ends on the sphere, ``mu > 0``, on the ball.  A ball step factors
    ``H + mu I`` at the hint and once more after each Newton step, at most
    twice per step on average over a run.
    """
    rng = np.random.default_rng(SET_KINDS.index(kind))
    cold, inverses = [], []
    if kind == "ball":
        newton, inv = sets._secular_newton, np.linalg.inv

        def counted(H, r, R, mu, *constants):
            out = newton(H, r, R, mu, *constants)
            if mu == 0.0 and out[0] > 0.0:
                cold.append(mu)
            return out

        monkeypatch.setattr(sets, "_secular_newton", counted)
        monkeypatch.setattr(np.linalg, "inv", lambda K: inverses.append(K) or inv(K))
    else:
        lemke, search = sets._lemke, sets._Polyhedron.search

        def counted_search(poly, rows, x, H):
            out = search(poly, rows, x, H)
            if H is not None and (out[1].any() or out[2].any()):
                cold.append(x)
            return out

        monkeypatch.setattr(sets, "_lemke", lambda M, q: cold.append(q) or lemke(M, q))
        monkeypatch.setattr(sets._Polyhedron, "search", counted_search)
    per_step = []
    for n in (3, 4, 5):
        feasible, z0 = random_set(rng, kind, n)
        inst = VIInstance.create(random_operator(rng, n, monotone=True), feasible)
        eta = 0.5 / inst.operator.lipschitz
        cold.clear()
        inverses.clear()
        with pytest.MonkeyPatch.context() as no_projection:
            no_projection.setattr(type(feasible), "project", _no_projection)
            traj = pp_run(inst, SolverConfig(eta=eta, T=100), z0)
        per_step.append(len(inverses) / 100)
        assert len(cold) <= 4  # 1 to 4 on these runs
        last = prox_point_by_picard(inst, eta, traj.iterates[-2])
        np.testing.assert_allclose(traj.iterates[-1], last, rtol=0, atol=1e-10)
    if kind == "ball":
        assert np.mean(per_step) <= 2.0  # 1.81 on these runs


def unconstrained_step(rng, kind):
    """An instance, ``eta``, ``H``, a start ``z_k`` and its ``g``; ``x = -H^{-1} g`` holds every row."""
    n = int(rng.integers(2, 6))
    feasible, y = random_set(rng, kind, n)
    inst = VIInstance.create(random_operator(rng, n, monotone=True), feasible)
    eta = 0.5 / inst.operator.lipschitz
    H = np.eye(n) + eta * inst.operator.M
    z_k = H @ y + eta * inst.operator.q  # so that x is y to rounding, inside the set
    return inst, eta, H, z_k, eta * inst.operator.q - z_k


@pytest.mark.parametrize("kind", ("box", "orthant", "rn", "halfspaces"))
def test_a_step_whose_unconstrained_solution_holds_every_row_is_that_solution(kind):
    """Where ``x = -H^{-1} g`` violates no row, the step is ``x`` itself, bit for bit.

    As a projection answers a point of the set, ``pp_step`` and
    ``solve_affine_vi`` answer ``x`` on the empty face: cold, with the empty
    hint a cold solve hands on, and with a hint that fails.
    """
    rng = np.random.default_rng(SET_KINDS.index(kind))
    for _ in range(50):
        inst, eta, H, z_k, g = unconstrained_step(rng, kind)
        x = -(np.linalg.inv(H) @ g)
        assert inst.set.infeasibility(x) == 0.0
        assert pp_step(inst, eta, z_k).tobytes() == x.tobytes()
        w, hint = inst.set.solve_affine_vi(H, g)
        assert w.tobytes() == x.tobytes() and hint.size == 0
        for hint in (hint, np.arange(len(inst.set._polyhedron.b))):
            w, hint = inst.set.solve_affine_vi(H, g, hint)
            assert w.tobytes() == x.tobytes() and hint.size == 0


@pytest.mark.parametrize("kind", ("box", "orthant", "halfspaces"))
def test_a_step_whose_hint_holds_solves_one_face_and_searches_nothing(kind, monkeypatch):
    """A hint is tested alone on the point: one face solve, no search of a one-row stack.

    Sending a held hint through the stacked search as a one-row stack keeps
    every bit but makes a polyhedral ``pp_run`` about 2.9 times slower.
    """
    rng = np.random.default_rng(SET_KINDS.index(kind))
    calls = []
    on_face, search = sets._Polyhedron.on_face, sets._Polyhedron.search

    def counted_on_face(poly, S, b_S, x, H):
        calls.append(("on_face", x.ndim))
        return on_face(poly, S, b_S, x, H)

    def counted_search(poly, rows, x, H):
        calls.append(("search", x.ndim))
        return search(poly, rows, x, H)

    monkeypatch.setattr(sets._Polyhedron, "on_face", counted_on_face)
    monkeypatch.setattr(sets._Polyhedron, "search", counted_search)
    held = 0
    for _ in range(20):
        inst, eta, H, z_k, g = unconstrained_step(rng, kind)
        g = g - 3.0 * rng.standard_normal(len(g))  # x off the set: a face holds the step
        w, hint = inst.set.solve_affine_vi(H, g)
        if not hint.size:
            continue
        held += 1
        calls.clear()
        w_again, hint_again = inst.set.solve_affine_vi(H, g, hint)
        assert calls == [("on_face", 1)]
        assert w_again.tobytes() == w.tobytes() and hint_again is hint
    assert held >= 10


def test_ball_hints_that_no_longer_fit():
    """A hint whose root moved into the interior, one far above the root, and ``r = 0``.

    Each step is the cold step to ``1e-13 (1 + ||w||)``, and a step inside
    the ball hands on ``mu = 0``.
    """
    rng = np.random.default_rng(5)
    n = 4
    op = random_operator(rng, n, monotone=True)
    H = np.eye(n) + 0.5 / op.lipschitz * op.M
    ball = Ball(rng.standard_normal(n), 1.5)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    # H w + g = 0 at w = x: x = c + 5u is outside the ball, c + 0.5u inside
    outside, inside = -H @ (ball.center + 5.0 * u), -H @ (ball.center + 0.5 * u)
    w, mu = ball.solve_affine_vi(H, outside)
    assert mu > 0.0
    w_in, mu_in = ball.solve_affine_vi(H, inside, mu)
    assert mu_in == 0.0
    assert_rows_close(w_in, ball.center + 0.5 * u)
    assert_rows_close(w_in, ball.solve_affine_vi(H, inside)[0])
    w_far, mu_far = ball.solve_affine_vi(H, outside, 1e6 * mu)
    assert_rows_close(w_far, w)
    assert mu_far == pytest.approx(mu, rel=1e-12)
    for hint in (None, 0.0, mu, 1e6):  # r = g + H c = 0: w = c, inside
        w_c, mu_c = ball.solve_affine_vi(H, -H @ ball.center, hint)
        np.testing.assert_array_equal(w_c, ball.center)
        assert mu_c == 0.0


def _tangent_of(feasible, z, v):
    """``||T_z(v)|| / ||v||``: about 0 when what ``v`` points out of is active at ``z``."""
    return np.linalg.norm(feasible.project_tangent_cone(z, v)) / np.linalg.norm(v)


@settings(max_examples=300)
@given(halfspace_problems(), st.integers(0, 2**32 - 1))
# the plane y + z = 1 and p just off it, with ||p - z|| = 7e-8 ||p||: even
# the correctly rounded projection leaves p - z a tangent part of 1.1e-9 ||p - z||
@example((np.array([*[[0.0, 1, 1]] * 7, [0, -2, -2]]), np.array([*[1.0] * 7, -2]),
          np.array([0.0, 0, 1.0000001])), 0)
def test_rows_a_halfspace_step_holds_read_as_active(problem, seed):
    """The rounding floor that reads activity covers the kernel's own rounding.

    The rows of the face a step accepts (its hint) are active at its point,
    for the projection (``H = I``) and a non-symmetric ``H``; and the
    projection's own normal ``p - z`` has no tangent part at ``z``.
    """
    A, b, p = problem
    feasible = HalfspaceIntersection(list(zip(A, b)))
    n = len(p)
    M = random_operator(np.random.default_rng(seed), n, monotone=False).M
    for H in (np.eye(n), np.eye(n) + 0.7 * M / np.linalg.norm(M, 2)):
        w, hint = feasible.solve_affine_vi(H, -p)
        assert set(hint.tolist()) <= set(feasible.activity(w).tolist())
    z = feasible.project(p)
    v = p - z
    if np.linalg.norm(v) > 0:
        # z itself is rounded to about eps ||z||, which can leave p - z a
        # tangent part of that size however short p - z is: the rounding floor
        floor = sets._floor(n, len(b), feasible._polyhedron.offset, np.linalg.norm(p), np.linalg.norm(z))
        assert np.linalg.norm(feasible.project_tangent_cone(z, v)) <= 1e-9 * np.linalg.norm(v) + floor


@settings(max_examples=300)
@given(st.integers(1, 6), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 8.0),
       st.integers(0, 2**32 - 1))
def test_a_ball_step_on_the_sphere_reads_it_as_active(n, center_scale, log_radius, log_far, seed):
    """A projection from outside and a step with ``mu > 0`` end on the sphere,
    and there the outward direction has no tangent part."""
    rng = np.random.default_rng(seed)
    feasible = Ball(10.0 ** center_scale * rng.standard_normal(n), 10.0 ** log_radius)
    R, c = feasible.radius, feasible.center
    u = rng.standard_normal(n)
    p = c + R * (1.0 + 10.0 ** log_far) * u / np.linalg.norm(u)
    z = feasible.project(p)
    assert _tangent_of(feasible, z, z - c) <= 1e-9
    M = random_operator(rng, n, monotone=False).M
    for H in (np.eye(n), np.eye(n) + 0.7 * M / np.linalg.norm(M, 2)):
        w, mu = feasible.solve_affine_vi(H, -H @ p)
        if mu > 0.0:
            assert _tangent_of(feasible, w, w - c) <= 1e-9


@pytest.mark.parametrize("mu", [1e-2, 1e-3])
def test_ball_newton_runs_end_near_a_small_multiplier(mu, monkeypatch):
    """A PP step whose multiplier is small beside ``||H||`` ends each secular
    Newton run in a few steps, on the right point.

    A Newton step carries rounding of about ``eps ||H + mu I||``.  A stop
    relative to ``mu`` alone cannot pass once ``mu`` is below about
    ``||H|| / 60``; such runs took all 100 steps of their guard.  Here
    ``H = I + eta M`` with a skew ``M`` of norm 1 and ``eta L = 0.5``, and the
    radius puts the root at ``mu``.
    """
    inverses, runs = [], []
    inv, newton = np.linalg.inv, sets._secular_newton

    def counted(*args, **flags):
        inverses.clear()
        out = newton(*args, **flags)
        runs.append(len(inverses))
        return out

    monkeypatch.setattr(np.linalg, "inv", lambda K: inverses.append(K) or inv(K))
    monkeypatch.setattr(sets, "_secular_newton", counted)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 3))
        op = AffineOperator.create((A - A.T) / np.linalg.norm(A - A.T, 2), rng.standard_normal(3))
        eta = 0.5 / op.lipschitz
        H = np.eye(3) + eta * op.M
        w_mu = -np.linalg.solve(H + mu * np.eye(3), eta * op.q)
        inst = VIInstance.create(op, Ball(np.zeros(3), np.linalg.norm(w_mu)))
        np.testing.assert_allclose(pp_step(inst, eta, np.zeros(3)), w_mu, rtol=0, atol=1e-12)
    assert max(runs) <= 10
