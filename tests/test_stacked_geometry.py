"""A ``(k, n)`` stack of points gives, row for row, bit for bit, what the
per-point calls give: for every set operation and every point measure.  On the
same draws, the measures keep the inequalities that tie them together."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egtan import sets
from egtan.instances import AffineOperator, DimensionMismatchError, VIInstance
from egtan.measures import gap, natural_residual, tangent_residual
from egtan.sets import (
    FEASIBILITY_TOL,
    Ball,
    Box,
    HalfspaceIntersection,
    InfeasiblePointError,
    NonnegativeOrthant,
    UnsupportedSetError,
    WholeSpace,
)
from egtan.solvers import SolverConfig, eg_run

KINDS = ("box", "orthant", "rn", "ball", "halfspaces")


def assert_bitwise_equal(got, expected):
    got, expected = np.asarray(got), np.asarray(expected, dtype=float)
    np.testing.assert_array_equal(got, expected)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()  # signs of zeros too


def row_by_row(fn, *stacks):
    return np.array([fn(*rows) for rows in zip(*stacks)])


def has_gap_oracle(feasible):
    return isinstance(feasible, (Box, WholeSpace))


def _box_rows(draw, n, k, orthant):
    """A box with finite, half-infinite, free and pinned coordinates, and rows
    on and inside its bounds."""
    l, u, ref = [], [], []
    for _ in range(n):
        kind = "lower" if orthant else draw(
            st.sampled_from(["finite", "lower", "upper", "free", "pinned"])
        )
        a = 0.0 if orthant else draw(st.floats(-10.0, 10.0))
        width = draw(st.floats(0.01, 10.0))
        lo = a if kind in ("finite", "lower", "pinned") else -np.inf
        hi = {"finite": a + width, "upper": a, "pinned": a}.get(kind, np.inf)
        ref_lo = lo if np.isfinite(lo) else (hi if np.isfinite(hi) else a) - width
        ref_hi = hi if np.isfinite(hi) else ref_lo + width
        l.append(lo)
        u.append(hi)
        ref.append((ref_lo, ref_hi))
    feasible = NonnegativeOrthant(n) if orthant else Box(np.array(l), np.array(u))
    Z = np.empty((k, n))
    for r in range(k):
        for i, (ref_lo, ref_hi) in enumerate(ref):
            spot = draw(st.sampled_from(["lower", "upper", "inside"]))
            c = {"lower": ref_lo, "upper": ref_hi}.get(
                spot, ref_lo + draw(st.floats(0.0, 1.0)) * (ref_hi - ref_lo)
            )
            Z[r, i] = min(max(c, feasible.l[i]), feasible.u[i])
    return feasible, Z


@st.composite
def stacked_problems(draw):
    """A set, feasible rows ``Z``, direction/cost rows ``V``, rows ``P`` to project, a
    radius ``D`` and an operator.  ``V`` has zero entries and whole zero rows."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("box", "orthant"):
        feasible, Z = _box_rows(draw, n, k, kind == "orthant")
    elif kind == "rn":
        feasible, Z = WholeSpace(n), rng.uniform(-3.0, 3.0, (k, n))
    elif kind == "ball":
        feasible = Ball(rng.standard_normal(n), float(rng.uniform(0.5, 2.0)))
        d = rng.standard_normal((k, n))
        scale = [draw(st.sampled_from([0.0, 1.0, float(rng.random())])) for _ in range(k)]
        Z = feasible.center + feasible.radius * np.array(scale)[:, None] * d / np.linalg.norm(
            d, axis=1, keepdims=True
        )  # center, on the sphere, or inside
    else:
        m = draw(st.integers(1, 3))
        a = rng.standard_normal((m, n))
        z0 = rng.standard_normal(n)
        feasible = HalfspaceIntersection(list(zip(a, a @ z0 - rng.uniform(0.0, 0.5, m))))
        projected = [feasible.project(p) for p in rng.uniform(-3.0, 3.0, (k, n))]  # on faces
        Z = np.array([p if feasible.infeasibility(p) <= FEASIBILITY_TOL else z0 for p in projected])
    entry = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))
    V = np.array([[0.0] * n if draw(st.integers(0, 4)) == 0 else [draw(entry) for _ in range(n)]
                  for _ in range(k)])
    P = rng.uniform(-5.0, 5.0, (k, n))
    D = 10.0 ** draw(st.floats(-2.0, 2.0))
    op = AffineOperator.create(rng.standard_normal((n, n)), rng.standard_normal(n), 1.0, 0.0)
    return feasible, Z, V, P, D, op


# One stack on [0, 1] x [0, inf) at D = 0.65, row by row: D before the first
# breakpoint, between two, the corner inside the ball, a zero cost, D past the
# last finite breakpoint (riding the unbounded axis), and a point on two bounds.
WALK_CASES = (
    Box(np.zeros(2), np.array([1.0, np.inf])),
    np.array([[0.9, 0.9], [0.5, 0.5], [0.2, 0.1], [0.5, 0.5], [0.1, 0.5], [0.0, 0.0]]),
    np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [1.0, -1.0], [-1.0, 1.0]]),
    np.array([[2.0, -1.0], [0.5, 0.5], [-1.0, 3.0], [0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]),
    0.65,
    AffineOperator.create(np.array([[0.5, -1.0], [1.0, 0.5]]), np.array([1.0, -2.0]), 1.0, 0.0),
)


@settings(max_examples=300)
@given(stacked_problems())
@example(WALK_CASES)
def test_set_operations_match_row_by_row(problem):
    feasible, Z, V, P, D, _ = problem
    assert_bitwise_equal(feasible.project(P), row_by_row(feasible.project, P))
    for method in (feasible.project_tangent_cone, feasible.project_normal_cone):
        assert_bitwise_equal(method(Z, V), row_by_row(method, Z, V))
    if not has_gap_oracle(feasible):
        with pytest.raises(UnsupportedSetError):
            feasible.linear_min_over_ball(Z, D, V)
        return
    z, value = feasible.linear_min_over_ball(Z, D, V)
    singles = [feasible.linear_min_over_ball(c, D, g) for c, g in zip(Z, V)]
    assert_bitwise_equal(z, [s[0] for s in singles])
    assert_bitwise_equal(value, [s[1] for s in singles])
    assert all(isinstance(s[1], float) for s in singles)
    assert feasible.infeasibility(z) == 0.0
    assert np.all(np.linalg.norm(z - Z, axis=1) <= D * (1 + 1e-12))
    still = ~V.any(axis=1)  # a zero cost stays at the center
    np.testing.assert_array_equal(z[still], Z[still])


def halfspace_stack(rng, n, m, k, kind):
    """A set of ``m`` halfspaces in ``R^n``, ``k`` points to project, ``k`` points of the set
    and ``k`` directions.

    ``kind`` ``"vertex"`` puts every row through one point, a degenerate
    vertex once ``m > n``; ``"repeat"`` makes the last row the first scaled
    by 2, the same unit row, so a face holding both is rank deficient;
    ``"slack"`` gives each row some slack at a common point.  The points to
    project lie at distances from 0.1 to 1000, so some violate rows their
    projection does not hold.
    """
    z0, a = rng.standard_normal(n), rng.standard_normal((m, n))
    b = a @ z0 - (0.0 if kind == "vertex" else rng.uniform(0.0, 0.5, m))
    if kind == "repeat":
        a[-1], b[-1] = 2.0 * a[0], 2.0 * b[0]
    feasible = HalfspaceIntersection(list(zip(a, b)))
    spread = 10.0 ** rng.integers(-1, 4, (k, 1))
    P = z0 + spread * rng.standard_normal((k, n))
    Z = feasible.project(z0 + spread * rng.standard_normal((k, n)))
    return feasible, P, Z, rng.standard_normal((k, n))


@st.composite
def halfspace_stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return halfspace_stack(rng, draw(st.integers(1, 4)), draw(st.integers(1, 7)),
                           draw(st.integers(1, 8)), draw(st.sampled_from(["vertex", "repeat", "slack"])))


def _degenerate_vertex_stack():
    """The degenerate vertex of ``test_degenerate_vertex_reaches_the_nnls_once``: rows 1, 3 and 5
    pass through (-1, 2), and the iteration from (-7, 1) repeats a face and takes the NNLS."""
    A = np.array([[-1.0, 1.0], [-2.0, -1.0], [1.0, 2.0], [1.0, 0.0], [-2.0, 3.0], [3.0, 2.0]])
    b = np.array([2.0, 0.0, 2.0, -1.0, 7.0, 1.0])
    feasible = HalfspaceIntersection(list(zip(A, b)))
    P = np.array([[-7.0, 1.0], [-1.0, 2.0], [5.0, -3.0], [-7.0, 1.0], [0.0, 10.0], [-3.0, 0.0]])
    Z = feasible.project(P)
    return feasible, P, Z, np.array([[1.0, 0.0], [-1.0, -1.0], [0.0, 1.0], [2.0, -3.0],
                                     [-1.0, 0.5], [0.0, 0.0]])


@settings(max_examples=300)
@given(halfspace_stacks())
@example(_degenerate_vertex_stack())
def test_halfspace_stacks_match_row_by_row(problem):
    # rows of one stack take different numbers of rounds and different routes
    feasible, P, Z, V = problem
    assert_bitwise_equal(feasible.project(P), row_by_row(feasible.project, P))
    assert_bitwise_equal(feasible.project_tangent_cone(Z, V),
                         row_by_row(feasible.project_tangent_cone, Z, V))


def test_halfspace_stacks_reach_every_route(monkeypatch):
    # the stacks drawn above meet rows that need two rounds or more, faces
    # whose rows are rank deficient, and the NNLS
    faces, nnls = [], []
    on_face, cold = sets._Polyhedron.on_face, sets._nnls

    def recorded(*args):
        out = on_face(*args)
        faces.append(out[2])  # whether the face's rows are rank deficient
        return out

    monkeypatch.setattr(sets._Polyhedron, "on_face", recorded)
    monkeypatch.setattr(sets, "_nnls", lambda *args: nnls.append(1) or cold(*args))
    rounds, deficient, routes = 0, 0, 0
    rng = np.random.default_rng(0)
    for kind in ("vertex", "repeat", "slack") * 40:
        feasible, P, _, _ = halfspace_stack(rng, int(rng.integers(1, 5)), int(rng.integers(1, 8)), 4, kind)
        for p in P:
            faces.clear(), nnls.clear()
            feasible.project(p)
            rounds += len(faces) >= 2 and not nnls
            deficient += any(faces)
            routes += bool(nnls)
    assert rounds and deficient and routes  # 160, 138 and 14 of the 480 rows
    feasible, P, _, _ = _degenerate_vertex_stack()
    faces.clear(), nnls.clear()
    feasible.project(P[:1])
    assert len(nnls) == 1 and len(faces) == 5  # four faces tried, and the NNLS's


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_project_rejects_a_non_finite_row(kind, bad):
    feasible = {
        "box": Box(-np.ones(2), np.ones(2)),
        "orthant": NonnegativeOrthant(2),
        "rn": WholeSpace(2),
        "ball": Ball(np.zeros(2), 1.0),
        "halfspaces": HalfspaceIntersection([(np.array([1.0, 0.0]), 0.0), (np.ones(2), -1.0)]),
    }[kind]
    P = np.array([[0.5, 5.0], [bad, 0.0], [-3.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        for p in (P[1], P):
            with pytest.raises(ValueError, match="^p must be finite"):
                feasible.project(p)


@settings(max_examples=200)
@given(stacked_problems())
@example(WALK_CASES)
def test_measures_match_row_by_row(problem):
    feasible, Z, _, _, D, op = problem
    inst = VIInstance.create(op, feasible)
    F = row_by_row(op, Z)
    measures = [natural_residual, tangent_residual]
    if has_gap_oracle(feasible):
        measures.append(lambda inst, z, F_z=None: gap(inst, z, D, F_z))
    else:
        with pytest.raises(UnsupportedSetError):
            gap(inst, Z, D, F)
    for measure in measures:
        singles = [measure(inst, z) for z in Z]
        assert all(isinstance(s, float) for s in singles)
        assert_bitwise_equal(measure(inst, Z), singles)
        assert_bitwise_equal(measure(inst, Z, F), singles)
        assert_bitwise_equal(row_by_row(lambda z, F_z: measure(inst, z, F_z), Z, F), singles)
    # the point measures are the 1-D norms of their definitions, to the bit
    assert_bitwise_equal([natural_residual(inst, z) for z in Z],
                         [np.linalg.norm(z - feasible.project(z - op(z))) for z in Z])
    assert_bitwise_equal([tangent_residual(inst, z) for z in Z],
                         [np.linalg.norm(feasible.project_tangent_cone(z, -op(z))) for z in Z])


@settings(max_examples=300)
@given(stacked_problems())
@example(WALK_CASES)
def test_measure_inequalities_hold_on_every_set(problem):
    feasible, Z, V, _, D, op = problem
    # Moreau decomposition: v splits into orthogonal tangent and normal parts
    T, N = feasible.project_tangent_cone(Z, V), feasible.project_normal_cone(Z, V)
    scale = 1.0 + np.abs(V).max()
    np.testing.assert_allclose(T + N, V, rtol=0, atol=1e-9 * scale)
    assert np.all(np.abs(np.vecdot(T, N)) <= 1e-9 * scale**2)
    # the tangent residual dominates the natural residual and bounds the gap
    inst = VIInstance.create(op, feasible)
    r_tan = tangent_residual(inst, Z)
    assert np.all(r_tan >= natural_residual(inst, Z) - 1e-10 * (1.0 + r_tan))
    if has_gap_oracle(feasible):
        assert np.all(gap(inst, Z, D) <= D * r_tan + 1e-10 * (1.0 + D * r_tan))
    # and never rises along EG on a monotone operator at eta = 0.5 / L, up to
    # 1e-8 of the starting residual (rounding near a solution)
    monotone = AffineOperator.create(op.M - op.M.T + 0.1 * np.eye(len(op.q)), op.q)
    config = SolverConfig(0.5 / monotone.lipschitz, 30)
    r = eg_run(VIInstance.create(monotone, feasible), config, Z[0]).series("tangent-residual")
    assert np.all(r[1:] <= r[:-1] + 1e-8 * r[0])


@pytest.mark.parametrize("kind", KINDS)
def test_empty_stack(kind):
    n = 3
    feasible = {
        "box": Box(-np.ones(n), np.ones(n)),
        "orthant": NonnegativeOrthant(n),
        "rn": WholeSpace(n),
        "ball": Ball(np.zeros(n), 1.0),
        "halfspaces": HalfspaceIntersection([(np.ones(n), -1.0)]),
    }[kind]
    empty = np.empty((0, n))
    assert feasible.project(empty).shape == (0, n)
    assert feasible.project_tangent_cone(empty, empty).shape == (0, n)
    assert feasible.project_normal_cone(empty, empty).shape == (0, n)
    inst = VIInstance.create(AffineOperator.create(np.eye(n), np.zeros(n)), feasible)
    assert tangent_residual(inst, empty).shape == (0,)
    assert natural_residual(inst, empty).shape == (0,)
    if has_gap_oracle(feasible):
        z, value = feasible.linear_min_over_ball(empty, 1.0, empty)
        assert z.shape == (0, n) and value.shape == (0,)
        assert gap(inst, empty, 1.0).shape == (0,)


OUTSIDE = {  # a set, two feasible rows, and a point infeasible by 0.5
    "box": (Box(np.zeros(2), np.ones(2)), [[0.5, 0.5], [1.0, 0.0]], [1.5, 0.5]),
    "orthant": (NonnegativeOrthant(2), [[0.5, 0.5], [0.0, 2.0]], [-0.5, 1.0]),
    "ball": (Ball(np.zeros(2), 1.0), [[0.5, 0.5], [1.0, 0.0]], [0.9, 1.2]),
    "halfspaces": (HalfspaceIntersection([(np.array([1.0, 0.0]), 0.0)]), [[0.5, 0.5], [0.0, 3.0]],
                   [-0.5, 0.0]),
}


@pytest.mark.parametrize("kind", sorted(OUTSIDE))
@pytest.mark.parametrize("row", [0, 1, 2])
def test_one_infeasible_row_raises(kind, row):
    feasible, rows, outside = OUTSIDE[kind]
    Z = np.insert(np.array(rows), row, outside, axis=0)
    V = np.ones_like(Z)
    for method in (feasible.project_tangent_cone, feasible.project_normal_cone):
        with pytest.raises(InfeasiblePointError) as err:
            method(Z, V)
        assert err.value.magnitude == pytest.approx(0.5)
    if has_gap_oracle(feasible):
        with pytest.raises(InfeasiblePointError):
            feasible.linear_min_over_ball(Z, 1.0, V)


@pytest.mark.parametrize("row", [0, 1, 2])
def test_nan_in_any_row_is_named(row):
    box = Box(np.zeros(2), np.ones(2))
    inst = VIInstance.create(AffineOperator.create(np.eye(2), np.zeros(2)), box)
    good = np.full((3, 2), 0.5)
    bad = good.copy()
    bad[row, 1] = np.nan
    with pytest.raises(ValueError, match="^center must be finite"):
        box.linear_min_over_ball(bad, 1.0, good)
    with pytest.raises(ValueError, match="^cost must be finite"):
        box.linear_min_over_ball(good, 1.0, bad)
    with pytest.raises(ValueError, match="^z must be finite"):
        gap(inst, bad, 1.0)
    with pytest.raises(ValueError, match="^z must be finite"):
        gap(inst, bad, 1.0, F_z=good)
    with pytest.raises(ValueError, match="^z must be finite"):
        natural_residual(inst, bad)


def test_cached_operator_values_must_match_the_stack():
    box = Box(np.zeros(2), np.ones(2))
    inst = VIInstance.create(AffineOperator.create(np.eye(2), np.zeros(2)), box)
    Z = np.full((3, 2), 0.5)
    for measure in (natural_residual, tangent_residual):
        with pytest.raises(DimensionMismatchError, match="F_z"):
            measure(inst, Z, Z[:2])
    with pytest.raises(DimensionMismatchError, match="F_z"):
        gap(inst, Z, 1.0, Z[0])
