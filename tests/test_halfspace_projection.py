"""Property tests of the halfspace projection: a KKT certificate for every
draw, agreement with exhaustive active-set enumeration on few rows, and no
false empty set for points far from a nonempty one.  The active-set iteration
answers one active row and a wedge vertex without the NNLS; a degenerate
vertex, where it repeats an active set, reaches the NNLS once.  A set's
memoised faces never change a result."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egtan import sets
from egtan.sets import HalfspaceIntersection, _nnls
from tests.oracles import min_norm_point_by_enumeration


@st.composite
def halfspace_problems(draw):
    """Rows with small integer entries that all hold at an anchor point.

    Later rows may repeat an earlier row, scale it (a negative factor makes a
    slab), or add two earlier rows and their offsets (a redundant row).  Half
    the draws are cones: every offset 0, so the apex sits at the origin.  The
    point is the anchor itself (a quarter of the draws) or any point of a box
    around it.
    """
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 20))
    small = st.integers(-3, 3)
    is_cone = draw(st.booleans())
    anchor = np.zeros(n) if is_cone else np.array(draw(st.lists(small, min_size=n, max_size=n)))
    slack = st.just(0) if is_cone else st.integers(0, 2)
    a_rows, b_rows = [], []
    for _ in range(m):
        kinds = ["duplicate", "parallel", "redundant", "new"] if a_rows else ["new"]
        kind = draw(st.sampled_from(kinds))
        i, j = (draw(st.integers(0, len(a_rows) - 1)) for _ in "ij") if a_rows else (0, 0)
        if kind == "duplicate":
            a, b = a_rows[i], b_rows[i]
        elif kind == "redundant" and (a_rows[i] + a_rows[j]).any():
            a, b = a_rows[i] + a_rows[j], b_rows[i] + b_rows[j] - draw(slack)
        else:
            if kind == "parallel":
                a = a_rows[i] * draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 2.0]))
            else:
                a = np.array(draw(st.lists(small, min_size=n, max_size=n).filter(any)), dtype=float)
            b = float(a @ anchor) - draw(slack)
        a_rows.append(a)
        b_rows.append(b)
    if draw(st.integers(0, 3)) == 0:
        p = anchor.astype(float)
    else:
        p = anchor + np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    return np.array(a_rows, dtype=float), np.array(b_rows, dtype=float), p


def assert_kkt(A, b, p, z):
    """``z`` is feasible and ``z - p = A^T lam`` with ``lam >= 0`` on the active rows only."""
    tol = 1e-9 * (1.0 + np.abs(b).max() + np.abs(p).max())
    slack = A @ z - b
    assert slack.min() >= -tol
    lam = np.zeros(len(b))
    active = slack <= tol
    if active.any():
        lam[active] = _nnls(A[active].T, z - p)
    assert lam.min() >= 0.0
    np.testing.assert_allclose(A.T @ lam, z - p, rtol=0, atol=tol)
    assert abs(lam @ slack) <= tol * (1.0 + lam.sum())


@settings(max_examples=400)
@given(halfspace_problems())
# five rows through the origin of R^2: a line as two opposite rows, a
# duplicated row and one more direction
@example((
    np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [1.0, 0.0], [2.0, 1.0]]),
    np.array([0.0, 0.0, 0.0, 0.0, 0.0]),
    np.array([-3.0, 1.5]),
))
# a hyperplane through 0 as eight multiples of one row; rounding offers the
# NNLS dependent columns, which it must pass over
@example((
    np.outer([1.0, -1.0, -1.0, 1.0, 1.0, 2.0, 3.0, 1.0], [-1.0, -1.0, 2.0, 2.0, 2.0]),
    np.zeros(8),
    np.array([7.259499937437507, 3.2799178057305376, -4.22324732605746, 5.798510600475906,
              3.691085803741821]),
))
def test_halfspace_projection_kkt_and_enumeration(problem):
    A, b, p = problem
    feasible = HalfspaceIntersection(list(zip(A, b)))
    z = feasible.project(p)
    assert_kkt(A, b, p, z)
    if len(b) <= 6:
        np.testing.assert_allclose(
            z, min_norm_point_by_enumeration(A, b, p), rtol=0, atol=1e-11
        )
    if not b.any():  # a cone is its own tangent cone at the apex
        np.testing.assert_array_equal(feasible.project_tangent_cone(np.zeros_like(p), p), z)


@st.composite
def far_problems(draw):
    """A draw of :func:`halfspace_problems` with its point moved 1 to 1e8 away."""
    A, b, p = draw(halfspace_problems())
    n = len(p)
    u = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)), dtype=float)
    return A, b, p + 10.0 ** draw(st.floats(0.0, 8.0)) * u / np.linalg.norm(u)


@settings(max_examples=200)
@given(far_problems())
# a wedge with its vertex near (0.69, 1.0) and a point 2.2e6 away: z carries
# rounding of about 1e-16 * 2.2e6, which once failed the emptiness test
@example((
    np.array([[-2.630367381307939, 0.7239161378227218], [-0.2110471830216745, 0.7793647137401867]]),
    np.array([-1.090325399156081, 0.6372057725780966]),
    np.array([1874179.3543751938, -1222343.2535365454]),
))
def test_far_points_project_onto_nonempty_sets(problem):
    A, b, p = problem
    assert_kkt(A, b, p, HalfspaceIntersection(list(zip(A, b))).project(p))


def test_rotated_orthant_projection_is_the_rotated_clamp():
    # {z : <R e_i, z> >= 0} is the orthant turned by the orthogonal R, so the
    # projection of R p is R max(p, 0); one EG step's two projections
    eta = 0.5
    z_k = np.array([1.0, 0.8, 0.0])
    F_k = np.array([0.4, 2.2, 0.6])
    F_half = np.array([2.4, 1.0, 0.2])
    R = np.linalg.qr(np.random.default_rng(10).standard_normal((3, 3)))[0]
    cone = HalfspaceIntersection([(R[:, i], 0.0) for i in range(3)])
    np.testing.assert_allclose(
        cone.project(R @ z_k - eta * (R @ F_k)), R @ np.maximum(z_k - eta * F_k, 0.0), atol=1e-10
    )
    np.testing.assert_allclose(
        cone.project(R @ z_k - eta * (R @ F_half)), R @ np.maximum(z_k - eta * F_half, 0.0),
        atol=1e-10,
    )


def _no_nnls(*args):
    raise AssertionError("the NNLS ran")


@pytest.mark.parametrize(
    "rows, p, expected",
    [
        ([([1.0, 2.0], 3.0)], [0.0, 0.0], [0.6, 1.2]),
        ([([1.0, 0.0], 1.0), ([0.0, 1.0], -5.0)], [-1.0, 0.0], [1.0, 0.0]),
        ([([1.0, 1.0], 2.0), ([1.0, 1.0], 2.0)], [0.0, 0.0], [1.0, 1.0]),
        ([([1.0, -1.0], 1.0), ([-1.0, 1.0], -1.0)], [0.0, 0.0], [0.5, -0.5]),
        ([([1.0, -1.0], 1.0), ([-1.0, 1.0], -1.0)], [2.0, 0.0], [1.5, 0.5]),
        # the second row passes through the answer: active, with zero multiplier
        ([([0.0, 1.0], 0.0), ([1.0, 1.0], 0.0)], [0.0, -1.0], [0.0, 0.0]),
    ],
    ids=["one-row", "slack-second-row", "duplicate-rows", "hyperplane-below",
         "hyperplane-above", "zero-multiplier"],
)
def test_one_active_row_is_closed_form(rows, p, expected, monkeypatch):
    feasible = HalfspaceIntersection([(np.array(a), b) for a, b in rows])
    monkeypatch.setattr(sets, "_nnls", _no_nnls)
    z = feasible.project(np.array(p))
    np.testing.assert_allclose(z, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        z, min_norm_point_by_enumeration(feasible.a, feasible.b, np.array(p)), rtol=0, atol=1e-15
    )
    # at the answer's face the tangent cone is the same halfspaces through 0
    active = feasible.activity(z)
    v = np.array(p) - z
    np.testing.assert_allclose(feasible.project_tangent_cone(z, v), np.zeros(2), atol=1e-15)
    w = -feasible.a[active[0]]  # straight out of the first active row
    assert np.all(feasible.a[active] @ feasible.project_tangent_cone(z, w) >= -1e-15)


def test_wedge_vertex_makes_no_nnls_call(monkeypatch):
    # the wedge x + y >= 1, -x/2 + y >= 1 has its vertex at (0, 1); p is the
    # vertex minus both normals, so both rows hold with positive multipliers
    A, b = np.array([[1.0, 1.0], [-0.5, 1.0]]), np.array([1.0, 1.0])
    feasible = HalfspaceIntersection(list(zip(A, b)))
    monkeypatch.setattr(sets, "_nnls", _no_nnls)
    p = np.array([0.0, 1.0]) - A.sum(axis=0)
    z = feasible.project(p)
    np.testing.assert_allclose(z, [0.0, 1.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(z, min_norm_point_by_enumeration(A, b, p), rtol=0, atol=1e-15)


def test_degenerate_vertex_reaches_the_nnls_once(monkeypatch):
    # rows 1, 3 and 5 all pass through the answer (-1, 2): from the three rows
    # violated at p the iteration goes {2, 3, 5}, {4, 5}, {1, 5}, {} and back
    # to {2, 3, 5}, and at that repeat the NNLS picks the rows
    A = np.array([[-1.0, 1.0], [-2.0, -1.0], [1.0, 2.0], [1.0, 0.0], [-2.0, 3.0], [3.0, 2.0]])
    b = np.array([2.0, 0.0, 2.0, -1.0, 7.0, 1.0])
    feasible = HalfspaceIntersection(list(zip(A, b)))
    calls, nnls = [], sets._nnls
    monkeypatch.setattr(sets, "_nnls", lambda *args: calls.append(args) or nnls(*args))
    p = np.array([-7.0, 1.0])
    z = feasible.project(p)
    assert len(calls) == 1
    np.testing.assert_allclose(z, [-1.0, 2.0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(z, min_norm_point_by_enumeration(A, b, p), rtol=0, atol=1e-14)


def test_a_fresh_set_projects_as_a_heavily_used_one():
    # the faces a set memoises are functions of its rows alone: after 2000
    # projections and tangent-cone projections, a new set built from the same
    # rows gives the same bits, in either order of calls
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3))
    rows = list(zip(a, a @ rng.standard_normal(3) - rng.uniform(0.0, 0.5, 5)))
    used = HalfspaceIntersection(rows)
    for p in rng.standard_normal((1000, 3)) * 3.0:
        z = used.project(p)
        used.project_tangent_cone(z, rng.standard_normal(3))
    P, V = rng.standard_normal((200, 3)) * 3.0, rng.standard_normal((200, 3))
    fresh = HalfspaceIntersection(rows)
    Z = fresh.project(P)
    np.testing.assert_array_equal(Z, used.project(P))
    np.testing.assert_array_equal(fresh.project_tangent_cone(Z, V), used.project_tangent_cone(Z, V))
    assert len(used._polyhedron._faces) > 1  # the used set did memoise faces
