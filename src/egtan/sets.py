"""Feasible sets and the three projections the diagnostics need.

Every set projects onto itself and onto the tangent cone at a feasible point;
every set takes its normal cone by Moreau's decomposition, ``v - T(v)``.  The
nonnegative orthant and ``R^n`` are boxes with infinite bounds, and every box
also minimizes a linear cost exactly over set ∩ ball, for the gap function,
by a breakpoint walk.  Halfspace intersections project by an active-set
iteration from the point itself (:class:`_Polyhedron`): a point that
violates no row is its own projection, on the empty face; any other starts
from the rows it violates, each candidate face is solved in closed form, and
the first whose multipliers are nonnegative and whose point violates no
other row is the answer.  Only a repeated candidate hands the choice of rows
to one Lawson–Hanson NNLS solve of the least-distance dual.

Two tolerances decide what holds.  A point that comes from outside (a
starting point, an argument, the projection that proves a set empty) is
feasible when it violates the set by at most ``FEASIBILITY_TOL`` relative
to the set's and its own scale (:meth:`FeasibleSet.feasibility_tol`).
Whether a constraint is active at a point of the set is decided by the
active-set iteration's own rounding floor, :func:`_floor`: a halfspace row,
or the ball's sphere taken as one row, is active when the point is at,
past or within the floor of it.  The same floor ends the iteration's
search, so a row a projection holds reads as active at its result.  A
box's bound is active only at or past it, the floor of an exact clamp.

Each method takes a point or a ``(k, n)`` stack of points and answers row by
row; a point is the one-row case of the same array code, so a stacked call
equals the per-point calls bit for bit.  The ball projects a point on a
path of its own, with no array dispatch (one ``vecdot``, then float
arithmetic), the path an EG run on the ball takes at every step; it is
bit-equal to the point's row of a stack.  A halfspace projection solves the
rows of a stack that share a candidate face with one call on that face.
``project`` rejects a non-finite point; the solvers call the unchecked
``_project`` on the points they made themselves.  Boxes and halfspace sets
also hand back the face each projection lands on (``_project_on_faces``)
and its affine map (``_face_map``), and so does their polyhedron for a VI
step (``_Polyhedron.hinted``, ``vi_map``): EG and PP runs go in segments.

Every set also solves the affine variational inequality of ``w -> H w + g``
exactly, for any ``H`` with ``x^T H x > 0`` (:meth:`FeasibleSet.solve_affine_vi`,
the proximal-point step).  Boxes and halfspace intersections are
``{w : A w >= b}`` and run the projection's active-set iteration with ``H``
in place of the identity, one loop for projections, tangent cones and steps
(a step whose ``x = -H^{-1} g`` violates no row answers ``x`` itself, as a
projection answers its point); its cold route is Lemke's method on the dual
LCP, whose pivot tolerance is :func:`_pivot_tol`.
The ball solves the trust-region secular equation by safeguarded Newton
steps.  All are finite, and all take a hint from a previous, nearby solve:
a polyhedron's hint is a face, tested alone, and the answer is the same
function of the face a hint or a cold solve found, bit for bit; the ball's
hint is the multiplier its Newton run starts from, and the answer is the
root to rounding.
"""

from __future__ import annotations

import functools
import math

import numpy as np

FEASIBILITY_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


def require_finite(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def require_positive(name: str, value: float) -> float:
    """``value``, or a ``ValueError`` naming ``name`` unless ``0 < value < inf``."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def require_box_bounds(l: np.ndarray, u: np.ndarray, name: str | None = None) -> None:
    """Raise ``ValueError`` unless ``l < inf``, ``u > -inf`` and ``l <= u`` componentwise.

    The messages name ``l`` and ``u``, or ``name``'s lower and upper bounds.
    """
    lower, upper = ("l", "u") if name is None else (f"{name} lower bounds", f"{name} upper bounds")
    if not np.all(l < np.inf):  # false for nan too
        raise ValueError(f"{lower} must not be nan or +inf")
    if not np.all(u > -np.inf):
        raise ValueError(f"{upper} must not be nan or -inf")
    if np.any(l > u):
        raise ValueError(f"{name or 'box'} bounds must satisfy l <= u componentwise")


def row_norm(v: np.ndarray) -> np.ndarray:
    """``||v||`` of a point (0-d), or of each row of a stack.

    ``sqrt(vecdot(v, v))`` sums in the order ``np.linalg.norm`` does on one
    row, so stacked and per-point norms agree bit for bit.
    """
    return np.sqrt(np.vecdot(v, v))


def point_or_rows(value: np.ndarray) -> float | np.ndarray:
    """A float for a point's result, the array for a stack's."""
    return float(value) if np.ndim(value) == 0 else value


class InfeasiblePointError(ValueError):
    """A point violates the set beyond tolerance; names the point and carries the magnitude."""

    def __init__(self, name: str, magnitude: float):
        super().__init__(f"{name} is infeasible by {magnitude:.3e}")
        self.magnitude = magnitude


class EmptySetError(ValueError):
    """Halfspace intersection with no feasible point."""


class UnsupportedSetError(ValueError):
    """Operation not defined for this set variant (by design, not omission)."""


class FeasibleSet:
    """Base type of the tagged union; concrete variants implement the geometry.

    Point arguments may be ``(k, n)`` stacks; results are then row-wise, and
    ``infeasibility`` is that of the worst row.
    """

    dimension: int

    _offset = 0.0  # the largest |right-hand side| of a constraint, for feasibility_tol
    _normal = 1.0  # the largest constraint normal
    _polyhedron = None  # the rows a polyhedral set's VI is solved on (:class:`_Polyhedron`)

    def infeasibility(self, z: np.ndarray) -> float:
        """How far the point (or the worst row of a stack) violates the set."""
        return float(np.max(self._violation(np.asarray(z, dtype=float)), initial=0.0))

    def _violation(self, z: np.ndarray) -> float | np.ndarray:
        """The violation of a point (0-d) or of each row of a stack, at least 0."""
        raise NotImplementedError

    def project(self, p: np.ndarray) -> np.ndarray:
        """Nearest point of the set to ``p``, or to each row of a stack; ``p`` must be finite."""
        return self._project(require_finite("p", p))

    def _project(self, p: np.ndarray) -> np.ndarray:
        """:meth:`project` once ``p`` is checked finite; the solvers call it on their own iterates."""
        raise NotImplementedError

    def project_tangent_cone(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``v`` projected onto the tangent cone at the feasible ``z``; a stack row by row."""
        return self._tangent_cone(self._require_feasible(z), require_finite("v", v))

    def _tangent_cone(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """:meth:`project_tangent_cone` once ``z`` is checked feasible and ``v`` finite."""
        raise NotImplementedError

    def _project_on_faces(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The projection of a point, or of each row of a stack, and the face each lands on.

        ``(z, faces)``: ``faces`` has one row per row of ``p`` (one face for
        a point), and two rows of ``p`` land on one face where their rows
        agree.  The projection of every ``x`` that lands on a face is the
        affine map :meth:`_face_map` of that row.  ``faces`` is ``None`` (the
        default) for a set whose projection has no such maps: an EG run on it
        takes every step on the point.
        """
        return self._project(p), None

    def _face_map(self, face: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(S, t)`` with ``project(x) = S x + t`` on ``face``, a row of :meth:`_project_on_faces`."""
        raise NotImplementedError

    def project_normal_cone(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Moreau complement: ``v - tangent_projection(v)``."""
        return np.asarray(v, dtype=float) - self.project_tangent_cone(z, v)

    def solve_affine_vi(self, H: np.ndarray, g: np.ndarray, hint=None) -> tuple[np.ndarray, object]:
        """The unique ``w`` in the set with ``-(H w + g)`` in its normal cone at ``w``.

        ``H`` must satisfy ``x^T H x > 0`` for ``x != 0``; it need not be
        symmetric.  Returns ``w`` and a hint, the active rows (polyhedra) or the
        multiplier (ball), for a following call whose solution is near.  A
        polyhedron uses the hint only when it passes the solve's own
        termination test, and ``w`` is the same function of the accepted rows
        whichever route found them; the ball starts its Newton run at the
        hint, and ``w`` is the solution to rounding from any start.
        """
        raise NotImplementedError

    def linear_min_over_ball(
        self, center: np.ndarray, D: float, cost: np.ndarray
    ) -> tuple[np.ndarray, float | np.ndarray]:
        raise UnsupportedSetError(
            f"linear minimization over set-and-ball is not supported for {type(self).__name__}"
        )

    def feasibility_tol(self, z: np.ndarray) -> float | np.ndarray:
        """The violation a point of the set may show: ``FEASIBILITY_TOL`` relative to both.

        ``FEASIBILITY_TOL * (1 + offset + normal * ||z||)``, where ``offset``
        is the set's largest right-hand side and ``normal`` its largest
        constraint normal: the rounding that computing ``<a, z> - b`` leaves,
        scaled up.  One float for a point, one per row for a stack.  A point
        is feasible when :meth:`infeasibility` is at most this; the halfspace
        projection's emptiness test uses the same rule at the projected point.
        """
        return point_or_rows(FEASIBILITY_TOL * (1.0 + self._offset + self._normal * row_norm(z)))

    def _require_feasible(self, z: np.ndarray, name: str = "z") -> np.ndarray:
        z = require_finite(name, z)
        gap = self._violation(z)
        if np.any(gap > self.feasibility_tol(z)):
            raise InfeasiblePointError(name, float(np.max(gap)))
        return z


class Box(FeasibleSet):
    """``{z : l <= z <= u}`` componentwise, infinite bounds allowed."""

    def __init__(self, l: np.ndarray, u: np.ndarray):
        l = np.array(l, dtype=float)
        u = np.array(u, dtype=float)
        if l.shape != u.shape or l.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        require_box_bounds(l, u)
        l.flags.writeable = False
        u.flags.writeable = False
        self.l = l
        self.u = u
        self.dimension = l.shape[0]
        bounds = np.concatenate((l, u))
        self._offset = float(np.abs(bounds[np.isfinite(bounds)]).max(initial=0.0))

    def _violation(self, z):
        return np.max(np.maximum(np.maximum(self.l - z, z - self.u), 0.0), axis=-1, initial=0.0)

    def _project(self, p):
        """Nearest point of the box to ``p``, or to each row of a stack.

        ``minimum(maximum(p, l), u)`` is ``np.clip(p, l, u)`` under ``==``, NaN
        propagating alike, at about half its per-call cost.  The point comes
        first because numpy's min/max return the second argument on a tie, the
        bound, as clip does; so even a zero keeps clip's sign, except that a
        stack may differ from clip in the sign of a zero that ties a zero bound.
        """
        return np.minimum(np.maximum(p, self.l), self.u)

    def _project_on_faces(self, p):
        """A row's face is its clamp pattern: masks of the lower and upper bounds it is at or past.

        A coordinate at or past a bound (:meth:`_active_bounds` of ``p``)
        projects onto it, as the same rule reads it at the projected point.
        """
        low, high = self._active_bounds(p)
        return self._project(p), np.concatenate((low, high), axis=-1)

    def _face_map(self, face):
        """``S`` diagonal, 0 where a coordinate projects onto a bound and 1 elsewhere; ``t`` that bound.

        ``S`` holds only 0 and 1, so ``S x`` is exact and a coordinate on a
        bound comes out as the bound itself; ``t`` is 0 off the bounds.
        """
        low, high = face.reshape(2, self.dimension)
        S = np.diag(~(low | high)).astype(float)
        return S, np.where(low, self.l, np.where(high, self.u, 0.0))

    @functools.cached_property
    def _polyhedron(self) -> _Polyhedron:
        """The finite bounds as rows ``z_i >= l_i`` and ``-z_i >= -u_i``."""
        lo, hi = np.flatnonzero(np.isfinite(self.l)), np.flatnonzero(np.isfinite(self.u))
        eye = np.eye(self.dimension)
        rows = np.vstack((eye[lo], -eye[hi]))
        return _Polyhedron(rows, np.concatenate((self.l[lo], -self.u[hi])))

    def solve_affine_vi(self, H, g, hint=None):
        """The active-set iteration on the finite bounds as rows; Lemke's method cold."""
        return self._polyhedron.solve_vi(H, g, hint)

    def _active_bounds(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The bounds ``z`` is at or past: a halfspace row's activity rule with a floor of 0.

        A box's own points sit exactly on its bounds: ``project`` clamps, and
        a face of the bounds as rows has an exact SVD.  A band would only
        take a point just inside a bound for one on it, where the tangent
        residual then falls below the natural residual.
        """
        return z <= self.l, z >= self.u

    def _tangent_cone(self, z, v):
        lo, hi = self._active_bounds(z)
        out = np.where(lo, np.maximum(v, 0.0), v)  # only inward directions at the floor
        return np.where(hi, np.minimum(out, 0.0), out)

    def linear_min_over_ball(self, center, D, cost):
        """Exact minimizer of ``<cost, z>`` over the box within distance D of ``center``.

        A row whose box corner (the one the cost points to) lies in the ball returns
        it.  The others walk the sorted breakpoints of ``t -> clip(center - t*cost, l, u)``
        and solve the piece that reaches D in closed form.  O(n log n) per row, no
        iteration.
        """
        center = self._require_feasible(center, "center")
        cost = require_finite("cost", cost)
        require_positive("D", D)
        c, g = np.atleast_2d(center), np.atleast_2d(cost)
        top = np.abs(g).max(axis=1, initial=0.0, keepdims=True)
        g = g / np.where(top == 0.0, 1.0, top)
        g[g * g < np.finfo(float).tiny] = 0.0  # drop components whose square is subnormal
        target = np.where(g > 0, self.l, np.where(g < 0, self.u, np.inf))  # inf if g_i = 0
        z = np.where(g != 0, target, c)
        walk = ~(row_norm(z - c) <= D)  # rows whose box minimizer is outside the ball
        if walk.any():
            z[walk] = self._walk(c[walk], g[walk], target[walk], D)
        if center.ndim == 1:
            z = z[0]
        return z, point_or_rows(np.vecdot(cost, z))

    def _walk(self, c, g, target, D):
        """Rows of ``clip(c - t*g, l, u)`` at the ``t`` where they reach distance D."""
        rows, n = g.shape
        cap = np.abs(target - c)
        breaks = cap / np.abs(g)
        order = np.argsort(breaks, axis=1)
        p = np.count_nonzero(breaks < np.inf, axis=1)  # coordinates that reach their bound
        cap, g_sorted, breaks = (np.take_along_axis(a, order, axis=1) for a in (cap, g, breaks))
        zero, end = np.zeros((rows, 1)), np.ones((rows, 1), dtype=bool)
        # with the first k of order at their bounds, ||z(t) - c|| = hypot(sat[k], t*free[k])
        sat = np.sqrt(np.cumsum(np.concatenate((zero, cap**2), axis=1), axis=1))
        still_moving = np.cumsum(g_sorted[:, ::-1] ** 2, axis=1)[:, ::-1]
        free = np.sqrt(np.concatenate((still_moving, zero), axis=1))
        # every moving coordinate stops, at the corner outside the ball, so the
        # walk ends before its last breakpoint
        p -= np.take_along_axis(free, p[:, None], axis=1)[:, 0] == 0.0
        on_path = np.arange(n) < p[:, None]
        # the distance at each breakpoint on the path
        radius = np.hypot(sat[:, 1:], np.where(on_path, breaks, 0.0) * free[:, 1:])
        past = np.concatenate((~on_path | (radius > D), end), axis=1)
        k = np.argmax(past, axis=1)[:, None]  # the first breakpoint past D ends the piece
        sat_k = np.take_along_axis(sat, k, axis=1)
        step = np.sqrt((D - sat_k) * (D + sat_k)) / np.take_along_axis(free, k, axis=1)
        return (c - step * g).clip(self.l, self.u)

    def __repr__(self):
        return f"Box(l={self.l.tolist()}, u={self.u.tolist()})"


class NonnegativeOrthant(Box):
    def __init__(self, n: int):
        super().__init__(np.zeros(n), np.full(n, np.inf))

    def __repr__(self):
        return f"NonnegativeOrthant({self.dimension})"


class WholeSpace(Box):
    """``R^n``: the box with every bound infinite."""

    def __init__(self, n: int):
        super().__init__(np.full(n, -np.inf), np.full(n, np.inf))

    def __repr__(self):
        return f"WholeSpace({self.dimension})"


class Ball(FeasibleSet):
    def __init__(self, center: np.ndarray, radius: float):
        center = require_finite("center", np.array(center, dtype=float))
        require_positive("radius", radius)
        center.flags.writeable = False
        self.center = center
        self.radius = float(radius)
        self.dimension = center.shape[0]
        self._offset = float(row_norm(center)) + self.radius
        self._metric = (b"", None, None)  # H's bytes, I and ||H||_inf, for the PP kernel
        self._kept = (None, None)  # mu and (H + mu I)^{-1} of the last Newton run on that H

    def _violation(self, z):
        return np.maximum(row_norm(z - self.center) - self.radius, 0.0)

    def _project(self, p):
        """A point in the ball is copied; any other goes to the sphere along ``p - c``.

        A point takes no array dispatch: one ``vecdot``, whose square root
        and comparison are floats, as the stack's rows take them, so a point
        and its row of a stack agree bit for bit.
        """
        d = p - self.center
        if p.ndim == 1:
            norm = math.sqrt(np.vecdot(d, d))
            return p.copy() if norm <= self.radius else self.center + self.radius * d / norm
        norm = row_norm(d)[..., None]
        inside = norm <= self.radius
        return np.where(inside, p, self.center + self.radius * d / np.where(inside, 1.0, norm))

    def _tangent_cone(self, z, v):
        d = z - self.center
        norm = row_norm(d)[..., None]
        z_norm = row_norm(z)[..., None]
        # the sphere as one row, R - ||z - c|| >= 0, active within its floor
        interior = self.radius - norm > _floor(self.dimension, 1, self._offset, z_norm, z_norm)
        outward = d / np.where(norm == 0.0, 1.0, norm)  # the center is interior however small R is
        coeff = np.vecdot(v, outward)[..., None]
        return np.where(interior | (coeff <= 0), v, v - coeff * outward)

    def solve_affine_vi(self, H, g, hint=None):
        """The trust-region secular equation (Moré & Sorensen 1983).

        KKT: ``w = c + d`` with ``(H + mu I) d = -r``, ``r = g + H c``,
        ``mu >= 0``, and ``mu = 0`` or ``||d|| = R``.  ``phi(mu) = ||d(mu)||``
        strictly decreases (``d phi^2 / d mu = -2 d^T (H + mu I)^{-1} d < 0``),
        so ``1/phi - 1/R`` has one root, which one :func:`_secular_newton` run
        finds from the hint, the previous step's ``mu`` (0 without one).  The
        run ends at ``mu = 0`` with ``||d|| <= R`` for a point inside the ball;
        any other ``d`` is put on the sphere.  Returns ``w`` and ``mu``, the
        next step's hint.  ``I``, ``||H||_inf`` and the last Newton run's
        ``(mu, (H + mu I)^{-1})`` are kept for the last ``H`` seen, as a
        polyhedron keeps ``H^{-1}``: a run starting at that ``mu`` reuses it.
        """
        R = self.radius
        key = H.tobytes()
        if key != self._metric[0]:
            self._metric = (key, np.eye(len(H)), float(np.abs(H).sum(axis=1).max()))
            self._kept = (None, None)
        r = g + H @ self.center
        mu, d, self._kept = _secular_newton(H, r, R, hint or 0.0, *self._metric[1:], self._kept)
        norm = row_norm(d)
        if mu == 0.0 and norm <= R:
            return self.center + d, mu
        return self.center + R * d / norm, mu

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


def _nnls_stop(rows: int, cols: int) -> float:
    """The gradient entry below which ``_nnls`` admits no more columns of a ``rows x cols`` E."""
    return 10 * _EPS * (rows + cols)


def _floor(n: int, m: int, offset: float, x_norm, w_norm):
    """The rounding floor of ``m`` unit rows ``<a_i, w> >= b_i`` in ``R^n`` at ``w``, found from ``x``.

    ``_nnls_stop(n + 1, m)`` relative to 1, to ``offset`` (the rows' largest
    ``|b_i|``) and to ``||x||`` and ``||w||``.  A row whose slack at ``w`` is
    at most the floor holds there; one below minus the floor is violated.
    With ``w = x`` it reads the rows at a point itself.  The 1, as in
    :meth:`FeasibleSet.feasibility_tol`, covers the rounding a point carries
    at a cone's apex, where ``offset`` is 0 and ``||w||`` may be that
    rounding alone.
    """
    return _nnls_stop(n + 1, m) * (1.0 + offset + x_norm + w_norm)


def _times(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M x`` of a point, or of each row of a stack by one matrix-vector product per row.

    ``x @ M.T`` would sum in another order, so only this form gives a stack
    row the bits of its point.
    """
    return M @ x if x.ndim == 1 else np.matmul(M, x[..., None])[..., 0]


def _groups(keys: np.ndarray):
    """``(key, rows)`` for each distinct row of the 2-d ``keys``: the indices of the rows equal to it."""
    left = np.arange(len(keys))
    while left.size:
        key = keys[left[0]]
        same = (keys[left] == key).all(axis=1)
        yield key, left[same]
        left = left[~same]


def _verdict(S, slack, floor, lam, deficient):
    """Whether a point, or each row of a stack, accepts the face ``S``; what :func:`_advance` reads.

    ``slack`` is ``A w - b`` at the face's point ``w``, ``floor`` its
    :func:`_floor` and ``lam`` its multipliers.  ``S`` is accepted when no
    row is violated beyond the floor and ``lam >= 0``.  On a rank-deficient
    face the rows of ``S`` must also hold, so a row ``w`` does not hold
    counts as a negative multiplier.  Returns the verdict, the mask of the
    violated rows and the multipliers so read.
    """
    violated = slack < -floor
    if deficient:  # w may miss rows of S, and a row it satisfies strictly is not active
        lam = np.where(slack[..., S] <= floor, lam, -np.inf)
    return ~violated.any(axis=-1) & (lam.min(axis=-1, initial=0.0) >= 0.0), violated, lam


def _advance(S, violated, lam):
    """The candidate after a face ``S`` that :func:`_verdict` refused, as a mask over the rows.

    The violated rows, and the rows of ``S`` with positive multipliers.
    """
    violated[..., S] |= lam > 0.0
    return violated


def _nnls(E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Lawson–Hanson NNLS, ``argmin ||E x - f||`` over ``x >= 0``, in bounded passes."""
    m = E.shape[1]
    stop = _nnls_stop(*E.shape)
    x, passive, skip = np.zeros(m), np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)

    def solve():
        s = np.zeros(m)
        s[passive] = np.linalg.lstsq(E[:, passive], f, rcond=None)[0]
        return s

    for _ in range(3 * m + 3):
        w = np.where(passive | skip, -np.inf, E.T @ (f - E @ x))
        if not w.max() > stop:
            return x
        t = w.argmax()
        passive[t] = True
        s = solve()
        if not s[t] > 0:  # column t adds only rounding: pass it over until the next admission
            passive[t], skip[t] = False, True
            continue
        skip[:] = False
        while not np.all(s[passive] > 0):  # step toward s until a passive entry hits 0
            blocked = np.flatnonzero(passive & (s <= 0))
            ratio = x[blocked] / (x[blocked] - s[blocked])
            x = x + ratio.min() * (s - x)
            x[blocked[ratio.argmin()]] = 0.0
            passive &= x > 0
            s = solve()
        x = s
    # rounding can keep admitting columns at a zero residual, which no x >= 0
    # improves on: that x is optimal (and, in the least-distance dual, the
    # certificate of an empty set)
    if row_norm(E @ x - f) <= stop * row_norm(np.abs(E) @ x):
        return x
    raise np.linalg.LinAlgError(f"NNLS did not settle in {3 * m + 3} passes")


def _pivot_tol(m: int) -> float:
    """Lemke's rounding floor for ``m`` rows: :func:`_nnls_stop` of its ``m x (2m + 1)`` tableau.

    Relative to the largest entry of the LCP matrix (at least 1), it is the
    column entry at or below which the ratio test passes over a row; relative
    to the largest ``|q_i|``, the value at or below which ``z0`` counts as 0.
    """
    return _nnls_stop(m, 2 * m + 1)


def _lemke(M: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Indices of the basic ``lam_i`` of a solution of LCP(q, M) by Lemke's method.

    ``s = q + M lam >= 0``, ``lam >= 0``, ``s^T lam = 0``.  The covering vector
    is ``e``.  The lexicographic ratio test keeps every row of (right side,
    basis inverse) lexicographically positive, so no basis repeats and the
    method ends in finitely many pivots (Cottle, Pang & Stone, *The Linear
    Complementarity Problem*, 1992, ch. 4).  For a copositive-plus ``M`` it
    ends on a solution whenever one exists; a secondary ray raises
    ``LinAlgError``.  The run ends when ``z0`` leaves the basis or, in a
    degenerate problem, once it is 0 to rounding: either way the basic
    ``lam`` solve the LCP.  Tableau columns: the right side, ``s`` (whose
    columns carry the basis inverse), ``lam``, and the artificial ``z0``.
    """
    m = len(q)
    if not np.any(q < 0):
        return np.arange(0)
    tableau = np.hstack((q[:, None], np.eye(m), -M, -np.ones((m, 1))))
    basis = np.arange(1, m + 1)
    tol = _pivot_tol(m) * max(1.0, np.abs(M).max())
    small = _pivot_tol(m) * max(1.0, np.abs(q).max())
    z0 = entering = 2 * m + 1
    row = m - 1 - np.argmin(q[::-1])  # ties to the last row keep every row lexico-positive
    for pivots in range(1, 10 * m + 11):  # a guard against cycling by rounding only
        pivot = tableau[row] / tableau[row, entering]
        tableau -= np.outer(tableau[:, entering], pivot)
        tableau[row] = pivot
        leaving, basis[row] = basis[row], entering
        if leaving == z0 or not tableau[basis == z0, 0] > small:  # z0 left, or reached 0
            return np.sort(basis[(basis > m) & (basis < z0)] - m - 1)
        entering = leaving + m if leaving <= m else leaving - m
        col = tableau[:, entering]
        rows = np.flatnonzero(col > tol)
        if not rows.size:
            raise np.linalg.LinAlgError(f"Lemke's method ended on a ray after {pivots} pivots")
        for k in range(m + 1):  # lexicographic minimum of (rhs, basis inverse) / col
            ratio = tableau[rows, k] / col[rows]
            rows = rows[ratio == ratio.min()]
            if len(rows) == 1:
                break
        row = rows[0]
    raise np.linalg.LinAlgError(f"Lemke's method did not end in {10 * m + 10} pivots")


class _Polyhedron:
    """``{w : A w >= b}`` with unit rows, solved on its faces by an active-set iteration.

    A face is a set ``S`` of rows held as equalities.  On it, the point of
    the face for the affine VI of ``w -> H w + g`` is found in null-space
    form, with ``x = -H^{-1} g`` the unconstrained solution, ``P =
    pinv(A_S)`` and ``Z`` an orthonormal basis of the null space of ``A_S``:

    * ``w0 = P b_S`` is the face's point nearest the origin;
    * ``Z^T H Z y = -Z^T (H w0 + g) = Z^T H (x - w0)`` moves it along the
      face: ``w = w0 + G (x - w0)`` with ``G = Z (Z^T H Z)^{-1} Z^T H``;
    * the multipliers are ``lam_S = P^T H (w - x)``, so ``H w + g = A_S^T lam_S``.

    With ``H = I`` (given as ``None``), ``G = Z Z^T`` and ``w = P b_S + Z Z^T
    x`` is the projection of ``x`` onto the face, ``p + P (b_S - A_S p)`` at
    ``p = x``, with ``lam_S = P^T (w - x)``.  The null-space form moves ``w``
    only along the face, so the rows of ``S`` hold at ``w`` to the rounding
    of ``x`` and ``w``, which :func:`_floor` covers.  ``P`` and ``Z`` come
    from one SVD of ``A_S``, never from ``A_S A_S^T``, which would square its
    conditioning.  They are memoised by the global indices of ``S`` (the
    tangent cone uses a subset of the rows), and for the last ``H`` seen, so
    are ``H^{-1}``, ``G`` and ``P^T H``.  Every entry is a function of the
    rows and ``H`` alone, so no result depends on the calls made before it.

    ``S`` is accepted when ``lam_S >= 0``, its rows hold to rounding and no
    other row is violated beyond rounding: beyond :func:`_floor` at ``w``.
    These are the KKT conditions, so an accepted ``S`` gives the unique
    solution.  One iteration, :meth:`search`, serves projections, tangent
    cones and VIs.  A point that violates no row beyond the floor at ``w =
    x`` is its own answer, ``x``, on the empty face; any other starts from
    the rows it violates.  A refused ``S`` keeps its rows with positive
    multipliers that ``w`` holds as equalities (on a full-rank face it holds
    them all) and adds the rows ``w`` violates; at the first repeated ``S``
    a cold route picks ``S``: :func:`_nnls` for a projection, :func:`_lemke`
    for a VI.  Whatever route finds a non-empty ``S``, ``w`` is the same
    function of it (:meth:`on_face`).  A stack's rows that share a candidate
    are solved together; the one other path is a VI's hint, a face tested
    alone on a point or on each row of a stack (:meth:`hinted`).
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.norms = row_norm(a)
        self.A, self.b = a / self.norms[:, None], b / self.norms
        self.offset = float(np.abs(self.b).max(initial=0.0))
        self._faces = {}
        self._metric = (b"", None, {})  # H's bytes, H^{-1}, and (G, P^T H) of each face for H

    def face(self, S: np.ndarray) -> tuple:
        """``P``, ``Z Z^T``, whether ``A_S`` is rank deficient, and ``Z``; memoised."""
        key = S.tobytes()
        entry = self._faces.get(key)
        if entry is None:
            A_S = self.A[S]
            U, s, Vt = np.linalg.svd(A_S)
            rank = np.count_nonzero(s > s.max(initial=0.0) * max(A_S.shape) * _EPS)
            Z = Vt[rank:].T
            entry = self._faces[key] = ((Vt[:rank].T / s[:rank]) @ U[:, :rank].T,
                                        Z @ Z.T, rank < len(S), Z)
        return entry

    def _for(self, H: np.ndarray) -> tuple[np.ndarray, dict]:
        """``H^{-1}`` and the per-face maps for ``H``, kept while ``H`` stays the same."""
        key = H.tobytes()
        if key != self._metric[0]:
            self._metric = (key, np.linalg.inv(H), {})
        return self._metric[1:]

    def _maps(self, S, H):
        """``P``, ``G``, ``P^T H`` and whether ``A_S`` is rank deficient, for ``H`` ``None`` or a matrix."""
        if H is None:
            P, G, deficient, _ = self.face(S)
            return P, G, P.T, deficient
        maps = self._for(H)[1]
        key = S.tobytes()
        entry = maps.get(key)
        if entry is None:
            P, _, deficient, Z = self.face(S)
            ZtH = Z.T @ H
            entry = maps[key] = (P, Z @ np.linalg.solve(ZtH @ Z, ZtH), P.T @ H, deficient)
        return entry

    def on_face(self, S, b_S, x, H):
        """``w`` on the face ``S`` (global rows), ``lam_S``, and whether ``A_S`` is rank deficient.

        ``x`` is a point or a stack, for ``H`` ``None`` or a matrix; each row
        of a stack is solved as that point (:func:`_times`).
        """
        P, G, PtH, deficient = self._maps(S, H)
        w0 = P @ b_S
        w = w0 + _times(G, x - w0)
        return w, _times(PtH, w - x), deficient

    def hinted(self, S, x, H):
        """``w`` on the face ``S`` from ``x`` (the empty face's is ``x``), and whether the iteration's
        own test (:func:`_verdict`) accepts ``S`` there: for a point, or each row of a stack as its point."""
        w, lam, deficient = self.on_face(S, self.b[S], x, H) if S.size else (x, x[..., :0], False)
        floor = _floor(x.shape[-1], len(self.b), self.offset, row_norm(x), row_norm(w))
        return w, _verdict(S, _times(self.A, w) - self.b, floor[..., None], lam, deficient)[0]

    def vi_map(self, S, H, y):
        """``(A, c)`` with :meth:`hinted`'s ``w = A z + c`` on the face ``S`` from ``x = H^{-1} (z - y)``."""
        P, G = self._maps(S, H)[:2]
        w0 = P @ self.b[S]
        A = G @ self._for(H)[0]
        return A, w0 - G @ w0 - A @ y

    def in_play(self, rows) -> tuple[np.ndarray, np.ndarray, float]:
        """``A``, ``b`` and the largest ``|b_i|`` of the rows in play.

        ``rows`` ``None`` is the polyhedron itself; global row indices are
        its cone of those rows through 0, ``{w : A_rows w >= 0}``.
        """
        if rows is None:
            return self.A, self.b, self.offset
        return self.A[rows], np.zeros(len(rows)), 0.0

    def search(self, rows, x, H):
        """The active-set iteration on each row of the stack ``x``; ``H`` ``None`` projects.

        A matrix ``H`` solves the VI of ``w -> H w + g`` with the row as
        ``x = -H^{-1} g``.  Returns the answers, the face each accepted as a
        boolean mask over the rows in play (:meth:`in_play`), which rows went
        cold, their answers left at ``x``, and ``r = A x - b``.  A row that
        violates no row beyond :func:`_floor` at ``w = x`` is its own answer,
        on the empty face.  Each round solves the rows that share a candidate
        with one face call; a row whose candidate repeats, or that is still
        searching after ``m + 2`` rounds, goes cold.  A stack equals its rows
        searched one by one, bit for bit.
        """
        A, b, offset = self.in_play(rows)
        (k, n), m = x.shape, len(b)
        r = _times(A, x) - b
        x_norm = row_norm(x)
        S = r < -_floor(n, m, offset, x_norm, x_norm)[:, None]
        z, faces, cold = x.copy(), np.zeros((k, m), dtype=bool), np.zeros(k, dtype=bool)
        todo, tried = S.any(axis=1).nonzero()[0], []
        for _ in range(m + 2):  # a guard; a repeated S ends a row's iteration first
            if not todo.size:
                break
            tried.append(S.copy())
            done = np.zeros(k, dtype=bool)
            for face, group in _groups(S[todo]):
                group, on = todo[group], face.nonzero()[0]
                w, lam, deficient = self.on_face(on if rows is None else rows[on], b[on], x[group], H)
                floor = _floor(n, m, offset, x_norm[group], row_norm(w))[:, None]
                accept, violated, lam = _verdict(on, _times(A, w) - b, floor, lam, deficient)
                S[group] = _advance(on, violated, lam)
                group = group[accept]
                z[group], faces[group], done[group] = w[accept], face, True
            todo = todo[~done[todo]]
            if todo.size:  # a row whose next candidate it has tried before goes cold
                repeat = (np.array(tried)[:, todo] == S[todo]).all(axis=-1).any(axis=0)
                cold[todo[repeat]] = True
                todo = todo[~repeat]
        cold[todo] = True
        return z, faces, cold, r

    def project(self, rows, p):
        """Projection of each row of the stack ``p`` onto the rows in play: :meth:`search` at ``H = I``.

        Returns the projections, their faces and which rows took the cold
        route, least-distance programming: ``z - p`` is the shortest ``y``
        with ``A_rows y >= h = b - A_rows p``, and Lawson–Hanson NNLS on its
        dual, ``[A_rows^T; h^T] x ~ e_{n+1}`` (Lawson & Hanson 1974, ch. 23;
        ``max h = 1``), picks the rows with positive multipliers.  An empty
        set leaves a zero dual residual, and ``z`` comes back infeasible; an
        accepted ``S`` never does.
        """
        z, faces, cold, r = self.search(rows, p, None)
        for i in cold.nonzero()[0]:
            A, b, _ = self.in_play(rows)  # only a cold row reads the rows in play again
            dual = np.vstack((A.T, r[i] / r[i].min()))
            on = (_nnls(dual, np.eye(len(dual))[-1]) > 0).nonzero()[0]
            z[i] = self.on_face(on if rows is None else rows[on], b[on], p[i:i + 1], None)[0][0]
            faces[i, on] = True
        return z, faces, cold

    def solve_vi(self, H, g, hint):
        """The affine VI of ``H w + g``, and its ``S`` as the next call's hint.

        A hint is tested alone on the point ``x = -H^{-1} g`` (:meth:`hinted`);
        without one, or when it fails, :meth:`search` runs on ``x`` as a
        one-row stack, so an ``x`` that violates no row is the answer on the
        empty face, hinted or cold.  The cold route
        is the dual LCP.  KKT: ``H w + g = A^T lam``, ``lam >= 0``, ``s = A w
        - b >= 0``, ``s^T lam = 0``.  With ``w = H^{-1}(A^T lam - g)`` this is
        LCP(q, M), ``M = A H^{-1} A^T``, ``q = A x - b``.  ``x^T M x = (A^T
        x)^T H^{-1} (A^T x) >= 0``, so ``M`` is positive semidefinite, hence
        copositive-plus, and :func:`_lemke` ends on the solution, unless
        rounding makes ``M`` singular; that raises and names the nearest
        pair of rows to parallel.
        """
        H_inv = self._for(H)[0]
        x = -(H_inv @ g)
        if hint is not None:
            w, accepted = self.hinted(hint, x, H)
            if accepted:
                return w, hint
        z, faces, cold, r = self.search(None, x[None], H)
        if not cold[0]:
            return z[0], faces[0].nonzero()[0]
        try:
            S = _lemke(self.A @ H_inv @ self.A.T, r[0])
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"{exc}, though the step has a solution: "
                                        f"{self._most_parallel()}") from None
        return self.on_face(S, self.b[S], x, H)[0], S

    def _most_parallel(self) -> str:
        """The two rows nearest to parallel, by the largest ``|cos|`` between them."""
        cos = np.abs(self.A @ self.A.T)
        np.fill_diagonal(cos, -1.0)
        i, j = np.unravel_index(cos.argmax(), cos.shape)
        return f"rows {i} and {j} are nearly parallel (|cos| = 1 - {1.0 - cos[i, j]:.1e})"


def _secular_newton(H, r, R, mu, eye, scale, kept):
    """Safeguarded Newton steps from ``mu`` on ``psi = 1/||d|| - 1/R``, ``d = -(H + mu I)^{-1} r``.

    ``psi`` increases, with ``psi' = d^T (H + mu I)^{-1} d / ||d||^3``; its root
    lies in ``[0, ||r|| / R]``, as ``x^T (H + mu I) x > mu ||x||^2``, so the
    run starts at ``mu`` clipped to that bracket.  A step to ``mu <= 0``
    before any point left of the root has been seen evaluates ``mu = 0``,
    where ``||d|| <= R`` ends the run: the root is at or below 0, and ``d``
    lies inside the ball.  Any other step that leaves the bracket bisects it.
    Ends, with ``mu`` and its ``d``, when the Newton step from ``mu`` is at
    most ``_nnls_stop(n, n)`` relative to ``mu + ||H||_inf``, given as
    ``scale`` with ``eye = I``: the step carries rounding of about
    ``eps ||H + mu I||``, so a test relative to ``mu`` alone cannot pass once
    ``mu`` is small beside ``||H||``.  ``kept`` is an earlier ``(mu, (H + mu
    I)^{-1})``, returned with ``mu`` and ``d`` as the last pair this run used.
    """
    n = len(r)
    lo, hi = -math.inf, float(row_norm(r)) / R  # lo < 0 until a point left of the root is seen
    mu = min(max(mu, 0.0), hi)
    stop = _nnls_stop(n, n)
    for _ in range(100):  # a guard: bisection alone shrinks the bracket to rounding in under 60
        kept = kept if mu == kept[0] else (mu, np.linalg.inv(H + mu * eye))
        K_inv = kept[1]
        d = -(K_inv @ r)
        phi = float(row_norm(d))
        if phi > R:
            lo = mu
        elif mu == 0.0:  # the root is at or below 0 (r = 0 too): d lies inside the ball
            break
        else:
            hi = mu
        step = (1.0 / phi - 1.0 / R) * phi**3 / float(d @ (K_inv @ d))
        if abs(step) <= stop * (mu + scale):
            break
        new = mu - step
        if new <= 0.0 and lo < 0.0:
            new = 0.0
        elif not lo < new < hi:
            new = 0.5 * (lo + hi)
        mu = new
    return mu, d, kept


class HalfspaceIntersection(FeasibleSet):
    """``{z : <a_i, z> >= b_i for all i}``; finite rows, nonzero normals.

    Projections and the proximal-point step run on the rows scaled to unit
    normals (:class:`_Polyhedron`), whose faces are memoised as they are met.
    """

    def __init__(self, rows: list[tuple[np.ndarray, float]]):
        if not rows:
            raise ValueError("at least one halfspace row is required")
        a_rows = [np.array(a, dtype=float) for a, _ in rows]
        if any(a.ndim != 1 or a.shape != a_rows[0].shape for a in a_rows):
            raise ValueError("all rows must share the ambient dimension")
        self.a = require_finite("a", np.array(a_rows))
        self.b = require_finite("b", np.array([float(b) for _, b in rows]))
        if np.any(row_norm(self.a) == 0.0):
            raise ValueError("halfspace normals must be nonzero")
        self.a.flags.writeable = False
        self.b.flags.writeable = False
        self.dimension = self.a.shape[1]
        self._offset = float(np.abs(self.b).max())
        self._normal = float(row_norm(self.a).max())
        self._polyhedron = _Polyhedron(self.a, self.b)
        self.project(np.zeros(self.dimension))  # raises EmptySetError on an empty set

    def _violation(self, z):
        return np.max(np.maximum(self.b - (self.a @ z.T).T, 0.0), axis=-1, initial=0.0)

    def _project(self, p):
        """Nearest point of the set to ``p``, or to each row of a stack (see :class:`_Polyhedron`)."""
        return self._project_on_faces(p)[0]

    def _project_on_faces(self, p):
        """A row's face is the mask of the rows the projection holds: the accepted ``S``.

        A point is a one-row stack.  A point that violates no row, on unit
        rows, beyond the rounding floor (:func:`_floor` at ``w = p``) is its
        own projection, on the empty face.  A projection that violates the
        set beyond :meth:`feasibility_tol` at ``p`` proves the set empty:
        ``z`` carries the rounding of ``p``, which a row scales by its norm.
        """
        x = np.atleast_2d(p)
        z, faces, cold = self._polyhedron.project(None, x)
        if cold.any() and np.any(np.min(_times(self.a, z[cold]) - self.b, axis=1)
                                 < -self.feasibility_tol(x[cold])):
            raise EmptySetError("halfspace intersection is empty")
        return z.reshape(p.shape), faces.reshape(*p.shape[:-1], len(self.b))

    def _face_map(self, face):
        """``(Z Z^T, P b_S)`` of the face's memoised SVD: the projection onto its affine hull."""
        poly = self._polyhedron
        S = face.nonzero()[0]
        P, G = poly.face(S)[:2]
        return G, P @ poly.b[S]

    def solve_affine_vi(self, H, g, hint=None):
        """The active-set iteration on the rows scaled to unit normals; Lemke's method cold."""
        return self._polyhedron.solve_vi(H, g, hint)

    def activity(self, z: np.ndarray) -> np.ndarray:
        """Indices of the rows ``z`` is at, past or within the rounding floor of.

        On unit rows, ``<a_i, z> - b_i <= floor``, with :func:`_floor` at
        ``w = x = z``: a row held to rounding or violated is active, and one
        ``z`` is inside of by more than the floor is not.
        """
        return np.flatnonzero(self._active(np.asarray(z, dtype=float)))

    def _active(self, z):
        """:meth:`activity` of a point, or of each row of a stack, as a boolean mask over the rows."""
        poly, z_norm = self._polyhedron, row_norm(z)
        floor = _floor(self.dimension, len(self.b), poly.offset, z_norm, z_norm)
        return _times(poly.A, z) - poly.b <= np.expand_dims(floor, -1)

    def _tangent_cone(self, z, v):
        """Projection onto the cone of the rows active at ``z``, through 0.

        The rows of a stack that share their active rows are projected in
        one stacked call.  A direction that no active row sees pointing out
        beyond the floor is its own projection.
        """
        poly = self._polyhedron
        Z, V = np.atleast_2d(z), np.atleast_2d(v)
        out = np.empty(V.shape)
        for active, group in _groups(self._active(Z)):
            out[group] = poly.project(active.nonzero()[0], V[group])[0]
        return out.reshape(v.shape)

    def __repr__(self):
        return f"HalfspaceIntersection({len(self.b)} rows, dim {self.dimension})"


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def json_field(data, key: str, where: str):
    """``data[key]``; a ``ValueError`` names ``where`` unless it is an object with that field."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"{where} has no field {key!r}")
    return data[key]


def json_number(name: str, value) -> float:
    """``float(value)``, or a ``ValueError`` naming the field ``name``."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def json_floats(name: str, value) -> np.ndarray:
    """``value`` as a float array, or a ``ValueError`` naming the field ``name``."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number or a rectangular array of numbers") from None


def _bound_list(arr: np.ndarray) -> list:
    return [None if not np.isfinite(x) else float(x) for x in arr]


def _bound_array(data: dict, key: str, sign: float) -> np.ndarray:
    """The bounds ``set.<key>``, ``null`` for an infinite one of the given sign."""
    values = json_field(data, key, "set")
    if not isinstance(values, list):
        raise ValueError(f"{key} must be a list of numbers and nulls")
    return np.array([sign * np.inf if v is None else json_number(f"{key}[{i}]", v)
                     for i, v in enumerate(values)])


def set_to_json(feasible_set: FeasibleSet) -> dict:
    if isinstance(feasible_set, NonnegativeOrthant):
        return {"type": "orthant", "n": feasible_set.dimension}
    if isinstance(feasible_set, WholeSpace):
        return {"type": "rn", "n": feasible_set.dimension}
    if isinstance(feasible_set, Box):
        return {"type": "box", "l": _bound_list(feasible_set.l), "u": _bound_list(feasible_set.u)}
    if isinstance(feasible_set, Ball):
        return {"type": "ball", "center": feasible_set.center.tolist(), "radius": feasible_set.radius}
    if isinstance(feasible_set, HalfspaceIntersection):
        return {
            "type": "halfspaces",
            "rows": [
                {"a": a.tolist(), "b": float(b)} for a, b in zip(feasible_set.a, feasible_set.b)
            ],
        }
    raise UnsupportedSetError(f"cannot serialize {type(feasible_set).__name__}")


def set_from_json(data: dict) -> FeasibleSet:
    """The set a JSON object describes; a ``ValueError`` names a missing or malformed field."""
    kind = json_field(data, "type", "set")
    if kind == "box":
        return Box(_bound_array(data, "l", -1.0), _bound_array(data, "u", +1.0))
    if kind in ("orthant", "rn"):
        n = json_number("n", json_field(data, "n", "set"))
        if not (1 <= n < math.inf and n.is_integer()):
            raise ValueError(f"n must be a positive integer, got {n!r}")
        return (NonnegativeOrthant if kind == "orthant" else WholeSpace)(int(n))
    if kind == "ball":
        return Ball(json_floats("center", json_field(data, "center", "set")),
                    json_number("radius", json_field(data, "radius", "set")))
    if kind == "halfspaces":
        def row(at, r):
            a, b = json_field(r, "a", at), json_field(r, "b", at)
            return json_floats(f"{at}.a", a), json_number(f"{at}.b", b)

        rows = json_field(data, "rows", "set")
        if not isinstance(rows, list):
            raise ValueError("set.rows must be a list of objects")
        return HalfspaceIntersection([row(f"set.rows[{i}]", r) for i, r in enumerate(rows)])
    raise ValueError(f"unknown set type {kind!r}")
