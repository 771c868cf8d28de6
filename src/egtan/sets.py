"""Feasible sets and the three projections the diagnostics need.

Every set projects onto itself and onto the tangent cone at a feasible point;
the normal cone follows by Moreau's decomposition.  Box-like sets also minimize
a linear cost exactly over set ∩ ball, for the gap function, by a breakpoint
walk.  Halfspace intersections enumerate active sets: exact, meant for few rows.

Each method takes a point or a ``(k, n)`` stack of points and answers row by
row; a point is the one-row case of the same array code, so a stacked call
equals the per-point calls bit for bit.  Halfspace intersections loop over
the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

ACTIVITY_TOL = 1e-9
FEASIBILITY_TOL = 1e-9
MAX_HALFSPACE_ROWS = 8


def require_finite(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


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
    """A point violates the set beyond tolerance; carries the magnitude."""

    def __init__(self, magnitude: float):
        super().__init__(f"point is infeasible by {magnitude:.3e}")
        self.magnitude = magnitude


class EmptySetError(ValueError):
    """Halfspace intersection with no feasible point."""


class UnsupportedSetError(ValueError):
    """Operation not defined for this set variant (by design, not omission)."""


@dataclass(frozen=True)
class ConeActivity:
    """Indices of rows active at a point, with the tolerance that decided them."""

    active_rows: tuple[int, ...]
    activity_tolerance: float


class FeasibleSet:
    """Base type of the tagged union; concrete variants implement the geometry.

    Point arguments may be ``(k, n)`` stacks; results are then row-wise, and
    ``infeasibility`` is that of the worst row.
    """

    dimension: int

    def contains(self, z: np.ndarray, tol: float = FEASIBILITY_TOL) -> bool:
        return self.infeasibility(z) <= tol

    def infeasibility(self, z: np.ndarray) -> float:
        raise NotImplementedError

    def project(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project_tangent_cone(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project_normal_cone(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Moreau complement: ``v - tangent_projection(v)``."""
        return np.asarray(v, dtype=float) - self.project_tangent_cone(z, v)

    def linear_min_over_ball(
        self, center: np.ndarray, D: float, cost: np.ndarray
    ) -> tuple[np.ndarray, float | np.ndarray]:
        raise UnsupportedSetError(
            f"linear minimization over set-and-ball is not supported for {type(self).__name__}"
        )

    def _require_feasible(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        gap = self.infeasibility(z)
        if gap > FEASIBILITY_TOL:
            raise InfeasiblePointError(gap)
        return z


class WholeSpace(FeasibleSet):
    def __init__(self, n: int):
        self.dimension = int(n)

    def infeasibility(self, z):
        return 0.0

    def project(self, p):
        return np.asarray(p, dtype=float).copy()

    def project_tangent_cone(self, z, v):
        return np.asarray(v, dtype=float).copy()

    def linear_min_over_ball(self, center, D, cost):
        center = np.asarray(center, dtype=float)
        cost = np.asarray(cost, dtype=float)
        norm = row_norm(cost)[..., None]
        zero = norm == 0.0  # a zero cost stays at the center
        z = np.where(zero, center, center - D * cost / np.where(zero, 1.0, norm))
        return z, point_or_rows(np.vecdot(cost, z))

    def __repr__(self):
        return f"WholeSpace({self.dimension})"


class Box(FeasibleSet):
    """``{z : l <= z <= u}`` componentwise, infinite bounds allowed."""

    def __init__(self, l: np.ndarray, u: np.ndarray):
        l = np.array(l, dtype=float)
        u = np.array(u, dtype=float)
        if l.shape != u.shape or l.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if np.any(l > u):
            raise ValueError("box bounds must satisfy l <= u componentwise")
        l.flags.writeable = False
        u.flags.writeable = False
        self.l = l
        self.u = u
        self.dimension = l.shape[0]

    def infeasibility(self, z):
        z = np.asarray(z, dtype=float)
        return float(
            max(np.max(np.maximum(self.l - z, 0.0), initial=0.0),
                np.max(np.maximum(z - self.u, 0.0), initial=0.0))
        )

    def project(self, p):
        return np.clip(np.asarray(p, dtype=float), self.l, self.u)

    def _active_bounds(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo = np.isfinite(self.l) & (np.abs(z - self.l) <= ACTIVITY_TOL * (1.0 + np.abs(self.l)))
        hi = np.isfinite(self.u) & (np.abs(z - self.u) <= ACTIVITY_TOL * (1.0 + np.abs(self.u)))
        return lo, hi

    def project_tangent_cone(self, z, v):
        z = self._require_feasible(z)
        v = np.asarray(v, dtype=float)
        lo, hi = self._active_bounds(z)
        out = np.where(lo, np.maximum(v, 0.0), v)  # only inward directions at the floor
        return np.where(hi, np.minimum(out, 0.0), out)

    def project_normal_cone(self, z, v):
        z = self._require_feasible(z)
        v = np.asarray(v, dtype=float)
        lo, hi = self._active_bounds(z)
        out = np.where(lo, np.minimum(v, 0.0), np.where(hi, np.maximum(v, 0.0), 0.0))
        return np.where(lo & hi, v, out)  # pinned coordinate: normal cone is the whole line

    def linear_min_over_ball(self, center, D, cost):
        """Exact minimizer of ``<cost, z>`` over the box within distance D of ``center``.

        A row whose box corner (the one the cost points to) lies in the ball returns
        it.  The others walk the sorted breakpoints of ``t -> clip(center - t*cost, l, u)``
        and solve the piece that reaches D in closed form.  O(n log n) per row, no
        iteration.
        """
        center = self._require_feasible(require_finite("center", center))
        cost = require_finite("cost", cost)
        if not 0 < D < np.inf:
            raise ValueError("D must be finite and positive")
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


class Ball(FeasibleSet):
    def __init__(self, center: np.ndarray, radius: float):
        center = np.array(center, dtype=float)
        if radius <= 0:
            raise ValueError("radius must be positive")
        center.flags.writeable = False
        self.center = center
        self.radius = float(radius)
        self.dimension = center.shape[0]

    def infeasibility(self, z):
        z = np.asarray(z, dtype=float)
        return float(np.max(row_norm(z - self.center) - self.radius, initial=0.0))

    def project(self, p):
        p = np.asarray(p, dtype=float)
        d = p - self.center
        norm = row_norm(d)[..., None]
        inside = norm <= self.radius
        return np.where(inside, p, self.center + self.radius * d / np.where(inside, 1.0, norm))

    def project_tangent_cone(self, z, v):
        z = self._require_feasible(z)
        v = np.asarray(v, dtype=float)
        d = z - self.center
        norm = row_norm(d)[..., None]
        interior = norm < self.radius * (1.0 - ACTIVITY_TOL)
        outward = d / np.where(interior, 1.0, norm)
        coeff = np.vecdot(v, outward)[..., None]
        return np.where(interior | (coeff <= 0), v, v - coeff * outward)

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


def _min_norm_point_over_halfspaces(
    rows_a: np.ndarray, rows_b: np.ndarray, p: np.ndarray, tol: float = 1e-10
) -> np.ndarray:
    """Projection of ``p`` onto ``{z : A z >= b}`` by active-set enumeration.

    A feasible ``p`` is its own projection.  Otherwise every nonempty subset of
    rows is solved as an equality-constrained least-squares problem; among
    feasible candidates the closest wins, with ties broken by smaller active
    set, then lexicographic subset order (enumeration order already realizes
    that tie-break).
    """
    scale = 1.0 + np.abs(rows_b).max()
    if not np.min(rows_a @ p - rows_b, initial=0.0) < -1e-9 * scale:
        return p.copy()  # at distance 0, no other candidate is strictly closer
    m = rows_a.shape[0]
    best: tuple[float, np.ndarray] | None = None
    for size in range(1, m + 1):
        for S in combinations(range(m), size):
            A, b = rows_a[list(S)], rows_b[list(S)]
            lam = np.linalg.lstsq(A @ A.T, b - A @ p, rcond=None)[0]
            z = p + A.T @ lam
            if np.max(np.abs(A @ z - b)) > 1e-8 * scale:
                continue  # subset is inconsistent
            if np.min(rows_a @ z - rows_b, initial=0.0) < -1e-9 * scale:
                continue
            d = float(np.sum((z - p) ** 2))
            if best is None or d < best[0] - tol * (1.0 + best[0]):
                best = (d, z)
    if best is None:
        raise EmptySetError("halfspace intersection appears to be empty")
    return best[1]


class HalfspaceIntersection(FeasibleSet):
    """``{z : <a_i, z> >= b_i for all i}`` with at most 8 rows."""

    def __init__(self, rows: list[tuple[np.ndarray, float]]):
        if not rows:
            raise ValueError("at least one halfspace row is required")
        if len(rows) > MAX_HALFSPACE_ROWS:
            raise ValueError(f"at most {MAX_HALFSPACE_ROWS} rows are supported")
        a_rows = []
        b_rows = []
        dim = None
        for a, b in rows:
            a = np.array(a, dtype=float)
            if dim is None:
                dim = a.shape[0]
            if a.shape != (dim,):
                raise ValueError("all rows must share the ambient dimension")
            if np.linalg.norm(a) == 0.0:
                raise ValueError("halfspace normals must be nonzero")
            a_rows.append(a)
            b_rows.append(float(b))
        self.a = np.array(a_rows)
        self.b = np.array(b_rows)
        self.a.flags.writeable = False
        self.b.flags.writeable = False
        self.dimension = dim
        # nonempty check: the projection of the origin must come back feasible
        probe = _min_norm_point_over_halfspaces(self.a, self.b, np.zeros(dim))
        if self.infeasibility(probe) > 1e-7 * (1.0 + np.abs(self.b).max()):
            raise EmptySetError("halfspace intersection appears to be empty")

    def infeasibility(self, z):
        z = np.asarray(z, dtype=float)
        if z.ndim == 2:
            return max((self.infeasibility(row) for row in z), default=0.0)
        return float(np.max(np.maximum(self.b - self.a @ z, 0.0), initial=0.0))

    def project(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim == 2:
            return np.array([self.project(row) for row in p]).reshape(p.shape)
        return _min_norm_point_over_halfspaces(self.a, self.b, p)

    def activity(self, z: np.ndarray, tol: float = ACTIVITY_TOL) -> ConeActivity:
        z = np.asarray(z, dtype=float)
        resid = np.abs(self.a @ z - self.b)
        active = tuple(
            int(i) for i in range(self.a.shape[0]) if resid[i] <= tol * (1.0 + abs(self.b[i]))
        )
        return ConeActivity(active_rows=active, activity_tolerance=tol)

    def project_tangent_cone(self, z, v):
        z = self._require_feasible(z)
        v = np.asarray(v, dtype=float)
        if z.ndim == 2:
            rows = [self.project_tangent_cone(z_row, v_row) for z_row, v_row in zip(z, v)]
            return np.array(rows).reshape(v.shape)
        active = self.activity(z).active_rows
        if not active:
            return v.copy()
        rows = self.a[list(active)]
        return _min_norm_point_over_halfspaces(rows, np.zeros(len(active)), v)

    def __repr__(self):
        return f"HalfspaceIntersection({len(self.b)} rows, dim {self.dimension})"


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def _bound_list(arr: np.ndarray) -> list:
    return [None if not np.isfinite(x) else float(x) for x in arr]


def _bound_array(values: list, sign: float) -> np.ndarray:
    return np.array([sign * np.inf if v is None else float(v) for v in values])


def set_to_json(feasible_set: FeasibleSet) -> dict:
    if isinstance(feasible_set, NonnegativeOrthant):
        return {"type": "orthant", "n": feasible_set.dimension}
    if isinstance(feasible_set, Box):
        return {"type": "box", "l": _bound_list(feasible_set.l), "u": _bound_list(feasible_set.u)}
    if isinstance(feasible_set, WholeSpace):
        return {"type": "rn", "n": feasible_set.dimension}
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
    kind = data["type"]
    if kind == "box":
        return Box(_bound_array(data["l"], -1.0), _bound_array(data["u"], +1.0))
    if kind == "orthant":
        return NonnegativeOrthant(int(data["n"]))
    if kind == "rn":
        return WholeSpace(int(data["n"]))
    if kind == "ball":
        return Ball(np.array(data["center"], dtype=float), float(data["radius"]))
    if kind == "halfspaces":
        return HalfspaceIntersection(
            [(np.array(r["a"], dtype=float), float(r["b"])) for r in data["rows"]]
        )
    raise ValueError(f"unknown set type {kind!r}")
