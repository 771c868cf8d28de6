"""Feasible sets and the three projections the diagnostics need.

Every set projects onto itself and onto the tangent cone at a feasible point;
the normal cone follows by Moreau's decomposition.  Box-like sets also minimize
a linear cost exactly over set ∩ ball, for the gap function, by a breakpoint
walk.  Halfspace intersections enumerate active sets: exact, meant for few rows.
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
    """Base type of the tagged union; concrete variants implement the geometry."""

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
    ) -> tuple[np.ndarray, float]:
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
        norm = np.linalg.norm(cost)
        if norm == 0.0:
            return center.copy(), float(cost @ center)
        z = center - D * cost / norm
        return z, float(cost @ z)

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
        out = v.copy()
        out[lo] = np.maximum(out[lo], 0.0)  # only inward directions at the floor
        out[hi] = np.minimum(out[hi], 0.0)
        return out

    def project_normal_cone(self, z, v):
        z = self._require_feasible(z)
        v = np.asarray(v, dtype=float)
        lo, hi = self._active_bounds(z)
        out = np.zeros_like(v)
        out[lo] = np.minimum(v[lo], 0.0)
        out[hi & ~lo] = np.maximum(v[hi & ~lo], 0.0)
        both = lo & hi  # pinned coordinate: normal cone is the whole line
        out[both] = v[both]
        return out

    def linear_min_over_ball(self, center, D, cost):
        """Exact minimizer of ``<cost, z>`` over the box within distance D of ``center``.

        Returns the box corner the cost points to when it lies in the ball.  Otherwise
        walks the sorted breakpoints of ``t -> clip(center - t*cost, l, u)`` and solves
        the piece that reaches D in closed form.  O(n log n), no iteration.
        """
        center = self._require_feasible(require_finite("center", center))
        cost = require_finite("cost", cost)
        if not 0 < D < np.inf:
            raise ValueError("D must be finite and positive")
        g = cost / (np.abs(cost).max(initial=0.0) or 1.0)
        g[g * g < np.finfo(float).tiny] = 0.0  # drop components whose square is subnormal
        target = np.where(g > 0, self.l, np.where(g < 0, self.u, np.inf))  # inf if g_i = 0
        corner = np.where(g != 0, target, center)
        if np.linalg.norm(corner - center) <= D:  # the box minimizer is in the ball
            return corner, float(cost @ corner)
        cap = np.abs(target - center)
        breaks = cap / np.abs(g)
        order = np.argsort(breaks)
        p = np.count_nonzero(breaks < np.inf)  # coordinates that reach their bound
        # with the first k of order at their bounds, ||z(t) - center|| = hypot(sat[k], t*free[k])
        sat = np.sqrt(np.cumsum(np.concatenate(([0.0], cap[order[:p]] ** 2))))
        free = np.sqrt(np.concatenate((np.cumsum(g[order[::-1]] ** 2)[::-1], [0.0])))
        if free[p] == 0.0:  # every moving coordinate stops, at the corner outside the ball,
            p -= 1  # so the walk ends before its last breakpoint
        radius = np.hypot(sat[1 : p + 1], breaks[order[:p]] * free[1 : p + 1])  # at breakpoints
        k = np.searchsorted(radius, D, side="right")
        z = (center - np.sqrt((D - sat[k]) * (D + sat[k])) / free[k] * g).clip(self.l, self.u)
        return z, float(cost @ z)

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
        return float(max(np.linalg.norm(z - self.center) - self.radius, 0.0))

    def project(self, p):
        p = np.asarray(p, dtype=float)
        d = p - self.center
        norm = np.linalg.norm(d)
        if norm <= self.radius:
            return p.copy()
        return self.center + self.radius * d / norm

    def project_tangent_cone(self, z, v):
        z = self._require_feasible(z)
        v = np.asarray(v, dtype=float)
        d = z - self.center
        norm = np.linalg.norm(d)
        if norm < self.radius * (1.0 - ACTIVITY_TOL):
            return v.copy()
        outward = d / norm
        coeff = float(v @ outward)
        if coeff <= 0:
            return v.copy()
        return v - coeff * outward

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


def _min_norm_point_over_halfspaces(
    rows_a: np.ndarray, rows_b: np.ndarray, p: np.ndarray, tol: float = 1e-10
) -> np.ndarray:
    """Projection of ``p`` onto ``{z : A z >= b}`` by active-set enumeration.

    Every subset of rows is solved as an equality-constrained least-squares
    problem; among feasible candidates the closest wins, with ties broken by
    smaller active set, then lexicographic subset order (enumeration order
    already realizes that tie-break).
    """
    m = rows_a.shape[0]
    best: tuple[float, np.ndarray] | None = None
    for size in range(m + 1):
        for S in combinations(range(m), size):
            if size == 0:
                z = p.copy()
            else:
                A = rows_a[list(S)]
                rhs = rows_b[list(S)] - A @ p
                lam = np.linalg.lstsq(A @ A.T, rhs, rcond=None)[0]
                z = p + A.T @ lam
                if np.max(np.abs(A @ z - rows_b[list(S)])) > 1e-8 * (1.0 + np.abs(rows_b).max()):
                    continue  # subset is inconsistent
            slack = rows_a @ z - rows_b
            if np.min(slack, initial=0.0) < -1e-9 * (1.0 + np.abs(rows_b).max()):
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
        return float(np.max(np.maximum(self.b - self.a @ z, 0.0), initial=0.0))

    def project(self, p):
        return _min_norm_point_over_halfspaces(self.a, self.b, np.asarray(p, dtype=float))

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
