"""Performance measures for VI iterates.

The tangent residual (norm of ``-F(z)`` projected onto the tangent cone) is
the canonical convergence measure here: it upper-bounds the natural residual,
bounds the gap function via ``gap <= D * r_tan``, and is monotone along
extragradient steps, which the other classical measures are not.

``tangent_residual_variants`` computes the same number along six distinct
routes (normal-cone maximizer, minimum over unit normals, tangent projection,
shifted-cone projection, Moreau complement, minimum over the normal cone) as a
cross-check; the two normal-cone-maximizer routes have closed forms only for
box-like sets and are reported as ``None`` elsewhere.

``natural_residual``, ``tangent_residual``, ``gap`` and
``duality_gap_bilinear`` take a point or a ``(k, n)`` stack of points and
return a float or one value per row.  The first three also take the operator
values ``F_z`` when the caller has them cached.  A series along a run is one
such call on the trajectory's arrays, made by
:meth:`egtan.solvers.Trajectory.series`; ``write_measures_csv`` writes the
columns of :meth:`egtan.solvers.Trajectory.measure_series`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .instances import BilinearGameSpec, DimensionMismatchError, VIInstance
from .sets import Box, WholeSpace, point_or_rows, require_finite, row_norm

ZERO_TOL = 1e-12  # strict positivity threshold in the orthant closed form


def _operator_values(inst: VIInstance, z: np.ndarray, F_z: np.ndarray | None) -> np.ndarray:
    """``F_z`` as given, or ``F`` at the point ``z`` or at each row of the stack."""
    if F_z is None:
        if z.ndim == 1:
            return inst.operator(z)
        return np.array([inst.operator(row) for row in z]).reshape(z.shape)
    F_z = np.asarray(F_z, dtype=float)
    if F_z.shape != z.shape:
        raise DimensionMismatchError("F_z", f"expected shape {z.shape}, got {F_z.shape}")
    return F_z


def natural_residual(
    inst: VIInstance, z: np.ndarray, F_z: np.ndarray | None = None
) -> float | np.ndarray:
    """``|| z - proj(z - F(z)) ||``; zero exactly at solutions."""
    z = np.asarray(z, dtype=float)
    F_z = _operator_values(inst, z, F_z)
    return point_or_rows(row_norm(z - inst.set.project(z - F_z)))


def tangent_residual(
    inst: VIInstance, z: np.ndarray, F_z: np.ndarray | None = None
) -> float | np.ndarray:
    """``|| proj_{T(z)}(-F(z)) ||``; equals ``||F(z)||`` at interior points."""
    z = np.asarray(z, dtype=float)
    F_z = _operator_values(inst, z, F_z)
    return point_or_rows(row_norm(inst.set.project_tangent_cone(z, -F_z)))


def tangent_residual_orthant_closed_form(F_z: np.ndarray, z: np.ndarray) -> float:
    """Closed form on the nonnegative orthant.

    A coordinate contributes iff it is free (``z_i > 0``) or pushes inward
    (``F_i < 0``); active coordinates with outward push are absorbed by the
    cone.
    """
    F_z = np.asarray(F_z, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(z < -ZERO_TOL):
        raise ValueError("orthant closed form requires z >= 0")
    counted = (z > ZERO_TOL) | (F_z < 0)
    return float(np.sqrt(np.sum(F_z[counted] ** 2)))


@dataclass(frozen=True)
class TangentResidualVariants:
    """The six equivalent evaluations; unavailable routes are ``None``."""

    max_form: float | None
    min_norm_form: float | None
    tangent_projection: float
    shifted_cone_projection: float
    moreau_complement: float
    min_over_normal_cone: float

    def available(self) -> list[float]:
        return [v for v in (
            self.max_form,
            self.min_norm_form,
            self.tangent_projection,
            self.shifted_cone_projection,
            self.moreau_complement,
            self.min_over_normal_cone,
        ) if v is not None]

    def spread(self) -> float:
        vals = self.available()
        return max(vals) - min(vals)


def _box_blocked_mask(feasible_set: Box, z: np.ndarray, F_z: np.ndarray) -> np.ndarray:
    # coordinates whose operator push is absorbed by an active bound
    lo, hi = feasible_set._active_bounds(z)
    return (lo & (F_z >= 0)) | (hi & (F_z <= 0))


def tangent_residual_variants(inst: VIInstance, z: np.ndarray) -> TangentResidualVariants:
    """All six evaluation routes of the tangent residual at ``z``.

    Routes one and two need the maximizing unit normal, which has a closed
    form only on box-like sets (the normalized blocked component of ``F``);
    they are ``None`` for other variants.  Routes three to six are always
    computed.
    """
    z = np.asarray(z, dtype=float)
    F_z = inst.operator(z)
    feasible_set = inst.set
    norm_F = float(np.linalg.norm(F_z))

    max_form = min_norm_form = None
    if isinstance(feasible_set, Box):
        blocked = _box_blocked_mask(feasible_set, z, F_z)
        blocked_norm = float(np.linalg.norm(F_z[blocked]))
        if blocked_norm == 0.0:
            max_form = norm_F
            min_norm_form = norm_F
        else:
            a = np.zeros_like(F_z)
            a[blocked] = -F_z[blocked] / blocked_norm
            inner = float(a @ F_z)  # = -blocked_norm <= 0
            # the maximizer is coordinate-aligned, so ||F||^2 - <a,F>^2
            # collapses to the unblocked component sum; evaluating it that way
            # avoids the difference-of-squares cancellation at corners where
            # every coordinate is blocked
            max_form = float(np.sqrt(np.sum(F_z[~blocked] ** 2)))
            min_norm_form = float(np.linalg.norm(F_z - inner * a))
    elif isinstance(feasible_set, WholeSpace):
        max_form = norm_F
        min_norm_form = norm_F

    tangent_projection = float(np.linalg.norm(feasible_set.project_tangent_cone(z, -F_z)))

    # shifted cone {z} + T(z): project the natural-map argument, measure from z
    shifted = _project_shifted_cone(feasible_set, z, z - F_z)
    shifted_cone_projection = float(np.linalg.norm(shifted - z))

    normal_part = feasible_set.project_normal_cone(z, -F_z)
    moreau_complement = float(np.linalg.norm(-F_z - normal_part))
    min_over_normal_cone = float(np.linalg.norm(F_z + normal_part))

    return TangentResidualVariants(
        max_form=max_form,
        min_norm_form=min_norm_form,
        tangent_projection=tangent_projection,
        shifted_cone_projection=shifted_cone_projection,
        moreau_complement=moreau_complement,
        min_over_normal_cone=min_over_normal_cone,
    )


def _project_shifted_cone(feasible_set, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Project ``w`` onto ``{z} + T(z)`` directly (not via the tangent map)."""
    if isinstance(feasible_set, Box):
        lo, hi = feasible_set._active_bounds(z)
        out = w.astype(float).copy()
        out[lo] = np.maximum(out[lo], z[lo])
        out[hi] = np.minimum(out[hi], z[hi])
        return out
    if isinstance(feasible_set, WholeSpace):
        return w.astype(float).copy()
    # generic: shift to the origin and reuse the tangent projection
    return z + feasible_set.project_tangent_cone(z, w - z)


def gap(
    inst: VIInstance, z: np.ndarray, D: float, F_z: np.ndarray | None = None
) -> float | np.ndarray:
    """``max {<F(z), z - z'> : z' in Z, ||z' - z|| <= D}``; nonnegative."""
    if not 0 < D < np.inf:
        raise ValueError("D must be finite and positive")
    z = require_finite("z", z)
    F_z = _operator_values(inst, z, F_z)
    _, min_value = inst.set.linear_min_over_ball(z, D, F_z)
    excess = np.vecdot(F_z, z) - min_value
    return point_or_rows(np.where(0.0 > excess, 0.0, excess))  # Python's max(excess, 0.0)


def duality_gap_bilinear(spec: BilinearGameSpec, z: np.ndarray) -> float | np.ndarray:
    """``max_{y'} f(x, y') - min_{x'} f(x', y)`` over the game's own boxes.

    Both extrema are linear over a box, so each coordinate just picks the
    bound matching its cost sign.  ``z`` may also be a ``(k, n)`` stack of
    points, giving one gap per row.
    """
    z = np.asarray(z, dtype=float)
    x, y = z[..., : spec.x_dim], z[..., spec.x_dim :]
    xl, xu = spec.x_box
    yl, yu = spec.y_box
    y_cost = x @ spec.A - spec.c  # maximize <y_cost, y'>
    best_y = np.where(y_cost > 0, yu, yl)
    best_y = np.where(y_cost == 0, y, best_y)
    x_cost = y @ spec.A.T - spec.b  # minimize <x_cost, x'>
    best_x = np.where(x_cost > 0, xl, xu)
    best_x = np.where(x_cost == 0, x, best_x)
    return spec.payoff(x, best_y) - spec.payoff(best_x, y)


def write_measures_csv(fp: TextIO, columns: dict[str, np.ndarray | None]) -> None:
    """CSV columns ``k, r_nat, r_tan, gap, dist_half, dist_full`` at 17 digits.

    ``columns`` is :meth:`egtan.solvers.Trajectory.measure_series`: one row per
    iterate, blank where a column is ``None`` or shorter (the step distances
    have no entry at the last iterate).
    """
    writer = csv.writer(fp)
    writer.writerow(["k", *columns])
    for k in range(len(columns["r_nat"])):
        writer.writerow(
            [k] + ["" if v is None or k >= len(v) else f"{v[k]:.17g}" for v in columns.values()]
        )
