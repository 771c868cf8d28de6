"""Performance measures for VI iterates.

The tangent residual (norm of ``-F(z)`` projected onto the tangent cone) is
the canonical convergence measure here: it upper-bounds the natural residual,
bounds the gap function via ``gap <= D * r_tan``, and is monotone along
extragradient steps, which the other classical measures are not.

``natural_residual``, ``tangent_residual``, ``gap`` and
``duality_gap_bilinear`` take a point or a ``(k, n)`` stack of points and
return a float or one value per row.  The first three also take the operator
values ``F_z`` when the caller has them cached.  A series along a run is one
such call on the trajectory's arrays, made by
:meth:`egtan.solvers.Trajectory.series`; ``write_measures_csv`` writes the
columns of :meth:`egtan.solvers.Trajectory.measure_series`.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

from .instances import BilinearGameSpec, DimensionMismatchError, VIInstance
from .sets import point_or_rows, require_finite, require_positive, row_norm


def _operator_values(inst: VIInstance, z: np.ndarray, F_z: np.ndarray | None) -> np.ndarray:
    """``F_z`` as given, or ``F`` at the point ``z`` or at each row of the stack."""
    if F_z is None:
        return inst.operator(z)
    F_z = np.asarray(F_z, dtype=float)
    if F_z.shape != z.shape:
        raise DimensionMismatchError("F_z", f"expected shape {z.shape}, got {F_z.shape}")
    return F_z


def natural_residual(
    inst: VIInstance, z: np.ndarray, F_z: np.ndarray | None = None
) -> float | np.ndarray:
    """``|| z - proj(z - F(z)) ||``; zero exactly at solutions."""
    z = require_finite("z", z)
    F_z = _operator_values(inst, z, F_z)
    return point_or_rows(row_norm(z - inst.set.project(z - F_z)))


def tangent_residual(
    inst: VIInstance, z: np.ndarray, F_z: np.ndarray | None = None
) -> float | np.ndarray:
    """``|| proj_{T(z)}(-F(z)) ||``; equals ``||F(z)||`` at interior points."""
    z = np.asarray(z, dtype=float)
    F_z = _operator_values(inst, z, F_z)
    return point_or_rows(row_norm(inst.set.project_tangent_cone(z, -F_z)))


def gap(
    inst: VIInstance, z: np.ndarray, D: float, F_z: np.ndarray | None = None
) -> float | np.ndarray:
    """``max {<F(z), z - z'> : z' in Z, ||z' - z|| <= D}``; nonnegative."""
    require_positive("D", D)
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


def _csv_text(header: list[str], columns: list[list[float]], rows: int) -> str:
    """CSV text as ``csv.writer`` writes it: ``header``, then ``rows`` rows.

    Row ``k`` holds ``k`` and each column's ``k``-th value as ``%.17g``, or a
    blank cell where the column is shorter.  Rows with the same blanks share
    one format string; every row ends in CRLF.
    """
    lines = [",".join(header)]
    start = 0
    for stop in sorted({min(len(c), rows) for c in columns} | {rows}):
        if stop > start:
            full = [c[start:stop] for c in columns if len(c) >= stop]
            fmt = "%d" + "".join(",%.17g" if len(c) >= stop else "," for c in columns)
            lines += [fmt % row for row in zip(range(start, stop), *full)]
            start = stop
    lines.append("")
    return "\r\n".join(lines)


def write_measures_csv(fp: TextIO, columns: dict[str, np.ndarray | None]) -> None:
    """CSV columns ``k, r_nat, r_tan, gap, dist_half, dist_full`` at 17 digits.

    ``columns`` is :meth:`egtan.solvers.Trajectory.measure_series`: a header,
    then one row per iterate with each value as ``%.17g``, blank where a
    column is ``None`` or shorter (the step distances have no entry at the
    last iterate).  Rows end in CRLF, as Python's ``csv`` module writes them.
    The file is written with one ``fp.write``.
    """
    values = [[] if v is None else v.tolist() for v in columns.values()]
    fp.write(_csv_text(["k", *columns], values, len(columns["r_nat"])))
