"""Independent evaluations that the tests hold the library's results against.

None of these runs in the library itself; each recomputes a quantity along a
different route so that a test can compare the two:

* ``tangent_residual_variants`` evaluates the tangent residual along six
  routes (normal-cone maximizer, minimum over unit normals, tangent
  projection, shifted-cone projection, Moreau complement, minimum over the
  normal cone).  The two normal-cone-maximizer routes have closed forms only
  for box-like sets and are ``None`` elsewhere.
* ``tangent_residual_orthant_closed_form`` is the tangent residual on the
  nonnegative orthant in closed form.
* ``whole_space_linear_min_over_ball`` minimizes a linear cost over a ball in
  ``R^n`` in closed form.
* ``min_norm_point_by_enumeration`` projects onto a halfspace intersection
  by solving every active set of rows and keeping the nearest feasible point.
* ``prox_point_by_picard`` takes a proximal-point step by iterating the
  projection ``w -> proj(z - eta F(w))``, a contraction when ``eta L < 1``.
* ``pp_iterates_by_steps`` is the reference proximal-point run: the loop of
  cold ``pp_step`` calls, no hint handed from one step to the next.
* ``check_monotone_samples`` tests monotonicity of an affine operator on
  random pairs of points.
* ``unconstrained_identity_terms`` gives the five summands of the
  unconstrained identity at one rational point.
* ``substitute_term_by_term`` composes a polynomial one term at a time,
  each power recomputed and each term added as a new polynomial.
* ``json_by_stdlib``, ``trajectory_csv_by_stdlib`` and
  ``measures_csv_by_stdlib`` render the output files through the stdlib:
  ``json.dumps(..., indent=2)`` and ``csv.writer``, one value at a time.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from egtan.certificates import _unconstrained_terms
from egtan.exactpoly import Rational, SparsePoly
from egtan.instances import AffineOperator, VIInstance
from egtan.sets import Box, EmptySetError, WholeSpace
from egtan.solvers import pp_step

ZERO_TOL = 1e-12  # strict positivity threshold in the orthant closed form


def whole_space_linear_min_over_ball(
    center: np.ndarray, D: float, cost: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``z = center - D cost / ||cost||`` row by row, and ``<cost, z>``.

    A zero cost stays at ``center``.
    """
    center = np.asarray(center, dtype=float)
    cost = np.asarray(cost, dtype=float)
    norm = np.linalg.norm(cost, axis=-1, keepdims=True)
    zero = norm == 0.0
    z = np.where(zero, center, center - D * cost / np.where(zero, 1.0, norm))
    return z, np.sum(cost * z, axis=-1)


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
    if isinstance(feasible_set, WholeSpace):  # a Box too; kept on its own route
        max_form = norm_F
        min_norm_form = norm_F
    elif isinstance(feasible_set, Box):
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
    if isinstance(feasible_set, WholeSpace):  # a Box too; kept on its own route
        return w.astype(float).copy()
    if isinstance(feasible_set, Box):
        lo, hi = feasible_set._active_bounds(z)
        out = w.astype(float).copy()
        out[lo] = np.maximum(out[lo], z[lo])
        out[hi] = np.minimum(out[hi], z[hi])
        return out
    # generic: shift to the origin and reuse the tangent projection
    return z + feasible_set.project_tangent_cone(z, w - z)


def min_norm_point_by_enumeration(
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


def prox_point_by_picard(
    inst: VIInstance, eta: float, z_k: np.ndarray, tol: float = 1e-14, max_iter: int = 100_000
) -> np.ndarray:
    """The ``w`` with ``w = proj(z_k - eta F(w))``, by Picard iteration from ``z_k``.

    The map contracts with factor ``eta L``; the loop ends once a step moves
    ``w`` by at most ``tol (1 + ||w||)``, which leaves ``w`` within that times
    ``eta L / (1 - eta L)`` of the fixed point, and raises after ``max_iter``
    steps.
    """
    if not eta * inst.operator.lipschitz < 1.0:
        raise ValueError("Picard iteration needs eta * L < 1")
    w = np.asarray(z_k, dtype=float)
    for _ in range(max_iter):
        w_new = inst.set.project(z_k - eta * inst.operator(w))
        if np.linalg.norm(w_new - w) <= tol * (1.0 + np.linalg.norm(w)):
            return w_new
        w = w_new
    raise RuntimeError(f"Picard iteration did not settle in {max_iter} steps")


def pp_iterates_by_steps(inst: VIInstance, eta: float, z0: np.ndarray, T: int) -> np.ndarray:
    """The ``(T + 1, n)`` iterates of ``T`` successive cold :func:`pp_step` calls from ``z0``."""
    zs = [np.asarray(z0, dtype=float)]
    for _ in range(T):
        zs.append(pp_step(inst, eta, zs[-1]))
    return np.array(zs)


def check_monotone_samples(
    op: AffineOperator, samples: int, seed: int = 0, tol: float = 1e-10
) -> bool:
    """Sampled monotonicity test: ``<F(z)-F(z'), z-z'> >= -tol`` on random pairs."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = op.dimension
    for _ in range(samples):
        z = rng.standard_normal(n)
        zp = rng.standard_normal(n)
        if float((op(z) - op(zp)) @ (z - zp)) < -tol:
            return False
    return True


def unconstrained_identity_terms(
    f_k: Sequence[Rational], f_half: Sequence[Rational], f_next: Sequence[Rational]
) -> list[Rational]:
    """The five summands whose total vanishes for any three vectors.

    norm-difference, twice the monotonicity product, and the Lipschitz
    difference, all expressed in the operator values alone.
    """
    if not (len(f_k) == len(f_half) == len(f_next)):
        raise ValueError("operator value vectors must share a dimension")
    return _unconstrained_terms(*([Fraction(x) for x in f] for f in (f_k, f_half, f_next)))


def substitute_term_by_term(poly: SparsePoly, mapping: dict[str, SparsePoly]) -> SparsePoly:
    """``poly`` with each named variable replaced, built as a sum of composed terms."""
    result = SparsePoly(poly.vars)
    for exp, c in poly.terms.items():
        term = SparsePoly.constant(poly.vars, c)
        for name, p in zip(poly.vars, exp):
            if p:
                base = mapping.get(name)
                term = term * (SparsePoly.variable(poly.vars, name) if base is None else base) ** p
        result = result + term
    return result


def json_by_stdlib(obj) -> str:
    """``rates.json``, ``certificates.json`` and saved instances as the stdlib writes them."""
    return json.dumps(obj, indent=2)


def trajectory_csv_by_stdlib(trajectory) -> str:
    """``trajectory.csv`` through ``csv.writer``, each value formatted on its own."""
    n = trajectory.instance.dimension
    halfs = trajectory.half_iterates
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    header = ["k"] + [f"z{i}" for i in range(n)]
    if halfs is not None:
        header += [f"zhalf{i}" for i in range(n)]
    writer.writerow(header)
    for k, z in enumerate(trajectory.iterates):
        row = [k] + [f"{x:.17g}" for x in z]
        if halfs is not None:
            row += [f"{x:.17g}" for x in halfs[k]] if k < len(halfs) else [""] * n
        writer.writerow(row)
    return fh.getvalue()


def measures_csv_by_stdlib(columns: dict) -> str:
    """``measures.csv`` through ``csv.writer``: blank where a column is ``None`` or shorter."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["k", *columns])
    for k in range(len(columns["r_nat"])):
        writer.writerow(
            [k] + ["" if v is None or k >= len(v) else f"{v[k]:.17g}" for v in columns.values()]
        )
    return fh.getvalue()
