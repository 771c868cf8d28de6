"""Affine variational-inequality instances and bilinear saddle-point games.

Only affine operators ``F(z) = M z + q`` are supported: every experiment in
this package is affine or bilinear, and affinity makes the Lipschitz constant
(the top singular value of ``M``) and the strong-monotonicity modulus (the
bottom eigenvalue of the symmetric part) exact, not estimated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .render import _render_json
from .sets import (
    Box,
    _times,
    json_field,
    json_floats,
    json_number,
    point_or_rows,
    require_box_bounds,
    require_finite,
    set_from_json,
    set_to_json,
)

EIG_TOL = 1e-8
POWER_ITER_CAP = 10_000
POWER_ITER_TOL = 1e-10
POWER_ITER_SEED = 0
_FLOAT64 = np.dtype(float)


class DimensionMismatchError(ValueError):
    """Shapes disagree; carries the offending field name."""

    def __init__(self, field_name: str, detail: str):
        super().__init__(f"dimension mismatch in {field_name}: {detail}")
        self.field_name = field_name


class PowerIterationError(RuntimeError):
    """Power iteration failed to settle; carries the last residual."""

    def __init__(self, residual: float):
        super().__init__(
            f"power iteration did not converge within {POWER_ITER_CAP} iterations "
            f"(last eigenvalue change {residual:.3e})"
        )
        self.residual = residual


def _power_dominant_eig(S: np.ndarray, rng: np.random.Generator) -> float:
    """Dominant eigenvalue of a PSD matrix by accelerated power iteration.

    The iteration direction is driven by the 16th matrix power (four
    normalized squarings), which keeps clustered spectra inside the iteration
    cap; the returned value is the Rayleigh quotient on the original matrix.
    The change tolerance applies on the Frobenius-normalized scale, so it is
    effectively relative for badly scaled inputs.
    """
    n = S.shape[0]
    scale = float(np.linalg.norm(S))
    if scale < 1e-300:
        return 0.0
    B = S / scale
    A = B
    for _ in range(4):
        A = A @ A
        a_norm = float(np.linalg.norm(A))
        if a_norm < 1e-300:
            break
        A = A / a_norm

    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = math.inf
    change = math.inf
    for _ in range(POWER_ITER_CAP):
        w = A @ v
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            return 0.0
        v = w / norm
        new_lam = float(v @ (B @ v))
        change = abs(new_lam - lam)
        lam = new_lam
        if change <= POWER_ITER_TOL:
            return lam * scale
    raise PowerIterationError(change)


def _spectral_norm(A: np.ndarray, rng: np.random.Generator) -> float:
    """Top singular value via power iteration on the Gram matrix."""
    return float(np.sqrt(max(_power_dominant_eig(A.T @ A, rng), 0.0)))


def _require_square(M: np.ndarray) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DimensionMismatchError("M", f"expected a nonempty square matrix, got {M.shape}")


def matrix_constants(M: np.ndarray) -> tuple[float, float]:
    """(Lipschitz constant, strong-monotonicity modulus) of ``z -> Mz + q``.

    The Lipschitz constant is the top singular value of ``M``; the modulus is
    the smallest eigenvalue of the symmetric part ``S``.  Both come from
    deterministic power iterations (seed 0): ``sigma_max^2`` dominates
    ``M^T M``, and ``lambda_min(S)`` is recovered from the dominant eigenvalue
    of the Gershgorin-shifted reflection ``(lambda_max + shift) I - S``.
    """
    M = np.asarray(M, dtype=float)
    _require_square(M)
    rng = np.random.default_rng(POWER_ITER_SEED)
    lipschitz = _spectral_norm(M, rng)

    S = 0.5 * (M + M.T)
    shift = float(np.abs(S).sum(axis=1).max()) + 1.0  # Gershgorin: S + shift*I is PSD
    lam_max = _power_dominant_eig(S + shift * np.eye(S.shape[0]), rng) - shift
    top = _power_dominant_eig((lam_max + shift) * np.eye(S.shape[0]) - S, rng)
    gamma = float(lam_max + shift - top)
    return lipschitz, gamma


@dataclass(frozen=True)
class AffineOperator:
    """``F(z) = M z + q`` with cached Lipschitz and monotonicity constants.

    Called on a point or on a ``(k, n)`` stack of points; a stack gives, row
    for row and bit for bit, what the per-point calls give.
    """

    M: np.ndarray
    q: np.ndarray
    lipschitz: float
    gamma: float

    @classmethod
    def create(
        cls,
        M: np.ndarray,
        q: np.ndarray,
        lipschitz: float | None = None,
        gamma: float | None = None,
    ) -> "AffineOperator":
        M = np.array(M, dtype=float)
        q = np.array(q, dtype=float)
        _require_square(M)
        if q.shape != (M.shape[0],):
            raise DimensionMismatchError("q", f"expected shape ({M.shape[0]},), got {q.shape}")
        require_finite("M", M)
        require_finite("q", q)
        if lipschitz is None or gamma is None:
            lip, gam = matrix_constants(M)
            lipschitz = lip if lipschitz is None else lipschitz
            gamma = gam if gamma is None else gamma
        M.flags.writeable = False
        q.flags.writeable = False
        return cls(M=M, q=q, lipschitz=float(lipschitz), gamma=float(gamma))

    @property
    def dimension(self) -> int:
        return self.M.shape[0]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        if type(z) is not np.ndarray or z.dtype is not _FLOAT64:  # else asarray is a no-op
            z = np.asarray(z, dtype=float)
        if z.shape != self.q.shape:
            if z.ndim == 2 and z.shape[1:] == self.q.shape:
                return _times(self.M, z) + self.q  # each row as its point
            raise DimensionMismatchError(
                "z", f"expected shape {self.q.shape} or (k, {len(self.q)}), got {z.shape}")
        return self.M @ z + self.q

    @property
    def monotone(self) -> bool:
        return self.gamma >= -EIG_TOL


@dataclass(frozen=True)
class BilinearGameSpec:
    """min-max game ``x^T A y - b^T x - c^T y`` over a product box."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    x_box: tuple[np.ndarray, np.ndarray]
    y_box: tuple[np.ndarray, np.ndarray]

    @classmethod
    def create(cls, A, b, c, x_box, y_box) -> "BilinearGameSpec":
        A, b, c = _game_arrays(A, b, c)
        ell, m = A.shape
        xl, xu = (np.array(v, dtype=float) for v in x_box)
        yl, yu = (np.array(v, dtype=float) for v in y_box)
        if xl.shape != (ell,) or xu.shape != (ell,):
            raise DimensionMismatchError("x_box", f"expected bounds of shape ({ell},)")
        if yl.shape != (m,) or yu.shape != (m,):
            raise DimensionMismatchError("y_box", f"expected bounds of shape ({m},)")
        require_box_bounds(xl, xu, "x_box")
        require_box_bounds(yl, yu, "y_box")
        for arr in (A, b, c, xl, xu, yl, yu):
            arr.flags.writeable = False
        return cls(A=A, b=b, c=c, x_box=(xl, xu), y_box=(yl, yu))

    @property
    def x_dim(self) -> int:
        return self.A.shape[0]

    def payoff(self, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
        """``f(x, y)``; row-wise when ``x`` and ``y`` are stacks of points."""
        return point_or_rows(((x @ self.A) * y).sum(axis=-1) - x @ self.b - y @ self.c)


@dataclass(frozen=True)
class VIInstance:
    """Operator plus feasible set; the problem EG and PP act on."""

    operator: AffineOperator
    set: "FeasibleSet"
    dimension: int

    @classmethod
    def create(cls, operator: AffineOperator, feasible_set) -> "VIInstance":
        if operator.dimension != feasible_set.dimension:
            raise DimensionMismatchError(
                "set",
                f"operator dimension {operator.dimension} != set dimension {feasible_set.dimension}",
            )
        return cls(operator=operator, set=feasible_set, dimension=operator.dimension)


def _game_arrays(A, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``A``, ``b``, ``c`` of ``x^T A y - b^T x - c^T y`` as float arrays of matching shapes."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatchError("A", f"expected a matrix, got {A.shape}")
    ell, m = A.shape
    if b.shape != (ell,):
        raise DimensionMismatchError("b", f"expected shape ({ell},), got {b.shape}")
    if c.shape != (m,):
        raise DimensionMismatchError("c", f"expected shape ({m},), got {c.shape}")
    for name, arr in (("A", A), ("b", b), ("c", c)):
        require_finite(name, arr)
    return A, b, c


def _bilinear_operator(A, b, c) -> AffineOperator:
    """The skew block operator of the game ``x^T A y - b^T x - c^T y``.

    ``F(x, y) = (A y - b, -A^T x + c)``, i.e. ``M = [[0, A], [-A^T, 0]]`` and
    ``q = (-b, c)``.  The symmetric part of ``M`` vanishes, so ``gamma = 0``;
    ``sigma(M) = sigma(A)`` with doubled multiplicity, so ``L = sigma_max(A)``.
    """
    A, b, c = _game_arrays(A, b, c)
    ell, m = A.shape
    M = np.zeros((ell + m, ell + m))
    M[:ell, ell:] = A
    M[ell:, :ell] = -A.T
    lipschitz = _spectral_norm(A, np.random.default_rng(POWER_ITER_SEED))
    return AffineOperator.create(M, np.concatenate([-b, c]), lipschitz=lipschitz, gamma=0.0)


def make_bilinear(spec: BilinearGameSpec) -> VIInstance:
    """VI instance of a bilinear game: the skew block operator on the product box."""
    lo = np.concatenate([spec.x_box[0], spec.y_box[0]])
    hi = np.concatenate([spec.x_box[1], spec.y_box[1]])
    return VIInstance.create(_bilinear_operator(spec.A, spec.b, spec.c), Box(lo, hi))


# ---------------------------------------------------------------------------
# JSON instance schema
# ---------------------------------------------------------------------------


def instance_to_json(inst: VIInstance) -> dict:
    return {
        "operator": {
            "type": "affine",
            "M": inst.operator.M.tolist(),
            "q": inst.operator.q.tolist(),
        },
        "set": set_to_json(inst.set),
        "dimension": inst.dimension,
    }


def instance_from_json(data: dict) -> VIInstance:
    """The instance a JSON object describes; a ``ValueError`` names a missing or malformed field."""
    op_data = json_field(data, "operator", "instance")
    kind = json_field(op_data, "type", "operator")

    def floats(*names):
        return [json_floats(name, json_field(op_data, name, "operator")) for name in names]

    if kind == "affine":
        op = AffineOperator.create(*floats("M", "q"))
    elif kind == "bilinear":
        op = _bilinear_operator(*floats("A", "b", "c"))
    else:
        raise ValueError(f"unknown operator type {kind!r}")
    feasible = set_from_json(json_field(data, "set", "instance"))
    inst = VIInstance.create(op, feasible)
    if "dimension" in data and json_number("dimension", data["dimension"]) != inst.dimension:
        raise DimensionMismatchError("dimension", "declared dimension disagrees with operator")
    return inst


def load_instance(fp: TextIO | str) -> VIInstance:
    if isinstance(fp, str):
        with open(fp) as fh:
            return instance_from_json(json.load(fh))
    return instance_from_json(json.load(fp))


def save_instance(inst: VIInstance, fp: TextIO | str) -> None:
    text = _render_json(instance_to_json(inst))
    if isinstance(fp, str):
        with open(fp, "w") as fh:
            fh.write(text)
    else:
        fp.write(text)
