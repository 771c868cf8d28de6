"""Extragradient and proximal-point iterations with theorem-checking reports.

Both solvers fill array trajectories: ``(T+1, n)`` iterates and cached
operator values, plus ``(T, n)`` half iterates for EG.  Every measure series
along a run (residuals, step distances, gap, distance to a solution) is
defined once, in :meth:`Trajectory.series`, as one array call: the point
measures and the set geometry take a ``(k, n)`` stack of iterates with their
cached operator values as they take a single point.  The rate reports
evaluate each convergence theorem as an array inequality over the step index
with an explicit signed slack.  A negative slack beyond :data:`REPORT_TOL`
means a theorem was violated numerically, which for a correct implementation
on a genuinely monotone instance should never happen.  A check the instance
cannot support (no gap oracle on the set, or no strong monotonicity) is listed
in ``RateReport.skipped`` with the reason.

An EG run goes in point steps until a face repeats, then in affine
segments.  A projection onto a box (the orthant and ``R^n`` too) or a
halfspace set is affine on each face: a clamp with a fixed pattern, or
``p -> Z Z^T p + P b_S`` on the rows ``S`` a halfspace projection holds.
Projection methods identify the active face in finitely many steps
(Calamai & Moré, *Math. Programming* 39, 1987; Burke & Moré, *SIAM J.
Numer. Anal.* 25, 1988), so while the faces of its half and full steps
hold, an EG step is one affine map.  :func:`_eg_blocks` takes plain steps
on the point until one lands on the faces of the step before it, then
predicts blocks of 8 iterates from the powers of that face's map, growing
×8, and checks each block in one stacked step, which :func:`eg_step` is
the one-row case of.  Each half iterate is ``eg_step`` of its iterate bit
for bit, and so is each iterate a point step makes; each iterate of a
block lies within ``_nnls_stop(n + 1, n) (1 + ||z||)`` of the full step
before it, on the face that step accepted: on a box exactly on every
bound it lands on.  The ball is the set that never gets a map: every step
is a point step, and a run equals its steps taken one by one, bit for
bit.

Proximal-point steps are exact and finite: each is one call of
:meth:`FeasibleSet.solve_affine_vi` (an active-set iteration on the faces of a
polyhedral set, with Lemke's method as its cold route; the secular equation
on the ball), and a run hands each step's active set, or the ball's
multiplier, to the next as a hint.
No projection is made.

Every tolerance and iteration budget is a module constant, read at call time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .instances import AffineOperator, DimensionMismatchError, VIInstance, instance_to_json
from .measures import _csv_text, gap, natural_residual, tangent_residual
from .sets import UnsupportedSetError, _nnls_stop, require_finite, require_positive, row_norm

REFERENCE_TOL = 1e-11  # natural residual a reference solution must reach
REFERENCE_MAX_ITER = 2_000_000  # EG iterations allowed to reach it
REPORT_TOL = 1e-8  # negative slack a rate check may show and still pass
REPORT_REFERENCE_TOL = 1e-10  # natural residual a rate report asks of z_star
SEGMENT_FIRST_STEPS = 8  # steps of the first EG block on a face a point step confirmed
SEGMENT_GROWTH = 8  # factor from an EG block that kept its face to the next
SEGMENT_MAX_STEPS = 512  # steps one EG block takes at most, so its memory stays flat


class StepSizeError(ValueError):
    """eta * L >= 1 where the theory (or the proximal step) requires less."""


class ReferenceSolveError(RuntimeError):
    """Reference-solution run exhausted its budget; carries the best residual."""

    def __init__(self, best_residual: float):
        super().__init__(f"reference solve stalled at natural residual {best_residual:.3e}")
        self.best_residual = best_residual


def _require_step_size(eta: float) -> None:
    require_positive("step size eta", eta)


def _require_point(inst: VIInstance, name: str, z) -> np.ndarray:
    """``z`` as a float array, or a ``ValueError`` naming ``name`` unless it is a finite point of R^n."""
    z = require_finite(name, z)
    if z.shape != (inst.dimension,):
        raise DimensionMismatchError(name, f"expected shape ({inst.dimension},), got {z.shape}")
    return z


def _require_contraction(inst: VIInstance, eta: float, needs: str) -> None:
    """Raise :class:`StepSizeError` unless ``eta * L < 1``; the message names what ``needs`` it."""
    eta_L = eta * inst.operator.lipschitz
    if not eta_L < 1.0:
        raise StepSizeError(f"{needs} needs eta * L < 1 (got eta * L = {eta_L:.6g})")


@dataclass(frozen=True)
class SolverConfig:
    eta: float
    T: int

    def __post_init__(self):
        _require_step_size(self.eta)
        if self.T < 0:
            raise ValueError("iteration count T must be nonnegative")


SERIES = (
    "natural-residual",
    "tangent-residual",
    "half-step-dist",
    "full-step-dist",
    "gap",
    "dist-to-solution",
)


@dataclass
class Trajectory:
    """Recorded run as arrays: ``iterates`` and ``operator_values`` are
    ``(T+1, n)``, ``half_iterates`` is ``(T, n)`` for EG and ``None`` for PP."""

    instance: VIInstance
    config: SolverConfig
    iterates: np.ndarray
    half_iterates: np.ndarray | None
    operator_values: np.ndarray

    def __len__(self) -> int:
        return len(self.iterates)

    def series(
        self,
        name: str,
        D: float | None = None,
        z_star: np.ndarray | None = None,
        ks: np.ndarray | slice = slice(None),
    ) -> np.ndarray:
        """The named measure along the run, taken at indices ``ks``.

        Point measures (residuals, ``gap`` with radius ``D``, ``dist-to-solution``
        to ``z_star``) have one value per iterate; the step distances have one
        per step, ``||z_k - z_{k+1/2}||`` and ``||z_k - z_{k+1}||``.  ``gap``
        raises :class:`UnsupportedSetError` on sets without a gap oracle.
        Each series is one call on the arrays.
        """
        inst, zs = self.instance, self.iterates
        if name == "natural-residual":
            return natural_residual(inst, zs[ks], self.operator_values[ks])
        if name == "tangent-residual":
            return tangent_residual(inst, zs[ks], self.operator_values[ks])
        if name == "gap":
            if D is None:
                raise ValueError("the gap series needs a radius D")
            return gap(inst, zs[ks], D, self.operator_values[ks])
        if name == "dist-to-solution":
            if z_star is None:
                raise ValueError("the distance series needs a solution z_star")
            return np.linalg.norm(zs[ks] - np.asarray(z_star, dtype=float), axis=1)
        if name == "half-step-dist":
            if self.half_iterates is None:
                raise ValueError("this trajectory has no half iterates")
            return np.linalg.norm(zs[:-1] - self.half_iterates, axis=1)[ks]
        if name == "full-step-dist":
            return np.linalg.norm(np.diff(zs, axis=0), axis=1)[ks]
        raise KeyError(f"unknown measure {name!r}; choose from {sorted(SERIES)}")

    def measure_series(
        self, D: float | None = None, known: dict[str, tuple[np.ndarray, np.ndarray]] | None = None
    ) -> dict[str, np.ndarray | None]:
        """Columns of ``measures.csv``; ``gap`` is ``None`` without ``D`` or a gap oracle.

        ``known`` maps a series name to ``(ks, values)`` already evaluated at the
        iterates ``ks``, as :attr:`RateReport.series` holds them for the run it
        checked at radius ``D``; only the other iterates are evaluated here.
        """
        known = known or {}

        def column(name: str, **kwargs) -> np.ndarray:
            ks, done = known.get(name, ([], []))
            values, rest = np.empty(len(self)), np.ones(len(self), dtype=bool)
            values[ks], rest[ks] = done, False
            if rest.any():
                values[rest] = self.series(name, ks=rest, **kwargs)
            return values

        gaps = None
        if D is not None:
            try:
                gaps = column("gap", D=D)
            except UnsupportedSetError:
                pass
        return {
            "r_nat": self.series("natural-residual"),
            "r_tan": column("tangent-residual"),
            "gap": gaps,
            "dist_half": None if self.half_iterates is None else self.series("half-step-dist"),
            "dist_full": self.series("full-step-dist"),
        }


def _rowwise(operator):
    """``operator`` as a function of a stack that answers each row as it answers that point.

    An :class:`AffineOperator` does so in one call.  Any other operator makes
    no such promise, so it is called once per row.  The one such operator in
    use is the benchmark's call-counting wrapper, ``TracedOperator`` in
    ``bench/tracing.py``.
    """
    if isinstance(operator, AffineOperator):
        return operator
    return lambda Z: np.array([operator(z) for z in Z])


def _eg_steps(operator, project, eta: float, z: np.ndarray, F_z: np.ndarray) -> tuple:
    """The EG step from a point, or from each row of a stack, given ``F_z = F(z)``.

    ``project`` returns a projection and what else the caller reads of it,
    the faces (:meth:`FeasibleSet._project_on_faces`) or ``None``.  Returns
    the half and full steps, then that second item of each.  Every array
    call answers row by row, so a stack's rows equal the per-point steps bit
    for bit.
    """
    z_half, half_face = project(z - eta * F_z)
    z_next, next_face = project(z - eta * operator(z_half))
    return z_half, z_next, half_face, next_face


def eg_step(inst: VIInstance, eta: float, z_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One extragradient update: half step with F(z_k), full step with F(z_half)."""
    _require_step_size(eta)
    z_k = _require_point(inst, "z_k", z_k)
    return _eg_steps(inst.operator, inst.set._project_on_faces, eta, z_k, inst.operator(z_k))[:2]


def _step_matrix(inst: VIInstance, eta: float, face: np.ndarray) -> np.ndarray:
    """The EG step on fixed faces, ``z -> A z + c``, as ``[[A^T, 0], [c^T, 1]]``.

    ``face`` is a row of the half step's faces followed by the full step's
    (:meth:`FeasibleSet._project_on_faces`); on them the projections are the
    maps ``p -> S p + t`` of :meth:`FeasibleSet._face_map`.  The matrix
    takes a row ``[z, 1]`` to ``[A z + c, 1]``.
    """
    n = inst.dimension
    M, q = inst.operator.M, inst.operator.q
    half = len(face) // 2
    S_half, t_half = inst.set._face_map(face[:half])
    S_next, t_next = inst.set._face_map(face[half:])
    A_half = S_half @ (np.eye(n) - eta * M)
    c_half = t_half - eta * (S_half @ q)
    step = np.zeros((n + 1, n + 1))
    step[:n, :n] = (S_next @ (np.eye(n) - eta * (M @ A_half))).T
    step[n, :n] = t_next - eta * (S_next @ (M @ c_half + q))
    step[n, n] = 1.0
    return step


def _predict(powers: list, z: np.ndarray, rows: int) -> np.ndarray:
    """``z`` and the iterates after it under the affine step ``powers[0]``: at most ``rows`` rows.

    Row ``j`` is ``[z, 1] step^j``.  Rows ``2^i`` to ``2^(i+1) - 1`` are the
    rows before them times ``powers[i] = step^(2^i)``: one product each.
    ``powers`` holds the squarings made so far, and one it lacks is
    appended, so a later call on the same step squares only past them.  A
    prediction can leave the run, and an expansive one overflow; the stack
    ends before its first row that is not finite.
    """
    n = len(z)
    out = np.empty((rows, n + 1))
    out[0, :n], out[0, n] = z, 1.0
    have, i = 1, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while have < rows:
            if i == len(powers):
                powers.append(powers[-1] @ powers[-1])
            new = min(have, rows - have)
            np.matmul(out[:new], powers[i], out=out[have:have + new])
            have, i = have + new, i + 1
    finite = np.isfinite(out).all(axis=1)
    return np.ascontiguousarray(out[: rows if finite.all() else max(1, int(finite.argmin())), :n])


def _eg_blocks(inst: VIInstance, eta: float, z: np.ndarray, steps: int):
    """EG from ``z`` for ``steps`` steps: point steps until a face repeats, then affine segments.

    Yields blocks ``(Z, F, halves, z_next)``: consecutive iterates ``Z``,
    ``F = F(Z)``, their half steps and the iterate after the last of them,
    where the next block starts.  A point step yields points, ``(n,)``
    arrays; a segment yields ``(m, n)`` stacks.

    Each projection hands back the face it accepted
    (:meth:`FeasibleSet._project_on_faces`), and while the faces of the half
    and full steps hold, a step is ``z -> A z + c`` (:func:`_step_matrix`).
    Without a map for the current face the run takes plain EG steps on the
    point.  Once a point step lands on the faces of the step before it, with
    steps left, that face's map is built, and blocks predict the next
    iterates from its powers (:func:`_predict`) and take the EG step from
    all rows in one stacked call: first :data:`SEGMENT_FIRST_STEPS` rows,
    then ``SEGMENT_GROWTH`` times the last block, up to
    :data:`SEGMENT_MAX_STEPS`.  A predicted iterate is kept while every
    step before it kept both faces and landed within
    ``_nnls_stop(n + 1, n) (1 + ||z||)`` of it.  The first row that fails
    took a true step, so its step ends the block, and point steps go on
    from there, as they do after a block whose last step left its face.  A
    block that ends on its own face hands the map and the powers squared
    from it to the next; at most ``log2(SEGMENT_MAX_STEPS) + 1`` matrices
    of size ``(n + 1)^2``.  The ball's faces are ``None``: it never gets a
    map, and every step is a point step.

    Each half step is the EG step of its iterate bit for bit, and so is
    each iterate a point step makes, which covers the first two iterates
    after every change of face.  Each iterate of a block is within that
    floor of the full step of the one before it, on the face that step
    accepted, since the prediction is that face's map; on a box it equals
    the step on every bound the step lands on.
    An operator other than :class:`AffineOperator` takes each stack row by
    row (:func:`_rowwise`).
    """
    operator, project = inst.operator, inst.set._project_on_faces
    stacked = _rowwise(operator)
    stop = _nnls_stop(inst.dimension + 1, inst.dimension)
    powers = face = None  # the powers of the map on face, the faces of the last step
    while steps > 0:
        if powers is None:  # a point step
            F = operator(z)
            half, z_next, half_face, next_face = _eg_steps(operator, project, eta, z, F)
            yield z, F, half, z_next
            z, steps = z_next, steps - 1
            if half_face is not None:
                last, face = face, np.concatenate((half_face, next_face))
                if steps and last is not None and (face == last).all():  # the face repeats
                    powers, rows = [_step_matrix(inst, eta, face)], SEGMENT_FIRST_STEPS
            continue
        Z = _predict(powers, z, min(rows, steps))
        F = stacked(Z)
        halves, nexts, *faces = _eg_steps(stacked, project, eta, Z, F)
        faces = np.concatenate(faces, axis=1)
        drift = row_norm(nexts[:-1] - Z[1:])
        held = (faces[:-1] == face).all(axis=1) & (drift <= stop * (1.0 + row_norm(Z[1:])))
        m = len(held) if held.all() else int(held.argmin())  # the step of row m ends the block
        yield Z[: m + 1], F[: m + 1], halves[: m + 1], nexts[m]
        z, steps, rows = nexts[m], steps - m - 1, min(SEGMENT_GROWTH * len(Z), SEGMENT_MAX_STEPS)
        if m < len(held) or (faces[m] != face).any():
            powers, face = None, faces[m]  # point steps until a face repeats


def _start(inst: VIInstance, config: SolverConfig, z0: np.ndarray, halves: bool) -> Trajectory:
    """A trajectory holding only ``z0``, with rows allocated for ``config.T`` steps."""
    z = inst.set._require_feasible(_require_point(inst, "z0", z0), "z0")
    F_z = inst.operator(z)
    T, n = config.T, inst.dimension
    traj = Trajectory(
        instance=inst,
        config=config,
        iterates=np.empty((T + 1, n)),
        half_iterates=np.empty((T, n)) if halves else None,
        operator_values=np.empty((T + 1, n)),
    )
    traj.iterates[0] = z
    traj.operator_values[0] = F_z
    return traj


def eg_run(inst: VIInstance, config: SolverConfig, z0: np.ndarray) -> Trajectory:
    """Run EG for ``config.T`` steps from a feasible start; fully deterministic.

    The steps are taken by :func:`_eg_blocks`: point steps until a face
    repeats, then blocks of 8 steps on that face, growing ×8; the ball takes
    every step on the point.
    Warns when ``eta * L >= 1``, where the convergence theorems do not apply.
    """
    eta_L = config.eta * inst.operator.lipschitz
    if eta_L >= 1.0:
        msg = f"eta * L = {eta_L:.6g} >= 1; the convergence theorems do not apply"
        warnings.warn(msg, stacklevel=2)
    traj = _start(inst, config, z0, halves=True)
    zs, halfs, Fs = traj.iterates, traj.half_iterates, traj.operator_values
    k, z = 0, zs[0]
    for Z, F, halves, z in _eg_blocks(inst, config.eta, z, config.T):
        m = Z.size // inst.dimension  # a point fills one row
        zs[k:k + m], Fs[k:k + m], halfs[k:k + m] = Z, F, halves
        k += m
    zs[k], Fs[k] = z, inst.operator(z)
    return traj


def _prox_matrix(inst: VIInstance, eta: float) -> np.ndarray:
    """``H = I + eta M`` of the proximal subproblem, once ``eta * L < 1`` is checked.

    ``x^T H x >= (1 - eta L) ||x||^2`` for any ``M`` with ``||M|| = L``, monotone
    or not, so ``eta * L < 1`` makes ``H`` positive definite and the prox point
    unique.
    """
    _require_step_size(eta)
    _require_contraction(inst, eta, "the proximal-point step")
    return np.eye(inst.dimension) + eta * inst.operator.M


def pp_step(inst: VIInstance, eta: float, z_k: np.ndarray) -> np.ndarray:
    """One exact proximal-point update: the ``z+`` with ``z+ = proj(z_k - eta F(z+))``.

    That is the affine VI of ``w -> H w + g`` with ``H = I + eta M`` and
    ``g = eta q - z_k``, which :meth:`FeasibleSet.solve_affine_vi` solves in
    finitely many steps, with no projection (an active-set iteration with
    Lemke's method as its cold route, or the ball's secular equation).  Needs
    ``eta * L < 1`` (see :func:`_prox_matrix`).
    """
    H = _prox_matrix(inst, eta)
    return inst.set.solve_affine_vi(H, eta * inst.operator.q - _require_point(inst, "z_k", z_k))[0]


def pp_run(inst: VIInstance, config: SolverConfig, z0: np.ndarray) -> Trajectory:
    """Run PP for ``config.T`` steps; trajectories carry no half iterates.

    Each step hands its active rows (or the ball's multiplier) to the next
    as a hint.  A hint changes only how the step is found: on a polyhedral
    set the run equals successive :func:`pp_step` calls bit for bit, and on
    the ball it agrees with them to rounding.
    """
    traj = _start(inst, config, z0, halves=False)
    zs, Fs, eta = traj.iterates, traj.operator_values, config.eta
    if config.T:
        H = _prox_matrix(inst, eta)
    hint = None
    for k in range(config.T):
        zs[k + 1], hint = inst.set.solve_affine_vi(H, eta * inst.operator.q - zs[k], hint)
        Fs[k + 1] = inst.operator(zs[k + 1])
    return traj


def solve_reference(inst: VIInstance, eta: float, z0: np.ndarray | None = None) -> np.ndarray:
    """High-accuracy solution by running EG until the natural residual is tiny.

    Returns the first EG iterate ``z`` with ``||z - proj(z - F z)|| <= tol``,
    ``tol`` = :data:`REFERENCE_TOL`.  That check costs a third projection, so
    it runs only once the half step is short: by the projection-arc lemma
    (Gafni & Bertsekas 1984; Calamai & Moré, *Math. Programming* 39, 1987,
    Lemma 2.2) ``||z - proj(z - tF z)||`` is nondecreasing in ``t`` and its
    quotient by ``t`` nonincreasing, so
    ``r_nat(z) >= min(1, 1/eta) * ||z - z_half||``.  While that bound exceeds
    ``2 * tol`` (the factor absorbs rounding) the check could not pass.  The
    same lemma gives ``r_nat(z) <= max(1, 1/eta) * ||z - z_half||``, so a
    block's rows past the first that bound puts below ``tol / 2`` cannot be
    the first to pass, and the check skips them.  The run takes its steps as
    :func:`eg_run` does, point steps until a face repeats and then affine
    segments on a box or a halfspace set (Calamai & Moré 1987; Burke & Moré,
    *SIAM J. Numer. Anal.* 25, 1988), and the gate and the check run on each
    block at once.  A run that exhausts its :data:`REFERENCE_MAX_ITER` EG steps raises
    :class:`ReferenceSolveError` with the smallest residual it evaluated, at
    the last iterate if the check never ran.
    """
    _require_step_size(eta)
    _require_contraction(inst, eta, "the reference solve")
    z = inst.set.project(np.zeros(inst.dimension)) if z0 is None else _require_point(inst, "z0", z0)
    tol = REFERENCE_TOL
    gate = 2.0 * tol * max(1.0, eta)  # 2 tol / min(1, 1/eta)
    best = math.inf
    for Z, F, halves, z in _eg_blocks(inst, eta, z, REFERENCE_MAX_ITER):
        half_step = row_norm(Z - halves)
        near = half_step <= gate
        if near.any() if near.ndim else near:  # a step on points gives one bool
            if near.ndim:  # the rows up to the first whose residual is surely below tol / 2
                sure = max(1.0, 1.0 / eta) * half_step <= 0.5 * tol
                Z = Z[: int(sure.argmax()) + 1 if sure.any() else len(Z)]
                F, near = F[: len(Z)], near[: len(Z)]
            residual = np.where(near, natural_residual(inst, Z, F), math.inf)
            best = min(best, float(residual.min()))
            if best <= tol:
                return Z.reshape(-1, inst.dimension)[np.argmax(residual <= tol)]
    if best == math.inf:
        best = natural_residual(inst, z)
    raise ReferenceSolveError(best)


# ---------------------------------------------------------------------------
# Rate reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateCheck:
    """Per-step record of one theorem: bound minus actual, signed."""

    name: str
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def worst_slack(self) -> float:
        return float(self.slack.min()) if self.slack.size else math.inf


@dataclass(frozen=True)
class RateReport:
    """Theorem checks by name; ``skipped`` maps each check left out to the reason.

    ``series`` keeps the measure series the checks read, by :data:`SERIES` name,
    as ``(ks, values)`` at the iterates ``ks``: the tangent residual at every
    iterate and, unless skipped, the gap at the checked steps.  ``radius`` is
    the gap radius D the checks used.  Neither is part of :meth:`to_json`.
    """

    checks: dict[str, RateCheck]
    radius: float
    skipped: dict[str, str] = field(default_factory=dict)
    series: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def tolerance(self) -> float:
        """The negative slack a check may show and still pass: :data:`REPORT_TOL`."""
        return REPORT_TOL

    @property
    def worst_slack(self) -> float:
        return min((c.worst_slack for c in self.checks.values()), default=math.inf)

    @property
    def passed(self) -> bool:
        return self.worst_slack >= -self.tolerance

    def to_json(self) -> dict:
        return {
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "worst_slack": None if math.isinf(self.worst_slack) else float(self.worst_slack),
            "checks": {
                name: {
                    "lhs": c.lhs.tolist(),
                    "rhs": c.rhs.tolist(),
                    "worst_slack": None if math.isinf(c.worst_slack) else float(c.worst_slack),
                }
                for name, c in self.checks.items()
            },
            "skipped": dict(self.skipped),
        }


def _distances_and_radius(
    trajectory: Trajectory, z_star: np.ndarray, D: float | None
) -> tuple[np.ndarray, float]:
    """Validate a rate-report request; distances to ``z_star`` and the gap radius.

    The radius defaults to ``2 ||z_0 - z_star||``, or 1 when the run starts
    at ``z_star``.
    """
    inst = trajectory.instance
    _require_contraction(inst, trajectory.config.eta, "a rate report")
    z_star = _require_point(inst, "z_star", z_star)
    residual = natural_residual(inst, z_star)
    if residual > REPORT_REFERENCE_TOL:
        raise ValueError(
            f"z_star is not accurate enough for rate checks: natural residual "
            f"{residual:.3e} > {REPORT_REFERENCE_TOL:.1e}"
        )
    dist = trajectory.series("dist-to-solution", z_star=z_star)
    if D is None:  # the 1-D norm: the row-wise dist[0] may differ in the last bit
        D = 2.0 * float(np.linalg.norm(trajectory.iterates[0] - z_star))
        D = D or 1.0
    return dist, require_positive("D", D)


def _gap_at_steps(
    trajectory: Trajectory, D: float, gap_stride: int, checks: tuple[str, ...], skipped: dict
) -> tuple[np.ndarray, np.ndarray] | None:
    """Indices ``k = 1, 1 + stride, ...`` and the gap at each ``z_k``.

    Returns ``None`` when the run has no step or the set has no gap oracle,
    after recording the reason for each of ``checks`` in ``skipped``.
    """
    ks = np.arange(1, len(trajectory.iterates), max(1, gap_stride))
    if not ks.size:
        reason = "the run has no steps"
    else:
        try:
            return ks, trajectory.series("gap", D=D, ks=ks)
        except UnsupportedSetError as exc:
            reason = str(exc)
    skipped.update(dict.fromkeys(checks, reason))
    return None


def rate_report_eg(
    trajectory: Trajectory, z_star: np.ndarray, D: float | None = None, gap_stride: int = 1
) -> RateReport:
    """Check every EG rate theorem along a recorded run.

    Verifies, per step: the best-iterate descent inequality, the projection
    contraction between half and full steps, the distance-to-tangent-residual
    bound, tangent-residual monotonicity, the last-iterate gap rate, and (when
    the operator is strongly monotone) the linear rate and the gap-to-distance
    bound.  Requires half iterates and a reference solution with natural
    residual at most :data:`REPORT_REFERENCE_TOL`.  Gap checks the set or
    operator cannot support are listed in ``skipped``.
    """
    if trajectory.half_iterates is None:
        raise ValueError("rate_report_eg needs a trajectory recorded with half iterates")
    dist, D = _distances_and_radius(trajectory, z_star, D)
    eta = trajectory.config.eta
    gamma = trajectory.instance.operator.gamma
    etaL = eta * trajectory.instance.operator.lipschitz
    half_dist = trajectory.series("half-step-dist")
    r_tan = trajectory.series("tangent-residual")
    half_to_next = np.linalg.norm(trajectory.half_iterates - trajectory.iterates[1:], axis=1)

    checks = [
        RateCheck(
            "best_iterate_descent",
            dist[1:] ** 2 + (1.0 - etaL**2) * half_dist**2,
            dist[:-1] ** 2,
        ),
        RateCheck("projection_contraction", half_to_next, etaL * half_dist),
        RateCheck("residual_from_half_step", r_tan[1:], (1.0 + etaL + etaL**2) * half_dist / eta),
        RateCheck("tangent_residual_monotone", r_tan[1:], r_tan[:-1]),
    ]
    skipped: dict[str, str] = {}
    series = {"tangent-residual": (np.arange(len(r_tan)), r_tan)}
    strong = ("strongly_monotone_linear_rate", "gap_bounds_distance")
    gaps = _gap_at_steps(trajectory, D, gap_stride, ("last_iterate_gap_rate", *strong), skipped)
    if gaps is not None:
        series["gap"] = gaps
        ks, g = gaps
        rate_constant = 3.0 * D * dist[0] / (eta * math.sqrt(1.0 - etaL**2))
        checks.append(RateCheck("last_iterate_gap_rate", g, rate_constant / np.sqrt(ks)))
        if gamma > 0:
            decay = 1.0 + 2.0 * eta * gamma * (1.0 - etaL) ** 2
            checks += [
                RateCheck(
                    "strongly_monotone_linear_rate", g, decay ** (-(ks - 1) / 2.0) * rate_constant
                ),
                RateCheck("gap_bounds_distance", dist[ks] ** 2, g / gamma),
            ]
        else:
            reason = f"operator is not strongly monotone (gamma = {gamma:.3g} <= 0)"
            skipped.update(dict.fromkeys(strong, reason))
    return RateReport({c.name: c for c in checks}, D, skipped, series)


def rate_report_pp(
    trajectory: Trajectory, z_star: np.ndarray, D: float | None = None, gap_stride: int = 1
) -> RateReport:
    """Check the proximal-point theorems along a recorded run.

    Per step: the descent inequality, monotone consecutive distances, the
    ``1/sqrt(k)`` distance drop, the ``1/k`` squared-residual drop, and the
    gap rate.  The theorems assume exact proximal steps, which
    :func:`pp_step` takes to rounding (``FeasibleSet.solve_affine_vi``), so
    the tolerance is :data:`REPORT_TOL`, as for EG.
    """
    dist, D = _distances_and_radius(trajectory, z_star, D)
    eta = trajectory.config.eta
    k = np.arange(1, len(trajectory.iterates))
    steps = trajectory.series("full-step-dist")
    r_tan = trajectory.series("tangent-residual")

    checks = [
        RateCheck("best_iterate_descent", dist[1:] ** 2 + steps**2, dist[:-1] ** 2),
        RateCheck("step_monotone", steps[1:], steps[:-1]),
        RateCheck("step_drop_rate", steps, dist[0] / np.sqrt(k)),
        RateCheck("residual_drop_rate", r_tan[1:] ** 2, dist[0] ** 2 / (eta**2 * k)),
    ]
    skipped: dict[str, str] = {}
    series = {"tangent-residual": (np.arange(len(r_tan)), r_tan)}
    gaps = _gap_at_steps(trajectory, D, gap_stride, ("gap_rate",), skipped)
    if gaps is not None:
        series["gap"] = gaps
        ks, g = gaps
        checks.append(RateCheck("gap_rate", g, D * dist[0] / (eta * np.sqrt(ks))))
    return RateReport({c.name: c for c in checks}, D, skipped, series)


def best_iterate_index(trajectory: Trajectory, measure_name: str) -> int:
    """Index of the smallest value of the named measure series (ties: first)."""
    series = trajectory.series(measure_name)
    if not series.size:
        raise ValueError("trajectory has no values for this measure")
    return int(np.argmin(series))


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------


def write_trajectory_csv(fp: TextIO, trajectory: Trajectory) -> None:
    """The run as CSV: a header ``k,z0,...`` (then ``zhalf0,...`` for EG), one row per iterate.

    Row ``k`` holds ``k``, the iterate and, for EG, the half iterate, each
    value as ``%.17g``.  The last EG row has no half step, so it ends in
    ``n`` blank ``zhalf`` cells.  Rows end in CRLF, as Python's ``csv`` module
    writes them.  The file is written with one ``fp.write``.
    """
    n = trajectory.instance.dimension
    halfs = trajectory.half_iterates
    header = ["k"] + [f"z{i}" for i in range(n)]
    columns = trajectory.iterates.T.tolist()
    if halfs is not None:
        header += [f"zhalf{i}" for i in range(n)]
        columns += halfs.T.tolist()
    fp.write(_csv_text(header, columns, len(trajectory)))


def trajectory_to_json(trajectory: Trajectory) -> dict:
    return {
        "instance": instance_to_json(trajectory.instance),
        "config": {
            "eta": trajectory.config.eta,
            "T": trajectory.config.T,
        },
        "iterates": trajectory.iterates.tolist(),
        "half_iterates": None
        if trajectory.half_iterates is None
        else trajectory.half_iterates.tolist(),
    }
