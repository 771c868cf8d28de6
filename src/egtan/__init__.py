"""Extragradient and proximal-point methods for constrained monotone VIs.

The package is organized around four concerns:

* :mod:`egtan.instances` / :mod:`egtan.sets` -- affine operators, bilinear
  games, feasible sets, and the projection primitives.
* :mod:`egtan.measures` -- natural residual, tangent residual, gap function,
  bilinear duality gap.
* :mod:`egtan.solvers` -- EG and PP runs with trajectory recording and
  rate reports that check each convergence theorem step by step.
* :mod:`egtan.certificates` -- exact rational verification of the
  sum-of-squares identities behind the tangent-residual monotonicity proof.

``egtan.counterexamples`` reproduces the published instances on which the
classical measures fail to decrease, and :mod:`egtan.cli` exposes everything
as the ``egtan`` command.
"""

from .instances import (
    AffineOperator,
    BilinearGameSpec,
    VIInstance,
    make_bilinear,
    matrix_constants,
)
from .measures import (
    duality_gap_bilinear,
    gap,
    natural_residual,
    tangent_residual,
)
from .sets import (
    Ball,
    Box,
    FeasibleSet,
    HalfspaceIntersection,
    NonnegativeOrthant,
    WholeSpace,
)
from .solvers import (
    RateReport,
    SolverConfig,
    Trajectory,
    best_iterate_index,
    eg_run,
    eg_step,
    pp_run,
    pp_step,
    rate_report_eg,
    rate_report_pp,
    solve_reference,
)

__all__ = [
    "AffineOperator",
    "Ball",
    "BilinearGameSpec",
    "Box",
    "FeasibleSet",
    "HalfspaceIntersection",
    "NonnegativeOrthant",
    "RateReport",
    "SolverConfig",
    "Trajectory",
    "VIInstance",
    "WholeSpace",
    "best_iterate_index",
    "duality_gap_bilinear",
    "eg_run",
    "eg_step",
    "gap",
    "make_bilinear",
    "matrix_constants",
    "natural_residual",
    "pp_run",
    "pp_step",
    "rate_report_eg",
    "rate_report_pp",
    "solve_reference",
    "tangent_residual",
]

__version__ = "0.1.0"
