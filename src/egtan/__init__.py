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

The public names are imported on first use, so ``import egtan`` and
``egtan verify-certificates`` load no numpy.  numpy is still a dependency:
``solve``, ``rates`` and ``counterexample`` import it when they run.
"""

import importlib

# Each public name and the module that defines it, resolved on first use by
# the module __getattr__ (PEP 562).
_HOME = {
    **dict.fromkeys(
        ("AffineOperator", "BilinearGameSpec", "VIInstance", "make_bilinear", "matrix_constants"),
        "instances",
    ),
    **dict.fromkeys(("duality_gap_bilinear", "gap", "natural_residual", "tangent_residual"), "measures"),
    **dict.fromkeys(
        ("Ball", "Box", "FeasibleSet", "HalfspaceIntersection", "NonnegativeOrthant", "WholeSpace"),
        "sets",
    ),
    **dict.fromkeys(
        (
            "RateReport", "SolverConfig", "Trajectory", "best_iterate_index", "eg_run", "eg_step",
            "pp_run", "pp_step", "rate_report_eg", "rate_report_pp", "solve_reference",
        ),
        "solvers",
    ),
}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
