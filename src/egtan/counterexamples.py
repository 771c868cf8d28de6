"""Built-in bilinear games on which the classical measures fail to decrease.

Each record holds the published payoff matrix, offsets, step size, starting
point, the printed measure series, and the printed trajectory, embedded as
constants so reproduction never depends on external files.

Reproduction tolerances differ by series.  The starting points are published
to eight decimals; measures that are locally 1-Lipschitz in the start
reproduce to 1e-9, but the duality-gap series multiplies coordinate error by
the box width (10), so its faithful tolerance is a few 1e-8.  The companion
test suite shows that an O(1e-9) rounding of the start (exactly the published
print precision) accounts for the entire discrepancy.  The printed iterates
carry eight decimals too, and every record matches them to ``ITERATE_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the records load without numpy; only running a game needs it
    from .instances import BilinearGameSpec, VIInstance
    from .solvers import Trajectory

ITERATE_TOL = 1e-7  # largest coordinate deviation from a printed iterate


@dataclass(frozen=True)
class Counterexample:
    name: str
    measure: str
    A: tuple
    b: tuple
    c: tuple
    box: tuple[float, float]
    eta: float
    z0: tuple
    expected_series: tuple
    series_tolerance: float
    expected_iterates: dict[int, tuple]
    squared: bool
    notes: str = ""

    def spec(self) -> BilinearGameSpec:
        import numpy as np

        from .instances import BilinearGameSpec

        lo, hi = self.box
        ell = len(self.b)
        m = len(self.c)
        return BilinearGameSpec.create(
            np.array(self.A),
            np.array(self.b),
            np.array(self.c),
            (np.full(ell, lo), np.full(ell, hi)),
            (np.full(m, lo), np.full(m, hi)),
        )

    def instance(self) -> VIInstance:
        from .instances import make_bilinear

        return make_bilinear(self.spec())

    def run(self, T: int | None = None) -> Trajectory:
        import numpy as np

        from .solvers import SolverConfig, eg_run

        steps = T if T is not None else len(self.expected_series)
        return eg_run(self.instance(), SolverConfig(eta=self.eta, T=steps), np.array(self.z0))

    def measured_series(self, trajectory: Trajectory) -> list[float]:
        from .measures import duality_gap_bilinear

        n = len(self.expected_series)
        if self.measure == "gap":
            vals = duality_gap_bilinear(self.spec(), trajectory.iterates[:n])
        else:
            vals = trajectory.series(self.measure, ks=slice(n))
        return (vals**2 if self.squared else vals).tolist()


NATURAL_RESIDUAL = Counterexample(
    name="natural-residual",
    measure="natural-residual",
    A=((1.0, 2.0), (1.0, 1.0)),
    b=(1.0, 1.0),
    c=(1.0, 1.0),
    box=(0.0, 10.0),
    eta=0.1,
    z0=(0.3108455, 0.4825575, 0.4621875, 0.5768655),
    expected_series=(0.15170013184049996, 0.13617654362050116, 0.16125792556139756),
    series_tolerance=1e-9,
    expected_iterates={
        1: (0.24923465, 0.47967569, 0.43497808, 0.57458145),
        2: (0.19396855, 0.48164918, 0.40193211, 0.56061753),
    },
    squared=True,
)

HALF_STEP_DIST = Counterexample(
    name="half-step-dist",
    measure="half-step-dist",
    A=((0.50676631, 0.15042569), (0.46897595, 0.96748026)),
    b=(1.0, 1.0),
    c=(1.0, 1.0),
    box=(0.0, 10.0),
    eta=0.1,
    z0=(2.35037432, 0.00333996, 1.70547279, 0.71065999),
    expected_series=(0.00452784581555656, 0.004552329544896258, 0.004552306444552208),
    series_tolerance=1e-9,
    expected_iterates={
        1: (2.35324779, 0.0, 1.72472791, 0.64605901),
        2: (2.35612201, 0.0, 1.74412844, 0.5815012),
    },
    squared=True,
)

FULL_STEP_DIST = Counterexample(
    name="full-step-dist",
    measure="full-step-dist",
    A=((0.50676631, 0.15042569), (0.46897595, 0.96748026)),
    b=(1.0, 1.0),
    c=(1.0, 1.0),
    box=(0.0, 10.0),
    eta=0.1,
    z0=(2.37003485, 0.0, 1.84327237, 0.25934775),
    expected_series=(0.004552214685275266, 0.004552191904998012, 0.004570327450598002),
    series_tolerance=1e-9,
    expected_iterates={
        1: (2.37267186, 0.0, 1.86351397, 0.1950396),
        2: (2.37524308, 0.0, 1.88388624, 0.13077023),
        3: (2.37774149, 0.00426125, 1.90438549, 0.06653856),
    },
    squared=True,
)

# The gap series pins down the box scale: under [0,1]^2 per player the values
# come out exactly ten times smaller, so the domain is [0,10]^2 like the other
# instances (resolve_gap_domain checks both candidates).  The 3e-8 tolerance
# is the print-precision limit explained in the module docstring.
GAP = Counterexample(
    name="gap",
    measure="gap",
    A=((-0.21025101, 0.22360196), (0.40667685, -0.2922158)),
    b=(0.0, 0.0),
    c=(0.0, 0.0),
    box=(0.0, 10.0),
    eta=0.1,
    z0=(0.53095379, 0.29084076, 0.62132986, 0.49440498),
    expected_series=(0.6046398415472187, 0.58462873354003214, 0.5914026255469654),
    series_tolerance=3e-8,
    expected_iterates={
        1: (0.53290086, 0.28009156, 0.62151204, 0.4981395),
        2: (0.5347502, 0.26947398, 0.62122195, 0.50222691),
    },
    squared=False,
    notes="domain resolved to [0,10]^2; see resolve_gap_domain",
)

ALL = {
    ce.name: ce
    for ce in (NATURAL_RESIDUAL, HALF_STEP_DIST, FULL_STEP_DIST, GAP)
}


def is_non_monotone(series: list[float]) -> bool:
    """True when the series increases somewhere (so it is not non-increasing)."""
    return any(b > a for a, b in zip(series, series[1:]))


@dataclass(frozen=True)
class GapDomainResolution:
    resolved_box: tuple[float, float]
    deviations: dict[str, float]


def resolve_gap_domain() -> GapDomainResolution:
    """Decide which candidate box reproduces the published gap values.

    Runs the gap instance under both boxes mentioned in the source and keeps
    the one with the smaller worst deviation from the printed series.
    """
    deviations = {}
    best_box, best_dev = None, math.inf
    for box in ((0.0, 1.0), (0.0, 10.0)):
        ce = replace(GAP, box=box)
        series = ce.measured_series(ce.run())
        dev = max(abs(v - e) for v, e in zip(series, ce.expected_series))
        deviations[f"[{box[0]:g},{box[1]:g}]"] = dev
        if dev < best_dev:
            best_box, best_dev = box, dev
    return GapDomainResolution(resolved_box=best_box, deviations=deviations)


def reproduce(name: str) -> dict:
    """Run a built-in counterexample and compare against the published data.

    Returns a report with the computed and expected series, the per-value
    deviations, the trajectory deviations, and pass/fail flags.
    """
    import numpy as np

    ce = ALL[name]
    traj = ce.run()
    series = ce.measured_series(traj)
    series_dev = [abs(v - e) for v, e in zip(series, ce.expected_series)]
    iterate_dev = {
        k: float(np.max(np.abs(traj.iterates[k] - np.array(expected))))
        for k, expected in ce.expected_iterates.items()
    }
    report = {
        "name": name,
        "measure": ce.measure,
        "squared": ce.squared,
        "series": series,
        "expected_series": list(ce.expected_series),
        "series_deviation": series_dev,
        "series_tolerance": ce.series_tolerance,
        "series_match": max(series_dev) <= ce.series_tolerance,
        "iterate_deviation": iterate_dev,
        "iterate_tolerance": ITERATE_TOL,
        "iterates_match": max(iterate_dev.values()) <= ITERATE_TOL,
        "non_monotone": is_non_monotone(series),
        "notes": ce.notes,
    }
    if name == "gap":
        resolution = resolve_gap_domain()
        report["resolved_domain"] = list(resolution.resolved_box)
        report["domain_deviations"] = resolution.deviations
    report["ok"] = report["series_match"] and report["iterates_match"] and report["non_monotone"]
    return report
