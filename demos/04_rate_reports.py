"""Check every convergence bound live along an actual run.

A rate report evaluates each inequality (descent, contraction, residual
monotonicity, gap rates, and the linear rate when the operator is strongly
monotone) at every step of a recorded trajectory and reports the worst signed
slack: negative slack beyond tolerance would mean a bound was violated.
"""

import numpy as np

from egtan.instances import AffineOperator, VIInstance
from egtan.sets import NonnegativeOrthant
from egtan.solvers import (
    SolverConfig,
    eg_run,
    pp_run,
    rate_report_eg,
    rate_report_pp,
    solve_reference,
)

rng = np.random.default_rng(5)
n = 5
raw = rng.standard_normal((n, n))
M = (raw - raw.T) + 0.4 * np.eye(n)  # skew plus a strongly monotone part
op = AffineOperator.create(M, rng.standard_normal(n))
inst = VIInstance.create(op, NonnegativeOrthant(n))
print(f"instance: n = {n}, L = {op.lipschitz:.4f}, gamma = {op.gamma:.4f}")

eta = 0.5 / op.lipschitz
z0 = rng.uniform(0.0, 2.0, n)
z_star = solve_reference(inst, eta=eta)
print(f"reference solution found, distance to start {np.linalg.norm(z0 - z_star):.4f}")

traj = eg_run(inst, SolverConfig(eta=eta, T=150), z0)
report = rate_report_eg(traj, z_star, gap_stride=5)
print("\nextragradient bounds:")
for name, check in report.checks.items():
    print(f"  {name:<34} worst slack {check.worst_slack:>12.3e}")
for name, reason in report.skipped.items():
    print(f"  {name:<34} skipped: {reason}")
print(f"  all satisfied at tolerance {report.tolerance:.0e}: {report.passed}")

traj = pp_run(inst, SolverConfig(eta=eta, T=60), z0)
report = rate_report_pp(traj, z_star, gap_stride=5)
print("\nproximal-point bounds:")
for name, check in report.checks.items():
    print(f"  {name:<34} worst slack {check.worst_slack:>12.3e}")
for name, reason in report.skipped.items():
    print(f"  {name:<34} skipped: {reason}")
print(f"  all satisfied at tolerance {report.tolerance:.0e}: {report.passed}")
