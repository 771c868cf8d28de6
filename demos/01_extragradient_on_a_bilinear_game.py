"""Run the extragradient method on a small constrained bilinear game.

Builds the saddle-point operator F(x, y) = (Ay - b, -A^T x + c) on a product
box, runs EG with a constant step size, and prints the measure series along
the trajectory.  The tangent residual decreases at every step; the natural
residual does not have to.
"""

import numpy as np

from egtan import BilinearGameSpec, SolverConfig, eg_run, make_bilinear

A = np.array([[1.0, 2.0], [1.0, 1.0]])
b = c = np.array([1.0, 1.0])
spec = BilinearGameSpec.create(
    A, b, c,
    x_box=(np.zeros(2), np.full(2, 10.0)),
    y_box=(np.zeros(2), np.full(2, 10.0)),
)
inst = make_bilinear(spec)
print(f"operator: 4x4 skew block matrix, L = {inst.operator.lipschitz:.6f}, "
      f"gamma = {inst.operator.gamma:.1e}")

eta = 0.3 / inst.operator.lipschitz
z0 = np.array([0.31, 0.48, 0.46, 0.58])
traj = eg_run(inst, SolverConfig(eta=eta, T=30), z0)

r_nat = traj.series("natural-residual")
r_tan = traj.series("tangent-residual")
print(f"\n{'k':>3} {'r_nat':>12} {'r_tan':>12}")
for k in range(len(traj)):
    print(f"{k:>3} {r_nat[k]:>12.3e} {r_tan[k]:>12.3e}")

drops = all(b <= a + 1e-12 for a, b in zip(r_tan, r_tan[1:]))
print(f"\ntangent residual non-increasing along the run: {drops}")
