"""Show the classical progress measures failing to decrease under EG.

Each built-in counterexample is a tiny constrained bilinear game where one
standard measure (squared natural residual, squared half/full step distances,
duality gap) goes UP between consecutive extragradient iterates.  The tangent
residual, evaluated on the same runs, never does.
"""

from egtan import counterexamples

for name in ("natural-residual", "half-step-dist", "full-step-dist", "gap"):
    report = counterexamples.reproduce(name)
    label = f"{report['measure']}^2" if report["squared"] else report["measure"]
    arrows = " -> ".join(f"{v:.6g}" for v in report["series"])
    print(f"{name:>18}: {arrows}")
    print(f"{'':>18}  non-monotone: {report['non_monotone']}, "
          f"matches recorded values to {report['series_tolerance']:.0e}")

    r_tan = counterexamples.ALL[name].run(T=10).series("tangent-residual")
    monotone = all(b <= a + 1e-12 for a, b in zip(r_tan, r_tan[1:]))
    print(f"{'':>18}  tangent residual on the same run is monotone: {monotone}\n")

resolution = counterexamples.resolve_gap_domain()
print(f"gap domain resolution: {resolution.resolved_box} "
      f"(candidate deviations {resolution.deviations})")
