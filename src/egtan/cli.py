"""Command-line front end.

Subcommands::

    egtan solve               run EG/PP on an instance file, write trajectory,
                              measures, and a rate report
    egtan counterexample      reproduce a built-in non-monotonicity example
    egtan verify-certificates check every algebraic identity exactly
    egtan rates               reference solution + run + rate report only

Exit codes: 0 success, 1 operational error, 2 a check or theorem slack failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import certificates, counterexamples
from .instances import load_instance
from .solvers import (
    SolverConfig,
    StepSizeError,
    eg_run,
    pp_run,
    rate_report_eg,
    rate_report_pp,
    solve_reference,
    write_trajectory_csv,
)
from .measures import write_measures_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


def _parse_z0(text: str, dimension: int) -> np.ndarray:
    parts = [float(x) for x in text.split(",") if x.strip()]
    if len(parts) != dimension:
        raise ValueError(f"--z0 has {len(parts)} entries, instance needs {dimension}")
    return np.array(parts)


def _run_solver(args) -> tuple:
    inst = load_instance(args.instance)
    config = SolverConfig(eta=args.eta, T=args.T)
    z0 = (
        _parse_z0(args.z0, inst.dimension)
        if args.z0
        else inst.set.project(np.zeros(inst.dimension))
    )
    if args.solver == "eg":
        traj = eg_run(inst, config, z0, strict=args.strict)
    else:
        traj = pp_run(inst, config, z0)
    return inst, traj, z0


def _reference_eta(eta: float, lipschitz: float) -> float:
    return min(eta, 0.5 / lipschitz) if lipschitz > 0 else eta


def cmd_solve(args) -> int:
    try:
        inst, traj, z0 = _run_solver(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

        z_star = solve_reference(inst, eta=_reference_eta(args.eta, inst.operator.lipschitz))
        D = args.D if args.D else 2.0 * float(np.linalg.norm(z0 - z_star)) or 1.0
        if args.solver == "eg":
            report = rate_report_eg(traj, z_star, D=D)
        else:
            report = rate_report_pp(traj, z_star, D=D)

        with open(out / "trajectory.csv", "w", newline="") as fh:
            write_trajectory_csv(fh, traj)
        with open(out / "measures.csv", "w", newline="") as fh:
            write_measures_csv(fh, traj.measure_series(D=D))
        with open(out / "rates.json", "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
        print(f"wrote trajectory.csv, measures.csv, rates.json to {out}")
        print(f"worst theorem slack: {report.worst_slack:.3e} (tolerance {report.tolerance:.1e})")
        return EXIT_OK if report.passed else EXIT_CHECK_FAILED
    except (OSError, ValueError, KeyError, StepSizeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def cmd_counterexample(args) -> int:
    try:
        report = counterexamples.reproduce(args.name)
    except KeyError:
        print(f"error: unknown counterexample {args.name!r}", file=sys.stderr)
        return EXIT_ERROR
    label = f"{report['measure']}^2" if report["squared"] else report["measure"]
    print(f"counterexample: {args.name} (series: {label} per iterate)")
    if "resolved_domain" in report:
        lo, hi = report["resolved_domain"]
        print(f"resolved domain: [{lo:g},{hi:g}]^2 per player "
              f"(candidate deviations: {report['domain_deviations']})")
    print(f"{'k':>2}  {'computed':>24}  {'published':>24}  {'deviation':>12}")
    for k, (got, want, dev) in enumerate(
        zip(report["series"], report["expected_series"], report["series_deviation"])
    ):
        print(f"{k:>2}  {got:>24.17g}  {want:>24.17g}  {dev:>12.3e}")
    print(f"series tolerance: {report['series_tolerance']:.1e}  "
          f"match: {report['series_match']}  non-monotone: {report['non_monotone']}")
    print(f"trajectory match to {report['iterate_tolerance']:.1e}: {report['iterates_match']}")
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def cmd_verify_certificates(args) -> int:
    report = certificates.verification_report(seed=args.seed, mutate=args.mutate)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "certificates.json", "w") as fh:
            json.dump(report, fh, indent=2)
    width = max(len(k) for k in report if k != "all_pass")
    for key, entry in report.items():
        if key == "all_pass":
            continue
        status = entry["status"]
        extra = ""
        if "trials" in entry:
            extra = f" ({entry['trials']} random trials)"
        if "monomial_count_lhs" in entry:
            extra = (
                f" (lhs {entry['monomial_count_lhs']} monomials, "
                f"rhs {entry['monomial_count_rhs']}, degree {entry['max_degree']})"
            )
        if status != "pass" and entry.get("first_differing_monomial"):
            extra += f"  first differing monomial: {entry['first_differing_monomial']}"
        print(f"{key:<{width}}  {status:>4}{extra}")
    if args.report_table:
        rows = certificates.constrained_expansion_table("nonneg")
        print("\nper-monomial sums (both sides, over the cleared denominator):")
        for row in rows:
            marker = "" if row.equal else "  <-- MISMATCH"
            print(f"  {row.monomial:<24} lhs: {row.lhs:<40} rhs: {row.rhs}{marker}")
    return EXIT_OK if report["all_pass"] else EXIT_CHECK_FAILED


def cmd_rates(args) -> int:
    try:
        inst, traj, z0 = _run_solver(args)
        z_star = solve_reference(inst, eta=_reference_eta(args.eta, inst.operator.lipschitz))
        D = args.D if args.D else 2.0 * float(np.linalg.norm(z0 - z_star)) or 1.0
        if args.solver == "eg":
            report = rate_report_eg(traj, z_star, D=D)
        else:
            report = rate_report_pp(traj, z_star, D=D)
    except (OSError, ValueError, KeyError, StepSizeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "rates.json", "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
    for name, check in report.checks.items():
        print(f"{name:<34} worst slack {check.worst_slack:>12.3e}")
    print(f"tolerance {report.tolerance:.1e}: {'all satisfied' if report.passed else 'VIOLATED'}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="egtan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--instance", required=True, help="instance JSON path")
        p.add_argument("--solver", choices=("eg", "pp"), default="eg")
        p.add_argument("--eta", type=float, required=True, help="step size")
        p.add_argument("--T", type=int, required=True, help="iteration count")
        p.add_argument("--z0", default="", help="comma-separated starting point")
        p.add_argument("--D", type=float, default=None, help="gap radius (default 2||z0-z*||)")
        p.add_argument("--strict", action="store_true",
                       help="treat eta*L >= 1 as an error instead of a warning")

    p_solve = sub.add_parser("solve", help="run a solver and write outputs")
    add_run_flags(p_solve)
    p_solve.add_argument("--out", default="out", help="output directory")
    p_solve.set_defaults(func=cmd_solve)

    p_ce = sub.add_parser("counterexample", help="reproduce a published non-monotonicity example")
    p_ce.add_argument("name", choices=sorted(counterexamples.ALL))
    p_ce.set_defaults(func=cmd_counterexample)

    p_cert = sub.add_parser("verify-certificates", help="exact identity verification")
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--mutate", default=None,
                        help="drop one identity term (e.g. sos-5) to confirm the check bites")
    p_cert.add_argument("--report-table", action="store_true",
                        help="print per-monomial sums for both sides")
    p_cert.add_argument("--out", default=None, help="directory for certificates.json")
    p_cert.set_defaults(func=cmd_verify_certificates)

    p_rates = sub.add_parser("rates", help="rate report only")
    add_run_flags(p_rates)
    p_rates.add_argument("--out", default=None, help="directory for rates.json")
    p_rates.set_defaults(func=cmd_rates)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
