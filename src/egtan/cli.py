"""Command-line front end.

Subcommands::

    egtan solve               run EG/PP on an instance file, write trajectory,
                              measures, and a rate report
    egtan counterexample      reproduce a built-in non-monotonicity example
    egtan verify-certificates prove every algebraic identity by a zero test
    egtan rates               reference solution + run + rate report only,
                              with the checks it skipped

Exit codes: 0 success, 1 operational or usage error, 2 a check or slack failed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import counterexamples
from .render import _render_json

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


def _parse_z0(text: str, dimension: int) -> list[float]:
    try:
        parts = [float(x) for x in text.split(",")]  # an empty entry does not parse
    except ValueError:
        raise ValueError(f"--z0 must be comma-separated numbers, got {text!r}") from None
    if len(parts) != dimension:
        raise ValueError(f"--z0 has {len(parts)} entries, instance needs {dimension}")
    return parts


def _run_and_report(args, write) -> int:
    """Load, run, solve for a reference point, check the rates, then ``write``.

    ``write(traj, report)`` saves and prints what the command shows.  The
    step (``eta * L < 1``), ``--D`` and ``z0`` are checked before any step, so
    a bad one exits 1 at once.  The numeric modules load here, not with the
    command line, so ``--help`` and ``verify-certificates`` never import numpy.
    """
    import numpy as np

    from .instances import load_instance
    from .sets import require_positive
    from .solvers import (
        SolverConfig,
        _require_contraction,
        eg_run,
        pp_run,
        rate_report_eg,
        rate_report_pp,
        solve_reference,
    )

    try:
        inst = load_instance(args.instance)
        if not inst.operator.monotone:
            msg = (f"operator is not monotone (gamma = {inst.operator.gamma:.6g} < 0); "
                   "the convergence theorems do not apply")
            if args.strict:
                raise ValueError(msg)
            print(f"warning: {msg}", file=sys.stderr)
        config = SolverConfig(eta=args.eta, T=args.T)
        z0 = (
            np.array(_parse_z0(args.z0, inst.dimension))
            if args.z0
            else inst.set.project(np.zeros(inst.dimension))
        )
        _require_contraction(inst, config.eta, "the rate report")
        if args.D is not None:
            require_positive("D", args.D)
        traj = (eg_run if args.solver == "eg" else pp_run)(inst, config, z0)
        L = inst.operator.lipschitz
        z_star = solve_reference(inst, eta=min(args.eta, 0.5 / L) if L > 0 else args.eta)
        rate_report = rate_report_eg if args.solver == "eg" else rate_report_pp
        report = rate_report(traj, z_star, D=args.D)
        write(traj, report)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _write_rates(out: Path, report) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "rates.json", "w") as fh:
        fh.write(_render_json(report.to_json()))


def cmd_solve(args) -> int:
    def write(traj, report):
        from .measures import write_measures_csv
        from .solvers import write_trajectory_csv

        out = Path(args.out)
        _write_rates(out, report)
        with open(out / "trajectory.csv", "w", newline="") as fh:
            write_trajectory_csv(fh, traj)
        with open(out / "measures.csv", "w", newline="") as fh:
            write_measures_csv(fh, traj.measure_series(D=report.radius, known=report.series))
        print(f"wrote trajectory.csv, measures.csv, rates.json to {out}")
        print(f"worst theorem slack: {report.worst_slack:.3e} (tolerance {report.tolerance:.1e})")

    return _run_and_report(args, write)


def cmd_counterexample(args) -> int:
    report = counterexamples.reproduce(args.name)
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
    from . import certificates

    try:
        report = certificates.verification_report(seed=args.seed, mutate=args.mutate)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            with open(out / "certificates.json", "w") as fh:
                fh.write(_render_json(report))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    width = max(len(k) for k in report if k != "all_pass")
    for key, entry in report.items():
        if key == "all_pass":
            continue
        status = entry["status"]
        extra = ""
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
    def write(traj, report):
        if args.out:
            _write_rates(Path(args.out), report)
        for name, check in report.checks.items():
            print(f"{name:<34} worst slack {check.worst_slack:>12.3e}")
        for name, reason in report.skipped.items():
            print(f"{name:<34} skipped: {reason}")
        print(f"tolerance {report.tolerance:.1e}: {'all satisfied' if report.passed else 'VIOLATED'}")

    return _run_and_report(args, write)


@functools.cache  # parse_args starts each call from a fresh namespace
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
                       help="treat a non-monotone operator (gamma < 0) as an error instead "
                            "of a warning; eta*L >= 1 is always an error")

    p_solve = sub.add_parser("solve", help="run a solver and write outputs")
    add_run_flags(p_solve)
    p_solve.add_argument("--out", default="out", help="output directory")
    p_solve.set_defaults(func=cmd_solve)

    p_ce = sub.add_parser("counterexample", help="reproduce a published non-monotonicity example")
    p_ce.add_argument("name", choices=sorted(counterexamples.ALL))
    p_ce.set_defaults(func=cmd_counterexample)

    p_cert = sub.add_parser("verify-certificates", help="exact identity verification")
    p_cert.add_argument("--seed", type=int, default=0,
                        help="no effect: every identity is a symbolic zero test")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_ERROR if exc.code == 2 else exc.code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
