"""The three benchmark workloads and the fingerprints the drift guard compares.

Each workload is a closed loop with one client: item ``i`` runs only after
item ``i - 1`` has returned, in this process, with no extra threads.

* ``eg-suite``  -- the batch experimenter on the Python API: random monotone
  affine VIs on boxes and orthants (n = 2..8), reference solve, 1000 EG
  steps, rate report with gap checkpoints.  Time here is per-call overhead in
  ``solvers``, ``measures`` and the Box geometry.
* ``cli-mixed`` -- the single-instance CLI user: ``egtan solve`` on JSON
  files over box, orthant, ball and halfspace sets, alternating EG and PP.
  Pays instance loading, PP Picard loops, halfspace enumeration, file output.
* ``verify``    -- the paper-reproduction user: ``verify-certificates`` over
  seeds, every 14-term mutation, and the four counterexamples.  Nearly all
  time is exact ``Fraction`` arithmetic.

Every workload has two paths for an item: :meth:`run` is what the user runs
(``cli.main`` for the CLI workloads) and :meth:`replay` performs the same
steps through the public functions so the traced run can put a span around
each one.  Both return the item's fingerprint: a flat ``{"kind:name": value}``
dict whose ``kind`` picks the drift tolerance in :data:`TOLERANCES`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from egtan import certificates, counterexamples
from egtan.cli import main as cli_main
from egtan.exactpoly import SparsePoly
from egtan.instances import AffineOperator, VIInstance, load_instance
from egtan.measures import gap, natural_residual, tangent_residual, write_measures_csv
from egtan.sets import Box, NonnegativeOrthant
from egtan.solvers import (
    SolverConfig,
    eg_run,
    pp_run,
    rate_report_eg,
    rate_report_pp,
    solve_reference,
    write_trajectory_csv,
)
from tracing import NULL

# Seed of the fixed items whose outputs at the recording commit sit in
# golden.json; every run re-runs them and compares.
GOLDEN_SEED = 20220419

# The pinned output tolerances: theorem slacks 1e-8, series 1e-9 (3e-8 for
# the counterexample gap series), exact equality for identities and counts.
TOLERANCES = {"slack": 1e-8, "residual": 1e-9, "series": 1e-9, "gap-series": 3e-8, "exact": 0.0}


class ItemFailure(Exception):
    """An item ran but its output is wrong or has drifted."""


def drift(got: dict, want: dict) -> list[str]:
    """Fields of a fingerprint that differ from the record beyond tolerance."""
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"{key}: present in only one of run and record")
            continue
        g, w = got[key], want[key]
        tol = TOLERANCES[key.split(":", 1)[0]]
        if isinstance(w, float) and isinstance(g, float) and tol > 0:
            same = abs(g - w) <= tol
        else:
            same = g == w
        if not same:
            problems.append(f"{key}: {g!r} != recorded {w!r} (tolerance {tol:g})")
    return problems


def _slacks(worst: dict) -> dict:
    return {f"slack:{name}": value for name, value in worst.items()}


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        yield buf


@dataclass
class Inputs:
    """What set-up builds: the item specs, cycled, and the expected fingerprints."""

    items: list
    expected: list | None = None

    def spec(self, i: int):
        return self.items[i % len(self.items)]

    def want(self, i: int) -> dict | None:
        return None if self.expected is None else self.expected[i % len(self.expected)]


def _create_operator(tracer, M, q) -> AffineOperator:
    with tracer.span("instances.AffineOperator.create"):
        return AffineOperator.create(M, q)


# ---------------------------------------------------------------------------
# eg-suite
# ---------------------------------------------------------------------------


class EgSuite:
    name = "eg-suite"
    T = 1000
    GAP_STRIDE = 10
    # Most orthant items cost 170-430 ms (the gap is bisected at every
    # checkpoint), box items 50-180 ms.  Items run orthant, orthant, orthant,
    # box, ...: with the generator's 1:1 mix the median fell in the sparse
    # band between the two and moved by 20% from seed to seed; at 2:1 it sat
    # near the cheap end of the orthant band and still moved by 12%.  A run
    # uses about 120-180 of the pool.
    ORDER = ("orthant", "orthant", "orthant", "box")
    POOL = 240
    GOLDEN_ITEMS = 6
    TRACE_ITEMS_PER_S = 1.6

    @staticmethod
    def suite_instance(rng, tracer):
        """The acceptance-suite generator (tests/test_acceptance.py), draw for draw."""
        n = int(rng.integers(2, 9))
        raw = rng.standard_normal((n, n))
        G = rng.standard_normal((n, n)) / np.sqrt(n)
        M = raw - raw.T + float(rng.uniform(0.02, 0.12)) * (G.T @ G) + 0.02 * np.eye(n)
        op = _create_operator(tracer, M, rng.standard_normal(n))
        if rng.random() < 0.5:
            feasible = NonnegativeOrthant(n)
            z0 = rng.uniform(0.0, 1.5, n)
        else:
            lo = rng.uniform(-1.0, 0.0, n)
            feasible = Box(lo, lo + rng.uniform(0.5, 2.5, n))
            z0 = rng.uniform(feasible.l, feasible.u)
        return VIInstance.create(op, feasible), z0

    def build(self, seed: int, workdir: Path, tracer, golden: dict) -> Inputs:
        """Generator draws, in order, placed into the ``ORDER`` slots of their set kind."""
        rng = np.random.default_rng(seed)
        wanted = {kind: self.ORDER.count(kind) * self.POOL // len(self.ORDER) for kind in self.ORDER}
        drawn = {kind: [] for kind in self.ORDER}
        while any(len(drawn[k]) < wanted[k] for k in drawn):
            inst, z0 = self.suite_instance(rng, tracer)
            kind = "orthant" if isinstance(inst.set, NonnegativeOrthant) else "box"
            if len(drawn[kind]) < wanted[kind]:
                drawn[kind].append((inst, z0))
        slots = {kind: iter(items) for kind, items in drawn.items()}
        return Inputs([next(slots[kind]) for _ in range(self.POOL // len(self.ORDER))
                       for kind in self.ORDER])

    def golden_specs(self, workdir: Path) -> list:
        rng = np.random.default_rng(GOLDEN_SEED)
        return [(str(k), self.suite_instance(rng, NULL)) for k in range(self.GOLDEN_ITEMS)]

    def run(self, spec) -> dict:
        return self.replay(spec, NULL)

    def replay(self, spec, tracer) -> dict:
        inst0, z0 = spec
        inst = tracer.instrument(inst0)
        L = inst.operator.lipschitz
        eta = 0.9 / L
        with tracer.span("solvers.solve_reference"):
            z_star = solve_reference(inst, eta=0.5 / L)
        with tracer.span("measures.natural_residual"):
            r_nat = natural_residual(inst, z_star)
        with tracer.span("solvers.eg_run") as s:
            traj = eg_run(inst, SolverConfig(eta=eta, T=self.T), z0)
            s.attrs["solvers.eg_run.steps"] = len(traj.iterates) - 1
        dist0 = float(np.linalg.norm(z0 - z_star))
        D = 2.0 * dist0 if dist0 > 0 else 1.0
        with tracer.span("solvers.rate_report_eg") as s:
            report = rate_report_eg(traj, z_star, D=D, gap_stride=self.GAP_STRIDE)
            s.attrs["solvers.rate_report.skipped_checks"] = _skipped(report, inst, "eg")
        z_T = traj.iterates[-1]
        with tracer.span("measures.tangent_residual"):
            r_tan = tangent_residual(inst, z_T)
        with tracer.span("measures.gap"):
            g = gap(inst, z_T, D)
        bound = 3.0 * D * dist0 / (eta * math.sqrt(1.0 - (eta * L) ** 2))
        if not report.passed:
            raise ItemFailure(f"rate report failed, worst slack {report.worst_slack:.3e}")
        if r_nat > 1e-10:
            raise ItemFailure(f"reference solution natural residual {r_nat:.3e}")
        if g * math.sqrt(self.T) > bound + 1e-6:
            raise ItemFailure(f"last-iterate gap {g:.3e} above the 1/sqrt(T) bound")
        return {
            **_slacks({name: c.worst_slack for name, c in report.checks.items()}),
            "residual:reference_natural": r_nat,
            "residual:final_tangent": r_tan,
        }


def _skipped(report, inst, solver: str) -> int:
    """Theorem checks the report dropped (the gap checks on ball/halfspace sets)."""
    expected = 5 + (2 if solver == "eg" and inst.operator.gamma > 0 else 0)
    return expected - len(report.checks)


# ---------------------------------------------------------------------------
# cli-mixed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveSpec:
    path: str
    solver: str
    eta: float
    z0: str
    out: str


class CliMixed:
    name = "cli-mixed"
    T = 100
    # A round is the CLASSES in a seeded order plus one halfspace item.
    # Item costs fall in bands: box and ball solves take 15-60 ms, most
    # orthant solves 0.25-0.5 s (the gap is bisected at every iterate), and
    # halfspace solves grow with 2^rows, from 0.15 s (EG, 2 rows) to 2 s
    # (PP, 4 rows).  Box and ball come twice per round so that the median
    # falls inside the dense cheap band.  The halfspace item follows
    # HALFSPACES round by round (n = 4).  Only 3 in 12 of them (PP, and EG
    # with 4 rows) cost more than an orthant solve, so the 11th-largest
    # latency falls inside the orthant band for any run from 150 to 300
    # items.  When every round had halfspace EG and PP at 2-4 rows, the tail
    # sat on the edge of the 1-3 s PP band; it moved by 20-30% from seed to
    # seed and with the machine's speed, which sets the item count.
    CLASSES = tuple((kind, solver) for kind in ("box", "ball", "box", "ball", "orthant")
                    for solver in ("eg", "pp"))
    HALFSPACES = (("eg", 3), ("pp", 2), ("eg", 2), ("eg", 3), ("eg", 2), ("eg", 4),
                  ("eg", 3), ("eg", 2), ("eg", 3), ("pp", 3), ("eg", 2), ("eg", 3))
    # Round r draws its other instances at dimension DIMS[r % 3].  Fixed
    # shapes and a fixed spectrum range keep the cost of a round nearly the
    # same from seed to seed; with 24 rounds a run meets each instance once.
    DIMS = (3, 4, 5)
    ROUNDS = 24
    GOLDEN_ITEMS = 8
    TRACE_ITEMS_PER_S = 2.5

    @staticmethod
    def instance_json(rng, kind: str, n: int, rows: int, tracer) -> tuple[dict, np.ndarray, float]:
        """One strongly monotone instance, a feasible start and its Lipschitz constant.

        ``M`` is a skew part of norm 1.5 plus a PSD part of norm 0.3 plus 0.5 I,
        so L <= 2.3 and gamma >= 0.5: halfspace reference solves stay short.
        """
        raw = rng.standard_normal((n, n))
        G = rng.standard_normal((n, n))
        M = (1.5 * (raw - raw.T) / np.linalg.norm(raw - raw.T, 2)
             + 0.3 * (G.T @ G) / np.linalg.norm(G.T @ G, 2) + 0.5 * np.eye(n))
        q = rng.standard_normal(n)
        L = _create_operator(tracer, M, q).lipschitz
        if kind == "box":
            lo = rng.uniform(-1.0, 0.0, n)
            hi = lo + rng.uniform(0.5, 2.5, n)
            feasible = {"type": "box", "l": lo.tolist(), "u": hi.tolist()}
            z0 = rng.uniform(lo, hi)
        elif kind == "orthant":
            feasible = {"type": "orthant", "n": n}
            z0 = rng.uniform(0.0, 1.5, n)
        elif kind == "ball":
            center = rng.standard_normal(n)
            radius = float(rng.uniform(0.5, 2.0))
            d = rng.standard_normal(n)
            z0 = center + float(rng.uniform(0.0, 0.9)) * radius * d / np.linalg.norm(d)
            feasible = {"type": "ball", "center": center.tolist(), "radius": radius}
        else:
            z0 = rng.standard_normal(n)
            a = rng.standard_normal((rows, n))
            b = a @ z0 - rng.uniform(0.0, 0.5, rows)
            feasible = {"type": "halfspaces",
                        "rows": [{"a": a[i].tolist(), "b": float(b[i])} for i in range(rows)]}
        data = {"operator": {"type": "affine", "M": M.tolist(), "q": q.tolist()},
                "set": feasible, "dimension": n}
        return data, z0, L

    def build(self, seed: int, workdir: Path, tracer, golden: dict) -> Inputs:
        """Instance files for every round, each a seeded permutation of the classes."""
        rng = np.random.default_rng(seed)
        plan = []
        for r in range(self.ROUNDS):
            solver, rows = self.HALFSPACES[r % len(self.HALFSPACES)]
            n = self.DIMS[r % len(self.DIMS)]
            items = [(kind, solver_, n, rows) for kind, solver_ in self.CLASSES]
            items.append(("halfspaces", solver, 4, rows))
            plan += [items[k] for k in rng.permutation(len(items))]
        return Inputs(self._write(rng, plan, workdir / f"seed-{seed}", tracer))

    def golden_specs(self, workdir: Path) -> list:
        """Every kind with both solvers, at n = 4 with 3 halfspace rows."""
        kinds = ("box", "orthant", "ball", "halfspaces")
        plan = [(kind, solver, 4, 3) for kind in kinds for solver in ("eg", "pp")]
        specs = self._write(np.random.default_rng(GOLDEN_SEED), plan, workdir / "golden", NULL)
        return [(str(k), spec) for k, spec in enumerate(specs)]

    def _write(self, rng, plan, directory: Path, tracer) -> list[SolveSpec]:
        directory.mkdir(parents=True, exist_ok=True)
        specs = []
        for j, (kind, solver, n, rows) in enumerate(plan):
            data, z0, L = self.instance_json(rng, kind, n, rows, tracer)
            path = directory / f"{j:03d}-{kind}.json"
            path.write_text(json.dumps(data, sort_keys=True))
            specs.append(SolveSpec(path=str(path), solver=solver, eta=0.5 / L,
                                   z0=",".join(repr(float(x)) for x in z0),
                                   out=str(directory / f"out-{j:03d}")))
        return specs

    def run(self, spec: SolveSpec) -> dict:
        argv = ["solve", "--instance", spec.path, "--solver", spec.solver,
                "--eta", repr(spec.eta), "--T", str(self.T),
                f"--z0={spec.z0}",  # argparse would read a leading '-' as a flag
                "--out", spec.out]
        with _quiet():
            code = cli_main(argv)
        if code != 0:
            raise ItemFailure(f"egtan solve exited {code} on {spec.path}")
        return self._fingerprint(spec, code)

    def replay(self, spec: SolveSpec, tracer) -> dict:
        """``cmd_solve``'s steps, one span each, under a ``cli.main`` span."""
        out = Path(spec.out)
        with tracer.span("cli.main"):
            with tracer.span("instances.load_instance"):
                inst = tracer.instrument(load_instance(spec.path))
            config = SolverConfig(eta=spec.eta, T=self.T)
            z0 = np.array([float(x) for x in spec.z0.split(",")])
            if spec.solver == "eg":
                with tracer.span("solvers.eg_run") as s:
                    traj = eg_run(inst, config, z0)
                    s.attrs["solvers.eg_run.steps"] = len(traj.iterates) - 1
            else:
                with tracer.span("solvers.pp_run"):
                    traj = pp_run(inst, config, z0)
            out.mkdir(parents=True, exist_ok=True)
            L = inst.operator.lipschitz
            with tracer.span("solvers.solve_reference"):
                z_star = solve_reference(inst, eta=min(spec.eta, 0.5 / L) if L > 0 else spec.eta)
            D = 2.0 * float(np.linalg.norm(z0 - z_star)) or 1.0
            with tracer.span(f"solvers.rate_report_{spec.solver}") as s:
                rate = rate_report_eg if spec.solver == "eg" else rate_report_pp
                report = rate(traj, z_star, D=D)
                s.attrs["solvers.rate_report.skipped_checks"] = _skipped(report, inst, spec.solver)
            with tracer.span("cli.write"), open(out / "trajectory.csv", "w", newline="") as fh:
                write_trajectory_csv(fh, traj)
            with tracer.span("measures.measure_series"):
                series = traj.measure_series(D=D)
            with tracer.span("cli.write"), open(out / "measures.csv", "w", newline="") as fh:
                write_measures_csv(fh, series)
            with tracer.span("cli.write") as s, open(out / "rates.json", "w") as fh:
                json.dump(report.to_json(), fh, indent=2)
            s.attrs["cli.output_bytes"] = sum(
                (out / f).stat().st_size for f in ("trajectory.csv", "measures.csv", "rates.json")
            )
        code = 0 if report.passed else 2
        if code != 0:
            raise ItemFailure(f"rate report failed on {spec.path}")
        return self._fingerprint(spec, code)

    def _fingerprint(self, spec: SolveSpec, code: int) -> dict:
        out = Path(spec.out)
        with open(out / "rates.json") as fh:
            rates = json.load(fh)
        if not rates["passed"]:
            raise ItemFailure(f"rates.json reports a violated theorem for {spec.path}")
        with open(out / "measures.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(out / "trajectory.csv", newline="") as fh:
            traj_rows = sum(1 for _ in fh)
        if len(rows) != self.T + 2 or traj_rows != self.T + 2:
            raise ItemFailure(f"expected {self.T + 1} iterates in the CSV outputs of {spec.path}")
        last = rows[-1]
        return {
            "exact:exit": code,
            **_slacks({name: c["worst_slack"] for name, c in rates["checks"].items()}),
            "residual:final_natural": float(last[1]),
            "residual:final_tangent": float(last[2]),
        }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_SERIES_LINE = re.compile(r"^\s*(\d+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$")


@dataclass(frozen=True)
class VerifySpec:
    kind: str  # "certificates", "mutate" or "counterexample"
    arg: object  # certificate seed, mutated term, or counterexample name
    out: str

    @property
    def key(self) -> str:
        return self.kind if self.kind == "certificates" else f"{self.kind}:{self.arg}"


def _certificate_fingerprint(report: dict, code: int) -> dict:
    fp = {"exact:exit": code, "exact:all_pass": report["all_pass"]}
    for name, entry in report.items():
        if name == "all_pass":
            continue
        for field in ("status", "monomial_count_lhs", "monomial_count_rhs", "max_degree",
                      "first_differing_monomial"):
            if field in entry:
                fp[f"exact:{name}.{field}"] = entry[field]
    return fp


def _series_fingerprint(name: str, series, code: int) -> dict:
    kind = "gap-series" if name == "gap" else "series"
    return {"exact:exit": code, **{f"{kind}:{k}": float(v) for k, v in enumerate(series)}}


class Verify:
    name = "verify"
    CERT_SEEDS = 4
    TRACE_ITEMS_PER_S = 0.9

    # every timed item is compared with the record, so no separate golden pass
    GOLDEN_ITEMS = 0

    def build(self, seed: int, workdir: Path, tracer, golden: dict) -> Inputs:
        """One cycle: seeds and mutations shuffled, a counterexample after every fourth."""
        rng = np.random.default_rng(seed)
        out = str(workdir / f"seed-{seed}")
        heavy = [VerifySpec("certificates", int(s), out)
                 for s in rng.integers(0, 2**31, self.CERT_SEEDS)]
        heavy += [VerifySpec("mutate", t, out) for t in certificates.ALL_TERM_NAMES]
        heavy = [heavy[k] for k in rng.permutation(len(heavy))]
        light = [VerifySpec("counterexample", n, out) for n in sorted(counterexamples.ALL)]
        items = []
        for k, spec in enumerate(heavy):
            items.append(spec)
            if k % 4 == 3 and light:
                items.append(light.pop(0))
        items += light
        return Inputs(items, [golden[s.key] for s in items])

    def golden_specs(self, workdir: Path) -> list:
        """One item per fingerprint key."""
        out = str(workdir / "golden")
        specs = ([VerifySpec("certificates", 0, out)]
                 + [VerifySpec("mutate", t, out) for t in certificates.ALL_TERM_NAMES]
                 + [VerifySpec("counterexample", n, out) for n in sorted(counterexamples.ALL)])
        return [(spec.key, spec) for spec in specs]

    def run(self, spec: VerifySpec) -> dict:
        if spec.kind == "counterexample":
            with _quiet() as buf:
                code = cli_main(["counterexample", spec.arg])
            series = [float(m.group(2)) for m in map(_SERIES_LINE.match, buf.getvalue().splitlines())
                      if m]
            return _series_fingerprint(spec.arg, series, code)
        argv = ["verify-certificates", "--out", spec.out]
        argv += ["--seed", str(spec.arg)] if spec.kind == "certificates" else ["--mutate", spec.arg]
        with _quiet():
            code = cli_main(argv)
        with open(Path(spec.out) / "certificates.json") as fh:
            return _certificate_fingerprint(json.load(fh), code)

    def replay(self, spec: VerifySpec, tracer) -> dict:
        if spec.kind == "counterexample":
            with tracer.span("counterexamples.reproduce"):
                rep = counterexamples.reproduce(spec.arg)
            return _series_fingerprint(spec.arg, rep["series"], 0 if rep["ok"] else 2)
        seed, mutate = (spec.arg, None) if spec.kind == "certificates" else (0, spec.arg)
        with tracer.span("certificates.verification_report"):
            report = certificates.verification_report(seed=seed, mutate=mutate)
        return _certificate_fingerprint(report, 0 if report["all_pass"] else 2)

    def probe(self, spec: VerifySpec, i: int, tracer) -> None:
        """Time the builders and ``SparsePoly`` operations behind a certificate item.

        ``verification_report`` calls these internally; here they are called on
        their own, on the builders' polynomials at a rational point drawn from
        the item, so their cost can be read per module.
        """
        if spec.kind == "counterexample":
            return
        mutate = None if spec.kind == "certificates" else spec.arg
        branch = certificates.BRANCHES[i % 2] if mutate is None else (
            "neg" if mutate == "cons-9" else "nonneg")  # cons-9 vanishes on nonneg
        with tracer.span("certificates.check_constrained_identity"):
            holds = certificates.check_constrained_identity(branch, mutate=mutate)
        if holds != (mutate is None):
            raise ItemFailure(f"constrained identity ({branch}, mutate={mutate}) gave {holds}")
        lhs = certificates.build_constrained_lhs(branch)
        rhs = certificates.build_constrained_rhs(branch)
        if mutate is None:
            with tracer.span("certificates.build_lhs_from_derivation"):
                derived = certificates.build_lhs_from_derivation(branch)
            if not (derived - lhs).is_zero():
                raise ItemFailure(f"derivation route disagrees on branch {branch}")
        point = certificates.CertificateAssignment.random(
            np.random.default_rng(i), branch).values()
        frame = {v: SparsePoly.constant(lhs.vars, point[v]) for v in ("al", "b1", "b2")}
        with tracer.span("exactpoly.SparsePoly.evaluate"):
            lhs_value = lhs.evaluate(point)
        with tracer.span("exactpoly.SparsePoly.evaluate"):
            rhs_value = rhs.evaluate(point)
        with tracer.span("exactpoly.SparsePoly.substitute"):
            lhs_frame = lhs.substitute(frame)
        with tracer.span("exactpoly.SparsePoly.substitute"):
            rhs_frame = rhs.substitute(frame)
        with tracer.span("exactpoly.SparsePoly.mul"):
            product = lhs_frame * rhs_frame
        with tracer.span("exactpoly.SparsePoly.evaluate") as s:
            product_value = product.evaluate(point)
            s.attrs["exactpoly.monomials"] = sum(
                p.monomial_count() for p in (lhs, rhs, lhs_frame, rhs_frame, product))
        if lhs_value != rhs_value or not (lhs_frame - rhs_frame).is_zero():
            raise ItemFailure(f"identity fails at a rational point on branch {branch}")
        if product_value != lhs_value * rhs_value:
            raise ItemFailure("product of specialised sides disagrees with the point values")


WORKLOADS = {w.name: w for w in (EgSuite(), CliMixed(), Verify())}
