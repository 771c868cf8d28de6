"""egtan benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload eg-suite --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed, seed-determined list of items twice with spans and once
without, and reports the per-module metrics and the tracing overhead.  Both
print a summary (metadata, sample counts, failures) and, as the last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``.

Run it from the root of an egtan source tree: it imports ``egtan`` from
``src/`` there and exits with code 2, printing no result, when that is missing.
See ``bench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("eg-suite", "cli-mixed", "verify")
SETUPS = 5  # set-up repetitions; setup_s is their median
TAIL_BEYOND = 10  # item_tail_ms: the highest percentile with this many items above it
# One BLAS thread: a single client on a shared 2-core box; at most nproc by construction.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LIMITS = (
    "timing uses only this process and its own import probes",
    "no CPU pinning",
    "no page-cache dropping",
    "no system-wide tracing",
    "shared machine, 2 cores, other tenants' load not controlled",
)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import egtan; print(time.perf_counter() - t)"
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(samples) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with 10 samples above it.

    That is the 11th-largest sample, at percentile ``100 (n - 10) / n``.  With
    10 samples or fewer no percentile qualifies and the maximum is returned at
    percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> dict:
    import numpy as np

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
        "limits": list(LIMITS),
    }


# ---------------------------------------------------------------------------
# running items
# ---------------------------------------------------------------------------


def _attempt(run, want: dict | None, label: str, errors: list) -> None:
    """Call ``run()``; a wrong output, drift from ``want`` or an exception is a failure."""
    from workloads import drift

    try:
        got = run()
        problems = [] if want is None else drift(got, want)
        if problems:
            errors.append(f"{label}: output drifted: {'; '.join(problems[:3])}")
    except Exception as exc:  # the loop must go on; the failure is counted and reported
        if not errors:
            traceback.print_exc(file=sys.stderr)
        errors.append(f"{label}: {type(exc).__name__}: {exc}")


def _item(run, inputs, i: int, errors: list) -> None:
    _attempt(lambda: run(inputs.spec(i)), inputs.want(i), f"item {i}", errors)


def _golden_pass(w, golden: dict, workdir: Path, errors: list) -> int:
    """Re-run the recorded items and compare; returns how many were attempted."""
    if not w.GOLDEN_ITEMS:
        return 0
    keyed = w.golden_specs(workdir)
    for key, spec in keyed:
        _attempt(lambda: w.run(spec), golden[key], f"golden item {key}", errors)
    return len(keyed)


def _child_import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _timing_metrics(setups, latencies, ok_items: int) -> dict:
    pct, tail = tail_percentile(latencies)
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": ok_items / sum(latencies),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_tail_ms": 1e3 * tail,
    }


def run_plain(w, args, golden: dict, workdir: Path, import_s: float) -> dict:
    """Set up ``SETUPS`` times, then run items until ``args.seconds`` have passed.

    Every timed interval is kept raw and scaled to reference speed (see
    ``speed.py``); the metrics are the scaled ones.
    """
    from speed import SpeedProbe
    from tracing import NULL

    probe = SpeedProbe()
    setup_spans = []
    for k in range(SETUPS):
        probe.sample()
        t0 = perf_counter()
        imp = import_s if k == 0 else _child_import_seconds()
        b0 = perf_counter()
        inputs = w.build(args.seed, workdir, NULL, golden)
        t1 = perf_counter()
        # the first import happened before this loop; count it with this build
        setup_spans.append((t0, t1, imp + t1 - b0 if k == 0 else t1 - t0))
    probe.sample()

    errors: list[str] = []
    spans = []
    start = perf_counter()
    deadline = start + args.seconds
    i = 0
    while perf_counter() < deadline:
        probe.maybe_sample()
        t0 = perf_counter()
        _item(w.run, inputs, i, errors)
        spans.append((t0, perf_counter()))
        i += 1
    probe.sample()
    elapsed = perf_counter() - start
    ok_items = i - len(errors)
    attempted = i + _golden_pass(w, golden, workdir, errors)

    raw_setups = [d for _, _, d in setup_spans]
    raw_latencies = [t1 - t0 for t0, t1 in spans]
    setups = [d * probe.scale(t0, t1) for t0, t1, d in setup_spans]
    latencies = [(t1 - t0) * probe.scale(t0, t1) for t0, t1 in spans]
    metrics = _timing_metrics(setups, latencies, ok_items)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = {
        "items": i,
        "measured_s": elapsed,
        "tail_percentile": tail_percentile(latencies)[0],
        "tail_samples": len(latencies),
        "failed_share": len(errors) / attempted,
        "calibration_median_s": probe.median(),
        "calibration_samples": len(probe.samples),
        "raw": _timing_metrics(raw_setups, raw_latencies, ok_items),
        "setup_samples_s": setups,
    }
    return {"attempted": attempted, "errors": errors,
            "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            "summary": summary}


def run_traced(w, args, golden: dict, workdir: Path) -> dict:
    from tracing import NULL, OVERHEAD_METRIC, Tracer, aggregate, is_count, metric_units

    setup_tracer = Tracer()
    inputs = w.build(args.seed, workdir, setup_tracer, golden)
    n = max(2, round(args.seconds * w.TRACE_ITEMS_PER_S))
    errors: list[str] = []
    passes = []
    probe = getattr(w, "probe", None)
    for _ in range(2):
        tracer = Tracer()
        t0 = perf_counter()
        for i in range(n):
            tracer.item = i
            _item(lambda spec: w.replay(spec, tracer), inputs, i, errors)
        wall = perf_counter() - t0
        if probe is not None:
            for i in range(n):
                tracer.item = i
                _attempt(lambda: probe(inputs.spec(i), i, tracer), None, f"probe {i}", errors)
        passes.append((tracer, wall))
    t0 = perf_counter()
    for i in range(n):
        _item(lambda spec: w.replay(spec, NULL), inputs, i, errors)
    untraced_wall = perf_counter() - t0

    (first, _), (second, traced_wall) = passes
    a, b, setup = aggregate(first), aggregate(second), aggregate(setup_tracer)
    for name in a:
        if is_count(name) and a[name] != b[name]:
            errors.append(f"count {name} differs between two traced passes: {a[name]} != {b[name]}")
    values = {name: b[name] + setup[name] for name in b}
    values[OVERHEAD_METRIC] = traced_wall - untraced_wall
    units = metric_units()

    trace_path = WORK / "traces" / f"{w.name}-seed{args.seed}.jsonl"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        setup_tracer.write(fh, "setup")
        second.write(fh, "traced")
    attempted = (3 + 2 * (probe is not None)) * n + _golden_pass(w, golden, workdir, errors)
    summary = {
        "traced_items": n,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "spans": len(second.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "failed_share": len(errors) / attempted,
    }
    return {"attempted": attempted, "errors": errors,
            "metrics": {k: (values[k], units[k]) for k in units}, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "egtan" / "__init__.py").is_file():
        print(f"error: no egtan sources under {SRC}; run from an egtan source tree",
              file=sys.stderr)
        return 2

    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import egtan
    import_s = perf_counter() - t0
    if Path(egtan.__file__).resolve().parent != SRC / "egtan":
        print(f"error: imported egtan from {egtan.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    with open(BENCH_DIR / "golden.json") as fh:
        golden = json.load(fh)["workloads"][w.name]
    workdir = WORK / f"run-{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            out = run_traced(w, args, golden, workdir)
        else:
            out = run_plain(w, args, golden, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in out["errors"][:10]:
        print(f"FAILED {err}", file=sys.stderr)
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds, **out["summary"], "meta": metadata()}))
    failed = len(out["errors"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
