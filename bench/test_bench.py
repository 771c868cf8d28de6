"""Tests for the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _instance_bytes(seed: int, directory: Path) -> dict[str, bytes]:
    inputs = workloads.WORKLOADS["cli-mixed"].build(seed, directory, tracing.NULL, {})
    return {Path(spec.path).name: Path(spec.path).read_bytes() for spec in inputs.items}


def test_same_seed_gives_byte_identical_instances(tmp_path):
    first = _instance_bytes(7, tmp_path / "a")
    second = _instance_bytes(7, tmp_path / "b")
    assert first == second
    other = _instance_bytes(8, tmp_path / "c")
    assert len(other) == len(first)
    assert set(first.values()).isdisjoint(other.values())


def test_item_order_depends_on_the_seed(tmp_path):
    verify = workloads.WORKLOADS["verify"]
    golden = json.loads((BENCH / "golden.json").read_text())["workloads"]["verify"]
    a, b, c = ([spec.key for spec in verify.build(seed, tmp_path, tracing.NULL, golden).items]
               for seed in (1, 1, 2))
    assert a == b and a != c
    assert sorted(a) == sorted(c)


def test_metric_names_are_well_formed_and_match_the_description():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert end_to_end == list(run.END_TO_END_UNITS)
    assert per_layer == list(tracing.metric_units())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {**run.END_TO_END_UNITS, **tracing.metric_units()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize(
    "n, percentile, rank",
    [(11, 100 / 11, 0), (20, 50.0, 9), (100, 90.0, 89), (160, 93.75, 149), (1000, 99.0, 989)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile, rank):
    samples = [float(x) for x in range(n)][::-1]  # unsorted input
    got_pct, got = run.tail_percentile(samples)
    assert got_pct == pytest.approx(percentile)
    assert got == float(rank)
    assert sum(x > got for x in samples) == 10


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_with_ten_samples_or_fewer_is_the_maximum(n):
    assert run.tail_percentile(range(n)) == (100.0, n - 1)


def test_drift_uses_the_pinned_tolerance_per_field():
    want = {"slack:a": 1.0, "series:0": 2.0, "exact:status": "pass"}
    assert workloads.drift({"slack:a": 1.0 + 5e-9, "series:0": 2.0 + 5e-10,
                            "exact:status": "pass"}, want) == []
    problems = workloads.drift({"slack:a": 1.0 + 2e-8, "series:0": 2.0,
                                "exact:status": "fail"}, want)
    assert [p.split(":")[0] + ":" + p.split(":")[1] for p in problems] == [
        "exact:status", "slack:a"]
    assert workloads.drift({"slack:a": 1.0, "series:0": 2.0}, want)


def test_traced_counts_repeat_and_tracing_keeps_the_outputs():
    eg = workloads.WORKLOADS["eg-suite"]
    spec = eg.golden_specs(Path("."))[0][1]
    plain = eg.run(spec)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        assert eg.replay(spec, tracer) == plain
        values = tracing.aggregate(tracer)
        counts.append({k: v for k, v in values.items() if tracing.is_count(k)})
    assert counts[0] == counts[1]
    assert counts[0]["solvers.eg_run.steps"] == eg.T
    assert counts[0]["solvers.solve_reference.calls"] == 1
    # eg_run evaluates F once per iterate and once per half iterate
    assert counts[0]["instances.operator_eval.calls"] > 2 * eg.T
