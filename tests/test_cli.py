import json

import numpy as np
import pytest

from egtan import sets, solvers
from egtan.certificates import ALL_TERM_NAMES
from egtan.cli import main
from egtan.instances import AffineOperator, VIInstance, save_instance
from egtan.sets import Ball, Box, HalfspaceIntersection
from egtan.solvers import Trajectory
from tests.test_affine_vi import vi_searches_go_cold


def counted(method, calls):
    """``method`` (or a plain function) wrapped to append its name to ``calls`` on each call."""

    def wrapper(self, *args):
        calls.append(method.__name__)
        return method(self, *args)

    return wrapper


def write_instance(tmp_path, M, q, lo, hi, name="instance.json"):
    op = AffineOperator.create(np.array(M, dtype=float), np.array(q, dtype=float))
    inst = VIInstance.create(op, Box(np.array(lo, dtype=float), np.array(hi, dtype=float)))
    path = tmp_path / name
    save_instance(inst, str(path))
    return path


class TestCounterexampleCommand:
    @pytest.mark.parametrize("name", ["natural-residual", "half-step-dist", "full-step-dist", "gap"])
    def test_reproduction_exits_zero(self, name, capsys):
        assert main(["counterexample", name]) == 0
        out = capsys.readouterr().out
        assert "published" in out
        assert "non-monotone: True" in out

    def test_gap_reports_resolved_domain(self, capsys):
        assert main(["counterexample", "gap"]) == 0
        assert "resolved domain: [0,10]^2" in capsys.readouterr().out

    def test_natural_residual_prints_published_value(self, capsys):
        main(["counterexample", "natural-residual"])
        assert "0.15170013184049996" in capsys.readouterr().out


class TestVerifyCertificatesCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["verify-certificates"]) == 0
        out = capsys.readouterr().out
        assert "constrained-nonneg" in out and "fail" not in out

    def test_mutation_exits_two_and_names_monomial(self, capsys):
        assert main(["verify-certificates", "--mutate", "sos-5"]) == 2
        out = capsys.readouterr().out
        assert "fail" in out
        assert "first differing monomial" in out

    def test_report_table_matches_published_rows(self, capsys):
        assert main(["verify-certificates", "--report-table"]) == 0
        out = capsys.readouterr().out
        assert "per-monomial sums" in out
        assert "zk1*fh1" in out and "-2" in out

    def test_writes_json(self, tmp_path):
        assert main(["verify-certificates", "--out", str(tmp_path)]) == 0
        blob = json.loads((tmp_path / "certificates.json").read_text())
        assert blob["all_pass"] is True
        assert blob["constrained-nonneg"]["max_degree"] == 8

    def test_unknown_mutation_exits_one_listing_the_terms(self, tmp_path, capsys):
        code = main(["verify-certificates", "--mutate", "bogus", "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: mutate must be one of" in captured.err and "'bogus'" in captured.err
        assert all(term in captured.err for term in ALL_TERM_NAMES)
        assert captured.out == "" and not (tmp_path / "certificates.json").exists()

    def test_out_under_a_regular_file_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["verify-certificates", "--out", str(blocker / "sub")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_changes_nothing(self, tmp_path, capsys):
        blobs = []
        for seed in ("0", "3"):
            assert main(["verify-certificates", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
            blobs.append(((tmp_path / seed / "certificates.json").read_text(),
                          capsys.readouterr().out))
        assert blobs[0] == blobs[1]
        assert "trials" not in blobs[0][0] and "trials" not in blobs[0][1]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["counterexample", "bogus"],
        ["rates", "--instance", "x.json", "--eta", "abc", "--T", "5"],
        ["solve", "--eta", "0.1", "--T", "5"],
    ], ids=["unknown-counterexample", "non-numeric-eta", "missing-instance"])
    def test_usage_error_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["rates", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out


class TestSolveCommand:
    def test_zero_operator_writes_outputs(self, tmp_path, capsys):
        path = write_instance(tmp_path, np.zeros((2, 2)), np.zeros(2), [0, 0], [10, 10])
        out_dir = tmp_path / "out"
        code = main([
            "solve", "--instance", str(path), "--solver", "eg",
            "--eta", "0.1", "--T", "5", "--z0", "1,1", "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "trajectory.csv").exists()
        assert (out_dir / "measures.csv").exists()
        assert (out_dir / "rates.json").exists()
        rates = json.loads((out_dir / "rates.json").read_text())
        assert rates["passed"] is True

    def test_outputs_are_deterministic(self, tmp_path):
        path = write_instance(tmp_path, [[0.2, -1.0], [1.0, 0.2]], [0.3, -0.2], [-2, -2], [2, 2])
        blobs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            assert main([
                "solve", "--instance", str(path), "--solver", "eg",
                "--eta", "0.3", "--T", "20", "--z0", "1,1", "--out", str(out_dir),
            ]) == 0
            blobs.append(
                tuple((out_dir / f).read_bytes() for f in ("trajectory.csv", "measures.csv", "rates.json"))
            )
        assert blobs[0] == blobs[1]

    def test_strict_large_step_exits_one(self, tmp_path, capsys):
        path = write_instance(tmp_path, np.eye(2), np.zeros(2), [-1, -1], [1, 1])
        code = main([
            "solve", "--instance", str(path), "--solver", "eg",
            "--eta", "2.0", "--T", "3", "--z0", "0.5,0.5",
            "--out", str(tmp_path / "o"), "--strict",
        ])
        assert code == 1
        assert "eta" in capsys.readouterr().err

    def test_missing_instance_exits_one(self, tmp_path, capsys):
        code = main([
            "solve", "--instance", str(tmp_path / "nope.json"), "--solver", "eg",
            "--eta", "0.1", "--T", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_bad_z0_dimension_exits_one(self, tmp_path, capsys):
        path = write_instance(tmp_path, np.eye(2), np.zeros(2), [-1, -1], [1, 1])
        code = main([
            "solve", "--instance", str(path), "--solver", "eg",
            "--eta", "0.1", "--T", "1", "--z0", "1,2,3", "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    @pytest.mark.parametrize(
        "field, M, q",
        [
            ("M", [[1.0, float("nan")], [0.0, 1.0]], [0.0, 0.0]),
            ("q", [[1.0, 0.0], [0.0, 1.0]], [float("inf"), 0.0]),
        ],
    )
    def test_non_finite_operator_exits_one_naming_field(self, tmp_path, capsys, field, M, q):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "operator": {"type": "affine", "M": M, "q": q},
            "set": {"type": "box", "l": [-1.0, -1.0], "u": [1.0, 1.0]},
        }))
        code = main([
            "solve", "--instance", str(path), "--eta", "0.1", "--T", "3",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert f"error: {field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, feasible_set",
        [
            ("l", {"type": "box", "l": [float("nan"), -1.0], "u": [1.0, 1.0]}),
            ("radius", {"type": "ball", "center": [0.0, 0.0], "radius": float("inf")}),
            ("a", {"type": "halfspaces", "rows": [{"a": [float("nan"), 1.0], "b": 0.0}]}),
        ],
    )
    def test_non_finite_set_exits_one_naming_field(self, tmp_path, capsys, field, feasible_set):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "operator": {"type": "affine", "M": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0]},
            "set": feasible_set,
        }))
        code = main([
            "solve", "--instance", str(path), "--eta", "0.1", "--T", "3",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert f"error: {field} must" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, A, b",
        [
            ("A", [[float("nan"), 2.0], [1.0, 1.0]], [1.0, 1.0]),
            ("b", [[1.0, 2.0], [1.0, 1.0]], [float("inf"), 1.0]),
        ],
    )
    def test_non_finite_game_exits_one_naming_field(self, tmp_path, capsys, field, A, b):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "operator": {"type": "bilinear", "A": A, "b": b, "c": [1.0, 1.0]},
            "set": {"type": "box", "l": [0.0] * 4, "u": [10.0] * 4},
        }))
        code = main([
            "solve", "--instance", str(path), "--eta", "0.1", "--T", "3",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert f"error: {field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, data",
        [
            ("instance", [1, 2]),
            ("operator", {"operator": "affine", "set": {"type": "orthant", "n": 2}}),
            ("set", {"operator": {"type": "affine", "M": [[1.0, 0.0], [0.0, 1.0]],
                                  "q": [0.0, 0.0]}, "set": None}),
        ],
    )
    def test_non_object_field_exits_one_naming_field(self, tmp_path, capsys, field, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["rates", "--instance", str(path), "--eta", "0.1", "--T", "3"])
        assert code == 1
        assert f"error: {field} must be a JSON object" in capsys.readouterr().err

    IDENTITY = {"type": "affine", "M": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0]}
    BOX = {"type": "box", "l": [-1.0, -1.0], "u": [1.0, 1.0]}

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"operator": {**IDENTITY, "M": [[1.0, 0.0], [0.0]]}, "set": BOX},
             "M must be a number or a rectangular array of numbers"),
            ({"operator": IDENTITY}, "instance has no field 'set'"),
            ({"operator": IDENTITY, "set": {"type": "ball", "center": [0.0, 0.0], "radius": "x"}},
             "radius must be a number, got 'x'"),
            ({"operator": IDENTITY, "set": {**BOX, "l": [0, "lo"]}}, "l[1] must be a number, got 'lo'"),
            ({"operator": IDENTITY, "set": {"type": "halfspaces",
                                            "rows": [{"a": [1.0, 0.0], "b": 0.0}, {"a": [0.0, 1.0]}]}},
             "set.rows[1] has no field 'b'"),
            ({"operator": IDENTITY, "set": {"type": "halfspaces", "rows": 5}},
             "set.rows must be a list of objects"),
            ({"operator": IDENTITY, "set": {"type": "orthant", "n": float("inf")}},
             "n must be a positive integer, got inf"),
            ({"operator": IDENTITY, "set": {"type": "rn", "n": "x"}}, "n must be a number, got 'x'"),
        ],
        ids=["ragged-M", "no-set", "radius-text", "bound-text", "row-without-b", "rows-number",
             "n-infinite", "n-text"],
    )
    def test_malformed_field_exits_one_naming_it(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["solve", "--instance", str(path), "--eta", "0.1", "--T", "3",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_z0_that_is_not_numbers_exits_one_naming_z0(self, tmp_path, capsys):
        path = write_instance(tmp_path, np.eye(2), np.zeros(2), [-1, -1], [1, 1])
        code = main(["solve", "--instance", str(path), "--eta", "0.1", "--T", "3", "--z0", "a,0",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: --z0 must be comma-separated numbers, got 'a,0'\n"

    @pytest.mark.parametrize("z0", ["0.1,,0.2,0.3", "0.1,0.2,0.3,", ",0.1,0.2,0.3", "0.1, ,0.2"])
    def test_z0_with_an_empty_entry_exits_one_naming_z0(self, tmp_path, capsys, z0):
        # dropping the empty entry would run 0.1,,0.2,0.3 as a 3-vector
        path = write_instance(tmp_path, np.eye(3), np.zeros(3), [-1] * 3, [1] * 3)
        code = main(["solve", "--instance", str(path), "--eta", "0.1", "--T", "3", f"--z0={z0}",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: --z0 must be comma-separated numbers, got {z0!r}\n"
        assert not (tmp_path / "o").exists()

    def test_counterexample_instance_measure_csv(self, tmp_path):
        # solving the first counterexample instance reproduces the recorded
        # squared natural residual in the k=0 measure row
        blob = {
            "operator": {
                "type": "bilinear",
                "A": [[1.0, 2.0], [1.0, 1.0]],
                "b": [1.0, 1.0],
                "c": [1.0, 1.0],
            },
            "set": {"type": "box", "l": [0.0] * 4, "u": [10.0] * 4},
            "dimension": 4,
        }
        path = tmp_path / "ce.json"
        path.write_text(json.dumps(blob))
        out_dir = tmp_path / "out"
        code = main([
            "solve", "--instance", str(path), "--solver", "eg", "--eta", "0.1",
            "--T", "2", "--z0", "0.3108455,0.4825575,0.4621875,0.5768655",
            "--out", str(out_dir),
        ])
        assert code == 0
        rows = (out_dir / "measures.csv").read_text().strip().splitlines()
        r_nat_0 = float(rows[1].split(",")[1])
        assert r_nat_0**2 == pytest.approx(0.15170013184049996, abs=1e-9)


class TestRatesCommand:
    def test_eg_rates_pass(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[0.2, -1.0], [1.0, 0.2]], [0.3, -0.2], [-2, -2], [2, 2])
        code = main([
            "rates", "--instance", str(path), "--solver", "eg",
            "--eta", "0.3", "--T", "50", "--z0", "1,1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tangent_residual_monotone" in out
        assert "all satisfied" in out

    def test_pp_rates_pass(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[0.2, -1.0], [1.0, 0.2]], [0.3, -0.2], [-2, -2], [2, 2])
        code = main([
            "rates", "--instance", str(path), "--solver", "pp",
            "--eta", "0.3", "--T", "30", "--z0", "1,1", "--out", str(tmp_path / "r"),
        ])
        assert code == 0
        blob = json.loads((tmp_path / "r" / "rates.json").read_text())
        assert blob["passed"] is True
        assert "step_monotone" in blob["checks"]

    @pytest.mark.parametrize("command", ["solve", "rates"])
    def test_non_finite_z0_exits_one_naming_z0(self, tmp_path, capsys, command):
        path = write_instance(tmp_path, [[0.2, -1.0], [1.0, 0.2]], [0.3, -0.2], [-2, -2], [2, 2])
        code = main([command, "--instance", str(path), "--eta", "0.1", "--T", "5",
                     "--z0", "nan,0", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error: z0 must be finite" in capsys.readouterr().err

    def test_nan_step_size_exits_one_naming_eta(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[0.2, -1.0], [1.0, 0.2]], [0.3, -0.2], [-2, -2], [2, 2])
        code = main(["rates", "--instance", str(path), "--eta", "nan", "--T", "5", "--z0", "1,1"])
        assert code == 1
        assert "eta" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "rates"])
    @pytest.mark.parametrize("D", ["0", "0.0"])
    def test_zero_radius_exits_one(self, tmp_path, capsys, command, D):
        path = write_instance(tmp_path, [[0.2, -1.0], [1.0, 0.2]], [0.3, -0.2], [-2, -2], [2, 2])
        code = main([command, "--instance", str(path), "--eta", "0.1", "--T", "5",
                     "--z0", "1,1", "--D", D, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error: D must be finite and positive" in capsys.readouterr().err

    def test_zero_radius_exits_one_without_a_gap_check(self, tmp_path, capsys):
        # no gap is evaluated on a ball or at T = 0, so the radius is checked up front
        op = AffineOperator.create(np.array([[0.5, -1.0], [1.0, 0.5]]), np.array([1.0, -0.5]))
        path = tmp_path / "ball.json"
        save_instance(VIInstance.create(op, Ball(np.zeros(2), 1.0)), str(path))
        code = main(["rates", "--instance", str(path), "--eta", "0.3", "--T", "0", "--D", "0"])
        assert code == 1
        assert "error: D must be finite and positive" in capsys.readouterr().err

    def test_ball_rates_print_the_skipped_checks(self, tmp_path, capsys):
        op = AffineOperator.create(np.array([[0.5, -1.0], [1.0, 0.5]]), np.array([1.0, -0.5]))
        path = tmp_path / "ball.json"
        save_instance(VIInstance.create(op, Ball(np.zeros(2), 1.0)), str(path))
        code = main(["rates", "--instance", str(path), "--eta", "0.3", "--T", "10", "--z0", "0,0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "last_iterate_gap_rate" in out and "skipped:" in out


class TestMonotonicityWarning:
    # gamma = -0.1: the run and its reference solve still finish, but the
    # theorems need not hold (here tangent_residual_monotone fails)
    NON_MONOTONE = ([[-0.1, 0.0], [0.0, 1.0]], [1.0, 0.0])

    @pytest.mark.parametrize("command", ["solve", "rates"])
    def test_non_monotone_instance_warns(self, tmp_path, capsys, command):
        path = write_instance(tmp_path, *self.NON_MONOTONE, [-1, -1], [1, 1])
        code = main([command, "--instance", str(path), "--eta", "0.3", "--T", "10",
                     "--z0", "0.5,0.5", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("warning: operator is not monotone (gamma = -0.1 < 0)")

    @pytest.mark.parametrize("command", ["solve", "rates"])
    def test_strict_rejects_a_non_monotone_instance(self, tmp_path, capsys, command):
        path = write_instance(tmp_path, *self.NON_MONOTONE, [-1, -1], [1, 1])
        code = main([command, "--instance", str(path), "--eta", "0.3", "--T", "10",
                     "--z0", "0.5,0.5", "--out", str(tmp_path / "o"), "--strict"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: operator is not monotone (gamma = -0.1 < 0)")
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["solve", "rates"])
    def test_monotone_instance_is_silent(self, tmp_path, capsys, command):
        path = write_instance(tmp_path, [[0.2, -1.0], [1.0, 0.2]], [0.3, -0.2], [-2, -2], [2, 2])
        code = main([command, "--instance", str(path), "--eta", "0.3", "--T", "10",
                     "--z0", "1,1", "--out", str(tmp_path / "o"), "--strict"])
        assert code == 0
        assert capsys.readouterr().err == ""


class TestPreconditionsBeforeTheRun:
    # L = 1 here, so eta = 2 breaks eta * L < 1
    @pytest.fixture
    def no_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run or reference solve started")

        for name in ("eg_run", "pp_run", "solve_reference"):  # cli reads them at call time
            monkeypatch.setattr(f"egtan.solvers.{name}", refuse)

    def argv(self, tmp_path, command, solver, *flags):
        path = write_instance(tmp_path, np.eye(2), np.zeros(2), [-1, -1], [1, 1])
        return [command, "--instance", str(path), "--solver", solver, "--T", "200000",
                "--z0", "0.5,0.5", "--out", str(tmp_path / "o"), *flags]

    @pytest.mark.parametrize("command", ["solve", "rates"])
    @pytest.mark.parametrize("solver", ["eg", "pp"])
    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_large_step_exits_one_naming_eta(
        self, tmp_path, capsys, no_run, command, solver, strict
    ):
        assert main(self.argv(tmp_path, command, solver, "--eta", "2", *strict)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: the rate report needs eta * L < 1 (got eta * L = 2)\n"
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["solve", "rates"])
    @pytest.mark.parametrize("solver", ["eg", "pp"])
    @pytest.mark.parametrize("D", ["-1", "nan", "inf"])
    def test_bad_radius_exits_one_naming_D(self, tmp_path, capsys, no_run, command, solver, D):
        assert main(self.argv(tmp_path, command, solver, "--eta", "0.5", "--D", D)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: D must be finite and positive, got ")
        assert captured.out == "" and not (tmp_path / "o").exists()


class TestOneRunAndReportPath:
    @pytest.mark.parametrize("solver", ["eg", "pp"])
    def test_solve_and_rates_write_identical_rates_json(self, tmp_path, solver):
        path = write_instance(tmp_path, [[0.2, -1.0], [1.0, 0.2]], [0.3, -0.2], [-2, -2], [2, 2])
        flags = ["--instance", str(path), "--solver", solver, "--eta", "0.3", "--T", "20", "--z0", "1,1"]
        assert main(["solve", *flags, "--out", str(tmp_path / "solve")]) == 0
        assert main(["rates", *flags, "--out", str(tmp_path / "rates")]) == 0
        solved = (tmp_path / "solve" / "rates.json").read_bytes()
        assert solved == (tmp_path / "rates" / "rates.json").read_bytes()

    def test_gap_column_is_the_gap_rate_lhs(self, tmp_path):
        path = write_instance(tmp_path, [[0.2, -1.0], [1.0, 0.2]], [0.3, -0.2], [-2, -2], [2, 2])
        out_dir = tmp_path / "out"
        assert main([
            "solve", "--instance", str(path), "--eta", "0.3", "--T", "20", "--z0", "1,1",
            "--out", str(out_dir),
        ]) == 0
        rows = (out_dir / "measures.csv").read_text().strip().splitlines()[1:]
        gap_column = [float(row.split(",")[3]) for row in rows]
        rates = json.loads((out_dir / "rates.json").read_text())
        assert rates["checks"]["last_iterate_gap_rate"]["lhs"] == gap_column[1:]

    def test_gap_column_is_at_the_report_radius(self, tmp_path, monkeypatch):
        # the report picks the default radius, and measures.csv reads it there
        radii = []
        report_for, series = solvers.rate_report_eg, Trajectory.measure_series

        def recorded(*args, **kwargs):
            report = report_for(*args, **kwargs)
            radii.append(report.radius)
            return report

        monkeypatch.setattr(solvers, "rate_report_eg", recorded)
        monkeypatch.setattr(Trajectory, "measure_series",
                            lambda traj, D=None, known=None: radii.append(D) or series(traj, D, known))
        path = write_instance(tmp_path, [[0.2, -1.0], [1.0, 0.2]], [0.3, -0.2], [-2, -2], [2, 2])
        assert main(["solve", "--instance", str(path), "--eta", "0.3", "--T", "5", "--z0", "1,1",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(radii) == 2 and radii[0] == radii[1] > 0

    def test_box_geometry_calls_do_not_grow_with_T(self, tmp_path, monkeypatch):
        # each series is one stacked call, evaluated once per solve: the tangent
        # residual and the gap at k >= 1 come from the rate report, so
        # measures.csv adds only the gap at k = 0
        calls = []
        for name in ("linear_min_over_ball", "project_tangent_cone"):
            monkeypatch.setattr(Box, name, counted(getattr(Box, name), calls))
        path = write_instance(tmp_path, [[0.2, -1.0], [1.0, 0.2]], [0.3, -0.2], [-2, -2], [2, 2])
        counts = []
        for T in (10, 100):
            calls.clear()
            assert main([
                "solve", "--instance", str(path), "--eta", "0.3", "--T", str(T), "--z0", "1,1",
                "--out", str(tmp_path / f"T{T}"),
            ]) == 0
            counts.append(len(calls))
            assert calls.count("project_tangent_cone") == 1
        assert counts[0] == counts[1] <= 3

    def test_one_row_halfspace_solve_never_reaches_the_nnls(self, tmp_path, monkeypatch):
        # every projection and tangent-cone projection onto one row is one face solve
        op = AffineOperator.create(np.array([[0.2, -1.0], [1.0, 0.2]]), np.array([1.0, 1.0]))
        inst = VIInstance.create(op, HalfspaceIntersection([(np.array([1.0, 1.0]), 1.0)]))
        path = tmp_path / "instance.json"
        save_instance(inst, str(path))
        calls = []
        monkeypatch.setattr(sets, "_nnls", counted(sets._nnls, calls))
        out_dir = tmp_path / "out"
        assert main([
            "solve", "--instance", str(path), "--eta", "0.3", "--T", "50", "--z0", "2,2",
            "--out", str(out_dir),
        ]) == 0
        assert calls == []
        last = (out_dir / "trajectory.csv").read_text().strip().splitlines()[-1].split(",")
        assert abs(float(last[1]) + float(last[2]) - 1.0) < 1e-6  # the run ends on the row

    @pytest.mark.parametrize("rows", [3, 4])
    def test_eg_solve_on_halfspaces_never_reaches_the_nnls(self, rows, tmp_path, monkeypatch):
        # an instance drawn as the cli-mixed benchmark draws its halfspace
        # items: the active-set iteration answers every projection of the run,
        # of its tangent-cone and natural-residual series and of its reference solve
        rng = np.random.default_rng(rows)
        n = 4
        skew, G = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        M = (1.5 * (skew - skew.T) / np.linalg.norm(skew - skew.T, 2)
             + 0.3 * G.T @ G / np.linalg.norm(G.T @ G, 2) + 0.5 * np.eye(n))
        op = AffineOperator.create(M, rng.standard_normal(n))
        z0, a = rng.standard_normal(n), rng.standard_normal((rows, n))
        feasible = HalfspaceIntersection(list(zip(a, a @ z0 - rng.uniform(0.0, 0.5, rows))))
        path = tmp_path / "instance.json"
        save_instance(VIInstance.create(op, feasible), str(path))
        calls = []
        monkeypatch.setattr(sets, "_nnls", counted(sets._nnls, calls))
        assert main([
            "solve", "--instance", str(path), "--solver", "eg", "--eta", repr(0.5 / op.lipschitz),
            "--T", "100", f"--z0={','.join(map(repr, z0.tolist()))}", "--out", str(tmp_path / "out"),
        ]) == 0
        assert calls == []

    def test_pp_solve_on_a_narrow_wedge(self, tmp_path, monkeypatch, capsys):
        # {x + 1e-8 y >= 1, -x + 1e-8 y >= 1}: the run ends at the vertex
        # (0, 1e8); when Lemke's method is made the route, it ends on a ray of
        # the rounded LCP, and the error names the two rows
        op = AffineOperator.create(np.array([[0.2, -1.0], [1.0, 0.2]]), np.array([0.5, -0.25]))
        wedge = HalfspaceIntersection([(np.array([1.0, 1e-8]), 1.0), (np.array([-1.0, 1e-8]), 1.0)])
        path = tmp_path / "instance.json"
        save_instance(VIInstance.create(op, wedge), str(path))
        flags = ["solve", "--instance", str(path), "--solver", "pp", "--eta", "0.4", "--T", "5",
                 "--z0=0,1e8"]
        assert main([*flags, "--out", str(tmp_path / "out")]) == 0
        last = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()[-1].split(",")
        np.testing.assert_allclose([float(last[1]), float(last[2])], [0.0, 1e8], rtol=0, atol=1e-1)
        vi_searches_go_cold(monkeypatch)
        assert main([*flags, "--out", str(tmp_path / "ray")]) == 1
        assert "rows 0 and 1 are nearly parallel" in capsys.readouterr().err

    def test_near_contradictory_halfspaces_name_the_empty_set(self, tmp_path, capsys):
        # the first of the 300 systems in tests/test_affine_vi.py on which the
        # NNLS used to run out of passes and raise LinAlgError
        rng = np.random.default_rng(0)
        for _ in range(18):
            a, b, i = rng.standard_normal((4, 4)), rng.standard_normal(4), rng.integers(4)
        rows = [{"a": r.tolist(), "b": float(c)}
                for r, c in zip(np.vstack((a, -a[i])), np.append(b, 1e-3 - b[i]))]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "operator": {"type": "affine", "M": np.eye(4).tolist(), "q": [0.0] * 4},
            "set": {"type": "halfspaces", "rows": rows},
        }))
        assert main(["solve", "--instance", str(path), "--solver", "pp", "--eta", "0.5", "--T", "5",
                     "--out", str(tmp_path / "out")]) == 1
        assert "error: halfspace intersection is empty" in capsys.readouterr().err


class TestRepeatedCallsInOneProcess:
    """The parser is built once per process; no option carries over to the next call."""

    def test_rates_radius_returns_to_the_default(self, tmp_path):
        path = write_instance(tmp_path, [[0.2, -1.0], [1.0, 0.2]], [0.3, -0.2], [-2, -2], [2, 2])
        flags = ["rates", "--instance", str(path), "--eta", "0.3", "--T", "20", "--z0", "1,1"]
        assert main([*flags, "--out", str(tmp_path / "before")]) == 0
        assert main([*flags, "--D", "3", "--out", str(tmp_path / "D3")]) == 0
        assert main([*flags, "--out", str(tmp_path / "after")]) == 0
        before, D3, after = (
            (tmp_path / d / "rates.json").read_bytes() for d in ("before", "D3", "after")
        )
        assert D3 != before
        assert after == before

    def test_mutation_does_not_carry_over(self):
        assert main(["verify-certificates", "--mutate", "sos-2"]) == 2
        assert main(["verify-certificates"]) == 0
