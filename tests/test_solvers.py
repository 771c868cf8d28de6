import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egtan.instances import AffineOperator, VIInstance, make_bilinear
from egtan.measures import gap, natural_residual, tangent_residual
from egtan.solvers import (
    ReferenceSolveError,
    SolverConfig,
    StepSizeError,
    best_iterate_index,
    eg_run,
    eg_step,
    pp_run,
    pp_step,
    rate_report_eg,
    rate_report_pp,
    solve_reference,
    trajectory_to_json,
    write_trajectory_csv,
)
from egtan.sets import (
    Ball,
    Box,
    HalfspaceIntersection,
    InfeasiblePointError,
    NonnegativeOrthant,
    WholeSpace,
)
from tests.oracles import box_affine_vi_exact, pp_step_exact
from tests.test_affine_vi import SET_KINDS, random_operator, random_set
from tests.test_eg_segments import assert_pp_steps_pinned, assert_steps_pinned, integer_box_instance, pp_run_recorded
from tests.test_instances import bilinear_spec


def scalar_identity_instance():
    return VIInstance.create(AffineOperator.create(np.eye(1), np.zeros(1)), WholeSpace(1))


def zero_operator_instance(n=2):
    op = AffineOperator.create(np.zeros((n, n)), np.zeros(n))
    return VIInstance.create(op, Box(np.zeros(n), np.full(n, 10.0)))


def random_monotone_instance(rng, n=4, mu=0.2):
    raw = rng.standard_normal((n, n))
    M = raw - raw.T + mu * np.eye(n)
    op = AffineOperator.create(M, rng.standard_normal(n))
    return VIInstance.create(op, NonnegativeOrthant(n))


class TestEgStep:
    def test_scalar_closed_form(self):
        inst = scalar_identity_instance()
        z_half, z_next = eg_step(inst, 0.5, np.array([1.0]))
        assert z_half[0] == pytest.approx(0.5, abs=1e-15)
        assert z_next[0] == pytest.approx(0.75, abs=1e-15)

    def test_zero_operator_fixed_point(self):
        inst = zero_operator_instance()
        z = np.array([1.0, 2.0])
        z_half, z_next = eg_step(inst, 0.3, z)
        np.testing.assert_array_equal(z_half, z)
        np.testing.assert_array_equal(z_next, z)

    def test_published_trajectory(self):
        inst = make_bilinear(bilinear_spec([[1.0, 2.0], [1.0, 1.0]], [1, 1], [1, 1]))
        z0 = np.array([0.3108455, 0.4825575, 0.4621875, 0.5768655])
        _, z1 = eg_step(inst, 0.1, z0)
        _, z2 = eg_step(inst, 0.1, z1)
        np.testing.assert_allclose(z1, [0.24923465, 0.47967569, 0.43497808, 0.57458145], rtol=0, atol=1e-7)
        np.testing.assert_allclose(z2, [0.19396855, 0.48164918, 0.40193211, 0.56061753], rtol=0, atol=1e-7)


BAD_STEP_SIZES = [float("nan"), float("inf"), 0.0, -1.0]


class TestSolverConfig:
    @pytest.mark.parametrize("eta", BAD_STEP_SIZES)
    def test_step_size_must_be_finite_and_positive(self, eta):
        with pytest.raises(ValueError, match="eta"):
            SolverConfig(eta=eta, T=1)


class TestStepFunctionsCheckEta:
    # a NaN eta used to give NaN iterates (eg_step), a NaN prox matrix
    # (pp_step), or up to 2M EG iterations (solve_reference)
    @pytest.mark.parametrize("eta", BAD_STEP_SIZES)
    def test_eg_step(self, eta):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            eg_step(zero_operator_instance(), eta, np.ones(2))

    @pytest.mark.parametrize("eta", BAD_STEP_SIZES)
    def test_pp_step(self, eta):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            pp_step(scalar_identity_instance(), eta, np.array([1.0]))

    @pytest.mark.parametrize("eta", BAD_STEP_SIZES)
    def test_solve_reference(self, eta):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            solve_reference(scalar_identity_instance(), eta)


class TestArrayTrajectories:
    def test_runs_fill_arrays_step_by_step(self):
        inst = random_monotone_instance(np.random.default_rng(7))
        eta = 0.5 / inst.operator.lipschitz
        z0 = np.full(4, 0.5)
        eg = eg_run(inst, SolverConfig(eta=eta, T=6), z0)
        pp, made = pp_run_recorded(inst, SolverConfig(eta=eta, T=6), z0)
        for traj in (eg, pp):
            assert type(traj.iterates) is np.ndarray and traj.iterates.shape == (7, 4)
            assert type(traj.operator_values) is np.ndarray and traj.operator_values.shape == (7, 4)
            for z, F_z in zip(traj.iterates, traj.operator_values):
                np.testing.assert_array_equal(F_z, inst.operator(z))
        assert type(eg.half_iterates) is np.ndarray and eg.half_iterates.shape == (6, 4)
        assert pp.half_iterates is None
        # EG and PP on a box run in affine segments (tests/test_eg_segments.py):
        # each point step and half step is exact, each block step within the
        # rounding floor
        assert_steps_pinned(inst, eta, eg)
        assert_pp_steps_pinned(inst, eta, pp, made)


    @pytest.mark.parametrize("solver, T, gap_stride, feasible", [
        ("eg", 30, 1, None), ("pp", 30, 1, None), ("eg", 30, 7, None), ("eg", 0, 1, None),
        ("eg", 12, 1, Ball(np.zeros(4), 0.8)), ("pp", 12, 1, Ball(np.zeros(4), 0.8)),
    ], ids=["eg", "pp", "eg-stride-7", "eg-no-steps", "eg-ball", "pp-ball"])
    def test_measure_series_reuse_the_report_series(self, solver, T, gap_stride, feasible):
        inst = random_monotone_instance(np.random.default_rng(9))
        if feasible is not None:
            inst = VIInstance.create(inst.operator, feasible)
        eta = 0.5 / inst.operator.lipschitz
        run, report_for = (eg_run, rate_report_eg) if solver == "eg" else (pp_run, rate_report_pp)
        traj = run(inst, SolverConfig(eta=eta, T=T), inst.set.project(np.full(4, 0.5)))
        report = report_for(traj, solve_reference(inst, eta=eta), D=0.9, gap_stride=gap_stride)
        reused = traj.measure_series(D=0.9, known=report.series)
        for name, column in traj.measure_series(D=0.9).items():
            if column is None:
                assert reused[name] is None
            else:
                np.testing.assert_array_equal(reused[name], column)

    def test_series_match_per_point_loops(self):
        inst = random_monotone_instance(np.random.default_rng(8))
        eta = 0.5 / inst.operator.lipschitz
        z_star = solve_reference(inst, eta=eta)
        traj = eg_run(inst, SolverConfig(eta=eta, T=30), np.full(4, 0.5))
        zs, halfs = traj.iterates, traj.half_iterates
        np.testing.assert_array_equal(
            traj.series("tangent-residual"), [tangent_residual(inst, z) for z in zs]
        )
        np.testing.assert_array_equal(
            traj.series("gap", D=0.7, ks=[2, 5]), [gap(inst, zs[2], 0.7), gap(inst, zs[5], 0.7)]
        )
        loops = {
            "half-step-dist": [np.linalg.norm(z - h) for z, h in zip(zs, halfs)],
            "full-step-dist": [np.linalg.norm(a - b) for a, b in zip(zs, zs[1:])],
            "dist-to-solution": [np.linalg.norm(z - z_star) for z in zs],
        }
        for name, expected in loops.items():
            np.testing.assert_allclose(traj.series(name, z_star=z_star), expected, rtol=1e-14, atol=0)


class TestEgRun:
    def test_zero_steps(self):
        inst = zero_operator_instance()
        traj = eg_run(inst, SolverConfig(eta=0.1, T=0), np.ones(2))
        assert len(traj) == 1
        np.testing.assert_array_equal(traj.iterates[0], np.ones(2))

    def test_constant_for_zero_operator(self):
        inst = zero_operator_instance()
        traj = eg_run(inst, SolverConfig(eta=0.1, T=5), np.ones(2))
        for z in traj.iterates:
            np.testing.assert_array_equal(z, np.ones(2))

    def test_published_gap_trajectory(self):
        inst = make_bilinear(
            bilinear_spec([[-0.21025101, 0.22360196], [0.40667685, -0.2922158]], [0, 0], [0, 0])
        )
        z0 = np.array([0.53095379, 0.29084076, 0.62132986, 0.49440498])
        traj = eg_run(inst, SolverConfig(eta=0.1, T=2), z0)
        np.testing.assert_allclose(
            traj.iterates[1], [0.53290086, 0.28009156, 0.62151204, 0.4981395], rtol=0, atol=1e-7
        )
        np.testing.assert_allclose(
            traj.iterates[2], [0.5347502, 0.26947398, 0.62122195, 0.50222691], rtol=0, atol=1e-7
        )

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        inst = random_monotone_instance(rng)
        z0 = rng.uniform(0, 1, 4)
        eta = 0.5 / inst.operator.lipschitz
        a = eg_run(inst, SolverConfig(eta=eta, T=50), z0)
        b = eg_run(inst, SolverConfig(eta=eta, T=50), z0)
        for za, zb in zip(a.iterates, b.iterates):
            assert np.array_equal(za, zb)

    def test_iterates_stay_feasible(self):
        rng = np.random.default_rng(2)
        inst = random_monotone_instance(rng)
        traj = eg_run(inst, SolverConfig(eta=0.5 / inst.operator.lipschitz, T=50), rng.uniform(0, 1, 4))
        for z in traj.iterates:
            assert inst.set.infeasibility(z) <= 1e-9

    def test_unconstrained_operator_norm_monotone(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            raw = rng.standard_normal((4, 4))
            op = AffineOperator.create(raw - raw.T + 0.1 * np.eye(4), rng.standard_normal(4))
            inst = VIInstance.create(op, WholeSpace(4))
            traj = eg_run(
                inst, SolverConfig(eta=0.8 / op.lipschitz, T=60), rng.standard_normal(4)
            )
            norms = [np.linalg.norm(F) for F in traj.operator_values]
            for a, b in zip(norms, norms[1:]):
                assert b <= a + 1e-10

    def test_large_step_warns(self):
        inst = scalar_identity_instance()
        with pytest.warns(UserWarning, match="eta"):
            eg_run(inst, SolverConfig(eta=2.0, T=1), np.array([1.0]))


class TestPpStep:
    def test_contraction_precondition(self):
        inst = scalar_identity_instance()
        with pytest.raises(StepSizeError):
            pp_step(inst, 1.0, np.array([1.0]))

    def test_run_with_a_large_step_names_the_proximal_point_step(self):
        with pytest.raises(StepSizeError, match="^the proximal-point step needs eta \\* L < 1"):
            pp_run(scalar_identity_instance(), SolverConfig(eta=1.0, T=1), np.array([1.0]))

    @pytest.mark.parametrize("needs, call", [
        ("the reference solve", lambda inst, traj: solve_reference(inst, 2.0)),
        ("a rate report", lambda inst, traj: rate_report_eg(traj, np.zeros(1))),
    ])
    def test_each_contraction_message_names_what_needs_it(self, needs, call):
        inst = scalar_identity_instance()
        with pytest.warns(UserWarning):
            traj = eg_run(inst, SolverConfig(eta=2.0, T=2), np.array([1.0]))
        with pytest.raises(StepSizeError, match=f"^{needs} needs eta \\* L < 1 \\(got eta \\* L = 2\\)"):
            call(inst, traj)

    def test_scalar_fixed_point(self):
        inst = scalar_identity_instance()
        z1 = pp_step(inst, 0.5, np.array([1.0]))
        assert z1[0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_orthant_fixed_point_matches_bisection_oracle(self):
        # F(z) = z - 2 on the orthant from z0 = 0: per coordinate w solves
        # w = max(0, -0.5 (w - 2))
        n = 3
        op = AffineOperator.create(np.eye(n), np.full(n, -2.0))
        inst = VIInstance.create(op, NonnegativeOrthant(n))
        got = pp_step(inst, 0.5, np.zeros(n))

        def oracle():
            lo, hi = 0.0, 10.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid - max(0.0, -0.5 * (mid - 2.0)) > 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        w = oracle()
        np.testing.assert_allclose(got, np.full(n, w), rtol=0, atol=1e-14)


class TestPpRun:
    def test_zero_steps_and_zero_operator(self):
        inst = zero_operator_instance()
        assert len(pp_run(inst, SolverConfig(eta=0.1, T=0), np.ones(2))) == 1
        traj = pp_run(inst, SolverConfig(eta=0.1, T=4), np.ones(2))
        for z in traj.iterates:
            np.testing.assert_array_equal(z, np.ones(2))

    def test_consecutive_distances_monotone(self):
        rng = np.random.default_rng(3)
        inst = random_monotone_instance(rng)
        eta = 0.5 / inst.operator.lipschitz
        traj = pp_run(inst, SolverConfig(eta=eta, T=50), rng.uniform(0, 1, 4))
        steps = [np.linalg.norm(a - b) for a, b in zip(traj.iterates, traj.iterates[1:])]
        for a, b in zip(steps, steps[1:]):
            assert b <= a + 1e-9

    def test_nonexpansive_on_pairs(self):
        rng = np.random.default_rng(4)
        inst = random_monotone_instance(rng)
        eta = 0.5 / inst.operator.lipschitz
        for _ in range(20):
            z, zh = rng.uniform(0, 2, 4), rng.uniform(0, 2, 4)
            w = pp_step(inst, eta, z)
            wh = pp_step(inst, eta, zh)
            assert np.linalg.norm(w - wh) <= np.linalg.norm(z - zh) + 1e-8


class TestSolveReference:
    def test_origin_solution(self):
        inst = make_bilinear(bilinear_spec(np.array([[1.0, 2.0], [3.0, 4.0]]), [0, 0], [0, 0], lo=-5.0, hi=5.0))
        z = solve_reference(inst, eta=0.1)
        assert natural_residual(inst, z) <= 1e-11

    def test_strongly_monotone_projected_target(self):
        q = np.array([2.0, -3.0, 1.0])
        op = AffineOperator.create(np.eye(3), -q)  # F(z) = z - q
        inst = VIInstance.create(op, NonnegativeOrthant(3))
        z = solve_reference(inst, eta=0.5)
        np.testing.assert_allclose(z, np.maximum(q, 0.0), rtol=0, atol=1e-10)

    def test_counterexample_reference_matches_long_run_oracle(self):
        # frozen from a dedicated 1e5-step plain-numpy EG loop started at the
        # published point (residual 8.9e-16 there); the solution set is a
        # segment, so the start must match for the comparison to make sense
        inst = make_bilinear(bilinear_spec([[1.0, 2.0], [1.0, 1.0]], [1, 1], [1, 1]))
        z0 = np.array([0.3108455, 0.4825575, 0.4621875, 0.5768655])
        z = solve_reference(inst, eta=0.1, z0=z0)
        oracle = np.array([0.0, 1.0, 0.33167168030075256, 0.6683283196992464])
        np.testing.assert_allclose(z, oracle, rtol=0, atol=1e-8)

    def test_budget_error_carries_best_residual(self, monkeypatch):
        # the residual check never runs in 50 steps here, so the error reports
        # the residual at the last iterate, not "stalled at inf"
        inst = make_bilinear(bilinear_spec([[1.0, 2.0], [1.0, 1.0]], [1, 1], [1, 1]))
        monkeypatch.setattr("egtan.solvers.REFERENCE_TOL", 1e-16)
        monkeypatch.setattr("egtan.solvers.REFERENCE_MAX_ITER", 50)
        with pytest.raises(ReferenceSolveError) as err:
            solve_reference(inst, eta=0.1)
        assert 0 < err.value.best_residual < np.inf
        assert "inf" not in str(err.value)


class TestRateReports:
    def test_zero_operator_all_slack_nonnegative(self):
        inst = zero_operator_instance()
        traj = eg_run(inst, SolverConfig(eta=0.1, T=5), np.ones(2))
        report = rate_report_eg(traj, np.ones(2))
        assert report.passed
        traj = pp_run(inst, SolverConfig(eta=0.1, T=5), np.ones(2))
        assert rate_report_pp(traj, np.ones(2)).passed

    def test_report_records_its_gap_radius(self):
        # the default is 2 ||z0 - z*|| by the 1-D norm, which the CLI's
        # measures.csv used before it read the radius from the report
        rng = np.random.default_rng(5)
        inst = random_monotone_instance(rng)
        eta = 0.5 / inst.operator.lipschitz
        z_star = solve_reference(inst, eta=eta)
        for report_for, run in ((rate_report_eg, eg_run), (rate_report_pp, pp_run)):
            for _ in range(20):
                z0 = rng.uniform(0, 1, 4)
                traj = run(inst, SolverConfig(eta=eta, T=3), z0)
                assert report_for(traj, z_star).radius == 2.0 * float(np.linalg.norm(z0 - z_star))
            assert report_for(traj, z_star, D=0.7).radius == 0.7
            assert report_for(run(inst, SolverConfig(eta=eta, T=3), z_star), z_star).radius == 1.0

    @pytest.mark.parametrize("report_for, run", [(rate_report_eg, eg_run), (rate_report_pp, pp_run)])
    def test_inaccurate_z_star_names_its_residual_and_the_bound(self, monkeypatch, report_for, run):
        inst = scalar_identity_instance()  # F(z) = z, so the natural residual of z is |z|
        traj = run(inst, SolverConfig(eta=0.5, T=3), np.ones(1))
        with pytest.raises(ValueError) as excinfo:
            report_for(traj, np.array([1e-6]))
        assert str(excinfo.value) == (
            "z_star is not accurate enough for rate checks: natural residual 1.000e-06 > 1.0e-10"
        )
        monkeypatch.setattr("egtan.solvers.REPORT_REFERENCE_TOL", 1e-5)  # read at call time
        assert report_for(traj, np.array([1e-6])).radius == 2.0 * (1.0 - 1e-6)

    def test_eg_random_monotone_instance(self):
        rng = np.random.default_rng(5)
        inst = random_monotone_instance(rng)
        eta = 0.5 / inst.operator.lipschitz
        z0 = rng.uniform(0, 1, 4)
        z_star = solve_reference(inst, eta=eta)
        traj = eg_run(inst, SolverConfig(eta=eta, T=200), z0)
        report = rate_report_eg(traj, z_star, gap_stride=10)
        assert report.worst_slack >= -1e-8

    def test_eg_strongly_monotone_linear_rate_rows(self):
        op = AffineOperator.create(np.eye(2), np.array([-1.0, -2.0]))  # gamma = L = 1
        inst = VIInstance.create(op, NonnegativeOrthant(2))
        z_star = solve_reference(inst, eta=0.5)
        traj = eg_run(inst, SolverConfig(eta=0.5, T=60), np.array([3.0, 0.0]))
        report = rate_report_eg(traj, z_star, gap_stride=5)
        assert "strongly_monotone_linear_rate" in report.checks
        assert "gap_bounds_distance" in report.checks
        assert report.worst_slack >= -1e-8

    def test_pp_random_monotone_instance(self):
        rng = np.random.default_rng(6)
        inst = random_monotone_instance(rng)
        eta = 0.5 / inst.operator.lipschitz
        z_star = solve_reference(inst, eta=eta)
        traj = pp_run(inst, SolverConfig(eta=eta, T=50), rng.uniform(0, 1, 4))
        report = rate_report_pp(traj, z_star, gap_stride=5)
        assert report.worst_slack >= -1e-7

    def test_ball_reports_the_gap_checks_as_skipped(self):
        op = AffineOperator.create(np.array([[0.5, -1.0], [1.0, 0.5]]), np.array([1.0, -0.5]))
        inst = VIInstance.create(op, Ball(np.zeros(2), 1.0))
        eta = 0.5 / op.lipschitz
        z_star = solve_reference(inst, eta=eta)
        eg = rate_report_eg(eg_run(inst, SolverConfig(eta=eta, T=20), np.zeros(2)), z_star)
        gap_checks = {"last_iterate_gap_rate", "strongly_monotone_linear_rate", "gap_bounds_distance"}
        assert set(eg.skipped) == gap_checks
        assert set(eg.checks) == {
            "best_iterate_descent",
            "projection_contraction",
            "residual_from_half_step",
            "tangent_residual_monotone",
        }
        assert all("Ball" in reason for reason in eg.skipped.values())
        assert eg.to_json()["skipped"] == eg.skipped
        pp = rate_report_pp(pp_run(inst, SolverConfig(eta=eta, T=20), np.zeros(2)), z_star)
        assert set(pp.skipped) == {"gap_rate"} and "gap_rate" not in pp.checks
        assert eg.passed and pp.passed

    def test_not_strongly_monotone_skips_the_linear_rate(self):
        inst = zero_operator_instance()
        report = rate_report_eg(eg_run(inst, SolverConfig(eta=0.1, T=5), np.ones(2)), np.ones(2))
        assert "last_iterate_gap_rate" in report.checks
        assert set(report.skipped) == {"strongly_monotone_linear_rate", "gap_bounds_distance"}
        assert all("gamma = 0" in reason for reason in report.skipped.values())

    def test_strongly_monotone_box_skips_nothing(self):
        op = AffineOperator.create(np.eye(2), np.array([-1.0, -2.0]))
        inst = VIInstance.create(op, NonnegativeOrthant(2))
        traj = eg_run(inst, SolverConfig(eta=0.5, T=10), np.array([3.0, 0.0]))
        report = rate_report_eg(traj, solve_reference(inst, eta=0.5))
        assert report.skipped == {} and report.to_json()["skipped"] == {}
        assert len(report.checks) == 7

    def test_run_without_steps_skips_the_gap_checks(self):
        inst = zero_operator_instance()
        traj = pp_run(inst, SolverConfig(eta=0.1, T=0), np.ones(2))
        report = rate_report_pp(traj, np.ones(2))
        assert report.skipped == {"gap_rate": "the run has no steps"}

    def test_missing_half_iterates_rejected(self):
        inst = zero_operator_instance()
        traj = pp_run(inst, SolverConfig(eta=0.1, T=2), np.ones(2))
        with pytest.raises(ValueError, match="half iterates"):
            rate_report_eg(traj, np.ones(2))

    def test_rate_report_requires_small_step(self):
        inst = scalar_identity_instance()
        with pytest.warns(UserWarning):
            traj = eg_run(inst, SolverConfig(eta=2.0, T=2), np.array([1.0]))
        with pytest.raises(StepSizeError):
            rate_report_eg(traj, np.zeros(1))


class TestBestIterateIndex:
    def test_constant_trajectory(self):
        inst = zero_operator_instance()
        traj = eg_run(inst, SolverConfig(eta=0.1, T=5), np.ones(2))
        assert best_iterate_index(traj, "natural-residual") == 0

    def test_strictly_decreasing_series(self):
        op = AffineOperator.create(0.5 * np.eye(1), np.zeros(1))
        inst = VIInstance.create(op, WholeSpace(1))
        traj = eg_run(inst, SolverConfig(eta=0.5, T=10), np.array([4.0]))
        assert best_iterate_index(traj, "natural-residual") == 10

    def test_published_nonmonotone_series_picks_middle(self):
        inst = make_bilinear(bilinear_spec([[1.0, 2.0], [1.0, 1.0]], [1, 1], [1, 1]))
        z0 = np.array([0.3108455, 0.4825575, 0.4621875, 0.5768655])
        traj = eg_run(inst, SolverConfig(eta=0.1, T=2), z0)
        assert best_iterate_index(traj, "natural-residual") == 1

    def test_unknown_measure(self):
        inst = zero_operator_instance()
        traj = eg_run(inst, SolverConfig(eta=0.1, T=1), np.ones(2))
        with pytest.raises(KeyError):
            best_iterate_index(traj, "no-such-measure")


class TestExport:
    def test_csv_and_json(self, tmp_path):
        inst = zero_operator_instance()
        traj = eg_run(inst, SolverConfig(eta=0.1, T=2), np.ones(2))
        p = tmp_path / "trajectory.csv"
        with open(p, "w", newline="") as fh:
            write_trajectory_csv(fh, traj)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "k,z0,z1,zhalf0,zhalf1"
        assert len(lines) == 4
        blob = trajectory_to_json(traj)
        assert blob["config"]["T"] == 2
        assert len(blob["iterates"]) == 3
        assert len(blob["half_iterates"]) == 2

    def test_pp_trajectory_export_has_no_half_columns(self, tmp_path):
        inst = zero_operator_instance()
        traj = pp_run(inst, SolverConfig(eta=0.1, T=2), np.ones(2))
        p = tmp_path / "trajectory.csv"
        with open(p, "w", newline="") as fh:
            write_trajectory_csv(fh, traj)
        assert p.read_text().splitlines()[0] == "k,z0,z1"
        assert trajectory_to_json(traj)["half_iterates"] is None


class TestStartValidation:
    def test_infeasible_start_rejected(self):
        inst = zero_operator_instance()
        bad = np.array([-1.0, 0.5])
        for run in (eg_run, pp_run):
            with pytest.raises(InfeasiblePointError, match="^z0 is infeasible by 1.000e\\+00$"):
                run(inst, SolverConfig(eta=0.1, T=1), bad)

    def test_projections_of_far_points_are_feasible_starts(self):
        # points at scale 1e7 projected onto a 6-row set; when the projection
        # carried their rounding across the face, an absolute 1e-9 refused 93
        # of these 100
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 3))
        feasible = HalfspaceIntersection([(row, -1.0) for row in a])
        inst = VIInstance.create(AffineOperator.create(np.eye(3), np.zeros(3)), feasible)
        config = SolverConfig(eta=0.5, T=2)
        for p in 1e7 * rng.standard_normal((100, 3)):
            z = feasible.project(p)
            eg_run(inst, config, z)
            pp_run(inst, config, z)
            feasible.project_tangent_cone(z, -p)

    @pytest.mark.parametrize("kind", ["box", "ball", "halfspaces"])
    def test_a_start_just_outside_a_unit_set_is_refused(self, kind):
        # 1e-6 past the boundary of [0, 1]^2, the unit disc, or x >= 0
        feasible, z = {
            "box": (Box(np.zeros(2), np.ones(2)), np.array([-1e-6, 0.5])),
            "ball": (Ball(np.zeros(2), 1.0), np.array([1.0 + 1e-6, 0.0])),
            "halfspaces": (HalfspaceIntersection([(np.array([1.0, 0.0]), 0.0)]),
                           np.array([-1e-6, 0.5])),
        }[kind]
        inst = VIInstance.create(AffineOperator.create(np.eye(2), np.zeros(2)), feasible)
        for run in (eg_run, pp_run):
            with pytest.raises(ValueError, match="infeasible"):
                run(inst, SolverConfig(eta=0.5, T=1), z)
        with pytest.raises(InfeasiblePointError):
            feasible.project_tangent_cone(z, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_rejected_naming_z0(self, bad):
        inst = zero_operator_instance()
        z0 = np.array([bad, 0.5])
        for run in (eg_run, pp_run):
            with pytest.raises(ValueError, match="^z0 must be finite"):
                run(inst, SolverConfig(eta=0.1, T=1), z0)
        with pytest.raises(ValueError, match="^z0 must be finite"):
            solve_reference(inst, eta=0.1, z0=z0)


POINT_CALLS = {
    "eg_run": (lambda inst, z: eg_run(inst, SolverConfig(eta=0.1, T=1), z), "z0"),
    "pp_run": (lambda inst, z: pp_run(inst, SolverConfig(eta=0.1, T=1), z), "z0"),
    "eg_step": (lambda inst, z: eg_step(inst, 0.1, z), "z_k"),
    "pp_step": (lambda inst, z: pp_step(inst, 0.1, z), "z_k"),
    "solve_reference": (lambda inst, z: solve_reference(inst, eta=0.1, z0=z), "z0"),
}


class TestPointArguments:
    """Every solver entry point checks its point, and the error names the argument."""

    @pytest.mark.parametrize("call", POINT_CALLS)
    @pytest.mark.parametrize("shape", [(1,), (3,), (1, 2)])
    def test_a_point_of_the_wrong_shape_is_named(self, call, shape):
        run, name = POINT_CALLS[call]
        with pytest.raises(ValueError, match=rf"^dimension mismatch in {name}: expected shape \(2,\)"):
            run(zero_operator_instance(), np.full(shape, 0.5))

    @pytest.mark.parametrize("kind", SET_KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pp_step_names_a_non_finite_point(self, kind, bad):
        rng = np.random.default_rng(SET_KINDS.index(kind))
        feasible, z = random_set(rng, kind, 3)
        inst = VIInstance.create(random_operator(rng, 3, monotone=True), feasible)
        z[1] = bad
        with pytest.raises(ValueError, match="^z_k must be finite"):
            pp_step(inst, 0.5 / inst.operator.lipschitz, z)

    @pytest.mark.parametrize("report", [rate_report_eg, rate_report_pp])
    @pytest.mark.parametrize("z_star, message", [
        ([np.nan, 0.5], "^z_star must be finite"),
        ([0.5, -np.inf], "^z_star must be finite"),
        ([0.5], r"^dimension mismatch in z_star: expected shape \(2,\)"),
    ])
    def test_rate_reports_name_z_star(self, report, z_star, message):
        inst = zero_operator_instance()
        traj = eg_run(inst, SolverConfig(eta=0.1, T=2), np.full(2, 0.5))
        with pytest.raises(ValueError, match=message):
            report(traj, np.array(z_star))


@settings(max_examples=30)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_exact_pp_steps_shrink_and_descend_on_integer_boxes(n, seed):
    # the proximal-point theorems with zero tolerance: each step solved in
    # Fractions on the face the float step lands on, and z* likewise on the
    # face of the float reference solution
    M, q, l, u, z0 = integer_box_instance(np.random.default_rng(seed), n)
    assume(np.linalg.matrix_rank(M + M.T) == n)  # x^T M x > 0 for x != 0: one solution
    op = AffineOperator.create(M.astype(float), q.astype(float))
    inst = VIInstance.create(op, Box(l.astype(float), u.astype(float)))
    eta = Fraction(1, math.ceil(2.0 * op.lipschitz))
    rational = [[Fraction(int(m)) for m in row] for row in M]
    z_star = box_affine_vi_exact(inst.set, rational, [Fraction(int(x)) for x in q],
                                 solve_reference(inst, float(eta)))
    zs = [[Fraction(int(x)) for x in z0]]
    for _ in range(20):
        zs.append(pp_step_exact(inst, eta, zs[-1]))

    def dist_sq(a, b):
        return sum((x - y) ** 2 for x, y in zip(a, b))

    steps = [dist_sq(a, b) for a, b in zip(zs, zs[1:])]
    assert all(after <= before for before, after in zip(steps, steps[1:]))
    for z, z_next, step in zip(zs, zs[1:], steps):
        assert dist_sq(z_next, z_star) + step <= dist_sq(z, z_star)
