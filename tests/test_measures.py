import numpy as np
import pytest

from egtan.instances import AffineOperator, VIInstance, make_bilinear
from egtan.measures import (
    duality_gap_bilinear,
    gap,
    natural_residual,
    tangent_residual,
    tangent_residual_orthant_closed_form,
    tangent_residual_variants,
    write_measures_csv,
)
from egtan.sets import Box, NonnegativeOrthant, WholeSpace
from tests.test_instances import bilinear_spec


def affine_instance(M, q, feasible):
    return VIInstance.create(AffineOperator.create(np.array(M, dtype=float), np.array(q, dtype=float)), feasible)


def random_orthant_instance(rng, n=4):
    raw = rng.standard_normal((n, n))
    M = raw - raw.T + 0.3 * np.eye(n)
    return affine_instance(M, rng.standard_normal(n), NonnegativeOrthant(n))


class TestNaturalResidual:
    def test_zero_at_solution(self):
        inst = make_bilinear(bilinear_spec(np.array([[1.0, 2.0], [3.0, 4.0]]), [0, 0], [0, 0], lo=-5.0, hi=5.0))
        assert natural_residual(inst, np.zeros(4)) <= 1e-12

    def test_interior_equals_operator_norm(self):
        inst = affine_instance(np.eye(2) * 0.1, [0.0, 0.0], Box(np.zeros(2), np.ones(2)))
        z = np.array([0.5, 0.5])
        # z - F(z) stays inside, so the projection is the identity
        assert natural_residual(inst, z) == pytest.approx(np.linalg.norm(inst.operator(z)), abs=1e-14)

    def test_published_counterexample_value(self):
        inst = make_bilinear(bilinear_spec([[1.0, 2.0], [1.0, 1.0]], [1, 1], [1, 1]))
        z0 = np.array([0.3108455, 0.4825575, 0.4621875, 0.5768655])
        assert natural_residual(inst, z0) ** 2 == pytest.approx(0.15170013184049996, abs=1e-9)


class TestTangentResidual:
    def test_interior_box_point(self):
        # F(z) = (1, -2) at the interior point: residual is the plain norm
        inst = affine_instance(np.zeros((2, 2)), [1.0, -2.0], Box(np.zeros(2), np.full(2, 10.0)))
        assert tangent_residual(inst, np.array([5.0, 5.0])) == pytest.approx(np.sqrt(5.0), abs=1e-14)

    def test_orthant_boundary_drops_blocked_coordinate(self):
        inst = affine_instance(np.zeros((2, 2)), [3.0, -1.0], NonnegativeOrthant(2))
        assert tangent_residual(inst, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-14)

    def test_matches_orthant_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            inst = random_orthant_instance(rng)
            z = np.where(rng.random(4) < 0.4, 0.0, rng.uniform(0.0, 2.0, 4))
            closed = tangent_residual_orthant_closed_form(inst.operator(z), z)
            assert tangent_residual(inst, z) == pytest.approx(closed, abs=1e-10)


class TestOrthantClosedForm:
    def test_all_coordinates_counted(self):
        assert tangent_residual_orthant_closed_form([2.0, 3.0], [1.0, 1.0]) == pytest.approx(np.sqrt(13.0))

    def test_all_excluded(self):
        assert tangent_residual_orthant_closed_form([2.0, 3.0], [0.0, 0.0]) == 0.0

    def test_inward_push_counted_at_boundary(self):
        assert tangent_residual_orthant_closed_form([-2.0, 3.0], [0.0, 0.0]) == pytest.approx(2.0)


class TestVariants:
    def test_interior_all_equal_operator_norm(self):
        inst = affine_instance(np.zeros((2, 2)), [1.0, -2.0], Box(np.zeros(2), np.full(2, 10.0)))
        v = tangent_residual_variants(inst, np.array([5.0, 5.0]))
        for value in v.available():
            assert value == pytest.approx(np.sqrt(5.0), abs=1e-12)
        assert len(v.available()) == 6

    def test_orthant_boundary_example(self):
        inst = affine_instance(np.zeros((2, 2)), [3.0, -1.0], NonnegativeOrthant(2))
        v = tangent_residual_variants(inst, np.array([0.0, 1.0]))
        for value in v.available():
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_random_orthant_spread(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            inst = random_orthant_instance(rng)
            z = np.where(rng.random(4) < 0.4, 0.0, rng.uniform(0.0, 2.0, 4))
            v = tangent_residual_variants(inst, z)
            assert len(v.available()) == 6
            assert v.spread() <= 1e-9

    def test_pinned_coordinates_and_blocked_corners(self):
        # box with two pinned coordinates (l == u); includes a corner where
        # every coordinate is blocked and the residual is exactly zero
        op = AffineOperator.create(
            np.array([[0.2, -1.0, 0.3], [1.0, 0.1, 0.0], [-0.3, 0.0, 0.4]]),
            np.array([0.5, -1.2, 0.7]),
        )
        feasible = Box(np.array([0.0, 1.0, -1.0]), np.array([2.0, 1.0, -1.0]))
        inst = VIInstance.create(op, feasible)
        for z in ([0.5, 1.0, -1.0], [0.0, 1.0, -1.0], [2.0, 1.0, -1.0]):
            v = tangent_residual_variants(inst, np.array(z))
            assert len(v.available()) == 6
            assert v.spread() <= 1e-12

    def test_maximizer_routes_unavailable_off_box(self):
        from egtan.sets import HalfspaceIntersection

        feasible = HalfspaceIntersection([(np.array([1.0, 1.0]), 0.0)])
        inst = affine_instance(np.eye(2), [0.5, 0.5], feasible)
        v = tangent_residual_variants(inst, np.array([1.0, -1.0]))
        assert v.max_form is None and v.min_norm_form is None
        assert len(v.available()) == 4
        assert v.spread() <= 1e-9


class TestGap:
    def test_whole_space_value(self):
        inst = affine_instance(np.zeros((2, 2)), [3.0, 4.0], WholeSpace(2))
        assert gap(inst, np.zeros(2), 2.0) == pytest.approx(10.0, abs=1e-12)

    def test_zero_operator(self):
        inst = affine_instance(np.zeros((2, 2)), [0.0, 0.0], Box(np.zeros(2), np.ones(2)))
        assert gap(inst, np.array([0.5, 0.5]), 1.0) == 0.0

    def test_box_gap_matches_frozen_oracle(self):
        # same frozen first-order-oracle instance as the sets test:
        # gap = <F(z), z> - min <F(z), z'> with the minimum at -24.293230320165488
        inst = affine_instance(
            np.zeros((4, 4)),
            [-1.9510351886538364, -1.302179506862318, 0.12784040316728537, -0.3162425923435822],
            Box(np.zeros(4), np.full(4, 10.0)),
        )
        z = np.array([7.739560485559633, 4.388784397520523, 8.585979199113824, 6.973680290593639])
        expected = float(inst.operator(z) @ z) - (-24.293230320165488)
        assert gap(inst, z, 1.0) == pytest.approx(expected, abs=1e-6)

    def test_gap_bounded_by_tangent_residual(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            inst = random_orthant_instance(rng)
            z = rng.uniform(0.0, 2.0, 4)
            z[rng.integers(0, 4)] = 0.0
            D = float(rng.uniform(0.5, 3.0))
            assert gap(inst, z, D) <= D * tangent_residual(inst, z) + 1e-8

    @pytest.mark.parametrize(
        "name, z, D",
        [("z", [np.nan, 0.5], 1.0), ("D", [0.5, 0.5], np.inf), ("D", [0.5, 0.5], np.nan)],
        ids=["nan-z", "inf-D", "nan-D"],
    )
    def test_non_finite_inputs_are_named(self, name, z, D):
        inst = affine_instance(np.eye(2), [1.0, -1.0], Box(np.zeros(2), np.ones(2)))
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gap(inst, np.array(z), D)


class TestDualityGapBilinear:
    def test_zero_game(self):
        spec = bilinear_spec(np.zeros((2, 2)), [0, 0], [0, 0])
        assert duality_gap_bilinear(spec, np.array([1.0, 2.0, 3.0, 4.0])) == 0.0

    def test_single_coordinate_game(self):
        spec = bilinear_spec(np.array([[1.0]]), [0.0], [0.0], lo=0.0, hi=1.0)
        assert duality_gap_bilinear(spec, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_published_gap_series(self):
        from egtan.counterexamples import GAP

        traj = GAP.run()
        series = GAP.measured_series(traj)
        for got, want in zip(series, GAP.expected_series):
            assert got == pytest.approx(want, abs=3e-8)
        assert series[0] > series[1] < series[2]  # the published non-monotonicity

    def test_dominates_restricted_gap(self):
        # duality gap over the full box upper bounds the ball-restricted gap
        rng = np.random.default_rng(20)
        spec = bilinear_spec(rng.standard_normal((2, 2)), [0, 0], [0, 0], lo=0.0, hi=1.0)
        inst = make_bilinear(spec)
        z = rng.uniform(0.0, 1.0, 4)
        assert duality_gap_bilinear(spec, z) >= gap(inst, z, 0.5) - 1e-10


class TestDomination:
    def test_tangent_dominates_natural(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            inst = random_orthant_instance(rng)
            z = np.where(rng.random(4) < 0.3, 0.0, rng.uniform(0.0, 2.0, 4))
            assert tangent_residual(inst, z) >= natural_residual(inst, z) - 1e-10


class TestCsvExport:
    def test_measure_csv_shape(self, tmp_path):
        from egtan.solvers import SolverConfig, eg_run

        inst = make_bilinear(bilinear_spec([[1.0, 2.0], [1.0, 1.0]], [1, 1], [1, 1]))
        traj = eg_run(inst, SolverConfig(eta=0.1, T=3), np.full(4, 0.5))
        path = tmp_path / "measures.csv"
        with open(path, "w", newline="") as fh:
            write_measures_csv(fh, traj.measure_series(D=1.0))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,r_nat,r_tan,gap,dist_half,dist_full"
        assert len(lines) == 5
        # full 17-significant-digit decimals survive a parse round trip
        first = lines[1].split(",")
        assert float(first[1]) == natural_residual(inst, traj.iterates[0])
