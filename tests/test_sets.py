import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egtan import sets
from egtan.instances import AffineOperator, VIInstance
from egtan.measures import natural_residual, tangent_residual
from egtan.sets import (
    FEASIBILITY_TOL,
    Ball,
    Box,
    EmptySetError,
    HalfspaceIntersection,
    InfeasiblePointError,
    NonnegativeOrthant,
    UnsupportedSetError,
    WholeSpace,
)
from tests.oracles import whole_space_linear_min_over_ball


def cone(*rows):
    return HalfspaceIntersection([(np.array(a, dtype=float), 0.0) for a in rows])


def sample_sets(rng):
    lo = rng.uniform(-2.0, 0.0, 4)
    return [
        WholeSpace(4),
        NonnegativeOrthant(4),
        Box(lo, lo + rng.uniform(0.5, 3.0, 4)),
        Ball(rng.standard_normal(4), float(rng.uniform(0.5, 2.0))),
        HalfspaceIntersection(
            [(rng.standard_normal(4), float(-abs(rng.standard_normal()))) for _ in range(3)]
        ),
    ]


class TestProject:
    def test_box_clip(self):
        np.testing.assert_array_equal(
            Box(np.zeros(2), np.ones(2)).project([2.0, -1.0]), [1.0, 0.0]
        )

    def test_orthant(self):
        np.testing.assert_array_equal(NonnegativeOrthant(2).project([-1.0, 2.0]), [0.0, 2.0])

    def test_halfspace_example_matches_oracle(self):
        # frozen from an SLSQP solve of min ||z - p||^2 over {z1>=0, z1+z2>=0}
        feasible = cone([1.0, 0.0], [1.0, 1.0])
        got = feasible.project([-2.0, 1.0])
        np.testing.assert_allclose(got, [0.0, 1.0], rtol=0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for feasible in sample_sets(rng):
            for _ in range(20):
                p = 3.0 * rng.standard_normal(4)
                once = feasible.project(p)
                twice = feasible.project(once)
                np.testing.assert_allclose(twice, once, rtol=0, atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(22)
        for feasible in sample_sets(rng):
            for _ in range(20):
                p, q = 3.0 * rng.standard_normal(4), 3.0 * rng.standard_normal(4)
                dp = np.linalg.norm(feasible.project(p) - feasible.project(q))
                assert dp <= np.linalg.norm(p - q) + 1e-12

    def test_projection_optimality(self):
        # <p - proj(p), z - proj(p)> <= 0 for sampled feasible z
        rng = np.random.default_rng(23)
        for feasible in sample_sets(rng):
            for _ in range(10):
                p = 3.0 * rng.standard_normal(4)
                w = feasible.project(p)
                for _ in range(10):
                    z = feasible.project(3.0 * rng.standard_normal(4))
                    assert float((p - w) @ (z - w)) <= 1e-10 * (1 + np.linalg.norm(p - w))

    def test_empty_intersection_raises_at_construction(self):
        with pytest.raises(EmptySetError):
            HalfspaceIntersection(
                [(np.array([1.0, 0.0]), 1.0), (np.array([-1.0, 0.0]), 1.0)]
            )

    def test_many_rows_build_and_project(self):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((20, 4))
        feasible = HalfspaceIntersection(list(zip(a, a @ rng.standard_normal(4) - 0.5)))
        for _ in range(20):
            p = 5.0 * rng.standard_normal(4)
            z = feasible.project(p)
            assert feasible.infeasibility(z) <= 1e-12
            np.testing.assert_array_equal(feasible.project(z), z)

    def test_empty_intersection_with_many_rows_raises(self):
        # twelve feasible rows, then a pair that no point can meet
        rng = np.random.default_rng(25)
        a = rng.standard_normal((12, 4))
        rows = list(zip(a, a @ rng.standard_normal(4) - 1.0))
        rows += [(np.array([0.0, 0.0, 1.0, 1.0]), 1.0), (np.array([0.0, 0.0, -2.0, -2.0]), -1.0)]
        with pytest.raises(EmptySetError):
            HalfspaceIntersection(rows)

    def test_far_offsets(self):
        # b near 1e6: a nonempty set far from the origin builds and projects,
        # also points 1e8 away from it
        rng = np.random.default_rng(26)
        a = rng.standard_normal((10, 4))
        z0 = np.full(4, 1e6)
        feasible = HalfspaceIntersection(list(zip(a, a @ z0 - 1.0)))
        for spread in (1e3, 1e8):
            for _ in range(10):
                z = feasible.project(z0 + spread * rng.standard_normal(4))
                assert feasible.infeasibility(z) <= 1e-9 * (1.0 + np.abs(feasible.b).max())

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_narrow_wedge(self, eps):
        # {x + eps y >= 1, -x + eps y >= 1}: the nearest point to 0 is (0, 1/eps)
        feasible = HalfspaceIntersection([([1.0, eps], 1.0), ([-1.0, eps], 1.0)])
        z = feasible.project([0.0, 0.0])
        np.testing.assert_allclose(z, [0.0, 1.0 / eps], atol=1e-12, rtol=1e-12)


class TestConstructorValidation:
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: Box([np.nan, 0.0], [1.0, 1.0]), "l"),
            (lambda: Box([np.inf], [np.inf]), "l"),
            (lambda: Box([0.0, 0.0], [1.0, np.nan]), "u"),
            (lambda: Box([-np.inf], [-np.inf]), "u"),
            (lambda: Ball([np.nan, 0.0], 1.0), "center"),
            (lambda: Ball([0.0, 0.0], np.nan), "radius"),
            (lambda: Ball([0.0, 0.0], np.inf), "radius"),
            (lambda: HalfspaceIntersection([([np.nan, 1.0], 0.0)]), "a"),
            (lambda: HalfspaceIntersection([([0.0, 1.0], np.nan)]), "b"),
        ],
        ids=["nan-l", "inf-l", "nan-u", "minus-inf-u", "nan-center", "nan-radius",
             "inf-radius", "nan-a", "nan-b"],
    )
    def test_non_finite_fields_are_named(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            build()

    def test_infinite_bounds_on_the_open_side_build(self):
        box = Box([-np.inf, 0.0], [np.inf, np.inf])
        np.testing.assert_array_equal(box.project([-5.0, -5.0]), [-5.0, 0.0])


class TestTangentCone:
    def test_orthant_clamps_active_coordinates(self):
        feasible = NonnegativeOrthant(2)
        got = feasible.project_tangent_cone([0.0, 1.0], [-3.0, -1.0])
        np.testing.assert_array_equal(got, [0.0, -1.0])

    def test_interior_point_is_identity(self):
        rng = np.random.default_rng(31)
        box = Box(np.zeros(3), np.ones(3))
        v = rng.standard_normal(3)
        np.testing.assert_array_equal(box.project_tangent_cone([0.5, 0.5, 0.5], v), v)
        ball = Ball(np.zeros(3), 2.0)
        np.testing.assert_array_equal(ball.project_tangent_cone(np.zeros(3), v), v)

    def test_cone_apex_matches_oracle(self):
        # frozen from an SLSQP solve over {d1 >= 0, d1 + d2 >= 0} at the apex
        feasible = cone([1.0, 0.0], [1.0, 1.0])
        got = feasible.project_tangent_cone([0.0, 0.0], [-1.0, -1.0])
        np.testing.assert_allclose(got, [0.0, 0.0], rtol=0, atol=1e-12)

    def test_infeasible_point_raises_with_magnitude(self):
        with pytest.raises(InfeasiblePointError) as err:
            NonnegativeOrthant(2).project_tangent_cone([-1.0, 0.0], [1.0, 1.0])
        assert err.value.magnitude == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "feasible, near, far",
        [
            (Box([0.0, -np.inf], [np.inf, np.inf]), [-1e-3, 1.0], [-1e-3, 1e9]),
            (HalfspaceIntersection([([2.0, 0.0], 0.0)]), [-1e-3, 1.0], [-1e-3, 1e9]),
            (Ball([0.0, 0.0], 1.0), [1.0 + 1e-3, 0.0], None),
            (Ball([0.0, 0.0], 1e9), None, [1e9 + 1e-3, 0.0]),
        ],
        ids=["box", "halfspaces", "unit-ball", "large-ball"],
    )
    def test_feasibility_is_relative_to_the_point_and_the_set(self, feasible, near, far):
        # 1e-3 outside is beyond FEASIBILITY_TOL of a point and set at scale 1,
        # and within it at scale 1e9
        for z, feasible_z in ((near, False), (far, True)):
            if z is None:
                continue
            z = np.array(z)
            tol = FEASIBILITY_TOL * (1.0 + feasible._offset + feasible._normal * np.linalg.norm(z))
            assert feasible.feasibility_tol(z) == pytest.approx(tol, rel=1e-15)
            if feasible_z:
                feasible.project_tangent_cone(z, np.ones(2))
            else:
                with pytest.raises(InfeasiblePointError):
                    feasible.project_tangent_cone(z, np.ones(2))

    @pytest.mark.parametrize(
        "feasible, z",
        [
            (Box([0.0, 0.0], [1.0, 1.0]), [np.nan, 0.5]),
            (Ball([0.0, 0.0], 1.0), [np.nan, 0.0]),
            (HalfspaceIntersection([([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0)]), [np.nan, 0.5]),
            (NonnegativeOrthant(2), [np.inf, 0.0]),
        ],
        ids=["box", "ball", "halfspaces", "orthant-inf"],
    )
    def test_non_finite_point_or_direction_is_named(self, feasible, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way to the error
            with pytest.raises(ValueError, match="^z must be finite"):
                feasible.project_tangent_cone(z, [1.0, 1.0])
            with pytest.raises(ValueError, match="^v must be finite"):
                feasible.project_tangent_cone([0.0, 0.0], [1.0, z[0]])

    def test_contraction(self):
        rng = np.random.default_rng(32)
        for feasible in sample_sets(rng):
            for _ in range(20):
                z = feasible.project(rng.standard_normal(4))
                v = 2.0 * rng.standard_normal(4)
                t = feasible.project_tangent_cone(z, v)
                assert np.linalg.norm(t) <= np.linalg.norm(v) + 1e-12


class TestNormalCone:
    def test_interior_is_zero(self):
        box = Box(np.zeros(2), np.ones(2))
        np.testing.assert_array_equal(
            box.project_normal_cone([0.5, 0.5], [3.0, -4.0]), [0.0, 0.0]
        )

    def test_orthant_moreau_complement(self):
        got = NonnegativeOrthant(2).project_normal_cone([0.0, 1.0], [-3.0, -1.0])
        np.testing.assert_array_equal(got, [-3.0, 0.0])

    def test_moreau_identity(self):
        rng = np.random.default_rng(33)
        for feasible in sample_sets(rng):
            for _ in range(20):
                z = feasible.project(rng.standard_normal(4))
                v = 2.0 * rng.standard_normal(4)
                t = feasible.project_tangent_cone(z, v)
                n = feasible.project_normal_cone(z, v)
                np.testing.assert_allclose(t + n, v, rtol=0, atol=1e-10)
                assert abs(float(t @ n)) <= 1e-10 * (1 + np.linalg.norm(v) ** 2)

    def test_normal_cone_membership(self):
        rng = np.random.default_rng(34)
        for feasible in sample_sets(rng):
            for _ in range(10):
                z = feasible.project(rng.standard_normal(4))
                n = feasible.project_normal_cone(z, 2.0 * rng.standard_normal(4))
                for _ in range(10):
                    zp = feasible.project(2.0 * rng.standard_normal(4))
                    assert float(n @ (zp - z)) <= 1e-10 * (1 + np.linalg.norm(n))


class TestConeActivity:
    def test_activity_tolerance_rule(self):
        # a row is active at, past or within the rounding floor of it
        feasible = cone([1.0, 0.0], [0.0, 1.0])
        assert feasible.activity(np.array([0.0, 0.5])).tolist() == [0]
        assert feasible.activity(np.array([5e-10, 0.5])).tolist() == []  # inside by 5e-10
        assert feasible.activity(np.array([-5e-10, 0.5])).tolist() == [0]  # violated, still feasible
        assert feasible.activity(np.array([1e-3, 0.5])).tolist() == []
        # 0.1 + 0.2 rounds to 0.30000000000000004: the row holds to rounding
        sloped = HalfspaceIntersection([([0.1, 0.2], 0.3), ([0.0, 1.0], 0.0)])
        assert sloped.activity(np.array([1.0, 1.0])).tolist() == [0]
        # the floor grows with |b| and ||z|| alike: about 3.3e-11 at b = 1000
        shifted = HalfspaceIntersection([([1.0, 0.0], 1000.0), ([0.0, 1.0], 0.0)])
        z = np.array([1000.0, 0.5])
        floor = sets._floor(2, 2, 1000.0, np.linalg.norm(z), np.linalg.norm(z))
        assert 3e-11 < floor < 4e-11
        assert shifted.activity(z + [0.5 * floor, 0.0]).tolist() == [0]
        assert shifted.activity(z + [2.0 * floor, 0.0]).tolist() == []
        assert shifted.activity(np.array([1000.0 + 5e-7, 0.5])).tolist() == []

    @pytest.mark.parametrize("feasible", [
        Ball(np.zeros(2), 1.0),
        HalfspaceIntersection([([-1.0, 0.0], -1.0)]),
    ], ids=["disc", "halfplane"])
    def test_tangent_residual_is_at_least_the_natural_residual_just_inside(self, feasible):
        # 5e-10 inside the boundary the point is interior, so r_tan = ||F(z)||;
        # a band of 1e-9 once read it as on the boundary, and r_tan was 0
        inst = VIInstance.create(AffineOperator.create(np.eye(2), np.array([-2.0, 0.0])), feasible)
        z = np.array([1.0 - 5e-10, 0.0])
        r_nat, r_tan = natural_residual(inst, z), tangent_residual(inst, z)
        assert r_nat == pytest.approx(5e-10, rel=1e-6)
        assert r_tan == pytest.approx(1.0 + 5e-10, rel=1e-15)
        assert r_tan >= r_nat

    @pytest.mark.parametrize("feasible", [cone([1.0, 0.0]), cone([1.0, 0.0], [0.0, 1.0])],
                             ids=["halfplane", "quadrant"])
    def test_direction_out_by_less_than_feasibility_tol_is_projected(self, feasible):
        got = feasible.project_tangent_cone(np.zeros(2), np.array([-5e-10, 1e-9]))
        np.testing.assert_array_equal(got, [0.0, 1e-9])

    def test_ball_center_is_interior_however_small_the_radius(self):
        # the sphere's floor, relative to ||c|| + R, exceeds R here
        feasible = Ball(np.array([1e6, 0.0]), 1e-12)
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(feasible.project_tangent_cone(feasible.center, v), v)


class TestLinearMinOverBall:
    def test_whole_space_formula(self):
        feasible = WholeSpace(3)
        center = np.array([1.0, 2.0, 3.0])
        cost = np.array([0.0, 3.0, 4.0])
        z, value = feasible.linear_min_over_ball(center, 2.0, cost)
        assert value == pytest.approx(float(cost @ center) - 2.0 * 5.0, abs=1e-12)
        assert np.linalg.norm(z - center) == pytest.approx(2.0, abs=1e-12)

    def test_whole_space_walk_matches_closed_form(self):
        # R^n takes the box breakpoint walk; it must agree with
        # center - D cost / ||cost|| to rounding, zero-cost rows included
        rng = np.random.default_rng(45)
        for n in range(1, 9):
            for _ in range(25):
                k = int(rng.integers(1, 6))
                center = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((k, n))
                cost = 10.0 ** rng.uniform(-3, 3, (k, 1)) * rng.standard_normal((k, n))
                cost[rng.random(k) < 0.25] = 0.0
                D = 10.0 ** rng.uniform(-3, 3)
                z, value = WholeSpace(n).linear_min_over_ball(center, D, cost)
                z_ref, value_ref = whole_space_linear_min_over_ball(center, D, cost)
                scale = np.abs(center).max(axis=1, keepdims=True) + D
                assert np.all(np.abs(z - z_ref) <= 1e-13 * scale)
                bound = 1e-13 * np.linalg.norm(cost, axis=1) * scale[:, 0]
                assert np.all(np.abs(value - value_ref) <= bound)

    def test_zero_cost(self):
        box = Box(np.zeros(2), np.ones(2))
        z, value = box.linear_min_over_ball(np.array([0.5, 0.5]), 1.0, np.zeros(2))
        np.testing.assert_array_equal(z, [0.5, 0.5])
        assert value == 0.0

    def test_box_against_frozen_first_order_oracle(self):
        # frozen from two independent oracles (SLSQP and projected gradient
        # with Dykstra projections) agreeing to 2e-14
        center = np.array(
            [7.739560485559633, 4.388784397520523, 8.585979199113824, 6.973680290593639]
        )
        cost = np.array(
            [-1.9510351886538364, -1.302179506862318, 0.12784040316728537, -0.3162425923435822]
        )
        box = Box(np.zeros(4), np.full(4, 10.0))
        z, value = box.linear_min_over_ball(center, 1.0, cost)
        assert value == pytest.approx(-24.293230320165488, abs=1e-8)
        assert np.linalg.norm(z - center) <= 1.0 + 1e-9
        assert box.infeasibility(z) <= 1e-12

    def test_box_against_live_projected_gradient(self):
        # short projected-gradient run with Dykstra intersection projections
        rng = np.random.default_rng(99)
        lo, hi = np.zeros(4), np.full(4, 10.0)
        box = Box(lo, hi)
        center = rng.uniform(1.0, 9.0, 4)
        cost = rng.standard_normal(4)
        D = 1.0

        def dykstra(p, sweeps=25):
            x = p.copy()
            p_box = np.zeros_like(p)
            p_ball = np.zeros_like(p)
            for _ in range(sweeps):
                y = np.clip(x + p_box, lo, hi)
                p_box = x + p_box - y
                d = y + p_ball - center
                nd = np.linalg.norm(d)
                x = center + (D / nd) * d if nd > D else y + p_ball
                p_ball = y + p_ball - x
            return x

        x = center.copy()
        for _ in range(20_000):
            x = dykstra(x - 1e-3 * cost)
        oracle_value = float(cost @ x)
        _, value = box.linear_min_over_ball(center, D, cost)
        assert value == pytest.approx(oracle_value, abs=1e-6)

    def test_unbounded_direction_rides_the_sphere(self):
        orthant = NonnegativeOrthant(3)
        center = np.array([1.0, 1.0, 1.0])
        cost = np.array([0.0, 0.0, -1.0])  # pushes along the unbounded axis
        z, value = orthant.linear_min_over_ball(center, 2.0, cost)
        np.testing.assert_allclose(z, [1.0, 1.0, 3.0], rtol=0, atol=1e-8)
        assert value == pytest.approx(-3.0, abs=1e-8)

    def test_tiny_cost_beyond_the_old_bracket(self):
        # a bisection over a fixed bracket in 1/t stops at radius 0.05 here
        orthant = NonnegativeOrthant(2)
        z, value = orthant.linear_min_over_ball(np.array([1.0, 1.0]), 1.0, np.array([0.0, -1e-13]))
        np.testing.assert_array_equal(z, [1.0, 2.0])
        assert value == pytest.approx(-2e-13, abs=1e-20)

    def test_cost_dynamic_range(self):
        # the walk normalizes the cost, so a component 1e-150 of the largest
        # still rides the sphere once the large one is blocked ...
        orthant = NonnegativeOrthant(2)
        center = np.array([0.0, 1.0])
        z, _ = orthant.linear_min_over_ball(center, 1.0, np.array([1.0, -1e-150]))
        np.testing.assert_array_equal(z, [0.0, 2.0])
        # ... while one whose square is subnormal (1e-160) counts as zero
        z, _ = orthant.linear_min_over_ball(center, 1.0, np.array([1.0, -1e-160]))
        np.testing.assert_array_equal(z, center)
        # a uniformly tiny cost is not zero: only the ratios count
        z, _ = orthant.linear_min_over_ball(center, 1.0, np.array([1e-200, -1e-200]))
        np.testing.assert_array_equal(z, [0.0, 2.0])

    @pytest.mark.parametrize(
        "name, center, D, cost",
        [
            ("cost", [0.5, 0.5], 1.0, [np.nan, 1.0]),
            ("cost", [0.5, 0.5], 1.0, [np.inf, 1.0]),
            ("D", [0.5, 0.5], np.inf, [1.0, 1.0]),
            ("D", [0.5, 0.5], np.nan, [1.0, 1.0]),
            ("center", [np.nan, 0.5], 1.0, [1.0, 1.0]),
        ],
        ids=["nan-cost", "inf-cost", "inf-D", "nan-D", "nan-center"],
    )
    def test_non_finite_inputs_are_named(self, name, center, D, cost):
        box = Box(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            box.linear_min_over_ball(np.array(center), D, np.array(cost))

    def test_unsupported_variants_fail_loudly(self):
        with pytest.raises(UnsupportedSetError):
            Ball(np.zeros(2), 1.0).linear_min_over_ball(np.zeros(2), 1.0, np.ones(2))
        with pytest.raises(UnsupportedSetError):
            cone([1.0, 0.0]).linear_min_over_ball(np.ones(2), 1.0, np.ones(2))


@st.composite
def box_ball_problems(draw):
    """A Box or orthant, a feasible center, a radius and a cost.

    Coordinates mix finite, half-infinite, free and pinned bounds; the center
    may sit on either bound, and cost components may be zero.
    """
    n = draw(st.integers(1, 6))
    orthant = draw(st.booleans())
    magnitude = st.floats(1e-6, 1e3)  # wider ratios: test_cost_dynamic_range
    cost_entry = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x))
    l, u, center, cost = [], [], [], []
    for _ in range(n):
        kind = "lower" if orthant else draw(
            st.sampled_from(["finite", "lower", "upper", "free", "pinned"])
        )
        a = 0.0 if orthant else draw(st.floats(-10.0, 10.0))
        width = draw(st.floats(0.01, 10.0))
        lo = a if kind in ("finite", "lower", "pinned") else -np.inf
        hi = {"finite": a + width, "upper": a, "pinned": a}.get(kind, np.inf)
        ref_lo = lo if np.isfinite(lo) else (hi if np.isfinite(hi) else a) - width
        ref_hi = hi if np.isfinite(hi) else ref_lo + width
        spot = draw(st.sampled_from(["lower", "upper", "inside"]))
        c = {"lower": ref_lo, "upper": ref_hi}.get(
            spot, ref_lo + draw(st.floats(0.0, 1.0)) * (ref_hi - ref_lo)
        )
        l.append(lo)
        u.append(hi)
        center.append(min(max(c, lo), hi))
        cost.append(draw(cost_entry))
    feasible = NonnegativeOrthant(n) if orthant else Box(np.array(l), np.array(u))
    D = 10.0 ** draw(st.floats(-2.0, 2.0))
    return feasible, np.array(center), D, np.array(cost)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(box_ball_problems())
@example((NonnegativeOrthant(2), np.array([1.0, 1.0]), 1.0, np.array([0.0, -1e-13])))
@example((Box(np.zeros(2), np.ones(2)), np.array([0.0, 1.0]), 0.5, np.array([2.0, -1.0])))
# D lies past the first breakpoint (radius hypot(0.5, 0.25) at t = 0.25)
@example((Box(np.zeros(2), np.ones(2)), np.array([0.5, 0.5]), 0.65, np.array([1.0, 2.0])))
# D is the corner distance summed in breakpoint order, one ulp below its norm
@example((NonnegativeOrthant(3), np.array([0.04, 0.73, 0.61]), 0.9521554494934111, np.ones(3)))
def test_linear_min_over_ball_properties(problem):
    feasible, center, D, cost = problem
    z, value = feasible.linear_min_over_ball(center, D, cost)
    dist = np.linalg.norm(z - center)
    assert feasible.infeasibility(z) == 0.0
    assert dist <= D * (1 + 1e-12)
    corner = np.where(cost > 0, feasible.l, np.where(cost < 0, feasible.u, center))
    assert dist >= D * (1 - 1e-12) or np.array_equal(z, corner)
    # clipping a point of the ball toward the box keeps it in the ball
    rng = np.random.default_rng(0)
    steps = rng.standard_normal((500, center.size))
    steps /= np.linalg.norm(steps, axis=1, keepdims=True)
    steps *= D * rng.random((500, 1)) ** (1 / center.size)  # uniform in the ball
    others = np.clip(center + steps, feasible.l, feasible.u)
    tol = 1e-12 * (1.0 + np.abs(cost) @ (np.abs(center) + D))
    assert np.min(others @ cost) >= value - tol


@st.composite
def box_projection_problems(draw):
    """A Box or orthant and a point or ``(k, n)`` stack to project.

    Bounds mix finite, half-infinite, free and pinned coordinates, including
    pins at ``-0.0`` or ``+0.0``; entries of the points include signed zeros,
    the bounds themselves, infinities and NaN.
    """
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        feasible = NonnegativeOrthant(n)
    else:
        l, u = [], []
        for _ in range(n):
            kind = draw(st.sampled_from(["finite", "lower", "upper", "free", "pinned", "zero"]))
            a = draw(st.floats(-10.0, 10.0))
            if kind == "zero":
                lo, hi = draw(st.sampled_from([(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0)]))
            else:
                lo = a if kind in ("finite", "lower", "pinned") else -np.inf
                hi = {"finite": a + draw(st.floats(0.0, 10.0)), "upper": a, "pinned": a}.get(
                    kind, np.inf
                )
            l.append(lo)
            u.append(hi)
        feasible = Box(np.array(l), np.array(u))
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
    entry = st.one_of(st.floats(-20.0, 20.0), special, st.sampled_from(feasible.l.tolist()),
                      st.sampled_from(feasible.u.tolist()))
    k = draw(st.sampled_from([None, 1, 2, 5]))
    shape = (n,) if k is None else (k, n)
    p = np.array(draw(st.lists(entry, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))))
    return feasible, p.reshape(shape)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(box_projection_problems())
def test_box_project_equals_clip(problem):
    # min/max equals np.clip under ==, with NaN propagating as clip does; a
    # point's zeros also keep clip's sign, so iterates print alike.  The
    # public project takes finite points only, and gives the same bits.
    feasible, p = problem
    got, clipped = feasible._project(p), np.clip(p, feasible.l, feasible.u)
    assert got.dtype == np.float64 and got.shape == p.shape
    assert np.array_equal(got, clipped, equal_nan=True)
    if p.ndim == 1:
        assert np.array_equal(np.signbit(got[got == 0]), np.signbit(clipped[clipped == 0]))
    if np.isfinite(p).all():
        assert feasible.project(p).tobytes() == got.tobytes()
    else:
        with pytest.raises(ValueError, match="^p must be finite"):
            feasible.project(p)


class TestSetOperations:
    def test_box_operations(self):
        box = Box(np.zeros(2), np.ones(2))
        np.testing.assert_array_equal(box.project([2.0, 0.5]), [1.0, 0.5])
        np.testing.assert_array_equal(
            box.project_tangent_cone([1.0, 0.5], [1.0, 1.0]), [0.0, 1.0]
        )
        np.testing.assert_array_equal(
            box.project_normal_cone([1.0, 0.5], [1.0, 1.0]), [1.0, 0.0]
        )
        _, value = box.linear_min_over_ball(np.array([0.5, 0.5]), 0.1, np.array([1.0, 0.0]))
        assert value == pytest.approx(0.4, abs=1e-9)


class TestJsonSchema:
    def test_whole_space_is_a_box_written_as_rn(self):
        from egtan.sets import set_from_json, set_to_json

        for n in (1, 3):
            assert isinstance(WholeSpace(n), Box)
            assert set_to_json(WholeSpace(n)) == {"type": "rn", "n": n}
            back = set_from_json(set_to_json(WholeSpace(n)))
            assert type(back) is WholeSpace and back.dimension == n

    def test_round_trips(self):
        from egtan.sets import set_from_json, set_to_json

        rng = np.random.default_rng(44)
        for feasible in sample_sets(rng):
            back = set_from_json(set_to_json(feasible))
            assert type(back) is type(feasible)
            assert back.dimension == feasible.dimension
            for _ in range(5):
                p = 3.0 * rng.standard_normal(4)
                np.testing.assert_allclose(back.project(p), feasible.project(p), atol=1e-12)
