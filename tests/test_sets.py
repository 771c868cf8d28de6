import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egtan.sets import (
    Ball,
    Box,
    ConeActivity,
    EmptySetError,
    HalfspaceIntersection,
    InfeasiblePointError,
    NonnegativeOrthant,
    UnsupportedSetError,
    WholeSpace,
    linear_min_over_set_ball,
    project,
    project_normal_cone,
    project_tangent_cone,
)


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

    def test_row_cap(self):
        rows = [(np.ones(2), -float(i)) for i in range(9)]
        with pytest.raises(ValueError, match="at most 8"):
            HalfspaceIntersection(rows)


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
        feasible = cone([1.0, 0.0], [0.0, 1.0])
        act = feasible.activity(np.array([0.0, 0.5]))
        assert isinstance(act, ConeActivity)
        assert act.active_rows == (0,)
        act = feasible.activity(np.array([5e-10, 0.5]))
        assert act.active_rows == (0,)  # within 1e-9 * (1 + |b|)
        act = feasible.activity(np.array([1e-3, 0.5]))
        assert act.active_rows == ()


class TestLinearMinOverBall:
    def test_whole_space_formula(self):
        feasible = WholeSpace(3)
        center = np.array([1.0, 2.0, 3.0])
        cost = np.array([0.0, 3.0, 4.0])
        z, value = feasible.linear_min_over_ball(center, 2.0, cost)
        assert value == pytest.approx(float(cost @ center) - 2.0 * 5.0, abs=1e-12)
        assert np.linalg.norm(z - center) == pytest.approx(2.0, abs=1e-12)

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


class TestFunctionAliases:
    def test_module_level_ops(self):
        box = Box(np.zeros(2), np.ones(2))
        np.testing.assert_array_equal(project(box, [2.0, 0.5]), [1.0, 0.5])
        np.testing.assert_array_equal(
            project_tangent_cone(box, [1.0, 0.5], [1.0, 1.0]), [0.0, 1.0]
        )
        np.testing.assert_array_equal(
            project_normal_cone(box, [1.0, 0.5], [1.0, 1.0]), [1.0, 0.0]
        )
        _, value = linear_min_over_set_ball(box, np.array([0.5, 0.5]), 0.1, np.array([1.0, 0.0]))
        assert value == pytest.approx(0.4, abs=1e-9)


class TestJsonSchema:
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
