import numpy as np
import pytest

from egtan.instances import (
    AffineOperator,
    BilinearGameSpec,
    DimensionMismatchError,
    instance_from_json,
    instance_to_json,
    make_bilinear,
    matrix_constants,
)
from tests.oracles import check_monotone_samples


def bilinear_spec(A, b, c, lo=0.0, hi=10.0):
    A = np.array(A, dtype=float)
    ell, m = A.shape
    return BilinearGameSpec.create(
        A, np.array(b, dtype=float), np.array(c, dtype=float),
        (np.full(ell, lo), np.full(ell, hi)),
        (np.full(m, lo), np.full(m, hi)),
    )


COUNTEREXAMPLE_A = [[1.0, 2.0], [1.0, 1.0]]


class TestMakeBilinear:
    def test_block_structure(self):
        inst = make_bilinear(bilinear_spec(COUNTEREXAMPLE_A, [1, 1], [1, 1]))
        expected_M = np.array(
            [[0, 0, 1, 2], [0, 0, 1, 1], [-1, -1, 0, 0], [-2, -1, 0, 0]], dtype=float
        )
        np.testing.assert_array_equal(inst.operator.M, expected_M)
        np.testing.assert_array_equal(inst.operator.q, [-1, -1, 1, 1])
        assert inst.operator.gamma == 0.0
        assert inst.dimension == 4

    def test_zero_game(self):
        inst = make_bilinear(bilinear_spec(np.zeros((2, 2)), [0, 0], [0, 0]))
        np.testing.assert_array_equal(inst.operator.q, np.zeros(4))
        for z in (np.zeros(4), np.array([1.0, 2.0, 3.0, 4.0])):
            np.testing.assert_array_equal(inst.operator(z), np.zeros(4))

    def test_lipschitz_matches_svd_oracle(self):
        # oracle: dense SVD of A, independent of the power iteration
        sigma_max = np.linalg.svd(np.array(COUNTEREXAMPLE_A), compute_uv=False)[0]
        inst = make_bilinear(bilinear_spec(COUNTEREXAMPLE_A, [1, 1], [1, 1]))
        assert abs(inst.operator.lipschitz - sigma_max) < 1e-10

    def test_dimension_mismatch_names_field(self):
        with pytest.raises(DimensionMismatchError) as err:
            BilinearGameSpec.create(
                np.eye(2), np.zeros(3), np.zeros(2),
                (np.zeros(2), np.ones(2)), (np.zeros(2), np.ones(2)),
            )
        assert err.value.field_name == "b"

    def test_bad_box_bounds(self):
        with pytest.raises(ValueError, match="l <= u"):
            bilinear_spec(np.eye(2), [0, 0], [0, 0], lo=1.0, hi=0.0)

    # Box rejects these too, but only later and naming l or u, not the field
    @pytest.mark.parametrize("field", ["x_box", "y_box"])
    @pytest.mark.parametrize("bounds, message", [
        (([np.nan, 0.0], [1.0, 1.0]), "lower bounds must not be nan or \\+inf"),
        (([np.inf, 0.0], [1.0, 1.0]), "lower bounds must not be nan or \\+inf"),
        (([0.0, 0.0], [1.0, np.nan]), "upper bounds must not be nan or -inf"),
        (([0.0, 0.0], [1.0, -np.inf]), "upper bounds must not be nan or -inf"),
    ])
    def test_non_finite_box_bound_names_field(self, field, bounds, message):
        boxes = {"x_box": ([0.0, 0.0], [1.0, 1.0]), "y_box": ([0.0, 0.0], [1.0, 1.0]), field: bounds}
        with pytest.raises(ValueError, match=f"^{field} {message}"):
            BilinearGameSpec.create(np.eye(2), np.zeros(2), np.zeros(2), **boxes)


class TestEvalOperator:
    def test_identity(self):
        op = AffineOperator.create(np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(op(np.array([3.0, -1.0])), [3.0, -1.0])

    def test_constant(self):
        op = AffineOperator.create(np.zeros((2, 2)), np.array([1.0, 2.0]))
        for z in (np.zeros(2), np.array([5.0, -7.0])):
            np.testing.assert_array_equal(op(z), [1.0, 2.0])

    def test_bilinear_point_matches_manual_matvec(self):
        inst = make_bilinear(bilinear_spec(COUNTEREXAMPLE_A, [1, 1], [1, 1]))
        z = np.array([0.3108455, 0.4825575, 0.4621875, 0.5768655])
        # oracle: scalar-loop mat-vec, no numpy linear algebra
        M, q = inst.operator.M, inst.operator.q
        expected = [sum(M[i][j] * z[j] for j in range(4)) + q[i] for i in range(4)]
        got = inst.operator(z)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        op = AffineOperator.create(np.eye(2), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            op(np.zeros(3))

    def test_other_inputs_are_converted_or_refused_by_name(self):
        op = AffineOperator.create(np.array([[0.5, -1.0], [1.0, 0.5]]), np.array([0.1, 0.2]))
        z = np.array([3.0, -2.0])
        want = op.M @ z + op.q
        for other in ([3.0, -2.0], (3, -2), np.array([3, -2]), z.astype(np.float32),
                      z.astype(">f8"), np.array([3.0, 9.0, -2.0])[::2]):
            got = op(other)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), [1.0], 1.0):
            with pytest.raises(DimensionMismatchError, match=r"in z: expected shape \(2,\)"):
                op(bad)

    def test_stack_matches_per_row_calls_bit_for_bit(self):
        # z @ M.T + q sums in another order and differs in the last bit on
        # most draws; the stacked call must not
        rng = np.random.default_rng(71)
        for n in range(1, 9):
            for k in (0, 1, 2, 7, 101):
                op = AffineOperator.create(rng.standard_normal((n, n)), rng.standard_normal(n))
                Z = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((k, n))
                got = op(Z)
                want = np.array([op(z) for z in Z]).reshape(k, n)
                assert got.shape == (k, n) and got.tobytes() == want.tobytes()


class TestEmptyOperator:
    @pytest.mark.parametrize("build", [
        lambda: AffineOperator.create(np.zeros((0, 0)), np.zeros(0)),
        lambda: matrix_constants(np.zeros((0, 0))),
    ], ids=["create", "matrix_constants"])
    def test_empty_matrix_names_M(self, build):
        with pytest.raises(DimensionMismatchError, match="nonempty square matrix") as err:
            build()
        assert err.value.field_name == "M"


class TestCreateRejectsNonFinite:
    # a NaN in M used to surface as a PowerIterationError, an inf in q not at all
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_matrix(self, bad):
        M = np.eye(2)
        M[0, 1] = bad
        with pytest.raises(ValueError, match="^M must be finite"):
            AffineOperator.create(M, np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_offset(self, bad):
        with pytest.raises(ValueError, match="^q must be finite"):
            AffineOperator.create(np.eye(2), np.array([bad, 0.0]))

    @pytest.mark.parametrize("field", ["A", "b", "c"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_game_data(self, field, bad):
        # a NaN in A used to run the power iteration to its cap, an inf in b
        # was reported against q
        data = {"A": np.eye(2), "b": np.zeros(2), "c": np.zeros(2)}
        data[field].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            bilinear_spec(data["A"], data["b"], data["c"])


class TestEstimateConstants:
    def test_identity(self):
        lip, gamma = matrix_constants(AffineOperator.create(np.eye(3), np.zeros(3)).M)
        assert abs(lip - 1.0) < 1e-10
        assert abs(gamma - 1.0) < 1e-10

    def test_skew_gamma_zero(self):
        S = np.array([[0.0, 2.0], [-2.0, 0.0]])
        _, gamma = matrix_constants(S)
        assert abs(gamma) < 1e-8

    def test_against_dense_eigen_oracle(self):
        M = np.array([[2.0, 1.0], [0.0, 2.0]])
        lip, gamma = matrix_constants(M)
        lip0 = np.linalg.svd(M, compute_uv=False)[0]
        gamma0 = np.linalg.eigvalsh(0.5 * (M + M.T)).min()
        assert abs(lip - lip0) <= 1e-8 * lip0
        assert abs(gamma - gamma0) <= 1e-8

    def test_random_matrices_against_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            M = rng.standard_normal((n, n))
            lip, gamma = matrix_constants(M)
            assert abs(lip - np.linalg.svd(M, compute_uv=False)[0]) <= 1e-8 * max(lip, 1)
            assert abs(gamma - np.linalg.eigvalsh(0.5 * (M + M.T)).min()) <= 1e-8


class TestCheckMonotoneSamples:
    def test_identity_monotone(self):
        assert check_monotone_samples(AffineOperator.create(np.eye(2), np.zeros(2)), 50)

    def test_negated_identity_not_monotone(self):
        assert not check_monotone_samples(AffineOperator.create(-np.eye(2), np.zeros(2)), 50)

    def test_skew_is_monotone(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((5, 5))
        op = AffineOperator.create(raw - raw.T, rng.standard_normal(5))
        assert check_monotone_samples(op, 200, seed=7)


class TestInvariants:
    def test_bilinear_skewness(self):
        rng = np.random.default_rng(11)
        inst = make_bilinear(bilinear_spec(rng.standard_normal((3, 2)), rng.standard_normal(3), rng.standard_normal(2)))
        for _ in range(50):
            z, zp = rng.standard_normal(5), rng.standard_normal(5)
            inner = float((inst.operator(z) - inst.operator(zp)) @ (z - zp))
            assert abs(inner) <= 1e-12 * max(1.0, np.linalg.norm(z - zp) ** 2)

    def test_bilinear_gamma_near_zero(self):
        rng = np.random.default_rng(12)
        inst = make_bilinear(bilinear_spec(rng.standard_normal((2, 2)), [0, 0], [0, 0]))
        _, gamma = matrix_constants(inst.operator.M)
        assert abs(gamma) <= 1e-8

    def test_operator_is_affine(self):
        rng = np.random.default_rng(13)
        op = AffineOperator.create(rng.standard_normal((4, 4)), rng.standard_normal(4))
        for _ in range(50):
            a = float(rng.uniform(-2, 2))
            z, zp = rng.standard_normal(4), rng.standard_normal(4)
            mix = op(a * z + (1 - a) * zp)
            combo = a * op(z) + (1 - a) * op(zp)
            np.testing.assert_allclose(mix, combo, rtol=0, atol=1e-12 * (1 + np.abs(combo).max()))


class TestJsonSchema:
    def test_affine_round_trip(self):
        rng = np.random.default_rng(5)
        op = AffineOperator.create(rng.standard_normal((3, 3)), rng.standard_normal(3))
        from egtan.instances import VIInstance
        from egtan.sets import Box

        inst = VIInstance.create(op, Box(np.zeros(3), np.ones(3)))
        back = instance_from_json(instance_to_json(inst))
        np.testing.assert_array_equal(back.operator.M, inst.operator.M)
        np.testing.assert_array_equal(back.operator.q, inst.operator.q)
        assert back.dimension == 3

    def test_bilinear_schema_form(self):
        data = {
            "operator": {"type": "bilinear", "A": [[1.0, 2.0], [1.0, 1.0]], "b": [1.0, 1.0], "c": [1.0, 1.0]},
            "set": {"type": "box", "l": [0.0] * 4, "u": [10.0] * 4},
            "dimension": 4,
        }
        inst = instance_from_json(data)
        direct = make_bilinear(bilinear_spec(COUNTEREXAMPLE_A, [1, 1], [1, 1]))
        np.testing.assert_array_equal(inst.operator.M, direct.operator.M)
        np.testing.assert_array_equal(inst.operator.q, direct.operator.q)
        assert inst.operator.lipschitz == direct.operator.lipschitz
        assert inst.operator.gamma == direct.operator.gamma == 0.0

    def test_bilinear_schema_checks_offset_shapes(self):
        data = {
            "operator": {"type": "bilinear", "A": [[1.0, 2.0], [1.0, 1.0]], "b": [1.0, 1.0, 1.0], "c": [5.0]},
            "set": {"type": "box", "l": [0.0] * 4, "u": [10.0] * 4},
        }
        with pytest.raises(DimensionMismatchError, match="in b:") as info:
            instance_from_json(data)
        assert info.value.field_name == "b"
