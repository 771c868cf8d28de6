import numpy as np
import pytest

from egtan import counterexamples as ce


class TestReproduction:
    @pytest.mark.parametrize("name", sorted(ce.ALL))
    def test_published_series_and_trajectories(self, name):
        report = ce.reproduce(name)
        assert report["series_match"], report["series_deviation"]
        assert report["iterates_match"], report["iterate_deviation"]
        assert report["non_monotone"]
        assert report["ok"]

    def test_natural_residual_values_to_1e9(self):
        report = ce.reproduce("natural-residual")
        assert max(report["series_deviation"]) <= 1e-9

    def test_distance_series_to_1e9(self):
        for name in ("half-step-dist", "full-step-dist"):
            report = ce.reproduce(name)
            assert max(report["series_deviation"]) <= 1e-9


class TestGapDomainResolution:
    def test_resolves_to_the_wide_box(self):
        resolution = ce.resolve_gap_domain()
        assert resolution.resolved_box == (0.0, 10.0)
        # the struck [0,1]^2 candidate is off by a factor of ten
        assert resolution.deviations["[0,1]"] > 0.5
        assert resolution.deviations["[0,10]"] <= 3e-8

    def test_print_rounding_explains_the_residual_deviation(self):
        """An O(5e-9) start perturbation reproduces the gap series exactly.

        The published start is printed to eight decimals.  Inside the box the
        run never projects, so iterates and gap are affine in the start; a
        least-squares correction bounded by the print rounding (5e-9 per
        coordinate) must therefore recover the published 17-digit values.
        This pins the resolved domain and formula beyond the 3e-8 tolerance.
        """
        gap_ce = ce.GAP
        spec = gap_ce.spec()
        inst = gap_ce.instance()
        M = inst.operator.M
        eye = np.eye(4)
        one_step = eye - 0.1 * M @ (eye - 0.1 * M)
        z0 = np.array(gap_ce.z0)

        from egtan.measures import duality_gap_bilinear

        def gap_gradient(z):
            # gap(z) = 10 * sum_i max(-F(z)_i, 0) for this b = c = 0 instance
            sign = (M @ z < 0).astype(float)
            return -10.0 * (M.T @ sign)

        rows, rhs = [], []
        z, transfer = z0.copy(), eye
        for want in gap_ce.expected_series:
            rows.append(gap_gradient(z) @ transfer)
            rhs.append(want - duality_gap_bilinear(spec, z))
            z = one_step @ z
            transfer = one_step @ transfer
        correction, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        assert np.max(np.abs(correction)) <= 5e-9  # within print rounding

        z = z0 + correction
        for want in gap_ce.expected_series:
            assert duality_gap_bilinear(spec, z) == pytest.approx(want, abs=1e-12)
            z = one_step @ z

    @pytest.mark.xfail(
        strict=True,
        reason="published gap values carry more precision than the published "
        "start; 1e-9 reproduction is unattainable from the printed inputs "
        "(see test_print_rounding_explains_the_residual_deviation)",
    )
    def test_literal_1e9_gap_match(self):
        report = ce.reproduce("gap")
        assert max(report["series_deviation"]) <= 1e-9


class TestNonMonotonicity:
    def test_detector(self):
        assert ce.is_non_monotone([1.0, 0.5, 0.7])
        assert not ce.is_non_monotone([1.0, 0.5, 0.25])
        assert not ce.is_non_monotone([1.0])
