from fractions import Fraction

import numpy as np
import pytest

from egtan import counterexamples as ce
from tests.oracles import bilinear_gap_exact, eg_step_exact, natural_residual_sq_exact


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


def printed(x) -> Fraction:
    """A decimal as a record prints it, as an exact rational."""
    return Fraction(repr(float(x)))


@pytest.mark.parametrize("name", sorted(ce.ALL))
def test_the_published_increase_holds_exactly_from_the_printed_data(name):
    # EG in Fractions from the printed A, b, c, eta and z0: the measure rises
    # where the record says, with zero tolerance, and stays within the
    # record's tolerance of every printed value
    record = ce.ALL[name]
    A = [[printed(a) for a in row] for row in record.A]
    b, c, z0 = ([printed(x) for x in v] for v in (record.b, record.c, record.z0))
    eta, lo, hi = printed(record.eta), *map(printed, record.box)
    ell, m = len(b), len(c)
    M = ([[0] * ell + row for row in A]
         + [[-row[j] for row in A] + [0] * m for j in range(m)])  # [[0, A], [-A^T, 0]]
    q, l, u = [-x for x in b] + c, [lo] * (ell + m), [hi] * (ell + m)
    zs, halves = [z0], []
    for _ in record.expected_series:
        half, z_next = eg_step_exact(M, q, l, u, eta, zs[-1])
        halves.append(half)
        zs.append(z_next)

    def dist_sq(a, b):
        return sum((x - y) ** 2 for x, y in zip(a, b))

    assert record.squared == (record.measure != "gap")
    series = {
        "natural-residual": [natural_residual_sq_exact(M, q, l, u, z) for z in zs[:-1]],
        "half-step-dist": [dist_sq(z, h) for z, h in zip(zs, halves)],
        "full-step-dist": [dist_sq(z, w) for z, w in zip(zs, zs[1:])],
        "gap": [bilinear_gap_exact(A, b, c, lo, hi, z) for z in zs[:-1]],
    }[record.measure]
    expected = [printed(e) for e in record.expected_series]
    rises = [k for k in range(len(expected) - 1) if expected[k + 1] > expected[k]]
    assert rises and all(series[k + 1] > series[k] for k in rises)
    assert all(abs(v - e) <= printed(record.series_tolerance) for v, e in zip(series, expected))
