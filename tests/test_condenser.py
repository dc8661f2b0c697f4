"""Tests for the closed-form condenser layer."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypcap.condenser import cap_hyp_disk, ref_cap_area, ref_cap_perim, triangle_bounds_from_s
from hypcap.hypgeom import polygon_measures, regular_polygon
from hypcap.specfun import mu

SEED = 46111


class TestCapHypDisk:
    def test_closed_values(self):
        M = 2 * math.atanh(0.5)
        assert cap_hyp_disk(M) == pytest.approx(2 * math.pi / math.log(2), rel=1e-14)

    def test_vanishing_plate(self):
        assert cap_hyp_disk(1e-8) < 0.4

    def test_annulus_equivalence(self):
        for M in (0.3, 1.0, 2.7):
            # the annulus th(M/2) < |z| < 1 has capacity 2 pi / log(b/a)
            assert cap_hyp_disk(M) == pytest.approx(
                2 * math.pi / math.log(1.0 / math.tanh(0.5 * M)), rel=1e-14
            )

    @pytest.mark.parametrize("M", [20.0, 30.0, 37.0, 40.0])
    def test_large_radius(self, M):
        # -log th(M/2) = 2 artanh(e^{-M}), free of the cancellation as
        # th(M/2) rounds to 1
        assert cap_hyp_disk(M) == pytest.approx(math.pi / math.atanh(math.exp(-M)), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            cap_hyp_disk(0.0)
        # pi e^M leaves the float range from M = 708.6 on
        for M in (708.7, 709.5, 710.0):
            with pytest.raises(OverflowError):
                cap_hyp_disk(M)


class TestReferenceConstants:
    def test_M1_substitution(self):
        # M1(4 pi) = sqrt 2
        assert ref_cap_area(4 * math.pi) == pytest.approx(4 * math.pi / math.log(2), rel=1e-15)

    def test_M2_substitution(self):
        # M2(2 pi) = 1 + sqrt 2 = e^{arsh 1}
        assert ref_cap_perim(2 * math.pi) == pytest.approx(
            2 * math.pi / math.asinh(1.0), rel=1e-15
        )

    @given(st.floats(1e-6, 700.0))
    def test_disk_formulas_agree(self, M):
        # the disk of hyperbolic radius M has perimeter 2 pi sh M and
        # area 4 pi sh^2(M/2)
        cap = cap_hyp_disk(M)
        assert ref_cap_perim(2 * math.pi * math.sinh(M)) == pytest.approx(cap, rel=1e-13)
        assert ref_cap_area(4 * math.pi * math.sinh(0.5 * M) ** 2) == pytest.approx(cap, rel=1e-13)

    @pytest.mark.parametrize("x", [1e-300, 1e-308, 5e-324])
    def test_tiny_argument(self, x):
        # k / x overflows below about 1e-308, and each log is then
        # log k - log x
        log_disk, log_ref = math.log(2) - math.log(x), math.log(4 * math.pi) - math.log(x)
        assert cap_hyp_disk(x) == pytest.approx(2 * math.pi / log_disk, rel=1e-15)
        assert ref_cap_area(x) == pytest.approx(4 * math.pi / log_ref, rel=1e-15)
        assert ref_cap_perim(x) == pytest.approx(2 * math.pi / log_ref, rel=1e-15)

    def test_area_cap_form(self):
        c = 3.0
        assert ref_cap_area(c) == pytest.approx(
            4 * math.pi / math.log(1 + 4 * math.pi / c), rel=1e-14
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            ref_cap_area(0.0)
        with pytest.raises(ValueError):
            ref_cap_perim(-2.0)


class TestTriangleBounds:
    def test_vanishing_triangle(self):
        # decay toward 0 is logarithmic in s
        lower, upper = triangle_bounds_from_s(1e-4)
        assert 0 < lower < upper < 1.0
        assert triangle_bounds_from_s(1e-100)[0] < 0.05

    def test_values_from_mu(self):
        lower, upper = triangle_bounds_from_s(0.5)
        assert lower == pytest.approx(6 * math.pi / mu(0.125), rel=1e-13)
        assert upper == pytest.approx(
            3 * math.pi / mu(math.sqrt(3) / (2 * math.sqrt(1.3125))), rel=1e-13
        )

    def test_rewrites_agree(self):
        # the paper's perimeter and area forms of the upper bound, at the
        # perimeter u and area v that hyp_dist and Gauss-Bonnet measure,
        # each mu given its complementary modulus: 1 / ch(u/6), and
        # sqrt(d (2 - d)) for d = 1 - 2 sin((pi - v)/6)
        for s in [1e-8, 1e-6, 1e-4, *np.linspace(0.05, 0.95, 19), 0.999]:
            upper = triangle_bounds_from_s(s)[1]
            pm = polygon_measures(regular_polygon(3, s))
            x, v = pm.perimeter / 6, pm.area
            d = 2 * math.sin(v / 12) ** 2 + math.sqrt(3) * math.sin(v / 6)
            upper_perim = 3 * math.pi / mu(math.tanh(x), 1 / math.cosh(x))
            r_prime = 2 * math.sin((math.pi - v) / 6)
            upper_area = (12 / math.pi) * mu(r_prime, math.sqrt(d * (2 - d)))
            assert abs(upper_perim - upper) < 1e-12 * upper, s
            assert abs(upper_area - upper) < 1e-12 * upper, s

    @pytest.mark.parametrize("s", [1 - 1e-9, 1 - 1e-12])
    def test_upper_near_one(self, s):
        # mu(r) mu(r') = pi^2 / 4 and mu(r') = log(4 / r') + O(r'^2), with
        # r' = (1 - s^2) / sqrt(s^4 + s^2 + 1) below 1e-8
        q = math.sqrt(s**4 + s**2 + 1)
        expected = (12 / math.pi) * math.log(4 * q / ((1 - s) * (1 + s)))
        assert triangle_bounds_from_s(s)[1] == pytest.approx(expected, rel=1e-14)

    def test_sandwich_and_monotone(self):
        prev = None
        for s in [*np.linspace(0.05, 0.95, 46), *(1 - 10.0**-k for k in range(4, 16))]:
            lower, upper = triangle_bounds_from_s(s)
            assert lower <= upper
            assert math.isfinite(lower) and math.isfinite(upper)
            if prev is not None:
                assert lower > prev[0]
                assert upper > prev[1]
            prev = lower, upper

    @pytest.mark.parametrize("s", [1e-107, 1e-109, 1e-200, 1e-300])
    def test_subnormal_cube(self, s):
        # s^3 is subnormal or 0, and mu(r) = log 4 - log r to rounding
        lower, upper = triangle_bounds_from_s(s)
        log4 = math.log(4)
        assert lower == pytest.approx(6 * math.pi / (log4 - 3 * math.log(s)), rel=1e-15)
        assert upper == pytest.approx(
            3 * math.pi / (log4 - math.log(math.sqrt(3) * s)), rel=1e-15
        )

    def test_smallest_subnormal(self):
        lower, upper = triangle_bounds_from_s(5e-324)
        assert 0 < lower < upper < math.inf

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                triangle_bounds_from_s(bad)


class TestHatTriangleCap:
    """The lower bound is the capacity 6 pi / mu(s^3) of the three
    spokes [0, s e^{2 pi i k/3}], k = 0, 1, 2."""

    def test_matches_lower_bound(self):
        # s = 1e-4 gives mu a tiny argument, s^3 = 1e-12; the bound passes
        # mu its complementary modulus, so the two differ by rounding
        for s in (1e-4, 0.2, 0.5, 0.8):
            lower, _ = triangle_bounds_from_s(s)
            assert lower == pytest.approx(6 * math.pi / mu(s**3), rel=1e-15)

    def test_direct_value(self):
        lower, _ = triangle_bounds_from_s(0.7)
        assert lower == pytest.approx(6 * math.pi / mu(0.343), rel=1e-13)

    def test_half_disk_doubling_consistency(self):
        # per spoke pair: pi / mu(2 s^{3/2} / (s^3 + 1)) = 2 pi / mu(s^3)
        for s in (0.3, 0.6, 0.9):
            r = 2 * s**1.5 / (s**3 + 1)
            lower, _ = triangle_bounds_from_s(s)
            assert 3 * math.pi / mu(r) == pytest.approx(lower, rel=1e-12)


class TestDiskFamilyTheorems:
    """Seeded random checks of the isoperimetric/isoarea capacity
    comparisons: replacing the family by an equivalent single disk never
    increases the total capacity."""

    def test_capacity_superadditivity(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(1000):
            p = int(rng.integers(2, 7))
            radii = 0.05 + 3.95 * rng.random(p)
            total = sum(cap_hyp_disk(L) for L in radii)
            # equal total perimeter: sh L_hat = sum sh L_j
            L_hat = math.asinh(sum(math.sinh(L) for L in radii))
            # equal total area: sh^2(L_area / 2) = sum sh^2(L_j / 2)
            L_area = 2 * math.asinh(math.sqrt(sum(math.sinh(0.5 * L) ** 2 for L in radii)))
            assert L_hat > L_area
            assert cap_hyp_disk(L_hat) <= total
            assert cap_hyp_disk(L_area) <= total

    def test_scalar_kernel_superadditive(self):
        # t -> 2 pi / arsh(1/t) satisfies f(sum t_j) <= sum f(t_j)
        f = lambda t: 2 * math.pi / math.asinh(1.0 / t)
        rng = np.random.default_rng(SEED + 3)
        for _ in range(500):
            p = int(rng.integers(2, 7))
            ts = 0.01 + 30.0 * rng.random(p)
            assert f(ts.sum()) <= sum(f(t) for t in ts) + 1e-12
