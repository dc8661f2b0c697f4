"""Tests for the closed-form condenser layer."""

import math

import numpy as np
import pytest

from hypcap.condenser import (
    cap_hyp_disk,
    hat_triangle_cap,
    ref_M1,
    ref_M2,
    ref_cap_area,
    ref_cap_perim,
    triangle_bounds_from_s,
)
from hypcap.specfun import f1, mu

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

    def test_domain(self):
        with pytest.raises(ValueError):
            cap_hyp_disk(0.0)


class TestReferenceConstants:
    def test_M1_substitution(self):
        assert ref_M1(4 * math.pi) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_M2_substitution(self):
        assert ref_M2(2 * math.pi) == pytest.approx(1 + math.sqrt(2), rel=1e-15)

    def test_perimeter_cap_equals_f1(self):
        for c in (0.3, 2.0, 11.0, 60.0):
            assert ref_cap_perim(c) == pytest.approx(f1(c), rel=1e-13)

    def test_area_cap_form(self):
        c = 3.0
        assert ref_cap_area(c) == pytest.approx(
            4 * math.pi / math.log(1 + 4 * math.pi / c), rel=1e-14
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            ref_M1(0.0)
        with pytest.raises(ValueError):
            ref_M2(-2.0)


class TestTriangleBounds:
    def test_vanishing_triangle(self):
        # decay toward 0 is logarithmic in s
        b = triangle_bounds_from_s(1e-4)
        assert 0 < b.lower < b.upper_s < 1.0
        assert triangle_bounds_from_s(1e-100).lower < 0.05

    def test_values_from_mu(self):
        b = triangle_bounds_from_s(0.5)
        assert b.lower == pytest.approx(6 * math.pi / mu(0.125), rel=1e-13)
        assert b.upper_s == pytest.approx(
            3 * math.pi / mu(math.sqrt(3) / (2 * math.sqrt(1.3125))), rel=1e-13
        )

    def test_rewrites_agree(self):
        for s in np.linspace(0.05, 0.95, 19):
            b = triangle_bounds_from_s(s)
            assert abs(b.upper_perim - b.upper_s) < 1e-12 * b.upper_s
            assert abs(b.upper_area - b.upper_s) < 1e-10 * max(1.0, b.upper_s)

    def test_sandwich_and_monotone(self):
        prev = None
        for s in np.linspace(0.05, 0.95, 46):
            b = triangle_bounds_from_s(s)
            assert b.lower <= b.upper_s
            assert math.isfinite(b.lower) and math.isfinite(b.upper_s)
            if prev is not None:
                assert b.lower > prev.lower
                assert b.upper_s > prev.upper_s
            prev = b

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                triangle_bounds_from_s(bad)


class TestHatTriangleCap:
    def test_matches_lower_bound(self):
        for s in (0.2, 0.5, 0.8):
            assert hat_triangle_cap(s) == triangle_bounds_from_s(s).lower

    def test_direct_value(self):
        assert hat_triangle_cap(0.7) == pytest.approx(6 * math.pi / mu(0.343), rel=1e-13)

    def test_half_disk_doubling_consistency(self):
        # per spoke pair: pi / mu(2 s^{3/2} / (s^3 + 1)) = 2 pi / mu(s^3)
        for s in (0.3, 0.6, 0.9):
            r = 2 * s**1.5 / (s**3 + 1)
            assert 3 * math.pi / mu(r) == pytest.approx(hat_triangle_cap(s), rel=1e-12)


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
