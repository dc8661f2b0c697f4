"""Tests for the special-function layer.

The independent oracle here is adaptive composite Simpson quadrature of
the defining integral of K (tolerance 1e-13).  The frozen constants
below were produced by that oracle; the tests both compare against the
frozen values and re-run the oracle at a few points.
"""

import math

import numpy as np
import pytest

from hypcap.experiments import run_f1f2
from hypcap.specfun import _agm, f1, f2, mu


def K_quadrature(r, tol=1e-13):
    """Adaptive Simpson quadrature of K(r); independent of the AGM path."""

    def f(t):
        s = math.sin(t)
        return 1.0 / math.sqrt(1.0 - (r * r) * (s * s))

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return rec(a, m, fa, flm, fm, left, tol / 2, depth - 1) + rec(
            m, b, fm, frm, fb, right, tol / 2, depth - 1
        )

    a, b = 0.0, 0.5 * math.pi
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return rec(a, b, fa, fm, fb, whole, tol, 30)


def mu_quadrature(r):
    rc = math.sqrt((1.0 - r) * (1.0 + r))
    return 0.5 * math.pi * K_quadrature(rc) / K_quadrature(r)


# Frozen oracle values (adaptive Simpson, tol 1e-13).
K_HALF_SQRT2 = 1.8540746773013719
K_HALF = 1.685750354812596
MU_HALF = 2.0094593770052844
MU_03 = 2.5668979448308216


def K_agm(r):
    """K(r) = pi / (2 AGM(1, sqrt(1 - r^2))), the AGM route mu takes."""
    return math.pi / (2.0 * _agm(1.0, math.sqrt((1.0 - r) * (1.0 + r))))


class TestEllintK:
    def test_zero_argument(self):
        assert K_agm(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_against_quadrature_oracle(self):
        assert K_agm(1 / math.sqrt(2)) == pytest.approx(K_HALF_SQRT2, abs=1e-11)
        assert K_agm(0.5) == pytest.approx(K_HALF, abs=1e-11)
        # re-run the oracle rather than trusting only frozen numbers
        assert K_agm(0.3) == pytest.approx(K_quadrature(0.3), abs=1e-11)

    def test_monotone_near_one(self):
        v = K_agm(0.999999)
        assert math.isfinite(v)
        assert v > K_agm(0.9)

    def test_monotone_on_grid(self):
        grid = np.linspace(0.0, 0.9999, 250)
        vals = [K_agm(r) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestMu:
    def test_endpoint(self):
        assert mu(1.0) == 0.0

    def test_symmetry_point(self):
        # mu(r) mu(sqrt(1-r^2)) = pi^2/4 forces mu(1/sqrt 2) = pi/2
        assert mu(1 / math.sqrt(2)) == pytest.approx(math.pi / 2, abs=1e-13)

    def test_against_quadrature_oracle(self):
        assert mu(0.5) == pytest.approx(MU_HALF, abs=1e-12)
        assert mu(0.3) == pytest.approx(MU_03, abs=1e-12)
        assert mu(0.3) == pytest.approx(mu_quadrature(0.3), abs=1e-12)
        assert math.log(2) < mu(0.5) < math.log(8)

    def test_strictly_decreasing(self):
        grid = np.linspace(1e-4, 1.0, 300)
        vals = [mu(r) for r in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_classical_bracket(self):
        for r in np.linspace(0.01, 0.99, 99):
            assert math.log(1 / r) < mu(r) < math.log(4 / r)

    def test_landen_identity(self):
        # mu(r) = mu((r / (1 + sqrt(1-r^2)))^2) / 2
        for r in np.linspace(0.02, 0.98, 49):
            w = (r / (1.0 + math.sqrt(1.0 - r * r))) ** 2
            assert abs(mu(r) - 0.5 * mu(w)) < 1e-11

    def test_reciprocal_identity(self):
        # mu(r) mu(sqrt(1-r^2)) = pi^2 / 4
        for r in np.linspace(0.02, 0.98, 49):
            rc = math.sqrt((1.0 - r) * (1.0 + r))
            assert abs(mu(r) * mu(rc) - math.pi**2 / 4) < 1e-11

    def test_domain_errors(self):
        for bad in (0.0, -0.5, 1.0 + 1e-12, 1e-9):
            with pytest.raises(ValueError):
                mu(bad)


class TestF1F2:
    def test_f1_substitution(self):
        assert f1(2 * math.pi) == pytest.approx(2 * math.pi / math.log(1 + math.sqrt(2)), rel=1e-14)

    def test_f2_special_value(self):
        c = 4 * math.atanh(1 / math.sqrt(2))
        assert f2(c) == pytest.approx(4.0, abs=1e-12)

    def test_disk_beats_slit(self):
        for c in (0.1, 1.0, 5.0, 20.0, 100.0):
            assert f1(c) > f2(c)

    def test_both_increasing(self):
        grid = np.linspace(0.05, 100.0, 200)
        v1 = [f1(c) for c in grid]
        v2 = [f2(c) for c in grid]
        assert all(b > a for a, b in zip(v1, v1[1:]))
        assert all(b > a for a, b in zip(v2, v2[1:]))

    def test_f2_branch_continuity(self):
        # direct / reflected / asymptotic branches agree where they meet
        for c in (3.59, 3.61, 139.0, 143.0):
            lo, hi = f2(c * (1 - 1e-9)), f2(c * (1 + 1e-9))
            assert hi == pytest.approx(lo, rel=1e-7)

    def test_domain(self):
        with pytest.raises(ValueError):
            f1(0.0)
        with pytest.raises(ValueError):
            f2(-1.0)


class TestMuBound:
    """1 < mu(t) / arsh(pi / (2 arth t)) < pi/2 for t in (0, 1).  With
    c = 4 arth t the ratio is f1(c) / f2(c), which run_f1f2 bounds on
    both sides."""

    BOTH = {"disk_beats_slit": True, "disk_within_half_pi_of_slit": True}

    @pytest.mark.parametrize("t", [1 / math.sqrt(2), 0.01, 0.99])
    def test_two_sided(self, t):
        (row,) = run_f1f2(c_grid=[4 * math.atanh(t)])
        assert row.verdicts == self.BOTH
        assert 1.0 < row.values["f1"] / row.values["f2"] < math.pi / 2

    def test_grid(self):
        # th(c/4) rounds to 1 from about c = 76.3 on, so mu(t) cannot be
        # evaluated there directly; c = 100 lies past it
        c_grid = [4 * math.atanh(t) for t in np.linspace(0.001, 0.999, 1000)] + [100.0]
        for row in run_f1f2() + run_f1f2(c_grid=c_grid):
            assert row.verdicts == self.BOTH, (row.id, row.values)

    @pytest.mark.parametrize("c", [3000.0, 1e6])
    def test_large_perimeter(self, c):
        # ch(c/4) overflows from c = 2842 on; there log(4 ch(c/4)) is
        # log 2 + c/4 to rounding
        (row,) = run_f1f2(c_grid=[c])
        assert row.verdicts == self.BOTH
        assert row.values["f2"] == pytest.approx(8 / math.pi * (math.log(2) + c / 4), rel=1e-15)
