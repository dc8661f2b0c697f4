"""Tests for the charge-simulation capacity solver.

Closed forms (annulus, Grotzsch-type disk capacities) are the oracles
for smooth plates; published table digits anchor the polygon path.
"""

import cmath
import math

import numpy as np
import pytest

from hypcap.capsolve import (
    BoundarySet,
    ConfigurationError,
    SolverParams,
    _kernel,
    cap_disk,
    cap_euclid_disk,
    cap_polygon,
    discretize,
    solve_capacity,
)
from hypcap.condenser import cap_hyp_disk
from hypcap.hypgeom import GeometryError, HypDisk, HypPolygon, mobius, regular_polygon

SEED = 73301


class TestSmoothPlates:
    def test_centered_annulus(self):
        rep = cap_euclid_disk(0.0, 0.5)
        exact = 2 * math.pi / math.log(2)
        assert rep.converged
        assert abs(rep.capacity - exact) / exact < 1e-10

    def test_offcenter_hyperbolic_disk(self):
        rep = cap_disk(HypDisk(0.3, 1.0))
        exact = cap_hyp_disk(1.0)
        assert rep.converged
        assert abs(rep.capacity - exact) / exact < 1e-8

    def test_random_disks_match_closed_form(self):
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            mag = 0.5 * rng.random()
            center = mag * cmath.exp(2j * math.pi * rng.random())
            M = 0.2 + 2.0 * rng.random()
            rep = cap_disk(HypDisk(center, M))
            exact = cap_hyp_disk(M)
            assert abs(rep.capacity - exact) / exact < 1e-7

    def test_modulus_capacity_identity(self):
        rep = cap_euclid_disk(0.1, 0.4)
        assert rep.capacity == pytest.approx(
            2 * math.pi / math.log(1 / rep.modulus_q), rel=1e-14
        )


class TestPolygonPlates:
    def test_regular_triangle_anchor(self):
        rep = cap_polygon(regular_polygon(3, 0.5))
        assert rep.converged
        assert abs(rep.capacity - 5.9799062371) / 5.9799062371 < 5e-4

    def test_regular_square_anchor(self):
        rep = cap_polygon(regular_polygon(4, 0.6))
        assert rep.converged
        assert abs(rep.capacity - 8.3279319407) / 8.3279319407 < 5e-4

    def test_determinism(self):
        r1 = cap_polygon(regular_polygon(5, 0.7))
        r2 = cap_polygon(regular_polygon(5, 0.7))
        assert r1 == r2

    def test_monotone_in_radius(self):
        caps = [cap_polygon(regular_polygon(3, r)).capacity for r in (0.3, 0.5, 0.7)]
        assert caps[0] < caps[1] < caps[2]

    def test_mobius_invariance(self):
        rng = np.random.default_rng(SEED + 1)
        base = regular_polygon(4, 0.6)
        rep0 = cap_polygon(base)
        for _ in range(3):
            a = 0.25 * rng.random() * cmath.exp(2j * math.pi * rng.random())
            moved = HypPolygon.from_vertices([mobius(a, v) for v in base.vertices])
            rep1 = cap_polygon(moved)
            slack = 3 * max(rep0.boundary_residual, rep1.boundary_residual)
            assert abs(rep1.capacity - rep0.capacity) <= slack


class TestDiscretize:
    def test_zero_grading_uniform(self):
        b = BoundarySet.from_polygon(regular_polygon(4, 0.6))
        p = SolverParams(corner_grading_strength=0, corner_ladder=0, nodes_per_side=32)
        d = discretize(b, p)
        per_side = len(d.colloc_plate) // 4
        z = d.colloc_plate[:per_side]
        gaps = np.abs(np.diff(z))
        assert np.max(gaps) / np.min(gaps) < 1.01

    def test_grading_clusters_corners(self):
        b = BoundarySet.from_polygon(regular_polygon(4, 0.6))
        uniform = discretize(
            b, SolverParams(corner_grading_strength=0, corner_ladder=0, nodes_per_side=32)
        )
        graded = discretize(
            b, SolverParams(corner_grading_strength=1, corner_ladder=0, nodes_per_side=32)
        )
        per_side = 32
        h_uniform = np.min(np.abs(np.diff(uniform.colloc_plate[:per_side])))
        h_graded = np.min(np.abs(np.diff(graded.colloc_plate[:per_side])))
        assert h_graded < h_uniform / 4

    def test_overdetermination_enforced(self):
        b = BoundarySet.from_euclid_disk(0.0, 0.4)
        with pytest.raises(ConfigurationError):
            discretize(b, SolverParams(nodes_per_side=8, ring_charges=512))

    @pytest.mark.parametrize(
        "b",
        [
            BoundarySet.from_polygon(regular_polygon(3, 0.5)),
            BoundarySet.from_polygon(regular_polygon(8, 0.9)),
            BoundarySet.from_euclid_disk(0.3, 0.5),
        ],
        ids=["3-0.5", "8-0.9", "disk"],
    )
    def test_plate_overdetermined_at_every_level(self, b):
        # nothing is collocated on the unit circle, so the plate nodes
        # alone must outnumber the sources twice at every refinement
        p = SolverParams()
        for _ in range(p.max_refine + 1):
            d = discretize(b, p)
            assert len(d.colloc_plate) >= 2 * d.n_charges
            p = p.doubled()

    @pytest.mark.parametrize(
        "b",
        [
            BoundarySet.from_polygon(regular_polygon(3, 0.9)),
            BoundarySet.from_hyp_disk(HypDisk(0.3, 1.0)),
        ],
        ids=["3-0.9", "disk"],
    )
    def test_reflected_kernel_vanishes_on_unit_circle(self, b):
        # the outer condition holds by construction, so the solver
        # neither collocates nor checks there
        d = discretize(b, SolverParams())
        circle = np.exp(2j * np.pi * np.arange(512) / 512)
        assert np.max(np.abs(_kernel(circle, d))) <= 1e-14

    def test_charges_inside_plate(self):
        poly = regular_polygon(3, 0.9)
        b = BoundarySet.from_polygon(poly)
        d = discretize(b, SolverParams())
        # all inner sources must stay strictly inside the unit disk and
        # within the plate's outer radius
        assert np.all(np.abs(d.charges_inner) < 0.9)


class TestValidation:
    def test_bad_tolerance(self):
        b = BoundarySet.from_euclid_disk(0.0, 0.4)
        with pytest.raises(ConfigurationError):
            solve_capacity(b, tol=0.0)

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            SolverParams(nodes_per_side=4)
        with pytest.raises(ConfigurationError):
            SolverParams(inner_charge_offset=1.5)
        with pytest.raises(ConfigurationError):
            SolverParams(check_grid_factor=1)

    def test_plate_too_close_to_circle(self):
        with pytest.raises(GeometryError):
            BoundarySet.from_euclid_disk(0.5, 0.4999999)

    def test_report_counts(self):
        rep = cap_euclid_disk(0.0, 0.5)
        assert rep.n_collocation >= 2 * rep.n_charges
