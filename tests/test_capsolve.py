"""Tests for the charge-simulation capacity solver.

Closed forms (annulus, Grotzsch-type disk capacities) are the oracles
for smooth plates; published table digits anchor the polygon path.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

# published polygon row with no rotational symmetry; plates with 2-fold
# and 3-fold symmetry that are not regular
NEAR_SQUARE = [0.601, -0.6j, -0.599, 0.6j]
RHOMBUS = [0.6, 0.3j, -0.6, -0.3j]
STAR3 = [
    rho * cmath.exp(2j * math.pi * (k + shift) / 3)
    for k in range(3)
    for rho, shift in ((0.7, 0.0), (0.3, 0.5))
]


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


class TestSymmetry:
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("m", [3, 4, 6, 8])
    def test_sector_solve_matches_full_solve(self, m, r):
        b = BoundarySet.from_polygon(regular_polygon(m, r))
        sym = solve_capacity(b)
        full = solve_capacity(replace(b, symmetry=1))
        assert (sym.symmetry, full.symmetry) == (m, 1)
        assert abs(sym.capacity - full.capacity) <= 5e-8 * full.capacity
        assert sym.converged == full.converged
        # one sector of the nodes, one source per orbit
        assert full.n_collocation == m * sym.n_collocation
        assert full.n_charges == m * sym.n_charges

    @pytest.mark.parametrize(
        "vertices, n",
        [
            (regular_polygon(3, 0.5).vertices, 3),
            (regular_polygon(8, 0.9).vertices, 8),
            ([v * cmath.exp(0.37j) for v in regular_polygon(6, 0.4).vertices], 6),
            (RHOMBUS, 2),
            (STAR3, 3),
            (NEAR_SQUARE, 1),
            ([mobius(0.1 + 0.05j, v) for v in regular_polygon(3, 0.5).vertices], 1),
        ],
        ids=["regular-3", "regular-8", "rotated-6", "rhombus", "star-3", "near-square", "moved-3"],
    )
    def test_detected_symmetry(self, vertices, n):
        b = BoundarySet.from_polygon(HypPolygon.from_vertices(vertices))
        assert b.symmetry == n

    @pytest.mark.parametrize(
        "vertices",
        [regular_polygon(3, 0.9).vertices, regular_polygon(8, 0.5).vertices, RHOMBUS, STAR3],
        ids=["regular-3", "regular-8", "rhombus", "star-3"],
    )
    def test_sector_layout_rotates_onto_full_layout(self, vertices):
        # the sector's nodes and sources, rotated n times, are the full
        # layout's: one source per orbit, none lost or added by the filter
        b = BoundarySet.from_polygon(HypPolygon.from_vertices(vertices))
        n = b.symmetry
        sector = discretize(b, SolverParams())
        full = discretize(replace(b, symmetry=1), SolverParams())
        for part, whole in (
            (sector.colloc_plate, full.colloc_plate),
            (sector.charges_inner, full.charges_inner),
        ):
            turned = np.concatenate([part * cmath.exp(2j * math.pi * j / n) for j in range(n)])
            assert len(turned) == len(whole)
            assert np.max(np.min(np.abs(turned[:, None] - whole[None, :]), axis=1)) <= 1e-12

    @pytest.mark.parametrize(
        "b, n",
        [
            (BoundarySet.from_polygon(HypPolygon.from_vertices(RHOMBUS)), 4),
            (BoundarySet.from_polygon(HypPolygon.from_vertices(NEAR_SQUARE)), 2),
            (BoundarySet.from_polygon(regular_polygon(6, 0.5)), 4),
            (BoundarySet.from_polygon(regular_polygon(3, 0.5)), 0),
            (BoundarySet.from_euclid_disk(0.0, 0.4), 2),
        ],
        ids=["rhombus-4", "near-square-2", "hexagon-4", "triangle-0", "disk-2"],
    )
    def test_false_symmetry_rejected(self, b, n):
        with pytest.raises(GeometryError):
            replace(b, symmetry=n)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(3, 8),
        r=st.floats(0.05, 0.9),
        angle=st.floats(0.0, 2.0 * math.pi),
    )
    def test_rotation_invariance(self, m, r, angle):
        base = regular_polygon(m, r)
        turned = HypPolygon.from_vertices([v * cmath.exp(1j * angle) for v in base.vertices])
        rep0, rep1 = cap_polygon(base), cap_polygon(turned)
        assert rep1.symmetry == m
        assert abs(rep1.capacity - rep0.capacity) <= 1e-9 * rep0.capacity


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
        assert rep.symmetry == 1
        assert 0 < rep.rank <= rep.n_charges
