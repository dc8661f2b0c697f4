"""Tests for the hyperbolic geometry layer."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypcap.experiments import DEFAULT_POLYGON_ROWS, DEFAULT_TRIANGLE_ROWS, recenter_triangle
from hypcap.hypgeom import (
    GeometryError,
    HypDisk,
    HypPolygon,
    equilateral_triangle_radius,
    geodesic_arc,
    hyp_disk_to_euclid,
    hyp_dist,
    hyp_midpoint,
    mobius,
    polygon_measures,
    polygon_perimeter,
    regular_polygon,
    regular_radius_from_area,
    regular_radius_from_perimeter,
    triangle_measures,
)

RNG_SEED = 20240817


def random_disk_points(rng, n, rmax=0.95):
    r = rmax * np.sqrt(rng.random(n))
    th = 2 * np.pi * rng.random(n)
    return r * np.exp(1j * th)


def geodesic_circle(z1, z2):
    """Centre c and radius R of the circle through z1 and z2 that meets
    the unit circle at right angles, from the 2x2 linear system
    2 Re(conj(z) c) = |z|^2 + 1 at both points: c det = i (r2 z1 - r1 z2)
    with r_k = |z_k|^2 + 1."""
    det = 2.0 * (z1.real * z2.imag - z1.imag * z2.real)
    c = 1j * ((abs(z2) ** 2 + 1.0) * z1 - (abs(z1) ** 2 + 1.0) * z2) / det
    return c, abs(z1 - c)


def assert_on_geodesic_circle(arc):
    """The side lies inside the disk on the circle of geodesic_circle,
    which is orthogonal to the unit circle (| |c|^2 - R^2 - 1 | = 0), and
    its derivative is perpendicular to the radius."""
    c, radius = geodesic_circle(arc.z1, arc.z2)
    assert abs(abs(c) ** 2 - radius**2 - 1.0) < 1e-12
    t = np.linspace(0.0, 1.0, 33)
    p = arc.point(t)
    assert np.all(np.abs(p) < 1.0)
    assert np.max(np.abs(np.abs(p - c) - radius)) < 1e-12
    assert np.max(np.abs(np.real(np.conj(p - c) * arc.derivative(t)))) < 1e-12 * radius


def sampled_starlike(vertices):
    """Whether the vertex list bounds a plate starlike about 0, by
    sampling: no side is radial, and along the boundary, in the
    orientation of the vertex loop, the phase of >= 720 points never
    goes back and gains 2 pi in all.  Each side is sampled from its
    first vertex on, as the image of the radial segment [0, mobius(z1,
    z2)) under the inverse map mobius(-z1, .); the vertices themselves
    are exact.  A reference for the exact rule of
    HypPolygon.from_vertices."""
    vs = [complex(v) for v in vertices]
    sides = list(zip(vs, vs[1:] + vs[:1]))
    if any(abs((z1.conjugate() * z2).imag) <= 1e-14 * abs(z1) * abs(z2) for z1, z2 in sides):
        return False
    if sum(math.remainder(cmath.phase(z2) - cmath.phase(z1), 2 * math.pi) for z1, z2 in sides) < 0:
        sides = [(z2, z1) for z1, z2 in sides[::-1]]
    k = max(16, -(-720 // len(sides)))
    s = np.arange(k) / k
    pts = np.concatenate([mobius(-z1, s * mobius(z1, z2)) for z1, z2 in sides] + [[sides[0][0]]])
    ang = np.unwrap(np.angle(pts))
    return bool(
        np.max(np.abs(pts)) < 1.0
        and np.min(np.diff(ang)) >= -1e-12
        and abs((ang[-1] - ang[0]) - 2 * math.pi) <= 1e-6
    )


def law_of_cosines_angle(a, b, c):
    """Angle opposite side a of the hyperbolic triangle with sides a, b, c."""
    num = math.cosh(b) * math.cosh(c) - math.cosh(a)
    return math.acos(min(1.0, max(-1.0, num / (math.sinh(b) * math.sinh(c)))))


disk_points = st.builds(
    lambda r, t: r * cmath.exp(1j * t), st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi)
)


class TestHypDist:
    def test_coincident(self):
        assert hyp_dist(0, 0) == 0.0

    def test_radial_closed_form(self):
        assert hyp_dist(0, 0.5) == pytest.approx(math.log(3), rel=1e-14)

    def test_spoke_identity(self):
        # th(rho(-s^{3/2}, s^{3/2}) / 2) = 2 s^{3/2} / (s^3 + 1)
        s = 0.4
        p = s**1.5
        rho = hyp_dist(-p, p)
        assert math.tanh(0.5 * rho) == pytest.approx(2 * p / (s**3 + 1), rel=1e-14)

    def test_metric_axioms(self):
        rng = np.random.default_rng(RNG_SEED)
        pts = random_disk_points(rng, 300)
        for x, y, z in pts.reshape(100, 3):
            dxy = hyp_dist(x, y)
            assert dxy == hyp_dist(y, x)
            assert dxy >= 0
            assert dxy <= hyp_dist(x, z) + hyp_dist(z, y) + 1e-12

    def test_domain(self):
        with pytest.raises(GeometryError):
            hyp_dist(1.0, 0)
        with pytest.raises(GeometryError):
            hyp_dist(0, 1.2j)


class TestMobius:
    def test_sends_a_to_zero(self):
        a = 0.3 - 0.4j
        assert mobius(a, a) == 0

    def test_identity_at_zero(self):
        z = 0.5 + 0.2j
        assert mobius(0, z) == z

    def test_array_matches_scalar(self):
        a = 0.3 - 0.4j
        z = random_disk_points(np.random.default_rng(RNG_SEED), 20)
        np.testing.assert_allclose(mobius(a, z), [mobius(a, w) for w in z], rtol=0, atol=1e-15)
        with pytest.raises(GeometryError):
            mobius(a, np.array([0.2, 1.0j]))
        with pytest.raises(GeometryError):
            mobius(a, -1.0)

    def test_isometry(self):
        rng = np.random.default_rng(RNG_SEED)
        pts = random_disk_points(rng, 300, rmax=0.9)
        for a, x, y in pts.reshape(100, 3):
            assert hyp_dist(mobius(a, x), mobius(a, y)) == pytest.approx(
                hyp_dist(x, y), abs=1e-12
            )

    def test_midpoint(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        pts = random_disk_points(rng, 40, rmax=0.9)
        for x, y in pts.reshape(20, 2):
            m = hyp_midpoint(x, y)
            assert hyp_dist(x, m) == pytest.approx(hyp_dist(m, y), abs=1e-12)
            assert hyp_dist(x, m) + hyp_dist(m, y) == pytest.approx(
                hyp_dist(x, y), abs=1e-12
            )
        for z in (0.3 - 0.4j, 0.5):
            assert hyp_midpoint(z, z) == z and type(hyp_midpoint(z, z)) is complex


class TestHypDisk:
    def test_centered_image(self):
        y, r = hyp_disk_to_euclid(HypDisk(0, 1.3))
        assert y == 0
        assert r == pytest.approx(math.tanh(0.65), rel=1e-15)

    def test_boundary_oracle(self):
        # every Euclidean boundary point is at hyperbolic distance M
        d = HypDisk(0.5, 1.0)
        y, r = hyp_disk_to_euclid(d)
        for th in np.linspace(0, 2 * np.pi, 64, endpoint=False):
            z = y + r * cmath.exp(1j * th)
            assert hyp_dist(d.center, z) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_limit(self):
        _, r = hyp_disk_to_euclid(HypDisk(0, 1e-9))
        assert r < 1e-8

    def test_domain(self):
        with pytest.raises(GeometryError):
            HypDisk(0, -1.0)


class TestGeodesicArc:
    def test_collinear_gives_segment(self):
        arc = geodesic_arc(0.3, -0.6)
        assert arc.dtheta == 0
        t = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(arc.point(t), 0.3 - 0.9 * t, rtol=0, atol=1e-15)
        np.testing.assert_allclose(arc.derivative(t), -0.9, rtol=1e-15)

    def test_orthogonality(self):
        s = 0.6
        arc = geodesic_arc(s, s * cmath.exp(2j * math.pi / 3))
        assert arc.dtheta != 0
        assert_on_geodesic_circle(arc)

    @settings(max_examples=200)
    @given(z1=disk_points, z2=disk_points, t=st.floats(0.0, 1.0))
    def test_point_additivity(self, z1, z2, t):
        # every point of the side lies on the geodesic between its ends
        assume(z1 != z2)
        p = complex(geodesic_arc(z1, z2).point(t))
        assert hyp_dist(z1, p) + hyp_dist(p, z2) == pytest.approx(hyp_dist(z1, z2), abs=1e-10)

    def test_endpoints(self):
        arc = geodesic_arc(0.2 + 0.1j, -0.5 + 0.4j)
        assert complex(arc.point(0.0)) == pytest.approx(0.2 + 0.1j, abs=1e-15)
        assert complex(arc.point(1.0)) == pytest.approx(-0.5 + 0.4j, abs=1e-14)

    def test_degenerate(self):
        with pytest.raises(GeometryError):
            geodesic_arc(0.5, 0.5)

    @settings(max_examples=200)
    @given(
        far=st.builds(cmath.rect, st.floats(0.05, 0.95), st.floats(-math.pi, math.pi)),
        exponent=st.floats(-320.0, -12.0),
        angle=st.floats(-math.pi, math.pi),
        reverse=st.booleans(),
    )
    # centres far beyond the endpoints: drawn about the centre, these
    # sides put point(0.5) 1.0e4 away, at inf + nan, and 2.7e-5 off the
    # chord
    @example(far=0.5, exponent=-20.0, angle=0.3, reverse=False)
    @example(far=0.5, exponent=-310.0, angle=0.3, reverse=False)
    @example(far=0.5, exponent=-12.0, angle=1.3, reverse=False)
    def test_endpoint_near_origin(self, far, exponent, angle, reverse):
        # with one endpoint within 1e-12 of 0 the geodesic's sagitta is
        # below 1e-12 / 4: the side stays in the disk and on its chord,
        # and leaves its first endpoint toward the second
        near = cmath.rect(10.0**exponent, angle)
        z1, z2 = (near, far) if reverse else (far, near)
        arc = geodesic_arc(z1, z2)
        p = arc.point(np.linspace(0.0, 1.0, 101))
        d = z2 - z1
        s = np.clip(np.real(np.conj(d) * (p - z1)) / abs(d) ** 2, 0.0, 1.0)
        assert np.all(np.abs(p) < 1.0)
        assert np.max(np.abs(p - (z1 + s * d))) <= 1e-12
        assert abs(complex(arc.derivative(0.0)) - d) <= 1e-11 * abs(d)


class TestPolygonBasics:
    def test_regular_polygon_starlike(self):
        p = regular_polygon(12, 0.9)
        assert p.m == 12

    def test_orientation_normalized(self):
        p = HypPolygon.from_vertices([0.5, -0.5j, -0.5, 0.5j][::-1])
        ccw = np.unwrap(np.angle(np.array(p.vertices)))
        assert np.all(np.diff(ccw) > 0)

    def test_arc_invariants_on_regular(self):
        p = regular_polygon(7, 0.8)
        for side in p.sides:
            assert side.dtheta != 0
            assert_on_geodesic_circle(side)

    def test_non_starlike_rejected(self):
        # vertex angles regress (0 -> 90 -> 17 degrees), so rays between
        # 17 and 90 degrees cross the boundary more than once
        vs = [0.9, 0.9j, 0.5 * cmath.exp(0.3j), -0.9, -0.9j]
        with pytest.raises(GeometryError):
            HypPolygon.from_vertices(vs)

    def test_radial_side_rejected(self):
        # consecutive vertices on one ray make a radial boundary segment
        # (every vertex inside the disk, so that the radial check is the
        # one that rejects it)
        vs = [0.3, 0.8, 0.8j, -0.5 - 0.5j]
        with pytest.raises(GeometryError, match="radial side"):
            HypPolygon.from_vertices(vs)

    @pytest.mark.parametrize(
        "vs, k",
        [([0.5, 0.5, 0.5j, -0.5], 0), ([0.5, 0.5j, -0.5, -0.5], 2), ([0.5, 0.5j, -0.5, 0.5], 3)],
    )
    def test_coincident_vertices_rejected(self, vs, k):
        # a side of zero length is degenerate, not radial; the last
        # vertex's side runs back to vertex 0
        with pytest.raises(GeometryError, match=f"vertices {k} and {(k + 1) % 4} coincide"):
            HypPolygon.from_vertices(vs)

    def test_deep_dent_still_starlike(self):
        # radial dents keep the boundary angle monotone
        HypPolygon.from_vertices([0.9, 0.02 + 0.02j, 0.9j, -0.9, -0.9j])

    def test_origin_vertex_rejected(self):
        with pytest.raises(GeometryError):
            HypPolygon.from_vertices([0.0, 0.5, 0.5j])

    def test_regular_polygon_needs_three_vertices(self):
        # one vertex-count check for every constructor: an int (Python or
        # numpy, not a bool) of at least 3
        for m in (0, 1, 2, 3.0, 3.5, True, np.float64(4.0), "4"):
            with pytest.raises(GeometryError, match="at least 3 vertices"):
                regular_polygon(m, 0.5)
        assert regular_polygon(np.int64(4), 0.5).m == 4

    @settings(max_examples=300)
    @given(
        st.one_of(
            # vertex phases near a regular spacing that winds once or
            # twice, jittered far enough that some lists go back
            st.tuples(st.integers(3, 8), st.integers(1, 2)).flatmap(
                lambda mw: st.lists(
                    st.tuples(st.floats(0.02, 0.95), st.floats(-1.5, 1.5)),
                    min_size=mw[0],
                    max_size=mw[0],
                ).map(
                    lambda rj: [
                        r * cmath.exp(2j * math.pi * (mw[1] * k + j) / mw[0])
                        for k, (r, j) in enumerate(rj)
                    ]
                )
            ),
            st.lists(disk_points, min_size=3, max_size=7),
        )
    )
    # a subnormal vertex: the phase step as a quotient overflows to inf
    @example(vertices=[0.5, 0.5 * cmath.exp(4j), 1.2022125365e-313 + 1.872335091e-313j])
    def test_starlike_rule_matches_sampling(self, vertices):
        try:
            HypPolygon.from_vertices(vertices)
            accepted = True
        except GeometryError:
            accepted = False
        assert accepted == sampled_starlike(vertices)


class TestPerimeter:
    def test_regular_closed_form(self):
        m, r = 4, 0.6
        p = regular_polygon(m, r)
        expect = 2 * m * math.asinh(2 * r * math.sin(math.pi / m) / (1 - r * r))
        assert polygon_perimeter(p) == pytest.approx(expect, rel=1e-13)

    def test_equilateral_tanh_identity(self):
        # th(u/6) = sqrt(3) s / sqrt(s^4 + s^2 + 1)
        s = 0.37
        u = polygon_perimeter(regular_polygon(3, s))
        assert math.tanh(u / 6) == pytest.approx(
            math.sqrt(3) * s / math.sqrt(s**4 + s**2 + 1), rel=1e-13
        )

    def test_small_radius_limit(self):
        assert polygon_perimeter(regular_polygon(5, 1e-8)) < 1e-6


class TestPolygonMeasures:
    def test_symmetric_triangle(self):
        s = 0.5
        p = regular_polygon(3, s)
        meas = polygon_measures(p)
        assert meas.angles[0] == pytest.approx(meas.angles[1], abs=1e-13)
        assert meas.angles[1] == pytest.approx(meas.angles[2], abs=1e-13)
        assert meas.area == pytest.approx(math.pi - 3 * meas.angles[0], abs=1e-12)

    def test_mobius_invariance_of_area(self):
        # the map parameter must stay inside the polygon so that the
        # image still contains (and is starlike about) the origin
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(100):
            r = 0.3 + 0.5 * rng.random()
            p = regular_polygon(int(rng.integers(3, 8)), r)
            rmin = min(abs(side.point(t)) for side in p.sides for t in (0.0, 0.25, 0.5, 0.75))
            mag = 0.5 * rmin * rng.random()
            a = mag * cmath.exp(2j * math.pi * rng.random())
            mapped = HypPolygon.from_vertices([mobius(a, v) for v in p.vertices])
            m0 = polygon_measures(p)
            m1 = polygon_measures(mapped)
            assert m1.area == pytest.approx(m0.area, abs=1e-10)
            assert m1.perimeter == pytest.approx(m0.perimeter, abs=1e-10)

    def test_equilateral_perimeter_area_relation(self):
        # 2 ch(u/6) sin((pi - v)/6) = 1
        s = 0.62
        meas = polygon_measures(regular_polygon(3, s))
        u, v = meas.perimeter, meas.area
        assert 2 * math.cosh(u / 6) * math.sin((math.pi - v) / 6) == pytest.approx(
            1.0, abs=1e-10
        )

    @pytest.mark.parametrize("m", [3, 4, 8])
    def test_regular_area_closed_form(self, m):
        # each side turns by -2 atan(r^2 sin(2 pi/m) / (1 - r^2 cos(2 pi/m))),
        # so the area holds its relative accuracy however small the plate
        t = 2.0 * math.pi / m
        for r in (0.5, 1e-2, 1e-6, 1e-10, 1e-100):
            want = 2 * m * math.atan(r * r * math.sin(t) / (1.0 - r * r * math.cos(t)))
            area = polygon_measures(regular_polygon(m, r)).area
            assert area == pytest.approx(want, rel=1e-14, abs=0.0), r

    def test_gauss_bonnet_consistency(self):
        # the area sums the sides' turns and the angles come from the
        # tangents at the vertices: two independent formulas
        plates = [regular_polygon(m, r) for m, r in [(3, 0.5), (5, 0.7), (8, 0.9)]]
        plates += [HypPolygon.from_vertices(vs) for vs in DEFAULT_POLYGON_ROWS]
        plates += [recenter_triangle(*vs) for vs in DEFAULT_TRIANGLE_ROWS]
        for p in plates:
            meas = polygon_measures(p)
            assert meas.area == pytest.approx(
                math.pi * (p.m - 2) - sum(meas.angles), abs=1e-12
            ), p.vertices

    def test_triangle_measures_off_center(self):
        # triangle that does not contain the origin
        t = triangle_measures(0.6, 0.2 - 0.5j, -0.3 - 0.5j)
        assert t.area > 0
        assert all(0 < a < math.pi for a in t.angles)
        # area is Mobius invariant
        a = 0.2 - 0.3j
        t2 = triangle_measures(
            mobius(a, 0.6), mobius(a, 0.2 - 0.5j), mobius(a, -0.3 - 0.5j)
        )
        assert t2.area == pytest.approx(t.area, abs=1e-12)
        assert t2.perimeter == pytest.approx(t.perimeter, abs=1e-12)


def assert_same_measures(got, want, order=(0, 1, 2)):
    assert got.angles == pytest.approx([want.angles[k] for k in order], abs=1e-12)
    assert got.area == pytest.approx(want.area, abs=1e-12)
    assert got.perimeter == pytest.approx(want.perimeter, abs=1e-12)


class TestTriangleMeasuresProperty:
    @settings(max_examples=200)
    @given(vs=st.tuples(disk_points, disk_points, disk_points), a=disk_points)
    @example(vs=(0.6, 0.2 - 0.5j, -0.3 - 0.5j), a=0.2 - 0.3j)  # misses 0
    @example(vs=(0.5, -0.3, 0.4j), a=-0.4 + 0.1j)  # diametral side through 0
    # vertex near 0: an arc through it has its centre near 5e19
    @example(vs=(0.5, 0.5 * cmath.exp(1j), 1e-20 * cmath.exp(0.3j)), a=0j)
    def test_invariances_and_oracle(self, vs, a):
        # the law of cosines cancels at short sides and near-flat angles
        opposite = [hyp_dist(vs[(k + 1) % 3], vs[(k + 2) % 3]) for k in range(3)]
        assume(min(opposite) > 0.1)
        oracle = [law_of_cosines_angle(*(opposite[k:] + opposite[:k])) for k in range(3)]
        assume(0.01 < min(oracle) and max(oracle) < math.pi - 0.01)
        tm = triangle_measures(*vs)
        assert tm.angles == pytest.approx(oracle, abs=1e-12)
        assert tm.area == pytest.approx(math.pi - sum(oracle), abs=1e-12)
        assert tm.perimeter == pytest.approx(sum(opposite), abs=1e-12)
        assert_same_measures(triangle_measures(vs[1], vs[2], vs[0]), tm, (1, 2, 0))
        assert_same_measures(triangle_measures(*vs[::-1]), tm, (2, 1, 0))
        assert_same_measures(triangle_measures(*(mobius(a, v) for v in vs)), tm)
        # an interior point moved to 0 (interior by convexity): the image
        # surrounds 0, so HypPolygon takes it
        inner = hyp_midpoint(hyp_midpoint(vs[0], vs[1]), vs[2])
        image = [mobius(inner, v) for v in vs]
        poly = HypPolygon.from_vertices(image)
        order = [image.index(v) for v in poly.vertices]
        assert_same_measures(polygon_measures(poly), triangle_measures(*image), order)


def fan_area(m, r):
    """Area of the regular m-gon with vertex radius r, summed over its m
    fan triangles {0, v_k, v_k+1} measured by the law of cosines."""
    rho = 2.0 * math.atanh(r)
    side = 2.0 * math.asinh(2.0 * r * math.sin(math.pi / m) / (1.0 - r * r))
    ang0 = law_of_cosines_angle(side, rho, rho)
    base = law_of_cosines_angle(rho, side, rho)
    return m * (math.pi - ang0 - 2.0 * base)


def area_radius_oracle(m, c, tol=1e-13):
    """Bisection on r against the fan area; independent of the closed form."""
    lo, hi = 1e-9, 1 - 1e-9  # area increasing in r
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fan_area(m, mid) < c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def equilateral_radius_oracle(omega, tol=1e-13):
    """Bisection on r against measured angles; independent of the closed form."""
    lo, hi = 1e-9, 1 - 1e-9  # angle decreasing in r
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        ang = polygon_measures(regular_polygon(3, mid)).angles[0]
        if ang > omega:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEquilateralRadius:
    def test_limits(self):
        assert equilateral_triangle_radius(math.pi / 3 - 1e-6) < 2e-3
        assert equilateral_triangle_radius(1e-6) > 0.999

    def test_against_bisection_oracle(self):
        for omega in (math.pi / 4, 0.3, 0.9):
            r = equilateral_triangle_radius(omega)
            assert r == pytest.approx(equilateral_radius_oracle(omega), abs=1e-9)
            angles = polygon_measures(regular_polygon(3, r)).angles
            assert max(abs(a - omega) for a in angles) < 1e-10

    def test_angle_roundtrip_on_grid(self):
        for omega in np.linspace(0.05, math.pi / 3 - 0.05, 15):
            r = equilateral_triangle_radius(omega)
            ang = polygon_measures(regular_polygon(3, r)).angles[0]
            back = equilateral_triangle_radius(ang)
            assert back == pytest.approx(r, abs=1e-9)

    def test_domain(self):
        for bad in (0.0, math.pi / 3, 1.2):
            with pytest.raises(GeometryError):
                equilateral_triangle_radius(bad)


class TestRegularRadiusConstructors:
    def test_perimeter_roundtrip(self):
        r = regular_radius_from_perimeter(5, 10.0)
        assert polygon_perimeter(regular_polygon(5, r)) == pytest.approx(10.0, abs=1e-12)

    def test_perimeter_small_limit(self):
        assert regular_radius_from_perimeter(4, 1e-10) < 1e-9

    @pytest.mark.parametrize("L", [200.0, 300.0, 5000.0, 1e300])
    def test_perimeter_past_ideal_limit(self, L):
        # past 1 - 1e-12 the radius no longer fixes the perimeter (the
        # 3-gon at r = 1 - 5.9e-15 has perimeter 199.86); further on it
        # rounds to 1, and sh(L/2m) overflows
        with pytest.raises(GeometryError, match="ideal polygon limit"):
            regular_radius_from_perimeter(3, L)

    def test_perimeter_from_distance_oracle(self):
        s = 0.5
        L = 3 * hyp_dist(s, s * cmath.exp(2j * math.pi / 3))
        assert regular_radius_from_perimeter(3, L) == pytest.approx(0.5, abs=1e-13)

    def test_area_limits(self):
        assert regular_radius_from_area(3, 1e-10) < 1e-4

    def test_area_matches_equilateral_constructor(self):
        omega = math.pi / 4
        c = math.pi - 3 * omega
        assert regular_radius_from_area(3, c) == pytest.approx(
            equilateral_triangle_radius(omega), abs=1e-12
        )

    def test_area_roundtrip(self):
        r = regular_radius_from_area(7, 3.0)
        meas = polygon_measures(regular_polygon(7, r))
        assert meas.area == pytest.approx(3.0, abs=1e-10)

    def test_area_domain(self):
        with pytest.raises(GeometryError):
            regular_radius_from_area(3, math.pi)
        with pytest.raises(GeometryError):
            regular_radius_from_area(4, 0.0)

    @pytest.mark.parametrize("m", [2, 3.5, 4.0, True, np.float64(5.0)])
    def test_radius_constructors_need_int_vertex_count(self, m):
        # a 3.5-gon has no radius, whether from its area or its perimeter
        for radius in (regular_radius_from_area, regular_radius_from_perimeter):
            with pytest.raises(GeometryError, match="at least 3 vertices"):
                radius(m, 1.0)
        assert regular_radius_from_area(np.int64(4), 1.0) == regular_radius_from_area(4, 1.0)

    @pytest.mark.parametrize("m", [3, 8])
    def test_area_just_below_ideal_limit(self, m):
        # vertex angles near 0 come straight from the side tangents; a
        # fan of law-of-cosines triangles cancels here (4.4e-9 off at m = 3)
        top = (m - 2) * math.pi
        for gap in (1e-6, 1e-9):
            p = regular_polygon(m, regular_radius_from_area(m, top - gap))
            assert polygon_measures(p).area == pytest.approx(top - gap, abs=1e-12)
        # the radius would pass 1 - 1e-12: the ideal polygon limit
        with pytest.raises(GeometryError, match="ideal polygon limit"):
            regular_radius_from_area(m, top - 1e-13)

    @settings(max_examples=100)
    @given(m=st.integers(3, 12), frac=st.floats(0.01, 0.999))
    def test_area_closed_form_property(self, m, frac):
        c = frac * (m - 2) * math.pi
        r = regular_radius_from_area(m, c)
        assert polygon_measures(regular_polygon(m, r)).area == pytest.approx(c, rel=1e-10)
        assert r == pytest.approx(area_radius_oracle(m, c), abs=1e-11)
