import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from convexspectra import geometry as G
from convexspectra import heights
from convexspectra.errors import (DegenerateError, EdgeThroughOriginError,
                                  NoConvergenceError, NotConvexError,
                                  NotStandardPositionError)

from conftest import random_symmetric_2ngon


def test_validate_polygon_orientation():
    ccw = G.validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    cw = G.validate_polygon([(0, 1), (1, 1), (1, 0), (0, 0)])
    assert ccw.area == pytest.approx(1.0)
    assert cw.area == pytest.approx(1.0)
    assert G.shoelace_area(cw.vertices) > 0  # reoriented to counterclockwise


def test_validate_polygon_rejects():
    with pytest.raises(NotConvexError):
        G.validate_polygon([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])
    with pytest.raises(DegenerateError):
        G.validate_polygon([(0, 0), (1, 0), (2, 0), (1, 1)])  # collinear run
    with pytest.raises(DegenerateError):
        G.validate_polygon([(0, 0), (1, 0)])


def test_measures(square, hexagon_h0, octagon):
    assert square.area == pytest.approx(1.0)
    assert square.perimeter() == pytest.approx(4.0)
    assert hexagon_h0.area == pytest.approx(1.25)
    assert octagon.area == pytest.approx(2.0 * math.sqrt(2.0))
    m = G.measures(hexagon_h0)
    assert m.area == pytest.approx(1.25)


def test_measures_raises_when_the_arc_length_does_not_converge():
    # arc length of a p = 0.05 power height: scipy stops short (5.3638 against
    # 5.3561 from mpmath), which must not pass as a perimeter
    f = heights.power(0.05)
    with pytest.raises(NoConvergenceError):
        G.measures(G.GraphBody(-0.5, 0.5, f, f))


def test_regular_polygon_area():
    for m in (4, 6, 8, 10, 12):
        poly = G.regular_polygon(m)
        assert poly.area == pytest.approx(m / 2.0 * math.sin(2 * math.pi / m))


def test_is_symmetric(square, hexagon_h0):
    ok, c = G.is_symmetric(square)
    assert ok and abs(c.x) < 1e-12 and abs(c.y) < 1e-12
    shifted = G.validate_polygon(square.vertices + np.array([0.3, -0.2]))
    ok, c = G.is_symmetric(shifted)
    assert ok and c.x == pytest.approx(0.3) and c.y == pytest.approx(-0.2)
    tri = G.validate_polygon([(0.6, -0.4), (0.0, 0.8), (-0.6, -0.4)])
    ok, _ = G.is_symmetric(tri)
    assert not ok
    assert G.is_symmetric(hexagon_h0)[0]


def test_graph_body_area(disc_body, parabola_capped, diamond_body):
    assert disc_body.area == pytest.approx(math.pi / 4.0, abs=1e-12)
    # square + two parabolic caps of area integral(1/4 - x^2) = 1/6
    assert parabola_capped.area == pytest.approx(1.0 + 2.0 / 6.0, abs=1e-12)
    assert diamond_body.area == pytest.approx(0.5, abs=1e-12)


def test_graph_body_validation():
    convex_down = heights.polynomial([0.1, 0.0, 1.0])  # convex, not concave
    with pytest.raises(NotConvexError):
        G.GraphBody(-0.5, 0.5, convex_down, heights.tent(-0.5, 0.5))
    with pytest.raises(DegenerateError):
        G.GraphBody(-0.5, 0.4, heights.tent(-0.5, 0.5), heights.tent(-0.5, 0.5))


def test_graph_body_checks_flat_arcs_at_their_knots():
    # a dip between two knots 1e-4 apart, which 257 samples step over
    dip = heights.piecewise([-0.5, 0.0011, 0.0012, 0.0013, 0.5],
                            [0.5, 0.7, 0.69, 0.7, 0.5])
    with pytest.raises(NotConvexError):
        G.GraphBody(-0.5, 0.5, dip, heights.polynomial([0.5]))


def test_is_symmetric_graph(disc_body, parabola_capped):
    ok, c = G.is_symmetric(disc_body)
    assert ok and abs(c.x) < 1e-9 and abs(c.y) < 1e-9
    lop = G.GraphBody(-0.5, 0.5, heights.polynomial([0.75, 0.0, -1.0]),
                      heights.tent(-0.5, 0.5))
    assert not G.is_symmetric(lop)[0]
    assert G.is_symmetric(parabola_capped)[0]
    # the center comes from the heights at the midpoint, with no quadrature
    # to warn about its identically zero y-moment
    assert G.is_symmetric(G.disc(10.0)) == (True, (0.0, 0.0))
    shifted = G.GraphBody(-1.0, 3.0, heights.power(0.5, 1.0, -1.0, 3.0),
                          heights.power(0.5, 1.0, -1.0, 3.0))
    assert G.is_symmetric(shifted) == (True, (1.0, 0.0))


def test_standard_position_of_graph_bodies(disc_body, parabola_capped):
    G.require_standard_position(parabola_capped)  # f = g = 1/2 at the walls
    xs = np.linspace(-0.5, 0.5, 11)
    np.testing.assert_allclose(G.upper_cap(parabola_capped)(xs), 0.25 - xs * xs,
                               rtol=0.0, atol=1e-15)  # the cap 1/4 - x^2
    with pytest.raises(NotStandardPositionError, match="unit square"):
        G.require_standard_position(disc_body)
    with pytest.raises(NotStandardPositionError, match="slab"):
        G.require_standard_position(G.disc(1.0))


def test_height_profile(square, hexagon_h0, disc_body):
    # upper boundary y = u(x)
    u = G.graph_heights(square)[0]
    assert u(0.0) == pytest.approx(0.5)
    assert u(0.5) == pytest.approx(0.5)
    v = G.graph_heights(hexagon_h0)[0]
    assert v(0.0) == pytest.approx(0.75)
    assert v(0.25) == pytest.approx(0.625)
    w = G.graph_heights(disc_body)[0]
    assert w(0.3) == pytest.approx(0.4)


def test_graph_heights_is_the_converse_of_as_polygon(hexagon_h0):
    rng = np.random.default_rng(7)
    polys = [hexagon_h0]
    for n in range(2, 8):
        # shear the extreme vertices onto the x-axis, so that both chains
        # are non-negative heights over it
        p = random_symmetric_2ngon(rng, n).vertices
        right = p[np.argmax(p[:, 0])]
        polys.append(G.validate_polygon(p - np.outer(p[:, 0], (0.0, right[1] / right[0]))))
    for poly in polys:
        f, g = G.graph_heights(poly)
        back = G.as_polygon(G.GraphBody(f.a, f.b, f, g)).vertices
        j = int(np.flatnonzero(np.all(back == poly.vertices[0], axis=1))[0])
        np.testing.assert_array_equal(np.roll(back, -j, axis=0), poly.vertices)


def _walked_chain(poly, upper):
    """The chain by a walk around the vertex ring, counterclockwise from its
    start to its stop: the rule that _chain_indices computes as one range."""
    v, m = poly.vertices, poly.m
    tol = 1e-12 * poly.scale()

    def pick(xval, top):
        idx = [i for i in range(m) if abs(v[i, 0] - xval) <= tol]
        return max(idx, key=(lambda i: v[i, 1]) if top else (lambda i: -v[i, 1]))

    xmin, xmax = float(np.min(v[:, 0])), float(np.max(v[:, 0]))
    if upper:
        start, stop = pick(xmax, True), pick(xmin, True)
    else:
        start, stop = pick(xmin, False), pick(xmax, False)
    chain = [start]
    while chain[-1] != stop:
        chain.append((chain[-1] + 1) % m)
    return chain[::-1] if upper else chain


def test_chain_indices_are_the_ring_walk_on_random_polygons():
    # hulls of 3 to 11 random points, every other set rounded to a grid of
    # step 1/4 so that vertical edges and ties at the extreme x occur, each
    # started at a random vertex so that chains wrap past index 0
    rng = np.random.default_rng(17)
    vertical = 0
    for k in range(600):
        pts = rng.uniform(-1.0, 1.0, (int(rng.integers(3, 12)), 2))
        if k % 2:
            pts = np.round(4.0 * pts) / 4.0
        try:
            v = pts[ConvexHull(pts).vertices]
            poly = G.validate_polygon(np.roll(v, int(rng.integers(len(v))), axis=0))
        except (QhullError, DegenerateError):
            continue
        for upper in (True, False):
            assert G._chain_indices(poly, upper).tolist() == _walked_chain(poly, upper)
        x = poly.vertices[:, 0]
        vertical += bool(np.any(x == np.roll(x, -1)))
    assert vertical > 100


def test_standard_position_and_caps(square, hexagon_h0, octagon):
    # h0's cap is the tent of height 1/4 over the square's top edge
    assert G.upper_cap(hexagon_h0).polyline() == ((-0.5, 0.0, 0.5), (0.0, 0.25, 0.0))
    xs = np.linspace(-0.5, 0.5, 11)
    assert np.all(G.upper_cap(square)(xs) == 0.0)
    with pytest.raises(NotStandardPositionError):
        G.upper_cap(octagon)  # does not contain the unit square


def test_normalize_edge_to_standard():
    a, b = (1.0, -0.3), (1.0, 0.7)
    poly = G.validate_polygon([a, b, (-a[0], -a[1]), (-b[0], -b[1])])
    mapped, lin = G.normalize_edge_to_standard(poly, 0)
    v = mapped.vertices
    # the chosen edge becomes the segment (1/2, -1/2) -> (1/2, 1/2)
    cols = v[np.isclose(v[:, 0], 0.5)]
    assert sorted(np.round(cols[:, 1], 9).tolist()) == [-0.5, 0.5]
    assert mapped.area == pytest.approx(abs(np.linalg.det(lin)) * poly.area)
    assert np.allclose(poly.vertices[:2] @ lin.T, [(0.5, -0.5), (0.5, 0.5)],
                       rtol=0.0, atol=1e-15)
    # the image is in standard position: contains Q, confined to |x| <= 1/2
    G.require_standard_position(mapped)


def test_normalize_edge_requires_origin_symmetry():
    from convexspectra.errors import NotSymmetricError
    sq = G.validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])  # center (.5, .5)
    with pytest.raises(NotSymmetricError):
        G.normalize_edge_to_standard(sq, 0)


def test_lattice_basics(z2):
    lat = G.Lattice(G.Point2(1.0, 0.0), G.Point2(0.5, 1.25))
    assert lat.covolume == pytest.approx(1.25)
    rt = G.Lattice.from_matrix(lat.basis())
    assert rt == lat
    with pytest.raises(DegenerateError):
        G.Lattice(G.Point2(1.0, 2.0), G.Point2(2.0, 4.0))
    with pytest.raises(DegenerateError):
        G.Lattice(G.Point2(0.0, 0.0), G.Point2(0.0, 1.0))
    assert z2.covolume == 1.0


@pytest.mark.parametrize("short", [1e-6, 1e-300])
def test_orthogonal_generators_of_unequal_lengths_are_independent(short):
    # independence is decided by the angle between the generators, not by
    # their lengths: 1/short x short is orthogonal with covolume 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lat = G.Lattice(G.Point2(1.0 / short, 0.0), G.Point2(0.0, short))
    assert lat.covolume == pytest.approx(1.0)


def test_inside_margin(square):
    m = G.inside_margin(square, [(0.2, -0.3), (0.7, 0.0), (0.5, 0.5)])
    assert m[0] == pytest.approx(0.2)  # distance to the nearest edge
    assert m[1] == pytest.approx(-0.2)
    assert abs(m[2]) <= 1e-15  # corner


@settings(max_examples=25, deadline=None)
@given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2),
       st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
def test_parallelogram_symmetry_property(ax, ay, bx, by):
    # any independent pair gives a symmetric convex quadrilateral
    if abs(ax * by - ay * bx) < 0.05:
        return
    poly = G.validate_polygon([(ax, ay), (bx, by), (-ax, -ay), (-bx, -by)])
    ok, c = G.is_symmetric(poly)
    assert ok
    assert math.hypot(c.x, c.y) < 1e-9
    assert poly.area == pytest.approx(2.0 * abs(ax * by - ay * bx))


def test_as_polygon_reads_graph_bodies_from_their_knots(square, disc_body,
                                                        parabola_capped, diamond_body):
    assert G.as_polygon(square) is square
    assert G.as_polygon(disc_body) is None
    assert G.as_polygon(parabola_capped) is None
    # zero-height walls: the repeated corners at x = -1/2 and 1/2 are dropped
    assert G.as_polygon(diamond_body).vertices.tolist() == [
        [-0.5, 0.0], [0.0, -0.5], [0.5, 0.0], [0.0, 0.5]]
    # a straight-through knot is removed, and the chain starts at the lower left
    f = heights.piecewise([-0.5, 0.0, 0.5], [0.5, 0.5, 0.5])
    assert G.as_polygon(G.GraphBody(-0.5, 0.5, f, heights.polynomial([0.5]))
                        ).vertices.tolist() == square.vertices[[3, 0, 1, 2]].tolist()
    # a cap on a flat floor: triangle through the peak of a p = 1 power height
    cap = G.GraphBody(-0.5, 0.5, heights.power(1.0, 2.0), heights.zero())
    assert G.as_polygon(cap).vertices.tolist() == [[-0.5, 0.0], [0.5, 0.0], [0.0, 1.0]]
