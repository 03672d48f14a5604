import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexspectra import geometry, heights, spectra, tiling
from convexspectra.errors import CovolumeMismatchError, NotTileableError
from convexspectra.geometry import GraphBody, Lattice, Point2

from conftest import random_parallelogram, random_symmetric_hexagon


def test_tiling_lattice_square(square):
    lat = tiling.tiling_lattice(square)
    assert lat.g1 == Point2(1.0, 0.0)
    assert lat.g2 == Point2(0.0, 1.0)
    assert lat.covolume == pytest.approx(1.0, abs=1e-15)


def test_tiling_lattice_hexagon(hexagon_h0):
    lat = tiling.tiling_lattice(hexagon_h0)
    assert lat.g1 == Point2(1.0, 0.0)
    assert lat.g2 == Point2(0.5, 1.25)
    assert lat.covolume == pytest.approx(1.25, abs=1e-15)


def test_tiling_lattice_rejects_octagon(octagon):
    with pytest.raises(NotTileableError):
        tiling.tiling_lattice(octagon)


def test_tiling_lattice_rejects_asymmetric():
    quad = geometry.validate_polygon([(1, 0), (0, 1), (-1, 0), (0, -2)])
    with pytest.raises(NotTileableError):
        tiling.tiling_lattice(quad)


def test_verify_square_tiles(square):
    ok, bad = tiling.verify_tiling(square, tiling.tiling_lattice(square))
    assert ok and bad == []


def test_verify_hexagon_tiles(hexagon_h0):
    ok, bad = tiling.verify_tiling(hexagon_h0, tiling.tiling_lattice(hexagon_h0))
    assert ok and bad == []


@pytest.mark.parametrize("name, translates", [("square", 4), ("h0", 6), ("regular", 8)])
def test_verify_tiling_tests_only_the_translates_that_reach_the_cell(
        name, translates, square, hexagon_h0, monkeypatch):
    poly = {"square": square, "h0": hexagon_h0, "regular": geometry.regular_polygon(6)}[name]
    sizes, inside_margin = [], tiling.inside_margin

    def counting(poly, points):
        sizes.append(len(points))
        return inside_margin(poly, points)

    monkeypatch.setattr(tiling, "inside_margin", counting)
    ok, bad = tiling.verify_tiling(poly, tiling.tiling_lattice(poly), samples=1)
    assert ok and bad == []
    assert sizes[0] == translates


def test_verify_rejects_covolume_mismatch(square):
    with pytest.raises(CovolumeMismatchError):
        tiling.verify_tiling(square, Lattice(Point2(2.0, 0.0), Point2(0.0, 1.0)))


def test_verify_detects_wrong_lattice_with_matching_covolume(square):
    # covolume 1 matches the area, but translates overlap vertically and
    # leave gaps horizontally
    lat = Lattice(Point2(2.0, 0.0), Point2(0.0, 0.5))
    ok, bad = tiling.verify_tiling(square, lat, samples=2000)
    assert not ok
    assert len(bad) > 0


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_random_parallelograms_tile(seed):
    poly = random_parallelogram(np.random.default_rng(seed))
    ok, bad = tiling.verify_tiling(poly, tiling.tiling_lattice(poly), samples=2000)
    assert ok, bad


@pytest.mark.parametrize("seed", [5, 13, 21])
def test_random_hexagons_tile(seed):
    poly = random_symmetric_hexagon(np.random.default_rng(seed))
    ok, bad = tiling.verify_tiling(poly, tiling.tiling_lattice(poly), samples=2000)
    assert ok, bad


class _GridDraws:
    """A stand-in for default_rng whose draws u have coordinates 0, 1/2 and
    1/2 +- 5e-8 (a tenth of the resolution), never both 0: every sample lies
    on an edge or corner of the square where two or four translates of Z^2
    meet."""

    def __init__(self, seed):
        pass

    def random(self, shape):
        grid = [0.0, 0.5, 0.5 - 5e-8, 0.5 + 5e-8]
        u = np.stack(np.meshgrid(grid, grid)).reshape(2, -1)[:, 1:]  # not (0, 0)
        return u[:, np.arange(shape[1]) % u.shape[1]]


def test_verify_tiling_decides_samples_on_shared_edges_and_corners(square, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _GridDraws)
    ok, bad = tiling.verify_tiling(square, tiling.tiling_lattice(square), samples=15)
    assert ok and bad == []


def _brute_force_bad(poly, lat, samples, seed):
    """verify_tiling's rule over every lattice point within twice its reach."""
    d = 1e-6 * poly.scale()
    g1, g2 = np.array(lat.g1), np.array(lat.g2)
    reach = (0.5 * max(math.hypot(*(g1 + g2)), math.hypot(*(g1 - g2)))
             + max(math.hypot(*v) for v in poly.vertices) + d)
    lam = spectra.lattice_points_in_ball(lat, 2.0 * reach + math.hypot(*(0.5 * (g1 + g2))))
    pts = (lat.basis() @ np.random.default_rng(seed).random((2, samples))).T
    margins = np.stack([geometry.inside_margin(poly, pts - p) for p in lam], axis=1)
    bad = ((margins >= d).sum(axis=1) >= 2) | np.all(margins <= -d, axis=1)
    return pts[bad]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), hexagon=st.booleans(),
       shear=st.one_of(st.just(0.0), st.floats(-0.6, 0.6)))
def test_verify_tiling_bad_samples_match_a_brute_force_cover_count(seed, hexagon, shear):
    # the tiling lattice, or the same lattice sheared along x: same covolume,
    # and for most shears overlaps and gaps
    rng = np.random.default_rng(seed)
    poly = (random_symmetric_hexagon if hexagon else random_parallelogram)(rng)
    lat = tiling.tiling_lattice(poly)
    lat = Lattice.from_matrix(np.array([[1.0, shear], [0.0, 1.0]]) @ lat.basis())
    ok, bad = tiling.verify_tiling(poly, lat, samples=400, seed=seed)
    want = _brute_force_bad(poly, lat, 400, seed)
    assert ok == (len(want) == 0)
    np.testing.assert_allclose(np.array(bad).reshape(-1, 2), want, rtol=1e-12, atol=1e-12)
    if shear == 0.0:
        assert ok


def test_verify_tiling_memory_is_bounded(hexagon_h0):
    import tracemalloc
    lat = tiling.tiling_lattice(hexagon_h0)
    tracemalloc.start()
    try:
        ok, bad = tiling.verify_tiling(hexagon_h0, lat, samples=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and bad == []
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MiB"


def test_verify_tiling_does_not_depend_on_the_chunk(square, monkeypatch):
    # same draws, same verdict and bad samples, whatever the chunk size
    lat = Lattice(Point2(2.0, 0.0), Point2(0.0, 0.5))
    whole = tiling.verify_tiling(square, lat, samples=500, seed=4)
    monkeypatch.setattr(tiling, "_CHUNK_TERMS", 1)
    assert tiling.verify_tiling(square, lat, samples=500, seed=4) == whole
    assert not whole[0] and whole[1]


def test_classify_square(square):
    v = tiling.classify(square)
    assert v.tiles and v.spectral
    assert v.reason == "symmetric_quadrilateral"
    assert v.lattice is not None


def test_classify_hexagon(hexagon_h0):
    v = tiling.classify(hexagon_h0)
    assert v.tiles and v.spectral
    assert v.reason == "symmetric_hexagon"


def test_classify_octagon(octagon):
    v = tiling.classify(octagon)
    assert not v.tiles and not v.spectral
    assert v.reason == "polygon_n_ge_4"
    assert v.lattice is None


def test_classify_asymmetric_triangle():
    tri = geometry.validate_polygon([(1, 0), (0, 1), (-1, -1)])
    v = tiling.classify(tri)
    assert not v.tiles and not v.spectral
    assert v.reason == "not_symmetric"


def test_classify_disc(disc_body):
    v = tiling.classify(disc_body)
    assert not v.tiles and not v.spectral
    assert v.reason == "not_polygon"


def test_classify_parabola_cap(parabola_capped):
    v = tiling.classify(parabola_capped)
    assert not v.spectral
    assert v.reason == "not_polygon"


def test_classify_diamond_graph_as_quadrilateral(diamond_body):
    # flat tent boundaries: the graph body is really a square rotated 45deg
    v = tiling.classify(diamond_body)
    assert v.tiles and v.spectral
    assert v.reason == "symmetric_quadrilateral"


def test_classify_flat_graph_hexagon():
    f = heights.piecewise([-0.5, 0.0, 0.5], [0.5, 0.75, 0.5])
    v = tiling.classify(GraphBody(-0.5, 0.5, f, f))
    assert v.tiles and v.spectral
    assert v.reason == "symmetric_hexagon"


def test_classify_flat_graph_square():
    f = heights.piecewise([-0.5, 0.5], [0.5, 0.5])
    v = tiling.classify(GraphBody(-0.5, 0.5, f, f))
    assert v.tiles and v.spectral
    assert v.reason == "symmetric_quadrilateral"


def test_flat_graph_hexagon_lattice_is_exact():
    f = heights.piecewise([-0.5, 0.0, 0.5], [0.5, 0.75, 0.5])
    v = tiling.classify(GraphBody(-0.5, 0.5, f, f))
    assert v.lattice == Lattice(Point2(-0.5, -1.25), Point2(0.5, -1.25))


def test_classify_flat_graph_hexagon_with_knot_near_the_wall():
    # the knot is 1e-4 from the wall, closer than a sampled recovery resolves
    f = heights.piecewise([-0.5, 0.4999, 0.5], [0.5, 0.75, 0.5])
    g = heights.piecewise([-0.5, -0.4999, 0.5], [0.5, 0.75, 0.5])
    v = tiling.classify(GraphBody(-0.5, 0.5, f, g))
    assert v.spectral and v.reason == "symmetric_hexagon"


def test_classify_flat_graph_octagon_with_close_knots():
    f = heights.piecewise([-0.5, -1e-4, 1e-4, 0.5], [0.5, 0.75, 0.75, 0.5])
    v = tiling.classify(GraphBody(-0.5, 0.5, f, f))
    assert not v.spectral and v.reason == "polygon_n_ge_4"


def test_verify_tiling_needs_a_sample(square):
    with pytest.raises(ValueError, match="at least 1 sample"):
        tiling.verify_tiling(square, tiling.tiling_lattice(square), samples=0)


def test_verify_tiling_memory_is_what_its_budget_counts(square):
    # each sample adds at most _BYTES_PER_SAMPLE to the peak, and a count
    # past the memory budget is refused before any array is built
    import tracemalloc
    lat = tiling.tiling_lattice(square)
    peaks = []
    for samples in (20_000, 80_000):
        tracemalloc.start()
        try:
            tiling.verify_tiling(square, lat, samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= tiling._BYTES_PER_SAMPLE * 60_000, peaks
    too_many = geometry.MEMORY_BUDGET // tiling._BYTES_PER_SAMPLE + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            tiling.verify_tiling(square, lat, samples=too_many)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
