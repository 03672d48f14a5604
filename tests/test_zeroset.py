import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as C
from scipy import special

from convexspectra import geometry as G
from convexspectra import heights
from convexspectra import zeroset as Z
from convexspectra.errors import (NoBlowupError, NotStandardPositionError,
                                  NotSymmetricError)


def test_grid_distance_examples():
    # the axes do not count for the punctured grid
    assert Z.grid_distance((0.1, 0.5)) == pytest.approx(0.5)
    assert Z.grid_distance((2.3, 0.4)) == pytest.approx(0.3)
    # an (N, 2) array gives the N distances, each as a point alone
    pts = [(0.1, 0.5), (2.3, 0.4), (-0.5, 0.5), (0.0, 0.0), (-3.2, 7.0), (1.5, -2.75)]
    got = Z.grid_distance(np.array(pts))
    assert got.shape == (6,) and got.tolist() == [Z.grid_distance(p) for p in pts]
    assert Z.grid_distance(np.zeros((0, 2))).shape == (0,)


def test_slab_validation(square):
    with pytest.raises(ValueError):
        Z.slab_zero_alignment(square, 0.5, [3.0])
    with pytest.raises(ValueError):
        Z.slab_zero_alignment(square, 2.0, [-1.0])
    assert len(Z.slab_zero_alignment(square, 1.0, [0.5], step=0.1)) == 1


def test_zeros_on_segment_square(square):
    zs = Z.zeros_on_segment(square, (0.5, 0.5), (5.5, 0.5))
    got = sorted(z.xi[0] for z in zs)
    assert len(got) == 5
    assert np.allclose(got, [1, 2, 3, 4, 5], atol=1e-9)
    assert all(z.residual <= 1e-9 for z in zs)


def test_zero_points_pickle_without_a_dict(square):
    # perfbench/worker.py keys each output's verdict by its pickle
    import pickle
    zs = Z.zeros_on_segment(square, (0.5, 0.5), (2.5, 0.5))
    assert pickle.loads(pickle.dumps(zs)) == zs
    assert not hasattr(zs[0], "__dict__")


def test_zeros_on_segment_h0_dual_point(hexagon_h0):
    # Poisson summation: the dual point (1, -2/5) of the tiling lattice is a zero
    zs = Z.zeros_on_segment(hexagon_h0, (1.0, -0.6), (1.0, -0.2))
    assert any(abs(z.xi[1] - (-0.4)) < 1e-9 for z in zs)


def test_zeros_on_segment_square_keeps_the_end_zero(square):
    # sinc(xi1) sinc(0.3) vanishes at the integers, the segment's end included
    zs = Z.zeros_on_segment(square, (1.0, 0.3), (4.0, 0.3))
    got = np.array([z.xi[0] for z in zs])
    assert len(got) == 4
    assert np.max(np.abs(got - [1.0, 2.0, 3.0, 4.0])) <= 1e-12


def test_zeros_on_segment_tent_diamond_close_pair(diamond_body):
    # the transform is sinc((xi1 + xi2)/2) sinc((xi1 - xi2)/2) / 2; along
    # (0.3 + 20 s, 0.2 + 3 s) it vanishes at s = (2k - 0.5)/23, k = 1..11, and
    # s = (2k - 0.1)/17, k = 1..8, two of them near xi1 = 18.996 and 19.006
    zs = Z.zeros_on_segment(diamond_body, (0.3, 0.2), (20.3, 3.2))
    s = np.sort(np.concatenate([(2.0 * np.arange(1, 12) - 0.5) / 23.0,
                                (2.0 * np.arange(1, 9) - 0.1) / 17.0]))
    got = np.array([z.xi[0] for z in zs])
    assert len(got) == 19
    assert np.max(np.abs(got - (0.3 + 20.0 * s))) <= 1e-10
    assert np.sum(np.abs(got - 19.0) < 0.01) == 2


def test_long_segment_pieces_keep_each_joint_zero_once(square):
    # 280 units along xi1 are cut into 7 pieces of 40, so every joint is a
    # zero that the pieces on both sides find
    assert Z._line_pieces(square, (280.0, 0.0), 1)[0] == 7
    zs = Z.zeros_on_segment(square, (0.0, 0.3), (280.0, 0.3))
    got = np.array([z.xi[0] for z in zs])
    assert len(got) == 280
    assert np.max(np.abs(got - np.arange(1.0, 281.0))) <= 1e-12


# the ends of the first 16 children of [-1 - _EDGE, 1 + _EDGE], where the
# subdivision splits
_SPLITS = [(1.0 + Z._EDGE) * m / 16.0 for m in range(-15, 16)]


@st.composite
def _planted_series(draw):
    """(Chebyshev coefficients, their real roots in [-1, 1]) for a series
    q * prod (x - r), q >= 1 near [-1, 1].  The r are split points and
    points off any grid; or roots at the ends or within _EDGE past them; or
    one pair 1e-6 apart.  Each kind has a series of its own, so that its
    roots stay far better conditioned than _EDGE and the pair's dip (about
    1e-12 q) stays a thousand times above rounding."""
    kind = draw(st.sampled_from(["inside", "ends", "pair"]))
    if kind == "inside":
        roots = draw(st.lists(st.sampled_from(_SPLITS), max_size=3, unique=True))
        roots += [k / 37.0 + 1e-3 for k in draw(st.lists(st.integers(-36, 35), max_size=3,
                                                           unique=True))]
    elif kind == "ends":
        roots = [r * end for end in (-1.0, 1.0)
                 for r in draw(st.sampled_from([[], [1.0], [1.0 + 0.5 * Z._EDGE], [1.5]]))]
    else:
        x = draw(st.integers(-30, 30)) / 37.0 + 0.5 / 37.0
        roots = [x, x + 1e-6]
    q = [2.0] + [k / 64.0 for k in draw(st.lists(st.integers(-8, 8), max_size=8))]
    coef = C.chebmul(C.chebfromroots(roots), q) if roots else np.array(q)
    inside = sorted(min(max(r, -1.0), 1.0) for r in roots if abs(r) <= 1.0 + Z._EDGE)
    return coef, inside


@settings(max_examples=80, deadline=None, derandomize=True)
@given(series=st.lists(_planted_series(), min_size=1, max_size=4))
def test_real_roots_find_each_planted_root_once(series):
    # the series are solved together, padded to one length with zeros
    n = max(3, *(len(c) for c, _ in series))
    coef = np.array([np.pad(c, (0, n - len(c))) for c, _ in series])
    i, t = Z._real_roots(coef, Z._EPS * np.abs(coef).sum(axis=1).max())
    assert np.all(np.diff(i) >= 0)
    for row, (c, want) in enumerate(series):
        got = t[i == row]
        assert len(got) == len(want) and np.all(np.abs(got - want) <= 1e-8), (got, want)
        # numpy's colleague-matrix roots, used here as an oracle
        ref = C.chebroots(c) if len(c) > 1 else np.array([])
        ref = np.sort(np.clip(ref.real[(np.abs(ref.imag) <= 1e-7)
                                       & (np.abs(ref.real) <= 1.0 + 1e-9)], -1.0, 1.0))
        assert len(ref) == len(got) and np.all(np.abs(ref - got) <= 1e-7), (ref, got)


def test_real_roots_of_a_series_zero_to_rounding_are_none():
    # every interval's coefficients stay under the floor: no root, and the
    # subdivision ends at once instead of splitting rounding noise
    rng = np.random.default_rng(5)
    coef = np.vstack([np.zeros(43), 1e-17 * rng.standard_normal((3, 43))])
    t0 = time.perf_counter()
    i, t = Z._real_roots(coef, 1e-15)
    assert len(i) == len(t) == 0 and time.perf_counter() - t0 < 1.0


def test_real_roots_keep_every_root_of_t_n():
    # T_n has n real roots, the most a degree-n series can have; the cap on
    # live intervals leaves room for all of them
    for n in (8, 42, 105):
        i, t = Z._real_roots(np.eye(n + 1)[n:], 1e-16)
        assert np.max(np.abs(t - np.cos((np.arange(n)[::-1] + 0.5) * np.pi / n))) <= 1e-14


def test_subdivision_maps_are_built_once_per_degree_read_only_and_bounded(monkeypatch):
    monkeypatch.setattr(Z, "_MAPS", {})
    coef = np.random.default_rng(7).standard_normal((5, 43))
    cold = Z._real_roots(coef, 1e-14)
    # keyed by the degree's value, not by the object passed
    maps = Z._subdivision_maps(np.int64(42))
    assert list(Z._MAPS) == [42] and type(next(iter(Z._MAPS))) is int
    assert Z._subdivision_maps(42) is maps
    warm = Z._real_roots(coef, 1e-14)
    assert all(np.array_equal(a, b) for a, b in zip(cold, warm))
    for a in maps:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0
    # under 1 MiB whatever the degrees asked for; at degree 106, the highest
    # a scan piece gets, two degrees fit, the least recently used going first
    for n in range(2, 160):
        Z._subdivision_maps(n)
        assert sum(a.nbytes for v in Z._MAPS.values() for a in v) <= 2**20
    for n in (106, 105, 106, 104):
        Z._subdivision_maps(n)
    assert list(Z._MAPS) == [106, 104]


def test_scan_memory_stays_under_its_budget(square, hexagon_h0, monkeypatch):
    # the tracemalloc peak of a scan is at most what _line_pieces refuses past
    budget, peak = [], []
    check, scan = Z.require_memory, Z._scan_lines

    def counted(nbytes, what, detail):
        budget.append(nbytes)
        check(nbytes, what, detail)

    def traced(*args):
        tracemalloc.start()
        try:
            return scan(*args)
        finally:
            peak.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(Z, "require_memory", counted)
    monkeypatch.setattr(Z, "_scan_lines", traced)
    assert len(Z.zeros_on_segment(square, (0.5, 0.3), (1600.5, 0.3))) == 1600
    assert len(Z.slab_zero_alignment(hexagon_h0, 3.0, [100.0])[0].zeros) == 3000  # 300 lines
    # 3000 lines, 129k points: the edge sum's chunk must fit the budget's 24 MiB
    oct_std, _ = G.normalize_edge_to_standard(G.regular_polygon(8), 0)
    assert len(Z.slab_zero_alignment(oct_std, 3.0, [100.0], step=0.002)[0].zeros) == 29_944
    assert len(peak) == len(budget) == 3
    assert all(p <= b for p, b in zip(peak, budget)), (peak, budget)


_DISC_ZEROS = special.jn_zeros(1, 40) / math.pi  # |xi| of the zeros of the r = 1/2 disc


@settings(max_examples=40, deadline=None, derandomize=True)
@given(theta=st.floats(0.0, 2.0 * math.pi), r0=st.floats(0.0, 5.0),
       length=st.floats(0.5, 20.0))
def test_disc_ray_zeros_are_every_bessel_zero(theta, r0, length):
    # the interpolant's degree comes from its bound: on a ray of the disc it
    # finds each zero j_{1,k}/pi in range once, and nothing else
    d = np.array([math.cos(theta), math.sin(theta)])
    zs = Z.zeros_on_segment(G.disc(0.5), r0 * d, (r0 + length) * d)
    radii = np.array([math.hypot(*z.xi) for z in zs])
    hit = np.argmin(np.abs(radii[:, None] - _DISC_ZEROS[None, :]), axis=1)
    assert np.all(np.abs(radii - _DISC_ZEROS[hit]) <= 1e-10), radii
    inside = np.nonzero((_DISC_ZEROS > r0 + 1e-9) & (_DISC_ZEROS < r0 + length - 1e-9))[0]
    assert set(inside) <= set(hit) and len(set(hit)) == len(hit), (radii, inside)


def test_zeros_requires_symmetry():
    tri = G.validate_polygon([(0.6, -0.4), (0.0, 0.8), (-0.6, -0.4)])
    with pytest.raises(NotSymmetricError):
        Z.zeros_on_segment(tri, (0.5, 0.5), (3.0, 0.5))


def test_slab_alignment_square_exact(square):
    reports = Z.slab_zero_alignment(square, 3.0, [20.0], step=0.1)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.window == (20.0, 30.0)
    assert len(rep.zeros) > 100
    assert rep.max_dist <= 1e-9


def test_slab_alignment_rejects_nonstandard(octagon, square):
    with pytest.raises(NotStandardPositionError):
        Z.slab_zero_alignment(octagon, 3.0, [20.0])
    big = G.validate_polygon(2.0 * square.vertices)
    with pytest.raises(NotStandardPositionError):
        Z.slab_zero_alignment(big, 3.0, [20.0])


def test_cap_slope_values():
    f = heights.semicircle(0.5)
    # S(0.01) = 2 sqrt(0.0099)/0.01
    assert Z.cap_slope(f, 0.01) == pytest.approx(
        2.0 * math.sqrt(0.0099) / 0.01, rel=1e-12)
    # delta * S(delta) decreases toward zero
    ds = [d * Z.cap_slope(f, d) for d in (0.1, 0.01, 0.001)]
    assert ds[0] > ds[1] > ds[2]
    tent = heights.tent(-0.5, 0.5)
    assert Z.cap_slope(tent, 0.2) == pytest.approx(2.0)


def test_select_scales_semicircle():
    f = heights.semicircle(0.5)
    eps, A = 0.1, 5.0
    d0, d = Z.select_scales(f, eps, A)
    assert d < d0
    assert d0 <= eps / (10 * A)
    assert d0 * Z.cap_slope(f, d0) <= eps / (10 * A) * (1 + 1e-9)
    assert Z.cap_slope(f, d) >= 10.0 * (1.0 + Z.cap_slope(f, d0) / eps) * (1 - 1e-9)


def test_select_scales_power_cap():
    f = heights.power(0.75, 1.0, -0.5, 0.5)
    d0, d = Z.select_scales(f, 0.1, 5.0)
    assert 0 < d < d0


def test_select_scales_tent_no_blowup():
    with pytest.raises(NoBlowupError):
        Z.select_scales(heights.tent(-0.5, 0.5), 0.1, 5.0)


def test_ball_alignment_square(square):
    rep = Z.ball_zero_alignment(square, 1.0, 0.1, (20.0, 40.0), step=0.05)
    assert rep.window == (20.0, 40.0)
    assert rep.beta == pytest.approx(0.0, abs=1e-9)
    assert rep.max_dist <= 1e-9


def test_ball_alignment_diamond_no_blowup(diamond_body):
    with pytest.raises(NoBlowupError):
        Z.ball_zero_alignment(diamond_body, 2.0, 0.1, (20.0, 40.0))


def test_ball_alignment_disc(disc_body):
    rep = Z.ball_zero_alignment(disc_body, 2.0, 0.1, (20.0, 40.0))
    # radial zeros sit near |xi| = k + 1/4 for large k
    assert min(abs(rep.beta - 0.25), abs(rep.beta - 0.75)) < 0.05
    assert rep.max_dist < 0.05
    assert len(rep.zeros) > 10
