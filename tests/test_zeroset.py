import math

import numpy as np
import pytest

from convexspectra import geometry as G
from convexspectra import heights
from convexspectra import zeroset as Z
from convexspectra.errors import (NoBlowupError, NotStandardPositionError,
                                  NotSymmetricError)


def test_grid_distance_examples():
    assert Z.grid_distance((0.5, 3.7), "G") == pytest.approx(0.3)
    assert Z.grid_distance((1.0, 0.2), "G") == pytest.approx(0.0)
    assert Z.grid_distance((0.1, 0.5), "G") == pytest.approx(0.1)
    # the axes do not count for the punctured grid
    assert Z.grid_distance((0.1, 0.5), "Z_Q") == pytest.approx(0.5)
    assert Z.grid_distance((2.3, 0.4), "shifted_vertical_grid", beta=0.25
                           ) == pytest.approx(0.05)


def test_grid_distance_domination():
    rng = np.random.default_rng(2)
    for _ in range(200):
        xi = rng.uniform(-6, 6, 2)
        assert Z.grid_distance(xi, "G") <= Z.grid_distance(xi, "Z_Q") + 1e-15


def test_slab_validation(square):
    with pytest.raises(ValueError):
        Z.slab_zero_alignment(square, 0.5, [3.0])
    with pytest.raises(ValueError):
        Z.slab_zero_alignment(square, 2.0, [-1.0])
    assert len(Z.slab_zero_alignment(square, 1.0, [0.5], step=0.1)) == 1


def test_zeros_on_segment_square(square):
    zs = Z.zeros_on_segment(square, (0.5, 0.5), (5.5, 0.5), step=0.05)
    got = sorted(z.xi[0] for z in zs)
    assert len(got) == 5
    assert np.allclose(got, [1, 2, 3, 4, 5], atol=1e-9)
    assert all(z.residual <= 1e-9 for z in zs)


def test_zeros_on_segment_h0_dual_point(hexagon_h0):
    # Poisson summation: the dual point (1, -2/5) of the tiling lattice is a zero
    zs = Z.zeros_on_segment(hexagon_h0, (1.0, -0.6), (1.0, -0.2), step=0.01)
    assert any(abs(z.xi[1] - (-0.4)) < 1e-9 for z in zs)


def test_zeros_requires_symmetry():
    tri = G.validate_polygon([(0.6, -0.4), (0.0, 0.8), (-0.6, -0.4)])
    with pytest.raises(NotSymmetricError):
        Z.zeros_on_segment(tri, (0.5, 0.5), (3.0, 0.5))


def test_slab_alignment_square_exact(square):
    reports = Z.slab_zero_alignment(square, 3.0, [20.0], step=0.1)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.target == "Z_Q"
    assert len(rep.zeros) > 100
    assert rep.max_dist <= 1e-9


def test_slab_alignment_rejects_nonstandard(octagon):
    with pytest.raises(NotStandardPositionError):
        Z.slab_zero_alignment(octagon, 3.0, [20.0])
    big = G.validate_polygon(2.0 * G.unit_square().vertices)
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
    assert rep.target == "shifted_vertical_grid"
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
