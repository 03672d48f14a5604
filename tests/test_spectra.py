import math

import numpy as np
import pytest

from convexspectra import geometry as G
from convexspectra import spectra as S
from convexspectra.errors import InsufficientWindowError


def brute_lattice_ball(basis, radius):
    out = []
    for m in range(-50, 51):
        for n in range(-50, 51):
            p = basis @ np.array([m, n])
            if math.hypot(p[0], p[1]) <= radius + 1e-12:
                out.append(p)
    return np.array(sorted(map(tuple, out)))


def test_lattice_points_in_ball_matches_brute_force():
    lat = G.Lattice(G.Point2(1.0, 0.1), G.Point2(-0.3, 0.9))
    got = S.lattice_points_in_ball(lat, 7.3)
    want = brute_lattice_ball(lat.basis(), 7.3)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


def test_orthogonality_square_z2(square):
    ok, (pt, worst) = S.orthogonality_check(square, G.Z2, 10.0)
    assert ok
    assert worst <= 1e-12


def test_orthogonality_perturbed_fails(square):
    # stretching one generator by 1% moves (m, n) off the zero lines m in Z:
    # the worst difference within 2 * 5 is (-1.01, 0), |sinc(1.01)| = 9.9e-3
    lat = G.Lattice(G.Point2(1.01, 0.0), G.Point2(0.0, 1.0))
    ok, (pt, worst) = S.orthogonality_check(square, lat, 5.0)
    assert not ok
    assert worst > 1e-4


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_non_positive_radius_is_refused(square, radius):
    with pytest.raises(ValueError, match=f"radius must be positive, got {radius:g}"):
        S.lattice_points_in_ball(G.Z2, radius)
    with pytest.raises(ValueError, match="radius must be positive"):
        S.orthogonality_check(square, G.Z2, radius)


def test_landau_density_z2():
    pts = S.lattice_points_in_ball(G.Z2, 45.0)
    rep = S.landau_density(pts, 10.0, [(0.0, 0.0), (0.5, 0.5)])
    assert (rep.D_plus, rep.D_minus) == (441, 400)
    assert rep.normalized_plus == pytest.approx(441 / 400)
    assert rep.normalized_minus == pytest.approx(1.0)


def test_landau_window_guard():
    pts = S.lattice_points_in_ball(G.Z2, 5.0)
    with pytest.raises(InsufficientWindowError):
        S.landau_density(pts, 10.0, [(0.0, 0.0)])


def test_spectral_gap_pass_and_fail(square):
    pts = S.lattice_points_in_ball(G.Z2, 60.0)
    ok, largest = S.spectral_gap_check(pts, square)
    assert ok
    assert largest <= 0.5 + 1e-12
    # a one-dimensional point set leaves arbitrarily large empty cubes
    line = np.array([(float(k), 0.0) for k in range(-60, 61)])
    ok, largest = S.spectral_gap_check(line, square)
    assert not ok
    assert largest > 4.0
