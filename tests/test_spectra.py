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


def test_candidate_constructors():
    cand = S.SpectrumCandidate.from_lattice(G.Z2)
    assert cand.kind == "lattice"
    pts = S.SpectrumCandidate.from_points([(0.0, 0.0), (0.5, 0.25)])
    assert pts.kind == "explicit"
    with pytest.raises(ValueError):
        S.SpectrumCandidate.from_points([(0.5, 0.25)])  # origin missing
    with pytest.raises(ValueError):
        S.SpectrumCandidate.from_points([(0.0, 0.0), (0.0, 0.0)])


def test_orthogonality_square_z2(square):
    cand = S.SpectrumCandidate.from_lattice(G.Z2)
    ok, (pt, worst) = S.orthogonality_check(square, cand, 10.0)
    assert ok
    assert worst <= 1e-12


def test_orthogonality_perturbed_fails(square):
    pts = [(float(m), float(n)) for m in range(-3, 4) for n in range(-3, 4)]
    pts[10] = (pts[10][0] + 0.01, pts[10][1])
    cand = S.SpectrumCandidate.from_points(pts)
    ok, (pt, worst) = S.orthogonality_check(square, cand, 5.0)
    assert not ok
    assert worst > 1e-4


def parseval_1d_truncated(x, trunc):
    ks = np.arange(-trunc, trunc + 1)
    return float(np.sum(np.sinc(x - ks) ** 2))


def test_parseval_square_matches_separable_oracle(square):
    # the 2D lattice sum factorizes into two 1D sums for the square
    cand = S.SpectrumCandidate.from_lattice(G.Z2)
    trunc = 60
    xs = [(0.2, 0.7), (0.45, 0.1)]
    dev, tail = S.parseval_deficiency(square, cand, xs, trunc)
    oracle_dev = max(
        abs(parseval_1d_truncated(x1, trunc) * parseval_1d_truncated(x2, trunc) - 1.0)
        for x1, x2 in xs)
    # the library truncates by euclidean ball, the oracle by box: the box sum
    # only adds more nonnegative mass, so the library deviation from 1 is at
    # least the oracle's and both vanish with the same tail scale
    assert dev >= oracle_dev - 1e-12
    assert dev <= 10.0 * (oracle_dev + tail)
    assert tail > 0


def test_parseval_sublattice_half_mass(square):
    # dropping every other column of frequencies halves the sum at x = (1/2, 0)
    sub = G.Lattice(G.Point2(2.0, 0.0), G.Point2(0.0, 1.0))
    cand = S.SpectrumCandidate.from_lattice(sub)
    dev, _ = S.parseval_deficiency(square, cand, [(0.5, 0.0)], 200)
    assert dev == pytest.approx(0.5, abs=1e-3)


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


def test_dual_lattice_h0():
    tiling = G.Lattice(G.Point2(1.0, 0.0), G.Point2(0.5, 1.25))
    dual = S.dual_lattice(tiling)
    assert dual.g1.x == pytest.approx(1.0)
    assert dual.g1.y == pytest.approx(-0.4)
    assert dual.g2.x == pytest.approx(0.0)
    assert dual.g2.y == pytest.approx(0.8)
    # integral pairing and inverse covolume
    P = tiling.basis().T @ dual.basis()
    assert np.max(np.abs(P - np.eye(2))) < 1e-12
    assert dual.covolume == pytest.approx(1.0 / tiling.covolume)
    back = S.dual_lattice(dual)
    assert np.max(np.abs(back.basis() - tiling.basis())) < 1e-12


def _nearest_integer_candidate(k):
    # the k points of Z^2 nearest the origin, the origin first
    pts = S.lattice_points_in_ball(G.Z2, 25.0)
    return S.SpectrumCandidate.from_points(
        pts[np.argsort(np.hypot(pts[:, 0], pts[:, 1]), kind="stable")[:k]])


def test_explicit_candidate_over_budget_is_refused_before_allocating(square):
    # 1827 points, 1668051 differences: the smallest candidate over budget
    import tracemalloc
    cand = _nearest_integer_candidate(1827)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1668051 differences, over 256 MiB"):
            S.orthogonality_check(square, cand, 25.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_largest_accepted_explicit_candidate_stays_in_budget(square):
    # 1826 points, 1666225 differences
    import tracemalloc
    cand = _nearest_integer_candidate(1826)
    tracemalloc.start()
    try:
        ok, (_, worst) = S.orthogonality_check(square, cand, 25.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and worst <= 1e-9
    assert peak < 256 * 2**20, f"peak {peak / 2**20:.1f} MiB"
