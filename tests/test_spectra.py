import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from convexspectra import geometry as G
from convexspectra import spectra as S


def brute_lattice_ball(basis, radius):
    out = []
    for m in range(-50, 51):
        for n in range(-50, 51):
            p = basis @ np.array([m, n])
            if math.hypot(p[0], p[1]) <= radius + 1e-12:
                out.append(p)
    return np.array(sorted(map(tuple, out)))


def test_lattice_points_in_ball_matches_brute_force():
    # the second basis is the first's lattice, skewed: g2 + 3 g1 for g2
    for g2 in ((-0.3, 0.9), (2.7, 1.2)):
        lat = G.Lattice(G.Point2(1.0, 0.1), G.Point2(*g2))
        got = S.lattice_points_in_ball(lat, 7.3)
        want = brute_lattice_ball(lat.basis(), 7.3)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12


def test_enumeration_refuses_coefficients_past_exact_integers():
    # the reduced basis's box is small, but mapped back to the given basis
    # its coefficients pass 2**53, where a float no longer holds them
    lat = G.Lattice.from_matrix([[1.0, 5e14], [0.0, 1000.0]])
    assert len(S.lattice_points_in_ball(lat, 3000.0)) == 26263
    with pytest.raises(ValueError, match="past exact integers at 2[*][*]53"):
        S.lattice_points_in_ball(lat, 30000.0)


def test_orthogonality_square_z2(square, z2):
    ok, (pt, worst) = S.orthogonality_check(square, z2, 10.0)
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
def test_non_positive_radius_is_refused(square, z2, radius):
    with pytest.raises(ValueError, match=f"radius must be positive, got {radius:g}"):
        S.lattice_points_in_ball(z2, radius)
    with pytest.raises(ValueError, match="radius must be positive"):
        S.orthogonality_check(square, z2, radius)


def test_landau_density_z2(z2):
    # cubes about integer centers hold 21 x 21 points, the others 20 x 20
    rep = S.landau_density(z2, 10.0)
    assert (rep.D_plus, rep.D_minus) == (441, 400)
    assert rep.normalized_plus == pytest.approx(441 / 400)
    assert rep.normalized_minus == pytest.approx(1.0)


@pytest.mark.parametrize("R", [0.0, -1.0, float("nan"), 1e-160, 1e-300])
def test_landau_density_refuses_a_radius_without_finite_densities(z2, R):
    with pytest.raises(ValueError, match="cube half-side"):
        S.landau_density(z2, R)


def test_spectral_gap_pass_and_fail(square, z2):
    ok, largest, r_star = S.spectral_gap_check(square, z2)
    assert ok and r_star == 4.0
    assert largest <= 0.5 + 1e-12
    # rows 100 apart leave cubes far larger than r* empty
    elongated = G.Lattice(G.Point2(1.0, 0.0), G.Point2(0.0, 100.0))
    ok, largest, _ = S.spectral_gap_check(square, elongated)
    assert not ok
    assert largest > 4.0


# random lattices: generator lengths 0.05 to 50, angle between them at least
# pi/6, each example kept under about 3e5 enumerated points so it runs fast
lengths = st.floats(math.log(0.05), math.log(50.0)).map(math.exp)


@st.composite
def lattices(draw):
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    turn = draw(st.floats(math.pi / 6, 5 * math.pi / 6))
    r1, r2 = draw(lengths), draw(lengths)
    return G.Lattice(G.Point2(r1 * math.cos(phi), r1 * math.sin(phi)),
                     G.Point2(r2 * math.cos(phi + turn), r2 * math.sin(phi + turn)))


def _few_points(lat, radius):
    return math.pi * radius ** 2 / lat.covolume < 3e5


def _cube_counts(pts, centers, R):
    return [int(np.sum(np.all(np.abs(pts - c) <= R + 1e-12, axis=1))) for c in centers]


def _grid(half, n):
    g = np.linspace(-half, half, n)
    return np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lat=lattices(), R=st.floats(math.log(0.1), math.log(20.0)).map(math.exp))
def test_landau_density_counts_match_a_twice_larger_enumeration(lat, R):
    radius = 2.0 * (3.0 * R * math.sqrt(2.0) + 1.0)
    assume(_few_points(lat, radius))
    rep = S.landau_density(lat, R)
    counts = _cube_counts(S.lattice_points_in_ball(lat, radius), _grid(R, 7), R)
    assert (rep.D_plus, rep.D_minus) == (max(counts), min(counts))


@pytest.mark.parametrize("basis", [[[1, 0], [0, 1]], [[2, 0], [0, 0.5]], [[1, 0], [0.3, 1]],
                                   [[1, 0], [-0.4, 0.8]]])
@pytest.mark.parametrize("R", [1.0, 2.5, 10.0, 13.0, 40.0])
def test_landau_density_counts_points_on_cube_faces(basis, R):
    # Z^2, 2Z x Z/2, a shear and h0's dual put lattice points exactly on the
    # faces of cubes about the grid centres, where a rounding slip in a row's
    # bounds would drop or add them
    lat = G.Lattice.from_matrix(basis)
    pts = S.lattice_points_in_ball(lat, 2.0 * (3.0 * R * math.sqrt(2.0) + 1.0))
    pts = pts[np.max(np.abs(pts), axis=1) <= 2.0 * R + 1.0]  # all that any cube can hold
    centers = _grid(R, 7)
    faces = np.abs(np.max(np.abs(pts[:, None, :] - centers[None]), axis=2) - R)
    assert np.min(faces) <= 1e-12
    rep = S.landau_density(lat, R)
    counts = _cube_counts(pts, centers, R)
    assert (rep.D_plus, rep.D_minus) == (max(counts), min(counts))


def test_landau_density_memory_is_what_its_budget_counts(z2, monkeypatch):
    budget = []
    check = S.require_memory

    def counted(nbytes, what, detail):
        budget.append(nbytes)
        check(nbytes, what, detail)

    monkeypatch.setattr(S, "require_memory", counted)
    tracemalloc.start()
    try:
        rep = S.landau_density(z2, 400.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.D_plus, rep.D_minus) == (801 ** 2, 800 ** 2)
    # 49 cubes of 1603 rows each, 64 B a row: about 5 MB
    assert budget == [64 * 49 * 1603] and peak <= budget[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lat=lattices(), side=st.sampled_from([1.0, 4.0]))
def test_spectral_gap_matches_a_twice_larger_enumeration(lat, side):
    square = G.validate_polygon([(-side / 2, -side / 2), (side / 2, -side / 2),
                                 (side / 2, side / 2), (-side / 2, side / 2)])
    r_star = 4.0 / side
    window = max(8.0 * r_star, 4.0 * r_star + 4.0)
    assume(_few_points(lat, 2.0 * window * math.sqrt(2.0)))
    ok, largest, got_r_star = S.spectral_gap_check(square, lat)
    assert got_r_star == pytest.approx(r_star, rel=1e-12)
    more = S.lattice_points_in_ball(lat, 2.0 * window * math.sqrt(2.0))
    gaps, _ = cKDTree(more).query(_grid(window - 2.0 * r_star, 41), k=1, p=np.inf)
    assert ok == bool(np.max(gaps) <= r_star + 1e-12)
    if largest <= 2.0 * r_star:
        assert largest == pytest.approx(float(np.max(gaps)), abs=1e-12)
    else:
        assert np.max(gaps) > 2.0 * r_star - 1e-12
