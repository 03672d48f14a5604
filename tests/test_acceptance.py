"""Acceptance suite: one test per required behavior, each printing a single
pass/fail line under pytest -v.  Tolerances are stated inline; derived
reference numbers were computed with the independent oracles named in the
module tests and frozen here.
"""

import math

import numpy as np
import pytest

from convexspectra import fourier, geometry, heights, obstruction, spectra, tiling, zeroset
from convexspectra.errors import NoBlowupError
from convexspectra.geometry import Lattice, Point2

from conftest import (random_parallelogram, random_symmetric_2ngon,
                      random_symmetric_hexagon)


def _sinc_square(xi):
    """Separable closed form for the centered unit square, np.sinc route."""
    return np.sinc(xi[:, 0]) * np.sinc(xi[:, 1])


def test_criterion_01_square_transform_matches_closed_form(square):
    rng = np.random.default_rng(1)
    bulk = rng.uniform(-20.0, 20.0, (1000, 2))
    # 100 points within 1e-5 of the removable singular lines xi1 = 0, xi2 = 0
    u = rng.uniform(-20.0, 20.0, 100)
    d = rng.uniform(-1e-5, 1e-5, 100)
    near = np.concatenate([
        np.stack([u[:34], d[:34]], axis=1),
        np.stack([d[34:67], u[34:67]], axis=1),
        np.stack([d[67:], rng.uniform(-1e-5, 1e-5, 33)], axis=1)])
    xi = np.vstack([bulk, near])
    vals, _ = fourier.transform_batch(square, xi)
    worst = float(np.max(np.abs(vals - _sinc_square(xi))))
    assert worst <= 1e-12, f"worst deviation {worst:.3g}"


def test_criterion_02_closed_form_agrees_with_quadrature_oracle():
    polys = ([random_parallelogram(np.random.default_rng(s)) for s in range(7)]
             + [random_symmetric_hexagon(np.random.default_rng(s)) for s in range(7)]
             + [random_symmetric_2ngon(np.random.default_rng(s), n)
                for n in (4, 5, 6) for s in (11, 12)])
    assert len(polys) == 20
    rng = np.random.default_rng(2)
    disagreements = 0
    for poly in polys:
        for xi in rng.uniform(-7.0, 7.0, (50, 2)):
            s_cf = fourier.ft_body(poly, xi)
            s_q = fourier.ft_quadrature(poly, xi)
            if abs(s_cf.value - s_q.value) > s_cf.err + s_q.err:
                disagreements += 1
    assert disagreements == 0


def test_criterion_03_orthogonality_passes_and_detects_perturbation(
        square, hexagon_h0, hexagon_h0_dual):
    z2 = Lattice(Point2(1, 0), Point2(0, 1))
    for body, lat in ((square, z2), (hexagon_h0, hexagon_h0_dual)):
        ok, (_, worst) = spectra.orthogonality_check(body, lat, 10.0)
        assert ok, f"worst {worst:.3g}"
        # moving the first generator by 0.01 takes the lattice off the zero set
        moved = Lattice(Point2(lat.g1.x + 0.01, lat.g1.y), lat.g2)
        ok_p, _ = spectra.orthogonality_check(body, moved, 10.0)
        assert not ok_p


def test_criterion_05_landau_density_windows(hexagon_h0_dual):
    z2 = Lattice(Point2(1, 0), Point2(0, 1))
    for lat, target in ((z2, 1.0), (hexagon_h0_dual, 1.25)):
        for R in (10.0, 20.0, 40.0):
            rep = spectra.landau_density(lat, R)
            lo, hi = target * (1.0 - 3.0 / R), target * (1.0 + 3.0 / R)
            assert lo <= rep.normalized_minus <= rep.normalized_plus <= hi, (
                f"R={R}: [{rep.normalized_minus}, {rep.normalized_plus}] "
                f"outside [{lo}, {hi}]")


def test_criterion_06_spectral_gap(square, hexagon_h0, hexagon_h0_dual):
    z2 = Lattice(Point2(1, 0), Point2(0, 1))
    ok, _, _ = spectra.spectral_gap_check(square, z2)
    assert ok
    ok, _, _ = spectra.spectral_gap_check(hexagon_h0, hexagon_h0_dual)
    assert ok
    # rows 100 apart leave cubes far larger than r* = 4 empty
    elongated = Lattice(Point2(1, 0), Point2(0, 100))
    ok, largest, _ = spectra.spectral_gap_check(square, elongated)
    assert not ok and largest > 4.0


def test_criterion_07_random_tilings_and_poisson_zeros():
    polys = ([random_parallelogram(np.random.default_rng(s)) for s in range(10)]
             + [random_symmetric_hexagon(np.random.default_rng(s)) for s in range(10)])
    for poly in polys:
        lat = tiling.tiling_lattice(poly)
        assert abs(lat.covolume - poly.area) <= 1e-10 * poly.area
        ok, bad = tiling.verify_tiling(poly, lat, samples=10_000)
        assert ok, f"{len(bad)} uncovered/doubly covered samples"
        # the dual lattice: basis the inverse transpose, g_i . g*_j = delta_ij
        dual = Lattice.from_matrix(np.linalg.inv(lat.basis()).T)
        dual = spectra.lattice_points_in_ball(dual, 10.0)
        dual = dual[np.hypot(dual[:, 0], dual[:, 1]) > 1e-12]
        worst = float(np.max(np.abs(fourier.transform_batch(poly, dual)[0])))
        assert worst <= 1e-9 * poly.area, f"dual point not a zero: {worst:.3g}"


def test_criterion_08_classifier_truth_table(disc_body, parabola_capped, octagon):
    corpus = []
    for s in range(100, 108):
        corpus.append((random_parallelogram(np.random.default_rng(s)), True))
    for s in range(200, 208):
        corpus.append((random_symmetric_hexagon(np.random.default_rng(s)), True))
    for n in (4, 5, 6):
        for k in range(3):
            corpus.append((random_symmetric_2ngon(
                np.random.default_rng(400 + 10 * n + k), n), False))
    corpus.append((geometry.validate_polygon([(1, 0), (0, 1), (-1, -1)]), False))
    corpus.append((geometry.validate_polygon([(1, 0), (0, 1), (-1, 0), (0, -2)]),
                   False))
    corpus.append((disc_body, False))
    corpus.append((parabola_capped, False))
    corpus.append((octagon, False))
    assert len(corpus) == 30
    for body, expect_spectral in corpus:
        v = tiling.classify(body)
        assert v.spectral == expect_spectral, (v.reason, expect_spectral)
        assert v.tiles == v.spectral


def test_criterion_09_certificates(octagon, decagon):
    cert = obstruction.nonspectral_certificate(octagon)
    assert cert.kind == "fan_pigeonhole"
    assert min(a for _, a in cert.triangles) == pytest.approx(0.20711, abs=5e-6)
    assert cert.margin == pytest.approx(1.2071, abs=5e-5)
    assert cert.omega_area == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)
    assert obstruction.check_certificate(octagon, cert)
    cert10 = obstruction.nonspectral_certificate(decagon)
    assert cert10.kind == "disjoint_triples"
    assert obstruction.check_certificate(decagon, cert10)


def test_criterion_10_cap_transform_lower_bound_scan():
    caps = {
        "parabola": heights.polynomial([0.25, 0.0, -1.0]),
        "tent": heights.tent(-0.5, 0.5),
        "semicircle": heights.semicircle(0.5),
    }
    for name, f in caps.items():
        ratios = [fourier.cap_lower_bound_scan(f, d, (0.1, 10.0)).ratio
                  for d in (0.1, 0.05, 0.01)]
        assert all(r > 0.0 for r in ratios), (name, ratios)
        assert max(ratios) / min(ratios) < 10.0, (name, ratios)


def test_criterion_11_slab_alignment_trend(square, hexagon_h0):
    reports = zeroset.slab_zero_alignment(hexagon_h0, 3.0, [50, 100, 200, 400])
    maxes = [r.max_dist for r in reports]
    for a, b in zip(maxes, maxes[1:]):
        assert b <= 2.0 * a, maxes
    assert maxes[-1] < maxes[0], maxes
    sq_reports = zeroset.slab_zero_alignment(square, 3.0, [50, 100, 200, 400])
    assert all(r.max_dist <= 1e-9 for r in sq_reports)


def test_criterion_12_ball_alignment_trend(disc_body, diamond_body):
    maxes = []
    for window in ((20.0, 40.0), (40.0, 80.0), (80.0, 160.0)):
        rep = zeroset.ball_zero_alignment(disc_body, 1.0, 0.05, window, step=0.05)
        off = min(abs(rep.beta - 0.25), abs(rep.beta - 0.75))
        assert off <= 0.05, f"beta {rep.beta:.4g} in window {window}"
        maxes.append(rep.max_dist)
    assert maxes[0] > maxes[1] > maxes[2], maxes
    with pytest.raises(NoBlowupError):
        zeroset.select_scales(geometry.graph_heights(diamond_body)[0], 0.05, 1.0)
    d0, d = zeroset.select_scales(geometry.graph_heights(disc_body)[0], 0.05, 1.0)
    assert 0.0 < d < d0
