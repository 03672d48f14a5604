import math

import numpy as np
import pytest

from convexspectra import geometry, obstruction
from convexspectra.errors import (NotSymmetricError, ParallelFeaturesError,
                                  TooFewVerticesError)
from convexspectra.geometry import Point2


# --- feature points ---------------------------------------------------------


def test_square_features_are_edge_midpoints(square):
    feats = obstruction.feature_points(square)
    assert len(feats) == 4
    assert all(f.kind == "interval_midpoint" for f in feats)
    assert all(f.edge is not None for f in feats)
    locs = {(round(f.location.x, 12), round(f.location.y, 12)) for f in feats}
    assert locs == {(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)}
    for f in feats:
        # outward normal points along the midpoint direction on the square
        r = math.hypot(f.location.x, f.location.y)
        assert f.normal.x == pytest.approx(f.location.x / r, abs=1e-12)
        assert f.normal.y == pytest.approx(f.location.y / r, abs=1e-12)


def test_hexagon_has_six_features(hexagon_h0):
    feats = obstruction.feature_points(hexagon_h0)
    assert len(feats) == 6
    assert all(f.kind == "interval_midpoint" for f in feats)


def test_disc_features_cover_curved_boundary(disc_body):
    feats = obstruction.feature_points(disc_body)
    assert len(feats) > 900
    assert all(f.kind == "unique_normal" for f in feats)
    # vertical-tangent extreme points qualify
    assert any(abs(f.location.x - 0.5) < 1e-12 and abs(f.location.y) < 1e-12
               for f in feats)
    assert any(abs(f.location.x + 0.5) < 1e-12 and abs(f.location.y) < 1e-12
               for f in feats)
    for f in feats:
        assert math.hypot(f.normal.x, f.normal.y) == pytest.approx(1.0, abs=1e-12)
        if abs(f.location.x) <= 0.4:
            # circle normal is radial
            r = math.hypot(f.location.x, f.location.y)
            assert f.normal.x == pytest.approx(f.location.x / r, abs=1e-6)
            assert f.normal.y == pytest.approx(f.location.y / r, abs=1e-6)


def test_curved_features_do_not_depend_on_scale():
    def curved(r):
        return sum(f.kind == "unique_normal"
                   for f in obstruction.feature_points(geometry.disc(r)))
    assert curved(2000.0) == curved(0.5)


def test_flat_graph_body_has_no_curved_features(diamond_body):
    assert obstruction.feature_points(diamond_body) == []


def test_features_reject_asymmetric_body():
    tri = geometry.validate_polygon([(1, 0), (0, 1), (-1, -1)])
    with pytest.raises(NotSymmetricError):
        obstruction.feature_points(tri)


def test_features_reject_offcenter_body():
    shifted = geometry.validate_polygon(
        [(1.5, -0.5), (1.5, 0.5), (0.5, 0.5), (0.5, -0.5)])
    with pytest.raises(NotSymmetricError):
        obstruction.feature_points(shifted)


def test_symmetry_guard_is_relative_to_body_scale():
    # centroid lands ~6e-9 off the origin from rounding alone; every
    # origin-symmetry check must accept the body at this size
    big = geometry.regular_polygon(8, circumradius=1e8)
    assert math.hypot(*geometry.centroid(big)) > 1e-9
    assert len(obstruction.feature_points(big)) == 8
    geometry.normalize_edge_to_standard(big, 0)


def test_one_symmetry_guard_for_features_and_certificates(octagon):
    # a center 0.9e-9 off the origin is within the guard's 1e-9 * scale, so
    # every check that needs origin symmetry accepts the body
    moved = geometry.validate_polygon(octagon.vertices + [0.9e-9, 0.0])
    assert len(obstruction.feature_points(moved)) == 8
    cert = obstruction.nonspectral_certificate(moved)
    assert obstruction.check_certificate(moved, cert)


# --- density constraints ----------------------------------------------------


def test_square_midpoint_pair_density(square):
    dens, ok = obstruction.constraint_density((0.5, 0.0), (0.0, 0.5), square.area)
    assert dens == pytest.approx(1.0, abs=1e-15)
    assert ok


def test_square_has_no_false_obstruction(square):
    feats = obstruction.feature_points(square)
    for i, f in enumerate(feats):
        for f2 in feats[i + 1:]:
            try:
                _, ok = obstruction.constraint_density(
                    (f.location.x, f.location.y), (f2.location.x, f2.location.y),
                    square.area)
            except ParallelFeaturesError:
                continue
            assert ok


def test_hexagon_has_no_false_obstruction(hexagon_h0):
    feats = obstruction.feature_points(hexagon_h0)
    for i, f in enumerate(feats):
        for f2 in feats[i + 1:]:
            try:
                _, ok = obstruction.constraint_density(
                    (f.location.x, f.location.y), (f2.location.x, f2.location.y),
                    hexagon_h0.area)
            except ParallelFeaturesError:
                continue
            assert ok


def test_octagon_adjacent_midpoints_obstruct(octagon):
    v = octagon.vertices
    m0 = (v[0] + v[1]) / 2
    m1 = (v[1] + v[2]) / 2
    dens, ok = obstruction.constraint_density(m0, m1, octagon.area)
    assert dens == pytest.approx(2.4142135623730951, abs=1e-12)
    assert octagon.area == pytest.approx(2.82842712474619, abs=1e-12)
    assert not ok


def test_parallel_features_rejected():
    with pytest.raises(ParallelFeaturesError):
        obstruction.constraint_density((0.5, 0.0), (-0.5, 0.0), 1.0)
    with pytest.raises(ParallelFeaturesError):
        obstruction.constraint_density((0.3, 0.4), (0.6, 0.8), 1.0)


def test_density_invariant_under_swap_and_negation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, x2 = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        if abs(x[0] * x2[1] - x[1] * x2[0]) < 1e-6:
            continue
        d0, _ = obstruction.constraint_density(x, x2, 1.0)
        assert obstruction.constraint_density(x2, x, 1.0)[0] == d0
        assert obstruction.constraint_density(-x, x2, 1.0)[0] == d0
        assert obstruction.constraint_density(x, -x2, 1.0)[0] == d0


# --- vertex constraint vectors ----------------------------------------------


def test_octagon_vertex_vectors(octagon):
    vectors, closure = obstruction.vertex_constraint_vectors(octagon)
    assert len(vectors) == 4
    assert closure == "all_pairs"
    v = octagon.vertices
    for i, vec in enumerate(vectors):
        expect = v[i] + v[i - 1]
        assert vec.x == pytest.approx(expect[0], abs=1e-15)
        assert vec.y == pytest.approx(expect[1], abs=1e-15)


def test_decagon_vertex_vectors(decagon):
    vectors, closure = obstruction.vertex_constraint_vectors(decagon)
    assert len(vectors) == 5
    assert closure == "same_parity"


def test_vertex_vectors_need_eight_vertices(square, hexagon_h0):
    with pytest.raises(TooFewVerticesError):
        obstruction.vertex_constraint_vectors(square)
    with pytest.raises(TooFewVerticesError):
        obstruction.vertex_constraint_vectors(hexagon_h0)


# --- certificates -----------------------------------------------------------


def test_octagon_certificate(octagon):
    cert = obstruction.nonspectral_certificate(octagon)
    assert cert.kind == "fan_pigeonhole"
    assert len(cert.triangles) == 6
    assert min(a for _, a in cert.triangles) == pytest.approx(
        0.20710678118654746, abs=1e-14)
    assert cert.margin == pytest.approx(1.2071067811865475, abs=1e-14)
    assert cert.omega_area == pytest.approx(2.82842712474619, abs=1e-14)
    assert obstruction.check_certificate(octagon, cert)


def test_decagon_certificate(decagon):
    cert = obstruction.nonspectral_certificate(decagon)
    assert cert.kind == "disjoint_triples"
    assert [idx for idx, _ in cert.triangles] == [(0, 2, 4), (0, 4, 6), (0, 6, 8)]
    assert min(a for _, a in cert.triangles) == pytest.approx(
        0.657163890148917, abs=1e-14)
    assert cert.margin == pytest.approx(0.812299240582266, abs=1e-14)
    assert obstruction.check_certificate(decagon, cert)


def test_certificate_witness_follows_the_closure_class(decagon, monkeypatch):
    # one parity rule: the witness is read off vertex_constraint_vectors
    vectors, closure = obstruction.vertex_constraint_vectors(decagon)
    assert closure == "same_parity"
    monkeypatch.setattr(obstruction, "vertex_constraint_vectors",
                        lambda poly: (vectors, "all_pairs"))
    cert = obstruction.nonspectral_certificate(decagon)
    assert cert.kind == "fan_pigeonhole" and len(cert.triangles) == 8
    assert obstruction.check_certificate(decagon, cert)


def test_twelve_gon_certificate(twelve_gon):
    cert = obstruction.nonspectral_certificate(twelve_gon)
    assert cert.kind == "fan_pigeonhole"
    assert len(cert.triangles) == 10
    assert min(a for _, a in cert.triangles) <= cert.omega_area / 10 + 1e-12
    assert obstruction.check_certificate(twelve_gon, cert)


def test_certificate_rejects_tampering(octagon):
    cert = obstruction.nonspectral_certificate(octagon)
    C = obstruction.Certificate
    bad = [
        C(cert.kind, cert.triangles, cert.margin + 1e-6, cert.omega_area),
        C(cert.kind, cert.triangles, cert.margin, cert.omega_area * 1.01),
        C("half_area_witness", cert.triangles, cert.margin, cert.omega_area),
        C(cert.kind, cert.triangles[:-1], cert.margin, cert.omega_area),
        C(cert.kind, (((0, 1, 99), cert.triangles[0][1]),) + cert.triangles[1:],
          cert.margin, cert.omega_area),
        C(cert.kind, ((cert.triangles[0][0], cert.triangles[0][1] + 1e-6),)
          + cert.triangles[1:], cert.margin, cert.omega_area),
    ]
    for c in bad:
        assert not obstruction.check_certificate(octagon, c)


def test_certificate_kind_must_match_triangle_count(decagon):
    cert = obstruction.nonspectral_certificate(decagon)
    relabeled = obstruction.Certificate(
        "fan_pigeonhole", cert.triangles, cert.margin, cert.omega_area)
    assert not obstruction.check_certificate(decagon, relabeled)


def test_certificate_apex_relabeling(octagon):
    # the construction works from any starting vertex
    for k in range(8):
        rolled = geometry.validate_polygon(np.roll(octagon.vertices, -k, axis=0))
        cert = obstruction.nonspectral_certificate(rolled)
        assert obstruction.check_certificate(rolled, cert)
        assert cert.margin > 0


def test_certificate_rejects_asymmetric():
    quad = geometry.validate_polygon([(1, 0), (0, 1), (-1, 0), (0, -2)])
    with pytest.raises(NotSymmetricError):
        obstruction.nonspectral_certificate(quad)


def test_certificate_needs_eight_vertices(hexagon_h0):
    with pytest.raises(TooFewVerticesError):
        obstruction.nonspectral_certificate(hexagon_h0)


@pytest.mark.parametrize("n,seed", [(4, 1), (5, 2), (6, 3), (7, 4)])
def test_random_2ngon_certificates(n, seed):
    from conftest import random_symmetric_2ngon
    poly = random_symmetric_2ngon(np.random.default_rng(seed), n)
    cert = obstruction.nonspectral_certificate(poly)
    assert cert.margin > 0
    assert obstruction.check_certificate(poly, cert)
    bound = poly.area / (2 * n - 2) if n % 2 == 0 else poly.area / 3
    assert min(a for _, a in cert.triangles) <= bound + 1e-12
