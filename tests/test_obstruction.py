import math
from fractions import Fraction

import numpy as np
import pytest

from convexspectra import geometry, obstruction
from convexspectra.errors import NotSymmetricError, TooFewVerticesError


# --- witness kind -------------------------------------------------------------


def test_octagon_witness_kind(octagon):
    # n = 4: the constraints reach all vertex pairs
    assert obstruction.witness_kind(octagon) == "fan_pigeonhole"


def test_decagon_witness_kind(decagon):
    # n = 5: the constraints reach only pairs of one index parity
    assert obstruction.witness_kind(decagon) == "disjoint_triples"


def test_witness_kind_needs_eight_vertices(square, hexagon_h0):
    with pytest.raises(TooFewVerticesError):
        obstruction.witness_kind(square)
    with pytest.raises(TooFewVerticesError):
        obstruction.witness_kind(hexagon_h0)


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
    # one parity rule: the witness is read off witness_kind
    assert obstruction.witness_kind(decagon) == "disjoint_triples"
    monkeypatch.setattr(obstruction, "witness_kind", lambda poly: "fan_pigeonhole")
    cert = obstruction.nonspectral_certificate(decagon)
    assert cert.kind == "fan_pigeonhole" and len(cert.triangles) == 8
    assert obstruction.check_certificate(decagon, cert)


def test_certificate_premise_is_rechecked():
    # a fan sums to the area on any convex polygon; it is a witness only for
    # an origin-symmetric 2n-gon with n >= 4
    hexagon = geometry.validate_polygon(
        [(1, 0), (0.5, 0.8), (-0.5, 0.8), (-1, 0), (-0.5, -0.8), (0.5, -0.8)])
    verts = geometry.regular_polygon(8).vertices.copy()
    verts[0] = (1.1, 0.0)
    lopsided = geometry.validate_polygon(verts)
    assert not geometry.is_symmetric(lopsided)[0]
    for poly in (hexagon, lopsided):
        v = poly.vertices
        tris = tuple(((0, j, j + 1), abs(geometry.shoelace_area(v[[0, j, j + 1]])))
                     for j in range(1, poly.m - 1))
        cert = obstruction.Certificate("fan_pigeonhole", tris,
                                       poly.area / 2 - min(a for _, a in tris), poly.area)
        assert not obstruction.check_certificate(poly, cert)


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


def test_certificate_rejects_a_one_ulp_change(octagon):
    cert = obstruction.nonspectral_certificate(octagon)
    C = obstruction.Certificate
    (idx, area), *rest = cert.triangles
    area, margin, omega = np.nextafter([area, cert.margin, cert.omega_area], math.inf)
    for c in (C(cert.kind, ((idx, area), *rest), cert.margin, cert.omega_area),
              C(cert.kind, cert.triangles, margin, cert.omega_area),
              C(cert.kind, cert.triangles, cert.margin, omega)):
        assert not obstruction.check_certificate(octagon, c)


def _stated(poly, kind, idxs):
    tris = tuple((idx, obstruction._tri_area(poly.vertices, idx)) for idx in idxs)
    return obstruction.Certificate(kind, tris, poly.area / 2 - min(a for _, a in tris),
                                   poly.area)


def test_certificate_witness_is_rechecked_on_indices(octagon, decagon):
    # each states its areas and margin exactly and has margin > 0
    for poly, cert in (
            (decagon, _stated(decagon, "disjoint_triples", [(0, 1, 2), (2, 3, 4), (4, 5, 6)])),
            (decagon, _stated(decagon, "disjoint_triples", [(0, 2, 4)])),
            (octagon, _stated(octagon, "fan_pigeonhole", [(0, 1, 2)] * 6)),
            (octagon, _stated(octagon, "fan_pigeonhole", [(0, 0, 1)] * 6))):
        assert cert.margin > 0
        assert not obstruction.check_certificate(poly, cert)


def _exact_interiors_disjoint(p, q):
    # separating-axis test in rationals: some edge normal of either triangle
    # projects the two onto intervals that overlap in at most a point
    for tri in (p, q):
        for k in range(3):
            (x0, y0), (x1, y1) = tri[k], tri[(k + 1) % 3]
            a = [(y1 - y0) * x + (x0 - x1) * y for x, y in p]
            b = [(y1 - y0) * x + (x0 - x1) * y for x, y in q]
            if max(a) <= min(b) or max(b) <= min(a):
                return True
    return False


@pytest.mark.parametrize("seed", range(5))
def test_index_disjointness_matches_exact_separating_axes(seed):
    from conftest import random_symmetric_2ngon
    rng = np.random.default_rng(seed)
    seen = set()
    for n in (4, 5, 6, 7):
        poly = random_symmetric_2ngon(rng, n)
        exact = [tuple(map(Fraction, map(float, p))) for p in poly.vertices]
        for _ in range(150):
            t1, t2 = (tuple(int(i) for i in rng.choice(2 * n, 3, replace=False))
                      for _ in range(2))
            got = obstruction._interiors_disjoint(t1, t2)
            assert got == _exact_interiors_disjoint([exact[i] for i in t1],
                                                    [exact[i] for i in t2]), (n, t1, t2)
            seen.add(got)
    assert seen == {True, False}


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


def test_certificate_rejects_asymmetric(octagon):
    # asymmetric bodies, and symmetric ones whose center is off the origin
    quad = geometry.validate_polygon([(1, 0), (0, 1), (-1, 0), (0, -2)])
    tri = geometry.validate_polygon([(1, 0), (0, 1), (-1, -1)])
    shifted = geometry.validate_polygon(
        [(1.5, -0.5), (1.5, 0.5), (0.5, 0.5), (0.5, -0.5)])
    moved = geometry.validate_polygon(octagon.vertices + [1.0, 0.0])
    for poly in (quad, tri, shifted, moved):
        with pytest.raises(NotSymmetricError):
            obstruction.nonspectral_certificate(poly)


def test_symmetry_guard_is_relative_to_body_scale():
    # centroid lands ~6e-9 off the origin from rounding alone; every
    # origin-symmetry check must accept the body at this size
    big = geometry.regular_polygon(8, circumradius=1e8)
    assert math.hypot(*geometry.centroid(big)) > 1e-9
    assert obstruction.check_certificate(big, obstruction.nonspectral_certificate(big))
    geometry.normalize_edge_to_standard(big, 0)


def test_one_symmetry_guard_for_normalization_and_certificates(octagon):
    # a center 0.9e-9 off the origin is within the guard's 1e-9 * scale, so
    # every check that needs origin symmetry accepts the body
    moved = geometry.validate_polygon(octagon.vertices + [0.9e-9, 0.0])
    geometry.normalize_edge_to_standard(moved, 0)
    cert = obstruction.nonspectral_certificate(moved)
    assert obstruction.check_certificate(moved, cert)


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
