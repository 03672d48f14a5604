"""Machine-checkable non-spectrality certificates for symmetric 2n-gons, n >= 4.

The argument has two layers.  Any two non-parallel boundary feature points
x, x' force a candidate spectrum into a lattice of density 4 |x ^ x'|, which
must be at least the body's area; a pair violating that is a density
obstruction.  Unconditionally, vertex constraints force some inscribed
triangle to have area at least half the body, while a fan (even n) or three
disjoint triangles (odd n) always produce one strictly smaller: a
re-checkable contradiction witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricError, ParallelFeaturesError, TooFewVerticesError
from .geometry import (ConvexBody, ConvexPolygon, Point2, cross2, point_in_polygon,
                       require_origin_symmetric, shoelace_area)


@dataclass(frozen=True)
class FeaturePoint:
    location: Point2
    kind: str                                   # "interval_midpoint" | "unique_normal"
    normal: Point2
    edge: tuple[Point2, Point2] | None = None   # the bisected edge, midpoint kind only


@dataclass(frozen=True)
class Certificate:
    kind: str                                   # "fan_pigeonhole" | "disjoint_triples"
    triangles: tuple                            # ((i, j, k), area) entries
    margin: float                               # area/2 - smallest triangle area
    omega_area: float


def feature_points(body: ConvexBody) -> list[FeaturePoint]:
    """Boundary points anchoring orthogonality constraints.

    Polygons contribute every edge midpoint (each bisects a maximal boundary
    interval).  Graph bodies contribute probes on each curved height (one
    with no polyline), where the normal direction is unique and comes from
    the height's derivative; flat arcs are excluded.  Right/left extreme
    points with a vertical tangent qualify.
    """
    require_origin_symmetric(body)
    if isinstance(body, ConvexPolygon):
        mids = body.edge_midpoints()
        norms = body.edge_normals()
        v = body.vertices
        out = []
        for i in range(body.m):
            j = (i + 1) % body.m
            out.append(FeaturePoint(Point2(*mids[i]), "interval_midpoint",
                                    Point2(*norms[i]),
                                    (Point2(*v[i]), Point2(*v[j]))))
        return out

    # arc spacing ~ 1e-3 * perimeter, so ~500 probes per boundary half; an
    # even count puts no probe on the midpoint, the only kink a curved height has
    n = 500
    xs = body.a + (body.b - body.a) * 0.5 * (
        1.0 - np.cos(np.linspace(0.0, math.pi, n + 2)[1:-1]))
    out = []
    for side, fn in ((1.0, body.f), (-1.0, body.g)):
        if fn.polyline() is not None:
            continue
        ys = side * np.asarray(fn(xs), dtype=float)
        nvec = np.stack([-np.asarray(fn.derivative(xs)), np.full(n, side)], axis=1)
        nvec /= np.linalg.norm(nvec, axis=1, keepdims=True)
        out.extend(FeaturePoint(Point2(float(x), float(y)), "unique_normal", Point2(*nv))
                   for x, y, nv in zip(xs, ys, nvec))
    for xe, direction in ((body.b, 1.0), (body.a, -1.0)):
        if float(body.f(xe)) + float(body.g(xe)) <= 1e-12 and (
                body.f.endpoint_singular or body.g.endpoint_singular):
            y = 0.5 * (float(body.f(xe)) - float(body.g(xe)))
            out.append(FeaturePoint(Point2(float(xe), y), "unique_normal",
                                    Point2(direction, 0.0)))
    return out


def constraint_density(x, x2, omega_area: float) -> tuple[float, bool]:
    """Density forced on a spectrum by the feature points x and x2.

    The two membership constraints confine candidate frequencies to a lattice
    of density 4 |x ^ x2| per unit area; compatibility with the body's Landau
    density requires 4 |x ^ x2| >= area.  Returns (density, satisfied).
    """
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    w = abs(float(x[0] * x2[1] - x[1] * x2[0]))
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(x2))))
    if w <= 1e-12 * scale * scale:
        raise ParallelFeaturesError("parallel feature points bound no lattice")
    density = 4.0 * w
    return density, density >= omega_area - 1e-12


def vertex_constraint_vectors(poly: ConvexPolygon) -> tuple[list[Point2], str]:
    """The n frequency-constraint vectors of a symmetric 2n-gon and the
    closure class of vertex differences they control.

    Each vector is the sum of two consecutive vertices (equivalently the
    difference of a vertex and the predecessor of its antipode).  For even n
    the constraints propagate to all vertex pairs (2n and n-1 are coprime);
    odd n reaches only pairs of equal index parity.  The vertices pair up
    antipodally, v[i + n] ~ -v[i], within require_origin_symmetric's tolerances.
    """
    require_origin_symmetric(poly)
    v = poly.vertices
    n = poly.m // 2
    if n < 4:
        raise TooFewVerticesError(f"need a 2n-gon with n >= 4, got n = {n}")
    vectors = [Point2(*(v[i] + v[i - 1])) for i in range(n)]
    closure = "all_pairs" if n % 2 == 0 else "same_parity"
    return vectors, closure


def _tri_area(v: np.ndarray, idx: tuple[int, int, int]) -> float:
    return abs(shoelace_area(v[list(idx)]))


def _interiors_disjoint(t1: np.ndarray, t2: np.ndarray, tol: float) -> bool:
    """Separating-axis test for two triangles; shared edges/vertices allowed."""
    for tri_a, tri_b in ((t1, t2), (t2, t1)):
        orient = 1.0 if cross2(tri_a[1] - tri_a[0], tri_a[2] - tri_a[0]) > 0 else -1.0
        for i in range(3):
            p = tri_a[i]
            e = tri_a[(i + 1) % 3] - p
            outward = orient * np.array([e[1], -e[0]])
            if all(float(np.dot(outward, q - p)) >= -tol for q in tri_b):
                return True
    return False


def nonspectral_certificate(poly: ConvexPolygon) -> Certificate:
    """Construct the triangle witness contradicting the half-area bound.

    The closure class of vertex_constraint_vectors picks the witness.
    all_pairs (even n): the fan from vertex 0 splits the polygon into
    2n - 2 triangles whose areas sum to the full area, so the smallest is at
    most area / (2n - 2) < area / 2 once n >= 4.  same_parity (odd n): the
    triples (0,2,4), (0,4,6), (0,6,8) are pairwise disjoint inside the
    polygon, so the smallest is at most area / 3 < area / 2.
    """
    _vectors, closure = vertex_constraint_vectors(poly)
    v = poly.vertices
    a = poly.area
    if closure == "all_pairs":
        idxs = [(0, j, j + 1) for j in range(1, poly.m - 1)]
        kind = "fan_pigeonhole"
    else:
        idxs = [(0, 2, 4), (0, 4, 6), (0, 6, 8)]
        kind = "disjoint_triples"
        tol = 1e-12 * poly.scale() ** 2
        for p in range(len(idxs)):
            for q in range(p + 1, len(idxs)):
                if not _interiors_disjoint(v[list(idxs[p])], v[list(idxs[q])], tol):
                    raise NotSymmetricError("certificate triples unexpectedly overlap")
    triangles = tuple((idx, _tri_area(v, idx)) for idx in idxs)
    margin = a / 2.0 - min(t[1] for t in triangles)
    return Certificate(kind, triangles, margin, a)


def check_certificate(poly: ConvexPolygon, cert: Certificate) -> bool:
    """Re-validate a certificate from scratch against the polygon.

    Checks the area bookkeeping at 1e-12 (scaled), every listed triangle
    sitting inside the polygon, disjointness where claimed, and margin > 0.
    """
    v = poly.vertices
    tol = 1e-12 * max(1.0, poly.scale() ** 2)
    if abs(cert.omega_area - poly.area) > tol:
        return False
    if cert.kind not in ("fan_pigeonhole", "disjoint_triples"):
        return False
    if cert.kind == "fan_pigeonhole" and len(cert.triangles) != poly.m - 2:
        return False
    areas = []
    for idx, stated in cert.triangles:
        if len(idx) != 3 or any(not (0 <= i < poly.m) for i in idx):
            return False
        recomputed = _tri_area(v, tuple(idx))
        if abs(recomputed - stated) > tol:
            return False
        corners_in = all(point_in_polygon(poly, v[i], tol=1e-9) for i in idx)
        centroid_in = point_in_polygon(poly, v[list(idx)].mean(axis=0), tol=1e-9)
        if not (corners_in and centroid_in):
            return False
        areas.append(recomputed)
    if cert.kind == "disjoint_triples":
        tris = [v[list(idx)] for idx, _ in cert.triangles]
        for p in range(len(tris)):
            for q in range(p + 1, len(tris)):
                if not _interiors_disjoint(tris[p], tris[q], tol):
                    return False
    margin = cert.omega_area / 2.0 - min(areas)
    if abs(margin - cert.margin) > tol or margin <= 0.0:
        return False
    return True
