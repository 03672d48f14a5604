"""Machine-checkable non-spectrality certificates for symmetric 2n-gons, n >= 4.

Vertex constraints force some inscribed triangle to have area at least half
the body, while a fan (even n) or three disjoint triangles (odd n) always
produce one strictly smaller: a contradiction witness that
check_certificate re-checks exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricError, TooFewVerticesError
from .geometry import ConvexPolygon, require_origin_symmetric, shoelace_area


@dataclass(frozen=True)
class Certificate:
    kind: str                                   # "fan_pigeonhole" | "disjoint_triples"
    triangles: tuple                            # ((i, j, k), area) entries
    margin: float                               # area/2 - smallest triangle area
    omega_area: float


def witness_kind(poly: ConvexPolygon) -> str:
    """The certificate kind of a symmetric 2n-gon, n >= 4: "fan_pigeonhole"
    for even n, "disjoint_triples" for odd n.

    The n frequency constraints are the sums of two consecutive vertices
    (equivalently the difference of a vertex and the predecessor of its
    antipode).  For even n they propagate to all vertex pairs (2n and n-1
    are coprime); odd n reaches only pairs of equal index parity.  The
    vertices pair up antipodally, v[i + n] ~ -v[i], within
    require_origin_symmetric's tolerances.
    """
    require_origin_symmetric(poly)
    n = poly.m // 2
    if n < 4:
        raise TooFewVerticesError(f"need a 2n-gon with n >= 4, got n = {n}")
    return "fan_pigeonhole" if n % 2 == 0 else "disjoint_triples"


def _tri_area(v: np.ndarray, idx: tuple[int, int, int]) -> float:
    return abs(shoelace_area(v[list(idx)]))


def _interiors_disjoint(t1, t2) -> bool:
    """Whether two triangles, given by vertex indices of one strictly convex
    polygon, have disjoint interiors: exactly when t2 lies in a closed arc
    between two cyclically consecutive corners of t1.  Shared edges and
    corners are allowed; the test is on indices only."""
    a, b, c = sorted(t1)
    return (all(a <= i <= b for i in t2) or all(b <= i <= c for i in t2)
            or all(i <= a or i >= c for i in t2))


def nonspectral_certificate(poly: ConvexPolygon) -> Certificate:
    """Construct the triangle witness contradicting the half-area bound.

    witness_kind picks the witness.  fan_pigeonhole (even n): the fan from
    vertex 0 splits the polygon into 2n - 2 triangles whose areas sum to the
    full area, so the smallest is at most area / (2n - 2) < area / 2 once
    n >= 4.  disjoint_triples (odd n): the triples (0,2,4), (0,4,6), (0,6,8)
    are pairwise disjoint inside the polygon, so the smallest is at most
    area / 3 < area / 2.
    """
    kind = witness_kind(poly)
    v = poly.vertices
    a = poly.area
    if kind == "fan_pigeonhole":
        idxs = [(0, j, j + 1) for j in range(1, poly.m - 1)]
    else:
        idxs = [(0, 2, 4), (0, 4, 6), (0, 6, 8)]
    triangles = tuple((idx, _tri_area(v, idx)) for idx in idxs)
    margin = a / 2.0 - min(t[1] for t in triangles)
    return Certificate(kind, triangles, margin, a)


def check_certificate(poly: ConvexPolygon, cert: Certificate) -> bool:
    """Re-validate a certificate from scratch against the polygon, exactly.

    The premise: witness_kind accepts the polygon and gives cert.kind.  The
    witness: m - 2 triangles for fan_pigeonhole, 3 for disjoint_triples,
    each of three distinct in-range vertex indices (of one parity for
    disjoint_triples), with pairwise disjoint interiors
    (_interiors_disjoint); m - 2 such triangles triangulate the polygon.  The bookkeeping: every stated area equals
    _tri_area, omega_area equals poly.area and margin equals omega_area / 2
    minus the smallest area, bit for bit, and margin > 0.  No test uses a
    tolerance.
    """
    try:
        if cert.kind != witness_kind(poly):
            return False
    except (NotSymmetricError, TooFewVerticesError):
        return False
    m = poly.m
    idxs = [tuple(idx) for idx, _ in cert.triangles]
    if len(idxs) != (m - 2 if cert.kind == "fan_pigeonhole" else 3):
        return False
    for idx in idxs:
        if len(idx) != 3 or len(set(idx)) != 3 or not all(
                isinstance(i, (int, np.integer)) and 0 <= i < m for i in idx):
            return False
        if cert.kind == "disjoint_triples" and len({i % 2 for i in idx}) != 1:
            return False
    if not all(_interiors_disjoint(t, u) for p, t in enumerate(idxs) for u in idxs[p + 1:]):
        return False
    areas = [_tri_area(poly.vertices, idx) for idx in idxs]
    if [a for _, a in cert.triangles] != areas or cert.omega_area != poly.area:
        return False
    margin = cert.omega_area / 2.0 - min(areas)
    return cert.margin == margin and margin > 0.0
