"""Lattice tilings of the plane by symmetric quadrilaterals and hexagons,
sampled tiling verification, and the tiles-iff-spectral classifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CovolumeMismatchError, DegenerateError, NotTileableError
from .geometry import (ConvexBody, ConvexPolygon, Lattice, Point2, as_polygon,
                       inside_margin, is_symmetric, require_memory)
from .spectra import lattice_points_in_ball

# relative covolume tolerance of every lattice check: tilings and spectra
COVOLUME_TOL = 1e-10
_CHUNK_TERMS = 2**18  # point-translate-edge terms per chunk of the cover test
# the tracemalloc peak of verify_tiling per sample (33.0 B on the square and
# h0) over a floor of about 10 MiB: points, counts, the redraw index and flags
_BYTES_PER_SAMPLE = 34


@dataclass(frozen=True)
class TilingVerdict:
    tiles: bool
    lattice: Lattice | None
    spectral: bool
    reason: str  # symmetric_quadrilateral | symmetric_hexagon | not_symmetric
                 # | polygon_n_ge_4 | not_polygon


def covolume_is(lattice: Lattice, value: float) -> bool:
    """Is the lattice's covolume value, to COVOLUME_TOL relative?"""
    return abs(lattice.covolume - value) <= COVOLUME_TOL * value


def tiling_lattice(poly: ConvexPolygon) -> Lattice:
    """Translation lattice tiling the plane by a symmetric 4- or 6-gon.

    The generators come from the half-diagonals s_i = (v_i - v_{i+m/2}) / 2,
    each vertex averaged with the reflection of its opposite one: the
    centered vertices of the symmetric polygon nearest this one.  g1 = s_0 +
    s_1 and g2 = s_1 + s_2 (for quadrilaterals s_2 = -s_0, so g2 is the edge
    s_1 - s_0).  The covolume is that symmetric polygon's area, which agrees
    with this one's to first order in the deviation from symmetry (a
    quadrilateral's exactly: both are 2 |det(s_0, s_1)|), so a polygon that
    is_symmetric accepts within its tolerance passes the covolume check.
    """
    ok, _ = is_symmetric(poly)
    if not ok:
        raise NotTileableError("only centrally symmetric polygons tile by translation here")
    if poly.m not in (4, 6):
        raise NotTileableError(f"no lattice construction for a {poly.m}-gon")
    v = poly.vertices
    s = 0.5 * (v - np.roll(v, -(poly.m // 2), axis=0))
    g1 = Point2(*(s[0] + s[1]))
    g2 = Point2(*(s[1] + s[2]))
    lat = Lattice(g1, g2)
    if not covolume_is(lat, poly.area):
        raise NotTileableError("constructed lattice covolume does not match the area")
    return lat


def _pushed_out_radius(poly: ConvexPolygon, d: float) -> float:
    """Largest vertex norm of poly with every edge line pushed out by d: the
    vertex between edges with unit outward normals n0, n1 moves by
    d (n0 + n1) / (1 + n0 . n1)."""
    e = poly.edge_vectors()
    n = np.stack([e[:, 1], -e[:, 0]], axis=1) / np.linalg.norm(e, axis=1)[:, None]
    n0 = np.roll(n, 1, axis=0)
    shift = (n0 + n) / (1.0 + np.einsum("ij,ij->i", n0, n))[:, None]
    return float(np.max(np.linalg.norm(poly.vertices + d * shift, axis=1)))


def verify_tiling(poly: ConvexPolygon, lattice: Lattice, samples: int = 10_000,
                  seed: int = 0) -> tuple[bool, list[Point2]]:
    """Sampled exact-cover check: random fundamental-domain points must be
    covered by exactly one lattice translate of the polygon.

    Points landing within a margin d = 1e-6 poly.scale() of any translate
    boundary are redrawn, so every counted point is decisively inside or
    outside each translate at any size of the polygon; a narrower gap is
    left to the covolume check, at COVOLUME_TOL.
    Only the translates that can reach a sample are tested.  A sample
    B u, u in [0, 1)^2, lies within half the longer diagonal of the cell's
    centre c, and a translate lam + P counts or redraws it only where
    inside_margin(P, sample - lam) > -d, inside P with its edge lines
    pushed out by d; pushed out twice that far (the second d absorbs
    rounding) P lies within _pushed_out_radius of the origin, so lam is
    within the sum of the two of c.
    Returns (pass, list of points with cover count != 1).  ValueError when
    the samples' arrays would pass the memory budget, before any is built.
    """
    if samples < 1:
        raise ValueError(f"verify_tiling needs at least 1 sample, got {samples}")
    require_memory(_BYTES_PER_SAMPLE * samples, "tiling check", f"{samples} samples")
    if not covolume_is(lattice, poly.area):
        raise CovolumeMismatchError(
            f"covolume {lattice.covolume:.12g} != area {poly.area:.12g}")
    margin = 1e-6 * poly.scale()
    B = lattice.basis()
    centre = 0.5 * (B[:, 0] + B[:, 1])
    reach = (0.5 * max(np.linalg.norm(B[:, 0] + B[:, 1]), np.linalg.norm(B[:, 0] - B[:, 1]))
             + _pushed_out_radius(poly, 2.0 * margin))
    near = lattice_points_in_ball(lattice, reach + float(np.linalg.norm(centre)))
    offsets = near[np.linalg.norm(near - centre, axis=1) <= reach]
    chunk = max(1, _CHUNK_TERMS // (len(offsets) * poly.m))

    rng = np.random.default_rng(seed)
    pts = (B @ rng.random((2, samples))).T
    counts = np.empty(samples, dtype=int)
    todo = np.arange(samples)  # only a redrawn point can be ambiguous again
    for _ in range(60):
        ambiguous = np.empty(len(todo), dtype=bool)
        for lo in range(0, len(todo), chunk):
            idx = todo[lo:lo + chunk]
            rel = (pts[idx, None, :] - offsets).reshape(-1, 2)
            margins = inside_margin(poly, rel).reshape(len(idx), -1)
            ambiguous[lo:lo + chunk] = np.any(np.abs(margins) < margin, axis=1)
            counts[idx] = (margins >= margin).sum(axis=1)
            del rel, margins  # not alive beside the next chunk's temporaries
        todo = todo[ambiguous]
        if len(todo) == 0:
            break
        pts[todo] = (B @ rng.random((2, len(todo)))).T
    else:
        raise DegenerateError("could not draw samples clear of translate boundaries")
    bad = [Point2(*pts[i]) for i in np.nonzero(counts != 1)[0]]
    return len(bad) == 0, bad


def classify(body: ConvexBody) -> TilingVerdict:
    """Tiles-iff-spectral classification of a convex planar body.

    Not symmetric: no spectrum.  Symmetric polygon: spectral exactly for
    quadrilaterals and hexagons (tiling lattice attached); 2n-gons with
    2n >= 8 are non-spectral with a certificate available from the
    obstruction module.  Graph bodies made entirely of flat arcs are
    classified as the polygon through their knots (geometry.as_polygon);
    symmetric curved bodies are non-spectral (not_polygon).
    """
    poly = as_polygon(body)
    ok, _center = is_symmetric(body if poly is None else poly)
    if not ok:
        return TilingVerdict(False, None, False, "not_symmetric")
    if poly is None:
        return TilingVerdict(False, None, False, "not_polygon")
    if poly.m in (4, 6):
        reason = "symmetric_quadrilateral" if poly.m == 4 else "symmetric_hexagon"
        return TilingVerdict(True, tiling_lattice(poly), True, reason)
    return TilingVerdict(False, None, False, "polygon_n_ge_4")
