"""Lattice tilings of the plane by symmetric quadrilaterals and hexagons,
sampled tiling verification, and the tiles-iff-spectral classifier.

verify_tiling decides each sample once, by one cover rule at the resolution
d = 1e-6 poly.scale(): a sample within d of an edge line lies on it, and the
only translates tested are those near enough to meet the lattice's cell."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CovolumeMismatchError, NotTileableError
from .geometry import (ConvexBody, ConvexPolygon, Lattice, Point2, as_polygon,
                       inside_margin, is_symmetric, require_memory)
from .spectra import lattice_points_in_ball

# relative covolume tolerance of every lattice check: tilings and spectra
COVOLUME_TOL = 1e-10
_CHUNK_TERMS = 2**18  # point-translate-edge terms per chunk of the cover test
# the tracemalloc peak of verify_tiling per sample (17.0 B on the square and
# h0) over a floor of about 10 MiB: the draws and the bad flags
_BYTES_PER_SAMPLE = 18


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


def verify_tiling(poly: ConvexPolygon, lattice: Lattice, samples: int = 10_000,
                  seed: int = 0) -> tuple[bool, list[Point2]]:
    """Sampled exact-cover check: random fundamental-domain points must be
    covered by exactly one lattice translate of the polygon.

    A sample is bad when two tested translates hold it with inside_margin
    >= d (an overlap), or every one leaves it with inside_margin <= -d (a
    gap).  No sample of a true tiling fails, and every bad one is an overlap
    or a point no translate covers; a gap or overlap narrower than d is left
    to the covolume check.  The tested translates lam + P are all that meet
    the cell: a sample B u, u in [0, 1)^2, lies within half the longer
    diagonal of the cell's centre c, and P within its largest vertex norm of
    the origin, so |lam - c| is at most the sum (plus d, for rounding).
    Returns (pass, bad samples); ValueError, before any array is built, when
    the samples would pass the memory budget."""
    if samples < 1:
        raise ValueError(f"verify_tiling needs at least 1 sample, got {samples}")
    require_memory(_BYTES_PER_SAMPLE * samples, "tiling check", f"{samples} samples")
    if not covolume_is(lattice, poly.area):
        raise CovolumeMismatchError(
            f"covolume {lattice.covolume:.12g} != area {poly.area:.12g}")
    d = 1e-6 * poly.scale()
    B = lattice.basis()
    centre = 0.5 * (B[:, 0] + B[:, 1])
    reach = (0.5 * max(math.hypot(*(B[:, 0] + B[:, 1])), math.hypot(*(B[:, 0] - B[:, 1])))
             + float(np.max(np.hypot(*poly.vertices.T))) + d)
    near = lattice_points_in_ball(lattice, reach + math.hypot(*centre))
    offsets = near[np.hypot(*(near - centre).T) <= reach]
    chunk = max(1, _CHUNK_TERMS // (len(offsets) * poly.m))

    pts = np.random.default_rng(seed).random((2, samples))  # draws u, made B u in place
    bad = np.empty(samples, dtype=bool)
    for lo in range(0, samples, chunk):
        p = pts[:, lo:lo + chunk]
        p[:] = B[:, :1] * p[0] + B[:, 1:] * p[1]  # elementwise: the same bits in any chunk
        margins = inside_margin(poly, (p.T[:, None, :] - offsets).reshape(-1, 2))
        margins = margins.reshape(p.shape[1], -1)
        bad[lo:lo + chunk] = ((margins >= d).sum(axis=1) >= 2) | np.all(margins <= -d, axis=1)
        del p, margins  # not alive beside the next chunk's temporaries
    bad_pts = [Point2(*q) for q in pts[:, bad].T]
    return not bad_pts, bad_pts


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
