"""Lattice spectrum tests: orthogonality, density and gaps.

A lattice is a spectrum of a body exactly when it is orthogonal for the body
and its density is the body's area (Fuglede, J. Funct. Anal. 16 (1974)).
Orthogonality asks every difference of lattice points to be a zero of the
body transform; Landau counts measure points per cube volume, and the gap
check asks every cube of a fixed size to hold a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InsufficientWindowError
from .fourier import ZERO_TOL, transform_batch
from .geometry import ConvexBody, Lattice, Point2, measures, require_memory


def lattice_points_in_ball(lattice: Lattice, radius: float) -> np.ndarray:
    """All lattice points with |p| <= radius, lexicographically ordered.
    ValueError unless radius > 0 (NaN included)."""
    if not radius > 0.0:
        raise ValueError(f"lattice enumeration radius must be positive, got {radius:g}")
    B = lattice.basis()
    Binv = np.linalg.inv(B)
    mmax = float(np.floor(radius * float(np.linalg.norm(Binv[0])))) + 1.0
    nmax = float(np.floor(radius * float(np.linalg.norm(Binv[1])))) + 1.0
    pairs = (2.0 * mmax + 1.0) * (2.0 * nmax + 1.0)
    # ~68 B of temporaries per coefficient pair
    require_memory(68 * pairs, "lattice enumeration",
                   f"{pairs:.3g} coefficient pairs within radius {radius:g}")
    ms, ns = np.meshgrid(np.arange(-mmax, mmax + 1), np.arange(-nmax, nmax + 1),
                         indexing="ij")
    coeffs = np.stack([ms.ravel(), ns.ravel()], axis=1)
    pts = coeffs @ B.T
    keep = np.hypot(pts[:, 0], pts[:, 1]) <= radius + 1e-12
    pts = pts[keep]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return pts[order]


def orthogonality_check(body: ConvexBody, lattice: Lattice,
                        radius: float) -> tuple[bool, tuple[Point2, float]]:
    """Is every difference of lattice points within radius a transform zero?

    The differences are the lattice points within 2*radius, and |transform(-d)|
    = |transform(d)|, so only the lexicographically negative half is checked
    (the sorted points are symmetric about the origin at their middle).  Pass
    iff all |transform| <= ZERO_TOL * area; a radius holding no point but the
    origin passes with nothing to check.  Returns the worst offender as
    (difference point, |transform| there), lexicographic tie-break.
    """
    a = body.area
    pts = lattice_points_in_ball(lattice, 2.0 * radius)
    diffs = pts[:len(pts) // 2]
    if len(diffs) == 0:
        return True, (Point2(0.0, 0.0), 0.0)
    vals = np.abs(transform_batch(body, diffs)[0])
    worst = float(np.max(vals))
    # diffs are in lexicographic order, so the first tie is the smallest
    ties = diffs[vals >= worst * (1.0 - 1e-12)]
    return bool(worst <= ZERO_TOL * a), (Point2(*ties[0]), worst)


@dataclass(frozen=True)
class DensityReport:
    R: float
    D_plus: int
    D_minus: int
    normalized_plus: float
    normalized_minus: float


def _window_guard(points: np.ndarray, centers: np.ndarray, reach: float) -> None:
    w = float(np.max(np.abs(points)))
    need = float(np.max(np.abs(centers))) + reach
    if need > w + 1e-9:
        raise InsufficientWindowError(
            f"points extend to |.|_inf = {w:.6g} but centers need {need:.6g}")


def landau_density(points, R: float, centers) -> DensityReport:
    """Extremal counts over closed cubes of sidelength 2R at the given centers,
    normalized by (2R)^2.  Boundary ties count (closed cubes)."""
    pts = np.asarray(points, dtype=float)
    ctr = np.atleast_2d(np.asarray(centers, dtype=float))
    _window_guard(pts, ctr, 2.0 * R)
    tree = cKDTree(pts)
    counts = [len(tree.query_ball_point(c, r=R + 1e-12, p=np.inf)) for c in ctr]
    d_plus, d_minus = int(max(counts)), int(min(counts))
    return DensityReport(R, d_plus, d_minus,
                         d_plus / (2.0 * R) ** 2, d_minus / (2.0 * R) ** 2)


def spectral_gap_check(points, body: ConvexBody) -> tuple[bool, float]:
    """Every cube of half-side R* = perimeter / area must contain a point.

    R* is fixed, not a parameter; the source of this bound is not yet
    recorded (ROADMAP item 9).  Cubes are probed at a 41 x 41 grid of
    centers, kept far enough inside the points' euclidean radius that every
    probed cube sits inside the ball the points are known in, not just
    inside their bounding box.
    Returns (pass, largest empty half-side found over the center grid), the
    latter being the max Chebyshev distance from a center to the point set.
    """
    pts = np.asarray(points, dtype=float)
    m = measures(body)
    r_star = m.perimeter / m.area
    w = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
    half = max(w / math.sqrt(2.0) - 2.0 * r_star, r_star)
    g = np.linspace(-half, half, 41)
    ctr = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    _window_guard(pts, ctr, 2.0 * r_star)
    tree = cKDTree(pts)
    d, _ = tree.query(ctr, k=1, p=np.inf)
    largest_empty = float(np.max(d))
    return bool(largest_empty <= r_star + 1e-12), largest_empty
