"""Lattice spectrum tests: orthogonality, density and gaps.

A lattice is a spectrum of a body exactly when it is orthogonal for the body
and its density is the body's area (Fuglede, J. Funct. Anal. 16 (1974)).
Orthogonality asks every difference of lattice points to be a zero of the
body transform; Landau counts measure points per cube volume, and the gap
check asks every cube of a fixed size to hold a point.  The orthogonality
and gap checks enumerate their `Lattice` over a ball holding every
difference or cube used; the Landau counts go row by row and enumerate
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .fourier import ZERO_TOL, transform_batch
from .geometry import ConvexBody, Lattice, Point2, measures, require_memory


def _reduction(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, B U): an integer matrix U of determinant +-1, with B U the
    Lagrange-Gauss reduced basis of the lattice, both as floats.

    The reduction runs exactly, in integers: B's floats times the power of
    two that clears their denominators, so B U is its exact basis rounded
    once.  A step that would put an entry of U past 2**53, where a float no
    longer holds it exactly, is not taken.
    """
    ratios = [x.as_integer_ratio() for x in B.T.ravel().tolist()]
    scale = max(d for _, d in ratios)
    flat = [n * (scale // d) for n, d in ratios]
    b = [flat[:2], flat[2:]]  # the columns of B U, times scale
    u = [[1, 0], [0, 1]]  # the columns of U

    def dot(p, q):
        return p[0] * q[0] + p[1] * q[1]

    while True:
        if dot(b[0], b[0]) > dot(b[1], b[1]):
            b.reverse()
            u.reverse()
        q = dot(b[0], b[0])
        mu = (2 * dot(b[0], b[1]) + q) // (2 * q)  # the nearest integer, ties up
        w = [u[1][i] - mu * u[0][i] for i in (0, 1)]
        if mu == 0 or max(map(abs, w)) >= 2**53:
            return (np.array(u, dtype=float).T,
                    np.array([[x / scale for x in col] for col in b]).T)
        b[1] = [b[1][i] - mu * b[0][i] for i in (0, 1)]
        u[1] = w


def lattice_points_in_ball(lattice: Lattice, radius: float) -> np.ndarray:
    """All lattice points with |p| <= radius, lexicographically ordered.

    The coefficient box is sized on the reduced basis B U (_reduction), so
    a skewed basis of an ordinary lattice costs what its reduced one does;
    each coefficient pair is mapped back through U, and each point is
    computed from the given basis B.  ValueError unless radius > 0 (NaN
    included), and past the memory budget or past coefficients of 2**53,
    where a float no longer holds them exactly."""
    if not radius > 0.0:
        raise ValueError(f"lattice enumeration radius must be positive, got {radius:g}")
    B = lattice.basis()
    U, M = _reduction(B)
    Minv = np.linalg.inv(M)
    # hypot, not the norm of a squared sum: a row of 1e300 stays finite
    mmax = float(np.floor(radius * math.hypot(*Minv[0]))) + 1.0
    nmax = float(np.floor(radius * math.hypot(*Minv[1]))) + 1.0
    pairs = (2.0 * mmax + 1.0) * (2.0 * nmax + 1.0)
    # ~68 B of temporaries per coefficient pair
    require_memory(68 * pairs, "lattice enumeration",
                   f"{pairs:.3g} coefficient pairs within radius {radius:g}")
    kmax = float(np.max(np.abs(U) @ (mmax, nmax)))
    if not kmax < 2.0**53:
        raise ValueError(f"lattice enumeration too large: coefficients up to {kmax:.3g} "
                         f"within radius {radius:g}, past exact integers at 2**53")
    ms, ns = np.meshgrid(np.arange(-mmax, mmax + 1), np.arange(-nmax, nmax + 1),
                         indexing="ij")
    coeffs = np.stack([ms.ravel(), ns.ravel()], axis=1) @ U.T
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


# landau_density's temporaries: 57 B per lattice row of one cube at R = 400 on Z^2 (tracemalloc)
_ROW_BYTES = 64


@dataclass(frozen=True)
class DensityReport:
    R: float
    D_plus: int
    D_minus: int
    normalized_plus: float
    normalized_minus: float


def landau_density(lattice: Lattice, R: float) -> DensityReport:
    """Extremal counts over the closed cubes of half-side R centred at a 7 x 7
    grid over [-R, R]^2, normalized by (2R)^2.

    Nothing is enumerated: in a cube about c, the points with first
    coefficient m have their second coefficient n in one interval, where
    both slabs |B[ax, 0] m + B[ax, 1] n - c_ax| <= R + 1e-12 hold (an axis
    with B[ax, 1] = 0 keeps all of the row or none of it), and the count is
    the sum of the interval lengths.  The rows run over every m of a point
    within 2R of the origin in each coordinate.  ValueError unless R > 0
    and the normalized counts are finite, past the memory budget, and past
    2**53 coefficient pairs, where the interval ends are no longer exact.
    """
    if not R > 0.0:
        raise ValueError(f"cube half-side must be positive, got {R:g}")
    B = lattice.basis()
    # the coefficient ranges of the points within 2R in each coordinate, in
    # Python floats, which overflow to inf without a warning
    mmax, nmax = (float(np.floor((2.0 * R + 1e-12) * (abs(a) + abs(b)))) + 1.0
                  for a, b in np.linalg.inv(B).tolist())
    rows = 49.0 * (2.0 * mmax + 1.0)
    require_memory(_ROW_BYTES * rows, "density count",
                   f"{rows:.3g} lattice rows in the cubes of half-side {R:g}")
    pairs = (2.0 * mmax + 1.0) * (2.0 * nmax + 1.0)
    if not pairs <= 2.0**53:
        raise ValueError(f"density count too large: {pairs:.3g} coefficient pairs "
                         "within 2R, past exact counting at 2**53")
    g = np.linspace(-R, R, 7)
    ctr = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    m = np.arange(-mmax, mmax + 1.0)
    half = R + 1e-12
    lo, hi, keep = -np.inf, np.inf, True
    for (a, b), c in zip(B.tolist(), ctr.T):
        off = c[:, None] - a * m  # the row meets the slab where b n is within half of off
        if b == 0.0:
            keep = keep & (np.abs(off) <= half)
        else:
            e1, e2 = (off - half) / b, (off + half) / b
            lo, hi = np.maximum(lo, np.minimum(e1, e2)), np.minimum(hi, np.maximum(e1, e2))
    counts = np.sum(np.where(keep, np.maximum(np.floor(hi) - np.ceil(lo) + 1.0, 0.0), 0.0), axis=1)
    d_plus, d_minus = int(np.max(counts)), int(np.min(counts))
    cube = (2.0 * R) * (2.0 * R)
    if not (cube > 0.0 and math.isfinite(d_plus / cube)):
        raise ValueError(f"cube half-side {R:g} too small: counts per unit area overflow")
    return DensityReport(R, d_plus, d_minus, d_plus / cube, d_minus / cube)


def spectral_gap_check(body: ConvexBody, lattice: Lattice) -> tuple[bool, float, float]:
    """Every cube of half-side r* = perimeter / area must contain a point.

    r* is fixed, not a parameter; the source of this bound is not yet
    recorded (ROADMAP item 9).  Cubes are probed at a 41 x 41 grid of
    centers over [-(w - 2r*), w - 2r*]^2, w = max(8r*, 4r* + 4), and the
    lattice is enumerated in the ball of radius w sqrt(2), which holds every
    cube of half-side 2r* about a center: an empty half-side up to 2r* is
    exact, and a larger one fails either way.  Returns (pass, the largest
    Chebyshev distance from a center to the lattice, r*).
    """
    m = measures(body)
    r_star = m.perimeter / m.area
    window = max(8.0 * r_star, 4.0 * r_star + 4.0)
    pts = lattice_points_in_ball(lattice, window * math.sqrt(2.0))
    g = np.linspace(-(window - 2.0 * r_star), window - 2.0 * r_star, 41)
    ctr = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    d, _ = cKDTree(pts).query(ctr, k=1, p=np.inf)
    largest_empty = float(np.max(d))
    return bool(largest_empty <= r_star + 1e-12), largest_empty, r_star
