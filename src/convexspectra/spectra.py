"""Candidate spectrum tests: orthogonality, completeness, density.

A candidate is a lattice or an explicit point list containing the origin.
Orthogonality asks every pairwise difference to be a zero of the body
transform; completeness is checked through the Parseval sum of |transform|^2
over the candidate; Landau counts measure points per cube volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InsufficientWindowError
from .fourier import transform_batch
from .geometry import ConvexBody, Lattice, Point2, measures


@dataclass(frozen=True)
class SpectrumCandidate:
    kind: str                       # "lattice" | "explicit"
    lattice: Lattice | None = None
    points: tuple | None = None

    def __post_init__(self):
        if self.kind == "lattice":
            if self.lattice is None:
                raise ValueError("lattice candidate needs a lattice")
        elif self.kind == "explicit":
            pts = np.asarray(self.points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
                raise ValueError("explicit candidate needs an (n, 2) point list")
            if not np.any(np.hypot(pts[:, 0], pts[:, 1]) <= 1e-12):
                raise ValueError("candidate must contain the origin")
            if len(np.unique(pts, axis=0)) != len(pts):
                raise ValueError("explicit candidate points must be distinct")
        else:
            raise ValueError(f"unknown candidate kind {self.kind!r}")

    @staticmethod
    def from_lattice(lattice: Lattice) -> "SpectrumCandidate":
        return SpectrumCandidate("lattice", lattice=lattice)

    @staticmethod
    def from_points(points) -> "SpectrumCandidate":
        pts = tuple(Point2(float(p[0]), float(p[1])) for p in points)
        return SpectrumCandidate("explicit", points=pts)


def lattice_points_in_ball(lattice: Lattice, radius: float) -> np.ndarray:
    """All lattice points with |p| <= radius, lexicographically ordered."""
    B = lattice.basis()
    Binv = np.linalg.inv(B)
    mmax = int(math.floor(radius * np.linalg.norm(Binv[0]))) + 1
    nmax = int(math.floor(radius * np.linalg.norm(Binv[1]))) + 1
    # ~68 B of temporaries per coefficient pair; the panel rule's 256 MiB budget
    if 68 * (2 * mmax + 1) * (2 * nmax + 1) > 256 * 2**20:
        raise ValueError(
            f"lattice too dense for radius {radius:g}: "
            f"{(2 * mmax + 1) * (2 * nmax + 1)} coefficient pairs, over 256 MiB")
    ms, ns = np.meshgrid(np.arange(-mmax, mmax + 1), np.arange(-nmax, nmax + 1),
                         indexing="ij")
    coeffs = np.stack([ms.ravel(), ns.ravel()], axis=1)
    pts = coeffs @ B.T
    keep = np.hypot(pts[:, 0], pts[:, 1]) <= radius + 1e-12
    pts = pts[keep]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return pts[order]


def enumerate_points(candidate: SpectrumCandidate, radius: float) -> np.ndarray:
    """Candidate points with |p| <= radius, deterministic (lexicographic) order."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if candidate.kind == "lattice":
        return lattice_points_in_ball(candidate.lattice, radius)
    pts = np.asarray(candidate.points, dtype=float)
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= radius + 1e-12]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return pts[order]


def _lex_min(points: np.ndarray) -> Point2:
    order = np.lexsort((points[:, 1], points[:, 0]))
    return Point2(*points[order[0]])


def orthogonality_check(body: ConvexBody, candidate: SpectrumCandidate,
                        radius: float, tol: float = 1e-9) -> tuple[bool, tuple[Point2, float]]:
    """Is every pairwise difference of candidate points a transform zero?

    Lattice candidates reduce to the nonzero lattice points within 2*radius
    (the difference set); explicit candidates take all pairwise differences.
    Pass iff all |transform| <= tol * area.  Returns the worst offender as
    (difference point, |transform| there), lexicographic tie-break.
    """
    a = body.area
    if candidate.kind == "lattice":
        diffs = lattice_points_in_ball(candidate.lattice, 2.0 * radius)
        diffs = diffs[np.hypot(diffs[:, 0], diffs[:, 1]) > 1e-12]
    else:
        pts = enumerate_points(candidate, radius)
        d = pts[:, None, :] - pts[None, :, :]
        diffs = d.reshape(-1, 2)
        diffs = diffs[np.hypot(diffs[:, 0], diffs[:, 1]) > 1e-12]
    if len(diffs) == 0:
        return True, (Point2(0.0, 0.0), 0.0)
    vals = np.abs(transform_batch(body, diffs)[0])
    worst = float(np.max(vals))
    ties = diffs[vals >= worst * (1.0 - 1e-12)]
    return bool(worst <= tol * a), (_lex_min(ties), worst)


def parseval_deficiency(body: ConvexBody, candidate: SpectrumCandidate,
                        x_samples, trunc_radius: float) -> tuple[float, float]:
    """Truncated Parseval sum deficiency and a conservative tail bound.

    With exponentials normalized to unit norm, a spectrum satisfies
    S(x) = sum over candidate of |transform(x - p)|^2 / area^2 = 1 for all x.
    Returns (max over samples of |S(x) - 1|, tail bound).  The tail bound
    uses the first-order decay envelope |transform| <= perimeter/(2 pi |xi|)
    integrated over the candidate density beyond the truncation radius:
    2 perimeter^2 density / (pi^2 area^2 trunc_radius).  It is reported, not
    subtracted: deficiencies below it are truncation-limited.
    """
    if trunc_radius < 10.0:
        raise ValueError("trunc_radius must be >= 10")
    pts = enumerate_points(candidate, trunc_radius)
    a = body.area
    xs = np.atleast_2d(np.asarray(x_samples, dtype=float))
    max_dev = 0.0
    for x in xs:
        vals, _ = transform_batch(body, x[None, :] - pts)
        s = float(np.sum(np.abs(vals) ** 2)) / (a * a)
        max_dev = max(max_dev, abs(s - 1.0))
    if candidate.kind == "lattice":
        density = 1.0 / candidate.lattice.covolume
    else:
        density = len(pts) / (math.pi * trunc_radius ** 2)
    perimeter = measures(body).perimeter
    tail = 2.0 * perimeter**2 * density / (math.pi**2 * a * a * trunc_radius)
    return max_dev, tail


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


def spectral_gap_check(points, body: ConvexBody, C: float = 1.0) -> tuple[bool, float]:
    """Every cube of half-side R* = C * perimeter / area must contain a point.

    Cubes are probed at a 41 x 41 grid of centers, kept far enough inside
    the points' euclidean radius that every probed cube sits inside the
    ball the points are known in, not just inside their bounding box.
    Returns (pass, largest empty half-side found over the center grid), the
    latter being the max Chebyshev distance from a center to the point set.
    """
    pts = np.asarray(points, dtype=float)
    m = measures(body)
    r_star = C * m.perimeter / m.area
    w = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
    half = max(w / math.sqrt(2.0) - 2.0 * r_star, r_star)
    g = np.linspace(-half, half, 41)
    ctr = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    _window_guard(pts, ctr, 2.0 * r_star)
    tree = cKDTree(pts)
    d, _ = tree.query(ctr, k=1, p=np.inf)
    largest_empty = float(np.max(d))
    return bool(largest_empty <= r_star + 1e-12), largest_empty


def dual_lattice(lattice: Lattice) -> Lattice:
    """Lattice pairing integrally with the input: basis is the inverse
    transpose, so generators satisfy g_i . g*_j = delta_ij."""
    D = np.linalg.inv(lattice.basis()).T
    return Lattice(Point2(*D[:, 0]), Point2(*D[:, 1]))
