"""Zeros of the body transform and their alignment with structured grids.

For an origin-symmetric body the transform is real-valued and, along any
segment, entire of exponential type.  Each scan line gets one Chebyshev
interpolant (a long line one per piece, so that no degree passes 106), its
degree fixed in advance from the interpolation bound on Bernstein ellipses
(Trefethen, ATAP, Thm 8.2), and the real roots of all lines are isolated at
once by Chebyshev subdivision, then polished by Newton steps (Boyd, Solving
Transcendental Equations, SIAM 2014, ch. 2-3).  A root counts as a zero when
the transform there is at most fourier.ZERO_TOL times the area, a threshold
no caller sets.  Slab scans measure their zeros' distance to the punctured
integer grid lines Z_Q; ball scans fit vertical lines at a fractional shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft

from .errors import NoBlowupError, NoZerosFoundError
from .fourier import _PANEL_TOL, ZERO_TOL, frozen_batch_evaluator
from .geometry import (ConvexBody, Point2, graph_heights, require_memory,
                       require_origin_symmetric, require_slab_span, require_standard_position)
from .heights import HeightFn

# line spacing of slab scans, and the shortest chord a ball scan keeps
DEFAULT_SCAN_STEP = 0.02
_EPS = np.finfo(float).eps
# Bernstein ellipse parameters tried for each line's interpolation bound
_RHO = 1.0 + np.geomspace(1e-4, 1e3, 400)
# how far past an end of [-1, 1] a computed root may fall and count as the end
_EDGE = 1e-12
# the largest tau in one piece (degree 106).  1600 units of the square's axis /
# 400 of the disc's took 17 / 292 ms at 32, 27 / 247 at 64, 53 / 236 at 128 (one
# core): root isolation, ~n^2 a piece, likes short pieces, the panel rule few points
_PIECE_TAU = 64.0
# root isolation: a series' first 2**_SPLIT_DEPTH children are split untested,
# no interval more than _MAX_DEPTH times; a block of series has _LIVE coefficients
_SPLIT_DEPTH, _MAX_DEPTH, _LIVE = 4, 50, 2**20


@dataclass(frozen=True, slots=True)
class ZeroPoint:
    xi: Point2
    residual: float


@dataclass(frozen=True, eq=False)
class AlignmentReport:
    """The zeros found, as an (N, 2) array of points and their N residuals,
    their distance statistics to the grid, and the window (lo, hi) of R
    scanned."""
    points: np.ndarray
    residuals: np.ndarray
    max_dist: float
    mean_dist: float
    window: tuple[float, float]
    beta: float | None = None

    @cached_property
    def zeros(self) -> list[ZeroPoint]:
        """The zeros as ZeroPoint objects, built on first read."""
        return [ZeroPoint(Point2(*p), r)
                for p, r in zip(self.points.tolist(), self.residuals.tolist())]


def grid_distance(xi):
    """Euclidean distance from xi to the punctured integer grid Z_Q: the
    vertical and horizontal lines at nonzero integers (the axes excluded); for
    an (N, 2) array of points, the array of their N distances."""
    xi = np.asarray(xi, dtype=float)
    d = np.min(np.where(np.round(xi) != 0.0, np.abs(xi - np.round(xi)), 1.0 - np.abs(xi)), axis=-1)
    return float(d) if d.ndim == 0 else d


def _line_pieces(body: ConvexBody, extent, n_lines: float) -> tuple[int, int]:
    """(k, n) for n_lines scan segments of extent (|dxi1|, |dxi2|): each is
    cut into k equal pieces, and each piece gets a Chebyshev interpolant of
    the transform of degree n.

    On a piece's Bernstein ellipse E_rho, |T| <= M = area exp(tau (rho -
    1/rho) / 2) with tau = pi (X |dxi1| + Y |dxi2|) / k, X and Y the
    half-widths of the body's bounding box, and the degree-n interpolant errs
    by at most 4 M rho^-n / (rho - 1) (Trefethen, ATAP, Thm 8.2).  n is the
    smallest degree that brings this to _PANEL_TOL * area for some rho in
    _RHO.  ValueError past the memory budget, at what _scan_lines keeps
    (tracemalloc): 72 B a point, and 24 B for each of the _LIVE coefficients of
    a block of root isolation; evaluators chunk within that (the edge sum at
    about 12 MiB).  extent and n_lines may be inf.
    """
    f, g = graph_heights(body)
    tau = math.pi * (max(abs(f.a), abs(f.b)) * abs(extent[0])
                     + max(f.max_value(), g.max_value()) * abs(extent[1]))
    k = max(1.0, float(np.ceil(tau / _PIECE_TAU)))
    piece_tau = tau / k if k < math.inf else _PIECE_TAU  # tau / k is at most _PIECE_TAU
    need = (math.log(4.0 / _PANEL_TOL) + 0.5 * piece_tau * (_RHO - 1.0 / _RHO)
            - np.log(_RHO - 1.0)) / np.log(_RHO)
    n = max(2, int(math.ceil(float(np.min(need)))))
    pieces = n_lines * k
    require_memory(pieces * 72 * (n + 1) + 24 * _LIVE, "scan grid",
                   f"{pieces * (n + 1):.3g} points on {pieces:.3g} degree-{n} pieces")
    return int(k), n


# degree -> _subdivision_maps(degree), least recently used first, within _MAPS_BYTES
_MAPS: dict[int, tuple[np.ndarray, ...]] = {}
_MAPS_BYTES = 2**20


def _subdivision_maps(n: int) -> tuple[np.ndarray, ...]:
    """Read-only maps of degree-n Chebyshev coefficients, built once per
    degree: to [-1 - _EDGE, 1 + _EDGE] (to_edge), to the values at its ends
    (ends, right end first), to the left and right halves of [-1, 1], to the
    value at 0 (mid), and to the derivative's coefficients (der).  The
    cache drops its least recently used degrees past _MAPS_BYTES."""
    n = int(n)
    maps = _MAPS.pop(n, None)
    if maps is None:
        k, sign = np.arange(n + 1), 1.0 - 2.0 * (np.arange(n + 1) % 2)  # (-1)^k
        lob = np.cos(np.pi * k / n)
        # DCT-I maps to [-1 - E, 1 + E], E = _EDGE, and to the right half of [-1, 1], from T_k at
        # the mapped Lobatto points (T_k(+-(1 + E)) = (+-1)^k (1 + k^2 E) to rounding for k < 120)
        mapped = np.concatenate([np.clip((1.0 + _EDGE) * lob, -1.0, 1.0), 0.5 * (lob + 1.0)])
        vander = np.cos(np.arccos(mapped)[:, None] * k).reshape(2, n + 1, n + 1)
        vander[0, [0, n]] *= 1.0 + k * k * _EDGE
        cheb = fft.dct(vander, type=1, axis=1).transpose(0, 2, 1) / n
        cheb[:, :, [0, n]] *= 0.5
        right, left = cheb[1], cheb[1] * np.outer(sign, sign)  # the left mirrors the right
        # T_k' = 2 k (T_{k-1} + T_{k-3} + ...), the T_0 term halved
        der = k[:, None] * (1.0 - np.outer(sign, sign[:-1])) * np.tri(n + 1, n, -1)
        der[:, 0] *= 0.5
        maps = (cheb[0], vander[0, [0, n]], left, right, np.cos(0.5 * np.pi * k).round(), der)
        for a in maps:
            a.flags.writeable = False
    _MAPS[n] = maps
    while sum(a.nbytes for v in _MAPS.values() for a in v) > _MAPS_BYTES:
        del _MAPS[next(iter(_MAPS))]
    return maps


def _real_roots(coef: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """(i, t) of the real roots t in [-1, 1] of the Chebyshev series coef[i]
    (lowest degree first), sorted by i and then t.

    Chebyshev subdivision (Boyd, Solving Transcendental Equations, SIAM 2014,
    ch. 2-3): each series on [-1 - _EDGE, 1 + _EDGE] is split into 16, then
    all live intervals are tested at once on their local coefficients c.  One
    is dropped when |c_0| > sum |c_k| + floor (no root) or sum |c| <= floor
    (zero to rounding), is a bracket when that test on its derivative proves
    it monotone and its ends change sign, and is halved otherwise; at
    _MAX_DEPTH or past 2 n + 16 live intervals a series, it is a bracket if
    its ends change sign.  A split point's value comes from the parent, and a
    zero there counts on its left.  Brackets get safeguarded Newton on their
    local series, then two Newton steps on coef[i] kept inside them.  Series
    go in blocks of _LIVE coefficients at the cap, brackets in 2**16.
    """
    n_series, n = coef.shape[0], coef.shape[1] - 1
    cap, block = 2 * n + 16, max(1, _LIVE // ((2 * n + 16) * (n + 1)))
    if n_series > block:
        i, t = zip(*(_real_roots(coef[r:r + block], floor) for r in range(0, n_series, block)))
        return np.concatenate([x + m * block for m, x in enumerate(i)]), np.concatenate(t)
    to_edge, ends, left, right, mid, der = _subdivision_maps(n)
    i, lo, w = np.arange(n_series), np.full(n_series, -1.0 - _EDGE), 2.0 + 2.0 * _EDGE
    c, (fb, fa) = coef @ to_edge, ends @ coef.T
    found = []
    for depth in range(_MAX_DEPTH + 1):
        if depth >= _SPLIT_DEPTH:
            s = np.abs(c[:, 1:]).sum(axis=1)
            live = (np.abs(c[:, 0]) <= s + floor) & (np.abs(c[:, 0]) + s > floor)
            i, lo, c, fa, fb, s = i[live], lo[live], c[live], fa[live], fb[live], s[live]
            d = c @ der
            np.abs(d, out=d)
            # rounding in d: n^2 eps of c, and the wider intervals' floor scaled by w
            s = n * n * _EPS * (s + np.abs(c[:, 0])) + w * floor
            done = ((d[:, 0] > d[:, 1:].sum(axis=1) + s) | (depth == _MAX_DEPTH)
                    | (2 * len(i) > cap * n_series))
            hit = done & ((fa * fb < 0.0) | (fb == 0.0))
            found.append((i[hit], lo[hit], np.full(hit.sum(), w), c[hit], fa[hit], fb[hit]))
            i, lo, c, fa, fb = i[~done], lo[~done], c[~done], fa[~done], fb[~done]
        if len(i) == 0:
            break
        fm, w, half = c @ mid, 0.5 * w, np.empty((2 * len(i), n + 1))
        np.matmul(c, left, out=half[:len(i)]), np.matmul(c, right, out=half[len(i):])
        c, i, lo = half, np.concatenate([i, i]), np.concatenate([lo, lo + w])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
    i, lo, w, c, fa, fb = (np.concatenate(v) for v in zip(*found))
    c = c[:, :1 + np.max(np.nonzero(np.abs(c) > floor)[1], initial=1)]  # local tails under floor
    dc, dcoef, t = c @ der[:c.shape[1], :c.shape[1] - 1], coef @ der, np.empty(len(i))

    def value_slope(c, dc, x):  # of the series c[j], dc[j] their derivatives, at x in [-1, 1]
        cos = np.cos(np.arccos(x)[:, None] * np.arange(c.shape[1]))
        return np.einsum("ij,ij->i", c, cos), np.einsum("ij,ij->i", dc, cos[:, :-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in np.array_split(np.arange(len(i)), 1 + len(i) * (n + 1) // 2**16):
            s = (fa[j] + fb[j]) / (fa[j] - fb[j])  # the chord's root: 1 when fb == 0
            a, b, rise = -np.ones_like(s), np.ones_like(s), np.sign(fb[j] - fa[j])
            act = np.arange(len(s))
            for _ in range(_MAX_DEPTH):  # bisection alone gets to rounding in as many
                x = s[act]
                p, dp = value_slope(c[j[act]], dc[j[act]], x)
                past = p * rise[act] > 0.0
                a[act], b[act] = np.where(past, a[act], x), np.where(past, x, b[act])
                xn = x - p / dp
                s[act] = np.where((xn >= a[act]) & (xn <= b[act]), xn, 0.5 * (a[act] + b[act]))
                act = act[np.abs(s[act] - x) > 4.0 * _EPS]
                if not len(act):
                    break
            lo_j, hi_j = np.maximum(lo[j], -1.0), np.minimum(lo[j] + w[j], 1.0)
            t[j] = np.clip(lo[j] + (s + 1.0) * (0.5 * w[j]), lo_j, hi_j)
            for _ in range(2):
                p, dp = value_slope(coef[i[j]], dcoef[i[j]], t[j])
                tn = t[j] - p / dp
                t[j] = np.where((tn >= lo_j) & (tn <= hi_j), tn, t[j])
    order = np.lexsort((t, i))
    return i[order], t[order]


def _scan_lines(ev, starts: np.ndarray, stops: np.ndarray, k: int, n: int,
                area: float) -> tuple[np.ndarray, np.ndarray]:
    """Zeros on the segments starts[i] -> stops[i], line by line in segment
    order: an (N, 2) array of points and the N residuals |T| there.

    Each line is cut into k equal pieces, and each piece gets one degree-n
    interpolant on the Chebyshev-Lobatto points, with coefficients from a
    DCT-I; a root is kept when |T| <= ZERO_TOL * area there.  Lines with the
    same abscissae share one evaluation of each (the panel rule factors its
    kernel over the product grid).
    """
    frac = np.arange(k + 1) / k
    ends = starts[:, None, :] + frac[None, :, None] * (stops - starts)[:, None, :]
    a, b = ends[:, :-1].reshape(-1, 2), ends[:, 1:].reshape(-1, 2)
    t = np.cos(np.pi * np.arange(n + 1) / n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = ev((mid[:, None, :] + t[None, :, None] * half[:, None, :]).reshape(-1, 2))
    coef = fft.dct(vals.real.reshape(len(a), n + 1), type=1, axis=1) / n
    coef[:, [0, n]] *= 0.5
    piece, root = _real_roots(coef, _EPS * area)
    if len(piece) == 0:
        return np.empty((0, 2)), np.empty(0)
    pts = mid[piece] + root[:, None] * half[piece]
    # a zero where two pieces meet is found by both: keep it once
    gap = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    twin = (np.diff(piece // k) == 0) & (gap <= 1e-10 * np.linalg.norm(half[piece[1:]], axis=1))
    pts = pts[np.r_[True, ~twin]]
    res = np.abs(ev(pts))
    zero = res <= ZERO_TOL * area
    return pts[zero], res[zero]


def zeros_on_segment(body: ConvexBody, p0, p1) -> list[ZeroPoint]:
    """Zeros of the transform along the segment p0 -> p1, in segment order:
    the roots where |transform| is at most ZERO_TOL times the area."""
    require_origin_symmetric(body)
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    # in Python floats, which overflow to inf without a warning
    k, n = _line_pieces(body, [b - a for a, b in zip(p0.tolist(), p1.tolist())], 1)
    box = np.max(np.abs(np.stack([p0, p1])), axis=0)
    ev = frozen_batch_evaluator(body, box[0] + 1.0, box[1] + 1.0)
    pts, res = _scan_lines(ev, p0[None, :], p1[None, :], k, n, body.area)
    return [ZeroPoint(Point2(*p), r) for p, r in zip(pts.tolist(), res.tolist())]


def slab_zero_alignment(body: ConvexBody, A: float, R_list,
                        step: float = DEFAULT_SCAN_STEP) -> list[AlignmentReport]:
    """Scan horizontal lines, step apart, across each slab [R, R+10] x [-A, A];
    report the located zeros and their distance statistics to the punctured
    grid Z_Q.  Needs A >= 1, every R > 0 and step <= 2 A (ValueError otherwise)."""
    require_origin_symmetric(body)
    require_standard_position(body)
    if not (A >= 1.0):
        raise ValueError("slab half-height A must be >= 1")
    if not all(R > 0.0 for R in R_list):
        raise ValueError("slab offset R must be positive")
    reports = []
    # line ordinates offset half a step: never scan exactly on an integer line,
    # where the transform can vanish identically
    n_lines = float(np.floor(2.0 * A / step))
    if n_lines == 0:
        raise ValueError(f"step {step:g} leaves no scan line in |xi2| <= A = {A:g}")
    k, n = _line_pieces(body, (10.0, 0.0), n_lines)
    n_lines = int(n_lines)
    xi2s = -A + (np.arange(n_lines) + 0.5) * step
    for R in R_list:
        ev = frozen_batch_evaluator(body, R + 10.0 + 1.0, A + 1.0)
        starts = np.stack([np.full(n_lines, float(R)), xi2s], axis=1)
        stops = np.stack([np.full(n_lines, float(R) + 10.0), xi2s], axis=1)
        pts, res = _scan_lines(ev, starts, stops, k, n, body.area)
        dists = grid_distance(pts)
        reports.append(AlignmentReport(pts, res, float(np.max(dists, initial=0.0)),
                                       float(np.mean(dists)) if len(pts) else 0.0,
                                       (float(R), float(R) + 10.0)))
    return reports


# ---------------------------------------------------------------------------
# cap slope and scale selection


def cap_slope(f: HeightFn, delta) -> float:
    """S(delta) = (f(1/2 - delta) + f(-1/2 + delta)) / delta."""
    delta = np.asarray(delta, dtype=float)
    s = (f(0.5 - delta) + f(-0.5 + delta)) / delta
    return float(s) if s.ndim == 0 else s


def select_scales(f: HeightFn, eps: float, A: float) -> tuple[float, float]:
    """Pick the two scan scales (delta0, delta) from the cap slope S.

    Requires S to blow up as delta -> 0 (unique-normal endpoint).  delta0 is
    the largest delta <= eps/(10 A) with delta*S(delta) <= eps/(10 A); delta
    is the largest delta <= delta0/10 with S(delta) >= 10 (1 + S(delta0)/eps).
    Callers handle the flat/interval endpoint case before calling: here a
    bounded S raises NoBlowup.
    """
    if not (0.0 < eps and A > 0.0):
        raise ValueError("eps and A must be positive")
    s_hi = cap_slope(f, 0.1)
    s_lo = cap_slope(f, 1e-7)
    if not np.isfinite(s_lo) or s_lo < 5.0 * max(s_hi, 1e-12):
        raise NoBlowupError(
            f"cap slope stays bounded (S(1e-7) = {s_lo:.6g}, S(0.1) = {s_hi:.6g})")

    target = eps / (10.0 * A)
    grid = np.logspace(math.log10(target), -13.0, 800)
    ds = grid * cap_slope(f, grid)
    ok = ds <= target
    if not np.any(ok):
        raise NoBlowupError("delta * S(delta) does not drop below eps/(10 A) in range")
    delta0 = float(grid[np.argmax(ok)])  # first True = largest qualifying delta

    threshold = 10.0 * (1.0 + cap_slope(f, delta0) / eps)
    grid2 = np.logspace(math.log10(delta0 / 10.0), -14.0, 800)
    ok2 = cap_slope(f, grid2) >= threshold
    if not np.any(ok2):
        raise NoBlowupError("cap slope grows too slowly to pass the second gate")
    delta = float(grid2[np.argmax(ok2)])
    return delta0, delta


# ---------------------------------------------------------------------------
# ball alignment near the horizontal axis


def _circular_minimax(fracs: np.ndarray) -> tuple[float, float, float]:
    """Best shift beta in [0,1) minimizing the max circular distance of the
    given fractional parts to beta; returns (beta, max_dist, mean_dist)."""
    u = np.sort(fracs % 1.0)
    gaps = np.diff(np.concatenate([u, u[:1] + 1.0]))
    k = int(np.argmax(gaps))
    arc = 1.0 - float(gaps[k])            # length of the arc covering all points
    beta = (u[(k + 1) % len(u)] + 0.5 * arc) % 1.0
    d = np.abs((fracs - beta + 0.5) % 1.0 - 0.5)
    return float(beta), float(np.max(d)), float(np.mean(d))


def ball_zero_alignment(body: ConvexBody, A: float, eps: float,
                        R_window: tuple[float, float],
                        step: float = DEFAULT_SCAN_STEP) -> AlignmentReport:
    """Zeros inside balls B(R e1, A) for R across R_window, reported against
    the best-fitting family of shifted vertical lines beta + Z.  Horizontal
    chords shorter than step are not scanned.

    A body whose right boundary is a vertical wall segment (interval case)
    is scanned directly.  Otherwise the cap-slope gate must pass: a bounded
    slope means the extreme point sits on a corner or flat arc and the
    shifted-grid structure is not expected (NoBlowup).
    """
    require_origin_symmetric(body)
    u = require_slab_span(body)[0]
    r_lo, r_hi = float(R_window[0]), float(R_window[1])
    if not r_lo < r_hi:
        raise ValueError(f"R window must have lo < hi, got ({r_lo:g}, {r_hi:g})")
    n_lines = max(4, int(math.ceil(12.0 * min(1.0, 2.0 * A))))
    # sized on every line before any chord is formed: a ball too large to
    # scan is refused before A * A can overflow
    k, n = _line_pieces(body, (2.0 * A, 0.0), n_lines)
    dy = 2.0 * A / n_lines
    xi2s = -A + (np.arange(n_lines) + 0.5) * dy
    chords = np.sqrt(np.maximum(A * A - xi2s * xi2s, 0.0))
    keep = chords > step
    if not np.any(keep):
        raise ValueError(f"step {step:g} is longer than every chord of the ball of "
                         f"radius A = {A:g}")
    xi2s = xi2s[keep]

    wall = float(u(0.5)) > 1e-9
    if not wall:
        select_scales(u, eps, A)  # raises NoBlowup for corner/flat endpoints

    R_grid = np.linspace(r_lo, r_hi, 9)
    ev = frozen_batch_evaluator(body, r_hi + A + 1.0, A + 1.0)

    # every line spans [R - A, R + A], so all share their abscissae; a zero
    # counts inside its line's chord, whose ordinate it keeps exactly
    best = None
    for R in R_grid:
        starts = np.stack([np.full(len(xi2s), R - A), xi2s], axis=1)
        stops = np.stack([np.full(len(xi2s), R + A), xi2s], axis=1)
        pts, res = _scan_lines(ev, starts, stops, k, n, body.area)
        inside = np.abs(pts[:, 0] - R) <= np.sqrt(np.maximum(A * A - pts[:, 1] * pts[:, 1], 0.0))
        if not np.any(inside):
            continue
        pts, res = pts[inside], res[inside]
        beta, max_d, mean_d = _circular_minimax(pts[:, 0])
        report = AlignmentReport(pts, res, max_d, mean_d, (r_lo, r_hi), beta)
        if best is None or report.max_dist < best.max_dist:
            best = report
    if best is None:
        raise NoZerosFoundError("no transform zeros found in any scanned ball; "
                                "enlarge R_window or A")
    return best
