"""Zeros of the body transform and their alignment with structured grids.

For an origin-symmetric body the transform is real-valued, so zeros are
located by sign-change bisection along scan lines.  Alignment targets:
the punctured integer grid lines ("Z_Q"), the full Cartesian grid ("G"),
and vertical lines at a fractional shift ("shifted_vertical_grid").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoBlowupError, NoZerosFoundError
from .fourier import frozen_batch_evaluator
from .geometry import (ConvexBody, Point2, require_origin_symmetric, require_slab_span,
                       require_standard_position)
from .heights import HeightFn

DEFAULT_SCAN_STEP = 0.02  # below half the square fixture's unit zero spacing


@dataclass(frozen=True)
class ZeroPoint:
    xi: Point2
    residual: float


@dataclass(frozen=True)
class AlignmentReport:
    zeros: list[ZeroPoint]
    max_dist: float
    mean_dist: float
    target: str
    params: tuple
    beta: float | None = None


def _dist_to_integers(t: float) -> float:
    return abs(t - round(t))


def _dist_to_nonzero_integers(t: float) -> float:
    k = round(t)
    return abs(t - k) if k != 0 else 1.0 - abs(t)


def grid_distance(xi, target: str, beta: float = 0.0) -> float:
    """Euclidean distance from xi to a structured line family.

    "Z_Q": vertical lines at nonzero integers union horizontal lines at
    nonzero integers (the axes excluded).  "G": the same with zero allowed.
    "shifted_vertical_grid": vertical lines xi1 in beta + Z.
    """
    x, y = float(xi[0]), float(xi[1])
    if target == "Z_Q":
        return min(_dist_to_nonzero_integers(x), _dist_to_nonzero_integers(y))
    if target == "G":
        return min(_dist_to_integers(x), _dist_to_integers(y))
    if target == "shifted_vertical_grid":
        t = (x - beta) % 1.0
        return min(t, 1.0 - t)
    raise ValueError(f"unknown grid target {target!r}")


def _bisect_zeros(ev, p_lo: np.ndarray, p_hi: np.ndarray, v_lo: np.ndarray,
                  tol: float) -> list[ZeroPoint]:
    """Vectorized bisection on brackets with opposite signs of Re(transform)."""
    lo = p_lo.copy()
    hi = p_hi.copy()
    s_lo = np.where(v_lo > 0, 1.0, -1.0)
    width = float(np.max(np.linalg.norm(hi - lo, axis=1), initial=0.0))
    n_iter = max(1, int(math.ceil(math.log2(max(width, 1e-10) / 1e-10))) + 2)
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        vm = ev(mid).real
        s_m = np.where(vm > 0, 1.0, -1.0)
        take_lo = s_m == s_lo          # root in the upper half
        lo = np.where(take_lo[:, None], mid, lo)
        hi = np.where(take_lo[:, None], hi, mid)
    mid = 0.5 * (lo + hi)
    res = np.abs(ev(mid))
    out = []
    for i in range(len(mid)):
        if res[i] <= tol:
            out.append(ZeroPoint(Point2(*mid[i]), float(res[i])))
    return out


def _require_scan_size(n_lines: int, n_samples: int) -> None:
    """ValueError past _panel_edges' budget, 256 MiB of what _scan_lines keeps:
    34 B a point (points, values, signs; tracemalloc).  Evaluators chunk."""
    n = n_lines * (n_samples + 1)
    if 34 * n > 256 * 2**20:
        raise ValueError(f"scan grid too large: {n:.3g} points, over 256 MiB")


def _scan_lines(ev, starts: np.ndarray, stops: np.ndarray, n_samples: int,
                tol: float) -> list[ZeroPoint]:
    """Sample each segment uniformly, bracket sign changes, bisect them all."""
    _require_scan_size(len(starts), n_samples)
    ts = np.linspace(0.0, 1.0, n_samples + 1)
    pts = starts[:, None, :] + ts[None, :, None] * (stops - starts)[:, None, :]
    flat = pts.reshape(-1, 2)
    vals = ev(flat).real.reshape(len(starts), -1)
    # the sign rule of _bisect_zeros: an exact zero counts as negative
    pos = vals > 0.0
    sign_change = pos[:, :-1] != pos[:, 1:]
    rr, cc = np.nonzero(sign_change)
    if len(rr) == 0:
        return []
    p_lo = pts[rr, cc]
    p_hi = pts[rr, cc + 1]
    return _bisect_zeros(ev, p_lo, p_hi, vals[rr, cc], tol)


def zeros_on_segment(body: ConvexBody, p0, p1, step: float = DEFAULT_SCAN_STEP,
                     tol: float | None = None) -> list[ZeroPoint]:
    """Zeros of the transform along the segment p0 -> p1, in segment order."""
    require_origin_symmetric(body)
    if tol is None:
        tol = 1e-9 * body.area
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    seg_len = float(np.linalg.norm(p1 - p0))
    n = max(1, int(math.ceil(seg_len / step)))
    box = np.max(np.abs(np.stack([p0, p1])), axis=0)
    ev = frozen_batch_evaluator(body, box[0] + 1.0, box[1] + 1.0)
    zeros = _scan_lines(ev, p0[None, :], p1[None, :], n, tol)
    zeros.sort(key=lambda z: float(np.dot(np.asarray(z.xi) - p0, p1 - p0)))
    return zeros


def slab_zero_alignment(body: ConvexBody, A: float, R_list,
                        step: float = DEFAULT_SCAN_STEP) -> list[AlignmentReport]:
    """Scan horizontal lines across each slab [R, R+10] x [-A, A]; report the
    located zeros and their distance statistics to the punctured grid Z_Q.
    Needs A >= 1, every R > 0 and step <= 2 A (ValueError otherwise)."""
    require_origin_symmetric(body)
    require_standard_position(body)
    if not (A >= 1.0):
        raise ValueError("slab half-height A must be >= 1")
    if not all(R > 0.0 for R in R_list):
        raise ValueError("slab offset R must be positive")
    tol = 1e-9 * body.area
    reports = []
    # line ordinates offset half a step: never scan exactly on an integer line,
    # where the transform can vanish identically and bracketing degenerates
    n_lines = int(math.floor(2.0 * A / step))
    n_samples = int(math.ceil(10.0 / step))
    if n_lines == 0:
        raise ValueError(f"step {step:g} leaves no scan line in |xi2| <= A = {A:g}")
    _require_scan_size(n_lines, n_samples)
    xi2s = -A + (np.arange(n_lines) + 0.5) * step
    for R in R_list:
        ev = frozen_batch_evaluator(body, R + 10.0 + 1.0, A + 1.0)
        starts = np.stack([np.full(n_lines, float(R)), xi2s], axis=1)
        stops = np.stack([np.full(n_lines, float(R) + 10.0), xi2s], axis=1)
        zeros = _scan_lines(ev, starts, stops, n_samples, tol)
        dists = [grid_distance(z.xi, "Z_Q") for z in zeros]
        reports.append(AlignmentReport(
            zeros=zeros,
            max_dist=float(max(dists, default=0.0)),
            mean_dist=float(np.mean(dists)) if dists else 0.0,
            target="Z_Q",
            params=(A, (float(R), float(R) + 10.0), math.nan),
        ))
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
    the best-fitting family of shifted vertical lines beta + Z.

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
    dy = 2.0 * A / n_lines
    xi2s = -A + (np.arange(n_lines) + 0.5) * dy
    chords = np.sqrt(np.maximum(A * A - xi2s * xi2s, 0.0))
    keep = chords > step
    if not np.any(keep):
        raise ValueError(f"step {step:g} is longer than every chord of the ball of "
                         f"radius A = {A:g}")
    n = max(2, int(math.ceil(2.0 * A / step)))

    wall = float(u(0.5)) > 1e-9
    if not wall:
        select_scales(u, eps, A)  # raises NoBlowup for corner/flat endpoints

    tol = 1e-9 * body.area
    R_grid = np.linspace(r_lo, r_hi, 9)
    ev = frozen_batch_evaluator(body, r_hi + A + 1.0, A + 1.0)

    best = None
    for R in R_grid:
        starts = np.stack([R - chords[keep], xi2s[keep]], axis=1)
        stops = np.stack([R + chords[keep], xi2s[keep]], axis=1)
        zeros = _scan_lines(ev, starts, stops, n, tol)
        if not zeros:
            continue
        fracs = np.array([z.xi[0] for z in zeros])
        beta, max_d, mean_d = _circular_minimax(fracs)
        report = AlignmentReport(zeros, max_d, mean_d, "shifted_vertical_grid",
                                 (A, (r_lo, r_hi), eps), beta)
        if best is None or report.max_dist < best.max_dist:
            best = report
    if best is None:
        raise NoZerosFoundError("no transform zeros found in any scanned ball; "
                                "enlarge R_window or A")
    return best
