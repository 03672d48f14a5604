"""Fourier transforms of indicator functions of convex planar bodies.

The transform convention is

    T(xi) = integral over the body of exp(-2*pi*i * xi . x) dx,

so T(0) is the area.  transform_batch gives (values, errors) for any body.
Polygons, and graph bodies bounded by flat arcs (read as the polygon through
their knots, geometry.as_polygon), get an exact edge-sum closed form, and for
|xi| r <= SINGULAR_THRESHOLD, r the largest vertex norm, a Gauss rule on the
origin fan.  Curved graph bodies, and caps with no closed form, get one
panel rule: Gauss-Legendre panels in x with the inner y-integral in closed
form, sized for the requested frequency box, before any frequency is
evaluated, by halving the panels whose Gauss-Legendre error bound on their
Bernstein ellipse exceeds their share of the target; `err` is the summed
bound plus a rounding floor, and a rule whose bound stops falling before it
meets the target raises NoConvergenceError.  Every gradient, a polygon's
through its graph form, is a sum over such a rule's nodes.
Adaptive Gauss-Kronrod quadrature (geometry._gauss_kronrod) serves only the
independent oracle, ft_quadrature, and the confirmation step of the cap scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .geometry import (ConvexBody, ConvexPolygon, GraphBody, Point2, _gauss_kronrod,
                       as_polygon, graph_heights, require_memory)
from .heights import HeightFn, zero

_TWO_PI = 2.0 * math.pi
_EPS = np.finfo(float).eps

# |xi| r, r the polygon's largest vertex norm, at or below which the closed
# form switches to the origin-fan rule: relative to the area, the edge sum
# loses about 1/(|xi| r) to cancellation and the fan rule's Taylor remainder
# grows with 2 pi |xi| r, so the switch is the same for every scale of a body
SINGULAR_THRESHOLD = 1e-2
# the oracle's error bar must be at most 10 QUAD_TOL; it asks for 0.1 QUAD_TOL
QUAD_TOL = 1e-10
# the panel rule's error target, relative to the body's area
_PANEL_TOL = 1e-13
# |transform| at most this times the area counts as a zero: found zeros,
# alignment scans and spectrum orthogonality
ZERO_TOL = 1e-9
# the largest frequency coordinate the edge sum takes: past about 3.8e153
# its divisor 2 pi |xi|^2 overflows
_EDGE_SUM_MAX_XI = 1e153


@dataclass(frozen=True, slots=True)
class FourierSample:
    xi: Point2
    value: complex
    method: str  # "closed_form" (flat arcs) | "panel_rule" (curved) | "quadrature" (oracle)
    err: float
    converged: bool = True


# ---------------------------------------------------------------------------
# polygon closed form


def _edge_sum(poly: ConvexPolygon, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-sinc edge sum; valid away from xi = 0.

    Each edge (midpoint m, vector d) contributes
        cross(xi, d) * exp(-2*pi*i xi.m) * sinc(xi.d),
    and the total is multiplied by i / (2*pi*|xi|^2).  sinc is entire, so
    there is no per-edge singularity; returns (values, roundoff estimate).
    Points go in chunks of 2**18 point-edge terms, about 12 MiB at 48 B a
    term, inside the 24 MiB a scan budgets beside its points (_line_pieces).
    """
    v = poly.vertices
    d = np.roll(v, -1, axis=0) - v
    mid = 0.5 * (v + np.roll(v, -1, axis=0))
    total = np.empty(len(xis), dtype=complex)
    mag = np.empty(len(xis))
    chunk = max(1, 2**18 // len(v))
    for lo in range(0, len(xis), chunk):
        sl = xis[lo:lo + chunk]
        cr = sl[:, 0:1] * d[None, :, 1] - sl[:, 1:2] * d[None, :, 0]
        snc = np.sinc(sl @ d.T)
        total[lo:lo + chunk] = (cr * np.exp((-2j * math.pi) * (sl @ mid.T)) * snc).sum(axis=1)
        mag[lo:lo + chunk] = np.abs(cr * snc).sum(axis=1)
    scale = 1.0 / (_TWO_PI * np.einsum("ij,ij->i", xis, xis))
    return 1j * total * scale, 32.0 * _EPS * mag * scale


def _moment_series(poly: ConvexPolygon, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transform near the origin by a collapsed Gauss-Legendre rule on the
    origin fan: the triangle (0, p, q) of each edge is the image of the unit
    square under (s, t) -> s p + t (1 - s) q, Jacobian (1 - s) cross(p, q).
    n points per direction integrate total degree d = 2n - 2 exactly, so the
    rule errs by at most 2 sum|w| amp^(d+1) / (d+1)!, amp = 2 pi |xi| r with
    r the largest vertex norm, plus a rounding floor: (values, error bounds).
    """
    r = float(np.max(np.linalg.norm(poly.vertices, axis=1)))
    amp = _TWO_PI * np.linalg.norm(xis, axis=1) * r
    amax = float(np.max(amp, initial=0.0))
    kmax = 4
    while kmax < 40 and (amax ** (kmax + 1)) / math.factorial(kmax + 1) > 1e-16:
        kmax += 2
    n = (kmax + 3) // 2
    d = 2 * n - 2
    x, w = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (x + 1.0)
    ref_w = np.outer(0.5 * w * (1.0 - s), 0.5 * w).ravel()
    sp = np.repeat(s, n)
    tq = np.tile(s, n) * (1.0 - sp)
    p = poly.vertices
    q = np.roll(p, -1, axis=0)
    nodes = (sp[None, :, None] * p[:, None, :] + tq[None, :, None] * q[:, None, :]).reshape(-1, 2)
    cr = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    weights = (cr[:, None] * ref_w[None, :]).ravel()
    vals = np.exp((-2j * math.pi) * (xis @ nodes.T)) @ weights
    wsum = np.abs(weights).sum()
    bound = 2.0 * wsum * amp ** (d + 1) / math.factorial(d + 1) + 32.0 * _EPS * wsum
    return vals, bound


# ---------------------------------------------------------------------------
# graph bodies: panelized Gauss-Legendre with exact inner integral

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# Bernstein ellipse parameters tried for each panel's error bound
_RHO = 1.0 + np.geomspace(0.05, 40.0, 24)
# peak bytes per node of a rule's build, over every height kind (tracemalloc)
_PANEL_BYTES_PER_NODE = 50


def _gl_bound(body: GraphBody, lo: np.ndarray, hi: np.ndarray, max_xi1: float,
              max_xi2: float) -> np.ndarray:
    """Error bound of each panel [lo, hi] of a rule for the box
    |xi1| <= max_xi1, |xi2| <= max_xi2.  n-point Gauss-Legendre on a panel of
    half-width h errs by at most (64/15) M rho^(-2n) / (rho^2 - 1) h with M
    the integrand's bound on the Bernstein ellipse E_rho (Trefethen, ATAP,
    Thm 19.3), here |F + G| exp(2 pi |Im z| (max_xi1 + max_xi2 max(|F'|, |G'|))),
    minimized over _RHO.  A panel that touches a singular end takes 2 width
    (max height).  Each panel's bound depends on that panel alone.  Blocks
    of 4096 panels cap its temporaries near 10 MiB at any panel count.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    bound, rho = np.empty(len(mid)), _RHO[None, :]
    for s in range(0, len(mid), 4096):
        m, h = mid[s:s + 4096, None], half[s:s + 4096, None]
        fm, fd = body.f.ellipse_bounds(m, 0.5 * (rho + 1.0 / rho) * h)
        gm, gd = body.g.ellipse_bounds(m, 0.5 * (rho + 1.0 / rho) * h)
        with np.errstate(over="ignore", invalid="ignore"):
            mag = (fm + gm) * np.exp(math.pi * (rho - 1.0 / rho) * h
                                     * (max_xi1 + max_xi2 * np.maximum(fd, gd)))
            # fmin skips the NaN of inf * 0: a panel with no finite rho keeps inf
            bound[s:s + 4096] = np.fmin.reduce((64.0 / 15.0) * mag * rho ** (-2 * len(_GL_NODES))
                                                 / (rho * rho - 1.0) * h, axis=1, initial=np.inf)
    if body.f.endpoint_singular or body.g.endpoint_singular:
        end = (lo == body.a) | (hi == body.b)
        bound[end] = 4.0 * half[end] * (body.f.max_value() + body.g.max_value())
    return bound


class _FrozenGraphEval:
    """One panel rule: callable xis -> transform values, erring by at most
    `err` for frequencies in the box it was sized for.

    Evaluates sum_k w_k * (F+G) * exp(-pi i xi2 (F-G)) * sinc(xi2 (F+G))
    * exp(-2 pi i xi1 x_k).  The bracket is the exact closed form of the
    inner integral over [-g(x), f(x)]; the sinc form is branch-free in xi2.
    """

    def __init__(self, body: GraphBody, edges: np.ndarray, err: float):
        half = 0.5 * np.diff(edges)
        self.nodes = ((edges[:-1] + half)[:, None] + half[:, None] * _GL_NODES).ravel()
        self.weights = (half[:, None] * _GL_WEIGHTS).ravel()
        F, G = body.f(self.nodes), body.g(self.nodes)
        self.tot, self.dif, self.err = F + G, F - G, err

    def __call__(self, xis: np.ndarray) -> np.ndarray:
        """Values at xis.  When the distinct xi1 and xi2 span a product grid at
        most 4x the batch, the phases are formed once per xi1, the inner
        factor once per xi2, and one complex GEMM combines them."""
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        u1, i1 = np.unique(xis[:, 0], return_inverse=True)
        u2, i2 = np.unique(xis[:, 1], return_inverse=True)
        chunk = max(1, int(2**20 // max(len(self.nodes), 1)))
        if len(u1) * len(u2) <= 4 * len(xis):
            grid = np.empty((len(u1), len(u2)), dtype=complex)
            for lo2 in range(0, len(u2), chunk):
                inner = self._inner(u2[lo2:lo2 + chunk])
                for lo1 in range(0, len(u1), chunk):
                    phase = self._phase(u1[lo1:lo1 + chunk]) * self.weights
                    grid[lo1:lo1 + chunk, lo2:lo2 + chunk] = phase @ inner.T
            return grid[i1, i2]
        out = np.empty(len(xis), dtype=complex)
        for lo in range(0, len(xis), chunk):
            sl = xis[lo:lo + chunk]
            out[lo:lo + chunk] = (self._inner(sl[:, 1]) * self._phase(sl[:, 0])) @ self.weights
        return out

    def _inner(self, xi2: np.ndarray) -> np.ndarray:
        return self.tot * np.exp((-1j * math.pi) * np.outer(xi2, self.dif)) \
            * np.sinc(np.outer(xi2, self.tot))

    def _phase(self, xi1: np.ndarray) -> np.ndarray:
        return np.exp((-2j * math.pi) * np.outer(xi1, self.nodes))

    def gradient(self, xi) -> tuple[complex, complex]:
        """-2 pi i times the integrals of x and y against exp(-2 pi i xi.x),
        on the same nodes and weights.  The inner y-integral over
        [-G, F] = (F - G)/2 + (F + G) [-1/2, 1/2] is
        (F+G) exp(-pi i xi2 (F-G)) ((F-G)/2 sinc(u) + (F+G) T(u)), u = xi2 (F+G)."""
        u = xi[1] * self.tot
        snc = np.sinc(u)
        shifted = self.tot * np.exp((-1j * math.pi) * xi[1] * self.dif)
        wphase = self.weights * np.exp((-2j * math.pi) * xi[0] * self.nodes)
        mx = (self.nodes * shifted * snc) @ wphase
        my = (shifted * (0.5 * self.dif * snc + self.tot * _t_kernel(u))) @ wphase
        return complex(-2j * math.pi * mx), complex(-2j * math.pi * my)


# perfbench/spans.py times the kernel under this name as well as through the
# class; the alias keeps that name resolving to the one kernel
_graph_eval = _FrozenGraphEval.__call__


def _panel_rule(body: GraphBody, max_xi1: float, max_xi2: float) -> _FrozenGraphEval:
    """The panel rule for the box |xi1| <= max_xi1, |xi2| <= max_xi2, built
    once, with no frequency evaluated.  The first layout has half of ~1.1
    panels per oscillation period, split at the heights' breakpoints and
    graded toward a singular end until the end panel's bound is at most a
    quarter of the target _PANEL_TOL * area.  Each pass accepts the layout when
    its summed _gl_bound plus a rounding floor of 32 eps * area, the sum of
    |w_k (F+G)_k|, meets the target (rule.err is that sum), and otherwise
    halves every panel whose bound exceeds its width's share of the target;
    only the halves a pass creates get new bounds.  Before any node is
    built: ValueError when the panel count would pass the memory budget,
    NoConvergenceError when a pass does not lower the bound.
    """
    target, floor = _PANEL_TOL * body.area, 32.0 * _EPS * body.area
    brk = np.array(sorted({body.a, body.b, *body.f.breakpoints(), *body.g.breakpoints()}))
    hmax = body.f.max_value() + body.g.max_value()
    # floats: near the float limit a count is inf, and grade 0, for the memory guard
    with np.errstate(over="ignore"):
        counts = np.maximum(2.0, np.ceil(0.5 * (1.1 * (max_xi1 * np.diff(brk) + max_xi2 * hmax)
                                                + 2.0)))
        h_lo, h_hi = (brk[1] - brk[0]) / counts[0], (brk[-1] - brk[-2]) / counts[-1]
        grade = 8.0 * max(h_lo, h_hi) * hmax / target
    levels = (max(1.0, float(np.ceil(math.log2(grade)))) if grade > 0.0 and (
        body.f.endpoint_singular or body.g.endpoint_singular) else 0.0)
    # NaN compares false, so the first pass is never refused for its bound
    panels, edges, last = counts.sum() + 2.0 * levels, None, math.nan
    while True:
        require_memory(_PANEL_BYTES_PER_NODE * len(_GL_NODES) * panels, "panel rule",
                       f"{panels:.3g} panels for frequencies up to ({max_xi1:g}, {max_xi2:g})")
        if edges is None:
            lev = np.exp2(-np.arange(1, levels + 1, dtype=float))
            edges = np.unique(np.concatenate(
                [np.linspace(s0, s1, int(n) + 1) for s0, s1, n in zip(brk[:-1], brk[1:], counts)]
                + [body.a + h_lo * lev, body.b - h_hi * lev]))
            bound = _gl_bound(body, edges[:-1], edges[1:], max_xi1, max_xi2)
        else:
            # each split panel becomes two halves in place; the rest keep their bounds
            fresh = np.repeat(split, 1 + split)
            edges = np.insert(edges, np.flatnonzero(split) + 1,
                              0.5 * (edges[:-1] + edges[1:])[split])
            bound = np.repeat(bound, 1 + split)
            bound[fresh] = _gl_bound(body, edges[:-1][fresh], edges[1:][fresh], max_xi1, max_xi2)
        total = float(bound.sum())
        if total + floor <= target:
            return _FrozenGraphEval(body, edges, total + floor)
        if total >= last:
            raise NoConvergenceError(f"panel rule bound {last + floor:.3g} misses the target "
                                     f"{target:.3g} for frequencies up to "
                                     f"({max_xi1:g}, {max_xi2:g})")
        split = bound > (target - floor) / (body.b - body.a) * np.diff(edges)
        panels, last = len(bound) + int(np.count_nonzero(split)), total


def graph_transform_batch(body: GraphBody, xis) -> tuple[np.ndarray, np.ndarray]:
    """Panel-rule transform for a batch of frequencies: (values, the rule's
    err at every point), NoConvergenceError when the bound misses
    _PANEL_TOL * area."""
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    m1 = float(np.max(np.abs(xis[:, 0]), initial=0.0))
    m2 = float(np.max(np.abs(xis[:, 1]), initial=0.0))
    rule = _panel_rule(body, m1, m2)
    return rule(xis), np.full(len(xis), rule.err)


def frozen_batch_evaluator(body: ConvexBody, max_xi1: float, max_xi2: float):
    """Callable xis -> transform values, valid for |xi1| <= max_xi1, |xi2| <= max_xi2.

    Bodies bounded by flat arcs use the exact closed form, ValueError for a
    box the edge sum cannot take.  Curved bodies get the panel rule, which
    _panel_rule refuses (NoConvergenceError) when its bound misses
    _PANEL_TOL * area.
    """
    poly = as_polygon(body)
    if poly is not None:
        _require_edge_sum_range(np.array([[max_xi1, max_xi2]]))
        return lambda xis: transform_batch(poly, xis)[0]
    return _panel_rule(body, max_xi1, max_xi2)


def _require_edge_sum_range(xis: np.ndarray) -> None:
    """ValueError naming the frequencies with a coordinate past _EDGE_SUM_MAX_XI."""
    far = xis[np.any(np.abs(xis) > _EDGE_SUM_MAX_XI, axis=1)]
    if len(far):
        more = f" and {len(far) - 1} more" if len(far) > 1 else ""
        raise ValueError(f"frequency too large for the edge sum: ({far[0, 0]:g}, {far[0, 1]:g})"
                         f"{more}, a coordinate over {_EDGE_SUM_MAX_XI:g}")


def transform_batch(body: ConvexBody, xis) -> tuple[np.ndarray, np.ndarray]:
    """Primary-route transform for an (N, 2) frequency batch: (values, errors).
    ValueError, naming them, for frequencies the edge sum cannot take."""
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    poly = as_polygon(body)
    if poly is None:
        return graph_transform_batch(body, xis)
    _require_edge_sum_range(xis)
    values = np.empty(len(xis), dtype=complex)
    errs = np.empty(len(xis))
    r = float(np.max(np.linalg.norm(poly.vertices, axis=1)))
    small = np.linalg.norm(xis, axis=1) * r <= SINGULAR_THRESHOLD
    if np.any(~small):
        values[~small], errs[~small] = _edge_sum(poly, xis[~small])
    if np.any(small):
        values[small], errs[small] = _moment_series(poly, xis[small])
    return values, errs


def ft_body(body: ConvexBody, xi) -> FourierSample:
    """Primary-route transform at one frequency: closed form for bodies
    bounded by flat arcs, the panel rule otherwise (NoConvergenceError when
    its bound misses _PANEL_TOL * area, so a returned sample is converged)."""
    xis = np.asarray(xi, dtype=float).reshape(1, 2)
    poly = as_polygon(body)
    vals, errs = transform_batch(body if poly is None else poly, xis)
    return FourierSample(Point2(*xis[0].tolist()), complex(vals[0]),
                         "panel_rule" if poly is None else "closed_form", float(errs[0]))


# ---------------------------------------------------------------------------
# independent adaptive-quadrature route


def _strip_transform(f: HeightFn, g: HeightFn, xi2: float):
    """x -> integral of exp(-2 pi i xi2 y) dy over [-g(x), f(x)], in closed form."""
    def h(x):
        fx, gx = f(x), g(x)
        return (fx + gx) * np.exp((-1j * math.pi) * xi2 * (fx - gx)) * np.sinc(xi2 * (fx + gx))
    return h


def ft_quadrature(body: ConvexBody, xi) -> FourierSample:
    """Adaptive iterated quadrature over the graph form (independent oracle).

    The inner y-integral is exact (_strip_transform); the outer x-integral
    is geometry's adaptive Gauss-Kronrod rule, split at the heights' break
    points.  A subdivision limit without convergence returns the best
    estimate flagged, not a raise.
    """
    xi = np.asarray(xi, dtype=float).reshape(2)
    f, g = graph_heights(body)
    total, err, converged = _gauss_kronrod(_strip_transform(f, g, xi[1]), f.a, f.b,
                                           f.breakpoints() + g.breakpoints(), xi[0],
                                           0.1 * QUAD_TOL)
    # abserr estimates the integration error only; |integrand| <= f + g
    # integrates to the body's area, so that much rounding is irreducible
    err = max(err, float(32.0 * _EPS * body.area))
    return FourierSample(Point2(*xi.tolist()), complex(total), "quadrature", err,
                         converged and err <= 10.0 * QUAD_TOL)


# ---------------------------------------------------------------------------
# gradient


def _t_kernel(u: np.ndarray) -> np.ndarray:
    """T(u) = integral of s exp(-2 pi i s u) over [-1/2, 1/2].

    Closed form -i (sin(pi u) - pi u cos(pi u)) / (2 pi^2 u^2), with the
    removable singularity at u = 0 handled by its Taylor series.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape, dtype=complex)
    small = np.abs(u) < 0.1
    x = math.pi * u[small]
    x2 = x * x
    out[small] = -1j * (x / 6.0) * (1.0 - x2 / 10.0 + x2 * x2 / 280.0
                                    - x2 * x2 * x2 / 15120.0 + x2 * x2 * x2 * x2 / 1330560.0)
    ub = u[~small]
    xb = math.pi * ub
    out[~small] = -1j * (np.sin(xb) - xb * np.cos(xb)) / (2.0 * math.pi**2 * ub * ub)
    return out


def grad_ft(body: ConvexBody, xi) -> tuple[complex, complex]:
    """Gradient of the transform: -2 pi i (integral of x_k exp(-2 pi i xi.x)).

    A sum over the nodes of the panel rule for the box |xi1|, |xi2| on the
    body's graph form: a graph body as given, a polygon's boundary chains
    through graph_heights.  NoConvergenceError when the rule's bound misses
    the target.
    """
    xi = np.asarray(xi, dtype=float).reshape(2)
    if not isinstance(body, GraphBody):
        f, g = graph_heights(body)
        body = GraphBody(f.a, f.b, f, g)
    return _panel_rule(body, abs(xi[0]), abs(xi[1])).gradient(xi)


# ---------------------------------------------------------------------------
# 1D transforms of height functions and the cap scan


def _interval_linear_ft(x0, x1, y0, y1, R: np.ndarray) -> np.ndarray:
    """integral of the linear interpolant over [x0, x1] against exp(-2 pi i R x)."""
    L = x1 - x0
    xm = 0.5 * (x0 + x1)
    u = R * L
    slope = (y1 - y0) / L
    ym = 0.5 * (y0 + y1)
    return L * np.exp((-2j * math.pi) * R * xm) * (ym * np.sinc(u) + slope * L * _t_kernel(u))


def height_fourier(f: HeightFn, R) -> np.ndarray:
    """f_hat(R) = integral of f(x) exp(-2 pi i R x) dx, closed form per kind.

    Piecewise-linear heights sum interval transforms; polynomials use the
    integration-by-parts recurrence (Taylor branch for small R); the
    semicircle is r J1(2 pi r R) / (2 R).  The 'power' kind has no closed
    form: f_hat(R) is the transform of the cap body {0 <= y <= f(x)} at
    (R, 0), taken from the panel rule of frozen_batch_evaluator.
    """
    R = np.atleast_1d(np.asarray(R, dtype=float))
    if f.kind == "pw":
        knots, vals = f.knots, f.values
        out = np.zeros(len(R), dtype=complex)
        for i in range(len(knots) - 1):
            out += _interval_linear_ft(knots[i], knots[i + 1], vals[i], vals[i + 1], R)
        return out
    if f.kind == "semicircle":
        from scipy.special import j1
        out = np.empty(len(R), dtype=complex)
        tiny = np.abs(R) < 1e-9
        out[tiny] = 0.5 * math.pi * f.r**2 * (1.0 - 0.5 * (math.pi * f.r * R[tiny]) ** 2)
        Rb = R[~tiny]
        out[~tiny] = f.r * j1(_TWO_PI * f.r * Rb) / (2.0 * Rb)
        return out
    if f.kind == "poly":
        return _poly_height_fourier(f, R)
    cap = GraphBody(f.a, f.b, f, zero(f.a, f.b))
    ev = frozen_batch_evaluator(cap, float(np.max(np.abs(R), initial=0.0)), 0.0)
    return ev(np.stack([R, np.zeros_like(R)], axis=1))


def _poly_height_fourier(f: HeightFn, R: np.ndarray) -> np.ndarray:
    a, b = f.a, f.b
    deg = len(f.coeffs) - 1
    out = np.zeros(len(R), dtype=complex)
    c = _TWO_PI * R
    big = np.abs(c) >= 1.0
    if np.any(big):
        cb = c[big]
        ea = np.exp(-1j * cb * a)
        eb = np.exp(-1j * cb * b)
        ik = (ea - eb) / (1j * cb)
        acc = f.coeffs[0] * ik
        for k in range(1, deg + 1):
            ik = (a**k * ea - b**k * eb) / (1j * cb) + (k / (1j * cb)) * ik
            if f.coeffs[k] != 0.0:
                acc += f.coeffs[k] * ik
        out[big] = acc
    if np.any(~big):
        cs = c[~big]
        acc = np.zeros((~big).sum(), dtype=complex)
        for k, ck in enumerate(f.coeffs):
            if ck == 0.0:
                continue
            term = np.zeros_like(acc)
            fac = 1.0 + 0.0j
            for j in range(0, 30):
                mono = (b ** (k + j + 1) - a ** (k + j + 1)) / (k + j + 1)
                term += fac * mono
                fac *= -1j * cs / (j + 1)
                if np.all(np.abs(fac) * max(abs(a), abs(b)) ** (k + j + 2) < 1e-18):
                    break
            acc += ck * term
        out[~big] = acc
    return out


@dataclass(frozen=True, slots=True)
class CapScanResult:
    R: float
    value: float          # |f_hat(R)| at the maximizing R (quadrature-confirmed)
    ratio: float          # value / (delta * f(b - delta)); NaN for a zero cap
    delta: float
    window: tuple[float, float]
    grid_step: float      # step of the coarse grid, at most 1/(8(b - a))


# height_fourier's peak temporaries per point, over every height kind (tracemalloc)
_CAP_BYTES_PER_POINT = 160
# zoom points across +-1 current step, and the step's shrink per zoom level
_ZOOM_POINTS, _ZOOM_SHRINK = 33, 16


def cap_lower_bound_scan(f: HeightFn, delta: float,
                         window: tuple[float, float] = (0.1, 10.0)) -> CapScanResult:
    """Scan R in [window[0]/delta, window[1]/delta] for the largest |f_hat(R)|.

    |f_hat|^2 is the transform of f's autocorrelation, which vanishes outside
    [-(b-a), b-a]; so |f_hat|^2 is band-limited with Nyquist spacing
    1/(2(b-a)), and by Bernstein's inequality its samples on a grid of step
    1/(8(b-a)), 4x oversampled, fall at most ~8% below the largest value
    near them.  That coarse grid, both window ends included, does not depend
    on delta.  Every coarse local maximum (a window end counts when it is
    not below its neighbour) at least half the best sample is then zoomed:
    each level evaluates _ZOOM_POINTS across +-1 current step around every
    candidate in one height_fourier call and shrinks the step _ZOOM_SHRINK
    times, until it is below 1e-11 * R_hi.  The winning R is confirmed by
    adaptive quadrature (_gauss_kronrod) and the quadrature value is
    reported, NoConvergenceError if it does not converge.  An identically
    zero cap refines nothing.  ValueError before allocating a grid over the
    memory budget.  ratio uses the cap height at distance delta from the
    right endpoint; an identically-zero denominator yields ratio = NaN; the
    window needs lo < hi.  grid_step is the coarse step.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"window must have lo < hi, got ({lo:g}, {hi:g})")
    r_lo, r_hi = lo / delta, hi / delta
    # counted from the window, not r_hi - r_lo: both ends overflow together
    n = 8.0 * (f.b - f.a) * (hi - lo) / delta
    require_memory(_CAP_BYTES_PER_POINT * (n + 1.0), "cap scan grid", f"{n + 1.0:.3g} points")
    grid, step = np.linspace(r_lo, r_hi, math.ceil(n) + 1, retstep=True)
    mags = np.abs(height_fourier(f, grid))
    best = float(np.max(mags))
    r_star = float(grid[np.argmax(mags)])
    if best > 0.0:
        pad = np.concatenate([[-np.inf], mags, [-np.inf]])
        keep = (mags >= pad[:-2]) & (mags >= pad[2:]) & (mags >= 0.5 * best)
        peaks, pmags = grid[keep], mags[keep]
        require_memory(_CAP_BYTES_PER_POINT * _ZOOM_POINTS * len(peaks), "cap scan grid",
                       f"{_ZOOM_POINTS * len(peaks)} zoom points")
        offsets, rows = np.linspace(-1.0, 1.0, _ZOOM_POINTS), np.arange(len(peaks))
        half = step
        while half >= 1e-11 * r_hi:
            zoom = np.clip(peaks[:, None] + half * offsets, r_lo, r_hi)
            zmags = np.abs(height_fourier(f, zoom.ravel())).reshape(zoom.shape)
            at = np.argmax(zmags, axis=1)
            peaks, pmags = zoom[rows, at], zmags[rows, at]
            half /= _ZOOM_SHRINK
        r_star = float(peaks[np.argmax(pmags)])

    val, _, ok = _gauss_kronrod(f, f.a, f.b, f.breakpoints(), r_star, 0.1 * QUAD_TOL)
    if not ok:
        raise NoConvergenceError(f"cap quadrature did not converge at R = {r_star:g}")
    value = abs(val)

    denom = delta * float(f(f.b - delta))
    ratio = value / denom if denom > 0.0 else math.nan
    return CapScanResult(r_star, float(value), float(ratio), delta, (lo, hi), float(step))
