"""Fourier transforms of indicator functions of convex planar bodies.

The transform convention is

    T(xi) = integral over the body of exp(-2*pi*i * xi . x) dx,

so T(0) is the area.  transform_batch gives (values, errors) for any body.
Polygons, and graph bodies bounded by flat arcs (read as the polygon through
their knots, geometry.as_polygon), get an exact edge-sum closed form, with an
exact moment series for |xi| <= SINGULAR_THRESHOLD.  Curved graph bodies, and
caps with no closed form, get one panel rule: Gauss-Legendre panels in x with
the inner y-integral in closed form, refined by the factor 1.5 until two
successive rules agree on a set of check points; `err` is the difference
between the last two rules.  _fourier_quad, scipy adaptive quadrature, gives
the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from .errors import NoConvergenceError
from .geometry import (ConvexBody, ConvexPolygon, GraphBody, Point2, _chain_indices,
                       as_polygon)
from .heights import HeightFn, zero

_TWO_PI = 2.0 * math.pi
_EPS = np.finfo(float).eps

# |xi| below which the polygon closed form switches to the exact moment series
# (the edge sum loses ~|xi|^-1 digits to cancellation near the origin)
SINGULAR_THRESHOLD = 1e-2
# absolute tolerance requested from adaptive quadrature
QUAD_TOL = 1e-10
# subdivision limit for scipy quadrature routines
_MAX_SUBDIVISIONS = 200
# panel refinements tried before a curved-body rule is reported unconverged
_REFINE_ROUNDS = 8


@dataclass(frozen=True)
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
    """
    v = poly.vertices
    d = np.roll(v, -1, axis=0) - v
    mid = 0.5 * (v + np.roll(v, -1, axis=0))
    u = xis @ d.T
    phases = np.exp((-2j * math.pi) * (xis @ mid.T))
    cr = xis[:, 0:1] * d[None, :, 1] - xis[:, 1:2] * d[None, :, 0]
    terms = cr * phases * np.sinc(u)
    total = terms.sum(axis=1)
    norm2 = np.einsum("ij,ij->i", xis, xis)
    scale = 1.0 / (_TWO_PI * norm2)
    values = 1j * total * scale
    err = 32.0 * _EPS * np.abs(cr * np.sinc(u)).sum(axis=1) * scale
    return values, err


@lru_cache(maxsize=128)
def _factorials(n: int) -> tuple:
    out = [1]
    for k in range(1, n + 1):
        out.append(out[-1] * k)
    return tuple(out)


def polygon_moments(poly: ConvexPolygon, kmax: int) -> np.ndarray:
    """Exact monomial moments M[a, b] = integral of x^a y^b, a + b <= kmax.

    Computed by the signed origin-fan over edges: for the triangle (0, p, q)
    with Jacobian cross(p, q), expand (u p + v q) binomially and use
    integral over the unit simplex of u^i v^j = i! j! / (i + j + 2)!.
    Each table is kept on the polygon, so it lives exactly as long as it does.
    """
    cached = poly.moment_tables.get(kmax)
    if cached is not None:
        return cached
    fac = _factorials(2 * kmax + 2)
    M = np.zeros((kmax + 1, kmax + 1))
    v = poly.vertices
    for e in range(len(v)):
        p, q = v[e], v[(e + 1) % len(v)]
        jac = p[0] * q[1] - p[1] * q[0]
        if jac == 0.0:
            continue
        ppow = np.vander([p[0], p[1], q[0], q[1]], kmax + 1, increasing=True)
        for a in range(kmax + 1):
            for b in range(kmax + 1 - a):
                s = 0.0
                for i in range(a + 1):
                    ca = math.comb(a, i) * ppow[0, i] * ppow[2, a - i]
                    for j in range(b + 1):
                        cb = math.comb(b, j) * ppow[1, j] * ppow[3, b - j]
                        s += ca * cb * fac[i + j] * fac[a + b - i - j] / fac[a + b + 2]
                M[a, b] += jac * s
    M.setflags(write=False)
    poly.moment_tables[kmax] = M
    return M


def _moment_series(poly: ConvexPolygon, xis: np.ndarray, extra_x: int = 0,
                   extra_y: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Taylor series at the origin for integral of x^extra * exp(-2 pi i xi.x).

    Returns (values, remainder bounds).  Terms: sum_k (-2 pi i)^k / k! *
    integral of (xi . x)^k x^extra; the remainder is bounded by the first
    omitted term with all moments bounded by area * r^order.
    """
    r = float(np.max(np.linalg.norm(poly.vertices, axis=1)))
    amp = _TWO_PI * np.linalg.norm(xis, axis=1) * r
    amax = float(np.max(amp, initial=0.0))
    kmax = 4
    while kmax < 40 and (amax ** (kmax + 1)) / math.factorial(kmax + 1) > 1e-16:
        kmax += 2
    M = polygon_moments(poly, kmax + extra_x + extra_y)
    vals = np.zeros(len(xis), dtype=complex)
    coef = 1.0 + 0.0j
    for k in range(kmax + 1):
        inner = np.zeros(len(xis))
        for j in range(k + 1):
            mom = M[j + extra_x, k - j + extra_y]
            if mom != 0.0:
                inner = inner + math.comb(k, j) * xis[:, 0] ** j * xis[:, 1] ** (k - j) * mom
        vals += coef * inner
        coef *= -2j * math.pi / (k + 1)
    bound = poly.area * (r ** (extra_x + extra_y)) * amp ** (kmax + 1) / math.factorial(kmax + 1)
    return vals, bound


# ---------------------------------------------------------------------------
# graph bodies: panelized Gauss-Legendre with exact inner integral

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panel_edges(body: GraphBody, max_xi1: float, max_xi2: float, factor: float) -> np.ndarray:
    """Panel boundaries: ~1 oscillation period per panel, split at height-fn
    breakpoints, geometrically graded toward endpoints with unbounded slope."""
    brk = sorted({body.a, body.b, *body.f.breakpoints(), *body.g.breakpoints()})
    hmax = body.f.max_value() + body.g.max_value()
    edges = []
    for s0, s1 in zip(brk[:-1], brk[1:]):
        ell = s1 - s0
        periods = max_xi1 * ell + max_xi2 * hmax
        n = max(2, int(math.ceil(factor * (1.1 * periods + 2.0))))
        edges.append(np.linspace(s0, s1, n + 1))
    edges = np.unique(np.concatenate(edges))

    graded = [edges]
    if body.f.endpoint_singular or body.g.endpoint_singular:
        h_lo = edges[1] - edges[0]
        h_hi = edges[-1] - edges[-2]
        lev = np.exp2(-np.arange(1, 47, dtype=float))
        graded.append(body.a + h_lo * lev)
        graded.append(body.b - h_hi * lev)
    return np.unique(np.concatenate(graded))


def _gl_nodes_weights(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


class _FrozenGraphEval:
    """One panel rule: callable xis -> transform values.

    Evaluates sum_k w_k * (F+G) * exp(-pi i xi2 (F-G)) * sinc(xi2 (F+G))
    * exp(-2 pi i xi1 x_k).  The bracket is the exact closed form of the
    inner integral over [-g(x), f(x)]; the sinc form is branch-free in xi2.
    """

    def __init__(self, body: GraphBody, nodes: np.ndarray, weights: np.ndarray):
        self.nodes = nodes
        self.weights = weights
        F = body.f(nodes)
        G = body.g(nodes)
        self.tot = F + G
        self.dif = F - G

    def __call__(self, xis: np.ndarray) -> np.ndarray:
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        out = np.empty(len(xis), dtype=complex)
        chunk = max(1, int(2**20 // max(len(self.nodes), 1)))
        for lo in range(0, len(xis), chunk):
            sl = xis[lo:lo + chunk]
            inner = self.tot[None, :] * np.exp((-1j * math.pi) * np.outer(sl[:, 1], self.dif)) \
                * np.sinc(np.outer(sl[:, 1], self.tot))
            phase = np.exp((-2j * math.pi) * np.outer(sl[:, 0], self.nodes))
            out[lo:lo + chunk] = (inner * phase) @ self.weights
        return out


# perfbench/spans.py times the kernel under this name as well as through the
# class; the alias keeps that name resolving to the one kernel
_graph_eval = _FrozenGraphEval.__call__


def _refine_panels(body: GraphBody, max_xi1: float, max_xi2: float,
                   check: np.ndarray, tol: float):
    """Panel rules at factors 1, 1.5, 2.25, ... for the box |xi1| <= max_xi1,
    |xi2| <= max_xi2, until two successive rules agree on `check` within tol.

    Returns (finer rule, its values at check, |difference| per point,
    converged); after _REFINE_ROUNDS comparisons the last pair is returned
    with converged False.
    """
    factor = 1.0
    prev = None
    for _ in range(_REFINE_ROUNDS + 1):
        rule = _FrozenGraphEval(body, *_gl_nodes_weights(
            _panel_edges(body, max_xi1, max_xi2, factor)))
        vals = rule(check)
        if prev is not None:
            diff = np.abs(vals - prev)
            if float(np.max(diff, initial=0.0)) <= tol:
                return rule, vals, diff, True
        prev = vals
        factor *= 1.5
    return rule, vals, diff, False


def graph_transform_batch(body: GraphBody, xis) -> tuple[np.ndarray, np.ndarray]:
    """Panel-rule transform for a batch of frequencies, checked on the batch
    itself at 0.1 * QUAD_TOL; returns (values, |difference from the previous
    rule|), the latter above the tolerance when refinement did not converge."""
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    m1 = float(np.max(np.abs(xis[:, 0]), initial=0.0))
    m2 = float(np.max(np.abs(xis[:, 1]), initial=0.0))
    _, vals, err, _ = _refine_panels(body, m1, m2, xis, 0.1 * QUAD_TOL)
    return vals, err


def frozen_batch_evaluator(body: ConvexBody, max_xi1: float, max_xi2: float,
                           target_abs: float = 1e-12):
    """Callable xis -> transform values, valid for |xi1| <= max_xi1, |xi2| <= max_xi2.

    Bodies bounded by flat arcs use the exact closed form.  Curved bodies get
    the panel rule checked on a 9 x 7 probe grid at the box corners and
    interior at 0.3 * target_abs; NoConvergenceError if refinement does not
    get there.
    """
    poly = as_polygon(body)
    if poly is not None:
        return lambda xis: transform_batch(poly, xis)[0]
    g1 = np.linspace(-max_xi1, max_xi1, 9)
    g2 = np.linspace(-max_xi2, max_xi2, 7)
    probe = np.stack(np.meshgrid(g1, g2), axis=-1).reshape(-1, 2)
    rule, _, _, converged = _refine_panels(body, max_xi1, max_xi2, probe, 0.3 * target_abs)
    if not converged:
        raise NoConvergenceError(
            f"panel refinement did not converge to {target_abs:g} on the probe grid")
    return rule


def transform_batch(body: ConvexBody, xis) -> tuple[np.ndarray, np.ndarray]:
    """Primary-route transform for an (N, 2) frequency batch: (values, errors)."""
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    poly = as_polygon(body)
    if poly is None:
        return graph_transform_batch(body, xis)
    values = np.empty(len(xis), dtype=complex)
    errs = np.empty(len(xis))
    small = np.linalg.norm(xis, axis=1) <= SINGULAR_THRESHOLD
    if np.any(~small):
        values[~small], errs[~small] = _edge_sum(poly, xis[~small])
    if np.any(small):
        values[small], errs[small] = _moment_series(poly, xis[small])
    return values, errs


def ft_body(body: ConvexBody, xi) -> FourierSample:
    """Primary-route transform at one frequency: closed form for bodies
    bounded by flat arcs, the panel rule otherwise (converged when
    err <= QUAD_TOL)."""
    xis = np.asarray(xi, dtype=float).reshape(1, 2)
    poly = as_polygon(body)
    vals, errs = transform_batch(body if poly is None else poly, xis)
    if poly is not None:
        return FourierSample(Point2(*xis[0]), complex(vals[0]), "closed_form",
                             float(errs[0]))
    return FourierSample(Point2(*xis[0]), complex(vals[0]), "panel_rule",
                         float(errs[0]), bool(errs[0] <= QUAD_TOL))


# ---------------------------------------------------------------------------
# independent adaptive-quadrature route


def _graph_form(body: ConvexBody):
    """(upper, lower, a, b, breakpoints) with upper/lower vectorized callables."""
    if isinstance(body, GraphBody):
        brk = sorted({*body.f.breakpoints(), *body.g.breakpoints()})
        return body.f, (lambda x: -np.asarray(body.g(x))), body.a, body.b, brk
    up = _chain_indices(body, upper=True)
    lo = _chain_indices(body, upper=False)
    vu, vl = body.vertices[up], body.vertices[lo]
    upper = lambda x: np.interp(x, vu[:, 0], vu[:, 1])
    lower = lambda x: np.interp(x, vl[:, 0], vl[:, 1])
    a = float(vu[0, 0])
    b = float(vu[-1, 0])
    brk = sorted({*vu[1:-1, 0], *vl[1:-1, 0]})
    return upper, lower, a, b, brk


def _strip_transform(upper, lower, xi2):
    """x -> integral of exp(-2 pi i xi2 y) dy over [lower(x), upper(x)], in closed form."""
    def h(x):
        u = np.asarray(upper(x), dtype=float)
        l = np.asarray(lower(x), dtype=float)
        return (u - l) * np.exp((-1j * math.pi) * xi2 * (u + l)) * np.sinc(xi2 * (u - l))
    return h


def _fourier_quad(h, a: float, b: float, brk, xi1: float) -> tuple[complex, float, bool]:
    """integral of h(x) exp(-2 pi i xi1 x) over [a, b]: (value, abserr, converged).

    scipy QAGS on the real and imaginary parts with break points brk; once
    |xi1| * (b-a) exceeds 8, QAWO with the cos/sin weight on each segment
    between break points.  converged is False if any scipy call warned.
    """
    w = _TWO_PI * xi1
    if abs(xi1) * (b - a) > 8.0:
        segs = [a, *(p for p in brk if a < p < b), b]
        re, im = (lambda x: h(x).real), (lambda x: h(x).imag)
        # h exp(-i w x) = (Re h cos + Im h sin) + i (Im h cos - Re h sin)
        parts = [(re, "cos", 1.0), (im, "sin", 1.0), (im, "cos", 1.0j), (re, "sin", -1.0j)]
    else:
        segs = [a, b]
        hw = lambda x: h(x) * np.exp(-1j * w * x)
        parts = [(lambda x: hw(x).real, None, 1.0), (lambda x: hw(x).imag, None, 1.0j)]
    total = 0.0j
    err = 0.0
    converged = True
    for fn, weight, sign in parts:
        rule = {"weight": weight, "wvar": w} if weight else {"points": brk or None}
        val = e = 0.0
        for s0, s1 in zip(segs[:-1], segs[1:]):
            res = integrate.quad(fn, s0, s1, limit=_MAX_SUBDIVISIONS, epsabs=0.1 * QUAD_TOL,
                                 epsrel=1e-12, full_output=1, **rule)
            val += res[0]
            e += res[1]
            converged = converged and len(res) < 4
        total += sign * val
        err += e
    return total, err, converged


def ft_quadrature(body: ConvexBody, xi) -> FourierSample:
    """Adaptive iterated quadrature over the graph form (independent oracle).

    The inner y-integral is exact (_strip_transform); the outer x-integral
    is _fourier_quad.  A subdivision limit without convergence returns the
    best estimate flagged, not a raise.
    """
    xi = np.asarray(xi, dtype=float).reshape(2)
    upper, lower, a, b, brk = _graph_form(body)
    total, err, converged = _fourier_quad(_strip_transform(upper, lower, xi[1]),
                                          a, b, brk, xi[0])
    # scipy's abserr estimates the integration error only; |integrand| <= u - l
    # integrates to the body's area, so that much rounding is irreducible
    err = max(err, 32.0 * _EPS * body.area)
    return FourierSample(Point2(*xi), total, "quadrature", err,
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


def _polygon_first_moments(poly: ConvexPolygon, xi: np.ndarray) -> np.ndarray:
    """M_k = integral of x_k exp(-2 pi i xi.x) dx, k = 1, 2 (edge-sum form)."""
    norm = float(np.hypot(xi[0], xi[1]))
    if norm <= SINGULAR_THRESHOLD:
        xis = xi.reshape(1, 2)
        m1, _ = _moment_series(poly, xis, extra_x=1)
        m2, _ = _moment_series(poly, xis, extra_y=1)
        return np.array([m1[0], m2[0]])
    v = poly.vertices
    d = np.roll(v, -1, axis=0) - v
    mid = 0.5 * (v + np.roll(v, -1, axis=0))
    u = d @ xi
    cr = xi[0] * d[:, 1] - xi[1] * d[:, 0]
    phase = np.exp((-2j * math.pi) * (mid @ xi))
    beta = 1j / (_TWO_PI * norm * norm)
    alpha = 1.0 / (4.0 * math.pi**2 * norm**4)
    snc = np.sinc(u)
    tker = _t_kernel(u)
    out = np.empty(2, dtype=complex)
    for k in range(2):
        contrib = (alpha * xi[k] + beta * mid[:, k]) * snc + beta * d[:, k] * tker
        out[k] = np.sum(cr * phase * contrib)
    return out


def grad_ft(body: ConvexBody, xi) -> tuple[complex, complex]:
    """Gradient of the transform: -2 pi i (integral of x_k exp(-2 pi i xi.x)).

    Bodies bounded by flat arcs use a dedicated edge-sum identity for the
    first-moment integrals; curved bodies integrate the moment closed forms
    with _fourier_quad and raise NoConvergenceError when it does not converge.
    """
    xi = np.asarray(xi, dtype=float).reshape(2)
    poly = as_polygon(body)
    if poly is not None:
        m = _polygon_first_moments(poly, xi)
        g = -2j * math.pi * m
        return complex(g[0]), complex(g[1])

    upper, lower, a, b, brk = _graph_form(body)
    c = _TWO_PI * xi[1]
    ybound = 1.0 + max(abs(float(upper(a))), abs(float(lower(a))),
                       abs(float(upper(0.5 * (a + b)))), abs(float(lower(0.5 * (a + b)))))
    small_c = abs(c) * ybound < 1e-6

    inner0 = _strip_transform(upper, lower, xi[1])

    def inner1(x):
        # integral of y exp(-i c y) dy over [l, u]
        u = np.asarray(upper(x), dtype=float)
        l = np.asarray(lower(x), dtype=float)
        if small_c:
            val = 0.5 * (u**2 - l**2) + (-1j * c) / 3.0 * (u**3 - l**3) \
                + (-1j * c) ** 2 / 8.0 * (u**4 - l**4)
        else:
            anti = lambda y: np.exp(-1j * c * y) * (1j * y / c + 1.0 / (c * c))
            val = anti(u) - anti(l)
        return val

    out = []
    for kern in (lambda x: x * inner0(x), inner1):
        val, _, ok = _fourier_quad(kern, a, b, brk, xi[0])
        if not ok:
            raise NoConvergenceError(
                f"gradient quadrature did not converge at xi = ({xi[0]:g}, {xi[1]:g})")
        out.append(val)
    g = -2j * math.pi * np.array(out)
    return complex(g[0]), complex(g[1])


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
        ik = np.empty((deg + 1, big.sum()), dtype=complex)
        ea = np.exp(-1j * cb * a)
        eb = np.exp(-1j * cb * b)
        ik[0] = (ea - eb) / (1j * cb)
        for k in range(1, deg + 1):
            ik[k] = (a**k * ea - b**k * eb) / (1j * cb) + (k / (1j * cb)) * ik[k - 1]
        acc = np.zeros(big.sum(), dtype=complex)
        for k, ck in enumerate(f.coeffs):
            if ck != 0.0:
                acc += ck * ik[k]
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


@dataclass(frozen=True)
class CapScanResult:
    R: float
    value: float          # |f_hat(R)| at the maximizing R (quadrature-confirmed)
    ratio: float          # value / (delta * f(b - delta)); NaN for a zero cap
    delta: float
    window: tuple[float, float]
    grid_step: float


def cap_lower_bound_scan(f: HeightFn, delta: float,
                         window: tuple[float, float] = (0.1, 10.0)) -> CapScanResult:
    """Scan R in [window[0]/delta, window[1]/delta] for the largest |f_hat(R)|.

    The grid (step delta/20) is evaluated with height_fourier; the winning R
    is then confirmed by adaptive quadrature (_fourier_quad) and the
    quadrature value is reported, NoConvergenceError if it does not converge.
    ratio uses the cap height at distance delta from the right endpoint; an
    identically-zero denominator yields ratio = NaN.
    """
    lo, hi = window
    r_lo, r_hi = lo / delta, hi / delta
    step = delta / 20.0
    n = int(math.floor((r_hi - r_lo) / step)) + 1
    # cap grid memory; the transform is entire with O(1) oscillation scale in R
    if n > 4_000_000:
        step = (r_hi - r_lo) / 4_000_000
        n = 4_000_001
    grid = r_lo + step * np.arange(n)
    mags = np.abs(height_fourier(f, grid))
    k = int(np.argmax(mags))
    r_star = float(grid[k])

    val, _, ok = _fourier_quad(f, f.a, f.b, f.breakpoints(), r_star)
    if not ok:
        raise NoConvergenceError(f"cap quadrature did not converge at R = {r_star:g}")
    value = abs(val)

    denom = delta * float(f(f.b - delta))
    ratio = value / denom if denom > 0.0 else math.nan
    return CapScanResult(r_star, float(value), float(ratio), delta, (lo, hi), step)
