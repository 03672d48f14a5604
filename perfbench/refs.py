"""Reference values computed outside convexspectra, and the checkers that
compare the program's outputs with them.

Nothing here imports the package under test.  References come from closed
forms (parallelogram sinc product, Bessel functions for the disc and the
semicircle cap, polynomial and piecewise-linear cap integrals), from
high-precision mpmath sums and quadratures, and from plain geometry
(shoelace areas, lattice covering radii, exact-cover counts).  Every checker
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import math

import numpy as np


def _mp():
    import mpmath
    return mpmath


# ---------------------------------------------------------------------------
# polygon geometry


def shoelace(verts) -> float:
    v = np.asarray(verts, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def perimeter(verts) -> float:
    v = np.asarray(verts, dtype=float)
    return float(np.sum(np.hypot(*(np.roll(v, -1, axis=0) - v).T)))


def reduce_basis(B: np.ndarray) -> np.ndarray:
    """Lagrange-Gauss reduction of the lattice with basis columns B."""
    b1, b2 = B[:, 0].copy(), B[:, 1].copy()
    if b1 @ b1 > b2 @ b2:
        b1, b2 = b2, b1
    while True:
        mu = round(float(b1 @ b2) / float(b1 @ b1))
        b2 = b2 - mu * b1
        if b2 @ b2 >= b1 @ b1:
            return np.column_stack([b1, b2])
        b1, b2 = b2, b1


def _neighbour_offsets(B: np.ndarray, reach: int = 3) -> np.ndarray:
    k = np.arange(-reach, reach + 1)
    mn = np.stack(np.meshgrid(k, k), axis=-1).reshape(-1, 2)
    return mn @ reduce_basis(B).T


def sup_covering_radius(B: np.ndarray, n: int = 160) -> float:
    """Upper bound on max over the plane of the sup-norm distance to the lattice.

    The sampled maximum over an n x n grid of the fundamental cell is raised
    by the sup-norm distance that the grid spacing can hide.
    """
    t = (np.arange(n) + 0.5) / n
    tt = np.stack(np.meshgrid(t, t), axis=-1).reshape(-1, 2)
    pts = tt @ B.T
    offs = _neighbour_offsets(B)
    best = np.full(len(pts), np.inf)
    for o in offs:
        best = np.minimum(best, np.max(np.abs(pts - o), axis=1))
    hide = 0.5 * float(np.max(np.abs(B[:, 0]) + np.abs(B[:, 1]))) / n
    return float(np.max(best)) + hide


def cover_counts(verts, B: np.ndarray, pts: np.ndarray, margin: float = 1e-7):
    """(counts, clear): how many lattice translates of the convex polygon
    contain each point, and which points lie clear of every translate edge."""
    v = np.asarray(verts, dtype=float)
    d = np.roll(v, -1, axis=0) - v
    ln = np.hypot(d[:, 0], d[:, 1])
    counts = np.zeros(len(pts), dtype=int)
    clear = np.ones(len(pts), dtype=bool)
    for o in _neighbour_offsets(B):
        rel = pts - o
        rx = rel[:, None, 0] - v[None, :, 0]
        ry = rel[:, None, 1] - v[None, :, 1]
        dist = np.min((d[None, :, 0] * ry - d[None, :, 1] * rx) / ln[None, :], axis=1)
        counts += dist > margin
        clear &= np.abs(dist) > margin
    return counts, clear


# ---------------------------------------------------------------------------
# transforms, T(xi) = integral over the body of exp(-2 pi i xi . x)


def parallelogram_ft(a, b, xi) -> complex:
    """Body with vertices a, b, -a, -b is {s u + t v : |s|, |t| <= 1} with
    u = (a + b)/2, v = (a - b)/2, so T = area sinc(2 xi.u) sinc(2 xi.v)."""
    mp = _mp()
    with mp.workdps(40):
        a = [mp.mpf(float(c)) for c in a]
        b = [mp.mpf(float(c)) for c in b]
        x = [mp.mpf(float(c)) for c in xi]
        u = [(a[i] + b[i]) / 2 for i in range(2)]
        v = [(a[i] - b[i]) / 2 for i in range(2)]
        area = 4 * abs(u[0] * v[1] - u[1] * v[0])
        return area * mp.sincpi(2 * (x[0] * u[0] + x[1] * u[1])) \
            * mp.sincpi(2 * (x[0] * v[0] + x[1] * v[1]))


def edge_sum_ft(verts, xi, dps: int = 50):
    """Polygon transform as a Green's-theorem edge sum in dps-digit arithmetic."""
    mp = _mp()
    with mp.workdps(dps):
        x1, x2 = mp.mpf(float(xi[0])), mp.mpf(float(xi[1]))
        V = [(mp.mpf(float(p[0])), mp.mpf(float(p[1]))) for p in verts]
        tot = mp.mpc(0)
        for k in range(len(V)):
            p, q = V[k], V[(k + 1) % len(V)]
            dx, dy = q[0] - p[0], q[1] - p[1]
            phase = mp.expjpi(-(x1 * (p[0] + q[0]) + x2 * (p[1] + q[1])))
            tot += (x1 * dy - x2 * dx) * phase * mp.sincpi(x1 * dx + x2 * dy)
        return 1j * tot / (2 * mp.pi * (x1 * x1 + x2 * x2))


def disc_ft(r: float, xi):
    """Disc of radius r: T = r J1(2 pi r |xi|) / |xi|."""
    mp = _mp()
    with mp.workdps(30):
        rho = mp.hypot(float(xi[0]), float(xi[1]))
        return mp.mpf(r) * mp.besselj(1, 2 * mp.pi * r * rho) / rho


def disc_grad(r: float, xi):
    """grad T = -2 pi r^2 J2(2 pi r |xi|) / |xi| * xi / |xi|."""
    mp = _mp()
    with mp.workdps(30):
        rho = mp.hypot(float(xi[0]), float(xi[1]))
        dT = -2 * mp.pi * r * r * mp.besselj(2, 2 * mp.pi * r * rho) / rho
        return dT * float(xi[0]) / rho, dT * float(xi[1]) / rho


def disc_zero_radii(lo: float, hi: float) -> list[float]:
    """|xi| of the zeros of the radius-1/2 disc's transform in (lo, hi):
    j_{1,k} / pi, the Bessel zeros of J1(pi |xi|)."""
    mp = _mp()
    out = []
    k = 1
    while True:
        rho = float(mp.besseljzero(1, k)) / math.pi
        if rho >= hi:
            return out
        if rho > lo:
            out.append(rho)
        k += 1


def _panels(a: float, b: float, brk, freq: float) -> list[float]:
    """Quadrature breakpoints: the given kinks plus one point per two periods."""
    n = int(math.ceil(0.5 * abs(freq) * (b - a))) + 2
    return sorted({*np.linspace(a, b, n + 1).tolist(), *brk})


def graph_ft(f, g, a: float, b: float, xi, brk=(), grad: bool = False, dps: int = 20):
    """Transform (or its gradient) of {a <= x <= b, -g(x) <= y <= f(x)}.

    f and g are mpmath callables.  The inner y-integral is written out in
    closed form and the outer x-integral is done by mpmath's adaptive
    Gauss-Legendre quadrature on panels no wider than two periods.
    """
    mp = _mp()
    with mp.workdps(dps):
        x1, x2 = mp.mpf(float(xi[0])), mp.mpf(float(xi[1]))
        c = 2 * mp.pi * x2

        def inner0(x):
            hi, lo = f(x), -g(x)
            return (hi - lo) * mp.expjpi(-x2 * (hi + lo)) * mp.sincpi(x2 * (hi - lo))

        def inner1(x):  # integral of y exp(-i c y) over [lo, hi]
            hi, lo = f(x), -g(x)
            anti = lambda y: mp.expj(-c * y) * (1j * y / c + 1 / (c * c))
            return anti(hi) - anti(lo)

        pts = _panels(a, b, brk, float(abs(x1)) + float(abs(x2)))
        outer = lambda fn: mp.quad(lambda x: fn(x) * mp.expjpi(-2 * x1 * x), pts,
                                   method="gauss-legendre")
        if not grad:
            return outer(inner0)
        return (-2j * mp.pi * outer(lambda x: x * inner0(x)),
                -2j * mp.pi * outer(inner1))


def cap_ft(kind: str, R: float, knots=None, values=None):
    """|f_hat(R)| for a cap height on [-1/2, 1/2], in closed form.

    tent (height 1/2 at 0): 1/4 sinc^2(R/2); parabola 1/4 - x^2:
    4 (sin(w/2) - (w/2) cos(w/2)) / w^3 with w = 2 pi R; semicircle r = 1/2:
    r J1(2 pi r R) / (2R); piecewise linear: exact sum of the linear pieces.
    """
    mp = _mp()
    with mp.workdps(30):
        R = mp.mpf(float(R))
        w = 2 * mp.pi * R
        if kind == "tent":
            return abs(mp.sincpi(R / 2) ** 2 / 4)
        if kind == "parabola":
            h = w / 2
            return abs(4 * (mp.sin(h) - h * mp.cos(h)) / w**3)
        if kind == "semicircle":
            r = mp.mpf(0.5)
            return abs(r * mp.besselj(1, 2 * mp.pi * r * R) / (2 * R))
        if kind == "pw":
            tot = mp.mpc(0)
            for x0, x1, y0, y1 in zip(knots[:-1], knots[1:], values[:-1], values[1:]):
                x0, x1, y0, y1 = (mp.mpf(float(t)) for t in (x0, x1, y0, y1))
                beta = (y1 - y0) / (x1 - x0)
                alpha = y0 - beta * x0
                anti = lambda x: mp.expj(-w * x) * (1j * (alpha + beta * x) / w + beta / w**2)
                tot += anti(x1) - anti(x0)
            return abs(tot)
        raise ValueError(f"unknown cap kind {kind!r}")


def upper_cap(verts) -> tuple[list[float], list[float]]:
    """Knots and heights above y = 1/2 of a standard-position polygon's upper
    boundary: the vertices strictly inside the slab with y > 0, plus the walls."""
    v = np.asarray(verts, dtype=float)
    edges = [(p, q) for p, q in zip(v, np.roll(v, -1, axis=0)) if abs(q[0] - p[0]) > 1e-12]

    def top(x):
        return max(p[1] + (q[1] - p[1]) * (x - p[0]) / (q[0] - p[0]) for p, q in edges
                   if min(p[0], q[0]) - 1e-12 <= x <= max(p[0], q[0]) + 1e-12)

    kx = sorted({-0.5, 0.5, *[float(p[0]) for p in v if -0.5 < p[0] < 0.5 and p[1] > 0]})
    return kx, [max(top(x) - 0.5, 0.0) for x in kx]


# ---------------------------------------------------------------------------
# checkers


def check_close(value, ref, tol: float, what: str) -> str | None:
    """|value - ref| <= tol, with the difference taken in high precision."""
    mp = _mp()
    with mp.workdps(40):
        v = mp.mpc(complex(value).real, complex(value).imag)
        diff = float(abs(v - ref))
    if not diff <= tol:
        return f"{what}: |value - reference| = {diff:.3g} > {tol:.3g}"
    return None


def check_bessel_zeros(radii, lo: float, hi: float, tol: float = 1e-8,
                       complete: bool = True) -> str | None:
    """Each |xi| sits on a disc zero j_{1,k}/pi; with complete=True every such
    zero in (lo, hi) is found exactly once."""
    want = disc_zero_radii(lo, hi)
    if not want:
        return f"no reference zeros in ({lo}, {hi})"
    hit = []
    for rho in radii:
        k = int(np.argmin([abs(rho - w) for w in want]))
        if abs(rho - want[k]) > tol:
            return f"zero at |xi| = {rho:.12g} is not a Bessel zero"
        hit.append(k)
    if complete and sorted(hit) != list(range(len(want))):
        return f"found {len(hit)} zeros, the ray holds {len(want)}"
    return None


def check_exit(code, exc, want: int, what: str) -> str | None:
    if exc is not None:
        return f"{what}: exception escaped main ({exc})"
    if code != want:
        return f"{what}: exit code {code}, expected {want}"
    return None


def check_classify(stdout: str, rows, spectral: bool, reason: str) -> str | None:
    label = "spectral" if spectral else "not_spectral"
    if stdout.split() != [label, reason]:
        return f"classify printed {stdout.strip()!r}, expected '{label} {reason}'"
    if rows[0]["verdict"] != label or rows[0]["tiles"] != ("true" if spectral else "false"):
        return f"classify csv {rows[0]} disagrees with {label}"
    return None


def check_certificate(verts, rows, printed_margin: float) -> str | None:
    """Triangle areas and margin recomputed by shoelace from the vertex list."""
    v = np.asarray(verts, dtype=float)
    area = shoelace(v)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(v))) ** 2)
    areas = []
    for r in rows:
        idx = [int(r["i"]), int(r["j"]), int(r["k"])]
        a = abs(shoelace(v[idx]))
        if abs(a - float(r["area"])) > tol:
            return f"triangle {idx}: stated area {r['area']}, shoelace {a!r}"
        areas.append(a)
    if not areas:
        return "certificate lists no triangles"
    margin = area / 2.0 - min(areas)
    if margin <= 0.0:
        return f"recomputed margin {margin:.6g} is not positive"
    if abs(margin - printed_margin) > 1e-5 * max(1.0, margin):
        return f"printed margin {printed_margin:.6g} != shoelace margin {margin:.6g}"
    return None


def check_density(lo: float, hi: float, target: float, R: float) -> str | None:
    """Landau counts inside target (1 +- 3/R)."""
    a, b = target * (1.0 - 3.0 / R), target * (1.0 + 3.0 / R)
    if not (a <= lo <= hi <= b):
        return f"density [{lo:.6g}, {hi:.6g}] outside [{a:.6g}, {b:.6g}]"
    return None


def check_zero(value_abs: float, area: float, what: str, rel: float = 1e-9) -> str | None:
    """A claimed transform zero: |T| <= rel * area."""
    value_abs = float(value_abs)
    if not value_abs <= rel * area:
        return f"{what}: |T| = {value_abs:.3g} > {rel:g} * area"
    return None
