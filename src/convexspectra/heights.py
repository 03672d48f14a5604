"""Concave height-function descriptors for graph-form bodies.

A body in graph form is { (x, y) : a <= x <= b, -g(x) <= y <= f(x) } with f, g
concave and non-negative.  The descriptors here are closed-form so downstream
code (quadrature, 1D Fourier transforms, cap scans) can evaluate them exactly
and stably, including within 1e-13 of the domain endpoints.

Flatness is a property of the representation: every piecewise-linear height
(a tent, a power with p = 1 or scale 0, a polynomial of degree <= 1) is built
as a "pw" height, so a height is flat exactly when it has a polyline().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import BodyFileError

KINDS = ("poly", "semicircle", "pw", "power")


@dataclass(frozen=True)
class HeightFn:
    """One concave boundary function on a fixed interval [a, b].

    kind "poly":       sum_i coeffs[i] * x**i
    kind "semicircle": sqrt((r - x) * (r + x)) on [-r, r]
    kind "pw":         piecewise linear through (knots[i], values[i])
    kind "power":      scale * min(x - a, b - x) ** p   (0 < p <= 1)
    """

    kind: str
    a: float
    b: float
    coeffs: tuple = ()
    knots: tuple = ()
    values: tuple = ()
    r: float = 0.0
    p: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise BodyFileError(f"unknown height kind {self.kind!r}")
        for name in ("coeffs", "knots", "values", "r", "p", "scale"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=float))):
                raise BodyFileError(f"{self.kind} height: {name} must be finite")
        if self.kind == "power" and not 0.0 < self.p <= 1.0:
            raise BodyFileError(f"power height: p must be in (0, 1], got {self.p}")
        if self.kind == "power" and self.scale < 0.0:
            raise BodyFileError(f"power height: scale must be >= 0, got {self.scale}")
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise BodyFileError(f"bad height domain [{self.a}, {self.b}]")
        if self.kind == "pw":
            k = np.asarray(self.knots, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if k.ndim != 1 or k.shape != v.shape or len(k) < 2:
                raise BodyFileError("pw height needs matching knots/values, length >= 2")
            if np.any(np.diff(k) <= 0):
                raise BodyFileError("pw knots must be strictly increasing")
            if abs(k[0] - self.a) > 1e-12 or abs(k[-1] - self.b) > 1e-12:
                raise BodyFileError("pw knots must span exactly [a, b]")
        if self.kind == "semicircle":
            if self.r <= 0:
                raise BodyFileError("semicircle needs r > 0")
            if abs(self.a + self.r) > 1e-12 or abs(self.b - self.r) > 1e-12:
                raise BodyFileError("semicircle domain must be [-r, r]")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if self.kind == "poly":
            y = np.zeros_like(x)
            for c in reversed(self.coeffs):
                y = y * x + c
        elif self.kind == "semicircle":
            # factored form keeps full precision within eps of the endpoints
            y = np.sqrt(np.maximum((self.r - x) * (self.r + x), 0.0))
        elif self.kind == "pw":
            y = np.interp(x, self.knots, self.values)
        else:  # power
            base = np.maximum(np.minimum(x - self.a, self.b - x), 0.0)
            y = self.scale * base**self.p
        return float(y[0]) if scalar else y

    def derivative(self, x):
        """f'(x) where defined; kink points get the right-hand slope."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if self.kind == "poly":
            d = np.zeros_like(x)
            for i, c in reversed(list(enumerate(self.coeffs))):
                if i >= 1:
                    d = d * x + i * c
        elif self.kind == "semicircle":
            under = np.maximum((self.r - x) * (self.r + x), 1e-300)
            d = -x / np.sqrt(under)
        elif self.kind == "pw":
            k = np.asarray(self.knots)
            v = np.asarray(self.values)
            slopes = np.diff(v) / np.diff(k)
            idx = np.clip(np.searchsorted(k, x, side="right") - 1, 0, len(slopes) - 1)
            d = slopes[idx]
        else:  # power
            mid = 0.5 * (self.a + self.b)
            base = np.maximum(np.minimum(x - self.a, self.b - x), 1e-300)
            d = self.scale * self.p * base ** (self.p - 1.0) * np.where(x < mid, 1.0, -1.0)
        return float(d[0]) if scalar else d

    # -- structure ----------------------------------------------------------

    def breakpoints(self):
        """Interior x where the function is not analytic (panel/quad split points)."""
        if self.kind == "pw":
            return [float(k) for k in self.knots[1:-1]]
        if self.kind == "power":
            return [0.5 * (self.a + self.b)]
        return []

    @property
    def endpoint_singular(self) -> bool:
        """True when f' is unbounded at the domain endpoints (needs graded panels)."""
        return self.kind == "semicircle" or (self.kind == "power" and self.p < 1.0)

    def ellipse_bounds(self, mid, reach):
        """(max |h|, max |h'|) on ellipses about real `mid` reaching `reach`
        along the real axis, h continued from mid's piece (a power from its
        half); inf where one reaches a singular point s, which lies |s - mid|
        - reach away at the vertex.  Every point is within reach of mid."""
        mid, reach = np.broadcast_arrays(np.asarray(mid, float), np.asarray(reach, float))
        if self.kind == "poly":
            # |z| <= |mid| + reach, and |sum c_i z^i| <= sum |c_i| |z|^i
            c, z = np.abs(self.coeffs), np.abs(mid) + reach
            return npoly.polyval(z, c), npoly.polyval(z, np.arange(1, len(c)) * c[1:])
        if self.kind == "pw":
            slope = np.abs(self.derivative(mid))
            return np.abs(self(mid)) + slope * reach, slope
        if self.kind == "semicircle":
            near, far = self.r - np.abs(mid), self.r + np.abs(mid)
            gap = near - reach
            val = np.sqrt((near + reach) * (far + reach))
            with np.errstate(divide="ignore", invalid="ignore"):
                der = (np.abs(mid) + reach) / np.sqrt(gap * (far - reach))
        else:  # power: scale * |z - s|^p about the nearer end s
            d = np.minimum(mid - self.a, self.b - mid)
            gap = d - reach
            val = self.scale * (d + reach) ** self.p
            with np.errstate(divide="ignore", invalid="ignore"):
                der = self.scale * self.p * gap ** (self.p - 1.0)
        return np.where(gap > 0.0, val, np.inf), np.where(gap > 0.0, der, np.inf)

    def polyline(self):
        """(knots, values) of a piecewise-linear height, None for a curved one."""
        return (self.knots, self.values) if self.kind == "pw" else None

    def max_value(self) -> float:
        if self.kind == "semicircle":
            return self.r
        if self.kind == "pw":
            return float(max(self.values))
        if self.kind == "power":
            return self.scale * (0.5 * (self.b - self.a)) ** self.p
        xs = np.linspace(self.a, self.b, 512)
        return float(np.max(self(xs)))


def polynomial(coeffs, a: float = -0.5, b: float = 0.5) -> HeightFn:
    """sum_i coeffs[i] * x**i; degree <= 1 gives the "pw" chord through the ends."""
    f = HeightFn("poly", a, b, coeffs=tuple(float(c) for c in coeffs))
    if any(f.coeffs[2:]):
        return f
    return piecewise((f.a, f.b), (f(f.a), f(f.b)))


def tent(a: float = -0.5, b: float = 0.5) -> HeightFn:
    """min(x - a, b - x), as a "pw" height."""
    return power(1.0, 1.0, a, b)


def semicircle(r: float) -> HeightFn:
    return HeightFn("semicircle", -r, r, r=float(r))


def piecewise(knots, values) -> HeightFn:
    knots = tuple(float(k) for k in knots)
    values = tuple(float(v) for v in values)
    if not knots:
        raise BodyFileError("pw height needs matching knots/values, length >= 2")
    return HeightFn("pw", knots[0], knots[-1], knots=knots, values=values)


def power(p: float, scale: float = 1.0, a: float = -0.5, b: float = 0.5) -> HeightFn:
    """scale * min(x - a, b - x) ** p; with p = 1 or scale = 0 the "pw" tent."""
    f = HeightFn("power", a, b, p=float(p), scale=float(scale))
    if f.p < 1.0 and f.scale > 0.0:
        return f
    mid = 0.5 * (f.a + f.b)
    return piecewise((f.a, mid, f.b), (0.0, f.scale * (mid - f.a), 0.0))


def zero(a: float = -0.5, b: float = 0.5) -> HeightFn:
    """The identically-zero height (empty cap), as a "pw" height."""
    return polynomial((), a, b)


def from_descriptor(d: dict, a: float, b: float, path: str = "f") -> HeightFn:
    """Build a HeightFn from a body-file descriptor dict; errors carry `path`."""
    if not isinstance(d, dict) or "kind" not in d:
        raise BodyFileError(f"{path}: descriptor must be an object with a 'kind' field")
    kind = d["kind"]
    try:
        if kind == "poly":
            return polynomial(d["coeffs"], a, b)
        if kind == "tent":
            return tent(a, b)
        if kind == "semicircle":
            return semicircle(d["r"])
        if kind == "pw":
            return piecewise(d["knots"], d["values"])
        if kind == "power":
            return power(d["p"], d.get("scale", 1.0), a, b)
    except (BodyFileError, KeyError, TypeError, ValueError) as exc:
        raise BodyFileError(f"{path}: {exc}") from exc
    raise BodyFileError(f"{path}.kind: unknown height kind {kind!r}")
