"""Convex planar bodies: polygons, graph-form bodies, lattices, affine maps.

Conventions (fixed package-wide):
  * polygon vertices are stored counterclockwise, no repeated closing vertex;
  * "symmetric" always means centrally symmetric (x in Omega iff 2c - x in Omega);
  * the unit square Q is [-1/2, 1/2]^2;
  * standard position: the body contains Q and lies in the slab |x| <= 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np
from scipy import integrate

from . import heights
from .errors import (
    DegenerateError,
    EdgeThroughOriginError,
    NoConvergenceError,
    NotConvexError,
    NotStandardPositionError,
    NotSymmetricError,
)
from .heights import HeightFn


class Point2(NamedTuple):
    x: float
    y: float


def cross2(u, v) -> float:
    """Scalar cross product u_x v_y - u_y v_x."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])


def shoelace_area(vertices: np.ndarray) -> float:
    """Signed area of a closed vertex chain (positive for counterclockwise)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# ---------------------------------------------------------------------------
# polygon type and validation


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Validated convex polygon; construct through validate_polygon()."""

    vertices: np.ndarray  # (m, 2), counterclockwise
    area: float

    @property
    def m(self) -> int:
        return len(self.vertices)

    def edge_vectors(self) -> np.ndarray:
        v = self.vertices
        return np.roll(v, -1, axis=0) - v

    def edge_midpoints(self) -> np.ndarray:
        v = self.vertices
        return 0.5 * (v + np.roll(v, -1, axis=0))

    def edge_normals(self) -> np.ndarray:
        """Outward unit normals, one per edge."""
        d = self.edge_vectors()
        n = np.stack([d[:, 1], -d[:, 0]], axis=1)
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    def perimeter(self) -> float:
        return float(np.sum(np.linalg.norm(self.edge_vectors(), axis=1)))

    def scale(self) -> float:
        return float(np.max(np.abs(self.vertices))) or 1.0


def validate_polygon(vertices) -> ConvexPolygon:
    """Check convexity and return the polygon oriented counterclockwise.

    Raises DegenerateError for collinear/duplicate consecutive vertices or
    zero area, NotConvexError for a right turn or a self-winding chain.
    Reversing the input yields the identical vertex array (orientation is
    normalized, the starting vertex is preserved).
    """
    v = np.array(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise DegenerateError("vertices must be an (m, 2) array")
    if len(v) < 3:
        raise DegenerateError("polygon needs at least 3 vertices")
    if not np.all(np.isfinite(v)):
        raise DegenerateError("vertices must be finite")

    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        raise DegenerateError("all vertices at the origin")
    len_tol = 1e-12 * scale
    cross_tol = 1e-12 * scale * scale

    signed = shoelace_area(v)
    if abs(signed) <= cross_tol:
        raise DegenerateError("zero area")
    if signed < 0.0:
        v = v[::-1].copy()
        signed = -signed

    d = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(d, axis=1)
    if np.any(lengths <= len_tol):
        raise DegenerateError("duplicate consecutive vertices")

    d_next = np.roll(d, -1, axis=0)
    turns = d[:, 0] * d_next[:, 1] - d[:, 1] * d_next[:, 0]
    if np.any(turns < -cross_tol):
        raise NotConvexError("right turn in counterclockwise chain")
    if np.any(np.abs(turns) <= cross_tol):
        raise DegenerateError("collinear consecutive vertices")

    # all-left-turn chains can still wind more than once; total turning must be 2*pi
    dots = np.sum(d * d_next, axis=1)
    turning = float(np.sum(np.arctan2(turns, dots)))
    if abs(turning - 2.0 * math.pi) > 1e-6:
        raise NotConvexError("vertex chain winds more than once")

    v.setflags(write=False)
    return ConvexPolygon(vertices=v, area=signed)


def unit_square() -> ConvexPolygon:
    return validate_polygon([(0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5)])


def regular_polygon(m: int, circumradius: float = 1.0, phase: float = 0.0) -> ConvexPolygon:
    ang = phase + 2.0 * np.pi * np.arange(m) / m
    return validate_polygon(np.stack([circumradius * np.cos(ang), circumradius * np.sin(ang)], axis=1))


# ---------------------------------------------------------------------------
# graph-form bodies


@dataclass(frozen=True, eq=False)
class GraphBody:
    """{ (x, y) : a <= x <= b, -g(x) <= y <= f(x) } with f, g concave, >= 0."""

    a: float
    b: float
    f: HeightFn
    g: HeightFn

    def __post_init__(self):
        if not (self.a < self.b):
            raise DegenerateError("graph body needs a < b")
        for name, h in (("f", self.f), ("g", self.g)):
            if abs(h.a - self.a) > 1e-12 or abs(h.b - self.b) > 1e-12:
                raise DegenerateError(f"{name} domain does not match [a, b]")
        fmax, gmax = self.f.max_value(), self.g.max_value()
        tol = 1e-9 * max(fmax, gmax, self.b - self.a)
        # validate_polygon's turn tolerance, at the scale of the knot polygon
        cross_tol = 1e-12 * max(abs(self.a), abs(self.b), fmax, gmax) ** 2
        for name, h in (("f", self.f), ("g", self.g)):
            line = h.polyline()
            if line is None:
                # curved: concavity at sample triples, midpoint above chord
                ys = h(np.linspace(self.a, self.b, 257))
                bent = np.max(ys[:-2] + ys[2:] - 2.0 * ys[1:-1]) > tol
            else:
                # flat arcs: exactly, no left turn at any knot
                xs, ys = np.asarray(line, dtype=float)
                dx, dy = np.diff(xs), np.diff(ys)
                bent = np.any(dx[:-1] * dy[1:] - dy[:-1] * dx[1:] > cross_tol)
            if np.min(ys) < -tol:
                raise DegenerateError(f"{name} is negative on [a, b]")
            if bent:
                raise NotConvexError(f"{name} is not concave")

    @cached_property
    def area(self) -> float:
        return _quad_height(lambda x: self.f(x) + self.g(x), self.a, self.b,
                            self.f.breakpoints() + self.g.breakpoints())

    def scale(self) -> float:
        return max(abs(self.a), abs(self.b), self.f.max_value(), self.g.max_value()) or 1.0


ConvexBody = Union[ConvexPolygon, GraphBody]


def _quad_height(fn, a, b, breakpoints, epsabs=1e-13) -> float:
    """integral of fn over [a, b]; NoConvergenceError when scipy reports a
    problem instead of the value."""
    pts = sorted(p for p in breakpoints if a < p < b)
    res = integrate.quad(fn, a, b, points=pts or None, limit=200,
                         epsabs=epsabs, epsrel=1e-13, full_output=1)
    if len(res) > 3:
        raise NoConvergenceError(f"quadrature on [{a:g}, {b:g}] did not converge "
                                 f"(scipy: {res[3].splitlines()[0]})")
    return float(res[0])


def disc(radius: float = 0.5) -> GraphBody:
    h = heights.semicircle(radius)
    return GraphBody(-radius, radius, h, h)


def as_polygon(body: ConvexBody) -> ConvexPolygon | None:
    """The body as a polygon, or None when part of its boundary is curved.

    A graph body bounded by flat arcs becomes the polygon through the knots
    of f and g, counterclockwise from the left end of the lower chain.
    Corners repeated at a zero-height wall and knots the boundary passes
    straight through (at validate_polygon's tolerances) are dropped.
    """
    if isinstance(body, ConvexPolygon):
        return body
    upper, lower = body.f.polyline(), body.g.polyline()
    if upper is None or lower is None:
        return None
    chain = [(x, -y) for x, y in zip(*lower)] + list(zip(*upper))[::-1]
    v = np.array(chain, dtype=float)
    scale = float(np.max(np.abs(v)))
    v = v[np.r_[True, np.linalg.norm(np.diff(v, axis=0), axis=1) > 1e-12 * scale]]
    if np.linalg.norm(v[-1] - v[0]) <= 1e-12 * scale:
        v = v[:-1]
    d_in = v - np.roll(v, 1, axis=0)
    d_out = np.roll(d_in, -1, axis=0)
    turns = d_in[:, 0] * d_out[:, 1] - d_in[:, 1] * d_out[:, 0]
    return validate_polygon(v[np.abs(turns) > 1e-12 * scale * scale])


# ---------------------------------------------------------------------------
# measures


class Measures(NamedTuple):
    area: float
    perimeter: float


def centroid(poly: ConvexPolygon) -> Point2:
    """Area centroid of a polygon, from its vertices."""
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    cr = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
    cx = float(np.sum((v[:, 0] + w[:, 0]) * cr)) / (6.0 * poly.area)
    cy = float(np.sum((v[:, 1] + w[:, 1]) * cr)) / (6.0 * poly.area)
    return Point2(cx, cy)


def measures(body: ConvexBody) -> Measures:
    """Area and perimeter (the curved arcs' length by adaptive quadrature)."""
    if isinstance(body, ConvexPolygon):
        return Measures(body.area, body.perimeter())

    per = 0.0
    for h in (body.f, body.g):
        per += _quad_height(lambda x, h=h: math.hypot(1.0, float(h.derivative(x))),
                            body.a, body.b, h.breakpoints(), epsabs=1e-10)
    for xe in (body.a, body.b):
        per += float(body.f(xe)) + float(body.g(xe))
    return Measures(body.area, per)


# ---------------------------------------------------------------------------
# symmetry


def is_symmetric(body: ConvexBody) -> tuple[bool, Point2]:
    """Central symmetry about the only possible center; returns (flag, center).

    A polygon is compared vertex by vertex with its reflection about the
    centroid: the point reflection of a counterclockwise convex 2n-gon maps
    vertex i to vertex i + n, so no matching search is needed.  A
    symmetric graph body has its center above the domain midpoint m, at
    ((a + b) / 2, (f(m) - g(m)) / 2); the reflected upper boundary is
    compared with the lower one by vertical deviation (which dominates the
    Hausdorff distance between the two boundary curves).  The tolerance is
    1e-9 times the bounding-box extent, which never exceeds the largest
    distance between two points of the body.
    """
    if isinstance(body, ConvexPolygon):
        c = centroid(body)
        tol = 1e-9 * float(np.max(np.ptp(body.vertices, axis=0)))
        v = body.vertices
        m = len(v)
        if m % 2 != 0:
            return False, c
        w = 2.0 * np.array(c) - v  # reflection, same cyclic orientation
        dev = float(np.max(np.linalg.norm(w - np.roll(v, -(m // 2), axis=0), axis=1)))
        return dev <= tol, c

    mid = 0.5 * (body.a + body.b)
    c = Point2(mid, 0.5 * (float(body.f(mid)) - float(body.g(mid))))
    tol = 1e-9 * max(body.b - body.a, body.f.max_value() + body.g.max_value())
    # the reversed grid is the reflected one, ends included exactly: a wall
    # with unbounded slope would magnify the rounding of 2 m - x
    xs = np.linspace(body.a, body.b, 257)
    dev = np.max(np.abs(body.f(xs) - (2.0 * c.y + body.g(xs[::-1]))))
    return float(dev) <= tol, c


def require_origin_symmetric(body: ConvexBody) -> None:
    """NotSymmetricError unless the body is centrally symmetric about the
    origin, with the center within 1e-9 * body.scale() of it."""
    ok, c = is_symmetric(body)
    if not ok or math.hypot(*c) > 1e-9 * body.scale():
        raise NotSymmetricError("body must be centrally symmetric about the origin")


# ---------------------------------------------------------------------------
# affine maps and edge normalization


@dataclass(frozen=True)
class AffineMap:
    """x -> linear @ x + shift."""

    linear: np.ndarray  # (2, 2)
    shift: np.ndarray  # (2,)

    def apply(self, points):
        p = np.asarray(points, dtype=float)
        return p @ self.linear.T + self.shift

    def apply_polygon(self, poly: ConvexPolygon) -> ConvexPolygon:
        return validate_polygon(self.apply(poly.vertices))


def normalize_edge_to_standard(poly: ConvexPolygon, edge_index: int) -> tuple[ConvexPolygon, AffineMap]:
    """Linear map sending edge `edge_index` onto the segment (1/2,-1/2)..(1/2,1/2).

    Requires a polygon symmetric about the origin; the opposite edge lands on
    the negated segment and the image contains the unit square.
    """
    require_origin_symmetric(poly)
    m = poly.m
    p = poly.vertices[edge_index % m]
    r = poly.vertices[(edge_index + 1) % m]
    if abs(cross2(p, r)) <= 1e-12 * poly.scale() ** 2:
        raise EdgeThroughOriginError("edge lies on a line through the origin")
    src = np.column_stack([p, r])
    dst = np.column_stack([(0.5, -0.5), (0.5, 0.5)])
    lin = dst @ np.linalg.inv(src)
    amap = AffineMap(lin, np.zeros(2))
    return amap.apply_polygon(poly), amap


# ---------------------------------------------------------------------------
# containment and chains


def inside_margin(poly: ConvexPolygon, points) -> np.ndarray:
    """Min over edges of the signed distance to the edge line (positive inside).

    For interior points this is the exact distance to the boundary; for
    exterior points it is <= -(distance to the most violated supporting line),
    which is the conservative direction for margin tests.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = poly.vertices
    d = poly.edge_vectors()
    ln = np.linalg.norm(d, axis=1)
    rel_x = pts[:, None, 0] - v[None, :, 0]
    rel_y = pts[:, None, 1] - v[None, :, 1]
    cr = d[None, :, 0] * rel_y - d[None, :, 1] * rel_x
    return np.min(cr / ln[None, :], axis=1)


def point_in_polygon(poly: ConvexPolygon, point, tol: float = 0.0) -> bool:
    return bool(inside_margin(poly, point)[0] >= -tol)


def _chain_indices(poly: ConvexPolygon, upper: bool) -> list[int]:
    """Vertex indices of the upper (or lower) boundary chain, left to right.

    The chain excludes vertical end edges; ties at the extreme x pick the
    vertex adjacent to the chain (max y for upper, min y for lower).
    """
    v = poly.vertices
    m = len(v)
    tol = 1e-12 * poly.scale()
    xmin, xmax = float(np.min(v[:, 0])), float(np.max(v[:, 0]))

    def pick(xval, want_top):
        idx = [i for i in range(m) if abs(v[i, 0] - xval) <= tol]
        key = (lambda i: v[i, 1]) if want_top else (lambda i: -v[i, 1])
        return max(idx, key=key)

    if upper:
        start = pick(xmax, True)   # top of right side, walk ccw to the left
        stop = pick(xmin, True)
    else:
        start = pick(xmin, False)  # bottom of left side, walk ccw to the right
        stop = pick(xmax, False)
    chain = [start]
    i = start
    while i != stop:
        i = (i + 1) % m
        chain.append(i)
        if len(chain) > m:
            raise DegenerateError("boundary chain did not close")
    if upper:
        chain.reverse()  # left-to-right
    return chain


def graph_heights(body: ConvexBody) -> tuple[HeightFn, HeightFn]:
    """(f, g) with body = { -g(x) <= y <= f(x) }: a graph body's own heights,
    a polygon's upper chain and negated lower chain as "pw" heights.  The
    converse of as_polygon."""
    if isinstance(body, GraphBody):
        return body.f, body.g
    up = body.vertices[_chain_indices(body, upper=True)]
    lo = body.vertices[_chain_indices(body, upper=False)]
    return heights.piecewise(up[:, 0], up[:, 1]), heights.piecewise(lo[:, 0], -lo[:, 1])


def require_slab_span(body: ConvexBody) -> tuple[HeightFn, HeightFn]:
    """The body's graph heights; NotStandardPositionError unless their
    domain is [-1/2, 1/2] to within 1e-9."""
    f, g = graph_heights(body)
    if any(abs(h.a + 0.5) > 1e-9 or abs(h.b - 0.5) > 1e-9 for h in (f, g)):
        raise NotStandardPositionError("body must span exactly the slab |x| <= 1/2")
    return f, g


def require_standard_position(body: ConvexBody) -> tuple[HeightFn, HeightFn]:
    """The body's graph heights; NotStandardPositionError unless the body
    lies in the slab |x| <= 1/2 and contains the unit square, both to
    within 1e-9 (a vertical distance, no looser than the perpendicular one)."""
    f, g = require_slab_span(body)
    # concave heights take their minimum at an end of the domain
    if min(float(h(x)) for h in (f, g) for x in (h.a, h.b)) < 0.5 - 1e-9:
        raise NotStandardPositionError("body does not contain the unit square")
    return f, g


def decompose_caps(body: ConvexBody) -> tuple[ConvexPolygon, GraphBody, GraphBody]:
    """Split a body in standard position into the unit square and two caps.

    Caps are returned as graph bodies over [-1/2, 1/2] with g == 0; their f is
    the cap height measured from the square's edge (the cap above y = 1/2 and
    the mirror of the cap below y = -1/2, both in left-to-right x): a "pw"
    height with its knots clipped to the slab, or a "poly" height with its
    constant coefficient lowered by 1/2.  The other kinds vanish at the walls
    and never pass the standard-position guard.
    Areas satisfy |body| = 1 + |upper| + |lower| within 1e-10.
    """
    def cap(h: HeightFn) -> GraphBody:
        line = h.polyline()
        if line is None:
            c = list(h.coeffs)
            c[0] -= 0.5
            return GraphBody(-0.5, 0.5, heights.polynomial(c), heights.zero())
        knots = np.clip(line[0], -0.5, 0.5)
        knots[0], knots[-1] = -0.5, 0.5
        hts = np.maximum(np.asarray(line[1]) - 0.5, 0.0)
        # merge knots that collide after clipping
        keep = np.concatenate([[True], np.diff(knots) > 1e-12])
        return GraphBody(-0.5, 0.5, heights.piecewise(knots[keep], hts[keep]), heights.zero())

    f, g = require_standard_position(body)
    return unit_square(), cap(f), cap(g)


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class Lattice:
    """Integer combinations of two independent generators."""

    g1: Point2
    g2: Point2

    def __post_init__(self):
        sc = max(abs(self.g1.x), abs(self.g1.y), abs(self.g2.x), abs(self.g2.y))
        if abs(cross2(self.g1, self.g2)) <= 1e-12 * sc * sc:
            raise DegenerateError("lattice generators are linearly dependent")

    @staticmethod
    def from_matrix(basis) -> "Lattice":
        b = np.asarray(basis, dtype=float)
        return Lattice(Point2(b[0, 0], b[1, 0]), Point2(b[0, 1], b[1, 1]))

    def basis(self) -> np.ndarray:
        """Generators as the columns of a 2x2 matrix."""
        return np.array([[self.g1.x, self.g2.x], [self.g1.y, self.g2.y]],
                        dtype=float)

    @property
    def covolume(self) -> float:
        return abs(cross2(self.g1, self.g2))


Z2 = Lattice(Point2(1.0, 0.0), Point2(0.0, 1.0))
