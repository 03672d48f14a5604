import json

import numpy as np
import pytest

from convexspectra import geometry, heights


@pytest.fixture
def square():
    return geometry.unit_square()


@pytest.fixture
def hexagon_h0():
    # unit square with matching triangular caps of height 1/4; area 5/4
    return geometry.validate_polygon([
        (0.5, -0.5), (0.5, 0.5), (0.0, 0.75),
        (-0.5, 0.5), (-0.5, -0.5), (0.0, -0.75)])


@pytest.fixture
def octagon():
    return geometry.regular_polygon(8)


@pytest.fixture
def decagon():
    return geometry.regular_polygon(10)


@pytest.fixture
def twelve_gon():
    return geometry.regular_polygon(12)


@pytest.fixture
def disc_body():
    return geometry.disc(0.5)


@pytest.fixture
def diamond_body():
    t = heights.tent(-0.5, 0.5)
    return geometry.GraphBody(-0.5, 0.5, t, t)


@pytest.fixture
def parabola_capped():
    # unit square with parabolic caps: boundary y = 3/4 - x^2
    f = heights.polynomial([0.75, 0.0, -1.0])
    return geometry.GraphBody(-0.5, 0.5, f, f)


def random_parallelogram(rng):
    """Symmetric quadrilateral from two independent random generators."""
    while True:
        a = rng.uniform(-1.5, 1.5, 2)
        b = rng.uniform(-1.5, 1.5, 2)
        if abs(a[0] * b[1] - a[1] * b[0]) > 0.1:
            return geometry.validate_polygon([a, b, -a, -b])


def random_symmetric_hexagon(rng):
    """Vertices (p, q, q - p, -p, -q, p - q) are symmetric and convex for
    independent p, q."""
    while True:
        p = rng.uniform(-1.5, 1.5, 2)
        q = rng.uniform(-1.5, 1.5, 2)
        if abs(p[0] * q[1] - p[1] * q[0]) > 0.1:
            return geometry.validate_polygon([p, q, q - p, -p, -q, p - q])


def random_symmetric_2ngon(rng, n):
    """Symmetric 2n-gon: n random angles/radii, antipodal completion."""
    while True:
        th = np.sort(rng.uniform(0.05, np.pi - 0.05, n))
        if np.min(np.diff(th, prepend=th[0] - 0.05)) < 0.05:
            continue
        r = rng.uniform(0.8, 1.2, n)
        half = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        verts = np.vstack([half, -half])
        try:
            poly = geometry.validate_polygon(verts)
        except Exception:
            continue
        if poly.m == 2 * n:
            return poly


def height_descriptor(h: heights.HeightFn) -> dict:
    """The body-file descriptor of a height function."""
    if h.kind == "poly":
        return {"kind": "poly", "coeffs": list(h.coeffs)}
    if h.kind == "semicircle":
        return {"kind": "semicircle", "r": h.r}
    if h.kind == "pw":
        return {"kind": "pw", "knots": list(h.knots), "values": list(h.values)}
    return {"kind": "power", "p": h.p, "scale": h.scale}


def write_body(path, body) -> str:
    """Serialize a body to the CLI JSON schema; returns the path as str."""
    if isinstance(body, geometry.ConvexPolygon):
        doc = {"type": "polygon", "vertices": body.vertices.tolist()}
    else:
        doc = {"type": "graph", "a": body.a, "b": body.b,
               "f": height_descriptor(body.f), "g": height_descriptor(body.g)}
    path.write_text(json.dumps(doc))
    return str(path)
