import math

import numpy as np
import pytest

from convexspectra import heights
from convexspectra.errors import BodyFileError


def test_polynomial_eval_and_derivative():
    f = heights.polynomial([0.25, 0.0, -1.0])
    assert f(0.0) == 0.25
    assert f(0.5) == pytest.approx(0.0, abs=1e-15)
    xs = np.linspace(-0.45, 0.45, 11)
    h = 1e-6
    fd = (f(xs + h) - f(xs - h)) / (2 * h)
    assert np.max(np.abs(f.derivative(xs) - fd)) < 1e-8


def test_tent_shape():
    f = heights.tent(-0.5, 0.5)
    assert f(-0.5) == 0.0 and f(0.5) == 0.0
    assert f(0.0) == 0.5
    assert f(0.25) == pytest.approx(0.25)
    assert f.breakpoints() == [0.0]
    assert not f.endpoint_singular


def test_semicircle():
    f = heights.semicircle(0.5)
    assert f(0.0) == pytest.approx(0.5)
    assert f(0.3) == pytest.approx(0.4)
    assert f.endpoint_singular
    with pytest.raises(BodyFileError):
        heights.HeightFn("semicircle", -0.5, 0.5, r=-1.0)


def test_piecewise_eval_and_validation():
    f = heights.piecewise([-0.5, 0.0, 0.5], [0.0, 0.3, 0.0])
    assert f(-0.25) == pytest.approx(0.15)
    assert f(0.25) == pytest.approx(0.15)
    assert f.breakpoints() == [0.0]
    with pytest.raises(BodyFileError):
        heights.piecewise([-0.5, 0.5, 0.0], [0.0, 0.1, 0.0])
    with pytest.raises(BodyFileError):
        heights.piecewise([-0.5, 0.5], [0.0])


def test_power_cap():
    f = heights.power(0.75, 1.0, -0.5, 0.5)
    assert f(-0.5) == 0.0
    assert f(0.4) == pytest.approx(0.1 ** 0.75)
    assert f.endpoint_singular  # p < 1 has unbounded slope at the walls


def test_zero_height():
    z = heights.zero()
    xs = np.linspace(-0.5, 0.5, 11)
    assert np.all(z(xs) == 0.0)
    assert z(0.1) == 0.0
    assert np.any(heights.tent(-0.5, 0.5)(xs) != 0.0)


def test_max_value():
    assert heights.tent(-0.5, 0.5).max_value() == pytest.approx(0.5)
    assert heights.semicircle(0.3).max_value() == pytest.approx(0.3)
    f = heights.piecewise([-0.5, -0.1, 0.5], [0.0, 0.7, 0.0])
    assert f.max_value() == pytest.approx(0.7)


def test_polynomial_max_value_is_exact():
    # the parabola cap's vertex, and vertices off any sampling grid
    assert heights.polynomial([0.75, 0.0, -1.0]).max_value() == 0.75
    for x0 in (0.123, -0.31, 1.0 / 3.0):
        f = heights.polynomial([0.6 - x0 * x0, 2.0 * x0, -1.0])
        assert f.max_value() == pytest.approx(0.6, rel=0.0, abs=1e-15)
    # a cubic rising to the right end, and a maximum at the left end
    assert heights.polynomial([0.5, 0.0, 0.0, 1.0]).max_value() == 0.625
    assert heights.polynomial([0.5, -1.0, -1.0]).max_value() == 0.75


@pytest.mark.parametrize("f, d", [
    (heights.polynomial([0.25, 0.1, -1.0]), {"kind": "poly", "coeffs": [0.25, 0.1, -1.0]}),
    (heights.tent(-0.5, 0.5), {"kind": "tent"}),
    (heights.semicircle(0.5), {"kind": "semicircle", "r": 0.5}),
    (heights.piecewise([-0.5, 0.1, 0.5], [0.0, 0.4, 0.0]),
     {"kind": "pw", "knots": [-0.5, 0.1, 0.5], "values": [0.0, 0.4, 0.0]}),
    (heights.power(0.75, 0.8, -0.5, 0.5), {"kind": "power", "p": 0.75, "scale": 0.8}),
], ids=["f0", "f1", "f2", "f3", "f4"])
def test_descriptor_round_trip(f, d):
    g = heights.from_descriptor(d, f.a, f.b)
    xs = np.linspace(f.a, f.b, 37)
    assert np.allclose(f(xs), g(xs), atol=0)


def test_from_descriptor_errors_carry_path():
    with pytest.raises(BodyFileError, match=r"\$\.f"):
        heights.from_descriptor({"kind": "nope"}, -0.5, 0.5, path="$.f")
    with pytest.raises(BodyFileError, match=r"\$\.g"):
        heights.from_descriptor({"no_kind": 1}, -0.5, 0.5, path="$.g")


def test_domain_validation():
    with pytest.raises(BodyFileError):
        heights.polynomial([1.0], 0.5, -0.5)
    with pytest.raises(BodyFileError):
        heights.semicircle(0.5).__class__("semicircle", -0.4, 0.5, r=0.5)


@pytest.mark.parametrize("make, field", [
    (lambda: heights.polynomial([0.25, math.nan]), "coeffs"),
    (lambda: heights.polynomial([math.inf]), "coeffs"),
    (lambda: heights.piecewise([-0.5, 0.5], [0.0, math.inf]), "values"),
    (lambda: heights.piecewise([-0.5, math.nan, 0.5], [0.0, 0.1, 0.0]), "knots"),
    (lambda: heights.semicircle(math.nan), "r"),
    (lambda: heights.power(math.nan), "p"),
    (lambda: heights.power(0.5, -math.inf), "scale"),
    (lambda: heights.power(0.0), "p"),
    (lambda: heights.power(1.5), "p"),
    (lambda: heights.power(0.5, -1.0), "scale"),
], ids=["poly_nan", "poly_inf", "pw_values_inf", "pw_knots_nan", "semicircle_nan",
        "power_p_nan", "power_scale_inf", "power_p0", "power_p_above_1",
        "power_negative_scale"])
def test_bad_parameters_are_rejected_by_field(make, field):
    with pytest.raises(BodyFileError, match=field):
        make()


def test_empty_piecewise_is_rejected():
    with pytest.raises(BodyFileError, match=r"\$\.f"):
        heights.from_descriptor({"kind": "pw", "knots": [], "values": []},
                                -0.5, 0.5, path="$.f")


def test_polyline_of_piecewise_linear_kinds():
    f = heights.piecewise([-0.5, 0.1, 0.5], [0.0, 0.4, 0.2])
    assert f.polyline() == ((-0.5, 0.1, 0.5), (0.0, 0.4, 0.2))
    assert heights.tent(-0.5, 0.5).polyline() == ((-0.5, 0.0, 0.5), (0.0, 0.5, 0.0))
    assert heights.power(1.0, 2.0).polyline() == ((-0.5, 0.0, 0.5), (0.0, 1.0, 0.0))
    assert heights.polynomial([0.5, 0.25, 0.0]).polyline() == ((-0.5, 0.5), (0.375, 0.625))
    assert heights.zero().polyline() == ((-0.5, 0.5), (0.0, 0.0))
    assert heights.polynomial([0.5, 0.0, -1.0]).polyline() is None
    assert heights.power(0.75).polyline() is None
    assert heights.semicircle(0.5).polyline() is None


def test_flat_factories_return_pw():
    for f in (heights.tent(-0.5, 0.5), heights.power(1.0, 2.0), heights.power(0.5, 0.0),
              heights.polynomial([0.5, 0.25, 0.0]), heights.zero()):
        assert f.kind == "pw"
