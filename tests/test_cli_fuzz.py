"""Fuzz the CLI exit-code contract: whatever body file it is given, `main`
returns 0, 1 or 2 and never lets an exception or a traceback escape.

Body files are polygons, random graph bodies and symmetric graph bodies,
with numbers within +-1e3 mixed with NaN, +-Infinity, 0, 1e-300, empty
lists and unknown kinds.  Magnitudes near the float limit are out of scope:
at 1e154, for one, intermediate products overflow.
"""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convexspectra import cli

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, 1e-300]
numbers = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(SPECIAL))
positive = st.floats(0.05, 2.0)


def _descriptors(x):
    return st.one_of(
        st.builds(lambda c: {"kind": "poly", "coeffs": c}, st.lists(x, max_size=3)),
        st.just({"kind": "tent"}),
        st.builds(lambda r: {"kind": "semicircle", "r": r}, x),
        st.builds(lambda k, v: {"kind": "pw", "knots": k, "values": v},
                  st.lists(x, max_size=4), st.lists(x, max_size=4)),
        st.builds(lambda p, s: {"kind": "power", "p": p, "scale": s}, x, x),
        st.just({"kind": "wavelet"}),
    )


polygons = st.builds(lambda v: {"type": "polygon", "vertices": v},
                     st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=8))
graphs = st.builds(lambda a, b, f, g: {"type": "graph", "a": a, "b": b, "f": f, "g": g},
                   numbers, numbers, _descriptors(numbers), _descriptors(numbers))


@st.composite
def symmetric_graphs(draw):
    """a = -b, g the mirror image of f and finite positive numbers, so that
    most of these bodies are valid and reach the computation."""
    b = draw(positive)
    f = draw(_descriptors(positive))
    if f["kind"] == "poly":  # c0 + c1 x - c2 x^2 and its mirror
        c = [-v if i == 2 else v for i, v in enumerate(f["coeffs"])]
        f, g = dict(f, coeffs=c), dict(f, coeffs=[v * (-1) ** i for i, v in enumerate(c)])
    elif f["kind"] == "semicircle":
        f = g = dict(f, r=b)
    elif f["kind"] == "pw":
        inner = sorted(draw(st.lists(st.floats(-1.0, 1.0), max_size=3)))
        knots = [-b, *(t * b for t in inner), b]
        values = draw(st.lists(positive, min_size=len(knots), max_size=len(knots)))
        f = {"kind": "pw", "knots": knots, "values": values}
        g = {"kind": "pw", "knots": [-k for k in reversed(knots)], "values": values[::-1]}
    else:
        g = f
    return {"type": "graph", "a": -b, "b": b, "f": f, "g": g}


COMMANDS = [
    ["classify"],
    ["certify"],
    ["tile-check", "--samples", "50"],
    ["ft", "--xi", "0.5,0.25"],
    ["zeros", "--xi", "0.25,0.1", "--xi", "1.5,0.1"],
    ["cap-scan", "--delta", "0.2"],
    ["gap-check", "--lattice", "1 0; 0 1"],
    ["spectrum-check", "--lattice", "1 0; 0 1", "--radius", "2"],
]


# derandomized: every run checks the same 200 examples in about the same time;
# drop derandomize and raise max_examples for a deeper search
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=st.one_of(polygons, graphs, symmetric_graphs()),
       command=st.sampled_from(COMMANDS))
def test_cli_exit_codes_under_fuzzed_bodies(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("fuzz") / "body.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([command[0], "--body", str(path), *command[1:]])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
