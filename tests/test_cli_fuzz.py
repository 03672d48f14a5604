"""Fuzz the CLI exit-code contract: whatever body file or flag values it is
given, `main` returns 0, 1 or 2 and never lets an exception or a traceback
escape, and it returns 2 with a message naming the fault for invalid flags.

Body files are polygons, random graph bodies and symmetric graph bodies,
with numbers within +-1e3 mixed with NaN, +-Infinity, 0, 1e-300, empty
lists and unknown kinds.  Magnitudes near the float limit are out of scope:
at 1e154, for one, intermediate products overflow.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from convexspectra import cli, geometry, heights

from conftest import unit_square, write_body

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


# ---------------------------------------------------------------------------
# flags on the fixture bodies: scan steps too large for any scan line, scans
# over the memory budget (finite sizes near the float limit among them),
# reversed and empty windows, unwritable outputs


@pytest.fixture(scope="module")
def bodies(tmp_path_factory):
    d = tmp_path_factory.mktemp("bodies")
    parabola = heights.polynomial([0.75, 0.0, -1.0])
    paths = {name: write_body(d / f"{name}.json", body) for name, body in (
        ("square", unit_square()),
        ("hexagon", geometry.validate_polygon([(0.5, -0.5), (0.5, 0.5), (0.0, 0.75),
                                               (-0.5, 0.5), (-0.5, -0.5), (0.0, -0.75)])),
        ("disc", geometry.disc(0.5)),
        ("parabola", geometry.GraphBody(-0.5, 0.5, parabola, parabola)))}
    return dict(paths, dir=str(d))


# per command, flag -> (valid values, {invalid value: word its error must name})
FLAGS = {
    "slab-align": {
        "--A": ((1.0, 3.0), {0.0: "A", 0.5: "A", 1e308: "too large"}),
        "--step": ((0.1, 0.25), {0.0: "step", 7.0: "step", 1e-5: "too large"}),
        "--R-list": (("10", "5,30"), {"-5": "R", "ten": "R", "inf": "R"}),
    },
    "ball-align": {
        "--A": ((0.5, 1.0), {0.0: "A", 1e7: "too large"}),
        "--step": ((0.1, 0.25, 1e-11), {0.0: "step", 2.5: "step"}),
        "--window": (("5,8", "2,6"), {"8,5": "window", "6,6": "window", "inf,8": "window",
                                      "1e307,1.7e308": "too large"}),
    },
    "cap-scan": {
        "--delta": ((0.05, 0.2), {-0.1: "delta", 0.0: "delta", 1e-9: "too large"}),
        "--window": (("0.1,10", "0.5,3"), {"10,0.1": "window", "2,2": "window",
                                           "nan,1": "window", "1e307,1.7e308": "too large"}),
    },
}
BODIES = {"slab-align": ("{square}", "{hexagon}"),
          "ball-align": ("{square}", "{hexagon}", "{disc}"),
          "cap-scan": ("{square}", "{hexagon}", "{parabola}")}
OUT = (("{dir}/run.csv",), {"{dir}/nodir/run.csv": "output"})


@st.composite
def flag_cases(draw):
    """(argv, bad): at most one flag takes an invalid value, and bad holds
    the word its error must name (empty when every value is valid)."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = dict(FLAGS[command], **{"--out": OUT})
    broken = draw(st.sampled_from([None, *flags]))
    argv = [command, "--body", draw(st.sampled_from(BODIES[command]))]
    bad = []
    for flag, (valid, invalid) in flags.items():
        value = draw(st.sampled_from(list(invalid) if flag == broken else valid))
        argv += [flag, str(value)]
        if flag == broken:
            bad.append(invalid[value])
    return argv, bad


# derandomized like the body fuzz above; the examples are the scan, window,
# slab-offset and float-limit faults a random draw might miss
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=flag_cases())
@example(case=(["slab-align", "--body", "{square}", "--A", "1", "--step", "7",
                "--R-list", "10"], ["step"]))
@example(case=(["slab-align", "--body", "{hexagon}", "--A", "3", "--step", "1e-05",
                "--R-list", "50"], ["too large"]))
@example(case=(["ball-align", "--body", "{disc}", "--A", "1", "--step", "0.1",
                "--window", "8,5"], ["window"]))
@example(case=(["slab-align", "--body", "{square}", "--A", "1", "--step", "0.1",
                "--R-list", "inf"], ["R"]))
@example(case=(["slab-align", "--body", "{hexagon}", "--A", "1e308", "--step", "0.1",
                "--R-list", "10"], ["too large"]))
@example(case=(["ball-align", "--body", "{square}", "--A", "1", "--step", "0.1",
                "--window", "1e307,1.7e308"], ["too large"]))
@example(case=(["ball-align", "--body", "{disc}", "--A", "0.5", "--step", "1e-11",
                "--window", "1e307,1.7e308"], ["too large"]))
def test_cli_exit_codes_under_fuzzed_flags(bodies, case):
    argv, bad = case
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([a.format(**bodies) for a in argv])
        except SystemExit as e:  # argparse rejects the value
            rc = e.code
    err = err.getvalue()
    assert "Traceback" not in err
    if bad:
        assert rc == 2 and bad[0] in err, (argv, rc, err)
    else:
        assert rc in (0, 1), (argv, rc, err)


# ---------------------------------------------------------------------------
# lattices and radii over many decades on the square: sparse lattices whose
# windows hold only the origin, lattices too fine to enumerate, near-parallel
# generators, and cube half-sides whose densities overflow


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def lattice_texts(draw):
    """A basis "a b; c d" whose columns have lengths 1e-8 to 1e8, at any
    angle from 0 to pi (both ends included)."""
    r1, r2 = draw(_log_uniform(-8.0, 8.0)), draw(_log_uniform(-8.0, 8.0))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    turn = draw(st.floats(0.0, math.pi))
    g1 = (r1 * math.cos(phi), r1 * math.sin(phi))
    g2 = (r2 * math.cos(phi + turn), r2 * math.sin(phi + turn))
    return f"{g1[0]!r} {g2[0]!r}; {g1[1]!r} {g2[1]!r}"


REFUSALS = ("too large", "too small", "dependent")


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(lattice=lattice_texts(),
       radius=st.one_of(_log_uniform(-4.0, 4.0), _log_uniform(-320.0, 300.0)),
       command=st.sampled_from(["density", "gap-check"]))
@example(lattice="1e6 0; 0 1e6", radius=1.0, command="gap-check")
@example(lattice="1e6 0; 0 1e6", radius=1.0, command="density")
@example(lattice="1 0; 0 1", radius=1e-300, command="density")
@example(lattice="1e6 0; 0 1e-6", radius=1.0, command="density")
@example(lattice="1 1; 0 1e-13", radius=1.0, command="gap-check")
def test_lattice_commands_under_fuzzed_lattices(bodies, lattice, radius, command):
    argv = [command, f"--lattice={lattice}"]
    argv += ["--radius", repr(radius)] if command == "density" else ["--body", bodies["square"]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    err = err.getvalue()
    assert "Traceback" not in err
    if rc == 2:
        (line,) = err.splitlines()
        assert any(word in line for word in REFUSALS), (argv, line)
    else:
        assert rc in (0, 1), (argv, rc, err)
