"""The benchmark's own tests: every reference agrees with a second route, and
every checker accepts a right answer and rejects a deliberately wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

import math
import os
import sys

import mpmath as mp
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import refs  # noqa: E402
import workloads  # noqa: E402
from workloads import CliOut  # noqa: E402

OCTAGON = workloads.regular(8)


# --- references agree with a second route ----------------------------------


def test_parallelogram_form_matches_edge_sum():
    v = workloads.parallelogram(np.random.default_rng(3))
    for xi in [(0.7, -1.3), (4.1, 2.2), (-9.5, 0.3)]:
        a = refs.parallelogram_ft(v[0], v[1], xi)
        b = refs.edge_sum_ft(v, xi)
        assert abs(a - b) < 1e-30


def test_graph_quadrature_matches_polygon_forms():
    half = lambda x: mp.mpf(0.5)
    tent = lambda x: mp.mpf(0.5) - abs(x)
    diamond = np.array([(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)])
    for xi in [(1.3, 0.4), (-3.0, 5.5)]:
        square = refs.graph_ft(half, half, -0.5, 0.5, xi)
        assert abs(square - refs.parallelogram_ft((0.5, 0.5), (-0.5, 0.5), xi)) < 1e-15
        tents = refs.graph_ft(tent, tent, -0.5, 0.5, xi, brk=(0.0,))
        assert abs(tents - refs.edge_sum_ft(diamond, xi)) < 1e-15


def test_disc_gradient_matches_finite_difference():
    xi, h = np.array([2.3, -1.1]), 1e-6
    g = refs.disc_grad(0.5, xi)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (refs.disc_ft(0.5, xi + e) - refs.disc_ft(0.5, xi - e)) / (2 * h)
        assert abs(g[k] - fd) < 1e-8


@pytest.mark.parametrize("kind,f", [
    ("tent", lambda x: min(x + 0.5, 0.5 - x)),
    ("parabola", lambda x: 0.25 - x * x),
    ("semicircle", lambda x: mp.sqrt(0.25 - x * x)),
])
def test_cap_closed_forms_match_quadrature(kind, f):
    for R in (0.3, 7.7):
        direct = mp.quad(lambda x: f(x) * mp.cos(2 * mp.pi * R * x), [-0.5, 0, 0.5])
        assert abs(refs.cap_ft(kind, R) - abs(direct)) < 1e-12


def test_piecewise_cap_matches_tent():
    assert abs(refs.cap_ft("pw", 3.3, [-0.5, 0.0, 0.5], [0.0, 0.5, 0.0])
               - refs.cap_ft("tent", 3.3)) < 1e-20


def test_upper_cap_of_h0():
    assert refs.upper_cap(workloads.H0) == ([-0.5, 0.0, 0.5], [0.0, 0.25, 0.0])


def test_covering_radius_and_cover_of_the_square():
    assert 0.5 <= refs.sup_covering_radius(np.eye(2)) <= 0.51
    pts = np.random.default_rng(0).random((200, 2)) - 0.5
    counts, clear = refs.cover_counts(workloads.SQUARE, np.eye(2), pts)
    assert np.all(counts[clear] == 1) and clear.sum() > 190
    # a lattice twice as coarse leaves holes
    counts, clear = refs.cover_counts(workloads.SQUARE, np.diag([2.0, 1.0]), pts * [2, 1])
    assert np.any(counts[clear] != 1)


# --- each checker rejects a wrong answer -----------------------------------


def test_check_close():
    ref = refs.edge_sum_ft(OCTAGON, (1.0, 0.5))
    assert refs.check_close(complex(ref), ref, 1e-15, "v") is None
    assert refs.check_close(complex(ref) + 1e-9, ref, 1e-12, "v") is not None


def test_check_bessel_zeros():
    want = refs.disc_zero_radii(0.5, 12.5)
    assert len(want) == 12
    assert refs.check_bessel_zeros(want, 0.5, 12.5) is None
    assert refs.check_bessel_zeros(want[:-1], 0.5, 12.5) is not None  # one missed
    assert refs.check_bessel_zeros([w + 1e-6 for w in want], 0.5, 12.5) is not None
    assert refs.check_bessel_zeros(want[:3], 0.5, 12.5, complete=False) is None


def test_check_exit():
    assert refs.check_exit(2, None, 2, "x") is None
    assert refs.check_exit(0, None, 2, "x") is not None
    assert refs.check_exit(None, "ZeroDivisionError: x", 2, "x") is not None


def test_check_classify():
    rows = [{"verdict": "not_spectral", "reason": "polygon_n_ge_4", "tiles": "false"}]
    assert refs.check_classify("not_spectral polygon_n_ge_4\n", rows, False, "polygon_n_ge_4") is None
    assert refs.check_classify("spectral polygon_n_ge_4\n", rows, False, "polygon_n_ge_4")
    assert refs.check_classify("not_spectral polygon_n_ge_4\n", rows, True, "polygon_n_ge_4")


def _fan_rows(v):
    return [{"i": 0, "j": j, "k": j + 1, "area": repr(abs(refs.shoelace(v[[0, j, j + 1]])))}
            for j in range(1, len(v) - 1)]


def test_check_certificate():
    rows = _fan_rows(OCTAGON)
    margin = refs.shoelace(OCTAGON) / 2 - min(float(r["area"]) for r in rows)
    assert refs.check_certificate(OCTAGON, rows, margin) is None
    assert refs.check_certificate(OCTAGON, rows, margin + 1e-3) is not None
    bad = [dict(r) for r in rows]
    bad[0]["area"] = repr(float(bad[0]["area"]) * (1 + 1e-9))
    assert refs.check_certificate(OCTAGON, bad, margin) is not None


def test_check_density():
    assert refs.check_density(0.95, 1.05, 1.0, 20.0) is None
    assert refs.check_density(0.95, 1.2, 1.0, 20.0) is not None
    assert refs.check_density(1.05, 0.95, 1.0, 20.0) is not None


def test_check_zero():
    # (1, 0) is a zero of the unit square's transform, (0.5, 0) is not
    sq = workloads.SQUARE
    assert refs.check_zero(abs(refs.parallelogram_ft(sq[0], sq[1], (1, 0))), 1.0, "z") is None
    assert refs.check_zero(abs(refs.parallelogram_ft(sq[0], sq[1], (0.5, 0))), 1.0, "z")


def _ft_out(v, xis, perturb=0.0):
    rows = []
    for xi in xis:
        val = complex(refs.edge_sum_ft(v, xi)) + perturb
        rows.append({"xi1": repr(xi[0]), "xi2": repr(xi[1]), "re": repr(val.real),
                     "im": repr(val.imag), "abs_err": "1e-15"})
    return CliOut(0, "", "", None, rows)


def test_ft_check_and_expected_exit():
    check = workloads._expect(0, workloads._ft_check(OCTAGON, 1e-12))
    xis = [(0.7, 1.9), (-5.0, 3.3)]
    assert check(_ft_out(OCTAGON, xis)) is None
    assert check(_ft_out(OCTAGON, xis, perturb=1e-9)) is not None
    wrong_exit = _ft_out(OCTAGON, xis)
    wrong_exit.code = 2
    assert check(wrong_exit) is not None


def test_seeded_bodies_repeat_and_differ():
    a = workloads.hexagon(np.random.default_rng(5))
    assert np.array_equal(a, workloads.hexagon(np.random.default_rng(5)))
    assert not np.array_equal(a, workloads.hexagon(np.random.default_rng(6)))
    assert math.isclose(refs.shoelace(a), 1.0)
