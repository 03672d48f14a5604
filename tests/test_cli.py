import argparse
import json
import re
import time
import warnings

import mpmath
import numpy as np
import pytest

from convexspectra import cli, heights, zeroset
from convexspectra.errors import BodyParseError, BodyValidationError
from convexspectra.geometry import (ConvexPolygon, GraphBody, disc, regular_polygon,
                                   validate_polygon)

from conftest import write_body


@pytest.fixture
def square_file(tmp_path, square):
    return write_body(tmp_path / "square.json", square)


@pytest.fixture
def hexagon_file(tmp_path, hexagon_h0):
    return write_body(tmp_path / "hexagon.json", hexagon_h0)


@pytest.fixture
def octagon_file(tmp_path, octagon):
    return write_body(tmp_path / "octagon.json", octagon)


@pytest.fixture
def disc_file(tmp_path, disc_body):
    return write_body(tmp_path / "disc.json", disc_body)


@pytest.fixture
def tiny_square_file(tmp_path, square):
    # side 1e-6, area 1e-12
    return write_body(tmp_path / "tiny.json", validate_polygon(1e-6 * square.vertices))


# --- file parsing -----------------------------------------------------------


def test_parse_polygon_file(square_file):
    body = cli.parse_body_file(square_file)
    assert isinstance(body, ConvexPolygon)
    assert body.area == pytest.approx(1.0, abs=1e-15)


def test_parse_graph_file(disc_file):
    body = cli.parse_body_file(disc_file)
    assert isinstance(body, GraphBody)


def test_parse_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(BodyParseError, match="not valid JSON"):
        cli.parse_body_file(str(p))


def test_parse_rejects_unknown_type(tmp_path):
    p = tmp_path / "odd.json"
    p.write_text(json.dumps({"type": "blob"}))
    with pytest.raises(BodyParseError, match=r"\$\.type"):
        cli.parse_body_file(str(p))


def test_parse_rejects_bad_vertex(tmp_path):
    p = tmp_path / "v.json"
    p.write_text(json.dumps({"type": "polygon",
                             "vertices": [[0, 0], [1, 0], ["x", 1]]}))
    with pytest.raises(BodyParseError, match=r"\$\.vertices\[2\]"):
        cli.parse_body_file(str(p))


def test_parse_rejects_nonconvex(tmp_path):
    p = tmp_path / "nc.json"
    p.write_text(json.dumps({"type": "polygon",
                             "vertices": [[0, 0], [2, 0], [1, 0.1],
                                          [2, 2], [0, 2]]}))
    with pytest.raises(BodyValidationError, match=r"\$\.vertices"):
        cli.parse_body_file(str(p))


def test_parse_rejects_bad_descriptor(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"type": "graph", "a": -0.5, "b": 0.5,
                             "f": {"kind": "wavelet"}, "g": {"kind": "tent"}}))
    with pytest.raises(BodyParseError, match=r"\$\.f"):
        cli.parse_body_file(str(p))


def test_parse_lattice_rows_are_matrix_rows():
    lat = cli.parse_lattice("1 0; -0.4 0.8")
    # columns of the row matrix are the generators
    assert (lat.g1.x, lat.g1.y) == (1.0, -0.4)
    assert (lat.g2.x, lat.g2.y) == (0.0, 0.8)


def test_parse_lattice_rejects_malformed():
    with pytest.raises(BodyParseError):
        cli.parse_lattice("1 0 0; 0 1")
    with pytest.raises(BodyParseError):
        cli.parse_lattice("1 0")
    with pytest.raises(BodyValidationError):
        cli.parse_lattice("1 0; 2 0")  # singular


# --- subcommands ------------------------------------------------------------


def test_ft_square_known_value(square_file, capsys):
    rc = cli.main(["ft", "--body", square_file, "--xi", "0.5,0.5"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.405285"


def test_ft_writes_csv_and_manifest(square_file, tmp_path, capsys):
    out = str(tmp_path / "ft.csv")
    rc = cli.main(["ft", "--body", square_file, "--xi", "0.5,0.5",
                   "--xi", "1.25,0", "--out", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "xi1,xi2,re,im,abs_err,method,converged"
    assert len(lines) == 3
    man = json.load(open(out + ".manifest.json"))
    assert man["command"] == "ft"
    assert "tolerances" in man and "versions" in man and "wall_time_s" in man


def test_main_parses_with_one_parser_and_no_carried_values(square_file, tmp_path,
                                                            monkeypatch, capsys):
    # the parser is built once per process; each call still starts from the
    # defaults, so the first call's two --xi do not reach the second CSV
    parsers, parse_args = [], argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    out = str(tmp_path / "ft.csv")
    assert cli.main(["ft", "--body", square_file, "--xi", "0.5,0.5", "--xi", "1.25,0"]) == 0
    assert cli.main(["ft", "--body", square_file, "--xi", "0.25,0", "--out", out]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    lines = open(out).read().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.25,0,")


def test_ft_csv_method_column_names_the_route(square_file, disc_file, tmp_path, capsys):
    for path, method in ((square_file, "closed_form"), (disc_file, "panel_rule")):
        out = str(tmp_path / "ft.csv")
        assert cli.main(["ft", "--body", path, "--xi", "0.5,0.25", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[1].split(",")[5] == method


def test_ft_on_a_large_disc_is_converged(tmp_path, capsys):
    # the panel target is relative to the area: a radius-60 disc meets it with
    # an err far above any fixed absolute tolerance
    path = write_body(tmp_path / "disc60.json", disc(60.0))
    out = str(tmp_path / "ft.csv")
    assert cli.main(["ft", "--body", path, "--xi", "0.5,0.5", "--out", out]) == 0
    assert open(out).read().splitlines()[1].split(",")[5:] == ["panel_rule", "true"]
    man = json.load(open(out + ".manifest.json"))
    assert man["tolerances"] == {"singular_threshold": 1e-2, "panel_tol": 1e-13}


def test_ft_refuses_a_panel_rule_that_misses_its_bound(tmp_path, capsys):
    # halving the panels next to the steep ends stops lowering the bound
    f = heights.power(0.01, 100.0)
    path = write_body(tmp_path / "tall.json", GraphBody(-0.5, 0.5, f, f))
    t0 = time.perf_counter()
    assert cli.main(["ft", "--body", path, "--xi", "0,50"]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert "misses the target" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_ft_on_a_tall_singular_body_holds_its_err(tmp_path, capsys):
    # T(0, xi2) = 2 * integral over [0, 1/2] of sin(2 pi xi2 f(x)) / (pi xi2),
    # f = 20 (1/2 - x)^0.1; with 1/2 - x = s^10 the integrand is entire in s
    f = heights.power(0.1, 20.0)
    path = write_body(tmp_path / "tall.json", GraphBody(-0.5, 0.5, f, f))
    out = str(tmp_path / "ft.csv")
    assert cli.main(["ft", "--body", path, "--xi", "0,20", "--out", out]) == 0
    row = open(out).read().splitlines()[1].split(",")
    with mpmath.workdps(30):
        k = 2 * mpmath.pi * 20 * 20
        h = lambda s: mpmath.sin(k * s) * 10 * s**9 / (20 * mpmath.pi)
        ref = float(2 * mpmath.quad(h, mpmath.linspace(0, mpmath.mpf(0.5) ** 0.1, 100)))
    assert row[5:] == ["panel_rule", "true"]
    assert abs(complex(float(row[2]), float(row[3])) - ref) <= float(row[4])


def test_a_large_square_keeps_its_edge_sum_and_its_dual_lattice(tmp_path, capsys):
    # the origin-fan switch is at |xi| r <= SINGULAR_THRESHOLD, r = 7071 here:
    # the edge sum takes xi = (-0.0054, -0.0054), where 1e4 xi is within
    # rounding of the zero (-54, -54) of T(xi) = 1e8 sinc(1e4 xi1) sinc(1e4 xi2)
    big = validate_polygon([(5e3, -5e3), (5e3, 5e3), (-5e3, 5e3), (-5e3, -5e3)])
    path = write_body(tmp_path / "big.json", big)
    out = str(tmp_path / "ft.csv")
    assert cli.main(["ft", "--body", path, "--xi=-0.0054,-0.0054", "--out", out]) == 0
    row = open(out).read().splitlines()[1].split(",")
    with mpmath.workdps(40):
        ref = float(1e8 * mpmath.sincpi(1e4 * mpmath.mpf(-0.0054)) ** 2)
    assert row[5:] == ["closed_form", "true"]
    # |value - ref| is 3.7e-25 against err 3.4e-25: the edge sum's bar is not
    # yet a strict bound (ROADMAP item 1), so both are held to the area
    assert abs(complex(float(row[2]), float(row[3])) - ref) <= 1e-30 * big.area
    assert float(row[4]) <= 1e-30 * big.area
    assert cli.main(["spectrum-check", "--body", path, "--lattice", "1e-4 0; 0 1e-4",
                     "--radius", "0.02"]) == 0


def test_csv_reruns_are_byte_identical(square_file, tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["zeros", "--body", square_file, "--xi", "0.25,0", "--xi", "5.5,0"]
    assert cli.main(argv + ["--out", out1]) == 0
    assert cli.main(argv + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_zeros_square_axis_segment(square_file, capsys):
    rc = cli.main(["zeros", "--body", square_file,
                   "--xi", "0.25,0", "--xi", "5.5,0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "5 zeros on segment" in out


def test_zeros_tol_is_relative_to_the_area(tmp_path, capsys):
    # a square of side 1e4: |T| at its computed zeros reaches ~1e-8, over an
    # absolute 1e-9 but far below 1e-9 times the area 1e8
    big = write_body(tmp_path / "big.json", validate_polygon(
        [(5e3, -5e3), (5e3, 5e3), (-5e3, 5e3), (-5e3, -5e3)]))
    out = str(tmp_path / "z.csv")
    argv = ["zeros", "--body", big, "--xi", "0.0121,3e-5", "--xi", "0.01265,3e-5"]
    assert cli.main(argv + ["--out", out]) == 0
    assert "6 zeros on segment" in capsys.readouterr().out
    assert json.load(open(out + ".manifest.json"))["tolerances"]["residual_tol"] == 1e-9


def test_spectrum_check_square_integer_lattice(square_file, capsys):
    rc = cli.main(["spectrum-check", "--body", square_file,
                   "--lattice", "1 0; 0 1", "--radius", "10"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("pass")


# s Z^2 with s^-2 = 2 sqrt 2, the area of the regular octagon: dense enough,
# yet not orthogonal (Theorem 0.1: the octagon has no spectrum)
_OCTAGON_LATTICE = "{0:.17g} 0; 0 {0:.17g}".format((2.0 * 2.0 ** 0.5) ** -0.5)


def test_spectrum_check_detects_bad_lattice(square_file, octagon_file, capsys):
    rc = cli.main(["spectrum-check", "--body", square_file,
                   "--lattice", "1.1 0; 0 1", "--radius", "10"])
    assert rc == 1
    assert capsys.readouterr().out.startswith("fail")
    rc = cli.main(["spectrum-check", "--body", octagon_file, "--lattice", _OCTAGON_LATTICE,
                   "--radius", "4"])
    assert rc == 1
    assert capsys.readouterr().out.startswith("fail")


def test_spectrum_check_refuses_an_orthogonal_lattice_of_the_wrong_density(
        square_file, tiny_square_file, capsys):
    # 2Z x Z is orthogonal for the square but has half its density
    rc = cli.main(["spectrum-check", "--body", square_file,
                   "--lattice", "2 0; 0 1", "--radius", "10"])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("fail") and "density 0.5 differs from area 1" in out
    # the density test is relative: the same lattices scaled to a square of
    # side 1e-6 fail and pass as they do on the unit square
    rc = cli.main(["spectrum-check", "--body", tiny_square_file, "--lattice", "2e6 0; 0 1e6",
                   "--radius", "4e6"])
    assert rc == 1
    assert "density 5e-13 differs from area 1e-12" in capsys.readouterr().out
    assert cli.main(["spectrum-check", "--body", tiny_square_file,
                     "--lattice", "1e6 0; 0 1e6", "--radius", "4e6"]) == 0


def test_lattice_with_a_non_finite_entry_is_named(square_file, capsys):
    rc = cli.main(["spectrum-check", "--body", square_file,
                   "--lattice", "nan 0; 0 1", "--radius", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--lattice" in err and "Traceback" not in err


def test_spectrum_check_hexagon_dual(hexagon_file, capsys):
    rc = cli.main(["spectrum-check", "--body", hexagon_file,
                   "--lattice", "1 0; -0.4 0.8", "--radius", "10"])
    assert rc == 0


def test_density_integer_lattice(capsys):
    rc = cli.main(["density", "--lattice", "1 0; 0 1", "--radius", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "D+ 441" in out and "D- 400" in out


def test_density_counts_rows_where_a_ball_enumeration_was_refused(capsys):
    # 801^2 and 800^2 points: the rows need about 4 MB, where the ball of
    # radius 3 sqrt(2) R + 1 once enumerated held 1.16e7 coefficient pairs
    assert cli.main(["density", "--lattice", "1 0; 0 1", "--radius", "400"]) == 0
    assert "D+ 641601  D- 640000" in capsys.readouterr().out


def test_gap_check_pass_and_fail(square_file, capsys):
    assert cli.main(["gap-check", "--body", square_file,
                     "--lattice", "1 0; 0 1"]) == 0
    assert cli.main(["gap-check", "--body", square_file,
                     "--lattice", "10 0; 0 10"]) == 1


def test_a_lattice_sparser_than_its_windows_is_checked_not_refused(square_file, tmp_path,
                                                                    capsys):
    # only the origin lies within either window: every probed cube is empty
    out = tmp_path / "gap.csv"
    assert cli.main(["gap-check", "--body", square_file, "--lattice", "1e6 0; 0 1e6",
                     "--out", str(out)]) == 1
    assert out.read_text().splitlines()[1] == "false,24,4"
    assert cli.main(["density", "--lattice", "1e6 0; 0 1e6", "--radius", "1"]) == 0
    assert "D+ 1  D- 1  normalized 0.25 / 0.25" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["spectrum-check", "--radius", "20"], ["gap-check"]])
def test_lattice_checks_answer_on_a_skewed_basis_of_z2(argv, square_file, capsys):
    # "1 1000; 0 1" is Z^2: the enumeration is sized on the reduced basis,
    # and the points, computed from the given one, are Z^2's to the bit
    command, *rest = argv
    outs = []
    for basis in ("1 0; 0 1", "1 1000; 0 1"):
        assert cli.main([command, "--body", square_file, "--lattice", basis, *rest]) == 0
        outs.append(capsys.readouterr())
    assert outs[1] == outs[0] and outs[0].out.startswith("pass")


@pytest.mark.parametrize("basis, message", [
    ("1 1000; 0 1", "lattice enumeration too large"),
    ("1 300; 0 1", "tiling check too large: 7.18e[+]04 translates"),
], ids=["enumeration", "one_sample"])
def test_tile_check_refuses_a_long_cell_of_z2(basis, message, square_file, capsys):
    # the sampled cell is what is long: every sample would meet tens of
    # thousands of translates
    assert cli.main(["tile-check", "--body", square_file, "--lattice", basis]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert re.search(message, line), line


def test_tile_check_default_lattice(square_file, hexagon_file, tiny_square_file, capsys):
    assert cli.main(["tile-check", "--body", square_file]) == 0
    assert cli.main(["tile-check", "--body", hexagon_file]) == 0
    # the resolution scales with the polygon: a square of side 1e-6 has no
    # sample on two of its translates
    assert cli.main(["tile-check", "--body", tiny_square_file]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_classify_and_tile_check_agree_on_a_nearly_symmetric_hexagon(tmp_path, capsys):
    # 9e-10 off symmetry is within is_symmetric's 1e-9 * extent; the lattice
    # generators must then pass the covolume check at COVOLUME_TOL
    v = regular_polygon(6).vertices.copy()
    v[0, 0] += 9e-10
    path = write_body(tmp_path / "hex.json", validate_polygon(v))
    assert cli.main(["classify", "--body", path]) == 0
    assert capsys.readouterr().out.strip() == "spectral symmetric_hexagon"
    assert cli.main(["tile-check", "--body", path]) == 0
    assert capsys.readouterr().out.startswith("pass")


def test_tile_check_octagon_fails(octagon_file, capsys):
    rc = cli.main(["tile-check", "--body", octagon_file])
    assert rc == 1
    assert "property check failed" in capsys.readouterr().err


def test_tile_check_covolume_mismatch_is_input_error(square_file, capsys):
    rc = cli.main(["tile-check", "--body", square_file,
                   "--lattice", "2 0; 0 1"])
    assert rc == 2


def test_tile_check_refuses_a_covolume_the_sampler_cannot_see(square_file, tmp_path,
                                                               capsys):
    # the translates leave 5e-7 gaps, no wider than the band the sampler
    # redraws from (1e-6 times the square's scale 1/2), so only the covolume
    # check can refuse this lattice
    rc = cli.main(["tile-check", "--body", square_file, "--lattice", "1.0000005 0; 0 1"])
    err = capsys.readouterr().err
    assert rc == 2 and "covolume" in err and "Traceback" not in err
    out = str(tmp_path / "tile.csv")
    assert cli.main(["tile-check", "--body", square_file, "--out", out]) == 0
    assert json.load(open(out + ".manifest.json"))["tolerances"]["covolume_tol"] == 1e-10


def test_classify_labels(square_file, hexagon_file, octagon_file, disc_file,
                         capsys):
    assert cli.main(["classify", "--body", square_file]) == 0
    assert capsys.readouterr().out.strip() == "spectral symmetric_quadrilateral"
    assert cli.main(["classify", "--body", hexagon_file]) == 0
    assert capsys.readouterr().out.strip() == "spectral symmetric_hexagon"
    assert cli.main(["classify", "--body", octagon_file]) == 1
    assert capsys.readouterr().out.strip() == "not_spectral polygon_n_ge_4"
    assert cli.main(["classify", "--body", disc_file]) == 1
    assert capsys.readouterr().out.strip() == "not_spectral not_polygon"


def test_certify_octagon(octagon_file, tmp_path, capsys):
    out = str(tmp_path / "cert.csv")
    rc = cli.main(["certify", "--body", octagon_file, "--out", out])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("fan_pigeonhole")
    assert "recheck pass" in stdout
    lines = open(out).read().splitlines()
    assert lines[0] == "i,j,k,area"
    assert len(lines) == 7


def test_certify_square_is_input_error(square_file, capsys):
    rc = cli.main(["certify", "--body", square_file])
    assert rc == 2


def test_ball_align_disc(disc_file, capsys):
    rc = cli.main(["ball-align", "--body", disc_file, "--A", "1",
                   "--window", "20,40", "--eps", "0.05", "--step", "0.05"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("beta")


def test_slab_align_builds_no_zero_point(hexagon_file, hexagon_h0, tmp_path, monkeypatch):
    # slab-align only counts its zeros: no ZeroPoint is made for them
    argv = ["slab-align", "--body", hexagon_file, "--A", "3", "--R-list", "50,100"]
    assert cli.main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    want = zeroset.slab_zero_alignment(hexagon_h0, 3.0, [50.0, 100.0])

    def refused(*args):
        raise AssertionError("a ZeroPoint was built")
    monkeypatch.setattr(zeroset, "ZeroPoint", refused)
    assert cli.main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    got = zeroset.slab_zero_alignment(hexagon_h0, 3.0, [50.0, 100.0])
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
    for g, w in zip(got, want):
        assert np.array_equal(g.points, w.points) and np.array_equal(g.residuals, w.residuals)
        assert (g.max_dist, g.mean_dist) == (w.max_dist, w.mean_dist)
    monkeypatch.undo()
    # the zeros view holds the same points and residuals, row for row
    for rep in got:
        assert len(rep.zeros) == len(rep.points) > 1000
        assert [(*z.xi, z.residual) for z in rep.zeros] == [
            (*p, r) for p, r in zip(rep.points.tolist(), rep.residuals.tolist())]


def test_ball_align_csv_rows_are_its_zeros(disc_file, disc_body, tmp_path):
    out = tmp_path / "ball.csv"
    assert cli.main(["ball-align", "--body", disc_file, "--A", "1", "--window", "20,40",
                     "--eps", "0.05", "--step", "0.05", "--out", str(out)]) == 0
    rep = zeroset.ball_zero_alignment(disc_body, 1.0, 0.05, (20.0, 40.0), step=0.05)
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[0] == ["xi1", "xi2", "residual"] and len(rows) == 21
    assert rows[1:] == [["%.17g" % v for v in (*z.xi, z.residual)] for z in rep.zeros]
    assert [(*z.xi, z.residual) for z in rep.zeros] == [
        (*p, r) for p, r in zip(rep.points.tolist(), rep.residuals.tolist())]
    # the first of the 20 zeros lies on the line xi2 = -11/12, near xi1 = 40.24
    assert float(rows[1][0]) == pytest.approx(40.238616185480943, abs=1e-9)
    assert float(rows[1][1]) == -0.91666666666666663


def test_ball_align_diamond_reports_no_blowup(tmp_path, diamond_body, capsys):
    path = write_body(tmp_path / "diamond.json", diamond_body)
    rc = cli.main(["ball-align", "--body", path, "--A", "1",
                   "--window", "5,20"])
    assert rc == 1
    assert "property check failed" in capsys.readouterr().err


def test_cap_scan_parabola(tmp_path, parabola_capped, capsys):
    path = write_body(tmp_path / "pcap.json", parabola_capped)
    rc = cli.main(["cap-scan", "--body", path, "--delta", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ratio" in out


def test_cap_scan_flat_cap_fails(square_file, capsys):
    rc = cli.main(["cap-scan", "--body", square_file, "--delta", "0.1"])
    assert rc == 1


def test_cap_scan_reads_a_flat_graph_body_as_its_polygon(tmp_path, capsys):
    # one hexagon, written as a polygon and as a graph body with pw heights
    poly = validate_polygon([(0.5, -0.6), (0.5, 0.6), (0.0, 0.8),
                             (-0.5, 0.6), (-0.5, -0.6), (0.0, -0.8)])
    f = heights.piecewise([-0.5, 0.0, 0.5], [0.6, 0.8, 0.6])
    lines = []
    for name, body in (("poly", poly), ("graph", GraphBody(-0.5, 0.5, f, f))):
        path = write_body(tmp_path / f"{name}.json", body)
        assert cli.main(["cap-scan", "--body", path, "--delta", "0.1"]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]


def test_cap_scan_measures_a_curved_cap_from_y_one_half(tmp_path, capsys):
    f = heights.polynomial([0.85, 0.0, -1.0])
    path = write_body(tmp_path / "p.json", GraphBody(-0.5, 0.5, f, f))
    assert cli.main(["cap-scan", "--body", path, "--delta", "0.1"]) == 0
    assert capsys.readouterr().out == "R 1  |transform| 0.0506606  ratio 2.66635\n"


@pytest.mark.parametrize("f, message", [
    (heights.semicircle(0.5), "does not contain the unit square"),
    (heights.power(0.5), "does not contain the unit square"),
    (heights.polynomial([0.75, 0.0, -1.0], -0.3, 0.3), r"slab \|x\| <= 1/2"),
], ids=["disc", "power", "narrow_parabola"])
def test_cap_scan_refuses_curved_bodies_outside_standard_position(f, message, tmp_path,
                                                                 capsys):
    path = write_body(tmp_path / "b.json", GraphBody(f.a, f.b, f, f))
    assert cli.main(["cap-scan", "--body", path, "--delta", "0.1"]) == 2
    assert re.search(message, capsys.readouterr().err)


def test_ball_align_refuses_a_polygon_just_inside_the_slab(tmp_path, capsys):
    w = 0.5 - 2e-9
    path = write_body(tmp_path / "narrow.json",
                      validate_polygon([(w, -0.5), (w, 0.5), (-w, 0.5), (-w, -0.5)]))
    assert cli.main(["ball-align", "--body", path, "--A", "1", "--window", "5,8",
                     "--step", "0.1"]) == 2
    assert "must span exactly the slab" in capsys.readouterr().err


def test_oversized_scan_grid_is_refused_before_allocating(hexagon_file, capsys):
    t0 = time.monotonic()
    rc = cli.main(["slab-align", "--body", hexagon_file, "--A", "3", "--R-list", "50",
                   "--step", "1e-5"])
    assert rc == 2 and time.monotonic() - t0 < 1.0
    assert "scan grid too large" in capsys.readouterr().err


def test_cap_scan_flat_graph_outside_standard_position(tmp_path, diamond_body, capsys):
    path = write_body(tmp_path / "diamond.json", diamond_body)
    assert cli.main(["cap-scan", "--body", path, "--delta", "0.1"]) == 2
    assert "does not contain the unit square" in capsys.readouterr().err


def test_gap_check_unconverged_perimeter_is_input_error(tmp_path, capsys):
    f = heights.power(0.05)
    path = write_body(tmp_path / "steep.json", GraphBody(-0.5, 0.5, f, f))
    assert cli.main(["gap-check", "--body", path, "--lattice", "1 0; 0 1"]) == 2
    err = capsys.readouterr().err
    assert "did not converge" in err and "Traceback" not in err


def test_slab_align_square(square_file, capsys):
    rc = cli.main(["slab-align", "--body", square_file, "--A", "2",
                   "--R-list", "20", "--step", "0.1"])
    assert rc == 0
    assert "max dist" in capsys.readouterr().out


def test_missing_body_file_is_input_error(capsys):
    rc = cli.main(["ft", "--body", "/nonexistent/x.json", "--xi", "0,0"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_nonconvex_body_is_input_error(tmp_path, capsys):
    p = tmp_path / "nc.json"
    p.write_text(json.dumps({"type": "polygon",
                             "vertices": [[0, 0], [2, 0], [1, 0.1],
                                          [2, 2], [0, 2]]}))
    rc = cli.main(["ft", "--body", str(p), "--xi", "1,1"])
    assert rc == 2


# finite sizes whose counts overflow to inf, or would print hundreds of digits:
# each is refused by the memory guard before anything is allocated
_OVERFLOWING = [
    ["spectrum-check", "--body", "{square}", "--lattice", "1 0; 0 1", "--radius", "1e308"],
    ["density", "--lattice", "1 0; 0 1", "--radius", "1e308"],
    ["ft", "--body", "{disc}", "--xi=1.7e308,1.7e308"],
    ["ball-align", "--body", "{disc}", "--window", "1e307,1.7e308"],
    ["slab-align", "--body", "{square}", "--R-list", "50", "--A", "1e308", "--step", "1e-300"],
    ["zeros", "--body", "{square}", "--xi=1e308,0.3", "--xi=-1e308,0.3"],
    ["zeros", "--body", "{disc}", "--xi=1e308,0.3", "--xi=-1e308,0.3"],
    ["gap-check", "--body", "{square}", "--lattice", "1e-150 0; 0 1e-150"],
    # orthogonal with covolume 1, but 1e300 rows: too fine to enumerate
    ["gap-check", "--body", "{square}", "--lattice", "1e300 0; 0 1e-300"],
    ["tile-check", "--body", "{square}", "--lattice", "1e300 0; 0 1e-300"],
    ["density", "--lattice", "1e-300 0; 0 1e300", "--radius", "2"],
    ["ft", "--body", "{square}", "--xi=1e200,1e200"],
    ["ft", "--body", "{square}", "--xi=1e308,1e308"],
    ["slab-align", "--body", "{square}", "--R-list", "1e308"],
    ["ball-align", "--body", "{disc}", "--A", "1e308", "--window", "20,40"],
]


@pytest.mark.parametrize("argv", [
    ["density", "--lattice", "1 0; 0 1", "--radius", "0"],
    ["slab-align", "--body", "{square}", "--R-list", "50", "--step", "0"],
    ["ball-align", "--body", "{square}", "--window", "20,40", "--step", "0"],
    ["ball-align", "--body", "{square}", "--window", "20,40", "--eps", "-1"],
    ["cap-scan", "--body", "{hexagon}", "--delta", "0"],
    ["cap-scan", "--body", "{hexagon}", "--delta", "-0.1"],
    ["cap-scan", "--body", "{hexagon}", "--delta", "0.1", "--window", "inf,10"],
    ["ft", "--body", "{square}", "--xi=nan,1"],
    ["ft", "--body", "{square}", "--xi=1,-inf"],
    ["spectrum-check", "--body", "{square}", "--lattice", "1 0; 0 1", "--radius", "-1"],
    ["zeros", "--body", "{square}", "--xi=0.5,0.5", "--xi=3.5,0.5", "--samples", "-4"],
    # no flag moves a check's threshold: --C 20 once passed 10 Z^2, --tol 0.5
    # the octagon, and --tol 1e-9 was the default
    ["gap-check", "--body", "{square}", "--lattice", "10 0; 0 10", "--C", "20"],
    ["gap-check", "--body", "{square}", "--lattice", "1 0; 0 1", "--radius", "100"],
    ["spectrum-check", "--body", "{octagon}", "--lattice", "{octagon_lattice}",
     "--radius", "4", "--tol", "0.5"],
    ["zeros", "--body", "{square}", "--xi=0.5,0.5", "--xi=3.5,0.5", "--tol", "1e-9"],
    ["tile-check", "--body", "{square}", "--samples", "-3"],
    ["tile-check", "--body", "{square}", "--samples", "0"],
    ["classify", "--body", "{square}", "--out", "{nodir}/x.csv"],
    ["slab-align", "--body", "{square}", "--A", "1", "--R-list", "50", "--step", "5"],
    ["ball-align", "--body", "{disc}", "--A", "1", "--window", "20,40", "--step", "2"],
    ["cap-scan", "--body", "{hexagon}", "--delta", "0.1", "--window", "10,0.1"],
    ["ball-align", "--body", "{disc}", "--A", "1", "--window", "30,20", "--eps", "0.05"],
    # past 2**53 coefficient pairs a row's bounds are no longer exact integers
    ["density", "--lattice", "1e8 0; 0 1e-8", "--radius", "1e9"],
    # (2R)^2 underflows to 0, or 1/(2R)^2 overflows: no finite density
    ["density", "--lattice", "1 0; 0 1", "--radius", "1e-300"],
    ["density", "--lattice", "1 0; 0 1", "--radius", "1e-160"],
    ["cap-scan", "--body", "{hexagon}", "--delta", "1e-320"],
    ["tile-check", "--body", "{square}", "--samples", "100000000000"],
    *_OVERFLOWING,
])
def test_bad_input_exits_2_without_traceback(argv, square_file, hexagon_file, disc_file,
                                             octagon_file, tmp_path, capsys):
    argv = [a.format(square=square_file, hexagon=hexagon_file, disc=disc_file,
                     octagon=octagon_file, octagon_lattice=_OCTAGON_LATTICE,
                     nodir=tmp_path / "nodir") for a in argv]
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "reshape" not in err
    # a message reports nan only when the input held one
    assert "nan" not in err or any("nan" in a for a in argv)


@pytest.mark.parametrize("argv", _OVERFLOWING)
def test_overflowing_sizes_are_refused_in_one_line(argv, square_file, disc_file, capsys):
    argv = [a.format(square=square_file, disc=disc_file) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "too large" in line, line
    # counts print in %.3g, never as a many-digit integer
    assert not re.search(r"\d{12}", line), line


@pytest.mark.parametrize("samples", ["-3", "0"])
def test_tile_check_sample_count_is_refused_by_the_library_in_one_line(samples, square_file,
                                                                       capsys):
    assert cli.main(["tile-check", "--body", square_file, "--samples", samples]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: verify_tiling needs at least 1 sample, got {samples}"


def test_unwritable_out_is_refused_before_the_subcommand(square_file, tmp_path,
                                                         monkeypatch, capsys):
    # the cached parser holds the subcommand itself: stub the library call
    def must_not_run(*args, **kwargs):
        raise AssertionError("the subcommand ran")
    monkeypatch.setattr(cli, "slab_zero_alignment", must_not_run)
    out = tmp_path / "nodir" / "x.csv"
    rc = cli.main(["slab-align", "--body", square_file, "--R-list", "20", "--out", str(out)])
    assert rc == 2
    assert "error: cannot write output" in capsys.readouterr().err
    assert not (tmp_path / "nodir").exists()


_SLAB = '"type": "graph", "a": -0.5, "b": 0.5'


@pytest.mark.parametrize("command, text, message", [
    ("ft", '{%s, "f": {"kind": "pw", "knots": [-0.5, 0.5], "values": [0.5, Infinity]},'
           ' "g": {"kind": "tent"}}' % _SLAB, "values must be finite"),
    ("classify", '{%s, "f": {"kind": "poly", "coeffs": [NaN]},'
                 ' "g": {"kind": "poly", "coeffs": [NaN]}}' % _SLAB, "coeffs must be finite"),
    ("classify", '{%s, "f": {"kind": "power", "p": 0}, "g": {"kind": "power", "p": 0}}'
                 % _SLAB, r"p must be in \(0, 1\]"),
    ("classify", '{%s, "f": {"kind": "power", "p": 0.5, "scale": -1}, "g": {"kind": "tent"}}'
                 % _SLAB, "scale must be >= 0"),
    ("classify", '{%s, "f": {"kind": "pw", "knots": [], "values": []}, "g": {"kind": "tent"}}'
                 % _SLAB, r"\$\.f: pw height"),
    ("gap-check", '{%s, "f": {"kind": "poly", "coeffs": []}, "g": {"kind": "poly", "coeffs": []}}'
                  % _SLAB, "zero area"),
    ("classify", '{"type": "polygon", "vertices": [[0, 0], [1, NaN], [0, 1]]}', "finite"),
    ("classify", '{%s, "f": {"kind": "pw", "knots": [-0.5, 0.0011, 0.0012, 0.0013, 0.5],'
                 ' "values": [0.5, 0.7, 0.69, 0.7, 0.5]}, "g": {"kind": "poly", "coeffs": [0.5]}}'
                 % _SLAB, "f is not concave"),
    # one number rule: an int or a float, never a bool or a numeric string
    ("classify", '{%s, "f": {"kind": "pw", "knots": [-0.5, 0, 0.5], "values": [false, true, false]},'
                 ' "g": {"kind": "pw", "knots": [-0.5, 0, 0.5], "values": [false, true, false]}}'
                 % _SLAB, r"\$\.f\.values\[0\]: expected a number, got False"),
    ("classify", '{"type": "polygon", "vertices": [[true, 0], [0, true], [-1, 0], [0, -1]]}',
     r"\$\.vertices\[0\]: expected \[x, y\]"),
    ("classify", '{"type": "graph", "a": "-0.5", "b": 0.5, "f": {"kind": "tent"},'
                 ' "g": {"kind": "tent"}}', r"\$\.a/\$\.b: expected numbers"),
    ("classify", '{%s, "f": {"kind": "poly", "coeffs": ["0.75", 0, -1]},'
                 ' "g": {"kind": "poly", "coeffs": [0.75, 0, -1]}}' % _SLAB,
     r"\$\.f\.coeffs\[0\]: expected a number, got '0\.75'"),
    ("classify", '{"type": "graph", "a": -0.5, "b": 0.5, "f": {"kind": "semicircle", "r": "0.5"},'
                 ' "g": {"kind": "semicircle", "r": 0.5}}', r"\$\.f\.r: expected a number, got '0\.5'"),
    # JSON integers past the float range
    ("classify", '{"type": "polygon", "vertices": [[1%s, 0], [0, 1], [-1, 0], [0, -1]]}'
     % ("0" * 400), r"\$\.vertices\[0\]: expected \[x, y\]"),
    ("classify", '{%s, "f": {"kind": "poly", "coeffs": [1%s]}, "g": {"kind": "tent"}}'
     % (_SLAB, "0" * 400), r"\$\.f\.coeffs\[0\]: expected a number, got 1000"),
], ids=["pw_infinity", "poly_nan", "power_p0", "power_negative_scale", "pw_empty",
        "zero_area", "polygon_nan", "pw_dip_between_samples", "pw_bools", "polygon_bools",
        "a_string", "coeffs_string", "r_string", "polygon_huge_int", "coeffs_huge_int"])
def test_bad_body_file_exits_2(command, text, message, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(text)
    argv = [command, "--body", str(p)]
    argv += {"ft": ["--xi", "0.5,0.5"], "gap-check": ["--lattice", "1 0; 0 1"]}.get(command, [])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(message, err), err


def test_certify_flat_graph_octagon(tmp_path, capsys):
    # two top knots 2e-4 apart: an octagon read exactly from its knots
    f = heights.piecewise([-0.5, -1e-4, 1e-4, 0.5], [0.5, 0.75, 0.75, 0.5])
    path = write_body(tmp_path / "oct.json", GraphBody(-0.5, 0.5, f, f))
    assert cli.main(["classify", "--body", path]) == 1
    assert capsys.readouterr().out.strip() == "not_spectral polygon_n_ge_4"
    assert cli.main(["certify", "--body", path]) == 0
    assert "recheck pass" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["ft", "--body", "{square}", "--xi", "0.5,0.5"],
    ["zeros", "--body", "{square}", "--xi", "0.25,0", "--xi", "2.5,0"],
    ["slab-align", "--body", "{square}", "--A", "1", "--R-list", "10", "--step", "0.1"],
    ["ball-align", "--body", "{square}", "--A", "1", "--window", "5,8", "--step", "0.1"],
    ["spectrum-check", "--body", "{square}", "--lattice", "1 0; 0 1", "--radius", "3"],
    ["density", "--lattice", "1 0; 0 1", "--radius", "3"],
    ["gap-check", "--body", "{square}", "--lattice", "1 0; 0 1"],
    ["tile-check", "--body", "{square}", "--samples", "100"],
    ["classify", "--body", "{square}"],
    ["certify", "--body", "{octagon}"],
    ["cap-scan", "--body", "{hexagon}", "--delta", "0.2"],
])
def test_every_subcommand_writes_csv_and_manifest(argv, square_file, hexagon_file,
                                                  octagon_file, tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    argv = [a.format(square=square_file, hexagon=hexagon_file, octagon=octagon_file)
            for a in argv]
    assert cli.main(argv + ["--out", out]) == 0
    assert len(open(out).read().splitlines()) >= 2
    man = json.load(open(out + ".manifest.json"))
    assert man["command"] == argv[0]
    assert man["parameters"]["out"] == out
    assert ("body" in man["parameters"]) == (argv[0] != "density")
