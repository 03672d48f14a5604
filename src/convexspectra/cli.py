"""Batch command-line front end.

Subcommands wrap the library one computation per invocation, reading bodies
from small JSON files and writing CSV with a JSON manifest sidecar so any
run can be reproduced from its own output directory.

Exit codes: 0 success / property holds, 1 checked property fails,
2 bad input or usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, heights
from .errors import (BodyParseError, BodyValidationError, ConvexSpectraError,
                     NoBlowupError, NotTileableError, NoZerosFoundError)
from .fourier import (_PANEL_TOL, QUAD_TOL, SINGULAR_THRESHOLD, ZERO_TOL, cap_lower_bound_scan,
                      ft_body)
from .geometry import (ConvexBody, ConvexPolygon, GraphBody, Lattice, as_polygon,
                       decompose_caps, validate_polygon)
from .obstruction import check_certificate, nonspectral_certificate
from .spectra import landau_density, orthogonality_check, spectral_gap_check
from .tiling import COVOLUME_TOL, classify, covolume_is, tiling_lattice, verify_tiling
from .zeroset import (DEFAULT_SCAN_STEP, ball_zero_alignment,
                      slab_zero_alignment, zeros_on_segment)

# property failures exit 1; everything else package-specific is bad input (2)
_PROPERTY_ERRORS = (NoBlowupError, NoZerosFoundError, NotTileableError)


# ---------------------------------------------------------------------------
# body files


def parse_body_file(path: str) -> ConvexBody:
    """Read a JSON body description and return a validated body.

    {"type": "polygon", "vertices": [[x, y], ...]}
    {"type": "graph", "a": ..., "b": ..., "f": descriptor, "g": descriptor}
    descriptor: {"kind": "poly", "coeffs": [...]} | {"kind": "tent"}
              | {"kind": "semicircle", "r": ...}
              | {"kind": "pw", "knots": [...], "values": [...]}
              | {"kind": "power", "p": ..., "scale": ...}
    A power height needs 0 < p <= 1 and scale >= 0 (default 1).  Non-finite
    numbers (JSON NaN, Infinity) are rejected, and f + g must enclose
    positive area.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise BodyParseError(f"{path}: cannot read ({e})") from e
    except json.JSONDecodeError as e:
        raise BodyParseError(f"{path}: not valid JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise BodyParseError(f"{path}: $: expected an object")
    kind = doc.get("type")
    if kind == "polygon":
        verts = doc.get("vertices")
        if not isinstance(verts, list) or len(verts) < 3:
            raise BodyParseError(f"{path}: $.vertices: need a list of at least 3 points")
        for i, p in enumerate(verts):
            if (not isinstance(p, (list, tuple)) or len(p) != 2
                    or not all(isinstance(c, (int, float)) for c in p)):
                raise BodyParseError(f"{path}: $.vertices[{i}]: expected [x, y]")
        try:
            return validate_polygon(np.asarray(verts, dtype=float))
        except ConvexSpectraError as e:
            raise BodyValidationError(f"{path}: $.vertices: {e}") from e
    if kind == "graph":
        try:
            a, b = float(doc["a"]), float(doc["b"])
        except (KeyError, TypeError, ValueError) as e:
            raise BodyParseError(f"{path}: $.a/$.b: expected numbers") from e
        fns = {}
        for field in ("f", "g"):
            d = doc.get(field)
            if not isinstance(d, dict):
                raise BodyParseError(f"{path}: $.{field}: expected a descriptor object")
            try:
                fns[field] = heights.from_descriptor(d, a, b, path=f"$.{field}")
            except ConvexSpectraError as e:
                raise BodyParseError(f"{path}: {e}") from e
        try:
            body = GraphBody(a, b, fns["f"], fns["g"])
        except ConvexSpectraError as e:
            raise BodyValidationError(f"{path}: $: {e}") from e
        if not body.area > 0.0:
            raise BodyValidationError(f"{path}: $: f + g encloses zero area")
        return body
    raise BodyParseError(f"{path}: $.type: expected \"polygon\" or \"graph\", got {kind!r}")


# ---------------------------------------------------------------------------
# small parsers and formatting


def _parse_numbers(text: str, flag: str, count: int | None = None) -> list[float]:
    """Comma- or space-separated finite numbers; exactly count of them if given."""
    try:
        vals = [float(t) for t in text.replace(",", " ").split()]
    except ValueError:
        vals = [math.nan]
    if not (vals and all(map(math.isfinite, vals)) and count in (None, len(vals))):
        raise BodyParseError(f"{flag}: expected {count or 'a list of'} finite numbers, "
                             f"got {text!r}")
    return vals


def _checked(cast, ok, what: str):
    """argparse type= callable: cast the text, reject it unless ok(value)."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive = _checked(float, lambda v: 0.0 < v < math.inf, "a positive number")


def parse_lattice(text: str) -> Lattice:
    """Basis syntax "a b; c d": matrix rows; the columns are the generators."""
    rows = [r for r in text.split(";") if r.strip()]
    if len(rows) != 2:
        raise BodyParseError(f"--lattice: expected \"a b; c d\", got {text!r}")
    mat = np.array([_parse_numbers(r, "--lattice", 2) for r in rows])
    try:
        return Lattice.from_matrix(mat)
    except ConvexSpectraError as e:
        raise BodyValidationError(f"--lattice: {e}") from e


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_manifest(args: argparse.Namespace, tolerances: dict, t0: float) -> None:
    params = {k: v for k, v in vars(args).items() if k != "func"}
    doc = {
        "command": args.command,
        "parameters": params,
        "tolerances": tolerances,
        "versions": {
            "convexspectra": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, default=str)
        fh.write("\n")


def _require_polygon(body: ConvexBody, what: str) -> ConvexPolygon:
    poly = as_polygon(body)
    if poly is None:
        raise NotTileableError(f"{what} needs a polygonal body")
    return poly


# ---------------------------------------------------------------------------
# subcommands: each prints its summary and returns
# (exit code, CSV header, CSV rows, manifest tolerances)


def _cmd_ft(args, body):
    rows = []
    for spec in args.xi:
        xi = _parse_numbers(spec, "--xi", 2)
        s = ft_body(body, xi)
        rows.append([xi[0], xi[1], s.value.real, s.value.imag, s.err,
                     s.method, s.converged])
        v = s.value
        if abs(v.imag) <= 1e-9 * max(1.0, abs(v.real)):
            print("%.6g" % v.real)
        else:
            print("%.6g%+.6gj" % (v.real, v.imag))
    return (0, ["xi1", "xi2", "re", "im", "abs_err", "method", "converged"], rows,
            {"singular_threshold": SINGULAR_THRESHOLD, "panel_tol": _PANEL_TOL})


def _cmd_zeros(args, body):
    if len(args.xi) != 2:
        raise BodyParseError("zeros: pass --xi twice (segment start and end)")
    p0, p1 = (_parse_numbers(x, "--xi", 2) for x in args.xi)
    zs = zeros_on_segment(body, p0, p1)
    for z in zs:
        print("%.12g %.12g  residual %.3g" % (z.xi[0], z.xi[1], z.residual))
    print(f"{len(zs)} zeros on segment")
    return (0, ["xi1", "xi2", "residual"],
            [[z.xi[0], z.xi[1], z.residual] for z in zs],
            {"residual_tol": ZERO_TOL})


def _cmd_slab_align(args, body):
    r_list = _parse_numbers(args.R_list, "--R-list")
    reports = slab_zero_alignment(body, args.A, r_list, step=args.step)
    rows = []
    for rep in reports:
        r_lo, r_hi = rep.params[1]
        print("R in [%g, %g]: %d zeros, max dist %.6g, mean %.6g"
              % (r_lo, r_hi, len(rep.zeros), rep.max_dist, rep.mean_dist))
        rows.append([r_lo, r_hi, len(rep.zeros), rep.max_dist, rep.mean_dist])
    return (0, ["R_lo", "R_hi", "n_zeros", "max_dist", "mean_dist"], rows,
            {"step": args.step, "target": "punctured integer grid"})


def _cmd_ball_align(args, body):
    window = _parse_numbers(args.window, "--window", 2)
    rep = ball_zero_alignment(body, args.A, args.eps, window, step=args.step)
    print("beta %.6g  max dist %.6g  mean %.6g  (%d zeros)"
          % (rep.beta, rep.max_dist, rep.mean_dist, len(rep.zeros)))
    return (0, ["xi1", "xi2", "residual"],
            [[z.xi[0], z.xi[1], z.residual] for z in rep.zeros],
            {"eps": args.eps, "step": args.step, "beta": rep.beta})


def _cmd_spectrum_check(args, body):
    # a lattice is a spectrum iff it is orthogonal and its density is the area
    lat = parse_lattice(args.lattice)
    orthogonal, (worst_pt, worst_val) = orthogonality_check(body, lat, args.radius)
    density, a = 1.0 / lat.covolume, body.area
    dense = covolume_is(lat, 1.0 / a)
    ok = orthogonal and dense
    print("%s  worst |transform| %.6g at (%.6g, %.6g)"
          % ("pass" if ok else "fail", worst_val, worst_pt.x, worst_pt.y))
    if not dense:
        print("density %.12g differs from area %.12g" % (density, a))
    return (0 if ok else 1, ["pass", "worst_xi1", "worst_xi2", "worst_abs"],
            [[ok, worst_pt.x, worst_pt.y, worst_val]],
            {"orthogonality_tol": ZERO_TOL, "covolume_tol": COVOLUME_TOL})


def _cmd_density(args, body):
    rep = landau_density(parse_lattice(args.lattice), args.radius)
    print("R %g  D+ %d  D- %d  normalized %.17g / %.17g"
          % (rep.R, rep.D_plus, rep.D_minus, rep.normalized_plus,
             rep.normalized_minus))
    return (0, ["R", "D_plus", "D_minus", "normalized_plus", "normalized_minus"],
            [[rep.R, rep.D_plus, rep.D_minus, rep.normalized_plus,
              rep.normalized_minus]],
            {"cube_boundary": "closed"})


def _cmd_gap_check(args, body):
    ok, largest, r_star = spectral_gap_check(body, parse_lattice(args.lattice))
    print("%s  largest empty half-side %.6g  (bound %.6g)"
          % ("pass" if ok else "fail", largest, r_star))
    return (0 if ok else 1, ["pass", "largest_empty", "bound"],
            [[ok, largest, r_star]], {})


def _cmd_tile_check(args, body):
    poly = _require_polygon(body, "tile-check")
    lat = parse_lattice(args.lattice) if args.lattice else tiling_lattice(poly)
    ok, bad = verify_tiling(poly, lat, samples=args.samples, seed=args.seed)
    print("%s  lattice (%.12g, %.12g), (%.12g, %.12g)  bad samples %d"
          % ("pass" if ok else "fail", lat.g1.x, lat.g1.y, lat.g2.x, lat.g2.y,
             len(bad)))
    return (0 if ok else 1, ["pass", "g1x", "g1y", "g2x", "g2y", "n_bad"],
            [[ok, lat.g1.x, lat.g1.y, lat.g2.x, lat.g2.y, len(bad)]],
            {"covolume_tol": COVOLUME_TOL, "samples": args.samples})


def _cmd_classify(args, body):
    verdict = classify(body)
    label = "spectral" if verdict.spectral else "not_spectral"
    print(f"{label} {verdict.reason}")
    row = [label, verdict.reason, verdict.tiles]
    header = ["verdict", "reason", "tiles"]
    if verdict.lattice is not None:
        header += ["g1x", "g1y", "g2x", "g2y"]
        row += [verdict.lattice.g1.x, verdict.lattice.g1.y,
                verdict.lattice.g2.x, verdict.lattice.g2.y]
    return 0 if verdict.spectral else 1, header, [row], {}


def _cmd_certify(args, body):
    poly = _require_polygon(body, "certify")
    cert = nonspectral_certificate(poly)
    ok = check_certificate(poly, cert)
    amin = min(a for _, a in cert.triangles)
    print("%s  min triangle %.6g  margin %.6g  area %.6g  recheck %s"
          % (cert.kind, amin, cert.margin, cert.omega_area,
             "pass" if ok else "FAIL"))
    return (0 if ok else 1, ["i", "j", "k", "area"],
            [[*idx, a] for idx, a in cert.triangles],
            {"kind": cert.kind, "margin": cert.margin})


def _cmd_cap_scan(args, body):
    f = decompose_caps(as_polygon(body) or body)[1].f
    window = _parse_numbers(args.window, "--window", 2)
    res = cap_lower_bound_scan(f, args.delta, window)
    print("R %.12g  |transform| %.6g  ratio %.6g"
          % (res.R, res.value, res.ratio))
    code = 0
    if math.isnan(res.ratio):
        print("cap is identically zero; no lower bound", file=sys.stderr)
        code = 1
    return (code, ["R", "value", "ratio", "delta", "window_lo", "window_hi",
                   "grid_step"],
            [[res.R, res.value, res.ratio, res.delta, res.window[0],
              res.window[1], res.grid_step]],
            {"quad_tol": QUAD_TOL})


# ---------------------------------------------------------------------------
# parser


@functools.cache  # once per process: building takes about 40 times as long as a parse
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="convexspectra",
        description="Fourier transforms, zero sets, spectra, tilings, and "
                    "non-spectrality certificates for convex planar bodies.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, body=True):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=fn)
        sp.add_argument("--out", help="CSV output path (manifest written alongside)")
        if body:
            sp.add_argument("--body", required=True)
        return sp

    sp = add("ft", _cmd_ft, "evaluate the transform at given frequencies")
    sp.add_argument("--xi", action="append", required=True,
                    help="frequency as x,y (repeatable)")

    sp = add("zeros", _cmd_zeros, "locate transform zeros on a segment")
    sp.add_argument("--xi", action="append", required=True,
                    help="segment endpoint as x,y (pass twice)")

    sp = add("slab-align", _cmd_slab_align,
             "zero alignment with the punctured integer grid in slabs")
    sp.add_argument("--A", type=_positive, default=3.0, help="slab half-height")
    sp.add_argument("--R-list", dest="R_list", required=True,
                    help="comma-separated slab offsets")
    sp.add_argument("--step", type=_positive, default=DEFAULT_SCAN_STEP,
                    help="spacing of the horizontal scan lines")

    sp = add("ball-align", _cmd_ball_align,
             "best shifted-grid fit of zeros in balls along the axis")
    sp.add_argument("--A", type=_positive, default=2.0, help="ball radius")
    sp.add_argument("--window", required=True, help="R range as lo,hi")
    sp.add_argument("--eps", type=_positive, default=0.1,
                    help="scale-gate tolerance")
    sp.add_argument("--step", type=_positive, default=DEFAULT_SCAN_STEP,
                    help="shortest horizontal chord scanned")

    sp = add("spectrum-check", _cmd_spectrum_check,
             "orthogonality and density of a lattice candidate spectrum")
    sp.add_argument("--lattice", required=True, help='basis "a b; c d" (columns)')
    sp.add_argument("--radius", type=_positive, required=True)

    sp = add("density", _cmd_density, "Landau counting density of a lattice",
             body=False)
    sp.add_argument("--lattice", required=True)
    sp.add_argument("--radius", type=_positive, required=True,
                    help="cube half-side R")

    sp = add("gap-check", _cmd_gap_check,
             "no large empty cubes in a candidate spectrum")
    sp.add_argument("--lattice", required=True)

    sp = add("tile-check", _cmd_tile_check, "verify a lattice tiling by sampling")
    sp.add_argument("--lattice", default=None,
                    help="tiling lattice (default: constructed)")
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)

    add("classify", _cmd_classify, "spectral / not_spectral with reason")
    add("certify", _cmd_certify, "non-spectrality certificate for a symmetric 2n-gon")

    sp = add("cap-scan", _cmd_cap_scan,
             "lower-bound scan of a cap height transform")
    sp.add_argument("--delta", type=_positive, required=True)
    sp.add_argument("--window", default="0.1,10",
                    help="R window as lo,hi in units of 1/delta")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    # an unwritable output is bad input: refuse it before the computation runs
    if args.out and (os.path.isdir(args.out) or not os.access(
            os.path.dirname(args.out) or ".", os.W_OK | os.X_OK)):
        print(f"error: cannot write output: {args.out}: no writable directory",
              file=sys.stderr)
        return 2
    try:
        body = parse_body_file(args.body) if "body" in args else None
        code, header, rows, tolerances = args.func(args, body)
    except _PROPERTY_ERRORS as e:
        print(f"property check failed: {e}", file=sys.stderr)
        return 1
    except (ConvexSpectraError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.out:
        try:
            _write_csv(args.out, header, rows)
            _write_manifest(args, tolerances, t0)
        except OSError as e:
            print(f"error: cannot write output: {e}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
