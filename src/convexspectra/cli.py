"""Batch command-line front end.

Subcommands wrap the library one computation per invocation, reading bodies
from small JSON files and writing CSV with a JSON manifest sidecar so any
run can be reproduced from its own output directory.

Exit codes: 0 success / property holds, 1 checked property fails,
2 bad input or usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__, heights
from .errors import (BodyParseError, BodyValidationError, ConvexSpectraError,
                     NoBlowupError, NotTileableError, NoZerosFoundError)
from .fourier import QUAD_TOL, SINGULAR_THRESHOLD, cap_lower_bound_scan, ft_body
from .geometry import (ConvexBody, ConvexPolygon, GraphBody, Lattice,
                       decompose_caps, measures, validate_polygon)
from .obstruction import check_certificate, nonspectral_certificate
from .spectra import (SpectrumCandidate, landau_density, lattice_points_in_ball,
                      orthogonality_check, spectral_gap_check)
from .tiling import _graph_to_polygon, classify, tiling_lattice, verify_tiling
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
            except (KeyError, TypeError, ValueError) as e:
                raise BodyParseError(f"{path}: $.{field}: {e}") from e
        try:
            return GraphBody(a, b, fns["f"], fns["g"])
        except ConvexSpectraError as e:
            raise BodyValidationError(f"{path}: $: {e}") from e
    raise BodyParseError(f"{path}: $.type: expected \"polygon\" or \"graph\", got {kind!r}")


# ---------------------------------------------------------------------------
# small parsers and formatting


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise BodyParseError(f"{flag}: expected two numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise BodyParseError(f"{flag}: expected two numbers, got {text!r}") from None


def parse_lattice(text: str) -> Lattice:
    """Basis syntax "a b; c d": matrix rows; the columns are the generators."""
    rows = [r for r in text.split(";") if r.strip()]
    if len(rows) != 2:
        raise BodyParseError(f"--lattice: expected \"a b; c d\", got {text!r}")
    mat = []
    for r in rows:
        parts = r.replace(",", " ").split()
        if len(parts) != 2:
            raise BodyParseError(f"--lattice: row {r!r} needs two entries")
        try:
            mat.append([float(parts[0]), float(parts[1])])
        except ValueError:
            raise BodyParseError(f"--lattice: row {r!r} needs two numbers") from None
    try:
        return Lattice.from_matrix(np.array(mat))
    except ConvexSpectraError as e:
        raise BodyValidationError(f"--lattice: {e}") from e


def _parse_list(text: str, flag: str) -> list[float]:
    try:
        vals = [float(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise BodyParseError(f"{flag}: expected comma-separated numbers") from None
    if not vals:
        raise BodyParseError(f"{flag}: empty list")
    return vals


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


def _write_manifest(out: str | None, command: str, args: argparse.Namespace,
                    tolerances: dict, t0: float) -> None:
    if out is None:
        return
    params = {k: v for k, v in vars(args).items() if k != "func"}
    doc = {
        "command": command,
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
    with open(out + ".manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, default=str)
        fh.write("\n")


def _require_polygon(body: ConvexBody, what: str) -> ConvexPolygon:
    if isinstance(body, ConvexPolygon):
        return body
    poly = _graph_to_polygon(body)
    if poly is None:
        raise NotTileableError(f"{what} needs a polygonal body")
    return poly


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ft(args) -> int:
    t0 = time.monotonic()
    body = parse_body_file(args.body)
    rows = []
    for spec in args.xi:
        xi = _parse_pair(spec, "--xi")
        s = ft_body(body, xi)
        rows.append([xi[0], xi[1], s.value.real, s.value.imag, s.err,
                     s.method, s.converged])
        v = s.value
        if abs(v.imag) <= 1e-9 * max(1.0, abs(v.real)):
            print("%.6g" % v.real)
        else:
            print("%.6g%+.6gj" % (v.real, v.imag))
    if args.out:
        _write_csv(args.out, ["xi1", "xi2", "re", "im", "abs_err", "method",
                              "converged"], rows)
    _write_manifest(args.out, "ft", args,
                    {"singular_threshold": SINGULAR_THRESHOLD,
                     "quad_tol": QUAD_TOL}, t0)
    return 0


def _cmd_zeros(args) -> int:
    t0 = time.monotonic()
    body = parse_body_file(args.body)
    if len(args.xi) != 2:
        raise BodyParseError("zeros: pass --xi twice (segment start and end)")
    p0 = _parse_pair(args.xi[0], "--xi")
    p1 = _parse_pair(args.xi[1], "--xi")
    seg_len = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    step = seg_len / args.samples if args.samples else DEFAULT_SCAN_STEP
    zs = zeros_on_segment(body, p0, p1, step=step, tol=args.tol)
    for z in zs:
        print("%.12g %.12g  residual %.3g" % (z.xi[0], z.xi[1], z.residual))
    print(f"{len(zs)} zeros on segment")
    if args.out:
        _write_csv(args.out, ["xi1", "xi2", "residual"],
                   [[z.xi[0], z.xi[1], z.residual] for z in zs])
    _write_manifest(args.out, "zeros", args,
                    {"residual_tol": args.tol, "step": step}, t0)
    return 0


def _cmd_slab_align(args) -> int:
    t0 = time.monotonic()
    body = parse_body_file(args.body)
    r_list = _parse_list(args.R_list, "--R-list")
    reports = slab_zero_alignment(body, args.A, r_list, step=args.step)
    rows = []
    for rep in reports:
        r_lo, r_hi = rep.params[1]
        print("R in [%g, %g]: %d zeros, max dist %.6g, mean %.6g"
              % (r_lo, r_hi, len(rep.zeros), rep.max_dist, rep.mean_dist))
        rows.append([r_lo, r_hi, len(rep.zeros), rep.max_dist, rep.mean_dist])
    if args.out:
        _write_csv(args.out, ["R_lo", "R_hi", "n_zeros", "max_dist", "mean_dist"],
                   rows)
    _write_manifest(args.out, "slab-align", args,
                    {"step": args.step, "target": "punctured integer grid"}, t0)
    return 0


def _cmd_ball_align(args) -> int:
    t0 = time.monotonic()
    body = parse_body_file(args.body)
    window = _parse_pair(args.window, "--window")
    rep = ball_zero_alignment(body, args.A, args.eps, window, step=args.step)
    print("beta %.6g  max dist %.6g  mean %.6g  (%d zeros)"
          % (rep.beta, rep.max_dist, rep.mean_dist, len(rep.zeros)))
    if args.out:
        _write_csv(args.out, ["xi1", "xi2", "residual"],
                   [[z.xi[0], z.xi[1], z.residual] for z in rep.zeros])
    _write_manifest(args.out, "ball-align", args,
                    {"eps": args.eps, "step": args.step, "beta": rep.beta}, t0)
    return 0


def _cmd_spectrum_check(args) -> int:
    t0 = time.monotonic()
    body = parse_body_file(args.body)
    cand = SpectrumCandidate.from_lattice(parse_lattice(args.lattice))
    ok, (worst_pt, worst_val) = orthogonality_check(body, cand, args.radius,
                                                    tol=args.tol)
    print("%s  worst |transform| %.6g at (%.6g, %.6g)"
          % ("pass" if ok else "fail", worst_val, worst_pt.x, worst_pt.y))
    if args.out:
        _write_csv(args.out, ["pass", "worst_xi1", "worst_xi2", "worst_abs"],
                   [[ok, worst_pt.x, worst_pt.y, worst_val]])
    _write_manifest(args.out, "spectrum-check", args,
                    {"orthogonality_tol": args.tol}, t0)
    return 0 if ok else 1


def _cmd_density(args) -> int:
    t0 = time.monotonic()
    lat = parse_lattice(args.lattice)
    R = args.radius
    # 7x7 center grid over [-R, R]; points must pad each cube by 2R
    g = np.linspace(-R, R, 7)
    centers = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    pts = lattice_points_in_ball(lat, 3.0 * R * math.sqrt(2.0) + 1.0)
    rep = landau_density(pts, R, centers)
    print("R %g  D+ %d  D- %d  normalized %.17g / %.17g"
          % (rep.R, rep.D_plus, rep.D_minus, rep.normalized_plus,
             rep.normalized_minus))
    if args.out:
        _write_csv(args.out, ["R", "D_plus", "D_minus", "normalized_plus",
                              "normalized_minus"],
                   [[rep.R, rep.D_plus, rep.D_minus, rep.normalized_plus,
                     rep.normalized_minus]])
    _write_manifest(args.out, "density", args, {"cube_boundary": "closed"}, t0)
    return 0


def _cmd_gap_check(args) -> int:
    t0 = time.monotonic()
    body = parse_body_file(args.body)
    lat = parse_lattice(args.lattice)
    r_star = args.C * measures(body).perimeter / measures(body).area
    window = args.radius if args.radius else max(8.0 * r_star, 4.0 * r_star + 4.0)
    pts = lattice_points_in_ball(lat, window * math.sqrt(2.0))
    ok, largest = spectral_gap_check(pts, body, C=args.C)
    print("%s  largest empty half-side %.6g  (bound %.6g)"
          % ("pass" if ok else "fail", largest, r_star))
    if args.out:
        _write_csv(args.out, ["pass", "largest_empty", "bound"],
                   [[ok, largest, r_star]])
    _write_manifest(args.out, "gap-check", args, {"C": args.C}, t0)
    return 0 if ok else 1


def _cmd_tile_check(args) -> int:
    t0 = time.monotonic()
    body = parse_body_file(args.body)
    poly = _require_polygon(body, "tile-check")
    lat = parse_lattice(args.lattice) if args.lattice else tiling_lattice(poly)
    ok, bad = verify_tiling(poly, lat, samples=args.samples, seed=args.seed)
    print("%s  lattice (%.12g, %.12g), (%.12g, %.12g)  bad samples %d"
          % ("pass" if ok else "fail", lat.g1.x, lat.g1.y, lat.g2.x, lat.g2.y,
             len(bad)))
    if args.out:
        _write_csv(args.out, ["pass", "g1x", "g1y", "g2x", "g2y", "n_bad"],
                   [[ok, lat.g1.x, lat.g1.y, lat.g2.x, lat.g2.y, len(bad)]])
    _write_manifest(args.out, "tile-check", args,
                    {"covolume_tol": 1e-6, "samples": args.samples}, t0)
    return 0 if ok else 1


def _cmd_classify(args) -> int:
    t0 = time.monotonic()
    body = parse_body_file(args.body)
    verdict = classify(body)
    label = "spectral" if verdict.spectral else "not_spectral"
    print(f"{label} {verdict.reason}")
    if args.out:
        row = [label, verdict.reason, verdict.tiles]
        header = ["verdict", "reason", "tiles"]
        if verdict.lattice is not None:
            header += ["g1x", "g1y", "g2x", "g2y"]
            row += [verdict.lattice.g1.x, verdict.lattice.g1.y,
                    verdict.lattice.g2.x, verdict.lattice.g2.y]
        _write_csv(args.out, header, [row])
    _write_manifest(args.out, "classify", args, {}, t0)
    return 0 if verdict.spectral else 1


def _cmd_certify(args) -> int:
    t0 = time.monotonic()
    body = parse_body_file(args.body)
    poly = _require_polygon(body, "certify")
    cert = nonspectral_certificate(poly)
    ok = check_certificate(poly, cert)
    amin = min(a for _, a in cert.triangles)
    print("%s  min triangle %.6g  margin %.6g  area %.6g  recheck %s"
          % (cert.kind, amin, cert.margin, cert.omega_area,
             "pass" if ok else "FAIL"))
    if args.out:
        _write_csv(args.out, ["i", "j", "k", "area"],
                   [[*idx, a] for idx, a in cert.triangles])
    _write_manifest(args.out, "certify", args,
                    {"area_recheck_tol": 1e-12, "kind": cert.kind,
                     "margin": cert.margin}, t0)
    return 0 if ok else 1


def _cap_height(body: ConvexBody):
    """Upper cap of the body as a height function vanishing at the walls."""
    if isinstance(body, ConvexPolygon):
        _, upper, _ = decompose_caps(body)
        return upper.f
    f = body.f
    trunk = min(float(f(body.a)), float(f(body.b)))
    if trunk <= 1e-12:
        return f
    if f.kind == "poly":
        c = list(f.coeffs) or [0.0]
        c[0] -= trunk
        return heights.polynomial(c, f.a, f.b)
    if f.kind == "pw":
        return heights.piecewise(f.knots, np.asarray(f.values) - trunk)
    raise BodyValidationError(
        "cap-scan: cannot subtract the wall height from this height kind")


def _cmd_cap_scan(args) -> int:
    t0 = time.monotonic()
    body = parse_body_file(args.body)
    f = _cap_height(body)
    window = _parse_pair(args.window, "--window")
    res = cap_lower_bound_scan(f, args.delta, window)
    print("R %.12g  |transform| %.6g  ratio %.6g"
          % (res.R, res.value, res.ratio))
    if args.out:
        _write_csv(args.out, ["R", "value", "ratio", "delta", "window_lo",
                              "window_hi", "grid_step"],
                   [[res.R, res.value, res.ratio, res.delta, res.window[0],
                     res.window[1], res.grid_step]])
    _write_manifest(args.out, "cap-scan", args,
                    {"quad_tol": QUAD_TOL}, t0)
    if math.isnan(res.ratio):
        print("cap is identically zero; no lower bound", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="convexspectra",
        description="Fourier transforms, zero sets, spectra, tilings, and "
                    "non-spectrality certificates for convex planar bodies.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=fn)
        sp.add_argument("--out", help="CSV output path (manifest written alongside)")
        return sp

    sp = add("ft", _cmd_ft, "evaluate the transform at given frequencies")
    sp.add_argument("--body", required=True)
    sp.add_argument("--xi", action="append", required=True,
                    help="frequency as x,y (repeatable)")

    sp = add("zeros", _cmd_zeros, "locate transform zeros on a segment")
    sp.add_argument("--body", required=True)
    sp.add_argument("--xi", action="append", required=True,
                    help="segment endpoint as x,y (pass twice)")
    sp.add_argument("--samples", type=int, default=0,
                    help="sample count along the segment (default: step %g)"
                         % DEFAULT_SCAN_STEP)
    sp.add_argument("--tol", type=float, default=None,
                    help="zero residual tolerance (default 1e-9 * area)")

    sp = add("slab-align", _cmd_slab_align,
             "zero alignment with the punctured integer grid in slabs")
    sp.add_argument("--body", required=True)
    sp.add_argument("--A", type=float, default=3.0, help="slab half-height")
    sp.add_argument("--R-list", dest="R_list", required=True,
                    help="comma-separated slab offsets")
    sp.add_argument("--step", type=float, default=DEFAULT_SCAN_STEP)

    sp = add("ball-align", _cmd_ball_align,
             "best shifted-grid fit of zeros in balls along the axis")
    sp.add_argument("--body", required=True)
    sp.add_argument("--A", type=float, default=2.0, help="ball radius")
    sp.add_argument("--window", required=True, help="R range as lo,hi")
    sp.add_argument("--eps", type=float, default=0.1,
                    help="scale-gate tolerance")
    sp.add_argument("--step", type=float, default=DEFAULT_SCAN_STEP)

    sp = add("spectrum-check", _cmd_spectrum_check,
             "orthogonality of a lattice candidate spectrum")
    sp.add_argument("--body", required=True)
    sp.add_argument("--lattice", required=True, help='basis "a b; c d" (columns)')
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = add("density", _cmd_density, "Landau counting density of a lattice")
    sp.add_argument("--lattice", required=True)
    sp.add_argument("--radius", type=float, required=True,
                    help="cube half-side R")

    sp = add("gap-check", _cmd_gap_check,
             "no large empty cubes in a candidate spectrum")
    sp.add_argument("--body", required=True)
    sp.add_argument("--lattice", required=True)
    sp.add_argument("--radius", type=float, default=0.0,
                    help="point enumeration window (default: auto)")
    sp.add_argument("--C", type=float, default=1.0)

    sp = add("tile-check", _cmd_tile_check, "verify a lattice tiling by sampling")
    sp.add_argument("--body", required=True)
    sp.add_argument("--lattice", default=None,
                    help="tiling lattice (default: constructed)")
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("classify", _cmd_classify, "spectral / not_spectral with reason")
    sp.add_argument("--body", required=True)

    sp = add("certify", _cmd_certify,
             "non-spectrality certificate for a symmetric 2n-gon")
    sp.add_argument("--body", required=True)

    sp = add("cap-scan", _cmd_cap_scan,
             "lower-bound scan of a cap height transform")
    sp.add_argument("--body", required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--window", default="0.1,10",
                    help="R window as lo,hi in units of 1/delta")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _PROPERTY_ERRORS as e:
        print(f"property check failed: {e}", file=sys.stderr)
        return 1
    except ConvexSpectraError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
