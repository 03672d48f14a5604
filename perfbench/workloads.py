"""Workload catalogs: the seeded inputs, the operations of one round, and
how each operation's output is checked.

Every workload is a list of operations that the worker repeats in whole
rounds.  An operation's `run` is the timed call into convexspectra; `collect`
reads what it left behind (CSV files) outside the timed interval; `check`
compares the collected output with references from refs.py after the timed
phase.  Seeded inputs are scaled so that an operation's cost hardly depends
on the seed; the operations of the known-fault classes use fixed inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import refs

# operations that fail today because of known faults in the program
FAULT_CLASSES = ("bad_input", "ft_near_origin", "ft_far")

# percentile reported as task_tail_ms: the highest with at least ten
# operations beyond it at the fewest operations a run makes (MIN_ROUNDS).
# Each lands inside a group of repeats of one operation: slab-align on h0,
# the slabs of the parabola-capped body, and the parabola cap scan at
# delta = 0.01.
TAIL_PERCENTILE = {"cli_catalog": 98, "curved_zeros": 75, "oracle_crosscheck": 96}
# fewest whole rounds a run makes, so that at least ten operations lie beyond
# the tail percentile even when the machine is slow
MIN_ROUNDS = {"cli_catalog": 7, "curved_zeros": 3, "oracle_crosscheck": 8}


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    collect: Callable[[Any], Any] = lambda raw: raw


@dataclass
class Workload:
    ops: list[Op]
    warmup: Callable[[], Any]


def build(name: str, seed: int, workdir: str) -> Workload:
    builders = {"cli_catalog": cli_catalog, "curved_zeros": curved_zeros,
                "oracle_crosscheck": oracle_crosscheck}
    return builders[name](np.random.default_rng(seed), workdir)


# ---------------------------------------------------------------------------
# seeded bodies (vertex arrays, counterclockwise)


def _unit_area(v: np.ndarray) -> np.ndarray:
    return v / math.sqrt(refs.shoelace(v))


def _rotate(v: np.ndarray, phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return v @ np.array([[c, s], [-s, c]])


def parallelogram(rng) -> np.ndarray:
    """Sides in ratio 1 to 1.25 at 70 to 90 degrees, turned at random.

    The vertices are a, b, -a, -b.  Shapes stay near the square so that the
    cost of an operation on them hardly depends on the seed."""
    s, alpha = rng.uniform(1.0, 1.25), math.radians(rng.uniform(70.0, 90.0))
    e1, e2 = np.array([s, 0.0]), np.array([math.cos(alpha), math.sin(alpha)])
    a, b = 0.5 * (e1 + e2), 0.5 * (e2 - e1)
    return _unit_area(_rotate(np.array([a, b, -a, -b]), rng.uniform(0.0, 2.0 * math.pi)))


def hexagon(rng) -> np.ndarray:
    """(p, q, q - p, -p, -q, p - q), symmetric and convex, with p and q within
    10% and 8 degrees of a regular hexagon's, turned at random."""
    r = rng.uniform(0.9, 1.1, 2)
    th = np.radians([0.0, 60.0] + rng.uniform(-8.0, 8.0, 2))
    p, q = r[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    return _unit_area(_rotate(np.array([p, q, q - p, -p, -q, p - q]),
                              rng.uniform(0.0, 2.0 * math.pi)))


def symmetric_2ngon(rng, n: int) -> np.ndarray:
    """n vertices in a half turn, each within a quarter step of the regular
    2n-gon's and with radius in [0.9, 1.1], completed antipodally."""
    while True:
        th = rng.uniform(0.0, 2.0 * math.pi) + (np.arange(n) + 0.5
                                                + rng.uniform(-0.25, 0.25, n)) * math.pi / n
        r = rng.uniform(0.9, 1.1, n)
        half = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        v = np.vstack([half, -half])
        d = np.roll(v, -1, axis=0) - v
        dn = np.roll(d, -1, axis=0)
        if np.all(d[:, 0] * dn[:, 1] - d[:, 1] * dn[:, 0] > 1e-3):
            return v


def regular(m: int) -> np.ndarray:
    ang = 2.0 * math.pi * np.arange(m) / m
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


H0 = np.array([(0.5, -0.5), (0.5, 0.5), (0.0, 0.75), (-0.5, 0.5), (-0.5, -0.5), (0.0, -0.75)])
SQUARE = np.array([(0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5)])
RHOMBUS = np.array([(0.9, 0.0), (0.0, 0.6), (-0.9, 0.0), (0.0, -0.6)])


def tiling_basis(v: np.ndarray) -> np.ndarray:
    """Translation lattice (basis columns) of a symmetric 4- or 6-gon centred
    at 0: the translates by v0 + v1 and v1 + v2 share an edge with it."""
    return np.column_stack([v[0] + v[1], v[1] + v[2]])


# ---------------------------------------------------------------------------
# the in-process CLI


@dataclass
class CliOut:
    code: Any
    stdout: str
    stderr: str
    exc: str | None
    rows: list | None


def _cli_op(name, kind, argv, out, check):
    from convexspectra import cli

    def run():
        so, se = io.StringIO(), io.StringIO()
        code = exc = None
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            try:
                code = cli.main(argv + ["--out", out])
            except SystemExit as e:
                code = e.code
            except Exception as e:  # escaping main means a user sees a traceback
                exc = f"{type(e).__name__}: {e}"
        return code, so.getvalue(), se.getvalue(), exc

    def collect(raw):
        rows = None
        if os.path.exists(out):
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            os.remove(out)
        if os.path.exists(out + ".manifest.json"):
            os.remove(out + ".manifest.json")
        return CliOut(*raw, rows)

    return Op(name, kind, run, check, collect)


def _write_polygon(path: str, v: np.ndarray) -> str:
    with open(path, "w") as fh:
        json.dump({"type": "polygon", "vertices": np.asarray(v).tolist()}, fh)
    return path


def _write_graph(path: str, f: dict, g: dict) -> str:
    with open(path, "w") as fh:
        json.dump({"type": "graph", "a": -0.5, "b": 0.5, "f": f, "g": g}, fh)
    return path


def _xi_args(xis) -> list[str]:
    return [f"--xi={x:.17g},{y:.17g}" for x, y in xis]


def _expect(code, *checks):
    """Run checkers in order on a CliOut; first failure wins."""
    def check(o: CliOut):
        why = refs.check_exit(o.code, o.exc, code, "exit")
        if why:
            return why
        if o.rows is None:
            return "no CSV written"
        for c in checks:
            why = c(o)
            if why:
                return why
        return None
    return check


def _ft_rows(o: CliOut):
    return [(float(r["xi1"]), float(r["xi2"]), complex(float(r["re"]), float(r["im"])),
             float(r["abs_err"])) for r in o.rows]


def _polygon_ref(v: np.ndarray):
    """Exact transform: the sinc product for parallelograms, an mpmath edge sum otherwise."""
    if len(v) == 4:
        return lambda xi: refs.parallelogram_ft(v[0], v[1], xi)
    return lambda xi: refs.edge_sum_ft(v, xi)


def _ft_check(v: np.ndarray, slack: float):
    """Each value within its reported abs_err (+ slack) of the exact transform."""
    ref = _polygon_ref(v)
    area = refs.shoelace(v)

    def check(o: CliOut):
        for x1, x2, val, err in _ft_rows(o):
            why = refs.check_close(val, ref((x1, x2)), err + slack * area,
                                   f"ft at ({x1:.6g}, {x2:.6g})")
            if why:
                return why
        return None
    return check


def _freqs(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n frequencies, one in each of n equal shells of lo <= |xi| <= hi, at
    random angles: the cost of an operation then hardly depends on the seed."""
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    rad = lo + (np.arange(n) + rng.uniform(0.0, 1.0, n)) * (hi - lo) / n
    return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)


def cli_catalog(rng, workdir: str) -> Workload:
    from convexspectra import cli, geometry

    bdir = os.path.join(workdir, "bodies")
    odir = os.path.join(workdir, "csv")
    os.makedirs(bdir, exist_ok=True)
    os.makedirs(odir, exist_ok=True)
    ops: list[Op] = []

    def add_cli(name, kind, argv, check):
        ops.append(_cli_op(name, kind, argv, os.path.join(odir, f"{len(ops):03d}.csv"), check))

    # random parallelograms and hexagons: tilers whose dual lattice is a spectrum
    tilers = []
    for kind, gen in (("parallelogram", parallelogram), ("hexagon", hexagon)):
        for k in range(3):
            while True:
                v = gen(rng)
                B = tiling_basis(v)
                D = np.linalg.inv(B).T
                r_star = refs.perimeter(v) / refs.shoelace(v)
                # keep bodies whose dual lattice surely passes the gap check
                if refs.sup_covering_radius(D) <= 0.8 * r_star:
                    break
            tilers.append((f"{kind}{k}", v, B, D, r_star))

    for k, (name, v, B, D, r_star) in enumerate(tilers):
        path = _write_polygon(os.path.join(bdir, f"{name}.json"), v)
        area = refs.shoelace(v)
        reason = "symmetric_quadrilateral" if len(v) == 4 else "symmetric_hexagon"
        lat = "{:.17g} {:.17g}; {:.17g} {:.17g}".format(D[0, 0], D[0, 1], D[1, 0], D[1, 1])

        def lattice_covolume(o, area=area):
            r = o.rows[0]
            det = float(r["g1x"]) * float(r["g2y"]) - float(r["g1y"]) * float(r["g2x"])
            if abs(abs(det) - area) > 1e-9 * area:
                return f"tiling lattice covolume {abs(det):.12g} != shoelace area {area:.12g}"
            return None

        add_cli(f"classify/{name}", "classify", ["classify", "--body", path],
                _expect(0, lambda o, r=reason: refs.check_classify(o.stdout, o.rows, True, r),
                        lattice_covolume))

        cover_pts = (B @ rng.random((2, 256))).T

        def exact_cover(o, v=v, pts=cover_pts):
            r = o.rows[0]
            if r["pass"] != "true" or r["n_bad"] != "0":
                return f"tile-check reported {r['pass']} with {r['n_bad']} bad samples"
            L = np.array([[float(r["g1x"]), float(r["g2x"])], [float(r["g1y"]), float(r["g2y"])]])
            counts, clear = refs.cover_counts(v, L, pts)
            if np.sum(clear) < 200 or np.any(counts[clear] != 1):
                return "reported lattice does not tile: a sample is covered " \
                       f"{sorted(set(counts[clear].tolist()))} times"
            return None

        add_cli(f"tile-check/{name}", "tile_check",
                ["tile-check", "--body", path, "--samples", "4000", "--seed", str(k)],
                _expect(0, lattice_covolume, exact_cover))

        R = (10.0, 20.0, 40.0)[k % 3]

        def density(o, R=R, area=area):
            r = o.rows[0]
            return refs.check_density(float(r["normalized_minus"]), float(r["normalized_plus"]),
                                      area, R)

        add_cli(f"density/{name}", "density",
                ["density", f"--lattice={lat}", "--radius", f"{R:g}"], _expect(0, density))

        probes = np.rint(rng.uniform(-5, 5, (3, 2)))
        probes[np.all(probes == 0, axis=1)] = (1.0, 0.0)
        ref = _polygon_ref(v)

        def dual_zeros(o, D=D, area=area, ref=ref, probes=probes):
            r = o.rows[0]
            if r["pass"] != "true" or not float(r["worst_abs"]) <= 1e-9 * area:
                return f"spectrum-check: pass={r['pass']} worst {r['worst_abs']}"
            worst = np.array([float(r["worst_xi1"]), float(r["worst_xi2"])])
            coef = np.linalg.solve(D, worst)
            if np.max(np.abs(coef - np.rint(coef))) > 1e-9:
                return f"worst point {worst} is not a dual lattice point"
            for p in [worst, *(probes @ D.T)]:
                why = refs.check_zero(abs(complex(ref(p))), area, f"dual point {p}", 1e-12)
                if why:
                    return why
            return None

        add_cli(f"spectrum-check/{name}", "spectrum_check",
                ["spectrum-check", "--body", path, f"--lattice={lat}", "--radius", "6"],
                _expect(0, dual_zeros))

        def gap(o, D=D, r_star=r_star):
            r = o.rows[0]
            largest, bound = float(r["largest_empty"]), float(r["bound"])
            if abs(bound - r_star) > 1e-9 * r_star:
                return f"gap bound {bound:.12g} != perimeter/area {r_star:.12g}"
            if r["pass"] != "true" or largest > refs.sup_covering_radius(D) + 1e-9:
                return f"gap-check: pass={r['pass']} largest {largest:.6g}"
            return None

        add_cli(f"gap-check/{name}", "gap_check",
                ["gap-check", "--body", path, f"--lattice={lat}"], _expect(0, gap))

        xis = _freqs(rng, 12, 0.5, 20.0)
        add_cli(f"ft/{name}", "ft", ["ft", "--body", path, *_xi_args(xis)],
                _expect(0, _ft_check(v, 1e-12)))

    # symmetric 2n-gons: not spectral, with a certificate
    many = [(f"2n-gon{n}", symmetric_2ngon(rng, n)) for n in (4, 5, 6, 7, 8)]
    many += [("octagon", regular(8)), ("decagon", regular(10))]
    for name, v in many:
        path = _write_polygon(os.path.join(bdir, f"{name}.json"), v)
        add_cli(f"classify/{name}", "classify", ["classify", "--body", path],
                _expect(1, lambda o: refs.check_classify(o.stdout, o.rows, False, "polygon_n_ge_4")))

        def cert(o, v=v):
            words = o.stdout.split()
            if "recheck" not in words or words[words.index("recheck") + 1] != "pass":
                return f"certify printed {o.stdout.strip()!r}"
            return refs.check_certificate(v, o.rows, float(words[words.index("margin") + 1]))

        add_cli(f"certify/{name}", "certify", ["certify", "--body", path], _expect(0, cert))
        add_cli(f"ft/{name}", "ft", ["ft", "--body", path, *_xi_args(_freqs(rng, 12, 0.5, 20.0))],
                _expect(0, _ft_check(v, 1e-12)))

    # standard-position bodies: slab alignment, zeros on a segment, cap scan
    oct_std, _ = geometry.normalize_edge_to_standard(geometry.regular_polygon(8), 0)
    for name, v, delta in (("h0", H0, 0.1), ("octagon_std", np.array(oct_std.vertices), 0.05)):
        path = _write_polygon(os.path.join(bdir, f"{name}.json"), v)
        area = refs.shoelace(v)

        def slab(o):
            mx = [float(r["max_dist"]) for r in o.rows]
            for r in o.rows:
                if not (int(r["n_zeros"]) > 0
                        and 0.0 <= float(r["mean_dist"]) <= float(r["max_dist"]) <= 0.5):
                    return f"slab row {r} out of range"
            if len(mx) != 4 or not mx[-1] < mx[0]:
                return f"zeros do not approach the grid as R grows: {mx}"
            return None

        add_cli(f"slab-align/{name}", "slab_align",
                ["slab-align", "--body", path, "--A", "3", "--R-list", "50,100,200,400"],
                _expect(0, slab))

        x0, y0 = rng.uniform(3.0, 3.5), rng.uniform(1.1, 1.9)
        p0, p1 = (x0, y0), (x0 + 8.0, y0 + rng.choice([-0.5, 0.5]))
        ref = _polygon_ref(v)

        def seg_zeros(o, area=area, ref=ref, p0=np.array(p0), p1=np.array(p1)):
            if not o.rows:
                return "no zeros on a segment of length 8"
            d = (p1 - p0) / np.linalg.norm(p1 - p0)
            for r in o.rows:
                z = np.array([float(r["xi1"]), float(r["xi2"])])
                if abs((z - p0)[0] * d[1] - (z - p0)[1] * d[0]) > 1e-9:
                    return f"zero {z} is off the segment"
                why = refs.check_zero(abs(complex(ref(z))), area, f"zero {z}", 1e-8)
                if why:
                    return why
            return None

        add_cli(f"zeros/{name}", "zeros",
                ["zeros", "--body", path, *_xi_args([p0, p1])], _expect(0, seg_zeros))

        knots, hts = refs.upper_cap(v)

        def cap(o, delta=delta, knots=knots, hts=hts):
            r = o.rows[0]
            R, value, ratio = float(r["R"]), float(r["value"]), float(r["ratio"])
            if not 0.1 / delta <= R <= 10.0 / delta:
                return f"R* = {R} outside the window"
            why = refs.check_close(value, refs.cap_ft("pw", R, knots, hts), 1e-9, "cap |f_hat(R*)|")
            if why:
                return why
            want = value / (delta * float(np.interp(0.5 - delta, knots, hts)))
            if not (ratio > 0 and abs(ratio - want) <= 1e-9 * want):
                return f"ratio {ratio} != value / (delta f(1/2 - delta)) = {want}"
            grid = np.linspace(0.1 / delta, 10.0 / delta, 400)
            if value < (1.0 - 1e-3) * max(float(refs.cap_ft("pw", g, knots, hts)) for g in grid[::8]):
                return "the scan missed a larger |f_hat|"
            return None

        add_cli(f"cap-scan/{name}", "cap_scan",
                ["cap-scan", "--body", path, "--delta", f"{delta:g}"], _expect(0, cap))

    # curved bodies through classify
    semi, poly, tent = ({"kind": "semicircle", "r": 0.5},
                        {"kind": "poly", "coeffs": [0.75, 0.0, -1.0]}, {"kind": "tent"})
    for name, f, spectral, reason in (("disc", semi, False, "not_polygon"),
                                      ("parabola_capped", poly, False, "not_polygon"),
                                      ("tent_diamond", tent, True, "symmetric_quadrilateral")):
        path = _write_graph(os.path.join(bdir, f"{name}.json"), f, f)
        add_cli(f"classify/{name}", "classify", ["classify", "--body", path],
                _expect(0 if spectral else 1,
                        lambda o, s=spectral, r=reason: refs.check_classify(o.stdout, o.rows, s, r)))

    # known faults, fixed inputs: bad input must exit 2 without a traceback
    square = _write_polygon(os.path.join(bdir, "square.json"), SQUARE)
    h0 = os.path.join(bdir, "h0.json")
    bad = [["density", "--lattice", "1 0; 0 1", "--radius", "0"],
           ["slab-align", "--body", square, "--R-list", "50", "--step", "0"],
           ["cap-scan", "--body", h0, "--delta", "0"],
           ["ft", "--body", square, "--xi=nan,1"],
           ["spectrum-check", "--body", square, "--lattice", "1 0; 0 1", "--radius", "-1"],
           ["zeros", "--body", square, "--xi=0.5,0.5", "--xi=3.5,0.5", "--samples", "-4"]]
    for argv in bad:
        add_cli(f"bad_input/{argv[0]}", "bad_input", argv,
                lambda o: refs.check_exit(o.code, o.exc, 2, "bad input"))

    # known faults, fixed inputs: error bars near the origin and far out
    octagon = os.path.join(bdir, "octagon.json")
    rhombus = _write_polygon(os.path.join(bdir, "rhombus.json"), RHOMBUS)
    faults = [("ft_near_origin", "octagon", octagon, regular(8),
               [(1e-6, 0.0), (3e-3, -4e-3), (-2e-3, 5e-3)]),
              ("ft_near_origin", "rhombus", rhombus, RHOMBUS, [(1e-3, 2e-3), (3e-3, -4e-3)]),
              ("ft_far", "octagon_1e2", octagon, regular(8), [(100.3, 7.1), (70.7, 70.7)]),
              ("ft_far", "octagon_1e4", octagon, regular(8),
               [(-350.2, 801.7), (1000.5, -2000.25), (5000.1, -8000.3)])]
    for kind, name, path, v, xis in faults:
        add_cli(f"{kind}/{name}", kind, ["ft", "--body", path, *_xi_args(xis)],
                _expect(0, _ft_check(v, 0.0)))

    for path in os.listdir(bdir):
        cli.parse_body_file(os.path.join(bdir, path))
    warm = _cli_op("warmup", "warmup", ["ft", "--body", square, "--xi=0.5,0.5"],
                   os.path.join(odir, "warmup.csv"), None)
    return Workload(ops, lambda: warm.collect(warm.run()))


# ---------------------------------------------------------------------------
# curved bodies: zero scans


def _mp_parabola():
    import mpmath
    return lambda x: mpmath.mpf(0.75) - x * x


def _on_segment(zs, p0, p1) -> str | None:
    p0, p1 = np.asarray(p0), np.asarray(p1)
    d = (p1 - p0) / np.linalg.norm(p1 - p0)
    for z in zs:
        r = np.asarray(z.xi) - p0
        if abs(r[0] * d[1] - r[1] * d[0]) > 1e-9:
            return f"zero {tuple(z.xi)} is off the segment"
    return None


def _mp_zeros(zs, pick, area: float) -> str | None:
    """mpmath residuals |T| at the zeros pick selects from zs."""
    f = _mp_parabola()
    for i in pick:
        if i < len(zs):
            xi = zs[i].xi
            val = abs(refs.graph_ft(f, f, -0.5, 0.5, xi))
            why = refs.check_zero(float(val), area, f"parabola-capped zero {tuple(xi)}", 1e-8)
            if why:
                return why
    return None


def _residuals(zs, area: float) -> str | None:
    for z in zs:
        if not z.residual <= 1e-9 * area:
            return f"zero {tuple(z.xi)} has residual {z.residual:.3g}"
    return None


def curved_zeros(rng, workdir: str) -> Workload:
    from convexspectra import geometry, heights, zeroset

    disc = geometry.disc(0.5)
    f = heights.polynomial([0.75, 0.0, -1.0])
    pc = geometry.GraphBody(-0.5, 0.5, f, f)
    pc_area = 4.0 / 3.0
    ops: list[Op] = []

    def ball_check(rep):
        if not rep.zeros:
            return "no zeros in any ball"
        why = refs.check_bessel_zeros([math.hypot(*z.xi) for z in rep.zeros], 0.0, 60.0,
                                      complete=False)
        if why:
            return why
        off = min(abs(rep.beta - 0.25), abs(rep.beta - 0.75))
        d = [abs((z.xi[0] - rep.beta + 0.5) % 1.0 - 0.5) for z in rep.zeros]
        if off > 0.05 or abs(max(d) - rep.max_dist) > 1e-12:
            return f"beta {rep.beta:.4g}, max dist {rep.max_dist:.4g} vs recomputed {max(d):.4g}"
        return None

    ops.append(Op("ball/disc", "ball", lambda: zeroset.ball_zero_alignment(
        disc, 1.0, 0.05, (20.0, 40.0), step=0.05), ball_check))

    for k in range(4):
        R = 50.0 + 5.0 * k + rng.uniform(0.0, 1.0)
        pick = rng.choice(40, 2, replace=False)

        def slab_check(reps, R=R, pick=pick):
            zs = reps[0].zeros
            if not zs:
                return "no zeros in the slab"
            for z in zs:
                if not (R <= z.xi[0] <= R + 10.0 and abs(z.xi[1]) <= 1.0):
                    return f"zero {tuple(z.xi)} outside the slab"
            d = [min(abs(t - round(t)) if round(t) != 0 else 1.0 - abs(t) for t in z.xi) for z in zs]
            if abs(max(d) - reps[0].max_dist) > 1e-12:
                return f"max dist {reps[0].max_dist} != recomputed {max(d)}"
            return _residuals(zs, pc_area) or _mp_zeros(zs, pick, pc_area)

        ops.append(Op(f"slab/parabola_capped/R{R:.1f}", "slab", lambda R=R: zeroset.slab_zero_alignment(
            pc, 1.0, [R], step=0.1), slab_check))

    # rays in fixed directions, since the scan's cost depends on the direction;
    # the seed moves them outwards by up to 1/4
    for k in range(5):
        th = (k + 0.5) * (math.pi / 2.0) / 5.0
        d = np.array([math.cos(th), math.sin(th)])
        u = rng.uniform(0.0, 0.25)
        p0, p1 = tuple((0.5 + u) * d), tuple((12.5 + u) * d)

        def disc_check(zs, p0=p0, p1=p1, u=u):
            return (_on_segment(zs, p0, p1)
                    or refs.check_bessel_zeros([math.hypot(*z.xi) for z in zs], 0.5 + u, 12.5 + u))

        ops.append(Op(f"ray/disc/{k}", "ray", lambda p0=p0, p1=p1: zeroset.zeros_on_segment(
            disc, p0, p1), disc_check))

        th = (k + 0.25) * (math.pi / 2.0) / 5.0
        d = np.array([math.cos(th), math.sin(th)])
        u = rng.uniform(0.0, 0.25)
        p0, p1 = tuple((0.5 + u) * d), tuple((12.5 + u) * d)
        pick = [int(rng.integers(0, 8))]

        def pc_check(zs, p0=p0, p1=p1, pick=pick):
            if not zs:
                return "no zeros on the ray"
            return _on_segment(zs, p0, p1) or _residuals(zs, pc_area) or _mp_zeros(zs, pick, pc_area)

        ops.append(Op(f"ray/parabola_capped/{k}", "ray", lambda p0=p0, p1=p1: zeroset.zeros_on_segment(
            pc, p0, p1), pc_check))

    return Workload(ops, lambda: zeroset.zeros_on_segment(disc, (0.5, 0.0), (3.0, 0.0)))


# ---------------------------------------------------------------------------
# primary route against the adaptive-quadrature oracle


def oracle_crosscheck(rng, workdir: str) -> Workload:
    from convexspectra import fourier, geometry, heights

    disc = geometry.disc(0.5)
    f = heights.polynomial([0.75, 0.0, -1.0])
    pc = geometry.GraphBody(-0.5, 0.5, f, f)
    mpf = _mp_parabola()
    ops: list[Op] = []

    def pair_check(ref, area):
        def check(samples):
            for cf, q in samples:
                r = ref(cf.xi)
                for s, what in ((cf, "primary"), (q, "quadrature")):
                    why = refs.check_close(s.value, r, s.err + 1e-12 * area,
                                           f"{what} at ({s.xi[0]:.6g}, {s.xi[1]:.6g})")
                    if why:
                        return why
            return None
        return check

    def pair_op(name, body, xis, ref, area):
        run = lambda: [(fourier.ft_body(body, xi), fourier.ft_quadrature(body, xi)) for xi in xis]
        return Op(name, "ft_pair", run, pair_check(ref, area))

    polys = ([("parallelogram", parallelogram(rng)) for _ in range(7)]
             + [("hexagon", hexagon(rng)) for _ in range(7)]
             + [(f"2n-gon{n}", symmetric_2ngon(rng, n)) for n in (4, 5, 6) for _ in range(2)])
    for k, (name, v) in enumerate(polys):
        body = geometry.validate_polygon(v)
        ops.append(pair_op(f"ft_pair/{name}{k}", body, _freqs(rng, 6, 0.5, 7.0),
                           _polygon_ref(v), refs.shoelace(v)))
    for k in range(2):
        ops.append(pair_op(f"ft_pair/disc{k}", disc, _freqs(rng, 6, 0.5, 7.0),
                           lambda xi: refs.disc_ft(0.5, xi), math.pi / 4.0))
        ops.append(pair_op(f"ft_pair/parabola_capped{k}", pc, _freqs(rng, 6, 0.5, 7.0),
                           lambda xi: refs.graph_ft(mpf, mpf, -0.5, 0.5, xi), 4.0 / 3.0))

    def grad_check(ref):
        def check(out):
            for xi, g in out:
                r = ref(xi)
                for k in range(2):
                    why = refs.check_close(g[k], r[k], 1e-8, f"grad[{k}] at {tuple(xi)}")
                    if why:
                        return why
            return None
        return check

    for name, body, ref in (("disc", disc, lambda xi: refs.disc_grad(0.5, xi)),
                            ("parabola_capped", pc,
                             lambda xi: refs.graph_ft(mpf, mpf, -0.5, 0.5, xi, grad=True))):
        xis = _freqs(rng, 4, 0.5, 7.0)
        ops.append(Op(f"grad/{name}", "grad",
                      lambda body=body, xis=xis: [(xi, fourier.grad_ft(body, xi)) for xi in xis],
                      grad_check(ref)))

    caps = {"tent": (heights.tent(-0.5, 0.5), lambda x: min(x + 0.5, 0.5 - x)),
            "parabola": (heights.polynomial([0.25, 0.0, -1.0]), lambda x: 0.25 - x * x),
            "semicircle": (heights.semicircle(0.5), lambda x: math.sqrt(0.25 - x * x))}
    for kind, (h, fx) in caps.items():
        for delta in (0.1, 0.05, 0.01):
            def cap_check(res, kind=kind, fx=fx, delta=delta):
                if not 0.1 / delta <= res.R <= 10.0 / delta:
                    return f"R* = {res.R} outside the window"
                why = refs.check_close(res.value, refs.cap_ft(kind, res.R), 1e-9,
                                       f"{kind} cap at R* = {res.R:.6g}")
                if why:
                    return why
                want = res.value / (delta * fx(0.5 - delta))
                if not (res.ratio > 0 and abs(res.ratio - want) <= 1e-9 * want):
                    return f"ratio {res.ratio} != {want}"
                return None

            ops.append(Op(f"cap_scan/{kind}/{delta:g}", "cap_scan",
                          lambda h=h, delta=delta: fourier.cap_lower_bound_scan(h, delta, (0.1, 10.0)),
                          cap_check))

    semi = caps["semicircle"][0]
    return Workload(ops, lambda: fourier.cap_lower_bound_scan(semi, 0.1, (0.1, 10.0)))
