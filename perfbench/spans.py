"""Span tracing for the traced benchmark run.

Spans are taken from outside the package: `install` replaces module
attributes with timing wrappers, including the names one module imported
from another, so calls made inside the library are caught too.  HeightFn
evaluation is wrapped at class level and the evaluator callables returned by
frozen_batch_evaluator are wrapped as they are returned.  Spans are kept in
memory; `layer_metrics` turns them into the per-layer table and `dump`
writes them out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# span record fields
NAME, START, END, PARENT, POINTS, FLAG, OUTER = range(7)
_NO_SPANS = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "points": 0, "flags": 0}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.op_roots: list[int] = []

    def wrap(self, fn, name, points=None, flag=None):
        """Timing wrapper.  name is a string or a function of the call's
        arguments returning the span name (None: no span); points and flag
        map (args, kwargs, result) to the span's work count and failure flag."""
        spans, stack, depth = self.spans, self.stack, self.depth

        def traced(*args, **kwargs):
            nm = name(*args, **kwargs) if callable(name) else name
            if nm is None or not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [nm, 0.0, 0.0, stack[-1], 0, 0, depth.get(nm, 0) == 0]
            spans.append(rec)
            stack.append(idx)
            depth[nm] = depth.get(nm, 0) + 1
            rec[START] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                depth[nm] -= 1
            if points is not None:
                rec[POINTS] = points(args, kwargs, res)
            if flag is not None:
                rec[FLAG] = flag(args, kwargs, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, name: str) -> None:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, -1, 0, 0, True])
        self.op_roots.append(idx)
        self.stack.append(idx)
        self.spans[idx][START] = time.perf_counter()

    def end_op(self) -> None:
        self.spans[self.stack.pop()][END] = time.perf_counter()


def _npts(xis) -> int:
    return len(np.atleast_2d(np.asarray(xis, dtype=float)))


def _replace_everywhere(orig, wrapped) -> None:
    """Point every convexspectra module attribute bound to orig at wrapped."""
    for modname, mod in list(sys.modules.items()):
        if modname == "convexspectra" or modname.startswith("convexspectra."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)


def install(tracer: Tracer) -> None:
    from convexspectra import (cli, fourier, geometry, heights, obstruction,
                               spectra, tiling, zeroset)

    graph = lambda body, *a, **k: isinstance(body, geometry.GraphBody)
    by_body = lambda gname, pname: (lambda body, *a, **k: gname if graph(body) else pname)
    xis_points = lambda a, k, r: _npts(a[1])
    one = lambda a, k, r: 1

    def zeros_found(a, k, res):
        if isinstance(res, zeroset.AlignmentReport):
            return len(res.zeros)
        if res and isinstance(res[0], zeroset.AlignmentReport):
            return sum(len(rep.zeros) for rep in res)
        return len(res)

    def tile_samples(a, k, res):
        return int(k.get("samples", a[2] if len(a) > 2 else 10_000))

    funcs = [
        (cli, "main", "cli", None, None),
        (geometry, "is_symmetric", "geometry.is_symmetric", None, None),
        (geometry, "measures", "geometry.measures", None, None),
        (fourier, "_edge_sum", "fourier.edge_sum", xis_points, None),
        (fourier, "_moment_series", "fourier.series", xis_points, None),
        (fourier, "graph_transform_batch", "fourier.panel_build", None, None),
        (fourier, "_graph_eval", "fourier.panel_eval", xis_points, None),
        (fourier, "ft_body", by_body("fourier.primary", "fourier.primary_polygon"), one, None),
        (fourier, "ft_quadrature", "fourier.quadrature", one,
         lambda a, k, r: int(not r.converged)),
        (fourier, "grad_ft", "fourier.grad", one, None),
        (fourier, "cap_lower_bound_scan", "fourier.cap_scan", None, None),
        (zeroset, "zeros_on_segment", "zeroset", zeros_found, None),
        (zeroset, "slab_zero_alignment", "zeroset", zeros_found, None),
        (zeroset, "ball_zero_alignment", "zeroset", zeros_found, None),
        (spectra, "lattice_points_in_ball", "spectra.lattice_points", lambda a, k, r: len(r), None),
        (spectra, "orthogonality_check", "spectra.orthogonality", None, None),
        (spectra, "landau_density", "spectra.counting", None, None),
        (spectra, "spectral_gap_check", "spectra.counting", None, None),
        (tiling, "verify_tiling", "tiling.verify", tile_samples, None),
        (tiling, "classify", "tiling.classify", None, None),
        (obstruction, "nonspectral_certificate", "obstruction.certify", None, None),
        (obstruction, "check_certificate", "obstruction.certify", None, None),
    ]
    for mod, attr, name, points, flag in funcs:
        orig = getattr(mod, attr)
        _replace_everywhere(orig, tracer.wrap(orig, name, points, flag))

    # the frozen evaluator: building it is panel_build for graph bodies; the
    # graph evaluator is timed through its class, the polygon one (a closure)
    # is wrapped as it is returned
    orig_fbe = fourier.frozen_batch_evaluator
    build = tracer.wrap(orig_fbe, by_body("fourier.panel_build", None))

    def frozen_batch_evaluator(body, *args, **kwargs):
        ev = build(body, *args, **kwargs)
        if graph(body):
            return ev
        return tracer.wrap(ev, "fourier.polygon_eval", lambda a, k, r: _npts(a[0]))

    _replace_everywhere(orig_fbe, frozen_batch_evaluator)
    fourier._FrozenGraphEval.__call__ = tracer.wrap(
        fourier._FrozenGraphEval.__call__, "fourier.panel_eval",
        lambda a, k, r: _npts(a[1]))
    for meth in ("__call__", "derivative"):
        setattr(heights.HeightFn, meth,
                tracer.wrap(getattr(heights.HeightFn, meth), "heights.eval"))


# ---------------------------------------------------------------------------
# post-processing


def self_times(spans) -> list[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _has_ancestor(spans, i, names) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(per-layer metrics, consistency summary) over all recorded spans."""
    spans = tracer.spans
    selfs = self_times(spans)
    agg: dict[str, dict] = {}
    for s, st in zip(spans, selfs):
        a = agg.setdefault(s[NAME], dict(_NO_SPANS))
        a["self_ms"] += 1e3 * st
        a["points"] += s[POINTS]
        a["flags"] += s[FLAG]
        if s[OUTER]:
            a["calls"] += 1
            a["ms"] += 1e3 * (s[END] - s[START])
    get = lambda name: agg.get(name, _NO_SPANS)
    rate = lambda n, ms: n / (ms / 1e3) if ms > 0 else 0.0
    per = lambda ms, n: ms / n if n else 0.0

    # evaluations a zero scan spends, not counting the panel-rule probes
    evals = sum(s[POINTS] for i, s in enumerate(spans)
                if s[NAME] in ("fourier.panel_eval", "fourier.polygon_eval")
                and _has_ancestor(spans, i, {"zeroset"})
                and not _has_ancestor(spans, i, {"fourier.panel_build"}))
    z = get("zeroset")
    es, ser, pb, pe = (get("fourier.edge_sum"), get("fourier.series"),
                       get("fourier.panel_build"), get("fourier.panel_eval"))
    pr, q, gr, cs = (get("fourier.primary"), get("fourier.quadrature"),
                     get("fourier.grad"), get("fourier.cap_scan"))
    lp, orth, cnt = (get("spectra.lattice_points"), get("spectra.orthogonality"),
                     get("spectra.counting"))
    tv, tc, ob = get("tiling.verify"), get("tiling.classify"), get("obstruction.certify")
    h, c = get("heights.eval"), get("cli")
    m = {
        "cli.calls": c["calls"],
        "cli.self_ms": c["self_ms"],
        "geometry.is_symmetric.ms": get("geometry.is_symmetric")["ms"],
        "geometry.measures.ms": get("geometry.measures")["ms"],
        "heights.eval.calls": h["calls"],
        "heights.eval.ms": h["ms"],
        "fourier.edge_sum.points": es["points"],
        "fourier.edge_sum.points_per_s": rate(es["points"], es["ms"]),
        "fourier.series.points": ser["points"],
        "fourier.panel_build.calls": pb["calls"],
        "fourier.panel_build.ms": pb["ms"],
        "fourier.panel_eval.points": pe["points"],
        "fourier.panel_eval.points_per_s": rate(pe["points"], pe["ms"]),
        "fourier.primary.points": pr["points"],
        "fourier.primary.ms_per_point": per(pr["ms"], pr["points"]),
        "fourier.quadrature.points": q["points"],
        "fourier.quadrature.ms_per_point": per(q["ms"], q["points"]),
        "fourier.quadrature.unconverged": q["flags"],
        "fourier.grad.points": gr["points"],
        "fourier.grad.ms_per_point": per(gr["ms"], gr["points"]),
        "fourier.cap_scan.calls": cs["calls"],
        "fourier.cap_scan.ms_per_call": per(cs["ms"], cs["calls"]),
        "zeroset.calls": z["calls"],
        "zeroset.self_ms": z["self_ms"],
        "zeroset.zeros": z["points"],
        "zeroset.evals_per_zero": evals / z["points"] if z["points"] else 0.0,
        "spectra.lattice_points.points": lp["points"],
        "spectra.lattice_points.points_per_s": rate(lp["points"], lp["ms"]),
        "spectra.orthogonality.calls": orth["calls"],
        "spectra.orthogonality.ms_per_call": per(orth["ms"], orth["calls"]),
        "spectra.counting.calls": cnt["calls"],
        "spectra.counting.ms_per_call": per(cnt["ms"], cnt["calls"]),
        "tiling.verify.samples": tv["points"],
        "tiling.verify.samples_per_s": rate(tv["points"], tv["ms"]),
        "tiling.classify.calls": tc["calls"],
        "tiling.classify.ms_per_call": per(tc["ms"], tc["calls"]),
        "obstruction.certify.calls": ob["calls"],
        "obstruction.certify.ms_per_call": per(ob["ms"], ob["calls"]),
    }

    # each operation's self times must add up to its wall time
    op_total = {}
    for i, s in enumerate(spans):
        root = i
        while spans[root][PARENT] >= 0:
            root = spans[root][PARENT]
        op_total[root] = op_total.get(root, 0.0) + selfs[i]
    worst = max((abs(op_total[r] - (spans[r][END] - spans[r][START]))
                 for r in tracer.op_roots), default=0.0)
    summary = {"spans": len(spans), "ops": len(tracer.op_roots),
               "max_self_sum_error_ms": 1e3 * worst,
               "self_ms_by_span": {k: v["self_ms"] for k, v in sorted(agg.items())}}
    return m, summary


def dump(tracer: Tracer, path: str, summary: dict) -> None:
    names = sorted({s[NAME] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({"summary": summary, "names": names,
                   "fields": ["name", "start", "end", "parent", "points", "flag"],
                   "spans": [[index[s[NAME]], s[START], s[END], s[PARENT], s[POINTS], s[FLAG]]
                             for s in tracer.spans]}, fh)
