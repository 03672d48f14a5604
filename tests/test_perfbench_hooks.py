"""The traced benchmark's span hooks still find the library's functions.

perfbench/spans.py wraps library functions by name, so a rename or a second
kernel would silently drop or double-count a per-layer metric.  `install`
patches modules for the whole process, so the check runs in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import spans
from convexspectra import fourier, geometry, zeroset

tracer = spans.Tracer()
spans.install(tracer)
# count every frequency the panel-rule kernel sees, outside the tracer
counted = [0]
traced_kernel = fourier._FrozenGraphEval.__call__
def counting(self, xis):
    counted[0] += len(np.atleast_2d(xis))
    return traced_kernel(self, xis)
fourier._FrozenGraphEval.__call__ = counting

tracer.begin_op("ray")
zs = zeroset.zeros_on_segment(geometry.disc(0.5), (0.5, 0.0), (3.0, 0.0))
tracer.end_op()
metrics, _ = spans.layer_metrics(tracer)
in_build = sum(s[spans.POINTS] for i, s in enumerate(tracer.spans)
               if s[spans.NAME] == "fourier.panel_eval"
               and spans._has_ancestor(tracer.spans, i, {"fourier.panel_build"}))
print(json.dumps({"metrics": metrics, "points": counted[0], "zeros": len(zs),
                  "in_build": in_build}))
"""


def test_traced_disc_ray_reports_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    metrics = out["metrics"]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    assert not missing

    assert out["points"] > 0 and out["zeros"] > 0
    assert metrics["fourier.panel_eval.points"] == out["points"]
    assert metrics["fourier.panel_build.calls"] == 1
    # the rule is sized from its bound: building it evaluates no frequency
    assert out["in_build"] == 0
    assert metrics["zeroset.zeros"] == out["zeros"]
