"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name with getattr/setattr, so a renamed or removed function breaks every
traced round.  One traced CLI run, in a fresh interpreter, must find every
name and account for all of its time."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from sgfem import cli

t = tracer.Tracer()
tracer.install(t)
rc = t.run_root(cli.main, sys.argv[2:])
layers = tracer.layer_metrics(t)
selfs = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
print(json.dumps({"rc": rc, "layers": layers, "selfs": selfs}))
"""


def test_traced_run_with_reference(tmp_path):
    argv = ["run", "--criterion", "B", "--tol", "1e-1", "--with-reference",
            "--output", str(tmp_path / "trace.csv")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["rc"] == 0
    layers = out["layers"]
    # one thread: the layers' self times partition the traced run
    assert abs(out["selfs"] - layers["trace.run_s"]) <= 1e-6
    assert layers["mesh.trial_refine_calls"] > 0
    assert layers["mesh.uniform_refine_calls"] == 1
    assert layers["mesh.triangles_out"] > 0
    assert layers["estimators.nplus"] > 0
