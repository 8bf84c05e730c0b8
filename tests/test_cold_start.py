"""The package and every ``reach`` command load numpy alone; scipy's LP
loads when the membership test first runs, whether or not a point needs
the LP."""

import json
import os
import subprocess
import sys
from pathlib import Path

import reachtune

CHILD = r"""
import json, sys

loaded = {}
import reachtune
loaded["import reachtune"] = "scipy" in sys.modules

from reachtune import cli, sampling
from reachtune.zonotope import Zonotope

tmp = sys.argv[1]
model, result = f"{tmp}/m.json", f"{tmp}/r.jsonl"
commands = {
    "gen": ["gen", "--dim", "2", "--seed", "1", "--out", model],
    "run": ["run", "--model", model, "--eps", "0.5", "--out", result],
    "baseline": ["baseline", "--model", model, "--dt", "0.1", "--eta", "6",
                 "--rho", "10", "--out", f"{tmp}/b.jsonl"],
    "check": ["check", "--result", result, "--model", model],
    "sample": ["sample", "--model", model, "--count", "2", "--seed", "1",
               "--out", f"{tmp}/t.jsonl", "--step", "0.05"],
}
codes = {}
for name, argv in commands.items():
    codes[name] = cli.main(argv)
    loaded[name] = "scipy" in sys.modules

lp_calls = []
exact = sampling._min_inf_norm

def counted(*args):
    lp_calls.append(args)
    return exact(*args)

sampling._min_inf_norm = counted
skewed = Zonotope([0.0, 0.0], [[1.0, 0.1], [1.0, -0.1]])
# (2, 0) lies outside the box hull [-1.1, 1.1]^2: the box check decides
outside = sampling.batch_contains(skewed, [[2.0, 0.0]], 1e-9)
box_calls = len(lp_calls)
loaded["box-decided batch_contains"] = "scipy.optimize" in sys.modules
# (0.9, -0.9) lies in the box hull of this thin diagonal zonotope but far
# outside it; no witness exists, so the LP decides
verdict = sampling.batch_contains(skewed, [[0.9, -0.9]], 1e-9)
print(json.dumps({"loaded": loaded, "codes": codes,
                  "verdicts": outside.tolist() + verdict.tolist(),
                  "lp_calls": [box_calls, len(lp_calls)]}))
"""


def test_scipy_loads_only_with_the_membership_test(tmp_path):
    # the child imports the same reachtune as this process, in this
    # process's environment
    src = str(Path(reachtune.__file__).resolve().parent.parent)
    pythonpath = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + pythonpath if pythonpath else "")}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == {name: 0 for name in
                            ("gen", "run", "baseline", "check", "sample")}
    assert out["loaded"] == {**{step: False for step in
                                ("import reachtune", "gen", "run", "baseline",
                                 "check", "sample")},
                             "box-decided batch_contains": True}
    assert out["verdicts"] == [False, False]
    assert out["lp_calls"] == [0, 1]
