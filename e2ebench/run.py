"""End-to-end benchmark of reachtune: one workload, one seed, one JSON line.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload stiff --seed 1 --seconds 25 --trace 0

Workloads: ``stiff``, ``highdim``, ``fixed-verify`` (see ``workloads.py``).
Closed loop: one client in one process makes the calls the ``reach``
command makes, one operation after another, for ``--seconds`` of timed
work (at least one operation). Every operation is checked outside the
timed window.

With ``--trace 0`` the last line reports the end-to-end metrics: median
operation time in passes of a host-speed probe's loop that runs beside
it (``wall_ref``), set-up time (median over several fresh processes),
peak RSS, steps, time-weighted hull width and bytes written. The median
operation time in seconds is printed on the line before. With
``--trace 1`` the workload runs once untraced and once with spans around
the package's public functions, and the last line reports the per-layer
metrics of ``layers.py``. A summary with the run environment goes to
``.bench_out/``; the traced run's spans go there too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_PROCESSES = 3  # besides the worker itself, which is one more sample

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB",
              "steps": "count", "hull_width": "state_units", "output_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def _spawn(args: list[str], out: Path, deadline: float, env: dict) -> dict:
    """Run one worker process to completion and return what it wrote."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--spawned-at", repr(time.time()), "--out", str(out), *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed")
    # its own process group, so that a timeout also ends the worker's probe
    proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, env=env,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=remaining)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, command)
    return json.loads(out.read_text())


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "reachtune" / "__init__.py").is_file():
        print(f"error: {src}/reachtune not found; run from a reachtune checkout",
              file=sys.stderr)
        return 2
    # one BLAS thread: on a few shared cores, more threads measure the scheduler
    env = {**os.environ, "REACH_THREADS": str(os.cpu_count() or 1),
           "OPENBLAS_NUM_THREADS": "1"}
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    outdir = root / ".bench_out"
    workdir = root / ".bench_work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_PROCESSES):
                setups.append(_spawn(["--src", str(src), "--setup-only"],
                                     workdir / f"setup{k}.json", deadline, env)["setup_s"])
        result = _spawn(["--src", str(src), "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--size", args.size,
                         "--workdir", str(workdir),
                         "--spans", str(outdir / f"spans-{tag}.npz")],
                        workdir / "worker.json", deadline, env)
    except (subprocess.SubprocessError, TimeoutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    if args.trace:
        from layers import PER_LAYER
        units = PER_LAYER
        values = result["per_layer"]
    else:
        units = END_TO_END
        values = result
    (outdir / f"{tag}.json").write_text(json.dumps(result, indent=1))
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("environment: " + json.dumps(result["environment"]))
    print(f"median operation wall time: {result['wall_s']:.4f} s")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
