"""One benchmark process: set-up, timed operations, checks and metrics.

``run.py`` starts this script in a fresh interpreter, so its set-up time
(interpreter start, ``import reachtune``, one tiny analysis) and peak RSS
belong to one run of one workload. One untimed, checked operation warms
up before the timed ones. Untraced runs start ``probe.py`` beside the
operations and report ``wall_ref``: the median over operations of their
wall time divided by the probe's mean pass time during them. The script
writes one JSON object to ``--out``; the command's own standard output is
discarded by the caller.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.time() just before the parent started this process")
    p.add_argument("--src", required=True, help="directory holding reachtune")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--workdir")
    p.add_argument("--spans", help="file for the traced run's spans (.npz)")
    return p.parse_args(argv)


def _set_up(src: str):
    """Import the package from ``src`` and run one small analysis."""
    sys.path.insert(0, src)
    import reachtune
    location = Path(reachtune.__file__).resolve()
    if Path(src).resolve() not in location.parents:
        raise SystemExit(f"reachtune was imported from {location}, not from {src}")
    reachtune.run(reachtune.random_system(2, 0), 0.5)
    return reachtune


def environment(reachtune) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": reachtune.active_backend(),
        "REACH_THREADS": os.environ.get("REACH_THREADS"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus_used": sorted(os.sched_getaffinity(0)),
    }


class HostProbe:
    """``probe.py`` running beside the timed operations, until ``stop``."""

    def __init__(self, path: Path):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 60.0
        while len(self.passes()) < 3:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the host probe did not start")
            time.sleep(0.01)

    def passes(self) -> list[tuple[float, float]]:
        """(start, end) of every complete pass so far."""
        text = self.path.read_text() if self.path.exists() else ""
        return [tuple(map(float, line.split())) for line in text.split("\n")[:-1]]

    def stop(self) -> list[tuple[float, float]]:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        return self.passes()


def pass_time(passes, lo: float, hi: float) -> float:
    """Mean probe pass time over [lo, hi], widened until it holds three passes."""
    pad = 0.0
    while True:
        inside = [end - start for start, end in passes
                  if start >= lo - pad and end <= hi + pad]
        if len(inside) >= 3:
            return statistics.fmean(inside)
        pad = 2.0 * pad + 0.05


def _one_op(workload, inputs, recorder=None):
    """Run and check one operation; a failure is recorded, not raised.

    With a recorder, only the operation itself is traced, not its checks.
    """
    from workloads import Check
    gc.collect()
    if recorder is not None:
        recorder.install()
    start = time.monotonic()
    try:
        outcome = workload.operate(inputs)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted
        outcome, check = None, Check(failures=[f"operation raised {exc!r}"])
    end = time.monotonic()
    if recorder is not None:
        recorder.uninstall()
    if outcome is not None:
        try:
            check = workload.verify(inputs, outcome)
        except Exception as exc:  # noqa: BLE001 - a failed check is counted
            check = Check(failures=[f"check raised {exc!r}"])
    return (start, end), check


def _consistent(checks) -> list[str]:
    """Repeated operations on the same inputs must give the same counts."""
    first = checks[0]
    problems = []
    for c in checks[1:]:
        if (c.steps, c.hull_width) != (first.steps, first.hull_width):
            problems.append(f"repeat gave steps={c.steps} hull_width={c.hull_width}, "
                            f"first gave {first.steps} and {first.hull_width}")
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    reachtune = _set_up(args.src)
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        Path(args.out).write_text(json.dumps({"setup_s": setup_s}))
        return 0
    # One CPU for the operations and the probe: each CPU of a shared host
    # drifts at its own pace, and a probe on the other CPU tracked the
    # operations' time far worse. Threads and processes started from here
    # inherit the CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    inputs = workload.prepare(args.seed, args.size, workdir)

    # The host's speed drifts by up to 1.6x over tens of seconds, so each
    # operation's wall time is divided by the probe's mean pass time over
    # the same interval. A traced run makes one untraced operation, to
    # compare the traced one with, and runs no probe.
    probe = None if args.trace else HostProbe(workdir / "probe.txt")
    try:
        _, check = _one_op(workload, inputs)  # warm-up: checked, not timed
        checks, spans = [check], []
        while not spans or (not args.trace
                            and sum(e - s for s, e in spans) < args.seconds):
            span, check = _one_op(workload, inputs)
            spans.append(span)
            checks.append(check)
    finally:
        passes = probe.stop() if probe else []
    times = [end - start for start, end in spans]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "op_seconds": times,
        "wall_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
        "steps": checks[0].steps,
        "hull_width": checks[0].hull_width,
        "output_mb": checks[0].output_bytes / 1e6,
        "environment": environment(reachtune),
    }

    if passes:
        pass_s = [pass_time(passes, start, end) for start, end in spans]
        result["probe_pass_s"] = pass_s
        result["wall_ref"] = statistics.median(t / p for t, p in zip(times, pass_s))

    if args.trace:
        from spans import Recorder
        from layers import layer_metrics
        recorder = Recorder()
        (start, end), check = _one_op(workload, inputs, recorder)
        traced_s = end - start
        checks.append(check)
        metrics, shares = layer_metrics(recorder, traced_s, statistics.median(times))
        coverage = metrics["trace.coverage"]
        if abs(coverage - 1.0) > 0.05:
            check.failures.append(
                f"per-layer self times sum to {coverage:.3f} of the traced "
                "wall time")
        result["per_layer"] = metrics
        result["self_time_shares"] = shares
        if args.spans:
            recorder.write(args.spans)

    checks[-1].failures.extend(_consistent(checks))
    result["attempted"] = len(checks)
    result["failed"] = sum(1 for c in checks if c.failures)
    result["failures"] = [f for c in checks for f in c.failures]
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
