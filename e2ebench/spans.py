"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the package: each traced function is
replaced on every ``reachtune`` module attribute that still refers to it,
because the package imports names directly (``from .reach import
build_step_sets``), so patching the defining module alone would miss most
callers. Methods are patched on their class.

Every call records one span: name, parent, thread, wall-clock start and
end, and the thread's CPU time at start and end. Spans are kept in
per-thread arrays and written once, at the end. A span's self time is its
CPU time minus that of its child spans. CPU time, not wall time, because
the ``stiff`` workload analyses its models on a thread pool: under the
interpreter lock a thread that waits for its turn keeps its spans open, so
their wall time would include the other thread's work.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array

import numpy as np

# (layer, label, owner, attribute). ``owner`` is a module path or
# "module:Class" for methods. The label is the span name after the layer.
TRACED = [
    ("cli", "main", "reachtune.cli", "main"),
    ("modelio", "load_model", "reachtune.modelio", "load_model"),
    ("modelio", "run_adaptive", "reachtune.modelio", "run_adaptive"),
    ("modelio", "run_fixed_baseline", "reachtune.modelio", "run_fixed_baseline"),
    ("modelio", "write_result", "reachtune.modelio", "write_result"),
    ("modelio", "write_report", "reachtune.modelio", "write_report"),
    ("modelio", "read_result", "reachtune.modelio", "read_result"),
    ("modelio", "check_specs", "reachtune.modelio", "check_specs"),
    ("tuner", "run", "reachtune.tuner", "run"),
    ("tuner", "tune_step", "reachtune.tuner", "tune_step"),
    ("tuner", "reduce_accumulated", "reachtune.tuner", "reduce_accumulated"),
    ("reach", "build_step_sets", "reachtune.reach", "build_step_sets"),
    ("reach", "propagate_step", "reachtune.reach", "propagate_step"),
    ("reach", "propagated_error", "reachtune.reach", "propagated_error"),
    ("reach", "advance", "reachtune.reach:ExponentialAccumulator", "advanced"),
    ("taylor", "taylor_partial_sum", "reachtune.taylor", "taylor_partial_sum"),
    ("taylor", "truncation_remainder", "reachtune.taylor", "truncation_remainder"),
    ("taylor", "curvature_enclosure", "reachtune.taylor", "curvature_enclosure"),
    ("taylor", "input_correction", "reachtune.taylor", "input_correction"),
    ("taylor", "max_taylor_order", "reachtune.taylor", "max_taylor_order"),
    ("zonotope", "init", "reachtune.zonotope:Zonotope", "__init__"),
    ("zonotope", "reduce_order", "reachtune.zonotope", "reduce_order"),
    ("zonotope", "interval_map", "reachtune.zonotope", "interval_map"),
    ("zonotope", "minkowski_sum", "reachtune.zonotope", "minkowski_sum"),
    ("zonotope", "linear_map", "reachtune.zonotope", "linear_map"),
    ("zonotope", "hull_of", "reachtune.zonotope", "hull_of"),
    ("zonotope", "enclosure_radius", "reachtune.zonotope", "enclosure_radius"),
    ("zonotope", "interval_hull", "reachtune.zonotope", "interval_hull"),
    ("zonotope", "support", "reachtune.zonotope", "support"),
    ("intervals", "matrix_init", "reachtune.intervals:IntervalMatrix", "__init__"),
    ("intervals", "vector_init", "reachtune.intervals:IntervalVector", "__post_init__"),
    ("intervals", "matmul", "reachtune.intervals:IntervalMatrix", "__matmul__"),
    ("kernels", "interval_matmul", "reachtune.kernels", "interval_matmul"),
    ("kernels", "rk4_piecewise", "reachtune.kernels", "rk4_piecewise"),
    ("sampling", "sample_trajectories", "reachtune.sampling", "sample_trajectories"),
    ("sampling", "check_containment", "reachtune.sampling", "check_containment"),
    ("sampling", "batch_contains", "reachtune.sampling", "batch_contains"),
]

LAYERS = ("cli", "modelio", "tuner", "reach", "taylor", "zonotope",
          "intervals", "kernels", "sampling")


class _ThreadLog:
    """Spans and counters of one thread; only that thread appends to it."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.cpu_starts = array("d")
        self.cpu_ends = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        if value > self.peaks.get(key, 0.0):
            self.peaks[key] = value


class Recorder:
    """Installs span wrappers on the package and turns spans into metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _wrap(self, name: str, fn, on_exit=None):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        cpu_clock = time.thread_time
        log_of = self._log

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = log_of()
            index = len(log.starts)
            log.names.append(name_id)
            log.parents.append(log.stack[-1] if log.stack else -1)
            log.ends.append(0.0)
            log.cpu_ends.append(0.0)
            log.stack.append(index)
            log.cpu_starts.append(cpu_clock())
            log.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.ends[index] = clock()
                log.cpu_ends[index] = cpu_clock()
                log.stack.pop()
            if on_exit is not None:
                on_exit(log, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever the package refers to it."""
        hooks = default_hooks()
        modules = {k: m for k, m in sys.modules.items()
                   if k == "reachtune" or k.startswith("reachtune.")}
        for layer, label, owner, attr in TRACED:
            name = f"{layer}.{label}"
            module_name, _, class_name = owner.partition(":")
            home = modules[module_name]
            if class_name:
                cls = getattr(home, class_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original, hooks.get(name)))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, hooks.get(name))
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def spans(self) -> dict:
        """All spans as flat arrays; ``parent`` indexes into the same arrays."""
        columns = {"name": [], "parent": [], "start": [], "end": [],
                   "cpu_start": [], "cpu_end": [], "thread": []}
        offset = 0
        for log in self._logs:
            parent = np.frombuffer(log.parents, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            columns["name"].append(np.frombuffer(log.names, dtype=np.int32))
            columns["parent"].append(parent)
            for key in ("start", "end", "cpu_start", "cpu_end"):
                columns[key].append(np.frombuffer(getattr(log, key + "s"), dtype=np.float64))
            columns["thread"].append(np.full(len(log.starts), log.thread_id,
                                             dtype=np.uint64))
            offset += len(log.starts)
        dtypes = {"name": np.int32, "parent": np.int64, "thread": np.uint64}
        return {key: (np.concatenate(parts) if parts
                      else np.zeros(0, dtype=dtypes.get(key, np.float64)))
                for key, parts in columns.items()}

    def counters(self) -> tuple[dict, dict]:
        sums: dict[str, float] = {}
        peaks: dict[str, float] = {}
        for log in self._logs:
            for key, value in log.counters.items():
                sums[key] = sums.get(key, 0.0) + value
            for key, value in log.peaks.items():
                peaks[key] = max(peaks.get(key, 0.0), value)
        return sums, peaks

    def write(self, path) -> None:
        spans = self.spans()
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **spans)


def self_times(spans: dict) -> np.ndarray:
    """CPU time of every span minus the CPU time of its direct children."""
    cpu = spans["cpu_end"] - spans["cpu_start"]
    out = cpu.copy()
    nested = spans["parent"] >= 0
    np.subtract.at(out, spans["parent"][nested], cpu[nested])
    return out


def default_hooks() -> dict:
    """Counters taken at span exit from arguments and return values."""

    def tuner_run(log, args, kwargs, result):
        log.add("tuner.steps", result.steps)
        log.add("tuner.candidates", sum(r.retries for r in result.ledger.records))

    def reduce_accumulated(log, args, kwargs, result):
        # once it starts, the round loop only ends with more than n
        # generators left when its last round was rejected
        p_accum, budget = args[0], args[1]
        if (budget.reduction_max > 0 and p_accum.num_generators > p_accum.dim
                and result[0].num_generators > p_accum.dim):
            log.add("tuner.reduce_rejected", 1)

    def zonotope_init(log, args, kwargs, result):
        log.peak("zonotope.peak_generators", args[0].generators.shape[1])

    def write_result(log, args, kwargs, result):
        log.add("modelio.segments_written", len(args[1].segments))

    def check_containment(log, args, kwargs, result):
        log.add("sampling.states_checked", result.checked)

    return {"tuner.run": tuner_run,
            "tuner.reduce_accumulated": reduce_accumulated,
            "zonotope.init": zonotope_init,
            "modelio.write_result": write_result,
            "sampling.check_containment": check_containment}
