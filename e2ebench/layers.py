"""Per-layer metrics of one traced operation, computed from its spans.

All times are thread CPU time (see ``spans``). ``<layer>.<function>.self_s``
is self time. ``<layer>.<function>_s`` is the function's time summed over
calls, children included. ``.calls`` counts calls.
``layer.<layer>.self_s`` is the self time of all of a layer's spans, so the
``layer.*`` metrics add up to the traced operation's CPU time, which
``trace.coverage`` compares with its wall time.
"""

from __future__ import annotations

import numpy as np

from spans import LAYERS, Recorder, self_times

TAYLOR_SERIES = ("taylor.taylor_partial_sum", "taylor.truncation_remainder",
                 "taylor.curvature_enclosure", "taylor.input_correction")

# name -> unit, in the order they are reported
PER_LAYER = {
    "tuner.run.self_s": "s",
    "tuner.tune_step.self_s": "s",
    "tuner.candidates": "count",
    "tuner.accept_ratio": "ratio",
    "tuner.reduce_accumulated.self_s": "s",
    "tuner.reduce_rounds": "count",
    "tuner.reduce_kept_ratio": "ratio",
    "reach.build_step_sets.self_s": "s",
    "reach.build_step_sets.calls": "count",
    "reach.propagated_error_s": "s",
    "reach.propagated_error.calls": "count",
    "reach.propagate_step_s": "s",
    "reach.advance_s": "s",
    "taylor.series_s": "s",
    "taylor.series.calls": "count",
    "taylor.max_taylor_order_s": "s",
    "zonotope.reduce_order_s": "s",
    "zonotope.reduce_order.calls": "count",
    "zonotope.peak_generators": "count",
    "zonotope.interval_map_s": "s",
    "zonotope.minkowski_sum_s": "s",
    "zonotope.init_s": "s",
    "zonotope.init.calls": "count",
    "intervals.matmul_s": "s",
    "intervals.matmul.calls": "count",
    "intervals.init_s": "s",
    "kernels.interval_matmul_s": "s",
    "kernels.rk4_s": "s",
    "modelio.load_model_s": "s",
    "modelio.write_result_s": "s",
    "modelio.read_result_s": "s",
    "modelio.check_specs_s": "s",
    "modelio.run_fixed_baseline.self_s": "s",
    "modelio.segments_written": "count",
    "sampling.sample_trajectories_s": "s",
    "sampling.check_containment_s": "s",
    "sampling.states_checked": "count",
    "cli.main.self_s": "s",
    "cli.dispatch_overlap": "ratio",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class _Table:
    """Per-name aggregates of one set of spans."""

    def __init__(self, recorder: Recorder):
        spans = recorder.spans()
        self.names = recorder.names
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.duration = spans["cpu_end"] - spans["cpu_start"]
        self.wall = spans["end"] - spans["start"]
        self.self_time = self_times(spans)
        self.ids = {n: i for i, n in enumerate(self.names)}

    def _mask(self, *names: str) -> np.ndarray:
        return np.isin(self.name, [self.ids[n] for n in names])

    def calls(self, *names: str) -> int:
        return int(self._mask(*names).sum())

    def self_s(self, *names: str) -> float:
        return float(self.self_time[self._mask(*names)].sum())

    def total_s(self, *names: str) -> float:
        """Span time of the group, not counting spans nested in the group."""
        member = self._mask(*names)
        has_parent = self.parent >= 0
        nested = np.zeros_like(member)
        nested[has_parent] = member[self.parent[has_parent]]
        return float(self.duration[member & ~nested].sum())

    def wall_s(self, name: str) -> float:
        return float(self.wall[self._mask(name)].sum())

    def children_of(self, child: str, parent: str) -> int:
        member = self._mask(child) & (self.parent >= 0)
        return int((self.name[self.parent[member]] == self.ids[parent]).sum())

    def layer_self(self, layer: str) -> float:
        return self.self_s(*[n for n in self.names if n.startswith(layer + ".")])


def layer_metrics(recorder: Recorder, traced_s: float,
                  untraced_s: float) -> tuple[dict, list]:
    """Every PER_LAYER metric, plus the self-time share of each function."""
    t = _Table(recorder)
    sums, peaks = recorder.counters()
    candidates = sums.get("tuner.candidates", 0.0)
    rounds = t.children_of("zonotope.reduce_order", "tuner.reduce_accumulated")
    kept = rounds - sums.get("tuner.reduce_rejected", 0.0)
    cli_main = t.wall_s("cli.main")
    m = {
        "tuner.run.self_s": t.self_s("tuner.run"),
        "tuner.tune_step.self_s": t.self_s("tuner.tune_step"),
        "tuner.candidates": candidates,
        "tuner.accept_ratio": sums.get("tuner.steps", 0.0) / candidates if candidates else 0.0,
        "tuner.reduce_accumulated.self_s": t.self_s("tuner.reduce_accumulated"),
        "tuner.reduce_rounds": rounds,
        "tuner.reduce_kept_ratio": kept / rounds if rounds else 0.0,
        "reach.build_step_sets.self_s": t.self_s("reach.build_step_sets"),
        "reach.build_step_sets.calls": t.calls("reach.build_step_sets"),
        "reach.propagated_error_s": t.total_s("reach.propagated_error"),
        "reach.propagated_error.calls": t.calls("reach.propagated_error"),
        "reach.propagate_step_s": t.total_s("reach.propagate_step"),
        "reach.advance_s": t.total_s("reach.advance"),
        "taylor.series_s": t.total_s(*TAYLOR_SERIES),
        "taylor.series.calls": t.calls(*TAYLOR_SERIES),
        "taylor.max_taylor_order_s": t.total_s("taylor.max_taylor_order"),
        "zonotope.reduce_order_s": t.total_s("zonotope.reduce_order"),
        "zonotope.reduce_order.calls": t.calls("zonotope.reduce_order"),
        "zonotope.peak_generators": peaks.get("zonotope.peak_generators", 0.0),
        "zonotope.interval_map_s": t.total_s("zonotope.interval_map"),
        "zonotope.minkowski_sum_s": t.total_s("zonotope.minkowski_sum"),
        "zonotope.init_s": t.total_s("zonotope.init"),
        "zonotope.init.calls": t.calls("zonotope.init"),
        "intervals.matmul_s": t.total_s("intervals.matmul"),
        "intervals.matmul.calls": t.calls("intervals.matmul"),
        "intervals.init_s": t.total_s("intervals.matrix_init", "intervals.vector_init"),
        "kernels.interval_matmul_s": t.total_s("kernels.interval_matmul"),
        "kernels.rk4_s": t.total_s("kernels.rk4_piecewise"),
        "modelio.load_model_s": t.total_s("modelio.load_model"),
        "modelio.write_result_s": t.total_s("modelio.write_result"),
        "modelio.read_result_s": t.total_s("modelio.read_result"),
        "modelio.check_specs_s": t.total_s("modelio.check_specs"),
        "modelio.run_fixed_baseline.self_s": t.self_s("modelio.run_fixed_baseline"),
        "modelio.segments_written": sums.get("modelio.segments_written", 0.0),
        "sampling.sample_trajectories_s": t.total_s("sampling.sample_trajectories"),
        "sampling.check_containment_s": t.total_s("sampling.check_containment"),
        "sampling.states_checked": sums.get("sampling.states_checked", 0.0),
        "cli.main.self_s": t.self_s("cli.main"),
        # wall time: how many analyses ran at once inside the command
        "cli.dispatch_overlap": (t.wall_s("modelio.run_adaptive") / cli_main
                                 if cli_main else 0.0),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = t.layer_self(layer)
    m["trace.wall_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.coverage"] = float(t.self_time.sum()) / traced_s
    shares = sorted(((n, t.self_s(n) / traced_s) for n in t.names),
                    key=lambda item: -item[1])
    return {k: m[k] for k in PER_LAYER}, [[n, round(s, 4)] for n, s in shares]
