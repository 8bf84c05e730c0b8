"""Runtime self-tuning of all algorithm parameters against an error budget.

The user supplies a single bound ``eps_max``. It is split into three parts:
a per-step cap on the homogeneous error, and two accumulating budgets for
the input-driven error and the order-reduction error. Each step searches
``(dt, eta)`` until both per-step error values pass their bounds, then
reduces the accumulated input set as far as its admissible share allows.
On return the ledger certifies that every tracked error stayed within its
budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .reach import (ExponentialAccumulator, LinearSystem, ReachSegment,
                    build_step_sets, homogeneous_error_floor,
                    homogeneous_floor_rate, minkowski_sum, propagate_step,
                    propagated_homogeneous_error, propagated_input_error)
from .taylor import MatrixPowers, TaylorPieces, TaylorSeries, max_taylor_order
from .zonotope import Zonotope, _cut_ranked_prefix

DEFAULT_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
# factor by which the step search shrinks dt after a failed sweep of orders
_SHRINK = 0.9

# Relative dt floor below which the step search gives up; only reachable
# when a budget component is zero but its error source is not.
_DT_UNDERFLOW = 1e-15


class TuningFailedError(RuntimeError):
    """The step search underflowed; some bound cannot be met."""


@dataclass(frozen=True)
class ErrorBudget:
    """Split of the global bound into the three tracked error channels."""

    hom_max: float
    input_max: float
    reduction_max: float

    def __post_init__(self):
        for name in ("hom_max", "input_max", "reduction_max"):
            v = getattr(self, name)
            if not (v >= 0 and np.isfinite(v)):
                raise ValueError(f"{name} must be finite and nonnegative")

    @property
    def total(self) -> float:
        return self.hom_max + self.input_max + self.reduction_max

    @classmethod
    def split(cls, eps_max: float,
              weights: tuple[float, float, float] = DEFAULT_WEIGHTS) -> "ErrorBudget":
        """Divide ``eps_max`` by nonnegative weights summing to one."""
        if not (eps_max > 0 and np.isfinite(eps_max)):
            raise ValueError(f"eps_max must be positive, got {eps_max}")
        w = np.asarray(weights, dtype=float)
        if w.shape != (3,) or np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError(
                f"weights must be three nonnegative values summing to 1, got {weights}")
        return cls(eps_max * w[0], eps_max * w[1], eps_max * w[2])


@dataclass(frozen=True)
class StepRecord:
    """Accepted parameters and error values of one step."""

    t_lo: float
    t_hi: float
    dt: float
    taylor_order: int
    zonotope_order: float
    hom_error: float
    input_error: float
    reduction_error: float
    retries: int


@dataclass
class ErrorLedger:
    """Accumulated error totals plus the per-step records backing them."""

    input_acc: float = 0.0
    reduction_acc: float = 0.0
    records: list[StepRecord] = field(default_factory=list)

    def add(self, record: StepRecord) -> None:
        self.records.append(record)
        self.input_acc += record.input_error
        self.reduction_acc += record.reduction_error

    @property
    def max_hom_error(self) -> float:
        return max((r.hom_error for r in self.records), default=0.0)


def admissible_share(remaining: float, dt: float, t: float,
                     horizon: float) -> float:
    """Per-step share of a remaining accumulating budget, linear in dt."""
    if not t < horizon:
        raise ValueError(f"t={t} must be below the horizon {horizon}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return remaining * dt / (horizon - t)


@dataclass(frozen=True)
class TunedStep:
    pieces: TaylorPieces
    hom_error: float
    input_error: float
    retries: int


class _Workspace:
    """Per-run state of the step search: matrix powers, order caps by step
    size, the vector ``homogeneous_error_floor`` and a build meter.

    Only the search's Taylor construction is metered in ``build_seconds``.
    Nothing built for a candidate outlives its step size's sweep: keeping
    each step size's Taylor series for the run saved no measurable time and
    held about 20 MB at dim 20.
    """

    def __init__(self, sys: LinearSystem):
        self.powers = MatrixPowers(sys.a)
        self.hom_floor = homogeneous_error_floor(sys)
        self.build_seconds = 0.0
        self._caps: dict[float, int] = {}

    def build(self, construct, *args):
        """``construct(*args)``, its time added to ``build_seconds``."""
        mark = time.perf_counter()
        built = construct(*args)
        self.build_seconds += time.perf_counter() - mark
        return built

    def order_cap(self, series: TaylorSeries) -> int:
        """Cut-off order at the series' step size, read from its partial sums."""
        if series.dt not in self._caps:
            self._caps[series.dt] = max_taylor_order(series, series.dt)
        return self._caps[series.dt]


def tune_step(sys: LinearSystem, acc: ExponentialAccumulator,
              budget: ErrorBudget, ledger: ErrorLedger, t: float,
              workspace: _Workspace) -> TunedStep:
    """Find ``(dt, eta)`` meeting both per-step bounds at time ``t``.

    The first dt is the previous step's enlarged once by ``1/0.9``, or the
    remaining horizon ``T - t`` if smaller (the first step starts at ``T``),
    so no candidate passes the horizon. Each dt is swept from order 1 to its
    cut-off, then shrunk by 0.9, until a candidate passes the homogeneous
    cap and the admissible input error; ``retries`` counts every candidate.
    A dt whose certified floor ``homogeneous_floor_rate * dt**2`` exceeds
    the cap is skipped: no order could pass, so it adds no retries and the
    accepted step is the same. A candidate whose remainder diverges or whose
    pieces overflow is rejected; the others are scored in closed form, the
    input error only under the cap, so the search builds no set.
    """
    floor_rate = homogeneous_floor_rate(acc, workspace.hom_floor)
    remaining = sys.horizon - t
    dt = (min(ledger.records[-1].dt / _SHRINK, remaining) if ledger.records
          else remaining)
    retries = 0
    while True:
        if not floor_rate * dt * dt > budget.hom_max:
            admissible = admissible_share(budget.input_max - ledger.input_acc,
                                          dt, t, sys.horizon)
            series = workspace.build(TaylorSeries, workspace.powers, dt)
            for eta in range(1, workspace.order_cap(series) + 1):
                retries += 1
                pieces = workspace.build(series.pieces, eta)
                if pieces is None:
                    continue
                hom_err = propagated_homogeneous_error(acc, sys, pieces)
                if not hom_err <= budget.hom_max:
                    continue
                input_err = propagated_input_error(acc, sys, pieces)
                if (input_err <= admissible
                        and ledger.input_acc + input_err <= budget.input_max):
                    return TunedStep(pieces, hom_err, input_err, retries)
        dt *= _SHRINK
        if dt < sys.horizon * _DT_UNDERFLOW:
            raise TuningFailedError(
                "time step underflow: an error bound cannot be met; "
                "check for zero budget weights on a nonzero error source")


def reduce_accumulated(p_accum: Zonotope, budget: ErrorBudget,
                       ledger: ErrorLedger, dt: float, t: float,
                       horizon: float) -> tuple[Zonotope, float]:
    """Lower the order of the accumulated input set within its budget share:
    cut the longest prefix of ``_cut_ranked_prefix``'s ranking whose error is
    below the admissible share and the budget; a zero budget disables it."""
    if p_accum.num_generators <= p_accum.dim or budget.reduction_max <= 0:
        return p_accum, 0.0
    admissible = admissible_share(budget.reduction_max - ledger.reduction_acc,
                                  dt, t, horizon)

    def longest_within_budget(errs):
        return int(np.logical_and.accumulate(
            (errs < admissible)
            & (ledger.reduction_acc + errs <= budget.reduction_max)).sum())
    return _cut_ranked_prefix(p_accum, longest_within_budget)


def _step_through(sys: LinearSystem, choose, reduce
                  ) -> tuple[list[ReachSegment], ErrorLedger, float, float]:
    """The stepping loop, and its one clock, of both the adaptive and the
    fixed-parameter run.

    ``choose(acc, ledger, t)`` gives a ``TunedStep``, ``reduce(p, ledger,
    dt, t)`` acts as ``reduce_accumulated``. Each step builds the step sets
    of the chosen pieces unless they are the last step's, propagates them,
    reduces, records the segment and the ledger entry and advances the
    exponential enclosure. A step of width ``T - t`` ends exactly at ``T``,
    any other at ``t + dt``. Returns the segments, the ledger, the seconds
    inside ``choose`` and ``reduce`` together, and those of the whole loop.
    """
    ledger = ErrorLedger()
    acc = ExponentialAccumulator.identity(sys.dim)
    p_accum = Zonotope.point(np.zeros(sys.dim))
    segments: list[ReachSegment] = []
    t = 0.0
    pieces = sets = None
    callback_seconds = 0.0
    start = time.perf_counter()
    while t < sys.horizon:
        mark = time.perf_counter()
        step = choose(acc, ledger, t)
        callback_seconds += time.perf_counter() - mark
        if step.pieces is not pieces:
            pieces = step.pieces
            sets = build_step_sets(sys, pieces)
        t_hi = sys.horizon if pieces.dt == sys.horizon - t else t + pieces.dt
        window, p_next = propagate_step(acc, sets, p_accum)
        mark = time.perf_counter()
        p_next, reduction_err = reduce(p_next, ledger, pieces.dt, t)
        callback_seconds += time.perf_counter() - mark
        segments.append(ReachSegment(t, t_hi, minkowski_sum(window, p_accum)))
        ledger.add(StepRecord(
            t_lo=t, t_hi=t_hi, dt=pieces.dt, taylor_order=pieces.eta,
            zonotope_order=p_next.order, hom_error=step.hom_error,
            input_error=step.input_error, reduction_error=reduction_err,
            retries=step.retries))
        acc = acc.advanced(pieces.partial_sum, pieces.remainder)
        p_accum = p_next
        t = t_hi
    return segments, ledger, callback_seconds, time.perf_counter() - start


def run(sys: LinearSystem, eps_max: float,
        weights: tuple[float, float, float] = DEFAULT_WEIGHTS) -> "ReachResult":
    """Reachability analysis of ``sys`` with all parameters tuned at runtime.

    Returns segments tiling ``[0, horizon]`` together with the error ledger;
    the ledger totals are guaranteed to respect the budget split of
    ``eps_max``. No step search tries a width past the remaining horizon,
    and the step accepted at the full remaining width is the last one.
    ``tuning_seconds`` is the loop's time in ``tune_step`` and
    ``reduce_accumulated`` less ``_Workspace.build_seconds``, the search's
    Taylor construction. Raises ``TuningFailedError`` when dt underflows.
    """
    budget = ErrorBudget.split(eps_max, weights)
    workspace = _Workspace(sys)
    # the lambdas look the two functions up per call, so patches reach them
    segments, ledger, callback_seconds, total = _step_through(
        sys, lambda acc, ledger, t: tune_step(sys, acc, budget, ledger, t, workspace),
        lambda p, ledger, dt, t: reduce_accumulated(p, budget, ledger, dt, t,
                                                    sys.horizon))
    return ReachResult(segments=segments, ledger=ledger, budget=budget,
                       tuning_seconds=callback_seconds - workspace.build_seconds,
                       total_seconds=total)


@dataclass(frozen=True)
class ReachResult:
    """Ordered reachable segments plus the certifying ledger and timings."""

    segments: list[ReachSegment]
    ledger: ErrorLedger
    budget: ErrorBudget | None
    tuning_seconds: float
    total_seconds: float

    @property
    def steps(self) -> int:
        return len(self.segments)

    @property
    def dt_min(self) -> float:
        return min(r.dt for r in self.ledger.records)

    @property
    def dt_max(self) -> float:
        return max(r.dt for r in self.ledger.records)

    @property
    def tuning_time_fraction(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return min(1.0, self.tuning_seconds / self.total_seconds)

    @property
    def final_set(self) -> Zonotope:
        return self.segments[-1].set
