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
from dataclasses import dataclass, field, replace

import numpy as np

from .reach import (ExponentialAccumulator, LinearSystem, ReachSegment,
                    StepSets, build_step_sets, homogeneous_error,
                    homogeneous_error_floor, minkowski_sum, propagate_step,
                    propagated_error)
from .taylor import MatrixPowers, TaylorSeries, max_taylor_order
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
    dt: float
    eta: int
    sets: StepSets
    hom_error: float
    input_error: float
    retries: int


class _Workspace:
    """Per-run state: matrix powers, order caps by step size, the largest
    entry of the homogeneous error floor and a build meter.

    All construction of step pieces, from Taylor terms to step sets, is
    metered in ``build_seconds``, apart from the search around it. Nothing
    built for a candidate outlives its step size's sweep: keeping each step
    size's Taylor series for the run saved no measurable time and held
    about 20 MB at dim 20.
    """

    def __init__(self, sys: LinearSystem):
        self.sys = sys
        self.powers = MatrixPowers(sys.a)
        self.hom_floor = homogeneous_error_floor(sys)
        self.build_seconds = 0.0
        self._caps: dict[float, int] = {}

    def build(self, construct, *args):
        """``construct(*args)``, its time added to ``build_seconds``."""
        mark = time.perf_counter()
        try:
            return construct(*args)
        finally:
            self.build_seconds += time.perf_counter() - mark

    def order_cap(self, series: TaylorSeries) -> int:
        """Cut-off order at the series' step size, read from its partial sums."""
        cap = self._caps.get(series.dt)
        if cap is None:
            cap = max_taylor_order(series, series.dt)
            self._caps[series.dt] = cap
        return cap


def _try_orders(workspace: _Workspace, acc: ExponentialAccumulator,
                budget: ErrorBudget, ledger: ErrorLedger,
                dt: float, admissible: float) -> tuple[TunedStep | None, int]:
    """Sweep eta upward at fixed dt; return the first passing candidate.

    A candidate whose remainder does not converge, or whose Taylor pieces
    overflow, is rejected without building any set. The homogeneous error
    is tested first, so the input sets are built only for candidates that
    pass the homogeneous cap, around the error set that cap measured.
    """
    sys = workspace.sys
    series = workspace.build(TaylorSeries, workspace.powers, dt)
    retries = 0
    for eta in range(1, workspace.order_cap(series) + 1):
        retries += 1
        pieces = workspace.build(series.pieces, eta)
        if pieces is None:
            continue
        hom_set = workspace.build(homogeneous_error, sys, pieces)
        hom_err = propagated_error(acc, hom_set)
        if not hom_err <= budget.hom_max:
            continue
        sets = workspace.build(build_step_sets, sys, pieces, hom_set)
        input_err = propagated_error(acc, sets.inh_error)
        if (input_err <= admissible
                and ledger.input_acc + input_err <= budget.input_max):
            return TunedStep(dt, eta, sets, hom_err, input_err, retries), retries
    return None, retries


def tune_step(sys: LinearSystem, acc: ExponentialAccumulator,
              budget: ErrorBudget, ledger: ErrorLedger, t: float,
              dt_prev: float, workspace: _Workspace) -> TunedStep:
    """Find ``(dt, eta)`` meeting both per-step bounds at time ``t``.

    Starts from the previous step enlarged once by ``1/0.9`` with the
    order reset to 1; raises the order up to its cut-off, then shrinks dt
    by 0.9 per sweep, until both the homogeneous error and the admissible
    input error accept the candidate. A dt whose certified floor on the
    homogeneous error (``homogeneous_error_floor``), halved to absorb
    rounding, already exceeds the cap is skipped without a sweep: no order
    could pass there, so the accepted step is the same, and the skipped
    dt adds no retries.
    """
    floor_rate = 0.5 * acc.min_gain() * workspace.hom_floor
    dt = dt_prev / _SHRINK
    retries = 0
    while True:
        if not floor_rate * dt * dt > budget.hom_max:
            admissible = admissible_share(budget.input_max - ledger.input_acc,
                                          dt, t, sys.horizon)
            step, tried = _try_orders(workspace, acc, budget, ledger, dt,
                                      admissible)
            retries += tried
            if step is not None:
                return replace(step, retries=retries)
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


def _step_through(sys: LinearSystem, choose, reduce,
                  dt_prev: float) -> tuple[list[ReachSegment], ErrorLedger]:
    """The stepping loop of both the adaptive and the fixed-parameter run.

    ``choose(t, acc, ledger, dt_prev)`` returns the step taken at ``t`` and
    its end time, and ``reduce(p_next, ledger, dt, t)`` the reduced
    accumulated input set with its reduction error. Each step propagates
    the chosen step sets, reduces, records the segment and the ledger entry
    and advances the exponential enclosure. ``dt_prev`` seeds the first
    choice.
    """
    ledger = ErrorLedger()
    acc = ExponentialAccumulator.identity(sys.dim)
    p_accum = Zonotope.point(np.zeros(sys.dim))
    segments: list[ReachSegment] = []
    t = 0.0
    while t < sys.horizon:
        step, t_hi = choose(t, acc, ledger, dt_prev)
        window, p_next = propagate_step(acc, step.sets, p_accum)
        p_next, reduction_err = reduce(p_next, ledger, step.dt, t)
        segments.append(ReachSegment(t, t_hi, minkowski_sum(window, p_accum)))
        ledger.add(StepRecord(
            t_lo=t, t_hi=t_hi, dt=step.dt, taylor_order=step.eta,
            zonotope_order=p_next.order, hom_error=step.hom_error,
            input_error=step.input_error, reduction_error=reduction_err,
            retries=step.retries))
        acc = acc.advanced(step.sets.propagator, step.sets.remainder)
        p_accum = p_next
        dt_prev = step.dt
        t = t_hi
    return segments, ledger


def run(sys: LinearSystem, eps_max: float,
        weights: tuple[float, float, float] = DEFAULT_WEIGHTS) -> "ReachResult":
    """Reachability analysis of ``sys`` with all parameters tuned at runtime.

    Returns segments tiling ``[0, horizon]`` together with the error ledger;
    the ledger totals are guaranteed to respect the budget split of
    ``eps_max``. A step that would reach or pass the horizon is re-tuned at
    the exact remaining width, and a leftover of at most a quarter of the
    accepted step is absorbed into it when the bounds still pass there.
    """
    budget = ErrorBudget.split(eps_max, weights)
    workspace = _Workspace(sys)
    horizon = sys.horizon
    tuning = 0.0

    def choose(t, acc, ledger, dt_prev):
        nonlocal tuning
        mark = time.perf_counter()
        built = workspace.build_seconds
        step = tune_step(sys, acc, budget, ledger, t, dt_prev, workspace)
        final = t + step.dt >= horizon * (1.0 - 1e-12)
        if final:
            retune = t + step.dt != horizon
        else:
            retune = 0.0 < horizon - t - step.dt <= 0.25 * step.dt
        if retune:
            # re-tune the order at the exact remaining width: required for a
            # final step, optional when absorbing a sliver of leftover horizon
            dt = horizon - t
            admissible = admissible_share(budget.input_max - ledger.input_acc,
                                          dt, t, horizon)
            clamped, tried = _try_orders(workspace, acc, budget, ledger, dt,
                                         admissible)
            if clamped is not None:
                step = replace(clamped, retries=step.retries + tried)
                final = True
            elif final:
                raise TuningFailedError(
                    f"no Taylor order satisfies the bounds at the clamped "
                    f"final step dt={dt:.3g}")
        # construction of step pieces counts as propagation, not tuning
        tuning += (time.perf_counter() - mark
                   - (workspace.build_seconds - built))
        return step, horizon if final else t + step.dt

    def reduce(p_next, ledger, dt, t):
        nonlocal tuning
        mark = time.perf_counter()
        reduced = reduce_accumulated(p_next, budget, ledger, dt, t, horizon)
        tuning += time.perf_counter() - mark
        return reduced

    start = time.perf_counter()
    segments, ledger = _step_through(sys, choose, reduce, horizon * _SHRINK)
    return ReachResult(segments=segments, ledger=ledger, budget=budget,
                       tuning_seconds=tuning,
                       total_seconds=time.perf_counter() - start)


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
