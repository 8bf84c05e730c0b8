"""Self-tuning reachability analysis for linear time-invariant systems.

All algorithm parameters (time step size, Taylor truncation order, zonotope
order) are adapted at runtime so that the tracked over-approximation error
stays below one user-supplied bound.
"""

from .intervals import IntervalMatrix, IntervalVector
from .kernels import active_backend
from .modelio import (ModelError, RunReport, SafetySpec, SpecVerdict,
                      check_specs, load_model, random_system, read_result,
                      run_adaptive, run_fixed_baseline, save_model,
                      write_result)
from .reach import ExponentialAccumulator, LinearSystem, ReachSegment, StepSets
from .sampling import (TrajectoryBatch, batch_contains, check_containment,
                       sample_trajectories)
from .taylor import NotConvergentError, max_taylor_order
from .tuner import (ErrorBudget, ErrorLedger, ReachResult, StepRecord,
                    TuningFailedError, run)
from .zonotope import (Zonotope, enclosure_radius, interval_hull, interval_map,
                       linear_map, minkowski_sum, reduce_order, support)

__version__ = "0.1.0"

__all__ = [
    "ErrorBudget", "ErrorLedger", "ExponentialAccumulator", "IntervalMatrix",
    "IntervalVector", "LinearSystem", "ModelError", "NotConvergentError",
    "ReachResult", "ReachSegment", "RunReport", "SafetySpec", "SpecVerdict",
    "StepRecord", "StepSets", "TrajectoryBatch", "TuningFailedError",
    "Zonotope", "active_backend", "batch_contains", "check_containment",
    "check_specs", "enclosure_radius", "interval_hull",
    "interval_map", "linear_map", "load_model", "max_taylor_order",
    "minkowski_sum", "random_system", "read_result", "reduce_order", "run",
    "run_adaptive", "run_fixed_baseline", "sample_trajectories", "save_model",
    "support", "write_result",
]
