"""Model files, random benchmark systems, result/report files, safety specs.

Model file layout (JSON)::

    {"A": [[...], ...],                       row-major system matrix
     "X0": {"center": [...], "generators": [[...], ...]},
     "U":  {"center": [...], "generators": [[...], ...]},
     "T": 3.0,
     "specs": [{"name": "...", "direction": [...], "bound": 0.0}, ...]}

Generator matrices are stored as lists of columns (one generator per entry).
Result files are JSON lines, one reachable segment per line. Floats are
emitted with shortest round-trip precision, so save/load is bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .reach import (LinearSystem, ReachSegment, propagated_homogeneous_error,
                    propagated_input_error)
from .taylor import (MAX_ORDER_CAP, MatrixPowers, TaylorPieces, TaylorSeries,
                     convergence_ratio)
from .tuner import DEFAULT_WEIGHTS, ReachResult, TunedStep, _step_through, run
from .zonotope import (Zonotope, _halfwidths, interval_hull, reduce_order,
                       support)


class ModelError(ValueError):
    """A model, a result file or a run parameter failed to parse or validate."""


@dataclass(frozen=True)
class SafetySpec:
    """Halfspace requirement: every reachable set must satisfy
    ``support(set, direction) <= bound``."""

    name: str
    direction: np.ndarray
    bound: float

    def __post_init__(self):
        direction = np.asarray(self.direction, dtype=float).reshape(-1)
        if not np.all(np.isfinite(direction)):
            raise ModelError(f"spec {self.name!r}: direction must be finite")
        if not math.isfinite(self.bound):
            raise ModelError(f"spec {self.name!r}: bound must be finite")
        object.__setattr__(self, "direction", direction)


@dataclass(frozen=True)
class SpecVerdict:
    name: str
    satisfied: bool
    violating_index: int | None = None
    violating_time: float | None = None
    support_value: float | None = None
    bound: float = 0.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ModelError(message)


def _has_bool(value) -> bool:
    if not isinstance(value, list):
        return isinstance(value, bool)
    kinds = set(map(type, value))
    return bool in kinds or (list in kinds and any(
        _has_bool(item) for item in value if isinstance(item, list)))


def _numeric(value, label: str) -> np.ndarray:
    """``value`` as a float array; a ModelError naming the field if it is
    not numeric or holds a JSON boolean, which numpy would read as 1 or 0."""
    _require(not _has_bool(value), f"field {label} must be numeric, not a boolean")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"field {label} must be numeric: {exc}") from exc


def _scalar(value, label: str) -> float:
    number = _numeric(value, label)
    _require(number.ndim == 0, f"field {label} must be a number")
    return float(number)


def _zonotope_from_json(obj, label: str, dim: int | None = None) -> Zonotope:
    _require(isinstance(obj, dict), f"field {label} must be an object")
    _require("center" in obj, f"missing field {label}.center")
    center = _numeric(obj["center"], f"{label}.center").reshape(-1)
    _require(np.all(np.isfinite(center)), f"field {label}.center must be finite")
    n = center.shape[0]
    if dim is not None:
        _require(n == dim, f"field {label}.center has length {n}, expected {dim}")
    columns = obj.get("generators", [])
    if columns != []:
        gens = _numeric(columns, f"{label}.generators")
        _require(gens.ndim == 2 and gens.shape[1] == n,
                 f"field {label}.generators must be a list of length-{n} columns")
        _require(bool(np.all(np.isfinite(gens))),
                 f"field {label}.generators must be finite")
        gens = gens.T
    else:
        gens = np.zeros((n, 0))
    return Zonotope(center, gens)


def _zonotope_to_json(z: Zonotope) -> dict:
    return {"center": z.center.tolist(), "generators": z.generators.T.tolist()}


def _read_json_object(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    _require(isinstance(raw, dict), f"{path}: top level must be an object")
    return raw


def load_model(path) -> tuple[LinearSystem, list[SafetySpec]]:
    """Read and validate a model file; returns the system and its specs."""
    raw = _read_json_object(path)
    for name in ("A", "X0", "U", "T"):
        _require(name in raw, f"missing field {name}")
    a = _numeric(raw["A"], "A")
    _require(a.ndim == 2 and a.shape[0] == a.shape[1],
             f"field A must be a square matrix, got shape {a.shape}")
    _require(bool(np.all(np.isfinite(a))), "field A must be finite")
    n = a.shape[0]
    x0 = _zonotope_from_json(raw["X0"], "X0", n)
    u = _zonotope_from_json(raw["U"], "U", n)
    horizon = raw["T"]
    _require(isinstance(horizon, (int, float)) and not isinstance(horizon, bool)
             and math.isfinite(horizon) and horizon > 0,
             "field T must be a positive number")
    entries = raw.get("specs", [])
    _require(isinstance(entries, list), "field specs must be a list")
    specs = []
    for i, entry in enumerate(entries):
        _require(isinstance(entry, dict), f"specs[{i}] must be an object")
        for name in ("direction", "bound"):
            _require(name in entry, f"missing field specs[{i}].{name}")
        spec = SafetySpec(name=str(entry.get("name", f"spec{i}")),
                          direction=_numeric(entry["direction"],
                                             f"specs[{i}].direction"),
                          bound=_scalar(entry["bound"], f"specs[{i}].bound"))
        _require(spec.direction.shape[0] == n,
                 f"specs[{i}].direction has length {spec.direction.shape[0]}, "
                 f"expected {n}")
        specs.append(spec)
    try:
        system = LinearSystem(a, x0, u, float(horizon))
    except ValueError as exc:
        raise ModelError(str(exc)) from exc
    return system, specs


def save_model(path, system: LinearSystem, specs: tuple[SafetySpec, ...] = ()) -> None:
    payload = {
        "A": system.a.tolist(),
        "X0": _zonotope_to_json(system.initial_set),
        "U": _zonotope_to_json(system.input_set),
        "T": system.horizon,
    }
    if specs:
        payload["specs"] = [{"name": s.name, "direction": s.direction.tolist(),
                             "bound": s.bound} for s in specs]
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def random_system(dim: int, seed: int) -> LinearSystem:
    """Random stable-ish benchmark system with hypercube initial/input sets.

    Eigenvalues come in conjugate pairs with real part uniform on [-1, 1]
    and imaginary part uniform on [0, 1] (mirrored); an odd dimension gets
    one extra real eigenvalue. The block-diagonal real form is conjugated
    by a product of random Givens rotations: ceil(n/2) of them for n <= 10,
    n of them above, so the rotation stays sparse relative to a dense
    orthogonal factor as the dimension grows. X0 is the hypercube centered
    at (10, ..., 10) with edge 0.5, U the one at (1, ..., 1) with edge 0.1,
    and the horizon is 3.
    """
    _require(dim >= 2, f"dimension must be >= 2, got {dim}")
    _require(seed >= 0, f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    blocks = np.zeros((dim, dim))
    for p in range(dim // 2):
        re = rng.uniform(-1.0, 1.0)
        im = rng.uniform(0.0, 1.0)
        i = 2 * p
        blocks[i:i + 2, i:i + 2] = [[re, im], [-im, re]]
    if dim % 2:
        blocks[-1, -1] = rng.uniform(-1.0, 1.0)
    rotations = math.ceil(dim / 2) if dim <= 10 else dim
    q = np.eye(dim)
    for _ in range(rotations):
        i, j = sorted(rng.choice(dim, size=2, replace=False))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        giv = np.eye(dim)
        giv[i, i] = giv[j, j] = math.cos(theta)
        giv[i, j] = -math.sin(theta)
        giv[j, i] = math.sin(theta)
        q = q @ giv
    a = q @ blocks @ q.T
    x0 = Zonotope.box(np.full(dim, 10.0), np.full(dim, 0.25))
    u = Zonotope.box(np.full(dim, 1.0), np.full(dim, 0.05))
    return LinearSystem(a, x0, u, 3.0)


def write_result(path, result: ReachResult) -> None:
    """One JSON line per segment: window, set data and its interval hull."""
    with open(path, "w") as fh:
        for seg in result.segments:
            hull = interval_hull(seg.set)
            line = {"t_lo": seg.t_lo, "t_hi": seg.t_hi,
                    "center": seg.set.center.tolist(),
                    "generators": seg.set.generators.T.tolist(),
                    "interval_lo": hull.lo.tolist(),
                    "interval_hi": hull.hi.tolist()}
            fh.write(json.dumps(line))
            fh.write("\n")


def read_result(path) -> list[ReachSegment]:
    segments = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ModelError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            z = _zonotope_from_json(obj, f"{path}:{lineno}",
                                    segments[0].set.dim if segments else None)
            for name in ("t_lo", "t_hi"):
                _require(name in obj, f"{path}:{lineno}: missing field {name}")
            t_lo = _scalar(obj["t_lo"], f"{path}:{lineno}.t_lo")
            t_hi = _scalar(obj["t_hi"], f"{path}:{lineno}.t_hi")
            _require(-math.inf < t_lo < t_hi < math.inf,
                     f"{path}:{lineno}: window [{t_lo}, {t_hi}] must have "
                     f"finite t_lo < t_hi")
            segments.append(ReachSegment(t_lo, t_hi, z))
    _require(bool(segments), f"{path}: result file is empty")
    return segments


@dataclass(frozen=True)
class RunReport:
    """Summary of one analysis run, serializable as a single JSON object."""

    dimension: int
    steps: int
    dt_min: float
    dt_max: float
    wall_time: float
    tuning_time_fraction: float
    input_error_total: float
    reduction_error_total: float
    max_step_hom_error: float
    budget: dict | None
    series: dict = field(default_factory=dict)


def report_from_result(result: ReachResult, dimension: int) -> RunReport:
    records = result.ledger.records
    budget = (None if result.budget is None
              else {**asdict(result.budget), "total": result.budget.total})
    return RunReport(
        dimension=dimension,
        steps=result.steps,
        dt_min=result.dt_min,
        dt_max=result.dt_max,
        wall_time=result.total_seconds,
        tuning_time_fraction=result.tuning_time_fraction,
        input_error_total=result.ledger.input_acc,
        reduction_error_total=result.ledger.reduction_acc,
        max_step_hom_error=result.ledger.max_hom_error,
        budget=budget,
        series={"t": [r.t_lo for r in records],
                "dt": [r.dt for r in records],
                "taylor_order": [r.taylor_order for r in records],
                "zonotope_order": [r.zonotope_order for r in records],
                "retries": [r.retries for r in records]},
    )


def write_report(path, report: RunReport) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(report), fh)
        fh.write("\n")


# JSON types of the report fields; every other field is a number
_REPORT_TYPES = {"dimension": int, "steps": int,
                 "budget": (dict, type(None)), "series": dict}


def read_report(path) -> RunReport:
    """Read and validate a report file as ``write_report`` writes it."""
    obj = _read_json_object(path)
    known = {f.name: f for f in fields(RunReport)}
    for name in obj:
        _require(name in known, f"{path}: unknown field {name}")
    for name, f in known.items():
        if name not in obj:
            _require(f.default_factory is not MISSING,
                     f"{path}: missing field {name}")
            continue
        value = obj[name]
        _require(isinstance(value, _REPORT_TYPES.get(name, (int, float)))
                 and not isinstance(value, bool),
                 f"{path}: field {name} has the wrong type "
                 f"{type(value).__name__}")
    return RunReport(**obj)


def check_specs(segments, specs) -> list[SpecVerdict]:
    """Evaluate each halfspace spec against every segment.

    A spec passes when ``support(set, direction) <= bound`` on all segments;
    otherwise the verdict names the first violating segment. One product per
    segment screens every spec: ``D c + sum_j |D g_j|``, with the directions
    stacked as the rows of ``D``. Its values and ``support``'s can differ in
    the last bits; each lies within ``k * 2**-53 * |d| (|c| + sum_j |g_j|)``
    of the exact support, for ``k`` the dimension plus the generator count
    plus 2 (the error bound of that many summed terms, in any order). So
    ``support`` decides a spec only where its screened value comes within
    twice the sum of both bounds of the spec's bound, and every verdict and
    value is ``support``'s.
    """
    if isinstance(segments, ReachResult):
        segments = segments.segments
    specs = list(specs)
    verdicts = [SpecVerdict(spec.name, True, bound=spec.bound) for spec in specs]
    if not (specs and segments):
        return verdicts
    directions = np.stack([spec.direction for spec in specs])
    bounds = np.array([spec.bound for spec in specs])
    undecided = np.ones(len(specs), dtype=bool)
    for i, seg in enumerate(segments):
        z = seg.set
        values = directions @ z.center + np.abs(directions @ z.generators).sum(axis=1)
        slack = (2 * np.finfo(float).eps * (z.dim + z.num_generators + 2)
                 * (np.abs(directions) @ (np.abs(z.center) + _halfwidths(z))))
        for k in np.flatnonzero(undecided & (values + slack > bounds)):
            value = support(z, specs[k].direction)
            if value > specs[k].bound:
                verdicts[k] = SpecVerdict(specs[k].name, False, violating_index=i,
                                          violating_time=seg.t_lo,
                                          support_value=value, bound=specs[k].bound)
                undecided[k] = False
        if not undecided.any():
            break
    return verdicts


def _report_and_write(result: ReachResult, dimension: int, out_path,
                      report_path) -> tuple[ReachResult, RunReport]:
    report = report_from_result(result, dimension)
    if out_path is not None:
        write_result(out_path, result)
    if report_path is not None:
        write_report(report_path, report)
    return result, report


def run_adaptive(system: LinearSystem, eps_max: float,
                 weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
                 out_path=None, report_path=None) -> tuple[ReachResult, RunReport]:
    """Adaptive analysis plus optional result/report files."""
    return _report_and_write(run(system, eps_max, weights), system.dim,
                             out_path, report_path)


def run_fixed_baseline(system: LinearSystem, dt: float, eta: int, rho: float,
                       out_path=None, report_path=None) -> tuple[ReachResult, RunReport]:
    """Same pipeline with tuning disabled: fixed step, order and set order.

    ``run`` and this baseline share one stepping loop, whose clock gives
    the wall time and which builds each width's step sets once; only the
    choice of each step and the reduction differ. Errors are tracked in the
    ledger but no budget is enforced, so the totals are informational only.
    The final step is clamped to the horizon when ``dt`` does not divide
    it, and a leftover below 1e-9 is absorbed into the last step.
    """
    _require(dt > 0 and math.isfinite(dt), f"baseline dt must be positive, got {dt}")
    _require(eta >= 1, f"baseline eta must be >= 1, got {eta}")
    _require(eta <= MAX_ORDER_CAP,
             f"baseline eta must be <= {MAX_ORDER_CAP}, got {eta}")
    _require(rho >= 1, f"baseline rho must be >= 1, got {rho}")
    horizon = system.horizon
    powers = MatrixPowers(system.a)
    cache: dict[float, TaylorPieces] = {}

    def choose(acc, _ledger, t):
        width = dt
        if t + dt >= horizon * (1.0 - 1e-12) or horizon - (t + dt) < 1e-9:
            width = horizon - t
        if width not in cache:
            _require(convergence_ratio(powers, width, eta) < 1.0,
                     f"Taylor remainder does not converge at dt={width:.3g}, "
                     f"eta={eta}: raise eta or lower dt")
            cache[width] = TaylorSeries(powers, width).pieces(eta)
            _require(cache[width] is not None,
                     f"Taylor terms overflow at dt={width:.3g}, eta={eta}")
        pieces = cache[width]
        return TunedStep(pieces, propagated_homogeneous_error(acc, system, pieces),
                         propagated_input_error(acc, system, pieces), retries=0)

    def reduce(p_next, *_):
        return reduce_order(p_next, rho)

    segments, ledger, _, total = _step_through(system, choose, reduce)
    result = ReachResult(segments=segments, ledger=ledger, budget=None,
                         tuning_seconds=0.0, total_seconds=total)
    return _report_and_write(result, system.dim, out_path, report_path)
