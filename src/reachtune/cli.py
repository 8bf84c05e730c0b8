"""Command-line interface.

Subcommands: ``run`` (adaptive analysis), ``baseline`` (fixed parameters),
``gen`` (random benchmark model), ``check`` (specs against a result file),
``sample`` (trajectory oracle). Exit codes: 0 completed and all specs hold,
2 a spec is violated, 3 input error, 4 the analysis failed at run time or
an internal error. Input is checked where it enters, so only its own
errors (``ModelError``, usage errors, an input path that is missing or a
directory) exit 3. Output paths are checked before any analysis: a path
that is a directory, a path whose directory does not exist, an output on
an input file, or two outputs on one file, exits 3.

``reach run`` accepts ``--model`` several times; the output paths must then
contain ``{}`` as a placeholder for the model stem. Every model and output
path is checked first; the models then run one after another, and each
prints its summary as it finishes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .modelio import (ModelError, check_specs, load_model, random_system,
                      read_result, run_adaptive, run_fixed_baseline,
                      save_model)
from .sampling import INPUT_SWITCHES, sample_trajectories
from .tuner import DEFAULT_WEIGHTS, ErrorBudget

EXIT_OK = 0
EXIT_SPEC_VIOLATED = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default, which collides with the
    # spec-violation code; route usage problems to the input-error code.
    def error(self, message):
        raise _UsageError(message)


def _parse_weights(raw: str) -> tuple[float, float, float]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise _UsageError(f"--weights needs three comma-separated values, got {raw!r}")
    try:
        w = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"--weights values must be numbers: {raw!r}") from exc
    return w


def _expand(template: str | None, stem: str, multi: bool) -> str | None:
    if template is None:
        return None
    if "{}" in template:
        return template.replace("{}", stem)
    if multi:
        raise _UsageError(
            "with several --model arguments, --out/--report must contain "
            "a {} placeholder for the model stem")
    return template


def _check_outputs(*paths: str | None, inputs=()) -> None:
    """Reject each given path (``None`` is skipped) that is a directory,
    whose directory does not exist or that names one of the ``inputs``
    files, and any two that name one file."""
    read = {Path(path).resolve(): path for path in inputs if path is not None}
    seen = {}
    for path in paths:
        if path is None:
            continue
        target = Path(path)
        if target.is_dir():
            raise _UsageError(f"output path {path} is a directory")
        if not target.parent.is_dir():
            raise _UsageError(f"output path {path}: directory "
                              f"{target.parent} does not exist")
        key = target.resolve()
        if key in read:
            raise _UsageError(f"output path {path} names the input file {read[key]}")
        if key in seen:
            raise _UsageError(f"output paths {seen[key]} and {path} name the same file")
        seen[key] = path


def _print_verdicts(verdicts) -> bool:
    all_ok = True
    for v in verdicts:
        if v.satisfied:
            print(f"spec {v.name}: satisfied")
        else:
            all_ok = False
            print(f"spec {v.name}: VIOLATED at segment {v.violating_index} "
                  f"(t={v.violating_time:.6g}, support={v.support_value:.6g} "
                  f"> bound={v.bound:.6g})")
    return all_ok


def _cmd_run(args) -> int:
    weights = _parse_weights(args.weights) if args.weights else DEFAULT_WEIGHTS
    try:
        ErrorBudget.split(args.eps, weights)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    multi = len(args.model) > 1
    jobs = []
    for path in args.model:
        system, specs = load_model(path)
        stem = Path(path).stem
        jobs.append((path, system, specs, _expand(args.out, stem, multi),
                     _expand(args.report, stem, multi)))
    _check_outputs(*(out for job in jobs for out in job[3:]), inputs=args.model)

    code = EXIT_OK
    for path, system, specs, out_path, report_path in jobs:
        result, report = run_adaptive(system, args.eps, weights,
                                      out_path=out_path,
                                      report_path=report_path)
        print(f"{path}: steps={report.steps} "
              f"dt=[{report.dt_min:.6g}, {report.dt_max:.6g}] "
              f"wall={report.wall_time:.3g}s "
              f"tuning_fraction={report.tuning_time_fraction:.3f}")
        if specs and not _print_verdicts(check_specs(result, specs)):
            code = EXIT_SPEC_VIOLATED
        sys.stdout.flush()
    return code


def _cmd_baseline(args) -> int:
    _check_outputs(args.out, args.report, inputs=(args.model,))
    system, specs = load_model(args.model)
    result, report = run_fixed_baseline(system, args.dt, args.eta, args.rho,
                                        out_path=args.out,
                                        report_path=args.report)
    print(f"{args.model}: steps={report.steps} "
          f"dt=[{report.dt_min:.6g}, {report.dt_max:.6g}] "
          f"input_error={report.input_error_total:.6g} "
          f"reduction_error={report.reduction_error_total:.6g} (not enforced)")
    if specs and not _print_verdicts(check_specs(result, specs)):
        return EXIT_SPEC_VIOLATED
    return EXIT_OK


def _cmd_gen(args) -> int:
    _check_outputs(args.out)
    system = random_system(args.dim, args.seed)
    save_model(args.out, system)
    print(f"wrote {args.dim}-dimensional model (seed {args.seed}) to {args.out}")
    return EXIT_OK


def _cmd_check(args) -> int:
    segments = read_result(args.result)
    system, specs = load_model(args.model)
    if segments[0].set.dim != system.dim:
        raise _UsageError(f"{args.result} has dimension {segments[0].set.dim}, "
                          f"{args.model} has {system.dim}")
    if not specs:
        print(f"{args.model}: no specs to check")
        return EXIT_OK
    if not _print_verdicts(check_specs(segments, specs)):
        return EXIT_SPEC_VIOLATED
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise _UsageError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.step is not None and not 0 < args.step < float("inf"):
        raise _UsageError(f"--step must be positive and finite, got {args.step}")
    _check_outputs(args.out, inputs=(args.model, args.result))
    system, _ = load_model(args.model)
    if args.step is not None:
        step = args.step
    elif args.result is not None:
        segments = read_result(args.result)
        step = min(seg.t_hi - seg.t_lo for seg in segments) / 100.0
    else:
        step = system.horizon / 1000.0
    grid = INPUT_SWITCHES * -(-system.horizon / INPUT_SWITCHES // step) + 1
    if not grid * args.count * system.dim <= sys.maxsize:  # np.iinfo(np.intp).max
        raise _UsageError(f"step {step:.6g} is too small: the RK4 grid of "
                          f"--count {args.count} cannot be allocated")
    batch = sample_trajectories(system, args.count, args.seed, step)
    with open(args.out, "w") as fh:
        for k in range(batch.count):
            fh.write(json.dumps({"trajectory": k,
                                 "times": batch.times.tolist(),
                                 "states": batch.states[:, k, :].tolist()}))
            fh.write("\n")
    print(f"wrote {batch.count} trajectories "
          f"({batch.times.size} samples each, step {batch.times[1]:.6g}) "
          f"to {args.out}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="reach",
                     description="Self-tuning reachability analysis for LTI systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="adaptive analysis with an error budget")
    p.add_argument("--model", action="append", required=True,
                   help="model file (repeatable; models run one after another)")
    p.add_argument("--eps", type=float, required=True,
                   help="global error bound eps_max")
    p.add_argument("--weights", help="budget split h,p,s (default 1/3 each)")
    p.add_argument("--out", help="result file (JSON lines)")
    p.add_argument("--report", help="report file (JSON)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("baseline", help="fixed-parameter analysis")
    p.add_argument("--model", required=True)
    p.add_argument("--dt", type=float, required=True, help="fixed step size")
    p.add_argument("--eta", type=int, required=True, help="fixed Taylor order")
    p.add_argument("--rho", type=float, required=True,
                   help="fixed zonotope order for per-step reduction")
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser("gen", help="generate a random benchmark model")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("check", help="check specs against a result file")
    p.add_argument("--result", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("sample", help="sample random trajectories")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=float,
                   help="RK4 step size (default horizon/1000); (10 ceil(T/10/step) "
                        "+ 1) * count * dim must not exceed numpy's 2**63 - 1")
    p.add_argument("--result",
                   help="result file; sets the step to dt_min/100")
    p.set_defaults(fn=_cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_UsageError, ModelError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # noqa: BLE001 - exit code contract
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
