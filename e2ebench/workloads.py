"""The benchmark's workloads: seeded inputs, the timed operation, the checks.

Each workload has three parts:

* ``prepare(seed, size, workdir)`` writes the model files for one seed and
  returns what the operation needs. It runs before the timed window.
* ``operate(inputs)`` makes the public calls the ``reach`` command makes,
  in process. Only this part is timed.
* ``verify(inputs, outcome)`` checks the outputs outside the timed window
  and returns the run's counts (steps, hull width, bytes written) with a
  list of failed checks.

Random systems keep the spectrum of ``reachtune.random_system(n, 1)`` and
draw an orthonormal eigenbasis from the workload seed. The seed then changes
every matrix entry, but not how hard the system is, so runs with different
seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reachtune as rt
from reachtune import cli

SPECTRUM_SEED = 1
# Trajectories checked inside fixed-verify's timed operation. Containment
# costs most for sampled states near a segment's boundary, and how many
# there are depends on the sampling draw, so the draw is the same for every
# workload seed. The untimed checks sample with the workload seed.
TIMED_SAMPLE_SEED = 0


@dataclass
class Check:
    """Counts of one operation plus the checks it failed."""

    steps: int = 0
    hull_width: float = 0.0
    output_bytes: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable
    operate: Callable
    verify: Callable


# -- inputs -------------------------------------------------------------

def random_basis_system(dim: int, seed) -> rt.LinearSystem:
    """``random_system(dim, 1)``'s spectrum in a seeded orthonormal basis.

    ``seed`` is anything ``numpy.random.default_rng`` accepts.

    The blocks, initial set, input set and horizon are those of
    ``random_system``; the basis is Haar-distributed (QR of a Gaussian
    matrix with the sign of R's diagonal folded in).
    """
    spectrum = np.random.default_rng(SPECTRUM_SEED)
    blocks = np.zeros((dim, dim))
    for p in range(dim // 2):
        re = spectrum.uniform(-1.0, 1.0)
        im = spectrum.uniform(0.0, 1.0)
        i = 2 * p
        blocks[i:i + 2, i:i + 2] = [[re, im], [-im, re]]
    if dim % 2:
        blocks[-1, -1] = spectrum.uniform(-1.0, 1.0)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    return rt.LinearSystem(q @ blocks @ q.T,
                           rt.Zonotope.box(np.full(dim, 10.0), np.full(dim, 0.25)),
                           rt.Zonotope.box(np.full(dim, 1.0), np.full(dim, 0.05)),
                           3.0)


def loose_specs(system: rt.LinearSystem, seed: int) -> tuple[rt.SafetySpec, ...]:
    """One halfspace per axis, far outside anything the system reaches.

    The bound is twice an a-priori norm bound on every state over the
    horizon, ``e^(mu T) (|X0| + T |U|)`` with ``mu`` the logarithmic norm
    of A, so every spec must hold. The sign of each axis is seeded.
    """
    a = system.a
    mu = float(np.linalg.eigvalsh(0.5 * (a + a.T)).max())

    def radius(z):
        return float(np.linalg.norm(z.center) + np.abs(z.generators).sum())

    horizon = system.horizon
    reach = math.exp(max(mu, 0.0) * horizon) * (
        radius(system.initial_set) + horizon * radius(system.input_set))
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=system.dim)
    return tuple(rt.SafetySpec(f"axis{i}", signs[i] * np.eye(system.dim)[i],
                               2.0 * reach + 1.0)
                 for i in range(system.dim))


def _write_model(path: Path, system: rt.LinearSystem, seed: int) -> Path:
    rt.save_model(path, system, loose_specs(system, seed))
    return path


# -- checks shared by the workloads -------------------------------------

def _check_segments(check: Check, label: str, segments, horizon: float) -> None:
    t_lo = np.array([s.t_lo for s in segments])
    t_hi = np.array([s.t_hi for s in segments])
    check.expect(t_lo[0] == 0.0, f"{label}: first segment starts at {t_lo[0]}")
    check.expect(t_hi[-1] == horizon,
                 f"{label}: last segment ends at {t_hi[-1]}, horizon {horizon}")
    check.expect(bool(np.all(t_hi[:-1] == t_lo[1:])),
                 f"{label}: segments do not tile the horizon contiguously")
    check.expect(bool(np.all(t_hi > t_lo)), f"{label}: empty segment")
    # time-weighted mean over all segments: the final segment alone swings
    # with the width of the last step, which small input changes move
    widths = np.array([2.0 * np.abs(s.set.generators).sum() for s in segments])
    check.hull_width += float(widths @ (t_hi - t_lo)) / horizon
    check.steps += len(segments)


def _check_report(check: Check, label: str, report_path: Path, steps: int,
                  adaptive: bool) -> None:
    report = json.loads(report_path.read_text())
    check.output_bytes += report_path.stat().st_size
    check.expect(report["steps"] == steps,
                 f"{label}: report says {report['steps']} steps, result has {steps}")
    budget = report["budget"]
    if not adaptive:
        check.expect(budget is None, f"{label}: baseline report has a budget")
        return
    for key, cap in (("max_step_hom_error", "hom_max"),
                     ("input_error_total", "input_max"),
                     ("reduction_error_total", "reduction_max")):
        check.expect(report[key] <= budget[cap],
                     f"{label}: {key}={report[key]} exceeds {cap}={budget[cap]}")


def _check_containment(check: Check, label: str, system, segments, count: int,
                       seed: int, step: float) -> None:
    batch = rt.sample_trajectories(system, count, seed, step)
    report = rt.check_containment(segments, batch)
    check.expect(report.checked == batch.states.shape[0] * count,
                 f"{label}: checked {report.checked} states")
    check.expect(report.all_contained,
                 f"{label}: {report.checked - report.contained} sampled states "
                 f"outside their segment, first {report.failures[:1]}")


def _read_back(check: Check, label: str, result_path: Path):
    check.output_bytes += result_path.stat().st_size
    return rt.read_result(result_path)


# -- stiff ----------------------------------------------------------------

# T is 0.3, not 3: the search from the first step's large dt costs most of
# a run, so T 3 took 18 s per operation and T 0.3 takes 8 to 11 s, leaving
# room for several timed operations in a run.
STIFF = {"full": {"horizon": 0.3, "eps": "0.05"},
         "tiny": {"horizon": 0.05, "eps": "0.5"}}


def _stiff_prepare(seed: int, size: str, workdir: Path) -> dict:
    params = STIFF[size]
    rng = np.random.default_rng(seed)
    # the step count grows with lam and with any rotation of the fast
    # mode, so the seed varies lam in a narrow band and permutes the axes
    lam = rng.uniform(95.0, 100.0)
    b = np.diag([-lam, -1.0])
    if rng.random() < 0.5:
        b = b[::-1, ::-1].copy()
    x0 = rt.Zonotope.box([1.0, 1.0], [0.1, 0.1])
    u = rt.Zonotope.box([0.0, 0.0], [0.05, 0.05])
    systems = {
        "stiff_a": rt.LinearSystem(np.diag([-100.0, -1.0]), x0, u, params["horizon"]),
        "stiff_b": rt.LinearSystem(b, x0, u, params["horizon"]),
    }
    models = {stem: _write_model(workdir / f"{stem}.json", s, seed)
              for stem, s in systems.items()}
    return {"seed": seed, "workdir": workdir, "eps": params["eps"],
            "systems": systems, "models": models}


def _stiff_operate(inp: dict) -> dict:
    argv = ["run", "--eps", inp["eps"],
            "--out", str(inp["workdir"] / "{}.jsonl"),
            "--report", str(inp["workdir"] / "{}.report.json")]
    for path in inp["models"].values():
        argv += ["--model", str(path)]
    return {"codes": [cli.main(argv)]}


def _stiff_verify(inp: dict, out: dict) -> Check:
    check = Check()
    check.expect(out["codes"] == [0], f"exit codes {out['codes']}, expected [0]")
    for stem, system in inp["systems"].items():
        segments = _read_back(check, stem, inp["workdir"] / f"{stem}.jsonl")
        steps_before = check.steps
        _check_segments(check, stem, segments, system.horizon)
        _check_report(check, stem, inp["workdir"] / f"{stem}.report.json",
                      check.steps - steps_before, adaptive=True)
        _check_containment(check, stem, system, segments, 10, inp["seed"], 0.003)
    return check


# -- highdim --------------------------------------------------------------

HIGHDIM = {"full": {"dim": 20, "eps": 0.1, "samples": 2},
           "tiny": {"dim": 5, "eps": 0.5, "samples": 2}}


def _highdim_prepare(seed: int, size: str, workdir: Path) -> dict:
    params = HIGHDIM[size]
    model = _write_model(workdir / "highdim.json",
                         random_basis_system(params["dim"], seed), seed)
    system, specs = rt.load_model(model)
    return {"seed": seed, "workdir": workdir, "eps": params["eps"],
            "samples": params["samples"], "system": system, "specs": specs}


def _highdim_operate(inp: dict) -> dict:
    result, _ = rt.run_adaptive(inp["system"], inp["eps"],
                                report_path=inp["workdir"] / "highdim.report.json")
    return {"result": result, "verdicts": rt.check_specs(result, inp["specs"])}


def _highdim_verify(inp: dict, out: dict) -> Check:
    check = Check()
    segments = out["result"].segments
    _check_segments(check, "highdim", segments, inp["system"].horizon)
    _check_report(check, "highdim", inp["workdir"] / "highdim.report.json",
                  check.steps, adaptive=True)
    verdicts = out["verdicts"]
    check.expect(len(verdicts) == len(inp["specs"]) and all(v.satisfied for v in verdicts),
                 "highdim: a loose spec was reported violated")
    _check_containment(check, "highdim", inp["system"], segments,
                       inp["samples"], inp["seed"], 0.01)
    return check


# -- fixed-verify ---------------------------------------------------------

# How much containment costs depends on each system's geometry (the share
# of sampled states the quick membership test leaves undecided): between
# seeds it varied by a factor of two on one dim-8 system. An operation
# therefore runs the chain on four systems, and its cost is their sum.
FIXED_VERIFY = {"full": {"dim": 8, "systems": 4, "dt": "0.03", "count": 20},
                "tiny": {"dim": 3, "systems": 2, "dt": "0.1", "count": 3}}


def _fixed_verify_prepare(seed: int, size: str, workdir: Path) -> dict:
    params = FIXED_VERIFY[size]
    systems = [random_basis_system(params["dim"], [seed, k])
               for k in range(params["systems"])]
    return {"seed": seed, "workdir": workdir, "dt": params["dt"],
            "count": params["count"], "systems": systems,
            "models": [_write_model(workdir / f"fixed{k}.json", system, seed)
                       for k, system in enumerate(systems)]}


def _fixed_verify_operate(inp: dict) -> dict:
    codes, runs = [], []
    for k, model in enumerate(map(str, inp["models"])):
        result = inp["workdir"] / f"fixed{k}.jsonl"
        codes += [cli.main(["baseline", "--model", model, "--dt", inp["dt"],
                            "--eta", "4", "--rho", "10", "--out", str(result),
                            "--report", str(inp["workdir"] / f"fixed{k}.report.json")]),
                  cli.main(["check", "--result", str(result), "--model", model])]
        system, _ = rt.load_model(model)
        segments = rt.read_result(result)
        batch = rt.sample_trajectories(system, inp["count"], TIMED_SAMPLE_SEED, 0.003)
        runs.append({"segments": segments, "batch": batch,
                     "containment": rt.check_containment(segments, batch)})
    return {"codes": codes, "runs": runs}


def _fixed_verify_verify(inp: dict, out: dict) -> Check:
    check = Check()
    expected_codes = [0, 0] * len(inp["systems"])
    check.expect(out["codes"] == expected_codes,
                 f"exit codes {out['codes']}, expected {expected_codes}")
    for k, (system, run) in enumerate(zip(inp["systems"], out["runs"])):
        label = f"fixed-verify system {k}"
        check.output_bytes += (inp["workdir"] / f"fixed{k}.jsonl").stat().st_size
        steps_before = check.steps
        _check_segments(check, label, run["segments"], system.horizon)
        _check_report(check, label, inp["workdir"] / f"fixed{k}.report.json",
                      check.steps - steps_before, adaptive=False)
        containment = run["containment"]
        expected = run["batch"].states.shape[0] * inp["count"]
        check.expect(containment.checked == expected,
                     f"{label}: checked {containment.checked} of {expected} states")
        check.expect(containment.all_contained,
                     f"{label}: {containment.checked - containment.contained} "
                     f"sampled states outside their segment")
    return check


WORKLOADS = {w.name: w for w in (
    Workload("stiff",
             "Two stiff 2-d models, diag(-100,-1) and diag(-lam,-1) with lam seeded "
             "in [95,100], T 0.3, on the CLI's thread pool: step search and step-set "
             "construction dominate.",
             _stiff_prepare, _stiff_operate, _stiff_verify),
    Workload("highdim",
             "Dim-20 random system at eps 0.1 through run_adaptive and check_specs, "
             "no result file: accumulated-set reduction dominates and file I/O is absent.",
             _highdim_prepare, _highdim_operate, _highdim_verify),
    Workload("fixed-verify",
             "Fixed-parameter baseline, reach check and 20 trajectories checked for "
             "containment on four dim-8 systems: untuned stepping, result file I/O "
             "and sampling, no tuner.",
             _fixed_verify_prepare, _fixed_verify_operate, _fixed_verify_verify),
)}
