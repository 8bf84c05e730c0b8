"""Print one line per reference run, for bit-identity checks between versions.

Run from the repository root of each version and compare the outputs::

    python3 tools/reference_runs.py > before.txt    # on the old version
    python3 tools/reference_runs.py > after.txt     # on the new version
    diff before.txt after.txt

Each line holds the run's name, its steps, the candidates its step search
evaluated (the sum of the ledger's ``retries``), a SHA-1 over every
segment's ``t_lo``, ``t_hi``, center and generators, the ledger's largest
homogeneous error, input total and reduction total, and the number of
generators summed over all segments. Floats are printed with shortest
round-trip precision.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from reachtune import (LinearSystem, Zonotope, random_system,  # noqa: E402
                       run, run_fixed_baseline)


def stiff(lam: float) -> LinearSystem:
    return LinearSystem(np.diag([-lam, -1.0]), Zonotope.box([1.0, 1.0], [0.1, 0.1]),
                        Zonotope.box([0.0, 0.0], [0.05, 0.05]), 0.3)


def unstable() -> LinearSystem:
    base = random_system(2, 1)
    return LinearSystem(np.diag([1.0, 0.5]), base.initial_set, base.input_set, 3.0)


def zero_input() -> LinearSystem:
    base = random_system(5, 1)
    return LinearSystem(base.a, base.initial_set, Zonotope.point(np.zeros(5)),
                        base.horizon)


def highdim() -> LinearSystem:
    """``random_system(20, 1)``'s spectrum in a Haar basis of seed 1101: the
    system of the benchmark's ``highdim`` workload."""
    dim = 20
    spectrum = np.random.default_rng(1)
    blocks = np.zeros((dim, dim))
    for p in range(dim // 2):
        re = spectrum.uniform(-1.0, 1.0)
        im = spectrum.uniform(0.0, 1.0)
        blocks[2 * p:2 * p + 2, 2 * p:2 * p + 2] = [[re, im], [-im, re]]
    q, r = np.linalg.qr(np.random.default_rng(1101).standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    return LinearSystem(q @ blocks @ q.T,
                        Zonotope.box(np.full(dim, 10.0), np.full(dim, 0.25)),
                        Zonotope.box(np.full(dim, 1.0), np.full(dim, 0.05)), 3.0)


def reference_runs():
    """``(name, thunk)`` per run; each thunk returns a ``ReachResult``."""
    for dim in (2, 5, 10, 20, 40):
        for seed in (1, 2, 3):
            yield (f"random-{dim}-{seed}",
                   lambda d=dim, s=seed: run(random_system(d, s), 0.05))
    yield "diag(-100,-1)", lambda: run(stiff(100.0), 0.05)
    yield "diag(-3000,-1)", lambda: run(stiff(3000.0), 0.05)
    yield "diag(1,0.5)", lambda: run(unstable(), 0.05)
    yield "zero-input-5-1", lambda: run(zero_input(), 0.05)
    yield "highdim", lambda: run(highdim(), 0.1)
    yield "random-2-1-eps1e-4", lambda: run(random_system(2, 1), 1e-4)
    for seed in (1, 2):
        yield (f"fixed-8-{seed}",
               lambda s=seed: run_fixed_baseline(random_system(8, s), 0.03, 4, 10)[0])


def segment_digest(result) -> str:
    digest = hashlib.sha1()
    for segment in result.segments:
        digest.update(np.array([segment.t_lo, segment.t_hi]).tobytes())
        digest.update(segment.set.center.tobytes())
        digest.update(np.array(segment.set.generators.shape).tobytes())
        digest.update(segment.set.generators.tobytes())
    return digest.hexdigest()


def main() -> None:
    for name, thunk in reference_runs():
        result = thunk()
        ledger = result.ledger
        candidates = sum(r.retries for r in ledger.records)
        generators = sum(s.set.num_generators for s in result.segments)
        print(name, result.steps, candidates, segment_digest(result),
              repr(ledger.max_hom_error), repr(ledger.input_acc),
              repr(ledger.reduction_acc), generators, flush=True)


if __name__ == "__main__":
    main()
