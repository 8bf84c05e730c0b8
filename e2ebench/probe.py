"""Host-speed probe: times a fixed loop, at a low duty cycle, until stdin closes.

The worker starts this process beside its timed operations. On a host
shared with other machines, the speed of both CPUs drifts by up to 1.6x
over tens of seconds; the probe's pass time drifts with it. The loop calls
nothing in reachtune, so a change to the package cannot change its time.

Usage: ``python3 probe.py OUT``. Each pass appends one line to ``OUT``:
its start and end on the system-wide monotonic clock. The probe sleeps
four times as long as a pass took, and stops when its stdin reaches end
of file, which also happens when the process that started it dies.
"""

from __future__ import annotations

import select
import sys
import time

import numpy as np

DUTY = 0.2  # share of one CPU the probe keeps busy
_RNG = np.random.default_rng(0)
# The operations' arrays outgrow a core's own cache, and other machines on
# the host contend for the shared one; a pass works on one array that fits
# a core's cache (320 kB) and one that does not (6.4 MB), so that it slows
# with either kind of contention.
_ARRAYS = ((_RNG.standard_normal((20, 2000)), 10),
           (_RNG.standard_normal((20, 40000)), 1))


def one_pass() -> None:
    """numpy reductions, a sort, a gather, a small product, a Python loop."""
    for array, repeats in _ARRAYS:
        for _ in range(repeats):
            order = np.argsort(np.abs(array).sum(axis=0))
            _ = array[:, order] @ array.T
    total = 0
    for i in range(10000):
        total += i * i


def main(out_path: str) -> int:
    with open(out_path, "w") as out:
        while True:
            start = time.monotonic()
            one_pass()
            end = time.monotonic()
            out.write(f"{start!r} {end!r}\n")
            out.flush()
            stop, _, _ = select.select([sys.stdin], [], [],
                                       (end - start) * (1.0 / DUTY - 1.0))
            if stop:
                return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
