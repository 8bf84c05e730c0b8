"""Hot numeric kernels, in numpy: the interval matrix product and the
batched RK4 integrator of the trajectory oracle."""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation: always ``"numpy"``, the only one."""
    return "numpy"


def interval_matmul(lo1: np.ndarray, hi1: np.ndarray,
                    lo2: np.ndarray, hi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise-tightest enclosure of {X @ Y : lo1<=X<=hi1, lo2<=Y<=hi2}.

    Each term's four endpoint products are enumerated exactly.
    """
    lo1 = np.ascontiguousarray(lo1, dtype=np.float64)
    hi1 = np.ascontiguousarray(hi1, dtype=np.float64)
    lo2 = np.ascontiguousarray(lo2, dtype=np.float64)
    hi2 = np.ascontiguousarray(hi2, dtype=np.float64)
    p1 = lo1[:, :, None] * lo2[None, :, :]
    p2 = lo1[:, :, None] * hi2[None, :, :]
    p3 = hi1[:, :, None] * lo2[None, :, :]
    p4 = hi1[:, :, None] * hi2[None, :, :]
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)).sum(axis=1)
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)).sum(axis=1)
    return lo, hi


def rk4_piecewise(a: np.ndarray, states: np.ndarray, inputs: np.ndarray,
                  steps_per_piece: int, h: float) -> np.ndarray:
    """Integrate a batch of trajectories of x' = A x + u(t).

    ``states`` is (m, n); ``inputs`` is (pieces, m, n), one constant input
    vector per trajectory and piece; each piece is integrated with
    ``steps_per_piece`` RK4 steps of size ``h``. Returns every intermediate
    state, shape (pieces * steps_per_piece + 1, m, n).
    """
    # A transposed, so that (m, n) state batches right-multiply it
    a_t = np.ascontiguousarray(a.T, dtype=np.float64)
    states = np.ascontiguousarray(states, dtype=np.float64)
    inputs = np.ascontiguousarray(inputs, dtype=np.float64)
    total = inputs.shape[0] * steps_per_piece + 1
    out = np.empty((total,) + states.shape)
    out[0] = states
    x = states
    idx = 0
    for p in range(inputs.shape[0]):
        u = inputs[p]
        for _ in range(steps_per_piece):
            k1 = x @ a_t + u
            k2 = (x + 0.5 * h * k1) @ a_t + u
            k3 = (x + 0.5 * h * k2) @ a_t + u
            k4 = (x + h * k3) @ a_t + u
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            idx += 1
            out[idx] = x
    return out
