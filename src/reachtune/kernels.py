"""Hot numeric kernels, in numpy: the interval matrix product and the
batched RK4 integrator of the trajectory oracle."""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation: always ``"numpy"``, the only one."""
    return "numpy"


def interval_matmul(mid1: np.ndarray, rad1: np.ndarray,
                    mid2: np.ndarray, rad2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint and radius enclosing {X @ Y : |X - mid1| <= rad1, |Y - mid2| <= rad2}.

    Rump's product: the radius bounds ``|mid1 dY + dX mid2 + dX dY|``. It is
    at most 1.5 times the entrywise-tightest radius, and equal to it when
    either factor is a point matrix.
    """
    return mid1 @ mid2, np.abs(mid1) @ rad2 + rad1 @ (np.abs(mid2) + rad2)


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
