"""Layer-size sweep: per-call time of each layer at N = 16, 64 and 256.

The inputs are seeded random states whose coefficients decay
geometrically, on the symmetric configuration near its upper speed.
Each layer is timed directly (no tracer) between two blocks of the
speed probe, and reported as the median per-call time in reference
microseconds, e.g. `steady.monitors.N256_us`.
"""

import time

import numpy as np

SIZES = (16, 64, 256)
LAYERS = ("spectral.multiply", "steady.residual", "steady.jacobian",
          "numpy.linalg.solve", "steady.monitors", "dynamics.rhs")


def _median_call_us(call, min_seconds, min_reps, max_reps=200):
    times = []
    spent = 0.0
    while len(times) < min_reps or (spent < min_seconds
                                    and len(times) < max_reps):
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        spent += elapsed
    return float(np.median(times)) * 1e6


def _decaying(rng, n, rate=0.3, amp=0.05):
    return amp * rng.standard_normal(n) * np.exp(-rate * np.arange(n))


def run(lw, seed, probe, min_seconds=0.15, min_reps=3):
    """Return {"<layer>.N<n>_us": microseconds} for every layer and size."""
    sp, st, dy = lw["spectral"], lw["steady"], lw["dynamics"]
    cfg = lw["pencil"].classify_config([-1.0, 1.0, -1.0, 1.0])
    c = float(np.sqrt(5.0)) + 0.01
    rng = np.random.default_rng(seed)
    out = {}
    for n in SIZES:
        state = st.InterfaceState([sp.TrigSeries.from_cos(1, _decaying(rng, n))
                                   for _ in range(4)])
        phase = dy.PhaseState([sp.TrigSeries(1, _decaying(rng, n),
                                             _decaying(rng, n))
                               for _ in range(4)])
        r = state.series[0]
        dr = sp.deriv(r)
        matrix = np.empty((4 * n + 1, 4 * n + 1))
        matrix[:4 * n, 0] = st.speed_derivative_vector(cfg, c, state)
        matrix[:4 * n, 1:] = st.jacobian(cfg, c, state)
        matrix[4 * n, :] = rng.standard_normal(4 * n + 1)
        rhs = rng.standard_normal(4 * n + 1)
        calls = {
            "spectral.multiply": lambda: sp.multiply(r, dr, out_count=2 * n),
            "steady.residual": lambda: st.residual(cfg, c, state),
            "steady.jacobian": lambda: st.jacobian(cfg, c, state),
            "numpy.linalg.solve": lambda: np.linalg.solve(matrix, rhs),
            "steady.monitors": lambda: st.monitors(cfg, c, state),
            "dynamics.rhs": lambda: dy.rhs(cfg, phase),
        }
        for layer in LAYERS:
            probe.block()
            start = time.perf_counter()
            us = _median_call_us(calls[layer], min_seconds, min_reps)
            end = time.perf_counter()
            probe.block()
            out[f"{layer}.N{n}_us"] = us * probe.factor(start, end)
    return out
