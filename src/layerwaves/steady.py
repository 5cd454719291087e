"""Traveling-wave residual, its analytic Jacobian, and the admissibility
monitors.

States are quadruples of even cosine series sharing fold and truncation;
residuals are odd sine series.  The quadratic transport term is computed
by exact convolution up to twice the truncation and then projected back
(Galerkin), so the only discretization error is the reported tail.
"""

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .spectral import EVEN, TrigSeries

# Signs in front of the nonlocal potential term per component, and the
# coefficients of each component inside the charge difference d.
POT_SIGN = np.array([-1.0, -1.0, 1.0, 1.0])
D_COEF = np.array([-1.0, 1.0, 1.0, -1.0])

COMPONENT_NAMES = ("plus1", "plus2", "minus1", "minus2")

# The monitors sample one fold period at this many points per harmonic.
MONITOR_GRID_FACTOR = 16


class InterfaceState:
    """Four even, zero-mean cosine series with common fold and truncation."""

    __slots__ = ("series",)

    def __init__(self, series):
        series = tuple(series)
        if len(series) != 4:
            raise ValueError("expected four components")
        fold, count = series[0].fold, series[0].count
        for s in series:
            if s.parity != EVEN:
                raise ValueError("interface components must be even-cosine")
            if s.fold != fold or s.count != count:
                raise ValueError("components must share fold and truncation")
        self.series = series

    @classmethod
    def zero(cls, fold, count):
        return cls([TrigSeries.zeros(fold, count, EVEN) for _ in range(4)])

    @classmethod
    def from_vector(cls, fold, count, vec):
        vec = np.asarray(vec, dtype=float)
        return cls([TrigSeries.from_cos(fold, vec[i * count:(i + 1) * count])
                    for i in range(4)])

    @property
    def fold(self):
        return self.series[0].fold

    @property
    def count(self):
        return self.series[0].count

    def as_vector(self):
        return np.concatenate([s.cos for s in self.series])

    def with_count(self, count):
        return InterfaceState([s.with_count(count) for s in self.series])

    def shifted(self, h):
        moved = [sp.shift(s, h) for s in self.series]
        return InterfaceState([TrigSeries.from_cos(s.fold, s.cos) for s in moved])

    def norm(self, params):
        return max(sp.norm(s, params) for s in self.series)

    def max_abs(self):
        return max(s.max_abs() for s in self.series)

    def to_json(self):
        return [s.to_json() for s in self.series]

    @classmethod
    def from_json(cls, obj):
        return cls([TrigSeries.from_json(s) for s in obj])


@dataclass
class WaveSolution:
    """A converged traveling-wave point with its diagnostics."""

    cfg: object
    c: float
    state: InterfaceState
    residual_norm: float
    monitors: tuple  # (min strip gap, min relative speed)

    def to_json(self):
        return {"a": self.cfg.as_array().tolist(),
                "m": self.state.fold, "N": self.state.count, "c": self.c,
                "series": {name: s.to_json() for name, s
                           in zip(COMPONENT_NAMES, self.state.series)},
                "residual_norm": self.residual_norm,
                "m1": self.monitors[0], "m2": self.monitors[1]}


def charge_difference(state):
    s = state.series
    return s[1] - s[0] - s[3] + s[2]


def residual(cfg, c, state, with_tail=False):
    """Galerkin residual of the traveling-wave system; four odd series.

    Component i: (r_i + a_i - c) dx r_i  -+  dx^-1(d), with the minus
    sign on the plus species.  If with_tail is set, also returns the
    sup of the discarded convolution tail (harmonics count+1..2*count).
    """
    a = cfg.as_array()
    n = state.count
    pot = sp.antideriv(charge_difference(state)).with_count(2 * n)
    out, tail = [], 0.0
    for i, r in enumerate(state.series):
        dr = sp.deriv(r)
        quad = sp.multiply(r, dr, out_count=2 * n)
        full = quad + (a[i] - c) * dr.with_count(2 * n) + POT_SIGN[i] * pot
        out.append(full.with_count(n))
        if with_tail:
            tail = max(tail, float(np.max(np.abs(full.sin[n:]), initial=0.0)))
    if with_tail:
        return out, tail
    return out


def residual_vector(cfg, c, state):
    """Stacked sine coefficients of the residual (length 4N)."""
    return np.concatenate([f.sin for f in residual(cfg, c, state)])


def speed_derivative(cfg, c, state):
    """d residual / dc: component-wise -dx r (odd series)."""
    return [-1.0 * sp.deriv(r) for r in state.series]


def speed_derivative_vector(cfg, c, state):
    return np.concatenate([f.sin for f in speed_derivative(cfg, c, state)])


def _mult_op_even_to_odd(mean, coeffs, count, fold):
    """Matrix of h -> (u * dx h) from cosine to sine coefficients, where
    u has the given mean and cosine coefficients."""
    r = np.arange(1, count + 1)
    pad = np.zeros(2 * count + 2)
    pad[1:coeffs.shape[0] + 1] = coeffs
    diff = np.abs(r[:, None] - r[None, :])
    summ = r[:, None] + r[None, :]
    amp = 0.5 * pad[diff] - 0.5 * pad[summ]
    amp[np.diag_indices(count)] += mean
    return amp * (-(r * fold))[None, :]


def _mult_op_odd_factor(sin_coeffs, count, fold):
    """Matrix of h -> (v * h) from cosine to sine coefficients, where v
    is an odd series with the given sine coefficients."""
    r = np.arange(1, count + 1)
    pad = np.zeros(2 * count + 2)
    pad[1:sin_coeffs.shape[0] + 1] = sin_coeffs
    d = r[:, None] - r[None, :]
    signed = np.where(d > 0, pad[np.abs(d)], -pad[np.abs(d)])
    signed[np.diag_indices(count)] = 0.0
    return 0.5 * (signed + pad[r[:, None] + r[None, :]])


def jacobian(cfg, c, state):
    """Dense (4N,4N) Jacobian of the residual in the state, acting on
    stacked cosine coefficients and producing stacked sine coefficients."""
    a = cfg.as_array()
    n, fold = state.count, state.fold
    inv_w = 1.0 / (fold * np.arange(1, n + 1))
    idx = np.arange(n)
    J = np.zeros((4 * n, 4 * n))
    for i, r in enumerate(state.series):
        rows = slice(i * n, (i + 1) * n)
        J[rows, rows] += (_mult_op_even_to_odd(a[i] - c, r.cos, n, fold)
                          + _mult_op_odd_factor(sp.deriv(r).sin, n, fold))
        for l in range(4):
            J[i * n + idx, l * n + idx] += POT_SIGN[i] * D_COEF[l] * inv_w
    return J


def monitors(cfg, c, state):
    """(min strip gap, min relative speed) over one fold period.

    The six monitored series (two strip widths, four relative speeds)
    and their derivatives are evaluated on a grid of MONITOR_GRID_FACTOR*N
    points by two batched inverse FFTs (spectral.grid_values).  The
    located minimum (an interior extremum or a sign crossing) then gets
    one Newton polish by direct evaluation off the grid.
    """
    n, fold = state.count, state.fold
    npts = MONITOR_GRID_FACTOR * n
    x = np.linspace(0.0, 2.0 * np.pi / fold, npts, endpoint=False)
    s = state.series
    series = [s[1] - s[0], s[3] - s[2], *s]
    derivs = [sp.deriv(f) for f in series]
    offsets = np.concatenate([[cfg.width, cfg.width], cfg.as_array() - c])
    vals = sp.grid_values(np.array([f.cos for f in series]),
                          np.array([f.sin for f in series]), npts)
    vals += offsets[:, None]
    dvals = sp.grid_values(np.array([f.cos for f in derivs]),
                           np.array([f.sin for f in derivs]), npts)

    def min_abs(i):
        v, dv, f, offset = vals[i], dvals[i], series[i], offsets[i]
        idx = int(np.argmin(np.abs(v)))
        best = abs(v[idx])
        x0 = x[idx]
        if np.min(v) < 0.0 < np.max(v):
            # zero crossing: one Newton step on the value
            g, dg = v[idx], dv[idx]
            if dg != 0.0:
                x1 = x0 - g / dg
                best = min(best, abs(f.eval([x1])[0] + offset))
        else:
            # interior extremum: one Newton step on the derivative
            d2 = sp.deriv(derivs[i]).eval([x0])[0]
            if d2 != 0.0:
                x1 = x0 - dv[idx] / d2
                best = min(best, abs(f.eval([x1])[0] + offset))
        return best

    gap = min(min_abs(0), min_abs(1))
    slip = min(min_abs(i) for i in range(2, 6))
    return gap, slip


def solution_at(cfg, c, state):
    """Bundle a state with its residual sup and monitor values."""
    res = residual_vector(cfg, c, state)
    return WaveSolution(cfg, float(c), state,
                        float(np.max(np.abs(res), initial=0.0)),
                        monitors(cfg, c, state))
