"""Traveling-wave residual, its analytic Jacobian, and the admissibility
monitors.

A state is a quadruple of even cosine series sharing fold and
truncation, held as one (4, N) coefficient array; residuals are the
(4, N) sine coefficients of four odd series.  The quadratic transport
term is formed exactly on harmonics 1..N (Galerkin); its harmonics
N+1..2N, the truncation's discarded tail, are not formed.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import spectral as sp
from .pencil import CHARGE, COMPONENT_NAMES, SPECIES
from .spectral import EVEN, TrigSeries

# The monitors sample one fold period at this many points per harmonic.
MONITOR_GRID_FACTOR = 16


class InterfaceState(sp.ComponentArrays):
    """Four even, zero-mean cosine series with common fold and truncation;
    coefficient array `cos`."""

    ARRAYS = ("cos",)
    __slots__ = ARRAYS

    def __init__(self, series):
        series = tuple(series)
        if any(s.parity != EVEN for s in series):
            raise ValueError("interface components must be even-cosine")
        super().__init__(series)

    @property
    def series(self):
        """The four components as even TrigSeries."""
        return tuple(TrigSeries.from_cos(self.fold, c) for c in self.cos)

    def as_vector(self):
        return self.cos.flatten()

    def with_count(self, count):
        """Pad with zeros or truncate to the requested harmonic count."""
        cos = np.zeros((4, count))
        n = min(count, self.count)
        cos[:, :n] = self.cos[:, :n]
        return InterfaceState.from_arrays(self.fold, cos)

    def shifted(self, h):
        """Even part of x -> state(x + h)."""
        factor, _ = sp.shift_factors(self.fold, self.count, h)
        return InterfaceState.from_arrays(self.fold, factor * self.cos)

    def norm(self, params):
        return sp.norm(self.cos, params)

    def to_json(self):
        """The four components' JSON objects (spectral.series_json)."""
        return sp.series_json(self.fold, self.cos)

    @classmethod
    def from_json(cls, obj):
        """State from four JSON objects of even series; raises KeyError
        or ValueError as spectral.series_from_json does."""
        fold, cos = sp.series_from_json(obj)
        return cls.from_arrays(fold, cos)


@dataclass
class WaveSolution:
    """A converged traveling-wave point with its diagnostics."""

    cfg: object
    c: float
    state: InterfaceState
    residual_norm: float
    monitors: tuple  # (min strip gap, min relative speed)
    krylov_iters: int = 0  # GMRES iterations of the correction
    dense_solves: int = 0  # dense bordered solves of the correction

    def to_json(self):
        return {"a": self.cfg.as_array().tolist(),
                "m": self.state.fold, "N": self.state.count, "c": self.c,
                "series": dict(zip(COMPONENT_NAMES, self.state.to_json())),
                "residual_norm": self.residual_norm,
                "m1": self.monitors[0], "m2": self.monitors[1],
                "krylov_iters": self.krylov_iters,
                "dense_solves": self.dense_solves}


def residual(cfg, c, state):
    """Galerkin residual of the traveling-wave system: the (4, N) sine
    coefficients of its four odd components.

    Component i: (r_i + a_i - c) dx r_i  -+  dx^-1(d), with the minus
    sign on the plus species.  Each product r_i dx r_i is formed as
    (1/2) dx(r_i^2): one inverse FFT of the states to the product grid
    (spectral.PRODUCT_GRID_FACTOR*N points of one fold period), a
    pointwise square, one forward FFT back to the exact harmonics 1..N.
    """
    a = cfg.as_array()[:, None]
    n = state.count
    w = state.wavenumbers()
    vals = sp.grid_values(state.cos, None, sp.PRODUCT_GRID_FACTOR * n)
    sq, _ = sp.grid_coefficients(vals * vals, n)
    pot = (CHARGE @ state.cos) / w  # sine coefficients of dx^-1(d)
    return -SPECIES[:, None] * pot - w * (0.5 * sq + (a - c) * state.cos)


def residual_vector(cfg, c, state):
    """Stacked sine coefficients of the residual (length 4N)."""
    return residual(cfg, c, state).ravel()


def speed_derivative_vector(cfg, c, state):
    """d residual / dc: the stacked sine coefficients of -dx r."""
    return (state.wavenumbers() * state.cos).ravel()


def jacobian(cfg, c, state, out=None):
    """Dense (4N,4N) Jacobian of the residual in the state, acting on
    stacked cosine coefficients and producing stacked sine coefficients;
    written into `out` (any (4N,4N) float view) if given.

    Block i maps h to dx((r_i + a_i - c) h): with u the coefficients of
    r_i, its entry (k, j) is -w_k ((u_|k-j| + u_k+j) / 2 + (a_i - c) d_kj),
    a Toeplitz plus a Hankel matrix scaled by rows.  Both are windows of
    one zero-padded (4, 3N) coefficient sequence, so the four blocks are
    formed as one (4, N, N) batch; the potential adds diagonal couplings
    between the blocks, written through a strided view of `out`.
    """
    n = state.count
    w = state.wavenumbers()
    if out is None:
        out = np.empty((4 * n, 4 * n))
    # seq[:, n - 1 + d] = u_|d|, with u_0 = 0 and u_p = 0 beyond N
    seq = np.zeros((4, 3 * n))
    seq[:, n:2 * n] = state.cos
    seq[:, :n - 1] = state.cos[:, :n - 1][:, ::-1]
    # win[:, s, j] = seq[:, s + j]: sliding_window_view costs more per
    # call than the rest of the assembly at N = 16
    step = seq.strides[1]
    win = as_strided(seq, (4, 2 * n + 1, n), (seq.strides[0], step, step))
    blocks = np.add(win[:, :n, ::-1], win[:, n + 1:])
    blocks *= -0.5 * w[:, None]
    blocks.reshape(4, n * n)[:, ::n + 1] -= (cfg.as_array() - c)[:, None] * w
    out[...] = 0.0
    for i in range(4):
        out[i * n:(i + 1) * n, i * n:(i + 1) * n] = blocks[i]
    row, col = out.strides  # couple[i, l, k] = out[i n + k, l n + k]
    couple = as_strided(out, (4, 4, n), (n * row, n * col, row + col))
    couple -= np.outer(SPECIES, CHARGE)[:, :, None] / w
    return out


def linearization(cfg, c, state):
    """Matrix-free Jacobian and transport preconditioner at a state:
    two functions on (4, N) arrays, (matvec, precondition).

    matvec(h) is jacobian(cfg, c, state) applied to the cosine
    coefficients h: the sine coefficients of dx(q_i h_i) -+ dx^-1(d(h)),
    q_i = r_i + a_i - c.  The product q_i h_i reaches harmonic 2N; on the
    product grid (spectral.PRODUCT_GRID_FACTOR) it does not alias onto 1..N.
    precondition(g) inverts h -> dx(q_i h) on that grid:
    h = (dx^-1 g + kappa_i) / q_i with kappa_i making h zero-mean, then
    cut to harmonics 1..N.  It leaves out the potential, which smooths.
    q is sampled once, here, and every call of the two functions reuses
    one half-spectrum work array of spectral.grid_values; a zero of q
    shows as non-finite output.
    """
    n = state.count
    w = state.wavenumbers()
    npts = sp.PRODUCT_GRID_FACTOR * n
    work = sp.half_spectrum(4, npts)
    q = sp.grid_values(state.cos, None, npts, work)
    q += (cfg.as_array() - c)[:, None]
    inv_q = 1.0 / q
    sum_inv_q = np.sum(inv_q, axis=1, keepdims=True)

    def matvec(h):
        prod, _ = sp.grid_coefficients(
            q * sp.grid_values(h, None, npts, work), n)
        return -SPECIES[:, None] * (CHARGE @ h) / w - w * prod

    def precondition(g):
        h = sp.grid_values(-g / w, None, npts, work) * inv_q
        h -= h.sum(axis=1, keepdims=True) / sum_inv_q * inv_q
        return sp.grid_coefficients(h, n)[0]

    return matvec, precondition


def monitors(cfg, c, state):
    """(min strip gap, min relative speed) over one fold period.

    The six monitored series (two strip widths, four relative speeds)
    are evaluated on a grid of MONITOR_GRID_FACTOR*N points by one
    inverse FFT.  Each series' grid minimum of |value| then gets one
    Newton polish, all six at once, with the derivatives at the minimum
    and the value off the grid by direct sums: a step on the value if
    the series changes sign, on the derivative (an interior extremum)
    otherwise.  A series whose step would divide by zero keeps its grid
    minimum.
    """
    n, u = state.count, state.cos
    npts = MONITOR_GRID_FACTOR * n
    x = np.linspace(0.0, 2.0 * np.pi / state.fold, npts, endpoint=False)
    w = state.wavenumbers()
    rows = np.concatenate(([u[1] - u[0], u[3] - u[2]], u))
    offsets = np.concatenate([[cfg.width, cfg.width], cfg.as_array() - c])
    v = sp.grid_values(rows, None, npts) + offsets[:, None]
    idx = np.argmin(np.abs(v), axis=1)
    x0 = x[idx]
    v0 = v[np.arange(6), idx]
    best = np.abs(v0)
    cross = (np.min(v, axis=1) < 0.0) & (0.0 < np.max(v, axis=1))
    d1 = _row_dots(np.sin(w * x0[:, None]), -w * rows)  # at x0
    d2 = _row_dots(np.cos(w * x0[:, None]), -w * (w * rows))
    num = np.where(cross, v0, d1)
    den = np.where(cross, d1, d2)
    polish = den != 0.0
    step = np.divide(num, den, out=np.zeros(6), where=polish)
    off_grid = np.abs(_row_dots(np.cos(w * (x0 - step)[:, None]), rows)
                      + offsets)
    best[polish] = np.fmin(best, off_grid)[polish]
    return np.min(best[:2]), np.min(best[2:])


def _row_dots(a, b):
    """Dot products of the rows of two (k, N) arrays: k vector-vector
    products of one batched matmul, the same sums as a[i] @ b[i]."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def solution_at(cfg, c, state, residual_norm=None):
    """Bundle a state with its residual sup and monitor values; the sup
    is computed unless the caller already holds it."""
    if residual_norm is None:
        res = residual_vector(cfg, c, state)
        residual_norm = float(np.max(np.abs(res), initial=0.0))
    return WaveSolution(cfg, float(c), state, residual_norm,
                        monitors(cfg, c, state))
