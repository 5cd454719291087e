"""Traveling-wave residual, its analytic Jacobian, and the admissibility
monitors.

A state is a quadruple of even cosine series sharing fold and
truncation, held as one (4, N) coefficient array; residuals are the
(4, N) sine coefficients of four odd series.  The transport term
-dx(a r + r^2/2) is formed exactly on harmonics 1..N (Galerkin); its
harmonics N+1..2N, the truncation's discarded tail, are not formed.
Newton works on the rows of a Layout: all four, or the two plus rows
of a symmetric layer's swap-and-half-shift fixed space.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

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
        """Pad with zeros or truncate to the requested harmonic count; the
        state itself if it has that count."""
        if count == self.count:
            return self
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


class Layout:
    """The coefficient rows one Newton solve or one RK4 evolution
    (dynamics.evolve) carries, at one fold and truncation N, and the
    evolution operator on (k, N) cosine rows of them (tendency) and on
    (k, 2N) cosine then sine rows (stage), each one inverse transform
    and one derivative (spectral.transform), the latter's output scaled.

    Either the four components (k = 4), or, on a layer with a_plus ==
    a_minus, the two plus rows (k = 2) of a state on the fixed space
    r_minus_i = T r_plus_i of the species swap composed with the
    half-period shift T (half_shift).  Row i has velocity a[i]; the
    coupling adds coupling[i] * d to its sine output, with the charge
    difference d = charge @ rows and coupling = species * weight / w:
    weight 1 on four rows and 1 - T per harmonic on two, so that d reads
    (1 - T)(r_plus2 - r_plus1), twice the difference on odd harmonics
    and 0 on even ones.  Newton carries scale * rows, scale = sqrt(2)
    on two rows, so that Euclidean products of carried vectors are those
    of the (4, N) states they embed (embed).
    """

    def __init__(self, cfg, fold, count, symmetric=False):
        self.k = k = 2 if symmetric else 4
        self.w = fold * np.arange(1, count + 1, dtype=float)
        self.a = cfg.as_array()[:k, None]
        self.charge = CHARGE[:k]
        self.shift = half_shift(count) if symmetric else None
        self.weight = 1.0 - self.shift if symmetric else 1.0
        self.coupling = SPECIES[:k, None] * self.weight / self.w
        self.scale = math.sqrt(2.0) if symmetric else 1.0
        # tendency's and stage's: g = r (r + 2a) on the grid, the offset 2a
        # a full (k, M) block (numpy adds equal shapes faster than it
        # broadcasts a column), and its dx scaled by -fold/2
        npts = sp.PRODUCT_GRID_FACTOR * count
        self._half_fold = -0.5 * fold
        self._twice_a = np.repeat(2.0 * self.a, npts, axis=1)
        self._values, self._coefficients, self._derivative = sp.transform(
            count, npts)
        self._index = None  # jacobian's index tables, made on its first call
        for table in (self.w, self.a, self.coupling, self._twice_a):
            table.setflags(write=False)  # shared (Layout.shared)

    @staticmethod
    def shared(cfg, fold, count, symmetric=False):
        """One Layout per (cfg, fold, count, symmetric), however the
        arguments are spelled, so that its tables are built once, not per
        solve or per call; callers only read its arrays."""
        return _shared_layout(cfg, fold, count, symmetric)

    def stack(self, c, cos):
        """u = (c, carried rows) of c and a (4, N) coefficient array."""
        return np.concatenate([[c], (self.scale * cos[:self.k]).ravel()])

    def unstack(self, u):
        """c and the (k, N) rows of u = (c, carried rows), a view of u on
        four rows."""
        rows = u[1:].reshape(self.k, -1)
        if self.shift is None:  # scale 1
            return float(u[0]), rows
        return float(u[0]), rows / self.scale

    def embed(self, rows):
        """The (4, N) components of the state with these rows."""
        if self.shift is None:
            return rows
        return np.concatenate([rows, self.shift * rows])

    def tendency(self, x, grid=None):
        """Time derivative f of the evolution system at the even state
        with the (k, N) cosine rows x, as its (k, N) sine coefficients (f
        is odd).  Component i: f_i = -dx(a_i r_i + r_i^2 / 2) -+ dx^-1(d),
        minus on the plus species: g = r (r + 2a) on the product grid
        (_square), its dx taken back by the layout's transforms
        (spectral.transform) and scaled by -fold/2, exact on harmonics
        1..N, and the coupling added.  The grid values r are written
        into grid, a (k, M) array, if given.  Newton's residual reads
        it."""
        out = self._derivative(self._square(x, grid), 1)
        out *= self._half_fold
        out += self.coupling * (self.charge @ x)
        return out

    def stage(self, h):
        """The map x -> h f(x) on (k, 2N) rows x of cosine then sine
        coefficients, f tendency's operator on full-parity states, formed
        as tendency forms it, the derivative's output scaled by h (-fold/2)
        and the signed coupling table by h, here; it makes no transform
        table.  An RK4 step (dynamics.evolve) is four stage(dt / 2) calls."""
        scale = h * self._half_fold
        coupling = h * np.concatenate((-self.coupling, self.coupling), axis=1)
        charge, square, dx = self.charge, self._square, self._derivative
        swap = np.roll(np.arange(2 * self.w.size), self.w.size)  # sine first

        def stage(x):
            out = dx(square(x), 2)
            out *= scale
            out += coupling * np.dot(charge, x).take(swap)
            return out

        return stage

    def _square(self, x, vals=None):
        """g = r (r + 2a) on the product grid, r the values of rows x,
        written into vals if given."""
        vals = self._values(x, vals)
        g = vals + self._twice_a
        g *= vals
        return g

    def residual(self, c, rows, out=None, grid=None):
        """Galerkin residual of the traveling-wave system: the (k, N) sine
        coefficients of -(f(r) + c dx r) on the even state r with these
        rows, f the tendency; -(r_i + a_i - c) dx r_i  -+  dx^-1(d) per
        component.  Written into out, a (k, N) array, if given; the
        rows' product-grid values, which linearization reads, into grid,
        a (k, M) array, if given."""
        out = np.multiply(c * self.w, rows, out=out)
        out -= self.tendency(rows, grid)
        return out

    def bordered(self):
        """A zeroed (kN + 1, kN + 1) matrix for jacobian to fill at [:kN,
        1:], with the potential's constant couplings between different
        rows, entry (i N + p, l N + p) less coupling[i, p] charge[l] for
        l != i, written in.  Newton's dense solves border the Jacobian by
        the c column 0 and the arclength row kN; the couplings and that
        row are written once per correction."""
        if self._index is None:
            self._index = self._jacobian_index()
        *_, coupled, coupling = self._index
        size = self.k * self.w.size + 1
        out = np.zeros((size, size))
        out.reshape(-1)[coupled] -= coupling
        return out

    def jacobian(self, c, rows, out=None):
        """Dense (kN, kN) Jacobian of the residual in the rows, acting on
        stacked cosine coefficients and producing stacked sine
        coefficients: the view [:kN, 1:] of out, a matrix from bordered,
        or of a fresh one.

        Block i maps h to dx((r_i + a_i - c) h): with u the coefficients
        of r_i, its entry (p, j) is -w_p ((u_|p-j| + u_p+j) / 2
        + (a_i - c) d_pj), a Toeplitz plus a Hankel matrix scaled by rows.
        Both are gathered from one zero-padded copy of the rows, with
        u_0 = 0 and u_p = 0 beyond N, as one (k, N, N) batch, whose
        diagonals then take the transport term and the potential's
        coupling of a row with itself, and scattered into the diagonal
        blocks of out; bordered wrote the couplings between the blocks,
        and made the index tables (_jacobian_index) on its first call.
        """
        k, n = rows.shape
        if out is None:
            out = self.bordered()
        toeplitz, hankel, scatter, half_w, own, *_ = self._index
        pad = np.zeros((k, 2 * n + 1))  # pad[i, d] = u_d of row i
        pad[:, 1:n + 1] = rows
        flat = pad.ravel()
        blocks = flat[toeplitz]
        blocks += flat[hankel]
        blocks *= half_w
        diagonals = blocks.reshape(k, n * n)[:, ::n + 1]
        diagonals -= (self.a - c) * self.w
        diagonals -= own
        out.reshape(-1)[scatter] = blocks
        return out[:-1, 1:]

    def _jacobian_index(self):
        """Index tables of jacobian and bordered: the Toeplitz and Hankel
        gathers into the flat padded rows, the scatter of the (k, N, N)
        blocks into the flat bordered matrix, the blocks' row scale
        -w_p / 2 as a read-only (N, N) block, the (k, N) couplings of
        each row with itself, coupling[i, p] charge[i], and the flat
        index and values of the couplings between different rows.
        """
        k, n = self.k, self.w.size
        size = k * n + 1
        p = np.arange(n)
        row = (2 * n + 1) * np.arange(k)[:, None, None]
        block = np.arange(k)[:, None, None] * n
        coupled = (block + p) * size + 1 + block.reshape(1, k, 1) + p
        coupling = self.coupling[:, None] * self.charge[:, None]
        other = np.arange(k)[:, None] != np.arange(k)
        half_w = np.repeat(-0.5 * self.w[:, None], n, axis=1)
        half_w.setflags(write=False)
        return (row + np.abs(p[:, None] - p), row + (p[:, None] + p + 2),
                (block + p[:, None]) * size + 1 + block + p, half_w,
                coupling[~other], coupled[other], coupling[other])

    def linearization(self, c, rows, grid=None):
        """Matrix-free Jacobian and transport-preconditioned Jacobian at
        the rows: two functions on (k, N) arrays, (matvec, preconditioned).

        matvec(h, out) is jacobian(c, rows) applied to the cosine
        coefficients h: the sine coefficients of dx(q_i h_i) -+
        dx^-1(d(h)), q_i = r_i + a_i - c.  The product q_i h_i reaches
        harmonic 2N; on the product grid (spectral.PRODUCT_GRID_FACTOR)
        it does not alias onto 1..N.  preconditioned(g, y, a_y) returns
        (y, matvec(y)) in one pass, y = P g the transport inverse of g:
        P inverts h -> dx(q_i h) on that grid as h = (dx^-1 g + kappa_i)
        / q_i, with kappa_i making h zero-mean, cut to harmonics 1..N.
        kappa_i enters in coefficient space, through the harmonics of
        1/q_i.  P leaves out the potential, which smooths.  Each output
        is written into the (k, N) array given for it (out, y, a_y), or
        into a fresh one.  q is formed once, here, from grid, the rows'
        product-grid values as residual wrote them, which it only reads,
        or from an inverse transform of the rows if grid is None.  The
        passes share one (k, M) grid work array, one (k, N) work array
        holds the 1/w, kappa and coupling terms in turn and one N-vector
        the charge difference, so a pass with its outputs given allocates
        no array of N or more entries.  Every forward transform is
        cosine-only (spectral.transform); matvec is one inverse and one
        forward transform, preconditioned two of each.  A zero of q shows
        as non-finite output.
        """
        values, coefficients = self._values, self._coefficients
        neg_w, coupling, charge = -self.w, self.coupling, self.charge
        q = (values(rows) if grid is None else grid) + (self.a - c)
        inv_q = 1.0 / q
        # kappa_i / q_i in coefficient space: with h = dx^-1 g / q,
        # kappa_i = -sum_p(h_i) / sum_p(1 / q_i) times the harmonics of 1/q_i
        inv_q_cos = coefficients(inv_q)
        inv_q_cos /= inv_q.sum(axis=1, keepdims=True)

        on_grid = np.empty_like(q)  # (k, M) grid values, one pass at a time
        work = np.empty_like(inv_q_cos)  # (k, N) terms, one at a time
        diff = np.empty(self.w.size)  # the charge difference d(h)

        def matvec(h, out=None):
            vals = values(h, on_grid)
            vals *= q
            out = coefficients(vals, out)
            out *= neg_w
            out -= np.multiply(coupling, np.matmul(charge, h, out=diff),
                               out=work)
            return out

        def preconditioned(g, y=None, a_y=None):
            h = values(np.divide(g, neg_w, out=work), on_grid)
            h *= inv_q
            y = coefficients(h, y)
            y -= np.multiply(h.sum(axis=1, keepdims=True), inv_q_cos,
                             out=work)
            return y, matvec(y, a_y)

        return matvec, preconditioned


# Layout.shared's cache, keyed on its four arguments in order
_shared_layout = functools.lru_cache(maxsize=16)(Layout)


def half_shift(count):
    """T on harmonics 1..count: the factors (-1)^j by which the shift
    x -> x + pi/m multiplies reduced harmonic j of a fold-m series."""
    return (-1.0) ** np.arange(1, count + 1)


def on_fixed_space(cfg, *coefficients):
    """Whether the layer has a_plus == a_minus bit for bit and each (4, N)
    coefficient array lies exactly on its fixed space r_minus_i =
    T r_plus_i (Layout)."""
    a = cfg.as_array()
    if not (a[:2] == a[2:]).all():
        return False
    shift = half_shift(coefficients[0].shape[1])
    return all((u[2:] == shift * u[:2]).all() for u in coefficients)


def residual(cfg, c, state):
    """(4, N) sine coefficients of the residual (Layout.residual)."""
    return Layout.shared(cfg, state.fold, state.count).residual(c, state.cos)


def residual_vector(cfg, c, state):
    """Stacked sine coefficients of the residual (length 4N)."""
    return residual(cfg, c, state).ravel()


def speed_derivative_vector(cfg, c, state):
    """d residual / dc: the stacked sine coefficients of -dx r."""
    return (state.wavenumbers() * state.cos).ravel()


def jacobian(cfg, c, state):
    """Dense (4N, 4N) Jacobian of the residual in the state
    (Layout.jacobian), a view into a fresh bordered matrix."""
    layout = Layout.shared(cfg, state.fold, state.count)
    return layout.jacobian(c, state.cos)


def monitors(cfg, c, state):
    """(min strip gap, min relative speed) over one fold period.

    The six monitored series (two strip widths, four relative speeds)
    are evaluated on a grid of MONITOR_GRID_FACTOR*N points by one
    inverse transform (spectral.grid_values).  Each series' grid minimum
    of |value| then gets one Newton polish, all six at once, with the
    derivatives at the minimum and the value off the grid by direct
    sums: a step on the value if the series changes sign, on the
    derivative (an interior extremum) otherwise.  A series whose step
    would divide by zero keeps its grid minimum.
    """
    n, u = state.count, state.cos
    npts = MONITOR_GRID_FACTOR * n
    w = state.wavenumbers()
    rows = np.concatenate(([u[1] - u[0], u[3] - u[2]], u))
    offsets = np.concatenate([[cfg.width, cfg.width], cfg.as_array() - c])
    v = sp.grid_values(rows, None, npts) + offsets[:, None]
    idx = np.abs(v).argmin(axis=1)
    x0 = idx * (2.0 * np.pi / state.fold / npts)
    v0 = v[np.arange(6), idx]
    best = np.abs(v0)
    cross = (v.min(axis=1) < 0.0) & (0.0 < v.max(axis=1))
    phase = w * x0[:, None]
    d1 = _row_dots(np.sin(phase), -w * rows)  # at x0
    d2 = _row_dots(np.cos(phase), -w * (w * rows))
    num = np.where(cross, v0, d1)
    den = np.where(cross, d1, d2)
    polish = den != 0.0
    step = np.divide(num, den, out=np.zeros(6), where=polish)
    off_grid = np.abs(_row_dots(np.cos(w * (x0 - step)[:, None]), rows)
                      + offsets)
    best[polish] = np.fmin(best, off_grid)[polish]
    return best[:2].min(), best[2:].min()


def _row_dots(a, b):
    """Dot products of the rows of two (k, N) arrays: k vector-vector
    products of one batched matmul, the same sums as a[i] @ b[i]."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def solution_at(cfg, c, state, residual_norm=None):
    """Bundle a state with its residual sup and monitor values; the sup
    is computed unless the caller already holds it."""
    if residual_norm is None:
        res = residual_vector(cfg, c, state)
        residual_norm = float(np.abs(res).max(initial=0.0))
    return WaveSolution(cfg, float(c), state, residual_norm,
                        monitors(cfg, c, state))
