"""Truncated trigonometric series on the 2pi-torus with m-fold symmetry.

A series stores the reduced harmonics j = 1..count of the fundamental
j*fold; the mean is never stored, so every series averages to zero.
Parity is tracked explicitly: even series carry only cosine
coefficients, odd series only sine coefficients.  Even series are
written to and read from JSON as cosine arrays, by series_json and
series_from_json alone.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels

EVEN = "even-cosine"
ODD = "odd-sine"
FULL = "full"

_PARITIES = (EVEN, ODD, FULL)
# Points per harmonic of the product grid.  On 4N points a square of
# series cut at N is exact on harmonics 0..N (harmonic k <= 2N aliases to
# 4N - k >= 2N), and a cubic, reaching 3N < 4N, has its exact mean.
PRODUCT_GRID_FACTOR = 4
# A transform of N harmonics on M points with N*M <= TABLE_MAX_SIZE is a
# product with cached cos/sin tables (_trig_tables), a larger one a real
# FFT.  One grid_values/grid_coefficients round trip of 2-4 rows, table
# against FFT (2-core VM, 1 BLAS thread, best of 8 interleaved blocks of
# 200 calls, three runs), in us: 10 against 30-33 at N = 16 on 64 points;
# 14-24 against 23-41 at N = 64 on 256 (N*M = 2^14); 34-46 against 41-53
# on 512 (2^15), where the forward product of 4-9 rows alone breaks even
# and the tables take 1 MB; 81-137 against 35-53 at N = 128 on 512.
TABLE_MAX_SIZE = 2 ** 14


@dataclass(frozen=True)
class NormParams:
    """Regularity/analyticity indices (s, sigma) of the coefficient norm."""

    s: float = 2.0
    sigma: float = 0.1

    def __post_init__(self):
        if self.s < 0 or self.sigma < 0:
            raise ValueError("norm indices must be nonnegative")


class TrigSeries:
    """Immutable truncated trig series with fold symmetry and parity tag."""

    __slots__ = ("fold", "cos", "sin", "parity")

    def __init__(self, fold, cos, sin, parity=FULL):
        fold = _fold(fold)
        cos, sin = _coefficients(cos, sin, parity)
        cos.setflags(write=False)
        sin.setflags(write=False)
        self.fold = fold
        self.cos = cos
        self.sin = sin
        self.parity = parity  # assigned last; later writes are rejected

    def __setattr__(self, name, value):
        if hasattr(self, "parity"):
            raise AttributeError("TrigSeries is immutable")
        object.__setattr__(self, name, value)

    # -- constructors ------------------------------------------------

    @classmethod
    def from_cos(cls, fold, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        return cls(fold, coeffs, np.zeros_like(coeffs), EVEN)

    # -- basic queries -----------------------------------------------

    @property
    def count(self):
        return self.cos.shape[0]

    def wavenumbers(self):
        return self.fold * np.arange(1, self.count + 1)

    def max_abs(self):
        return max(np.max(np.abs(self.cos), initial=0.0),
                   np.max(np.abs(self.sin), initial=0.0))

    def eval(self, x):
        """Evaluate the series at the points x (radians on the torus).

        O(len(x) * count); uniform grids of one fold period go through
        grid_values instead."""
        x = np.asarray(x, dtype=float)
        phase = np.multiply.outer(x, self.wavenumbers())
        return np.cos(phase) @ self.cos + np.sin(phase) @ self.sin


def _fold(value):
    """A fold symmetry as an int: an integral number >= 1."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ValueError("fold must be a positive integer")
    return int(value)


def _coefficients(cos, sin, parity):
    """cos and sin as float arrays, checked as the coefficients of one
    series of the given parity."""
    cos = np.ascontiguousarray(cos, dtype=float)
    sin = np.ascontiguousarray(sin, dtype=float)
    if cos.ndim != 1 or sin.shape != cos.shape:
        raise ValueError("cos/sin must be 1d arrays of equal length")
    if not (np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))):
        raise ValueError("non-finite coefficients")
    if parity not in _PARITIES:
        raise ValueError(f"unknown parity {parity!r}")
    if parity == EVEN and np.any(sin != 0.0):
        raise ValueError("even series must have zero sine coefficients")
    if parity == ODD and np.any(cos != 0.0):
        raise ValueError("odd series must have zero cosine coefficients")
    return cos, sin


def series_json(fold, cos):
    """JSON objects, keys fold, count, parity, cos, sin in that order,
    of the even series of one fold whose cosine coefficients are the
    rows of the (k, N) array cos; their sine lists are zero."""
    return [{"fold": fold, "count": len(c), "parity": EVEN,
             "cos": c.tolist(), "sin": [0.0] * len(c)} for c in cos]


def series_from_json(objs):
    """Fold and (k, N) cosine array of the series_json objects objs.
    Raises KeyError for a missing key, ValueError for a malformed series
    (_fold, _coefficients), one not even, different folds or counts, or
    no harmonic.  The coefficient lists, not the count key, set N."""
    folds, rows = [], []
    for obj in objs:
        folds.append(_fold(obj["fold"]))
        rows.append(_coefficients(obj["cos"], obj["sin"], obj["parity"])[0])
    if any(obj["parity"] != EVEN for obj in objs):
        raise ValueError(f"components must be {EVEN}")
    if len(set(folds)) > 1 or len({c.shape for c in rows}) > 1:
        raise ValueError("components must share fold and truncation")
    if not rows or rows[0].size == 0:
        raise ValueError("no harmonics")
    return folds[0], np.array(rows)


class ComponentArrays:
    """Four series with a common fold and truncation, held as read-only
    (4, N) float arrays of the coefficients of harmonics 1..N, one row per
    component: one array per name in the subclass's ARRAYS ("cos", or
    "cos" and "sin").  TrigSeries appear only when a state is built from
    or read out as series."""

    __slots__ = ("fold",)
    ARRAYS = ()

    def __init__(self, series):
        series = tuple(series)
        if len(series) != 4:
            raise ValueError("expected four components")
        fold, count = series[0].fold, series[0].count
        for s in series:
            if s.fold != fold or s.count != count:
                raise ValueError("components must share fold and truncation")
        self._set(fold, [np.array([getattr(s, name) for s in series])
                         for name in self.ARRAYS])

    def _set(self, fold, arrays):
        self.fold = int(fold)
        for name, arr in zip(self.ARRAYS, arrays):
            arr.setflags(write=False)
            setattr(self, name, arr)

    @classmethod
    def from_arrays(cls, fold, *arrays):
        """State owning the (4, N) coefficient arrays, neither copied nor
        checked."""
        state = cls.__new__(cls)
        state._set(fold, arrays)
        return state

    @classmethod
    def zero(cls, fold, count):
        return cls.from_arrays(fold, *(np.zeros((4, count))
                                       for _ in cls.ARRAYS))

    @property
    def count(self):
        return self.cos.shape[1]

    def wavenumbers(self):
        return self.fold * np.arange(1, self.count + 1, dtype=float)

    def max_abs(self):
        return float(max(np.max(np.abs(getattr(self, name)), initial=0.0)
                         for name in self.ARRAYS))


def _flip(parity):
    if parity == EVEN:
        return ODD
    if parity == ODD:
        return EVEN
    return FULL


def deriv(f):
    """d/dx on the coefficients: cos(jmx) -> -jm sin(jmx), sin -> jm cos."""
    w = f.wavenumbers().astype(float)
    return TrigSeries(f.fold, w * f.sin, -w * f.cos, _flip(f.parity))


def _product_parity(pf, pg):
    if pf == FULL or pg == FULL:
        return FULL
    return EVEN if pf == pg else ODD


def multiply_with_mean(f, g, out_count=None):
    """Exact truncated product of two series; returns (mean, series).

    The convolution is carried out over the full harmonic range (no
    aliasing); `out_count` controls where the result is cut (default:
    the larger input count).
    """
    if f.fold != g.fold:
        raise ValueError("fold mismatch")
    if out_count is None:
        out_count = max(f.count, g.count)
    mean, hc, hs = kernels.trig_product(f.cos, f.sin, 0.0,
                                        g.cos, g.sin, 0.0, out_count)
    parity = _product_parity(f.parity, g.parity)
    if parity == EVEN:
        hs = np.zeros_like(hs)
    elif parity == ODD:
        hc = np.zeros_like(hc)
        mean = 0.0
    return mean, TrigSeries(f.fold, hc, hs, parity)


def multiply(f, g, out_count=None):
    """Truncated product with the mean discarded (stored series stay mean-free)."""
    return multiply_with_mean(f, g, out_count)[1]


@functools.lru_cache(maxsize=32)
def norm_weight(count, params):
    """Weights j^(2s) e^(2 sigma j) of harmonics j = 1..count in the norm;
    j is the reduced index (harmonic j*fold counts as j).  Built once
    per (count, params) and returned read-only."""
    j = np.arange(1, count + 1, dtype=float)
    weight = j ** (2.0 * params.s) * np.exp(2.0 * params.sigma * j)
    weight.setflags(write=False)
    return weight


def norm(cos, params):
    """Largest Sobolev-analytic coefficient norm (sum_j w_j a_j^2)^(1/2)
    over the even series whose cosine coefficients are the rows of the
    (k, N) array cos.  A weight that overflows makes the norm infinite
    where it meets a nonzero coefficient; zero coefficients add nothing."""
    with np.errstate(over="ignore"):
        sq = cos ** 2
        weighted = np.multiply(norm_weight(cos.shape[1], params), sq,
                               out=np.zeros(sq.shape), where=sq != 0.0)
    return float(np.max(np.sqrt(np.sum(weighted, axis=1))))


def shift_factors(fold, count, h):
    """cos and sin of j*fold*h, j = 1..count: exactly +-1 and 0 at integer
    multiples of pi/fold, so parity-preserving shifts stay exact."""
    j = np.arange(1, count + 1)
    k = np.rint(fold * h / np.pi)
    if abs(fold * h / np.pi - k) < 1e-12:
        return np.where((j * int(k)) % 2 == 0, 1.0, -1.0), np.zeros(count)
    return np.cos(j * fold * h), np.sin(j * fold * h)


def shift(f, h):
    """Coefficients of x -> f(x + h)."""
    cw, sw = shift_factors(f.fold, f.count, h)
    return TrigSeries(f.fold, cw * f.cos + sw * f.sin, cw * f.sin - sw * f.cos,
                      FULL if np.any(sw) else f.parity)


def grid_values(cos, sin, npts, work=None):
    """Values of stacked series at the npts uniform points of one fold period.

    Row i of the (k, N) arrays cos and sin holds the coefficients of
    harmonics 1..N of one series; sin may be None for series with no
    sine part.  Column p of the (k, npts) result is the value at
    x = 2 pi p / (fold * npts).  Every harmonic must lie below the
    grid's Nyquist one: npts > 2N.  Up to TABLE_MAX_SIZE, all rows go
    through one product with the cosine table plus, added to it, one
    with the sine table; above it, through one inverse real FFT of the
    half spectrum (cos - i sin) / 2, unnormalized.

    work, if given, is that half spectrum's complex (k, npts // 2 + 1)
    array, zero outside columns 1..N (as from half_spectrum); the FFT
    overwrites columns 1..N, so repeated calls of one size allocate no
    spectrum.
    """
    k, n = cos.shape
    if 2 * n >= npts:
        raise ValueError(f"{npts} points cannot resolve {n} harmonics")
    if n * npts <= TABLE_MAX_SIZE:
        return _table_values(cos, sin, _trig_tables(n, npts)[0])
    half = half_spectrum(k, npts) if work is None else work
    if sin is None:
        half[:, 1:n + 1] = 0.5 * cos
    else:
        np.multiply(cos, 0.5, out=half.real[:, 1:n + 1])
        np.multiply(sin, -0.5, out=half.imag[:, 1:n + 1])
    return np.fft.irfft(half, n=npts, axis=1, norm="forward")


def even_odd_grid_values(cos, sin, npts):
    """Values of k even series stacked over those of l odd series.

    Row i of the (k, N) array cos holds the cosine coefficients of one
    even series, row i of the (l, N) array sin the sine coefficients of
    one odd series; the (k + l, npts) result is grid_values(cos over
    zeros, zeros over sin).
    """
    return grid_values(np.concatenate((cos, np.zeros_like(sin))),
                       np.concatenate((np.zeros_like(cos), sin)), npts)


def half_spectrum(k, npts):
    """Zeroed work array of grid_values for k series on npts points."""
    return np.zeros((k, npts // 2 + 1), dtype=complex)


def grid_coefficients(vals, count):
    """Harmonics 1..count of stacked grid values; inverse of grid_values.

    Row i of the (k, npts) array vals holds one series at the npts
    uniform points of one fold period; returns the (k, count) cosine
    and sine coefficients, from one product with the forward table up
    to TABLE_MAX_SIZE and from one forward real FFT above it.  Exact
    when no harmonic of the values aliases onto a kept one: a product
    of two series truncated at count needs npts >= 3 count + 1.
    """
    npts = vals.shape[1]
    if 2 * count >= npts:
        raise ValueError(f"{npts} points cannot resolve {count} harmonics")
    if count * npts <= TABLE_MAX_SIZE:
        f = vals @ _trig_tables(count, npts)[1]
        return f[:, :count], f[:, count:]
    f = np.fft.rfft(vals, axis=1)[:, 1:count + 1] * (2.0 / npts)
    return f.real, -f.imag


@functools.lru_cache(maxsize=8)
def _trig_tables(count, npts):
    """Read-only tables of harmonics 1..count on npts points: the
    (2, count, npts) cosines over sines of 2 pi j p / npts, and the
    (npts, 2 count) transpose of their stack times 2 / npts.  Each angle
    is formed from (j p) mod npts, so it stays below 2 pi."""
    jp = np.arange(1, count + 1)[:, None] * np.arange(npts)
    angle = 2.0 * np.pi * (jp % npts) / npts
    inverse = np.array([np.cos(angle), np.sin(angle)])
    forward = np.ascontiguousarray(inverse.reshape(2 * count, npts).T)
    forward *= 2.0 / npts
    inverse.setflags(write=False)
    forward.setflags(write=False)
    return inverse, forward


def _table_values(cos, sin, inverse):
    """grid_values by the inverse table: the sine product is formed on
    its own and added, so a zero sine part leaves the cosine product's
    bits."""
    vals = cos @ inverse[0]
    if sin is not None:
        vals += sin @ inverse[1]
    return vals


def squares(k, count):
    """The function x -> harmonics 1..count of the squares of k series,
    exact on the product grid.

    x and the result are (p, k, count) stacks: cosine over sine
    coefficients (p = 2), or cosine coefficients of even series (p = 1),
    whose squares' zero sine part is not formed.  A call is one
    grid_values and one grid_coefficients transform on
    PRODUCT_GRID_FACTOR*count points, with the same bits: the grid
    values are squared in place between the two.  On the FFT side, x
    goes into one reused half spectrum by one product.
    """
    npts = PRODUCT_GRID_FACTOR * count
    if count * npts <= TABLE_MAX_SIZE:
        inverse, forward = _trig_tables(count, npts)

        def square_by_table(x):
            p = len(x)
            vals = _table_values(x[0], x[1] if p == 2 else None, inverse)
            vals *= vals
            f = (vals @ forward).reshape(k, 2, count).transpose(1, 0, 2)
            return f if p == 2 else f[:1]

        return square_by_table
    work = half_spectrum(k, npts)
    spectrum = _parts(work, count)
    half_conj = np.array([0.5, -0.5])[:, None, None]
    scale = (2.0 / npts) * np.array([1.0, -1.0])[:, None, None]

    def square(x):
        if len(x) == 2:
            np.multiply(x, half_conj, out=spectrum)
        else:  # cosine rows only: clear a previous call's sine band
            np.multiply(x, half_conj[:1], out=spectrum[:1])
            spectrum[1] = 0.0
        vals = np.fft.irfft(work, n=npts, axis=1, norm="forward")
        np.multiply(vals, vals, out=vals)
        # C order: the callers' arithmetic on the spectrum's interleaved
        # layout was measured slower, by 10% of a stage at N = 256
        f = _parts(np.fft.rfft(vals, axis=1), count)[:len(x)]
        return np.multiply(f, scale[:len(x)], order="C")

    return square


def _parts(spectrum, count):
    """(2, k, count) view of columns 1..count of a C-contiguous complex
    (k, M) array: the real parts over the imaginary parts."""
    k, m = spectrum.shape
    pairs = spectrum.view(float).reshape(k, m, 2)
    return pairs[:, 1:count + 1].transpose(2, 0, 1)
