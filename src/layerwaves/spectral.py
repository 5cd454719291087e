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
# transform(N, M), the transforms of N harmonics on M points,
# are products with tables when N*M <= TABLE_MAX_SIZE and real
# FFTs above; it is cached, so the choice and the tables are made once
# per (N, M).  One round trip of 2-4 rows, table against FFT (2-core VM,
# 1 BLAS thread, best of 8 interleaved blocks of 200 calls, three runs),
# in us: 10 against 30-33 at N = 16 on 64 points;
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


def grid_values(cos, sin, npts):
    """Values of stacked series at the npts uniform points of one fold
    period: the (k, npts) values of transform(N, npts) applied to the
    (k, N) coefficient arrays cos and sin (sin None: no sine part).
    Column p holds the values at x = 2 pi p / (fold * npts)."""
    rows = cos if sin is None else np.concatenate((cos, sin), axis=1)
    return transform(cos.shape[1], npts)[0](rows)


@functools.lru_cache(maxsize=16)
def transform(count, npts):
    """The transforms of harmonics 1..count on npts uniform points of one
    fold period: three functions, (values, coefficients, derivative).

    values(rows, out) takes the (k, p count) rows of k series, cosine
    then sine coefficients (p = 2) or cosine ones (p = 1), to their (k,
    npts) grid values; coefficients(vals, out) takes grid values back
    to the (k, count) cosine coefficients of their harmonics, for even
    values or wherever the sine half would be discarded.  Both write
    into out, an array of the output's shape, if given, with the bits of
    a call without it.  derivative(vals, p) takes grid values to the
    coefficients of their dx in reduced wavenumbers, as rows like
    values' (p = 1: the sine part alone).  Up to TABLE_MAX_SIZE all three
    are products with three tables, made here alone, read-only at 64-byte
    boundaries (_aligned): a (2 count, npts) cos/sin table, whose angles
    are formed from (j p) mod npts, so they stay below 2 pi, the cosine
    columns of its scaled transpose, which give coefficients, and that
    transpose with its halves swapped and weighted by +-j.  Above it,
    values is one inverse real FFT of the half spectrum (cos - i sin) /
    2, unnormalized, written into one zeroed half spectrum per rows
    shape, made on the first call; coefficients and derivative are one
    forward real FFT each, written into one complex work spectrum per
    vals shape, made on the first call and read before the call returns,
    and coefficients reads its real parts alone.  Needs npts > 2 count.
    """
    if 2 * count >= npts:
        raise ValueError(f"{npts} points cannot resolve {count} harmonics")
    if count * npts <= TABLE_MAX_SIZE:
        jp = np.arange(1, count + 1)[:, None] * np.arange(npts)
        angle = 2.0 * np.pi * (jp % npts) / npts
        stacked = np.concatenate((np.cos(angle), np.sin(angle)))
        forward = np.ascontiguousarray(stacked.T) * (2.0 / npts)
        # dx: cosine output j times the sine coefficient, sine output -j cos
        slope = (forward.reshape(npts, 2, count)[:, ::-1] * [[1.0], [-1.0]]
                 * np.arange(1, count + 1)).reshape(npts, 2 * count)
        stacked, cosine_t, slope = map(_aligned, (stacked, forward[:, :count],
                                                  slope))
        # views sliced once: a slice costs about a two-row pass
        cosine, sine_slope = stacked[:count], slope[:, count:]

        def values(rows, out=None):
            return np.matmul(rows, stacked if rows.shape[1] > count
                             else cosine, out=out)

        def coefficients(vals, out=None):
            return np.matmul(vals, cosine_t, out=out)

        def derivative(vals, p):
            return vals @ (slope if p == 2 else sine_slope)

        return values, coefficients, derivative
    spectra = {}  # rows' shape -> zeroed half spectrum, its (2, k, count) view
    work = {}  # vals' shape -> forward work spectrum
    slope = (-2.0 / npts) * np.arange(1, count + 1)

    def values(rows, out=None):
        if rows.shape not in spectra:
            half = np.zeros((len(rows), npts // 2 + 1), dtype=complex)
            spectra[rows.shape] = half, _parts(half, count)
        half, parts = spectra[rows.shape]
        np.multiply(rows[:, :count], 0.5, out=parts[0])
        if rows.shape[1] > count:  # p = 1 keeps its sine band zero
            np.multiply(rows[:, count:], -0.5, out=parts[1])
        return np.fft.irfft(half, n=npts, axis=1, norm="forward", out=out)

    def spectrum(vals):
        if vals.shape not in work:
            work[vals.shape] = np.empty((len(vals), npts // 2 + 1),
                                        dtype=complex)
        return np.fft.rfft(vals, axis=1, out=work[vals.shape])

    def coefficients(vals, out=None):
        return np.multiply(spectrum(vals).real[:, 1:count + 1], 2.0 / npts,
                           out=out)

    def derivative(vals, p):
        # -(2/npts) j times the imaginary parts over the real ones, in C
        # order: the callers' arithmetic on the spectrum's interleaved
        # layout was measured slower, by 10% of an RK4 stage at N = 256
        parts = _parts(spectrum(vals), count)[::-1][2 - p:]
        return np.multiply(parts.transpose(1, 0, 2), slope,
                           order="C").reshape(len(vals), p * count)

    return values, coefficients, derivative


def _aligned(table):
    """A read-only copy of table at a 64-byte boundary, where BLAS reads
    it up to 1.4 times as fast as at other multiples of 16 bytes."""
    buf = np.empty(table.size + 7)
    at = (-buf.ctypes.data % 64) // 8
    out = buf[at:at + table.size].reshape(table.shape)
    out[...] = table
    out.setflags(write=False)
    return out


def _parts(spectrum, count):
    """(2, k, count) view of columns 1..count of a C-contiguous complex
    (k, M) array: the real parts over the imaginary parts."""
    k, m = spectrum.shape
    pairs = spectrum.view(float).reshape(k, m, 2)
    return pairs[:, 1:count + 1].transpose(2, 0, 1)
