"""The series product kernel.

The product goes through the complex exponential representation:
a real series  f = f0 + sum_p (fc_p cos(p t) + fs_p sin(p t))  becomes
F_k = (fc_k - i fs_k)/2 for k > 0, F_0 = f0, F_{-k} = conj(F_k), and the
pointwise product is a single complex convolution.
"""

import numpy as np


def backend():
    """Name of the product implementation."""
    return "python"


def _to_complex(c, s, mean):
    n = c.shape[0]
    spec = np.empty(2 * n + 1, dtype=complex)
    half = 0.5 * (c - 1j * s)
    spec[n] = mean
    spec[n + 1:] = half
    spec[:n] = np.conj(half[::-1])
    return spec


def trig_product(fc, fs, f0, gc, gs, g0, nout):
    """Coefficients of the pointwise product of two truncated trig series.

    Inputs are cosine/sine coefficient arrays for reduced harmonics
    1..len(arr) plus the mean.  Returns (mean, cos, sin) of the product
    truncated to `nout` harmonics; the convolution itself is exact.
    """
    spec = np.convolve(_to_complex(fc, fs, f0), _to_complex(gc, gs, g0))
    mid = fc.shape[0] + gc.shape[0]
    pos = spec[mid + 1: mid + 1 + nout]
    hc = np.zeros(nout)
    hs = np.zeros(nout)
    nfull = pos.shape[0]
    hc[:nfull] = 2.0 * pos.real
    hs[:nfull] = -2.0 * pos.imag
    return float(spec[mid].real), hc, hs
