"""The series product kernel against a direct product-to-sum reference."""

import numpy as np
import pytest

from layerwaves import kernels


def direct_product(fc, fs, f0, gc, gs, g0, nout):
    """Accumulate the product term by term:

    cos(p)cos(q) = (cos(p-q) + cos(p+q))/2
    sin(p)sin(q) = (cos(p-q) - cos(p+q))/2
    sin(p)cos(q) = (sin(p-q) + sin(p+q))/2
    """
    nf, ng = len(fc), len(gc)
    hc = np.zeros(nout)
    hs = np.zeros(nout)
    h0 = f0 * g0
    for p in range(1, nf + 1):
        a, b = fc[p - 1], fs[p - 1]
        for q in range(1, ng + 1):
            cc = 0.5 * a * gc[q - 1]
            ss = 0.5 * b * gs[q - 1]
            cs = 0.5 * a * gs[q - 1]
            sc = 0.5 * b * gc[q - 1]
            r = p + q
            if r <= nout:
                hc[r - 1] += cc - ss
                hs[r - 1] += cs + sc
            d = p - q
            if d == 0:
                h0 += cc + ss
            elif 0 < d <= nout:
                hc[d - 1] += cc + ss
                hs[d - 1] += sc - cs
            elif 0 < -d <= nout:
                hc[-d - 1] += cc + ss
                hs[-d - 1] += cs - sc
    for q in range(1, min(ng, nout) + 1):
        hc[q - 1] += f0 * gc[q - 1]
        hs[q - 1] += f0 * gs[q - 1]
    for p in range(1, min(nf, nout) + 1):
        hc[p - 1] += g0 * fc[p - 1]
        hs[p - 1] += g0 * fs[p - 1]
    return h0, hc, hs


def test_active_backend_reported():
    assert kernels.backend() == "python"


def test_product_matches_direct_sum_on_random_inputs():
    rng = np.random.default_rng(17)
    for _ in range(40):
        nf = int(rng.integers(1, 20))
        ng = int(rng.integers(1, 20))
        fc, fs = rng.standard_normal(nf), rng.standard_normal(nf)
        gc, gs = rng.standard_normal(ng), rng.standard_normal(ng)
        f0, g0 = rng.standard_normal(2)
        # cut below the full product length and pad beyond it
        for nout in (int(rng.integers(1, nf + ng)),
                     nf + ng + int(rng.integers(1, 5))):
            mean, hc, hs = kernels.trig_product(fc, fs, f0, gc, gs, g0, nout)
            m_ref, c_ref, s_ref = direct_product(fc, fs, f0, gc, gs, g0, nout)
            assert mean == pytest.approx(m_ref, abs=1e-13)
            assert np.allclose(hc, c_ref, rtol=0.0, atol=1e-13)
            assert np.allclose(hs, s_ref, rtol=0.0, atol=1e-13)


def test_product_of_pure_tones():
    # cos(3t) * sin(5t) = (sin(8t) - sin(-2t))/2 = sin(8t)/2 + sin(2t)/2
    fc = np.array([0.0, 0.0, 1.0])
    fs = np.zeros(3)
    gc = np.zeros(5)
    gs = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    for product in (kernels.trig_product, direct_product):
        mean, hc, hs = product(fc, fs, 0.0, gc, gs, 0.0, 8)
        assert mean == pytest.approx(0.0)
        assert np.allclose(hc, 0.0)
        expect = np.zeros(8)
        expect[1] = 0.5
        expect[7] = 0.5
        assert np.allclose(hs, expect)
