import inspect
import json

import numpy as np
import pytest

from layerwaves import spectral as sp
from layerwaves import steady as st
from layerwaves.spectral import EVEN, FULL, ODD, NormParams, TrigSeries

from oracle import (add, antideriv, fft_coefficients, from_sin, norm, scale,
                    with_count, zeros)


def random_series(rng, fold=3, count=8, parity=FULL, scale=1.0):
    cos = scale * rng.standard_normal(count)
    sin = scale * rng.standard_normal(count)
    if parity == EVEN:
        sin = np.zeros(count)
    elif parity == ODD:
        cos = np.zeros(count)
    return TrigSeries(fold, cos, sin, parity)


def test_deriv_basis_elements():
    f = TrigSeries.from_cos(2, [1.0])
    df = sp.deriv(f)
    assert df.parity == ODD
    assert np.allclose(df.sin, [-2.0]) and np.allclose(df.cos, [0.0])

    g = from_sin(3, [1.0])
    dg = sp.deriv(g)
    assert dg.parity == EVEN
    assert np.allclose(dg.cos, [3.0])

    z = zeros(2, 4, EVEN)
    assert sp.deriv(z).max_abs() == 0.0


def test_antideriv_basis_elements():
    for j in (1, 2, 5):
        coeffs = np.zeros(6)
        coeffs[j - 1] = 1.0
        f = TrigSeries.from_cos(1, coeffs)
        g = antideriv(f)
        assert g.sin[j - 1] == pytest.approx(1.0 / j)
        h = antideriv(from_sin(1, coeffs))
        assert h.cos[j - 1] == pytest.approx(-1.0 / j)
        # twice the antiderivative is the inverse Laplacian on the basis
        gg = antideriv(g)
        assert gg.cos[j - 1] == pytest.approx(-1.0 / j ** 2)


def test_deriv_antideriv_roundtrip():
    # identity on coefficients up to one rounding of the weight ratio
    rng = np.random.default_rng(11)
    for parity in (EVEN, ODD, FULL):
        f = random_series(rng, fold=4, count=10, parity=parity)
        g = sp.deriv(antideriv(f))
        assert np.allclose(g.cos, f.cos, rtol=1e-15, atol=0.0)
        assert np.allclose(g.sin, f.sin, rtol=1e-15, atol=0.0)


def test_multiply_trig_identities():
    f = TrigSeries.from_cos(2, [1.0, 0.0])
    mean, sq = sp.multiply_with_mean(f, f)
    assert mean == pytest.approx(0.5)
    assert np.allclose(sq.cos, [0.0, 0.5])
    assert sq.parity == EVEN

    g = TrigSeries.from_cos(2, [0.0, 1.0, 0.0])
    prod = sp.multiply(with_count(f, 3), g, out_count=3)
    assert np.allclose(prod.cos, [0.5, 0.0, 0.5])

    zero = zeros(2, 3, EVEN)
    assert sp.multiply(with_count(f, 3), zero).max_abs() == 0.0


def test_multiply_parity_table():
    rng = np.random.default_rng(5)
    e = random_series(rng, parity=EVEN)
    o = random_series(rng, parity=ODD)
    assert sp.multiply(e, e).parity == EVEN
    assert sp.multiply(o, o).parity == EVEN
    assert sp.multiply(e, o).parity == ODD
    assert sp.multiply(o, e).parity == ODD
    assert sp.multiply(e, random_series(rng)).parity == FULL


def test_multiply_fold_mismatch():
    f = TrigSeries.from_cos(2, [1.0])
    g = TrigSeries.from_cos(3, [1.0])
    with pytest.raises(ValueError, match="fold"):
        sp.multiply(f, g)


def test_multiply_matches_grid_sampling():
    # pointwise product sampled on a fine grid, then projected back
    rng = np.random.default_rng(23)
    for _ in range(6):
        nf = int(rng.integers(2, 9))
        ng = int(rng.integers(2, 9))
        f = random_series(rng, fold=2, count=nf)
        g = random_series(rng, fold=2, count=ng)
        n_out = nf + ng
        npts = 2 * (2 * n_out + 1)
        x = np.linspace(0.0, 2.0 * np.pi / 2, npts, endpoint=False)
        vals = f.eval(x) * g.eval(x)
        mean, prod = sp.multiply_with_mean(f, g, out_count=n_out)
        scale = max(np.max(np.abs(vals)), 1.0)
        assert abs(np.mean(vals) - mean) <= 1e-12 * scale
        phase = np.multiply.outer(x, 2 * np.arange(1, n_out + 1))
        cos_proj = 2.0 * (np.cos(phase).T @ vals) / npts
        sin_proj = 2.0 * (np.sin(phase).T @ vals) / npts
        assert np.max(np.abs(cos_proj - prod.cos)) <= 1e-12 * scale
        assert np.max(np.abs(sin_proj - prod.sin)) <= 1e-12 * scale


@pytest.mark.parametrize("parity", [EVEN, ODD, FULL])
@pytest.mark.parametrize("fold", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 8, 16, 64, 256])
def test_grid_values_match_direct_evaluation(parity, fold, count):
    rng = np.random.default_rng(count + 10 * fold)
    rows = [random_series(rng, fold, count, parity) for _ in range(3)]
    cos = np.array([f.cos for f in rows])
    sin = np.array([f.sin for f in rows])
    scale = max(np.sum(np.abs(f.cos)) + np.sum(np.abs(f.sin)) for f in rows)
    # above 2N, powers of two or not; at or below 2N (the Nyquist harmonic
    # and beyond) the grid cannot hold the series and is refused
    for npts in sorted({16 * count, 4 * count + 3, 2 * count + 1, 2 * count,
                        2 * count - 1, count + 1, 7, 3, 1}):
        if npts <= 2 * count:
            with pytest.raises(ValueError, match="cannot resolve"):
                sp.grid_values(cos, sin, npts)
            with pytest.raises(ValueError, match="cannot resolve"):
                sp.grid_values(cos, None, npts)
            continue
        x = np.linspace(0.0, 2.0 * np.pi / fold, npts, endpoint=False)
        got = sp.grid_values(cos, sin, npts)
        assert got.shape == (3, npts)
        want = np.array([f.eval(x) for f in rows])
        assert np.max(np.abs(got - want)) < 1e-13 * scale, npts
        if parity == EVEN:  # no sine part: None is the zero array, to
            # round-off, as a table product sums 2N terms for it, not N
            assert np.max(np.abs(sp.grid_values(cos, None, npts) - got)) \
                <= 1e-15 * scale, npts


@pytest.fixture(autouse=True)
def _fresh_pairs_after():
    """Transform pairs made under a patched TABLE_MAX_SIZE stay in no
    cache once the test is over."""
    yield
    _forget_pairs()


def _forget_pairs():
    """Empty the caches that hold transform pairs: spectral.transform's,
    and Layout.shared's, whose layouts keep the pair of their grid."""
    sp.transform.cache_clear()
    st._shared_layout.cache_clear()


def _choose_side(monkeypatch, size):
    """Make every transform pair made from here on a table product
    (size BY_TABLE) or a real FFT (BY_FFT); pairs made before are
    forgotten, since each made its choice once."""
    monkeypatch.setattr(sp, "TABLE_MAX_SIZE", size)
    _forget_pairs()


def _padded(cos, sin):
    """k even rows over l odd ones as one full-parity stack: each stack
    padded with zero rows where the other has its rows, as ep_residual
    pads them."""
    return (np.concatenate((cos, np.zeros_like(sin))),
            np.concatenate((np.zeros_like(cos), sin)))


@pytest.mark.parametrize("k, l", [(4, 5), (1, 3), (6, 6)])
@pytest.mark.parametrize("count", [1, 16, 64])
def test_even_odd_grid_values_are_padded_grid_values(k, l, count):
    # k even rows over l odd ones, padded: each row's values are those
    # of its series transformed alone, just above 2N points and on the
    # Euler-Poisson residual's grid
    rng = np.random.default_rng(100 * k + 10 * l + count)
    cos = rng.standard_normal((k, count))
    sin = rng.standard_normal((l, count))
    scale = np.max(np.sum(np.abs(np.concatenate((cos, sin))), axis=1))
    for npts in (2 * count + 1, 2 * count + 2, 8 * (3 * count + 3)):
        got = sp.grid_values(*_padded(cos, sin), npts)
        want = np.concatenate((sp.grid_values(cos, None, npts),
                               sp.grid_values(0.0 * sin, sin, npts)))
        assert got.shape == (k + l, npts)
        assert np.max(np.abs(got - want)) <= 1e-14 * scale, npts
    with pytest.raises(ValueError, match="cannot resolve"):
        sp.grid_values(*_padded(cos, sin), 2 * count)


@pytest.mark.parametrize("count", [1, 8, 17, 64])
def test_grid_values_work_array_keeps_no_state(monkeypatch, count):
    # calls with and without a sine part alternate on the zeroed half
    # spectra of the FFT side's cached pair, one per rows shape; each
    # must equal a fresh pair's call bitwise (a stale imaginary band from
    # a previous call would show), each spectrum stays zero outside the
    # band, and the one of rows without a sine part has no sine band
    _choose_side(monkeypatch, BY_FFT)
    rng = np.random.default_rng(70 + count)
    npts = 4 * count + 1
    values = sp.transform(count, npts)[0]
    for sine in (True, False, False, True, True, False):
        rows = rng.standard_normal((3, (2 if sine else 1) * count))
        got = values(rows)
        assert np.array_equal(got, sp.transform.__wrapped__(count, npts)[0](
            rows))
        spectra = inspect.getclosurevars(values).nonlocals["spectra"]
        for half, _ in spectra.values():
            assert np.all(half[:, 0] == 0.0)
            assert np.all(half[:, count + 1:] == 0.0)
        if (3, count) in spectra:
            assert np.all(spectra[3, count][0].imag == 0.0)
    assert set(inspect.getclosurevars(values).nonlocals["spectra"]) == {
        (3, count), (3, 2 * count)}


@pytest.mark.parametrize("count", [16, 64, 128, 256])  # tables, then FFTs
@pytest.mark.parametrize("k", [2, 4])
def test_transforms_write_into_out(count, k):
    # values(rows, out) and coefficients(vals, out) write into out and
    # return it, with the bits of the calls that allocate their output,
    # on each product grid: tables up to N = 64, real FFTs above
    rng = np.random.default_rng(90 + count + k)
    npts = sp.PRODUCT_GRID_FACTOR * count
    values, coefficients = sp.transform(count, npts)[:2]
    for p in (1, 2):
        rows = rng.standard_normal((k, p * count))
        grid = np.empty((k, npts))
        assert values(rows, grid) is grid
        assert np.array_equal(grid, values(rows))
    vals = rng.standard_normal((k, npts))
    out = np.empty((k, count))
    assert coefficients(vals, out) is out
    assert np.array_equal(out, coefficients(vals))


@pytest.mark.parametrize("count", [128, 256])
def test_forward_work_spectra_keep_no_state(count):
    # coefficients and derivative calls on grid values of two shapes
    # alternate on the FFT side's work spectra, one per shape, made on
    # first use: each call equals a fresh transform's bitwise, so no
    # spectrum carries anything from one shape or call to the next
    rng = np.random.default_rng(80 + count)
    npts = sp.PRODUCT_GRID_FACTOR * count
    _, coefficients, derivative = sp.transform(count, npts)
    for k in (2, 4, 4, 2, 4, 2):
        vals = rng.standard_normal((k, npts))
        fresh = sp.transform.__wrapped__(count, npts)
        assert np.array_equal(coefficients(vals), fresh[1](vals))
        for p in (1, 2):
            assert np.array_equal(derivative(vals, p), fresh[2](vals, p))
    spectrum = inspect.getclosurevars(coefficients).nonlocals["spectrum"]
    assert set(inspect.getclosurevars(spectrum).nonlocals["work"]) == {
        (2, npts), (4, npts)}


@pytest.mark.parametrize("size", ["table", "fft"])
@pytest.mark.parametrize("count", [1, 8, 17, 64])
def test_squares_closure_keeps_no_state(monkeypatch, gen_cfg, size, count):
    # full-parity (p = 2, the stage) and even (p = 1, the tendency)
    # calls of one layout's evolution operator alternate on its cached
    # transform pair; each must equal a fresh layout's call bitwise (a
    # stale sine band in the FFT side's half spectrum, left by a p = 2
    # call, would show)
    _choose_side(monkeypatch, {"table": BY_TABLE, "fft": BY_FFT}[size])
    rng = np.random.default_rng(80 + count)
    layout = st.Layout(gen_cfg, 1, count)
    for p in (2, 1, 1, 2, 2, 1):
        x = rng.standard_normal((4, p * count))
        got = _evolution(layout, x)
        assert got.shape == (4, p * count)
        sp.transform.cache_clear()
        assert np.array_equal(got, _evolution(st.Layout(gen_cfg, 1, count),
                                              x))


def _evolution(layout, x):
    """The evolution operator on the layout's rows x: Layout.tendency on
    (k, N) cosine rows, Layout.stage(1.0) on (k, 2N) cosine then sine
    rows."""
    if x.shape[1] == layout.w.size:
        return layout.tendency(x)
    return layout.stage(1.0)(x)


def _squared(values, coefficients, x):
    """Cosine coefficients of harmonics 1..count of the squares of the
    (k, p count) rows x, by one transform pair: the grid values squared
    in place between its two functions."""
    vals = values(x)
    vals *= vals
    return coefficients(vals)


def _operator(layout, x, squares):
    """-dx(a r + r^2/2) -+ dx^-1(d) on the layout's (k, p N) rows x, as
    the rows of its evolution operator (_evolution), from the (p, k, N)
    coefficients of the squares; and the largest sum of the absolute
    terms of an entry."""
    count = layout.w.size
    parts = [x[:, :count], x[:, count:]][:len(squares)]
    # per input part: w (a r), w (r^2/2) and the coupling term
    terms = [(layout.w * layout.a * u, layout.w * 0.5 * sq,
              layout.coupling * (layout.charge @ u))
             for u, sq in zip(parts, squares)]
    # -dx takes cos to w sin and sin to -w cos; p = 1 has the sine only
    out = [tuple(-t for t in terms[1]), terms[0]] if len(parts) == 2 \
        else terms
    stacked = np.concatenate([np.array(t) for t in out], axis=2)
    return stacked.sum(axis=0), np.max(np.abs(stacked).sum(axis=0))


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("count", [1, 8, 17, 64, 65])
def test_squares_are_the_grid_round_trip(gen_cfg, sym_cfg, k, count):
    # bit for bit the cosine coefficients of the square of grid_values,
    # taken back by the pair's coefficients on the product grid, for
    # full-parity series (p = 2) and for even ones (p = 1, no sine part),
    # each call of the cached pair equal to a fresh pair's; to round-off the
    # squares' exact harmonics, here by one real FFT (fft_coefficients);
    # on the k rows of a layout, the evolution operator (tendency for
    # p = 1, stage(1.0) for p = 2) is -dx(a r + r^2/2) -+ dx^-1(d) with
    # those exact squares, to round-off, as its kernel forms the sums in
    # its own order
    rng = np.random.default_rng(10 * k + count)
    npts = sp.PRODUCT_GRID_FACTOR * count
    pair = sp.transform(count, npts)[:2]
    layout = {2: st.Layout(sym_cfg, 1, count, True),
              4: st.Layout(gen_cfg, 1, count)}.get(k)
    for _ in range(3):
        for p in (2, 1):
            x = rng.standard_normal((k, p * count))
            vals = sp.grid_values(x[:, :count],
                                  x[:, count:] if p == 2 else None, npts)
            want = fft_coefficients(vals * vals, count)[:p]
            got = _squared(*pair, x)
            assert got.shape == (k, count)
            assert np.array_equal(got, pair[1](vals * vals))
            assert np.array_equal(got, _squared(
                *sp.transform.__wrapped__(count, npts)[:2], x))
            scale = np.max(np.sum(np.abs(x), axis=1)) ** 2
            assert np.max(np.abs(got - want[0])) <= 1e-14 * scale
            if layout is not None:
                f, scale = _operator(layout, x, want)
                assert f.shape == (k, p * count)
                assert np.max(np.abs(_evolution(layout, x) - f)) \
                    <= 1e-14 * scale


@pytest.mark.parametrize("count", [1, 8, 17, 64, 256])
def test_grid_coefficients_invert_grid_values(count):
    # the transform's coefficients take grid_values back to the cosine
    # coefficients; a sine part adds none
    rng = np.random.default_rng(count)
    cos = rng.standard_normal((3, count))
    sin = rng.standard_normal((3, count))
    # every grid fine enough to hold count harmonics, powers of two or not
    for npts in (2 * count + 1, 3 * count + 1, 4 * count, 16 * count + 5):
        coefficients = sp.transform(count, npts)[1]
        for part in (None, sin):
            got = coefficients(sp.grid_values(cos, part, npts))
            assert np.max(np.abs(got - cos)) < 1e-14, npts
        assert np.max(np.abs(coefficients(sp.grid_values(
            np.zeros_like(sin), sin, npts)))) < 1e-14, npts
    with pytest.raises(ValueError, match="cannot resolve"):
        sp.transform(count, 2 * count)


# (N, M) pairs just at or below TABLE_MAX_SIZE and just above it, on
# powers of two, on 2N + 1 points and on the Euler-Poisson grid
# 8 (3N + 3)
DISPATCH_SIZES = [(64, 256), (64, 512), (90, 181), (91, 183), (25, 624),
                  (26, 648)]
BY_TABLE, BY_FFT = 10 ** 9, 0  # TABLE_MAX_SIZE forcing one branch


def _direct(n, npts):
    """cos and sin of j x_p, x_p = 2 pi p / npts: the (N, npts) sums of
    direct evaluation."""
    x = np.linspace(0.0, 2.0 * np.pi, npts, endpoint=False)
    phase = np.multiply.outer(np.arange(1, n + 1), x)
    return np.cos(phase), np.sin(phase)


def _both_branches(monkeypatch, fn, *args):
    """fn(*args) by table products and by real FFTs, each from transform
    pairs made for it; the first pass must call no FFT, the second
    must."""
    calls = []

    def counted(fft):
        def call(*a, **kw):
            calls.append(fft)
            return fft(*a, **kw)
        return call

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    out = []
    for size in (BY_TABLE, BY_FFT):
        _choose_side(monkeypatch, size)
        calls.clear()
        out.append(fn(*args))
        assert bool(calls) == (size == BY_FFT)
    monkeypatch.undo()
    _forget_pairs()
    return out


def test_dispatch_sizes_straddle_the_threshold():
    below = [n * npts <= sp.TABLE_MAX_SIZE for n, npts in DISPATCH_SIZES]
    assert below == [True, False] * 3


@pytest.mark.parametrize("n, npts", DISPATCH_SIZES)
@pytest.mark.parametrize("k", [1, 4, 9])
@pytest.mark.parametrize("sine", [True, False])
def test_grid_values_by_table_and_by_fft(monkeypatch, n, npts, k, sine):
    rng = np.random.default_rng(n + npts + k)
    cos = rng.standard_normal((k, n))
    sin = rng.standard_normal((k, n)) if sine else None
    table, fft = _both_branches(monkeypatch, sp.grid_values, cos, sin, npts)
    scale = np.max(np.sum(np.abs(cos), axis=1)) * (2.0 if sine else 1.0)
    assert np.max(np.abs(table - fft)) <= 1e-14 * scale
    c, s = _direct(n, npts)
    want = cos @ c + (0.0 if sin is None else sin @ s)
    assert np.max(np.abs(table - want)) <= 1e-13 * scale
    assert np.array_equal(sp.grid_values(cos, sin, npts),
                          table if n * npts <= sp.TABLE_MAX_SIZE else fft)


@pytest.mark.parametrize("n, npts", DISPATCH_SIZES)
@pytest.mark.parametrize("k", [1, 4, 9])
def test_grid_coefficients_by_table_and_by_fft(monkeypatch, n, npts, k):
    # the cosine coefficients of grid values, by the transform's
    # coefficients on each side
    rng = np.random.default_rng(7 * n + npts + k)
    vals = rng.standard_normal((k, npts))
    table, fft = _both_branches(
        monkeypatch, lambda: sp.transform(n, npts)[1](vals))
    scale = 2.0 * np.max(np.abs(vals))
    c, _ = _direct(n, npts)
    assert table.shape == fft.shape == (k, n)
    assert np.max(np.abs(table - fft)) <= 1e-14 * scale
    assert np.max(np.abs(table - (2.0 / npts) * vals @ c.T)) <= 1e-13 * scale
    assert np.array_equal(sp.transform(n, npts)[1](vals),
                          table if n * npts <= sp.TABLE_MAX_SIZE else fft)


@pytest.mark.parametrize("n, npts", DISPATCH_SIZES)
@pytest.mark.parametrize("rows", [1, 4, 9])
@pytest.mark.parametrize("sine", [True, False])
def test_even_odd_grid_values_by_table_and_by_fft(monkeypatch, n, npts,
                                                  rows, sine):
    # `rows` even series over rows // 2 odd ones, or none, padded
    rng = np.random.default_rng(3 * n + npts + rows)
    odd = rows // 2 if sine else 0
    cos = rng.standard_normal((rows - odd, n))
    sin = rng.standard_normal((odd, n))
    table, fft = _both_branches(monkeypatch, sp.grid_values,
                                *_padded(cos, sin), npts)
    assert table.shape == (rows, npts)
    scale = np.max(np.sum(np.abs(np.concatenate((cos, sin))), axis=1))
    assert np.max(np.abs(table - fft)) <= 1e-14 * scale
    c, s = _direct(n, npts)
    assert np.max(np.abs(table - np.concatenate((cos @ c, sin @ s)))) \
        <= 1e-13 * scale


@pytest.mark.parametrize("n", [64, 65])  # 4N points: at and above 2^14
@pytest.mark.parametrize("k", [1, 4, 9])
def test_squares_by_table_and_by_fft(monkeypatch, n, k):
    # the cosine coefficients of the squares of full-parity (p = 2) and
    # of even (p = 1) series, squared between the two functions of each
    # side's pair; p = 1 bit for bit as the grid round trip of that side
    rng = np.random.default_rng(11 * n + k)
    npts = sp.PRODUCT_GRID_FACTOR * n
    c, s = _direct(n, npts)
    for p in (2, 1):
        x = rng.standard_normal((p, k, n))
        table, fft = _both_branches(monkeypatch, lambda: _squared(
            *sp.transform(n, npts)[:2], np.concatenate(x, axis=1)))
        scale = np.max(np.sum(np.abs(x), axis=(0, 2))) ** 2
        assert table.shape == fft.shape == (k, n)
        assert np.max(np.abs(table - fft)) <= 1e-14 * scale
        vals = x[0] @ c + (x[1] @ s if p == 2 else 0.0)
        want = (2.0 / npts) * vals ** 2 @ c.T
        assert np.max(np.abs(table - want)) <= 1e-13 * scale
    trips = _both_branches(monkeypatch, lambda: sp.transform(n, npts)[1](
        sp.grid_values(x[0], None, npts) ** 2))
    assert np.array_equal(table, trips[0])
    assert np.array_equal(fft, trips[1])


def test_trig_tables_are_cached_and_read_only():
    # the pair, with its tables, is made once per (count, npts) in a
    # bounded cache; the tables are read-only
    _forget_pairs()
    cos = np.ones((2, 16))
    first = sp.grid_values(cos, cos, 64)
    assert np.max(np.abs(sp.transform(16, 64)[1](first) - cos)) < 1e-14
    info = sp.transform.cache_info()
    assert (info.misses, info.hits) == (1, 1) and info.maxsize is not None
    values, coefficients, derivative = sp.transform(16, 64)
    stacked = inspect.getclosurevars(values).nonlocals["stacked"]
    cosine_t = inspect.getclosurevars(coefficients).nonlocals["cosine_t"]
    slope = inspect.getclosurevars(derivative).nonlocals["slope"]
    assert stacked.shape == (32, 64) and cosine_t.shape == (64, 16)
    assert slope.shape == (64, 32)
    for table in (stacked, cosine_t, slope):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 2.0
    assert sp.transform(16, 64)[0] is values
    assert sp.transform(16, 64)[1] is coefficients
    assert sp.transform(16, 64)[2] is derivative
    assert sp.transform.cache_info().misses == 1


@pytest.mark.parametrize("count, npts", [(1, 3), (1, 4), (8, 33), (16, 64),
                                         (17, 68), (64, 256), (32, 512)])
def test_tables_are_read_only_at_64_byte_boundaries(count, npts):
    # the cached tables of a table grid (N M <= 2^14) that the three
    # functions read are read-only and start at a 64-byte boundary, so
    # that where the allocator put them does not set the speed of their
    # products; coefficients reads the cosine columns of the forward table
    assert count * npts <= sp.TABLE_MAX_SIZE
    values, coefficients, derivative = sp.transform(count, npts)
    for f, name, size in ((values, "stacked", 2),
                          (coefficients, "cosine_t", 1),
                          (derivative, "slope", 2)):
        table = inspect.getclosurevars(f).nonlocals[name]
        assert table.size == size * count * npts
        assert not table.flags.writeable
        assert table.ctypes.data % 64 == 0


@pytest.mark.parametrize("count", [1, 16, 17, 64])
def test_derivative_of_the_identity_is_the_table(count):
    # the derivative of the identity on the grid is the derivative table:
    # row p, the dx of the values 1 at point p, is (2/npts) j sin(j x_p)
    # over -(2/npts) j cos(j x_p); its sine columns are the p = 1 map's,
    # and a product with it, in a fresh array, is the derivative bit for
    # bit, as oracle.identity_product_stage forms it
    npts = sp.PRODUCT_GRID_FACTOR * count
    derivative = sp.transform(count, npts)[2]
    eye = np.eye(npts)
    table = derivative(eye, 2)
    j = np.arange(1, count + 1)
    angle = 2.0 * np.pi * np.outer(np.arange(npts), j) / npts
    want = (2.0 / npts) * np.concatenate((j * np.sin(angle),
                                          -j * np.cos(angle)), axis=1)
    assert table.shape == (npts, 2 * count)
    assert np.max(np.abs(table - want)) <= 1e-14 * count
    assert np.array_equal(derivative(eye, 1), table[:, count:])
    vals = np.random.default_rng(count).standard_normal((3, npts))
    for p in (2, 1):
        assert np.array_equal(derivative(vals, p),
                              vals @ table[:, (2 - p) * count:])


@pytest.mark.parametrize("count", [17, 64])
@pytest.mark.parametrize("k", [2, 4])
def test_derivative_by_table_and_by_fft(monkeypatch, count, k):
    # dx of grid values in reduced wavenumbers, cosine then sine rows
    # (p = 2) or the sine ones alone (p = 1): each side, forced, against
    # the other and against dx of the values' own coefficients, and p = 1
    # the sine half of p = 2
    rng = np.random.default_rng(5 * count + k)
    npts = sp.PRODUCT_GRID_FACTOR * count
    j = np.arange(1, count + 1)
    vals = rng.standard_normal((k, npts))
    scale = count * np.max(np.sum(np.abs(vals), axis=1)) * 2.0 / npts
    cos, sin = fft_coefficients(vals, count)
    want = np.concatenate((j * sin, -j * cos), axis=1)
    sides = {}
    for size in (BY_TABLE, BY_FFT):
        _choose_side(monkeypatch, size)
        derivative = sp.transform(count, npts)[2]
        two, one = derivative(vals, 2), derivative(vals, 1)
        assert two.shape == (k, 2 * count) and one.shape == (k, count)
        assert np.array_equal(one, derivative(vals, 1))
        assert np.max(np.abs(one - two[:, count:])) <= 1e-13 * scale
        assert np.max(np.abs(two - want)) <= 1e-13 * scale
        sides[size] = two, one
    for table, fft in zip(sides[BY_TABLE], sides[BY_FFT]):
        assert np.max(np.abs(table - fft)) <= 1e-13 * scale


def test_norm_values_and_properties():
    f = TrigSeries.from_cos(5, [1.0])
    assert norm(f, NormParams(1.0, 0.5)) == pytest.approx(np.exp(0.5))
    assert norm(zeros(5, 4), NormParams()) == 0.0

    rng = np.random.default_rng(2)
    g = random_series(rng, count=12)
    p = NormParams(1.5, 0.2)
    assert norm(scale(2.0, g), p) == pytest.approx(2.0 * norm(g, p))
    # monotone in both indices
    assert norm(g, NormParams(2.0, 0.2)) >= norm(g, p)
    assert norm(g, NormParams(1.5, 0.4)) >= norm(g, p)
    # triangle inequality on random pairs
    for _ in range(10):
        u = random_series(rng, count=12)
        v = random_series(rng, count=12)
        assert norm(add(u, v), p) <= norm(u, p) + norm(v, p) + 1e-12


def test_shift_special_cases():
    f = TrigSeries.from_cos(2, [1.0, 0.5, -0.25])
    half = sp.shift(f, np.pi / 2)  # half fold period
    assert half.parity == EVEN
    assert np.array_equal(half.cos, [-1.0, 0.5, 0.25])

    same = sp.shift(f, 0.0)
    assert np.array_equal(same.cos, f.cos)

    two_m = TrigSeries.from_cos(2, [0.0, 1.0])
    assert np.array_equal(sp.shift(two_m, np.pi / 2).cos, [0.0, 1.0])


def test_shift_matches_evaluation():
    rng = np.random.default_rng(9)
    f = random_series(rng, fold=1, count=7)
    h = 0.731
    x = np.linspace(0.0, 2.0 * np.pi, 257, endpoint=False)
    assert np.max(np.abs(sp.shift(f, h).eval(x) - f.eval(x + h))) < 1e-12


def test_series_validation():
    with pytest.raises(ValueError):
        TrigSeries(2, [1.0], [1.0], EVEN)
    with pytest.raises(ValueError):
        TrigSeries(2, [np.nan], [0.0])
    with pytest.raises(ValueError):
        TrigSeries(0, [1.0], [0.0])
    f = TrigSeries.from_cos(2, [1.0])
    with pytest.raises(AttributeError):
        f.fold = 3


def test_json_roundtrip():
    rng = np.random.default_rng(4)
    cos = rng.standard_normal((4, 5))
    objs = sp.series_json(3, cos)
    assert [list(obj) for obj in objs] == [
        ["fold", "count", "parity", "cos", "sin"]] * 4
    assert all(obj["parity"] == EVEN and obj["count"] == 5
               and obj["sin"] == [0.0] * 5 for obj in objs)
    fold, back = sp.series_from_json(json.loads(json.dumps(objs)))
    assert fold == 3 and np.array_equal(back, cos)


def _even_objs(count=2):
    return [{"fold": 2, "count": count, "parity": EVEN,
             "cos": [0.5 * (i + 1)] + [0.0] * (count - 1),
             "sin": [0.0] * count} for i in range(4)]


def test_series_from_json_reads_even_components():
    fold, cos = sp.series_from_json(_even_objs(3))
    assert fold == 2 and isinstance(fold, int)
    assert np.array_equal(cos, [[0.5, 0, 0], [1.0, 0, 0], [1.5, 0, 0],
                                [2.0, 0, 0]])
    # an integral float fold is that integer; the count key is not read
    objs = _even_objs(3)
    for obj in objs:
        obj.update(fold=2.0, count=7)
    assert sp.series_from_json(objs)[0] == 2


@pytest.mark.parametrize("index, change, message", [
    (0, {"fold": float("inf")}, "fold must be a positive integer"),
    (0, {"fold": float("nan")}, "fold must be a positive integer"),
    (1, {"fold": 1.5}, "fold must be a positive integer"),
    (2, {"fold": 0}, "fold must be a positive integer"),
    (3, {"fold": "2"}, "fold must be a positive integer"),
    (3, {"fold": True}, "fold must be a positive integer"),
    (0, {"parity": "cosine"}, "unknown parity 'cosine'"),
    (1, {"sin": [0.0, 0.1]}, "even series must have zero sine"),
    (1, {"parity": ODD}, "odd series must have zero cosine"),
    (2, {"parity": FULL}, "components must be even-cosine"),
    (2, {"cos": [[0.1, 0.0]]}, "1d arrays of equal length"),
    (2, {"sin": [0.0]}, "1d arrays of equal length"),
    (3, {"cos": [0.1, float("nan")]}, "non-finite coefficients"),
    (3, {"cos": [float("inf"), 0.0]}, "non-finite coefficients"),
    (0, {"fold": 3}, "components must share fold and truncation"),
    (0, {"cos": [0.1], "sin": [0.0]},
     "components must share fold and truncation"),
])
def test_series_from_json_refuses_malformed_fields(index, change, message):
    objs = _even_objs()
    objs[index] = dict(objs[index], **change)
    with pytest.raises(ValueError, match=message):
        sp.series_from_json(objs)


def test_series_from_json_needs_a_harmonic_and_every_key():
    empty = [dict(obj, count=0, cos=[], sin=[]) for obj in _even_objs()]
    with pytest.raises(ValueError, match="no harmonics"):
        sp.series_from_json(empty)
    objs = _even_objs()
    del objs[2]["sin"]
    with pytest.raises(KeyError, match="sin"):
        sp.series_from_json(objs)
