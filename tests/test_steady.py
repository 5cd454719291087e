import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from layerwaves import continuation as ct
from layerwaves import dynamics as dy
from layerwaves import localbranch as lb
from layerwaves import pencil as pc
from layerwaves import spectral as sp
from layerwaves import steady as st
from layerwaves.spectral import TrigSeries

from oracle import (add, antideriv, block_jacobian, column_offset_tendency,
                    from_sin, from_vector, identity_product_stage,
                    mode_matrix, norm, scale, sub, two_step_linearization,
                    with_count, zeros)

SQRT5 = float(np.sqrt(5.0))


def random_state(rng, fold=2, count=10, scale=0.1):
    return from_vector(
        fold, count, scale * rng.standard_normal(4 * count))


def linearization(cfg, c, state):
    """(matvec, precondition) of the four rows at a state: the
    preconditioner is the first output of Layout.linearization's
    preconditioned."""
    matvec, preconditioned = st.Layout(
        cfg, state.fold, state.count).linearization(c, state.cos)
    return matvec, lambda g: preconditioned(g)[0]


def charge_difference(state):
    s = state.series
    return add(sub(sub(s[1], s[0]), s[3]), s[2])


def direct_residual(cfg, c, state):
    """Residual by exact convolution of series (test oracle): four odd
    series."""
    a = cfg.as_array()
    pot = antideriv(charge_difference(state))
    out = []
    for i, r in enumerate(state.series):
        dr = sp.deriv(r)
        quad = sp.multiply(r, dr)
        out.append(add(add(quad, scale(a[i] - c, dr)),
                       scale(-pc.SPECIES[i], pot)))
    return out


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


def direct_jacobian(cfg, c, state):
    """Jacobian from product-to-sum gathers per block (test oracle)."""
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
            J[i * n + idx, l * n + idx] += (-pc.SPECIES[i] * pc.CHARGE[l]
                                            * inv_w)
    return J


def loop_jacobian(cfg, c, state):
    """Jacobian of the four rows block by block (oracle.block_jacobian)."""
    return block_jacobian(cfg, state.fold, c, state.cos)


def full_band_state(rng, fold, count):
    """Random state with O(1) coefficients on every harmonic."""
    return from_vector(fold, count,
                                         rng.uniform(-1, 1, 4 * count))


def test_flat_state_is_trivial_solution():
    rng = np.random.default_rng(0)
    for _ in range(5):
        lo1, lo2 = rng.uniform(-2, 2, 2)
        w = rng.uniform(0.3, 1.5)
        cfg = pc.classify_config([lo1, lo1 + w, lo2, lo2 + w])
        c = rng.uniform(-4, 4)
        z = st.InterfaceState.zero(3, 8)
        assert np.max(np.abs(st.residual_vector(cfg, c, z))) == 0.0


def test_residual_parity_and_grid_oracle(gen_cfg):
    # output parity is odd, and the untruncated residual matches the
    # defining formula evaluated pointwise on a grid
    rng = np.random.default_rng(1)
    state = random_state(rng, fold=2, count=6)
    c = 0.8
    a = gen_cfg.as_array()
    out = st.residual(gen_cfg, c, state)
    assert out.shape == (4, 6)

    x = np.linspace(-np.pi, np.pi, 401)
    pot = antideriv(charge_difference(state))
    for i in range(4):
        exact = ((state.series[i].eval(x) + a[i] - c)
                 * sp.deriv(state.series[i]).eval(x)
                 - pc.SPECIES[i] * pot.eval(x))
        full = add(add(sp.multiply(state.series[i], sp.deriv(state.series[i]),
                                   out_count=12),
                       scale(a[i] - c,
                             with_count(sp.deriv(state.series[i]), 12))),
                   scale(-pc.SPECIES[i], with_count(pot, 12)))
        assert np.max(np.abs(full.eval(x) - exact)) < 1e-12
        # the residual's own sine coefficients, completed by the discarded
        # harmonics, give the odd defining formula on both sides of x = 0
        own = from_sin(2, np.concatenate([out[i], full.sin[6:]]))
        assert np.max(np.abs(own.eval(x) - exact)) < 1e-12
        # Galerkin: the first harmonics of the untruncated residual (a
        # grid round trip meets the convolution to round-off, not
        # bitwise), of the size of its largest terms, w (a - c) r
        terms = np.max(np.abs(state.wavenumbers() * (abs(a[i]) + abs(c))
                              * state.cos[i])) + np.max(np.abs(full.sin[:6]))
        assert np.max(np.abs(out[i] - full.sin[:6])) < 1e-15 * terms


def test_linearization_matches_mode_matrices(gen_cfg):
    # the residual is quadratic, so a central difference is exact: it
    # must reproduce the Fourier multiplier -(1/(j m)) M_{j m}
    rng = np.random.default_rng(2)
    m, n = 3, 5
    c = 1.3
    h = random_state(rng, fold=m, count=n, scale=1.0)
    eps = 1e-7
    plus = st.residual_vector(gen_cfg, c, from_vector(
        m, n, eps * h.as_vector()))
    minus = st.residual_vector(gen_cfg, c, from_vector(
        m, n, -eps * h.as_vector()))
    lin = (plus - minus) / (2 * eps)
    hv = h.as_vector().reshape(4, n)
    expect = np.zeros((4, n))
    for j in range(1, n + 1):
        M = mode_matrix(j * m, gen_cfg, c)
        expect[:, j - 1] = -(M @ hv[:, j - 1]) / (j * m)
    assert np.max(np.abs(lin - expect.ravel())) < 1e-6 * max(np.max(np.abs(expect)), 1)


def test_jacobian_at_flat_state_is_multiplier(sym_cfg):
    m, n = 1, 7
    c = 0.37
    J = st.jacobian(sym_cfg, c, st.InterfaceState.zero(m, n))
    for j in range(1, n + 1):
        M = mode_matrix(j * m, sym_cfg, c)
        block = np.array([[J[i * n + j - 1, l * n + j - 1] for l in range(4)]
                          for i in range(4)])
        assert np.max(np.abs(block + M / (j * m))) < 1e-13 * np.max(np.abs(M))
    # off-harmonic entries vanish at the flat state
    mask = np.ones((4 * n, 4 * n), dtype=bool)
    for i in range(4):
        for l in range(4):
            mask[np.arange(n) + i * n, np.arange(n) + l * n] = False
    assert np.max(np.abs(J[mask])) == 0.0


def test_jacobian_matches_directional_derivative(gen_cfg):
    rng = np.random.default_rng(3)
    state = random_state(rng, fold=2, count=12)
    c = 2.1
    h = rng.standard_normal(4 * 12)
    eps = 1e-7
    fp = st.residual_vector(gen_cfg, c, from_vector(
        2, 12, state.as_vector() + eps * h))
    fm = st.residual_vector(gen_cfg, c, from_vector(
        2, 12, state.as_vector() - eps * h))
    fd = (fp - fm) / (2 * eps)
    Jh = st.jacobian(gen_cfg, c, state) @ h
    assert np.max(np.abs(fd - Jh)) < 1e-6 * max(np.max(np.abs(Jh)), 1.0)


def test_jacobian_annihilates_kernel_mode(sym_cfg):
    n = 9
    v = pc.kernel_vector(1, sym_cfg, SQRT5)
    vec = np.zeros(4 * n)
    vec[::n] = v
    J = st.jacobian(sym_cfg, SQRT5, st.InterfaceState.zero(1, n))
    assert np.max(np.abs(J @ vec)) < 1e-14


def test_jacobian_rank_deficiency_at_onset(sym_cfg):
    n = 8
    J = st.jacobian(sym_cfg, SQRT5, st.InterfaceState.zero(1, n))
    sv = np.linalg.svd(J, compute_uv=False)
    assert sv[-1] < 1e-12 * sv[0]
    assert sv[-2] > 1e-8 * sv[0]


def test_speed_derivative(gen_cfg):
    rng = np.random.default_rng(4)
    z = st.InterfaceState.zero(2, 6)
    assert np.max(np.abs(st.speed_derivative_vector(gen_cfg, 1.0, z))) == 0.0

    v = pc.kernel_vector(2, pc.classify_config([-1, 1, -1, 1]), SQRT5)
    n = 6
    vec = np.zeros(4 * n)
    vec[::n] = v
    state = from_vector(2, n, vec)
    dv = st.speed_derivative_vector(gen_cfg, 0.0, state).reshape(4, n)
    for i in range(4):
        expect = np.zeros(n)
        expect[0] = 2 * v[i]  # -dx(v cos(2x)) = 2 v sin(2x)
        assert np.allclose(dv[i], expect)

    state = random_state(rng, count=9)
    dc = 1e-6
    fd = (st.residual_vector(gen_cfg, 1.0 + dc, state)
          - st.residual_vector(gen_cfg, 1.0 - dc, state)) / (2 * dc)
    exact = st.speed_derivative_vector(gen_cfg, 1.0, state)
    assert np.max(np.abs(fd - exact)) < 1e-8 * max(np.max(np.abs(exact)), 1.0)


def test_monitors_flat_and_shift_invariance(sym_cfg):
    z = st.InterfaceState.zero(1, 8)
    gap, slip = st.monitors(sym_cfg, SQRT5, z)
    assert gap == pytest.approx(2.0)
    assert slip == pytest.approx(SQRT5 - 1.0)

    rng = np.random.default_rng(5)
    state = random_state(rng, fold=1, count=8, scale=0.05)
    m_orig = st.monitors(sym_cfg, 1.9, state)
    m_shift = st.monitors(sym_cfg, 1.9, state.shifted(np.pi))
    assert m_orig == pytest.approx(m_shift, abs=1e-12)


def direct_monitors(cfg, c, state):
    """Monitors with every grid value from TrigSeries.eval (test oracle)."""
    x = np.linspace(0.0, 2.0 * np.pi / state.fold,
                    st.MONITOR_GRID_FACTOR * state.count, endpoint=False)

    def min_abs(series, offset):
        vals = series.eval(x) + offset
        idx = int(np.argmin(np.abs(vals)))
        best = abs(vals[idx])
        ds = sp.deriv(series)
        dvals = ds.eval(x)
        if np.min(vals) < 0.0 < np.max(vals):
            step = vals[idx] / dvals[idx] if dvals[idx] != 0.0 else None
        else:
            d2 = sp.deriv(ds).eval([x[idx]])[0]
            step = dvals[idx] / d2 if d2 != 0.0 else None
        if step is not None:
            best = min(best, abs(series.eval([x[idx] - step])[0] + offset))
        return best

    s = state.series
    a = cfg.as_array()
    gap = min(min_abs(sub(s[1], s[0]), cfg.width),
              min_abs(sub(s[3], s[2]), cfg.width))
    slip = min(min_abs(s[i], a[i] - c) for i in range(4))
    return gap, slip


def loop_monitors(cfg, c, state):
    """Monitors one series at a time from the same grid values and
    direct sums as steady.monitors (test oracle for its bits)."""
    n, u = state.count, state.cos
    npts = st.MONITOR_GRID_FACTOR * n
    x = np.linspace(0.0, 2.0 * np.pi / state.fold, npts, endpoint=False)
    w = state.wavenumbers()
    rows = np.concatenate(([u[1] - u[0], u[3] - u[2]], u))
    offsets = np.concatenate([[cfg.width, cfg.width], cfg.as_array() - c])
    vals = sp.grid_values(rows, None, npts) + offsets[:, None]

    def min_abs(i):
        v = vals[i]
        idx = int(np.argmin(np.abs(v)))
        best = abs(v[idx])
        dv = np.sin(w * x[idx]) @ (-w * rows[i])
        if np.min(v) < 0.0 < np.max(v):
            step = v[idx] / dv if dv != 0.0 else None
        else:
            d2 = np.cos(w * x[idx]) @ (-w * (w * rows[i]))
            step = dv / d2 if d2 != 0.0 else None
        if step is not None:
            x1 = x[idx] - step
            best = min(best, abs(np.cos(w * x1) @ rows[i] + offsets[i]))
        return best

    return (min(min_abs(0), min_abs(1)),
            min(min_abs(i) for i in range(2, 6)))


def test_monitors_match_direct_evaluation(sym_cfg, gen_cfg, sym_branch_pair):
    rng = np.random.default_rng(11)
    cases = [(gen_cfg, 1.7, random_state(rng, fold, count, scale))
             for fold, count, scale in ((1, 8, 0.05), (2, 16, 0.3),
                                        (3, 64, 0.01), (1, 256, 0.002))]
    # branch states of growing amplitude along both arms
    for arm in sym_branch_pair:
        cases += [(sym_cfg, p.solution.c, p.solution.state)
                  for p in arm.points[::8]]
    # a flat state (every derivative vanishes, so no Newton polish) and
    # one flat component next to three curved ones
    flat = np.zeros((4, 16))
    flat[1:] = 0.05 * rng.standard_normal((3, 16))
    cases += [(gen_cfg, 1.7, st.InterfaceState.zero(2, 16)),
              (gen_cfg, 1.7, st.InterfaceState.from_arrays(2, flat))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg, c, state in cases:
            got = st.monitors(cfg, c, state)
            assert got == loop_monitors(cfg, c, state)
            want = direct_monitors(cfg, c, state)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_monitor_grid_resolves_narrow_dip(sym_cfg):
    # a profile whose minimum gap sits between grid points
    n = 8
    coeffs = np.zeros(n)
    coeffs[n - 1] = 0.4 / n
    upper = sp.TrigSeries.from_cos(1, -coeffs)
    state = st.InterfaceState([zeros(1, n, "even-cosine"),
                               upper,
                               zeros(1, n, "even-cosine"),
                               zeros(1, n, "even-cosine")])
    gap, _ = st.monitors(sym_cfg, 0.0, state)
    x = np.linspace(0, 2 * np.pi, 100001)
    brute = np.min(np.abs(upper.eval(x) + 2.0))
    assert gap == pytest.approx(brute, abs=1e-10)


def test_residual_translation_equivariance(sym_cfg):
    rng = np.random.default_rng(6)
    state = random_state(rng, fold=2, count=7, scale=0.2)
    c = 1.1
    h = np.pi / 2  # half period of the fold
    left = st.residual(sym_cfg, c, state.shifted(h))
    right = [sp.shift(from_sin(2, f), h)
             for f in st.residual(sym_cfg, c, state)]
    for a, b in zip(left, right):
        assert np.max(np.abs(a - b.sin)) < 1e-14


# The species swap sigma exchanges plus_i and minus_i.  It flips SPECIES
# and CHARGE, so it maps the steady and evolution equations of a
# symmetric layer (a_+ = a_-) to themselves, and those of no other layer.
SWAP = [2, 3, 0, 1]
SWAP_LAYERS = [((-1.0, 1.0, -1.0, 1.0), True), ((0.5, 2.0, 0.5, 2.0), True),
               ((0.0, 1.0, 2.5, 3.5), False), ((0.0, 1.0, 1.0, 2.0), False)]


@pytest.mark.parametrize("a, commutes", SWAP_LAYERS)
def test_species_swap_commutes_on_symmetric_layers(a, commutes):
    cfg = pc.classify_config(a)
    rng = np.random.default_rng(5)
    c = 1.3
    res_dev = jac_dev = rhs_dev = 0.0
    for fold in (1, 2, 3):
        for n in (1, 16, 64):
            u, v = 0.2 * rng.uniform(-1, 1, (2, 4, n))
            state = st.InterfaceState.from_arrays(fold, u)
            swapped = st.InterfaceState.from_arrays(fold, u[SWAP])
            res = st.residual(cfg, c, state)
            dev = st.residual(cfg, c, swapped) - res[SWAP]
            res_dev = max(res_dev, np.max(np.abs(dev)) / np.max(np.abs(res)))
            perm = np.arange(4 * n).reshape(4, n)[SWAP].ravel()
            jac = st.jacobian(cfg, c, state)
            dev = st.jacobian(cfg, c, swapped) - jac[np.ix_(perm, perm)]
            jac_dev = max(jac_dev, np.max(np.abs(dev)) / np.max(np.abs(jac)))
            f = dy.rhs(cfg, dy.PhaseState.from_arrays(fold, u, v))
            g = dy.rhs(cfg, dy.PhaseState.from_arrays(fold, u[SWAP], v[SWAP]))
            dev = np.concatenate((g.cos - f.cos[SWAP], g.sin - f.sin[SWAP]))
            rhs_dev = max(rhs_dev, np.max(np.abs(dev)) / f.max_abs())
    if commutes:
        assert max(res_dev, jac_dev, rhs_dev) <= 1e-14
    else:
        assert min(res_dev, jac_dev, rhs_dev) > 0.1


def test_symmetric_arm_is_fixed_by_the_swap_and_half_shift(
        sym_expansion, branch_options, monkeypatch):
    # sigma maps the + arm to itself composed with the half-period shift:
    # r_minus_i = T r_plus_i, T = (-1)^j on reduced harmonic j.  Newton
    # imposes that on symmetric layers, so the arm is traced on all four
    # rows here, where nothing but the equations keeps it there.
    monkeypatch.setattr(st, "on_fixed_space", lambda cfg, *cos: False)
    plus = ct.trace_arm(sym_expansion, +1, branch_options)
    for point in plus.points:
        u = point.solution.state.cos
        t = (-1.0) ** np.arange(1, u.shape[1] + 1)
        assert np.max(np.abs(u[2:] - t * u[:2])) <= 1e-13 * np.max(np.abs(u))


@pytest.mark.parametrize("a", [(-1.0, 1.0, -1.0, 1.0), (0.5, 2.0, 0.5, 2.0)])
def test_plus_rows_match_the_four_rows_on_the_fixed_space(a):
    # on a state r_minus_i = T r_plus_i the residual, the Jacobian and the
    # preconditioner of the two plus rows are the plus rows of the
    # four-row ones, whose minus rows are T times them
    cfg = pc.classify_config(a)
    rng = np.random.default_rng(8)
    c = 1.3 if a[0] > 0 else 0.0
    for fold in (1, 2, 3):
        for n in (1, 16, 64, 256):
            plus = st.Layout(cfg, fold, n, symmetric=True)
            full = st.Layout(cfg, fold, n)
            t = st.half_shift(n)
            decay = np.exp(-0.3 * np.arange(n))
            p, h, g = rng.uniform(-1, 1, (3, 2, n)) * decay
            p *= 0.1

            def embed(x):
                return np.concatenate([x, t * x])

            want = full.residual(c, embed(p))
            got = plus.residual(c, p)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(embed(got) - want)) <= 1e-13 * scale
            # the c column: the residual is affine in c
            dc = (plus.residual(c + 0.5, p) - plus.residual(c - 0.5, p))
            want = st.speed_derivative_vector(
                cfg, c, st.InterfaceState.from_arrays(fold, embed(p)))
            assert np.max(np.abs(dc - want[:2 * n].reshape(2, n))) \
                <= 1e-13 * np.max(np.abs(want))
            mv_full, pc_full = full.linearization(c, embed(p))
            mv_plus, pc_plus = plus.linearization(c, p)
            for got, want in zip((mv_plus(h), *pc_plus(g)),
                                 (mv_full(embed(h)), *pc_full(embed(g)))):
                scale = np.max(np.abs(want))
                assert np.max(np.abs(embed(got) - want)) <= 1e-13 * scale
            jac = full.jacobian(c, embed(p))
            want = jac[:2 * n, :2 * n] + jac[:2 * n, 2 * n:] * np.tile(t, 2)
            got = plus.jacobian(c, p)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(jac))
            # the carried rows keep the four rows' inner products
            u, v = (plus.stack(0.5, embed(x)) for x in (p, h))
            assert u @ v == pytest.approx(
                0.25 + np.sum(embed(p) * embed(h)), rel=1e-13)
            assert np.max(np.abs(plus.embed(plus.unstack(u)[1])
                                 - embed(p))) <= 1e-15 * np.max(np.abs(p))


@pytest.mark.parametrize("count", [16, 64, 128])  # tables, then FFT
@pytest.mark.parametrize("fold", [1, 3])
@pytest.mark.parametrize("symmetric", [True, False], ids=["k2", "k4"])
def test_stage_is_the_step_times_the_tendency(sym_cfg, gen_cfg, symmetric,
                                              fold, count):
    # the step scales the derivative's output (tables at counts 16 and
    # 64, FFTs at 128) and the coupling table: h times the unscaled stage,
    # and on an even state h times the tendency in its sine half, with
    # round-off in its cosine half
    layout = st.Layout(sym_cfg if symmetric else gen_cfg, fold, count,
                       symmetric)
    rng = np.random.default_rng(10 * fold + count + symmetric)
    for h in (1.7e-3, 0.37):
        stage = layout.stage(h)
        for _ in range(3):
            x = 0.3 * rng.standard_normal((layout.k, 2 * count))
            want = h * layout.stage(1.0)(x)
            got = stage(x)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            cos = x[:, :count]
            want = h * layout.tendency(cos)
            got = stage(np.concatenate((cos, np.zeros_like(cos)), axis=1))
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got[:, count:] - want)) <= 1e-14 * scale
            assert np.max(np.abs(got[:, :count])) <= 1e-14 * scale


@pytest.mark.parametrize("count", [16, 64, 128])  # tables, then FFT
@pytest.mark.parametrize("fold", [1, 3])
@pytest.mark.parametrize("symmetric", [True, False], ids=["k2", "k4"])
def test_stage_keeps_the_identity_product_bits(sym_cfg, gen_cfg, monkeypatch,
                                               symmetric, fold, count):
    # the stage reads spectral.transform's aligned derivative table, entry
    # for entry the derivative of the (M, M) identity, and scales its
    # output by h (-fold/2), so it keeps the bits of that construction in
    # a fresh table; making a stage forms no identity
    layout = st.Layout(sym_cfg if symmetric else gen_cfg, fold, count,
                       symmetric)
    rng = np.random.default_rng(30 * fold + count + symmetric)
    eyes, eye = [], np.eye
    for h in (1.7e-3, 0.37, 1.0):
        with monkeypatch.context() as patch:
            patch.setattr(np, "eye", lambda *a, **kw: eyes.append(a)
                          or eye(*a, **kw))
            stage = layout.stage(h)
        want = identity_product_stage(layout, h)
        for _ in range(3):
            x = 0.3 * rng.standard_normal((layout.k, 2 * count))
            assert np.array_equal(stage(x), want(x))
    assert eyes == []


@pytest.mark.parametrize("symmetric", [True, False], ids=["k2", "k4"])
def test_making_a_stage_makes_no_table(sym_cfg, gen_cfg, symmetric):
    # at N = 64 on 256 points (N M = 2^14, a table grid) making a stage
    # allocates its (k, 2N) coupling table and a sine-first index, not a
    # copy of the transform's cached (256, 128) derivative table, 256 KiB
    layout = st.Layout(sym_cfg if symmetric else gen_cfg, 1, 64, symmetric)
    tracemalloc.start()
    try:
        layout.stage(0.37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("count", [16, 64, 128, 256])  # tables, then FFT
@pytest.mark.parametrize("fold", [1, 3])
@pytest.mark.parametrize("symmetric", [True, False], ids=["k2", "k4"])
def test_full_shape_offset_keeps_the_tendency_bits(sym_cfg, gen_cfg,
                                                   symmetric, fold, count):
    # Newton's residual (tendency, p = 1) and rhs (stage(1.0), p = 2)
    # keep the bits of the (k, 1) offset column, which numpy broadcast
    # more slowly
    layout = st.Layout(sym_cfg if symmetric else gen_cfg, fold, count,
                       symmetric)
    rng = np.random.default_rng(20 * fold + count + symmetric)
    for p in (1, 2, 1):
        x = 0.3 * rng.standard_normal((layout.k, p * count))
        if p == 1:
            got, want = layout.tendency(x), column_offset_tendency(layout, x)
        else:
            got = layout.stage(1.0)(x)
            want = identity_product_stage(layout, 1.0)(x)
        assert np.array_equal(got, want)


GENERIC_LAYER = (0.281, 1.714, -0.635, 0.798)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(h=st_.floats(-8.0, 8.0), c=st_.floats(-3.0, 3.0),
       seed=st_.integers(0, 2 ** 32 - 1))
def test_residual_and_speeds_obey_the_two_exact_symmetries(h, c, seed):
    # Galilean: R(a + h, c + h, r) = R(a, c, r), and so the Jacobian;
    # scaling: R(4a + h, 4c + h, 4r; fold 1) = 8 R(a, c, r; fold 2), the
    # Jacobian doubled, and the speeds of mode 1 on 4a + h are 4 times
    # those of mode 2 on a, plus h.  Each to 1e-12 of its scale, with
    # s = 1 + |a| + |c| + |h|: s w |r| for a residual entry, s w for a
    # Jacobian entry and s for a speed, times the identity's factor.  rhs
    # is left out: a frame change adds -h dx r to it
    a = np.array(GENERIC_LAYER)
    cfg = pc.classify_config(a)
    state = random_state(np.random.default_rng(seed), fold=2, count=16,
                         scale=0.05)
    size = 1.0 + np.max(np.abs(a)) + abs(c) + abs(h)
    res_scale = size * np.max(state.wavenumbers()) * state.max_abs()
    jac_scale = size * np.max(state.wavenumbers())
    res, jac = st.residual(cfg, c, state), st.jacobian(cfg, c, state)
    moved = pc.classify_config(a + h)
    assert np.max(np.abs(st.residual(moved, c + h, state) - res)) \
        <= 1e-12 * res_scale
    assert np.max(np.abs(st.jacobian(moved, c + h, state) - jac)) \
        <= 1e-12 * jac_scale
    scaled = pc.classify_config(4.0 * a + h)
    wide = st.InterfaceState.from_arrays(1, 4.0 * state.cos)
    assert np.max(np.abs(st.residual(scaled, 4.0 * c + h, wide) - 8.0 * res)) \
        <= 1e-12 * 8.0 * res_scale
    assert np.max(np.abs(st.jacobian(scaled, 4.0 * c + h, wide) - 2.0 * jac)) \
        <= 1e-12 * 2.0 * jac_scale
    got = pc.bifurcation_speeds(1, scaled).admissible()
    want = [4.0 * s + h for s in pc.bifurcation_speeds(2, cfg).admissible()]
    assert len(got) == len(want) == 4
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * 4.0 * size


def test_wave_solution_json_roundtrip(sym_cfg):
    rng = np.random.default_rng(7)
    state = random_state(rng, fold=1, count=5, scale=0.02)
    sol = st.solution_at(sym_cfg, 2.0, state)
    obj = sol.to_json()
    assert obj["m"] == 1 and obj["N"] == 5
    assert set(obj["series"]) == set(st.COMPONENT_NAMES)
    state2 = st.InterfaceState.from_json(
        [obj["series"][k] for k in st.COMPONENT_NAMES])
    assert np.array_equal(state2.as_vector(), state.as_vector())


def test_interface_component_json_layout():
    cos = np.array([[0.5, -0.25], [1.0, 0.0], [0.0, 0.125], [-2.0, 3.0]])
    objs = st.InterfaceState.from_arrays(3, cos).to_json()
    assert objs[0] == {"fold": 3, "count": 2, "parity": "even-cosine",
                       "cos": [0.5, -0.25], "sin": [0.0, 0.0]}
    assert [list(obj) for obj in objs] == [
        ["fold", "count", "parity", "cos", "sin"]] * 4
    assert [obj["cos"] for obj in objs] == cos.tolist()


@pytest.mark.parametrize("fold", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 8, 17, 64, 256])
def test_residual_matches_direct_convolution(gen_cfg, fold, count):
    # the products reach harmonic 2N, so harmonics 1..N are exact only if
    # none up to 2N aliases onto them on the grid: full-band coefficients,
    # and a top harmonic alone, whose square is harmonic 2N
    rng = np.random.default_rng(10 * fold + count)
    top = np.zeros((4, count))
    top[:, -1] = rng.uniform(0.5, 1.0, 4)
    for state in (full_band_state(rng, fold, count),
                  from_vector(fold, count, top.ravel())):
        got = st.residual(gen_cfg, 0.7, state)
        want = np.array([f.sin for f in direct_residual(gen_cfg, 0.7, state)])
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        assert np.array_equal(st.residual_vector(gen_cfg, 0.7, state),
                              got.ravel())


@pytest.mark.parametrize("fold", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 8, 17, 64, 256])
def test_jacobian_matches_direct_gathers(gen_cfg, fold, count):
    rng = np.random.default_rng(20 * fold + count)
    state = full_band_state(rng, fold, count)
    want = direct_jacobian(gen_cfg, 1.9, state)
    got = st.jacobian(gen_cfg, 1.9, state)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("fold", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 8, 17, 64, 256])
def test_jacobian_equals_block_loop_bitwise(gen_cfg, fold, count):
    # the batched blocks give the bits of the block-by-block loop, in a
    # fresh matrix per call
    rng = np.random.default_rng(50 * fold + count)
    state = full_band_state(rng, fold, count)
    want = loop_jacobian(gen_cfg, 1.9, state)
    got = st.jacobian(gen_cfg, 1.9, state)
    assert np.array_equal(got, want)
    again = st.jacobian(gen_cfg, 1.9, state)
    assert np.array_equal(again, want) and not np.shares_memory(got, again)


@pytest.mark.parametrize("fold", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 8, 17, 64, 256])
def test_fixed_space_jacobian_equals_block_loop_bitwise(sym_cfg, fold, count):
    # the two plus rows of a symmetric layer, whose coupling carries the
    # weight 1 - T; at counts 1 and 2 most Hankel entries lie beyond
    # harmonic N, in the zero padding
    rng = np.random.default_rng(60 * fold + count)
    rows = rng.uniform(-1, 1, (2, count))
    layout = st.Layout.shared(sym_cfg, fold, count, True)
    want = block_jacobian(sym_cfg, fold, 1.9, rows)
    got = layout.jacobian(1.9, rows)
    assert np.array_equal(got, want)
    again = layout.jacobian(1.9, rows)
    assert np.array_equal(again, want) and not np.shares_memory(got, again)


def test_jacobian_index_is_made_once_per_layout(sym_cfg,
                                                jacobian_index_makers):
    rng = np.random.default_rng(61)
    layouts = [st.Layout.shared(sym_cfg, 2, 8, s) for s in (False, True)]
    for _ in range(3):
        for layout in layouts:
            rows = rng.uniform(-1, 1, (layout.k, 8))
            want = block_jacobian(sym_cfg, 2, 0.4, rows)
            assert np.array_equal(layout.jacobian(0.4, rows), want)
    assert jacobian_index_makers == layouts


def test_shared_layout_is_one_per_key(sym_cfg, jacobian_index_makers):
    # however the arguments are spelled, one layout per key: Newton's
    # four-row layout, which alone carries the Jacobian's index tables,
    # is the one residual and rhs use
    layout = st.Layout.shared(sym_cfg, 1, 16)
    assert st.Layout.shared(sym_cfg, 1, 16, False) is layout
    assert st.Layout.shared(sym_cfg, 1, 16, symmetric=False) is layout
    assert st.Layout.shared(sym_cfg, 1, 16, np.False_) is layout
    assert st.Layout.shared(sym_cfg, 1, 16, True) is not layout
    assert st.Layout.shared(sym_cfg, 1, 16, symmetric=True).k == 2
    assert st._shared_layout.cache_info().currsize == 2


@pytest.mark.parametrize("fold", [1, 2])
@pytest.mark.parametrize("a, k", [((0.0, 1.0, 2.5, 3.5), 4),
                                  ((-1.0, 1.0, -1.0, 1.0), 2)],
                         ids=["k4", "k2"])
def test_jacobian_fills_a_bordered_view(a, k, fold, monkeypatch):
    # Newton writes the Jacobian into the bordered matrix it solves with,
    # one matrix per correction, whose couplings between rows are written
    # once: at every dense solve, column 0 is the c column and the last
    # row the tangent of that iterate, and the rest is the Jacobian at
    # it, bit for bit the block-by-block oracle's, no entry left from an
    # earlier iterate.  On two rows the c column is that of the carried
    # rows, sqrt(2) times the rows Newton unstacks, to round-off
    cfg = pc.classify_config(a)
    origin = lb.local_expansion(fold, cfg, pc.bifurcation_speeds(
        fold, cfg).admissible()[0])
    c, state = lb.predictor(origin, 0.2, count=9)
    u0 = np.concatenate([[c], state.as_vector()])
    constraint = ct.ArclengthConstraint(u0 / np.linalg.norm(u0), u0, 0.0)
    iterates, solves = [], []
    jacobian, solve = st.Layout.jacobian, np.linalg.solve

    def spy_jacobian(layout, c, rows, out):
        iterates.append((c, rows.copy(), block_jacobian(cfg, fold, c, rows)))
        return jacobian(layout, c, rows, out)

    def spy_solve(A, b):
        solves.append(A.copy())
        return solve(A, b)

    monkeypatch.setattr(st.Layout, "jacobian", spy_jacobian)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    sol, iters = ct.newton_correct(cfg, u0, constraint, fold, 9)
    assert iters == sol.dense_solves == len(solves) == len(iterates) >= 2
    w = np.tile(fold * np.arange(1.0, 10.0), k)  # N = 9
    scale = np.sqrt(4.0 / k)
    for A, (c, rows, J) in zip(solves, iterates):
        assert rows.shape == (k, 9)
        col = w * (scale * rows).ravel()
        if k == 4:
            assert np.array_equal(A[:-1, 0], col)
        else:
            assert np.max(np.abs(A[:-1, 0] - col)) <= 1e-15 * np.max(
                np.abs(col))
        assert np.array_equal(A[-1], np.concatenate(
            [[constraint.tangent[0]], scale * constraint.tangent[1:k * 9 + 1]]))
        assert np.array_equal(A[:-1, 1:], J)


def test_interface_state_arrays():
    rng = np.random.default_rng(31)
    series = [TrigSeries.from_cos(2, rng.standard_normal(5)) for _ in range(4)]
    state = st.InterfaceState(series)
    assert state.cos.shape == (4, 5) and not state.cos.flags.writeable
    for got, want in zip(state.series, series):
        assert got.parity == sp.EVEN and np.array_equal(got.cos, want.cos)
    assert state.to_json() == [{"fold": s.fold, "count": s.count,
                                "parity": s.parity, "cos": s.cos.tolist(),
                                "sin": s.sin.tolist()} for s in series]
    assert np.array_equal(state.with_count(7).with_count(5).cos, state.cos)
    assert np.array_equal(state.with_count(3).cos, state.cos[:, :3])
    for h in (np.pi / 2, 0.3):  # exact signs, then a generic shift
        want = [sp.shift(s, h).cos for s in series]
        assert np.array_equal(state.shifted(h).cos, want)
    params = sp.NormParams(2.0, 0.1)
    assert state.norm(params) == max(norm(s, params) for s in series)
    with pytest.raises(ValueError, match="even"):
        st.InterfaceState(series[:3] + [zeros(2, 5)])


@pytest.mark.parametrize("fold", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 8, 17, 64, 256])
def test_matvec_matches_jacobian_and_direct_gathers(gen_cfg, fold, count):
    rng = np.random.default_rng(40 * fold + count)
    state = full_band_state(rng, fold, count)
    h = rng.uniform(-1, 1, (4, count))
    matvec, _ = linearization(gen_cfg, 1.9, state)
    got = matvec(h).ravel()
    for J in (st.jacobian(gen_cfg, 1.9, state),
              direct_jacobian(gen_cfg, 1.9, state)):
        want = J @ h.ravel()
        scale = np.max(np.abs(J)) * np.max(np.abs(h))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_linearization_calls_leave_earlier_results_alone(gen_cfg):
    # matvec and precondition share one work array: what they return
    # must not change under later calls, and a repeated call must give
    # the same bits
    rng = np.random.default_rng(42)
    state = from_vector(2, 32,
                                          0.01 * rng.uniform(-1, 1, 128))
    matvec, precondition = linearization(gen_cfg, 1.9, state)
    h, g = rng.uniform(-1, 1, (2, 4, 32))
    first_mv, first_pc = matvec(h), precondition(g)
    kept_mv, kept_pc = first_mv.copy(), first_pc.copy()
    for _ in range(2):
        other = rng.uniform(-1, 1, (4, 32))
        matvec(other)
        precondition(other)
    assert np.array_equal(first_mv, kept_mv)
    assert np.array_equal(first_pc, kept_pc)
    assert np.array_equal(matvec(h), kept_mv)
    assert np.array_equal(precondition(g), kept_pc)


def test_preconditioner_inverts_transport(gen_cfg):
    # without the potential, the linearization is h -> dx(q h); at a flat
    # state q_i = a_i - c is constant and the inverse is exact
    rng = np.random.default_rng(41)
    n, c = 16, 1.9
    w = 2.0 * np.arange(1, n + 1)
    g = rng.uniform(-1, 1, (4, n))
    flat = st.InterfaceState.zero(2, n)
    matvec, precondition = linearization(gen_cfg, c, flat)
    h = precondition(g)
    transport = matvec(h) + pc.SPECIES[:, None] * (pc.CHARGE @ h) / w
    assert np.max(np.abs(transport - g)) <= 1e-14
    # at a smooth state the inverse is exact up to the cut at harmonic N:
    # the defect is the (tiny) projection of dx(q h) beyond the kept band
    state = from_vector(
        2, n, (0.2 * rng.uniform(-1, 1, (4, n))
               * np.exp(-2.0 * np.arange(1, n + 1))).ravel())
    matvec, precondition = linearization(gen_cfg, c, state)
    g[:, 4:] = 0.0
    h = precondition(g)
    transport = matvec(h) + pc.SPECIES[:, None] * (pc.CHARGE @ h) / w
    assert np.max(np.abs(transport - g)) <= 1e-12


def test_preconditioner_at_a_zero_of_q_is_not_finite(sym_cfg):
    # q_i = a_i - c vanishes everywhere when c equals a velocity
    with np.errstate(divide="ignore", invalid="ignore"):
        _, precondition = linearization(sym_cfg, 1.0,
                                        st.InterfaceState.zero(1, 8))
        assert not np.all(np.isfinite(precondition(np.ones((4, 8)))))


@pytest.mark.parametrize("count", [17, 64, 128, 256])  # table, then FFT
@pytest.mark.parametrize("symmetric", [True, False], ids=["k2", "k4"])
def test_preconditioned_is_precondition_then_matvec(sym_cfg, count,
                                                    symmetric):
    # preconditioned(g) is (y, matvec(y)), y the transport inverse of g,
    # in one pass with cosine-only forward products and kappa applied in
    # coefficient space: the oracle's two passes to 1e-13 of scale, at a
    # smooth state and at one whose min |q| is 1e-3 (q_1 = 0.1 cos x -
    # 0.101 at c = -0.899)
    rng = np.random.default_rng(count + symmetric)
    layout = st.Layout(sym_cfg, 1, count, symmetric)
    k = layout.k
    smooth = (0.1 * rng.uniform(-1, 1, (k, count))
              * np.exp(-0.3 * np.arange(count)))
    near = np.zeros((k, count))
    near[0, 0] = 0.1
    for rows, c, min_q in ((smooth, 2.2, 1.0), (near, -0.899, 1e-3)):
        q = sp.grid_values(rows, None, sp.PRODUCT_GRID_FACTOR * count)
        assert np.min(np.abs(q + layout.a - c)) == pytest.approx(min_q,
                                                                 rel=0.2)
        matvec, preconditioned = layout.linearization(c, rows)
        want_matvec, want_precondition = two_step_linearization(layout, c,
                                                                rows)
        for g in rng.uniform(-1, 1, (3, k, count)):
            y, a_y = preconditioned(g)
            want_y = want_precondition(g)
            for got, want in ((y, want_y), (a_y, want_matvec(want_y))):
                assert got.shape == (k, count)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(
                    np.abs(want))
            assert np.array_equal(matvec(y), a_y)


@pytest.mark.parametrize("count", [16, 64, 128])  # tables, then FFTs
@pytest.mark.parametrize("symmetric", [True, False], ids=["k2", "k4"])
def test_linearization_reads_the_residuals_grid(sym_cfg, count, symmetric):
    # residual writes the rows' product-grid values into grid; a
    # linearization built on them only reads them, and its matvec and
    # preconditioned outputs, written into given arrays or fresh ones,
    # are those of a linearization that forms the values itself, bit for
    # bit
    rng = np.random.default_rng(3 * count + symmetric)
    layout = st.Layout(sym_cfg, 1, count, symmetric)
    k, c, npts = layout.k, 2.2, sp.PRODUCT_GRID_FACTOR * count
    rows = (0.1 * rng.uniform(-1, 1, (k, count))
            * np.exp(-0.3 * np.arange(count)))
    grid = np.empty((k, npts))
    assert np.array_equal(layout.residual(c, rows, grid=grid),
                          layout.residual(c, rows))
    assert np.array_equal(grid, sp.grid_values(rows, None, npts))
    kept = grid.copy()
    matvec, preconditioned = layout.linearization(c, rows, grid)
    want_matvec, want_preconditioned = layout.linearization(c, rows)
    y, a_y, out = np.empty((3, k, count))
    for g in rng.uniform(-1, 1, (3, k, count)):
        assert np.array_equal(matvec(g), want_matvec(g))
        assert matvec(g, out) is out
        assert np.array_equal(out, want_matvec(g))
        got = preconditioned(g, y, a_y)
        assert got[0] is y and got[1] is a_y
        for have, want in zip((y, a_y), want_preconditioned(g)):
            assert np.array_equal(have, want)
    assert np.array_equal(grid, kept)


def test_norm_skips_zero_coefficients_under_an_overflowing_weight():
    # j^200 overflows beyond harmonic 34: zero coefficients there add
    # nothing (inf * 0 used to make the norm NaN), nonzero ones make it inf
    cos = np.zeros((4, 64))
    cos[:, 0] = [0.5, -0.25, 0.125, 1.0]
    params = sp.NormParams(100.0, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = st.InterfaceState.from_arrays(1, cos).norm(params)
        assert got == pytest.approx(np.exp(0.1), rel=1e-15)
        cos = cos.copy()
        cos[2, 50] = 1e-3
        assert st.InterfaceState.from_arrays(1, cos).norm(params) == np.inf
