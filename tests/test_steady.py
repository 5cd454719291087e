import numpy as np
import pytest

from layerwaves import pencil as pc
from layerwaves import spectral as sp
from layerwaves import steady as st
from layerwaves.spectral import ODD

SQRT5 = float(np.sqrt(5.0))


def random_state(rng, fold=2, count=10, scale=0.1):
    return st.InterfaceState.from_vector(
        fold, count, scale * rng.standard_normal(4 * count))


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
    assert all(f.parity == ODD for f in out)

    x = np.linspace(0.0, np.pi, 200)
    pot = sp.antideriv(st.charge_difference(state))
    for i in range(4):
        exact = ((state.series[i].eval(x) + a[i] - c)
                 * sp.deriv(state.series[i]).eval(x)
                 + st.POT_SIGN[i] * pot.eval(x))
        full = (sp.multiply(state.series[i], sp.deriv(state.series[i]),
                            out_count=12)
                + (a[i] - c) * sp.deriv(state.series[i]).with_count(12)
                + st.POT_SIGN[i] * pot.with_count(12))
        assert np.max(np.abs(full.eval(x) - exact)) < 1e-12
        assert np.array_equal(out[i].sin, full.sin[:6])

    # the reported truncation tail is the sup of the discarded harmonics
    _, tail = st.residual(gen_cfg, c, state, with_tail=True)
    worst = max(np.max(np.abs((sp.multiply(state.series[i],
                                           sp.deriv(state.series[i]),
                                           out_count=12)).sin[6:]))
                for i in range(4))
    assert tail == pytest.approx(worst)


def test_linearization_matches_mode_matrices(gen_cfg):
    # the residual is quadratic, so a central difference is exact: it
    # must reproduce the Fourier multiplier -(1/(j m)) M_{j m}
    rng = np.random.default_rng(2)
    m, n = 3, 5
    c = 1.3
    h = random_state(rng, fold=m, count=n, scale=1.0)
    eps = 1e-7
    plus = st.residual_vector(gen_cfg, c, st.InterfaceState.from_vector(
        m, n, eps * h.as_vector()))
    minus = st.residual_vector(gen_cfg, c, st.InterfaceState.from_vector(
        m, n, -eps * h.as_vector()))
    lin = (plus - minus) / (2 * eps)
    hv = h.as_vector().reshape(4, n)
    expect = np.zeros((4, n))
    for j in range(1, n + 1):
        M = pc.mode_matrix(j * m, gen_cfg, c).entries
        expect[:, j - 1] = -(M @ hv[:, j - 1]) / (j * m)
    assert np.max(np.abs(lin - expect.ravel())) < 1e-6 * max(np.max(np.abs(expect)), 1)


def test_jacobian_at_flat_state_is_multiplier(sym_cfg):
    m, n = 1, 7
    c = 0.37
    J = st.jacobian(sym_cfg, c, st.InterfaceState.zero(m, n))
    for j in range(1, n + 1):
        M = pc.mode_matrix(j * m, sym_cfg, c).entries
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
    fp = st.residual_vector(gen_cfg, c, st.InterfaceState.from_vector(
        2, 12, state.as_vector() + eps * h))
    fm = st.residual_vector(gen_cfg, c, st.InterfaceState.from_vector(
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
    state = st.InterfaceState.from_vector(2, n, vec)
    dv = st.speed_derivative(gen_cfg, 0.0, state)
    for i in range(4):
        expect = np.zeros(n)
        expect[0] = 2 * v[i]  # -dx(v cos(2x)) = 2 v sin(2x)
        assert np.allclose(dv[i].sin, expect)

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
    gap = min(min_abs(s[1] - s[0], cfg.width), min_abs(s[3] - s[2], cfg.width))
    slip = min(min_abs(s[i], a[i] - c) for i in range(4))
    return gap, slip


def test_monitors_match_direct_evaluation(sym_cfg, gen_cfg, sym_branch_pair):
    rng = np.random.default_rng(11)
    cases = [(gen_cfg, 1.7, random_state(rng, fold, count, scale))
             for fold, count, scale in ((1, 8, 0.05), (2, 16, 0.3),
                                        (3, 64, 0.01), (1, 256, 0.002))]
    # branch states of growing amplitude along both arms
    for arm in sym_branch_pair:
        cases += [(sym_cfg, p.solution.c, p.solution.state)
                  for p in arm.points[::8]]
    for cfg, c, state in cases:
        got = st.monitors(cfg, c, state)
        want = direct_monitors(cfg, c, state)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_monitor_grid_resolves_narrow_dip(sym_cfg):
    # a profile whose minimum gap sits between grid points
    n = 8
    coeffs = np.zeros(n)
    coeffs[n - 1] = 0.4 / n
    upper = sp.TrigSeries.from_cos(1, -coeffs)
    state = st.InterfaceState([sp.TrigSeries.zeros(1, n, "even-cosine"),
                               upper,
                               sp.TrigSeries.zeros(1, n, "even-cosine"),
                               sp.TrigSeries.zeros(1, n, "even-cosine")])
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
    right = [sp.shift(f, h) for f in st.residual(sym_cfg, c, state)]
    for a, b in zip(left, right):
        assert np.max(np.abs(a.sin - b.sin)) < 1e-14


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
