import numpy as np
import pytest

from layerwaves import localbranch as lb
from layerwaves import pencil as pc
from layerwaves import spectral as sp
from layerwaves import steady as st

from oracle import exact_doubled_mode, from_vector, with_count

SQRT5 = float(np.sqrt(5.0))

# pitchfork curvature at the symmetric configuration (-1,1,-1,1), m=1,
# upper speed sqrt5; cross-checked against an amplitude-pinned
# continuation fit (agrees to 2e-5 relative)
CURVATURE_SYM_M1 = 0.15372967345311


def hessian_action(h, h2):
    """Second derivative of the residual: component-wise dx(h_i * h2_i),
    each product by exact convolution (spectral.multiply) at full length.
    Independent of c and of the configuration; bilinear and symmetric."""
    return [sp.deriv(sp.multiply(f, g, out_count=f.count + g.count))
            for f, g in zip(h.series, h2.series)]


def mode_state(m, vec, harmonic, count):
    """The interface state vec_i cos(harmonic * m x)."""
    cos = np.zeros((4, count))
    cos[:, harmonic - 1] = vec
    return st.InterfaceState.from_arrays(m, cos)


def kernel_state(m, cfg, c_star, count=2):
    return mode_state(m, pc.kernel_vector(m, cfg, c_star), 1, count)


def second_harmonic_state(m, cfg, c_star, count=2):
    t = lb.local_expansion(m, cfg, c_star).second_harmonic_amp
    return mode_state(m, t, 2, count)


def oracle_curvature(m, cfg, c_star):
    """Cokernel pairing of the mixed interaction over the transversality."""
    mixed = hessian_action(kernel_state(m, cfg, c_star),
                           second_harmonic_state(m, cfg, c_star))
    w = pc.cokernel_vector(m, cfg, c_star)
    numer = sum(w[i] * mixed[i].sin[0] for i in range(4))
    return numer / pc.transversality(m, cfg, c_star)


def test_hessian_on_kernel_mode(sym_cfg):
    k = kernel_state(1, sym_cfg, SQRT5)
    out = hessian_action(k, k)
    wsq = pc.reciprocal_sq_weights(sym_cfg, SQRT5)
    for i in range(4):
        # concentrated on the doubled harmonic with weight -m (a-c)^-2
        assert out[i].sin[0] == pytest.approx(0.0, abs=1e-15)
        assert out[i].sin[1] == pytest.approx(-1.0 * wsq[i])
        assert np.max(np.abs(out[i].sin[2:]), initial=0.0) == 0.0


def test_hessian_bilinear_symmetric():
    rng = np.random.default_rng(0)
    h = from_vector(2, 5, rng.standard_normal(20))
    g = from_vector(2, 5, rng.standard_normal(20))
    zero = st.InterfaceState.zero(2, 5)
    assert all(f.max_abs() == 0.0 for f in hessian_action(h, zero))
    ab = hessian_action(h, g)
    ba = hessian_action(g, h)
    for a, b in zip(ab, ba):
        assert np.allclose(a.sin, b.sin, atol=1e-14)


def test_hessian_output_orthogonal_to_cokernel_profile(sym_cfg):
    # no content on the fundamental harmonic, so the range pairing is 0
    k = kernel_state(1, sym_cfg, SQRT5)
    out = hessian_action(k, k)
    w = pc.cokernel_vector(1, sym_cfg, SQRT5)
    assert sum(w[i] * out[i].sin[0] for i in range(4)) == 0.0


def test_second_harmonic_correction_solves_linearized_equation(sym_cfg):
    n = 6
    theta = second_harmonic_state(1, sym_cfg, SQRT5, count=n)
    kernel = kernel_state(1, sym_cfg, SQRT5, count=n)
    J = st.jacobian(sym_cfg, SQRT5, st.InterfaceState.zero(1, n))
    lhs = J @ theta.as_vector()
    rhs = np.concatenate([with_count(h, n).sin
                          for h in hessian_action(kernel, kernel)])
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_second_harmonic_support(sym_cfg, suc_cfg, gen_cfg):
    # every component carries the doubled mode
    for cfg in (sym_cfg, suc_cfg, gen_cfg):
        for c_star in pc.bifurcation_speeds(1, cfg).admissible():
            t = lb.local_expansion(1, cfg, c_star).second_harmonic_amp
            assert t.shape == (4,) and np.all(t != 0.0)


@pytest.mark.parametrize("m", [1, 2, 3, 128])
def test_curvature_matches_hessian_oracle(sym_cfg, suc_cfg, gen_cfg, m):
    checked = 0
    for cfg in (sym_cfg, suc_cfg, gen_cfg):
        for c_star in pc.bifurcation_speeds(m, cfg).admissible():
            want = oracle_curvature(m, cfg, c_star)
            got = lb.local_expansion(m, cfg, c_star).speed_curvature
            assert got == pytest.approx(want, rel=1e-14)
            checked += 1
    assert checked >= 4


def test_second_harmonic_near_component_asymptotics(gen_cfg):
    # At the doubled mode the near component's diagonal entry stays O(1):
    # with gap g = (a_q - c) ~ (-1)^(k+1)/m^2 the entry 4 m^2 g + sign
    # tends to 3 (-1)^(k+1), so the amplitude tends to (2/3) g^-3, one
    # third of the naive diagonal-inverse prediction.
    m = 128
    roots = np.sort(pc.quartic_roots(m, gen_cfg).real)
    a = gen_cfg.as_array()
    for c_star in roots:
        q = int(np.argmin(np.abs(a - c_star)))
        t = lb.local_expansion(m, gen_cfg, c_star).second_harmonic_amp
        g = a[q] - c_star
        assert t[q] == pytest.approx((2.0 / 3.0) / g ** 3, rel=0.1)


def test_large_mode_doubled_mode_is_not_resonant(sym_cfg):
    # two gaps a_i - c* shrink like 1/m^2 and the doubled-mode entries
    # 4 m^2 (a_i - c*) stay O(1) there; the amplitudes stay finite
    for m in (931, 1000):
        for c_star in pc.bifurcation_speeds(m, sym_cfg).admissible():
            expansion = lb.local_expansion(m, sym_cfg, c_star)
            assert isinstance(expansion, lb.LocalExpansion)
            assert np.all(np.isfinite(expansion.second_harmonic_amp))


def narrow_cfg(width):
    return pc.classify_config([0.0, width, 0.0, width])


def secular_value(cfg, c, mode):
    """1 + sum_i SIDE_i / (mode^2 (a_i - c)): the mode pencil's
    determinant over the product of its diagonal (Golub 1973)."""
    return 1.0 + np.sum(pc.SIDE / (cfg.as_array() - c)) / float(mode) ** 2


@pytest.mark.parametrize("m", [1, 2, 3, 17, 128])
def test_secular_value_of_every_multiple_mode(sym_cfg, suc_cfg, gen_cfg, m):
    # at a speed of mode m the secular value of mode m vanishes, so that
    # of mode j m is 1 - 1/j^2 exactly: 3/4 for the doubled mode, and
    # no multiple mode is resonant
    layers = (sym_cfg, suc_cfg, gen_cfg,
              pc.classify_config([-1.65, -0.448, -2.846, -1.644]),
              narrow_cfg(1e-8), narrow_cfg(1e-11))
    checked = 0
    for cfg in layers:
        for c_star in pc.bifurcation_speeds(m, cfg).admissible():
            for j in range(2, 11):
                got = secular_value(cfg, c_star, j * m)
                assert got == pytest.approx(1.0 - 1.0 / j ** 2, abs=1e-8)
            checked += 1
    assert checked >= 12


def relative_miss(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_second_harmonic_matches_exact_solve_at_random_speeds():
    rng = np.random.default_rng(25)
    worst, checked = 0.0, 0
    while checked < 1032:
        lo_plus, lo_minus = rng.uniform(-3.0, 3.0, 2)
        width = rng.uniform(0.2, 2.0)
        cfg = pc.classify_config([lo_plus, lo_plus + width,
                                  lo_minus, lo_minus + width])
        m = int(rng.integers(1, 65))
        for c_star in pc.bifurcation_speeds(m, cfg).admissible():
            t = lb.local_expansion(m, cfg, c_star).second_harmonic_amp
            worst = max(worst, relative_miss(
                t, exact_doubled_mode(m, cfg, c_star)))
            checked += 1
    assert worst <= 1.6e-15


@pytest.mark.parametrize("eps, bound", [(1e-3, 1e-13), (1e-6, 1e-10)])
def test_second_harmonic_matches_exact_solve_next_to_an_interface(eps,
                                                                   bound):
    # two speeds lie about eps/2 from an interface, where the float
    # speed is not an exact root and the secular value misses 3/4 by up
    # to 2e-3: it is computed, not assumed
    cfg = pc.classify_config([-1.0, 1.0, -1.0 + eps, 1.0 + eps])
    speeds = pc.bifurcation_speeds(1, cfg).admissible()
    assert len(speeds) == 4
    for c_star in speeds:
        t = lb.local_expansion(1, cfg, c_star).second_harmonic_amp
        assert relative_miss(t, exact_doubled_mode(1, cfg, c_star)) <= bound


@pytest.mark.parametrize("width", [1e-8, 1e-11])
def test_local_expansion_on_narrow_layers(width):
    # the doubled mode is as regular on a narrow strip as on a wide one
    cfg = narrow_cfg(width)
    for m in (1, 2, 3):
        for c_star in pc.bifurcation_speeds(m, cfg).admissible():
            exp = lb.local_expansion(m, cfg, c_star)
            assert np.isfinite(exp.speed_curvature)
            assert relative_miss(exp.second_harmonic_amp,
                                 exact_doubled_mode(m, cfg, c_star)) <= 1e-15


def test_curvature_value_and_sign_symmetric(sym_cfg):
    curv = lb.local_expansion(1, sym_cfg, SQRT5).speed_curvature
    assert curv == pytest.approx(CURVATURE_SYM_M1, rel=1e-10)
    assert curv > 0.0  # supercritical: the speed exceeds both interfaces
    # mirror arm bifurcates downward
    assert lb.local_expansion(1, sym_cfg, -SQRT5).speed_curvature == (
        pytest.approx(-CURVATURE_SYM_M1, rel=1e-10))


def test_curvature_large_mode_asymptotics(gen_cfg):
    # curvature tends to -(1/3) (a_q - c)^-3: the sign rule
    # "supercritical iff c exceeds the nearest interface velocity"
    m = 128
    a = gen_cfg.as_array()
    for c_star in np.sort(pc.quartic_roots(m, gen_cfg).real):
        q = int(np.argmin(np.abs(a - c_star)))
        curv = lb.local_expansion(m, gen_cfg, c_star).speed_curvature
        g = a[q] - c_star
        assert curv == pytest.approx(-(1.0 / 3.0) / g ** 3, rel=0.1)
        assert (curv > 0) == (c_star > a[q])


def test_classification_sign_rule_many_configs():
    rng = np.random.default_rng(12)
    m = 64
    found = 0
    while found < 5:
        lo1, lo2 = rng.uniform(-2.0, 2.0, 2)
        width = rng.uniform(0.3, 1.5)
        cfg = pc.classify_config([lo1, lo1 + width, lo2, lo2 + width])
        if cfg.regime != "generic":
            continue
        a = cfg.as_array()
        for c_star in pc.bifurcation_speeds(m, cfg).admissible():
            exp = lb.local_expansion(m, cfg, c_star)
            rule = ("supercritical" if c_star > a[exp.nearest_component]
                    else "subcritical")
            assert exp.pitchfork == rule
        found += 1


def test_nearest_component_tie_break(sym_cfg):
    # 0 is equidistant from all four interfaces; lower plus wins
    assert lb.nearest_component_index(sym_cfg, 0.0) == 0
    suc = pc.classify_config([0.0, 1.0, 1.0, 2.0])
    assert lb.nearest_component_index(suc, 1.0 + np.sqrt(3.0)) == 3
    # tie between upper plus (k=2) and lower minus (k=1): smaller k wins
    assert lb.nearest_component_index(suc, 1.0) == 2


def test_predictor_zero_and_shift_partner(sym_expansion):
    c0, state0 = lb.predictor(sym_expansion, 0.0, count=4)
    assert c0 == sym_expansion.c_star
    assert state0.max_abs() == 0.0

    cp, sp_state = lb.predictor(sym_expansion, 0.2, count=4)
    cm, sm_state = lb.predictor(sym_expansion, -0.2, count=4)
    assert cp == cm
    mirrored = sp_state.shifted(np.pi / sym_expansion.m)
    assert np.array_equal(mirrored.as_vector(), sm_state.as_vector())


def test_predictor_residual_quadratic_order(sym_expansion, sym_cfg):
    svals = np.array([1e-2, 1e-3, 1e-4])
    sups = []
    for s in svals:
        c, state = lb.predictor(sym_expansion, float(s), count=8)
        sups.append(np.max(np.abs(st.residual_vector(sym_cfg, c, state))))
    slope = np.polyfit(np.log(svals), np.log(sups), 1)[0]
    assert slope >= 1.9


def test_local_expansion_json(sym_expansion):
    obj = sym_expansion.to_json()
    assert obj["pitchfork"] == "supercritical"
    assert obj["nearest_component"] == "plus2"
    assert len(obj["kernel_vec"]) == 4
    assert obj["speed_curvature"] == pytest.approx(CURVATURE_SYM_M1, rel=1e-10)
