import warnings

import numpy as np
import pytest

from layerwaves import continuation as ct
from layerwaves import dynamics as dy
from layerwaves import pencil as pc
from layerwaves import spectral as sp
from layerwaves import steady as st
from layerwaves.errors import DivergedError

from conftest import wave_at_amplitude
from oracle import (add, antideriv, direct_grad_energy, hamiltonian_field,
                    rk4_evolve, scale, sub, zeros)


def random_phase(rng, fold=2, count=8, scale=0.3):
    return dy.PhaseState([sp.TrigSeries(fold, scale * rng.standard_normal(count),
                                        scale * rng.standard_normal(count))
                          for _ in range(4)])


def state_dev(a, b):
    return max(np.max(np.abs(x.cos - y.cos)) + np.max(np.abs(x.sin - y.sin))
               for x, y in zip(a.series, b.series))


def direct_rhs(cfg, state):
    """Reference rhs on series: each advection product r_i dx r_i by exact
    convolution (spectral.multiply), cut at the state's truncation."""
    a = cfg.as_array()
    s = state.series
    pot = antideriv(sub(sub(s[1], s[0]), sub(s[3], s[2])))
    out = []
    for i in range(4):
        dr = sp.deriv(s[i])
        adv = add(sp.multiply(s[i], dr, out_count=state.count),
                  scale(a[i], dr))
        out.append(add(scale(-1.0, adv), scale(pc.SPECIES[i], pot)))
    return dy.PhaseState(out)


def test_phase_state_series_round_trip():
    rng = np.random.default_rng(3)
    series = [sp.TrigSeries(2, rng.standard_normal(5), rng.standard_normal(5))
              for _ in range(4)]
    state = dy.PhaseState(series)
    assert state.fold == 2 and state.count == 5
    assert state.cos.shape == state.sin.shape == (4, 5)
    back = state.series
    assert all(b.parity == sp.FULL and b.fold == 2 for b in back)
    for got, want in zip(back, series):
        assert np.array_equal(got.cos, want.cos)
        assert np.array_equal(got.sin, want.sin)
    assert not state.cos.flags.writeable and not state.sin.flags.writeable
    # even inputs are held as full-parity components
    even = dy.PhaseState([sp.TrigSeries.from_cos(1, [0.1, 0.2])] * 4)
    assert np.array_equal(even.sin, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="four"):
        dy.PhaseState(series[:3])
    with pytest.raises(ValueError, match="share"):
        dy.PhaseState(series[:3] + [zeros(2, 6)])


@pytest.mark.parametrize("fold", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 8, 17, 64, 256])
def test_rhs_matches_direct_product_oracle(sym_cfg, gen_cfg, fold, count):
    # full-band coefficients: the products reach harmonic 2N, so any
    # grid below 3N + 1 points aliases into the kept harmonics
    rng = np.random.default_rng(100 * fold + count)
    for cfg in (sym_cfg, gen_cfg):
        state = random_phase(rng, fold, count, scale=1.0)
        want = direct_rhs(cfg, state)
        got = dy.rhs(cfg, state)
        scale = want.max_abs()
        assert np.max(np.abs(got.cos - want.cos)) <= 1e-13 * scale
        assert np.max(np.abs(got.sin - want.sin)) <= 1e-13 * scale


def test_rhs_zero_at_flat_state(sym_cfg):
    vel = dy.rhs(sym_cfg, dy.PhaseState.zero(1, 6))
    assert vel.max_abs() == 0.0


def test_rhs_is_hamiltonian_vector_field(sym_cfg, gen_cfg):
    # rhs against J grad E of the energy gradient by exact convolution
    rng = np.random.default_rng(21)
    for cfg in (sym_cfg, gen_cfg):
        for _ in range(50):
            state = random_phase(rng)
            direct = dy.rhs(cfg, state)
            via_energy = hamiltonian_field(cfg, state)
            scale = max(s.max_abs() for s in direct.series)
            assert state_dev(direct, via_energy) <= 1e-12 * scale


def test_rhs_of_wave_is_rigid_translation(sym_cfg, sym_branch_pair):
    plus, _ = sym_branch_pair
    sol = wave_at_amplitude(plus, 0.05)
    phase = dy.PhaseState.from_interface(sol.state)
    vel = dy.rhs(sym_cfg, phase)
    expect = [scale(-sol.c, sp.deriv(s)) for s in phase.series]
    for got, want in zip(vel.series, expect):
        assert np.max(np.abs(got.sin - want.sin)) < 1e-10
        assert np.max(np.abs(got.cos - want.cos)) < 1e-10


@pytest.mark.parametrize("count", [1, 16, 64])
@pytest.mark.parametrize("fold", [1, 2, 3])
def test_steady_residual_is_rhs_in_the_moving_frame(sym_cfg, gen_cfg, fold,
                                                    count):
    # off the branch too: the traveling-wave residual of an even state is
    # c w cos - rhs.sin, and the rhs of an even state is odd
    rng = np.random.default_rng(20 * fold + count)
    c = 0.7
    decay = np.exp(-0.3 * np.arange(count))
    for cfg in (sym_cfg, gen_cfg):
        state = st.InterfaceState.from_arrays(
            fold, 0.3 * decay * rng.standard_normal((4, count)))
        vel = dy.rhs(cfg, dy.PhaseState.from_interface(state))
        moving = c * state.wavenumbers() * state.cos
        res = st.residual(cfg, c, state)
        scale = max(1.0, float(np.max(np.abs(moving))),
                    float(np.max(np.abs(vel.sin))))
        assert np.max(np.abs(res - (moving - vel.sin))) <= 1e-13 * scale
        assert np.max(np.abs(vel.cos)) <= 1e-13 * scale


def test_energy_flat_symmetric(sym_cfg):
    report = dy.energy(sym_cfg, dy.PhaseState.zero(1, 6))
    assert report.e_kin == pytest.approx(2.0 / 3.0)
    assert report.e_pot == 0.0
    assert report.e_total == pytest.approx(2.0 / 3.0)


def test_potential_energy_nonnegative_and_matches_quadrature(sym_cfg):
    rng = np.random.default_rng(4)
    for _ in range(10):
        state = random_phase(rng, fold=1, count=6)
        report = dy.energy(sym_cfg, state)
        assert report.e_pot >= 0.0
        # quadrature oracle:  -(1/2) mean(d * dxx^-1 d)
        d = sub(sub(state.series[1], state.series[0]),
                sub(state.series[3], state.series[2]))
        lap = antideriv(antideriv(d))
        x = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        oracle = -0.5 * np.mean(d.eval(x) * lap.eval(x))
        assert report.e_pot == pytest.approx(oracle, rel=1e-12)


def pairing(grad, direction):
    """<grad E, direction> in L2 mean: half the coefficient products, as
    the means of the gradient pair with a zero-mean direction to 0."""
    return 0.5 * sum(float(np.sum(f.cos * u) + np.sum(f.sin * v))
                     for (_, f), u, v in zip(grad, direction.cos,
                                             direction.sin))


def energy_slope(cfg, state, direction, eps=1e-5):
    """Central difference of dy.energy along direction."""
    up = dy.energy(cfg, state.combine([direction], [eps])).e_total
    down = dy.energy(cfg, state.combine([direction], [-eps])).e_total
    return (up - down) / (2.0 * eps)


def test_gradient_matches_finite_difference(sym_cfg):
    # the oracle's gradient is the gradient of dy.energy: this ties the
    # energy to the field that test_rhs_is_hamiltonian_vector_field checks
    rng = np.random.default_rng(5)
    state = random_phase(rng, fold=1, count=10, scale=0.2)
    direction = random_phase(rng, fold=1, count=10, scale=1.0)
    assert pairing(direct_grad_energy(sym_cfg, state), direction) \
        == pytest.approx(energy_slope(sym_cfg, state, direction), rel=1e-6)


def test_gradient_constant_at_flat_state(sym_cfg):
    grad = direct_grad_energy(sym_cfg, dy.PhaseState.zero(1, 5))
    a = sym_cfg.as_array()
    assert all(f.max_abs() == 0.0 for _, f in grad)
    means = np.array([m for m, _ in grad])
    assert means.shape == (4,)
    assert np.allclose(means, pc.SIDE * a ** 2 / 2.0, rtol=1e-15)
    # and dy.energy is stationary there
    direction = random_phase(np.random.default_rng(15), fold=1, count=5)
    assert abs(energy_slope(sym_cfg, dy.PhaseState.zero(1, 5), direction)) \
        <= 1e-9


@pytest.mark.parametrize("fold", [1, 2])
@pytest.mark.parametrize("count", [1, 8, 17, 64])
def test_gradient_matches_direct_product_oracle(sym_cfg, gen_cfg, fold,
                                                count):
    # the gradient of dy.energy, by central differences along random
    # directions, is the oracle's at every fold and truncation
    rng = np.random.default_rng(10 * fold + count)
    for cfg in (sym_cfg, gen_cfg):
        state = random_phase(rng, fold, count, scale=1.0)
        grad = direct_grad_energy(cfg, state)
        for _ in range(3):
            direction = random_phase(rng, fold, count, scale=1.0)
            assert pairing(grad, direction) == pytest.approx(
                energy_slope(cfg, state, direction), rel=1e-6)


def test_evolve_preserves_flat_state(sym_cfg):
    traj = dy.evolve(sym_cfg, dy.PhaseState.zero(1, 8), 1e-3, 50)
    assert traj.states[-1].max_abs() == 0.0
    assert len(traj.times) == 51


def test_evolve_guards(sym_cfg):
    state = dy.PhaseState.zero(1, 8)
    with pytest.raises(ValueError, match="positive"):
        dy.evolve(sym_cfg, state, -1e-3, 2)
    with pytest.raises(ValueError, match="stability"):
        dy.evolve(sym_cfg, state, 10.0, 2)
    with pytest.raises(ValueError, match="steps must be nonnegative"):
        dy.evolve(sym_cfg, state, 1e-3, -1)
    for store_every in (0, -2):
        with pytest.raises(ValueError, match="store_every must be at least 1"):
            dy.evolve(sym_cfg, state, 1e-3, 3, store_every=store_every)
    assert len(dy.evolve(sym_cfg, state, 1e-3, 0).states) == 1


def test_zero_means_preserved_structurally(sym_cfg):
    # coefficients never include a mean slot, and rhs keeps parities finite
    rng = np.random.default_rng(6)
    state = random_phase(rng, fold=1, count=8, scale=0.05)
    traj = dy.evolve(sym_cfg, state, 5e-3, 100, store_every=10)
    for s in traj.states[-1].series:
        assert s.count == 8  # nothing but the stored harmonics exists


def test_wave_propagation_matches_translation(sym_cfg, sym_branch_pair):
    plus, _ = sym_branch_pair
    sol = wave_at_amplitude(plus, 0.1 * sym_cfg.width)
    phase = dy.PhaseState.from_interface(sol.state)
    period = 2.0 * np.pi / (sol.state.fold * abs(sol.c))
    steps = max(int(np.ceil(period / (0.5 * dy.cfl_limit(sym_cfg, phase)))), 600)
    traj = dy.evolve(sym_cfg, phase, period / steps, steps, store_every=steps)
    moved = [sp.shift(s, -sol.c * period) for s in sol.state.series]
    x = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    sup = max(np.max(np.abs(got.eval(x) - want.eval(x)))
              for got, want in zip(traj.states[-1].series, moved))
    assert sup <= 1e-6
    drift = abs(traj.energies[-1].e_total - traj.energies[0].e_total)
    assert drift <= 1e-8 * abs(traj.energies[0].e_total)


def test_richardson_fourth_order(sym_cfg):
    # halving dt shrinks the terminal error by about 2^4
    rng = np.random.default_rng(8)
    state = random_phase(rng, fold=1, count=6, scale=0.1)
    horizon = 0.5
    errors = []
    base_steps = 160
    fine = dy.evolve(sym_cfg, state, horizon / (base_steps * 4),
                     base_steps * 4, store_every=base_steps * 4).states[-1]
    for mult in (1, 2):
        steps = base_steps * mult
        got = dy.evolve(sym_cfg, state, horizon / steps, steps,
                        store_every=steps).states[-1]
        errors.append(state_dev(got, fine))
    order = np.log2(errors[0] / errors[1])
    assert order >= 3.5


def test_divergence_detected():
    # coefficients near the overflow threshold square to inf in the
    # quadratic term; the stepper must refuse to continue
    cfg = pc.classify_config([-1.0, 1.0, -1.0, 1.0])
    huge = sp.TrigSeries(1, np.full(4, 1e200), np.zeros(4))
    state = dy.PhaseState([huge] * 4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedError, match="at step 1"):
            dy.evolve(cfg, state, 1e-210, 3)


def test_divergence_diagnosed_without_warnings(sym_cfg):
    # no numpy warning escapes a diverging run: coefficients that square
    # to inf fail at step 1; a start whose cubic kinetic energy overflows
    # while its first step stays finite fails at step 0
    huge = sp.TrigSeries(1, np.full(4, 1e200), np.zeros(4))
    big = sp.TrigSeries(1, [1e103, 0.0, 0.0, 0.0], np.zeros(4))
    zero = zeros(1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergedError, match="at step 1"):
            dy.evolve(sym_cfg, dy.PhaseState([huge] * 4), 1e-210, 3)
        start = dy.PhaseState([zero, big, zero, zero])
        dt = 0.5 * dy.cfl_limit(sym_cfg, start)
        assert np.all(np.isfinite(dy.rhs(sym_cfg, start).cos))
        for steps in (3, 0):
            with pytest.raises(DivergedError, match="at step 0"):
                dy.evolve(sym_cfg, start, dt, steps)


def spy_on_stages(monkeypatch, spy):
    """Route every stage that Layout.stage makes from now on through
    spy(x, exact), exact the stage it would have returned."""
    make = st.Layout.stage

    def stage(layout, h):
        exact = make(layout, h)
        return lambda x: spy(x, exact)

    monkeypatch.setattr(st.Layout, "stage", stage)


def test_divergence_detected_mid_run(sym_cfg, monkeypatch):
    # a NaN that first appears in the second stage of step 2 is caught by
    # the check after that step, without any check inside the stages;
    # every stage is one call of the layout's stage(dt/2), so the NaN
    # goes in there
    calls = []

    def stage(x, exact):
        out = exact(x)
        calls.append(np.all(np.isfinite(x)))
        if len(calls) == 6:
            out[2, 1] = np.nan
        return out

    spy_on_stages(monkeypatch, stage)
    state = random_phase(np.random.default_rng(9), fold=1, count=8, scale=0.05)
    with pytest.raises(DivergedError, match="at step 2"):
        dy.evolve(sym_cfg, state, 1e-3, 5)
    assert len(calls) == 8 and not any(calls[6:])  # stages 3, 4 saw the NaN


@pytest.fixture(scope="module")
def snapshot64(sym_cfg, sym_expansion):
    """The 20th point of the default + arm at N = 64, translated so that
    its sine coefficients are not zero."""
    opts = ct.ContinuationOptions(count=64, max_points=20)
    sol = ct.trace_arm(sym_expansion, +1, opts).points[-1].solution
    start = dy.PhaseState([sp.shift(s, 0.7) for s in sol.state.series])
    return start, sol.c


def assert_matches_oracle(cfg, start, dt, steps, store_every):
    traj = dy.evolve(cfg, start, dt, steps, store_every=store_every)
    times, states, energies = rk4_evolve(cfg, start, dt, steps, store_every)
    assert np.array_equal(traj.times, times)
    assert len(traj.states) == len(states) == len(traj.energies)
    for got, want, e_got, e_want in zip(traj.states, states, traj.energies,
                                        energies):
        scale = want.max_abs()
        assert got.fold == want.fold and got.count == want.count
        assert np.max(np.abs(got.cos - want.cos)) <= 1e-13 * scale
        assert np.max(np.abs(got.sin - want.sin)) <= 1e-13 * scale
        assert abs(e_got.e_kin - e_want.e_kin) <= 1e-13 * abs(e_want.e_total)
        assert abs(e_got.e_pot - e_want.e_pot) <= 1e-13 * abs(e_want.e_total)
    return traj


def test_evolve_matches_stage_oracle_on_branch_snapshot(sym_cfg, snapshot64):
    start, c = snapshot64
    horizon = 0.1 * 2.0 * np.pi / (start.fold * abs(c))
    steps = int(np.ceil(horizon / (0.5 * dy.cfl_limit(sym_cfg, start))))
    traj = assert_matches_oracle(sym_cfg, start, horizon / steps, steps, 7)
    assert len(traj.times) == steps // 7 + 1 + (steps % 7 != 0)


def test_evolve_matches_stage_oracle_odd_count(gen_cfg):
    start = random_phase(np.random.default_rng(17), fold=2, count=17,
                         scale=0.1)
    dt = 0.5 * dy.cfl_limit(gen_cfg, start)
    assert_matches_oracle(gen_cfg, start, dt, 40, 3)


@pytest.mark.parametrize("steps", [0, 1])
def test_evolve_matches_stage_oracle_few_steps(sym_cfg, steps):
    start = random_phase(np.random.default_rng(3), fold=1, count=8)
    dt = 0.5 * dy.cfl_limit(sym_cfg, start)
    traj = assert_matches_oracle(sym_cfg, start, dt, steps, 5)
    assert traj.states[0] is start and len(traj.states) == steps + 1


def fixed_space_start(rng, fold, count, scale=0.1):
    """A start on the fixed space r_minus_i = T r_plus_i of a symmetric
    layer, with random plus rows."""
    cos, sin = scale * rng.standard_normal((2, 2, count))
    t = st.half_shift(count)
    return dy.PhaseState.from_arrays(fold, np.concatenate([cos, t * cos]),
                                     np.concatenate([sin, t * sin]))


def stage_rows(monkeypatch):
    """The row counts of the RK4 stages evaluated from now on, one per
    stage."""
    rows = []

    def stage(x, exact):
        rows.append(x.shape[0])
        return exact(x)

    spy_on_stages(monkeypatch, stage)
    return rows


def four_rows_only(monkeypatch):
    monkeypatch.setattr(st, "on_fixed_space", lambda cfg, *cos: False)


@pytest.mark.parametrize("fold", [1, 2, 3])
@pytest.mark.parametrize("a", [(-1.0, 1.0, -1.0, 1.0), (0.5, 2.0, 0.5, 2.0)])
def test_four_row_evolution_stays_on_the_fixed_space(a, fold, monkeypatch):
    # the premise of the two-row path: the evolution commutes with the
    # species swap composed with the half-period shift, so on four rows,
    # where nothing but the equations keeps it there, a fixed-space start
    # stays on the fixed space
    four_rows_only(monkeypatch)
    rows = stage_rows(monkeypatch)
    cfg = pc.classify_config(a)
    start = fixed_space_start(np.random.default_rng(fold), fold, 16)
    dt = 0.5 * dy.cfl_limit(cfg, start)
    traj = dy.evolve(cfg, start, dt, 60, store_every=10)
    assert rows == [4] * (4 * 60)
    t = st.half_shift(16)
    for state in traj.states:
        for u in (state.cos, state.sin):
            assert np.max(np.abs(u[2:] - t * u[:2])) <= 1e-13 * state.max_abs()


@pytest.mark.parametrize("fold, count", [(1, 16), (2, 17), (1, 64)])
def test_plus_rows_evolve_as_the_four_rows(sym_cfg, fold, count,
                                           monkeypatch):
    start = fixed_space_start(np.random.default_rng(count), fold, count)
    dt = 0.5 * dy.cfl_limit(sym_cfg, start)
    rows = stage_rows(monkeypatch)
    two = dy.evolve(sym_cfg, start, dt, 40, store_every=7)
    four_rows_only(monkeypatch)
    four = dy.evolve(sym_cfg, start, dt, 40, store_every=7)
    assert rows == [2] * (4 * 40) + [4] * (4 * 40)
    assert np.array_equal(two.times, four.times)
    assert len(two.states) == len(four.states) == 7
    t = st.half_shift(count)
    for got, want, e_got, e_want in zip(two.states, four.states,
                                        two.energies, four.energies):
        scale = want.max_abs()
        assert got.fold == fold and got.count == count
        assert np.array_equal(got.cos[2:], t * got.cos[:2])
        assert np.array_equal(got.sin[2:], t * got.sin[:2])
        assert np.max(np.abs(got.cos - want.cos)) <= 1e-13 * scale
        assert np.max(np.abs(got.sin - want.sin)) <= 1e-13 * scale
        assert abs(e_got.e_kin - e_want.e_kin) <= 1e-13 * abs(e_want.e_total)
        assert abs(e_got.e_pot - e_want.e_pot) <= 1e-13 * abs(e_want.e_total)


def test_off_space_starts_evolve_on_four_rows(sym_cfg, monkeypatch):
    # a layer symmetric to 1e-13 only, and a start one coefficient off the
    # fixed space: neither has the symmetry, so both step four rows
    start = fixed_space_start(np.random.default_rng(2), 1, 16)
    near = pc.classify_config((-1.0, 1.0, -1.0 + 1e-13, 1.0 + 1e-13))
    sin = start.sin.copy()
    sin[3, 5] += 1e-9
    moved = dy.PhaseState.from_arrays(1, start.cos, sin)
    rows = stage_rows(monkeypatch)
    for cfg, state in ((near, start), (sym_cfg, moved)):
        rows.clear()
        dt = 0.5 * dy.cfl_limit(cfg, state)
        assert_matches_oracle(cfg, state, dt, 20, 3)
        # evolve's stages, then the oracle's rhs calls, one stage each
        assert rows == [4] * (4 * 20) + [4] * (4 * 20)


def test_stored_states_are_not_overwritten(sym_cfg):
    start = random_phase(np.random.default_rng(5), fold=1, count=8)
    traj = dy.evolve(sym_cfg, start, 1e-3, 6, store_every=1)
    again = dy.evolve(sym_cfg, traj.states[3], 1e-3, 3).states[-1]
    assert np.array_equal(again.cos, traj.states[-1].cos)
    assert np.array_equal(again.sin, traj.states[-1].sin)
    for state in traj.states[1:]:
        assert not state.cos.flags.writeable
        assert not state.sin.flags.writeable


def test_trajectory_csv_rows(sym_cfg):
    traj = dy.evolve(sym_cfg, dy.PhaseState.zero(1, 4), 1e-3, 4)
    rows = traj.csv_rows()
    assert len(rows) == 5
    assert len(rows[0]) == 8  # t, three energies, four sup norms
