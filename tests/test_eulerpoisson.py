import json

import numpy as np
import pytest

from layerwaves import eulerpoisson as ep
from layerwaves import pencil as pc
from layerwaves import spectral as sp
from layerwaves import steady as st
from layerwaves.errors import ConfigError, DivergedError
from layerwaves.spectral import NormParams

from conftest import wave_at_amplitude
from oracle import (FROM_EP, add, antideriv, fft_coefficients, from_vector,
                    map_from_ep, scale, sub, with_count)

SQRT5 = float(np.sqrt(5.0))


class _MeanSeries:
    """Series plus explicit mean; closed under the operations below."""

    def __init__(self, mean, series):
        self.mean = float(mean)
        self.series = series

    def mul(self, other, out_count):
        m, cross = sp.multiply_with_mean(self.series, other.series, out_count)
        series = with_count(add(add(scale(self.mean, other.series),
                                    scale(other.mean, self.series)), cross),
                            out_count)
        return _MeanSeries(self.mean * other.mean + m, series)

    def dx(self):
        return sp.deriv(self.series)


def direct_ep_residual(state):
    """Reference residual: every product by exact convolution
    (spectral.multiply_with_mean) on series with explicit means, kept at
    3N + 3 harmonics; returns the four residual series by name."""
    c, out_n = state.c, 3 * state.count + 3
    rho_p, rho_m, u_p, u_m = (sp.TrigSeries.from_cos(state.fold, row)
                              for row in state.cos)
    force = antideriv(sub(rho_p, rho_m))
    residuals = {}
    for tag, rho0, u0, sign in (("plus", rho_p, u_p, -1.0),
                                ("minus", rho_m, u_m, 1.0)):
        rho = _MeanSeries(state.base_a, rho0)
        u = _MeanSeries(0.0, u0)
        rho_u = rho.mul(u, out_n)
        rho3 = rho.mul(rho, out_n).mul(rho, out_n)
        residuals[f"continuity_{tag}"] = add(
            scale(-c, with_count(sp.deriv(rho0), out_n)), rho_u.dx())
        residuals[f"momentum_{tag}"] = add(add(add(
            scale(-c, rho_u.dx()), rho_u.mul(u, out_n).dx()),
            scale(1.0 / 3.0, rho3.dx())),
            scale(sign * 2.0, rho.mul(_MeanSeries(0.0, force), out_n).series))
    return residuals


def mapped_state(cfg, state, c=0.0):
    return ep.map_to_ep(cfg, st.WaveSolution(cfg, c, state, 0.0, (1, 1)))


def test_trivial_solution_maps_to_rest_state(sym_cfg):
    sol = st.solution_at(sym_cfg, 0.7, st.InterfaceState.zero(1, 6))
    state = ep.map_to_ep(sym_cfg, sol)
    assert state.base_a == 1.0 and state.c == 0.7
    assert state.cos.shape == (4, 6) and state.max_abs() == 0.0
    assert not state.cos.flags.writeable
    assert state.min_density() == pytest.approx(1.0)
    _, sups = ep.ep_residual(state)
    assert max(sups.values()) == 0.0


def test_map_requires_symmetric_centered_config(gen_cfg, suc_cfg):
    z = st.solution_at(gen_cfg, 0.0, st.InterfaceState.zero(1, 4))
    with pytest.raises(ConfigError, match="regime"):
        ep.map_to_ep(gen_cfg, z)
    z = st.solution_at(suc_cfg, 0.0, st.InterfaceState.zero(1, 4))
    with pytest.raises(ConfigError):
        ep.map_to_ep(suc_cfg, z)
    shifted = pc.classify_config([0.0, 2.0, 0.0, 2.0])  # symmetric, not centered
    z = st.solution_at(shifted, 0.0, st.InterfaceState.zero(1, 4))
    with pytest.raises(ConfigError):
        ep.map_to_ep(shifted, z)


def test_map_is_affine_and_invertible(sym_cfg):
    rng = np.random.default_rng(0)
    base = from_vector(1, 6, 0.1 * rng.standard_normal(24))
    bump = from_vector(1, 6, rng.standard_normal(24))

    m0 = mapped_state(sym_cfg, base)
    m1 = mapped_state(sym_cfg, from_vector(
        1, 6, base.as_vector() + bump.as_vector()))
    m2 = mapped_state(sym_cfg, from_vector(
        1, 6, base.as_vector() + 2.0 * bump.as_vector()))
    # affine: second difference vanishes
    assert np.allclose(m1.cos - m0.cos, m2.cos - m1.cos, atol=1e-14)
    # the matrix map equals the per-species formulas bitwise
    r = base.cos
    assert np.array_equal(m0.cos, [0.5 * (r[1] - r[0]), 0.5 * (r[3] - r[2]),
                                   0.5 * (r[1] + r[0]), 0.5 * (r[3] + r[2])])
    assert np.array_equal(FROM_EP @ ep.TO_EP, np.eye(4))

    back = map_from_ep(m0)
    assert isinstance(back, st.InterfaceState) and back.fold == 1
    assert np.max(np.abs(back.cos - base.cos)) < 1e-15


def test_map_is_bi_lipschitz(sym_cfg):
    rng = np.random.default_rng(1)
    p = NormParams(2.0, 0.1)
    for _ in range(10):
        sa = from_vector(1, 5, rng.standard_normal(20))
        sb = from_vector(1, 5, rng.standard_normal(20))
        ma, mb = mapped_state(sym_cfg, sa), mapped_state(sym_cfg, sb)
        d_state = sp.norm(sa.cos - sb.cos, p)
        d_map = sp.norm(ma.cos - mb.cos, p)
        assert d_map <= d_state + 1e-12
        assert d_map >= 0.5 * d_state - 1e-12


def zero_padded_ep_residual(state):
    """ep_residual with its transform built from zero-padded stacks
    through spectral.grid_values: 4 even state rows over 5 zero rows,
    4 zero rows over 5 odd rows (the derivatives and the force).
    Returns the grid rows and the sups."""
    n = state.count
    out_n = 3 * n + 3
    w = state.wavenumbers()
    zero = np.zeros((5, n))
    force = (state.cos[0] - state.cos[1]) / w
    vals = sp.grid_values(np.concatenate((state.cos, zero)),
                          np.concatenate((zero[:4], -w * state.cos,
                                          force[None])), 8 * out_n)
    rho = vals[0:2] + state.base_a
    u, drho, du, field = vals[2:4], vals[4:6], vals[6:8], vals[8]
    flux = drho * u + rho * du
    cont = flux - state.c * drho
    mom = ((u - state.c) * flux + rho * u * du + rho * rho * drho
           + np.array([[-2.0], [2.0]]) * rho * field)
    res = np.array([cont[0], mom[0], cont[1], mom[1]])
    sups = dict(zip(ep.RESIDUAL_NAMES, np.max(np.abs(res), axis=1).tolist()))
    return res, sups


def assert_matches_direct(state):
    """Sups and coefficients of ep_residual against direct_ep_residual,
    to round-off on the scale of the residual terms, and against
    zero_padded_ep_residual bit for bit.  The coefficients are formed
    here, from the returned grid rows, by one real FFT."""
    want = direct_ep_residual(state)
    out_n = 3 * state.count + 3
    res, sups = ep.ep_residual(state)
    padded_res, padded_sups = zero_padded_ep_residual(state)
    assert res.shape == (4, 8 * out_n)
    assert np.array_equal(res, padded_res) and sups == padded_sups
    _, coeffs = fft_coefficients(res, out_n)
    assert tuple(sups) == ep.RESIDUAL_NAMES == tuple(want)
    assert coeffs.shape == (4, out_n)
    want_sups = np.max(np.abs(sp.grid_values(
        np.array([f.cos for f in want.values()]),
        np.array([f.sin for f in want.values()]), 8 * out_n)), axis=1)
    scale = max(1.0, float(np.max(want_sups)))
    for row, (name, f) in zip(coeffs, want.items()):
        assert not np.any(f.cos)  # odd residuals
        assert np.max(np.abs(row - f.sin)) <= 1e-14 * scale
    got_sups = np.array([sups[name] for name in want])
    assert np.max(np.abs(got_sups - want_sups)) <= 1e-14 * scale


@pytest.mark.parametrize("count", [1, 16, 64])
@pytest.mark.parametrize("fold", [1, 3])
def test_residual_matches_convolution_oracle_on_random_states(sym_cfg, fold,
                                                              count):
    rng = np.random.default_rng(10 * fold + count)
    for c in (0.0, 1.7):
        state = from_vector(
            fold, count, 0.3 * rng.standard_normal(4 * count))
        assert_matches_direct(mapped_state(sym_cfg, state, c))


@pytest.mark.parametrize("count", [16, 64])
def test_residual_matches_convolution_oracle_on_branch_wave(
        sym_cfg, sym_branch_pair, count):
    plus, _ = sym_branch_pair
    sol = wave_at_amplitude(plus, 0.1 * sym_cfg.width)
    state = mapped_state(sym_cfg, sol.state.with_count(count), sol.c)
    assert_matches_direct(state)


@pytest.mark.parametrize("count", [16, 64])
def test_residual_forms_no_forward_transform(sym_cfg, monkeypatch, count):
    # every forward transform refused: the grid rows and sups need the
    # inverse transform alone
    rng = np.random.default_rng(count)
    state = mapped_state(sym_cfg, from_vector(
        1, count, 0.3 * rng.standard_normal(4 * count)), 1.7)
    want_res, want_sups = ep.ep_residual(state)
    transform = sp.transform

    def refuse(*args, **kwargs):
        raise AssertionError("forward transform formed")

    def inverse_only(count, npts):
        return transform(count, npts)[0], refuse, refuse

    monkeypatch.setattr(sp, "transform", inverse_only)
    res, sups = ep.ep_residual(state)
    assert sups == want_sups and np.array_equal(res, want_res)


def test_residual_overflow_is_diagnosed(sym_cfg):
    state = st.InterfaceState.from_arrays(1, np.full((4, 4), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedError, match="overflows"):
            ep.ep_residual(mapped_state(sym_cfg, state, 2.2))


def test_min_density_grid_grows_with_truncation(sym_cfg):
    # a dip carried by harmonic N = 1024 alone, min 1 - 0.01 at x = pi/N,
    # falls between the points of any fixed grid of fewer than 2N points
    n = 1024
    cos = np.zeros((4, n))
    cos[1, n - 1] = 0.02  # rho_plus = u_plus = 0.01 cos(N x)
    state = mapped_state(sym_cfg, st.InterfaceState.from_arrays(1, cos))
    assert state.min_density() == pytest.approx(0.99, abs=1e-15)


def test_mapped_wave_satisfies_two_fluid_system(sym_cfg, sym_branch_pair):
    plus, _ = sym_branch_pair
    sol = wave_at_amplitude(plus, 0.1 * sym_cfg.width)
    state = ep.map_to_ep(sym_cfg, sol)
    _, sups = ep.ep_residual(state)
    assert max(sups.values()) <= 1e-8


def test_large_amplitude_wave_resolved_and_cut_short(sym_cfg,
                                                     sym_branch_pair):
    # the + arm's point nearest the sonic monitor m2 = 0.25, traced at
    # N = 192: mapped at N = 128 it solves the two-fluid system; cut to
    # N = 64 its residual shows, so the check tells resolution apart
    plus, _ = sym_branch_pair
    point = min(plus.points,
                key=lambda p: abs(p.solution.monitors[1] - 0.25))
    sol = point.solution
    assert abs(sol.monitors[1] - 0.25) < 0.01
    assert sol.state.max_abs() > 0.1 * sym_cfg.width
    sups = {}
    for count in (128, 64):
        state = mapped_state(sym_cfg, sol.state.with_count(count), sol.c)
        sups[count] = max(ep.ep_residual(state)[1].values())
    assert sups[128] <= 1e-8
    assert sups[64] > 1e-9


def test_monitors_read_as_vacuum_and_sonic_point(sym_cfg, sym_branch_pair):
    # on the monitors' grid, at every point of both arms: the strip gap
    # r2 - r1 + w is 2 rho, so a collision is EP vacuum; and per species
    # min(|r1 + a1 - c|, |r2 + a2 - c|) is ||u - c| - rho|, the distance
    # to the sound speed rho, so a degeneracy is an EP sonic point
    a = sym_cfg.as_array()
    points = [p.solution for branch in sym_branch_pair for p in branch.points]
    assert len(points) > 40
    for sol in points:
        npts = st.MONITOR_GRID_FACTOR * sol.state.count
        v = sp.grid_values(sol.state.cos, None, npts) + a[:, None]
        mapped = ep.map_to_ep(sym_cfg, sol)
        ep_vals = sp.grid_values(mapped.cos, None, npts)
        rho, u = ep_vals[:2] + mapped.base_a, ep_vals[2:]
        scale = max(np.max(np.abs(v)), abs(sol.c))
        gap = v[1::2] - v[0::2]  # r2 - r1 + (a2 - a1), per species
        assert np.max(np.abs(gap - 2.0 * rho)) <= 1e-12 * scale
        rel = np.abs(v - sol.c)
        speed = np.minimum(rel[0::2], rel[1::2])
        sonic = np.abs(np.abs(u - sol.c) - rho)
        assert np.max(np.abs(speed - sonic)) <= 1e-12 * scale
        # the monitors' minima are those of the grid, polished below it
        m1, m2 = st.monitors(sym_cfg, sol.c, sol.state)
        assert m1 <= 2.0 * np.min(rho) + 1e-12 * scale
        assert m2 <= np.min(sonic) + 1e-12 * scale


def test_random_state_is_not_a_solution(sym_cfg):
    rng = np.random.default_rng(2)
    state = from_vector(1, 6, 0.1 * rng.standard_normal(24))
    _, sups = ep.ep_residual(mapped_state(sym_cfg, state, 1.7))
    assert max(sups.values()) > 1e-4


class TestSpeeds:
    def test_unit_layer_values(self):
        (lo, hi), report = ep.ep_speeds(1.0, 1)
        assert hi == pytest.approx(SQRT5, abs=1e-12)
        assert lo == pytest.approx(-SQRT5, abs=1e-12)
        assert report["matched_form"] == "sqrt(1 + 4/(a m^2))"

    def test_speeds_antisymmetric(self):
        for a in (0.5, 1.0, 2.0):
            for m in (1, 2, 8):
                (lo, hi), _ = ep.ep_speeds(a, m)
                assert lo == pytest.approx(-hi, abs=1e-12)

    def test_speed_tends_to_base_level(self):
        values = [ep.ep_speeds(1.5, m)[0][1] for m in (1, 4, 16, 64, 256)]
        assert all(np.diff(values) < 0)
        assert values[-1] == pytest.approx(1.5, abs=1e-3)

    def test_report_resolves_correction_factor(self):
        # the determinant roots single out one of the two circulating
        # closed forms; the report documents the match, the other form
        # deviates at order 1/m^2
        (lo, hi), report = ep.ep_speeds(2.0, 3)
        dev = report["deviations"]
        assert dev["sqrt(1 + 4/(a m^2))"] < 1e-12
        assert dev["sqrt(1 + 2/(a m^2))"] > 1e-3

    def test_pair_is_the_outer_quartic_roots(self, monkeypatch):
        # the report reads the determinant roots, not the closed form of
        # bifurcation_speeds: with that refused and the roots moved, the
        # pair follows the roots bit for bit
        a, m = 1.5, 256
        roots = np.sort(pc.quartic_roots(
            m, pc.classify_config([-a, a, -a, a])).real)
        closed = pc.bifurcation_speeds(
            m, pc.classify_config([-a, a, -a, a])).admissible()
        (lo, hi), report = ep.ep_speeds(a, m)
        assert (lo, hi) == (roots[0], roots[-1])
        assert report["quartic"] == [lo, hi]
        assert (lo, hi) != (closed[0], closed[-1])
        assert abs(hi - closed[-1]) <= 1e-10

        def refuse(*args):
            raise AssertionError("closed form consulted")

        quartic_roots = pc.quartic_roots
        monkeypatch.setattr(pc, "bifurcation_speeds", refuse)
        monkeypatch.setattr(pc, "quartic_roots",
                            lambda m, cfg: quartic_roots(m, cfg) + 1e-3)
        (lo_moved, hi_moved), _ = ep.ep_speeds(a, m)
        assert (lo_moved, hi_moved) == (roots[0] + 1e-3, roots[-1] + 1e-3)

    def test_invalid_base_level(self):
        with pytest.raises(ValueError):
            ep.ep_speeds(-1.0, 1)


def test_ep_state_json(sym_cfg):
    sol = st.solution_at(sym_cfg, 0.3, st.InterfaceState.zero(1, 4))
    obj = ep.map_to_ep(sym_cfg, sol).to_json()
    assert obj["a"] == 1.0 and obj["c"] == 0.3
    assert obj["rho_plus"]["mean"] == 1.0
    assert obj["u_plus"]["mean"] == 0.0


def test_ep_entry_json_layout(sym_cfg):
    # rho_plus = (plus2 - plus1) / 2 around the base level a = 1
    cos = np.array([[0.5, 0.25], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    state = mapped_state(sym_cfg, st.InterfaceState.from_arrays(2, cos), 0.3)
    obj = state.to_json()
    assert list(obj) == ["a", "c", *ep.EP_NAMES]
    assert obj["rho_plus"] == {"mean": 1.0, "series": {
        "fold": 2, "count": 2, "parity": "even-cosine",
        "cos": [0.25, -0.125], "sin": [0.0, 0.0]}}
    assert list(obj["rho_plus"]) == ["mean", "series"]
    assert list(obj["rho_plus"]["series"]) == ["fold", "count", "parity",
                                               "cos", "sin"]


def test_ep_json_rewrites_to_the_same_bytes(sym_cfg, sym_branch_pair):
    # write -> read (spectral.series_from_json) -> write gives the bytes
    plus, _ = sym_branch_pair
    text = json.dumps(ep.map_to_ep(sym_cfg, plus.points[10].solution)
                      .to_json(), indent=1)
    obj = json.loads(text)
    fold, cos = sp.series_from_json(
        [obj[name]["series"] for name in ep.EP_NAMES])
    again = ep.EPState(fold, cos, obj["a"], obj["c"])
    assert json.dumps(again.to_json(), indent=1) == text


def test_ep_state_needs_base_level_and_speed():
    # one constructor: no EPState lacks base_a or c, which to_json,
    # min_density and ep_residual read
    cos = np.zeros((4, 3))
    with pytest.raises(TypeError):
        ep.EPState(1, cos)
    with pytest.raises(TypeError):
        ep.EPState([sp.TrigSeries.from_cos(1, row) for row in cos])
    assert not hasattr(ep.EPState, "from_arrays")
    assert not hasattr(ep.EPState, "zero")
    state = ep.EPState(1, cos, 1.0, 0.5)
    assert (state.fold, state.count, state.base_a, state.c) == (1, 3, 1.0, 0.5)
