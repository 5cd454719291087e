import numpy as np
import pytest

from layerwaves import pencil as pc
from layerwaves.errors import ConfigError, DegenerateSpeedError

from oracle import NoAdmissibleModeError, min_admissible_mode, mode_matrix

SQRT5 = float(np.sqrt(5.0))
SQRT3 = float(np.sqrt(3.0))


def random_config(rng):
    lo_plus, lo_minus = rng.uniform(-3.0, 3.0, 2)
    width = rng.uniform(0.2, 2.0)
    return pc.classify_config([lo_plus, lo_plus + width,
                               lo_minus, lo_minus + width])


class TestClassify:
    def test_regimes(self):
        assert pc.classify_config([0, 1, 2, 3]).regime == "generic"
        assert pc.classify_config([-1, 1, -1, 1]).regime == "symmetric"
        assert pc.classify_config([0, 1, 1, 2]).regime == "successive"
        # the other successive coincidence (a_plus_1 == a_minus_2)
        assert pc.classify_config([1, 2, 0, 1]).regime == "successive"

    def test_invalid_widths(self):
        with pytest.raises(ConfigError, match="widths"):
            pc.classify_config([0, 1, 2, 4])
        with pytest.raises(ConfigError):
            pc.classify_config([0, 0, 1, 1])  # zero width


class TestModeMatrix:
    def test_hand_assembled_entries(self):
        cfg = pc.classify_config([0, 1, 2, 3])
        M = mode_matrix(1, cfg, -1.0)
        assert np.allclose(np.diag(M), [0.0, 3.0, 2.0, 5.0])

    def test_fixed_offdiagonal_pattern(self):
        pattern = np.array([[0.0, 1.0, 1.0, -1.0],
                            [-1.0, 0.0, 1.0, -1.0],
                            [1.0, -1.0, 0.0, 1.0],
                            [1.0, -1.0, -1.0, 0.0]])
        rng = np.random.default_rng(0)
        for _ in range(5):
            cfg = random_config(rng)
            M = mode_matrix(int(rng.integers(1, 9)), cfg,
                               rng.uniform(-4, 4))
            off = M - np.diag(np.diag(M))
            assert np.array_equal(off, pattern)
            assert M[0, 1] == 1.0 and M[1, 0] == -1.0

    def test_singular_at_bifurcation_speed(self):
        cfg = pc.classify_config([-1, 1, -1, 1])
        M = mode_matrix(1, cfg, SQRT5)
        assert abs(np.linalg.det(M)) < 1e-12


class TestDeterminant:
    def test_evaluation_identity(self):
        cfg = pc.classify_config([0, 1, 2, 3])
        assert np.polyval(pc.determinant_poly(1, cfg), 0.0) == pytest.approx(-6.0)

    def test_leading_coefficient(self):
        rng = np.random.default_rng(1)
        for m in (1, 3, 17):
            cfg = random_config(rng)
            assert pc.determinant_poly(m, cfg)[0] == pytest.approx(float(m) ** 8)

    def test_against_bruteforce_determinant(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cfg = random_config(rng)
            m = int(rng.integers(1, 65))
            c = rng.uniform(-5.0, 5.0)
            closed = np.polyval(pc.determinant_poly(m, cfg), c)
            brute = np.linalg.det(mode_matrix(m, cfg, c))
            assert closed == pytest.approx(brute, rel=1e-10)


class TestSpeeds:
    def test_symmetric_closed_form(self):
        cfg = pc.classify_config([-1, 1, -1, 1])
        speeds = pc.bifurcation_speeds(1, cfg)
        values = sorted(s.real_value() for s in speeds.speeds)
        assert values == pytest.approx([-SQRT5, -1.0, 1.0, SQRT5])
        assert speeds.admissible() == pytest.approx([-SQRT5, SQRT5])
        assert all(s.multiplicity == 1 for s in speeds.speeds)

    def test_successive_double_root(self):
        # a_+^2 = a_-^1 and a_+^1 = a_-^2: both double roots sit at 1
        for a in ([0, 1, 1, 2], [1, 2, 0, 1]):
            speeds = pc.bifurcation_speeds(1, pc.classify_config(a))
            assert len(speeds.speeds) == 3
            double = [s for s in speeds.speeds if s.multiplicity == 2]
            assert len(double) == 1
            assert double[0].real_value() == pytest.approx(1.0)
            assert not double[0].admissible
            assert speeds.admissible() == pytest.approx([1.0 - SQRT3,
                                                         1.0 + SQRT3])

    @pytest.mark.parametrize("m", [1, 2, 5, 16, 64])
    def test_closed_forms_match_quartic_roots(self, m):
        # companion eigenvalues split double roots by ~sqrt(eps); the
        # cluster mean recovers them to ~1e-14, so compare collapsed roots
        for a in ([-1, 1, -1, 1], [0, 1, 1, 2], [1, 2, 0, 1]):
            cfg = pc.classify_config(a)
            closed = sorted(s.real_value() for s in pc.bifurcation_speeds(m, cfg).speeds
                            for _ in range(s.multiplicity))
            numeric = np.sort(pc.quartic_roots(m, cfg).real)
            collapsed = list(numeric)
            for i, (lo, hi) in enumerate(zip(numeric[:-1], numeric[1:])):
                if hi - lo < 1e-6:
                    mid = 0.5 * (lo + hi)
                    collapsed[i] = collapsed[i + 1] = mid
            assert np.max(np.abs(np.array(closed) - collapsed)) < 1e-10

    def test_generic_real_simple_roots(self, gen_cfg):
        speeds = pc.bifurcation_speeds(8, gen_cfg)
        assert sum(s.multiplicity for s in speeds.speeds) == 4
        assert len(speeds.admissible()) == 4
        assert all(s.provenance == "quartic-root" for s in speeds.speeds)

    def test_generic_asymptotic_rate(self, gen_cfg):
        # quartic roots converge to the interface velocities at rate m^-2
        targets = np.sort(gen_cfg.as_array())
        ms = np.array([8, 16, 32, 64, 128, 256])
        errs = [np.max(np.abs(np.sort(pc.quartic_roots(m, gen_cfg).real) - targets))
                for m in ms]
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.1)

    def test_symmetric_monotone_speed_brackets(self):
        cfg = pc.classify_config([-1, 1, -1, 1])
        lows, highs = [], []
        for m in range(1, 257):
            lo, hi = pc.bifurcation_speeds(m, cfg).admissible()
            lows.append(lo)
            highs.append(hi)
        assert np.all(np.diff(lows) > 0) and lows[-1] < -1.0
        assert np.all(np.diff(highs) < 0) and highs[-1] > 1.0

    def test_speed_set_json(self):
        cfg = pc.classify_config([-1, 1, -1, 1])
        obj = pc.bifurcation_speeds(2, cfg).to_json()
        assert obj["regime"] == "symmetric"
        assert len(obj["speeds"]) == 4
        assert {"c", "multiplicity", "admissible", "provenance"} <= set(obj["speeds"][0])


class TestKernelVectors:
    def test_symmetric_closed_values(self):
        cfg = pc.classify_config([-1, 1, -1, 1])
        v = pc.kernel_vector(1, cfg, SQRT5)
        lo = (SQRT5 - 1.0) / 4.0   # 1/(1+sqrt5)
        hi = (SQRT5 + 1.0) / 4.0   # 1/(sqrt5-1)
        assert v == pytest.approx([-lo, -hi, lo, hi])
        w = pc.cokernel_vector(1, cfg, SQRT5)
        assert w == pytest.approx([-lo, hi, lo, -hi])

    def test_null_vector_property_random_configs(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 10:
            cfg = random_config(rng)
            if cfg.regime != "generic":
                continue
            m = min_admissible_mode(cfg, 64)
            for c in pc.bifurcation_speeds(m, cfg).admissible():
                M = mode_matrix(m, cfg, c)
                v = pc.kernel_vector(m, cfg, c)
                w = pc.cokernel_vector(m, cfg, c)
                bound = 1e-12 * np.linalg.norm(M, 2)
                assert np.linalg.norm(M @ v) <= bound * np.linalg.norm(v)
                assert np.linalg.norm(M.T @ w) <= bound * np.linalg.norm(w)
                # numerical rank 3 by singular values
                sv = np.linalg.svd(M, compute_uv=False)
                assert sv[2] > 1e-6 * sv[0] and sv[3] < 1e-10 * sv[0]
            checked += 1

    def test_kernel_aligns_with_svd_nullspace(self):
        cfg = pc.classify_config([-1, 1, -1, 1])
        for c in pc.bifurcation_speeds(3, cfg).admissible():
            M = mode_matrix(3, cfg, c)
            _, _, vt = np.linalg.svd(M)
            null = vt[-1]
            v = pc.kernel_vector(3, cfg, c)
            cosang = abs(np.dot(null, v)) / np.linalg.norm(v)
            assert np.arccos(min(cosang, 1.0)) < 1e-8

    def test_cokernel_annihilates_range(self):
        rng = np.random.default_rng(8)
        cfg = pc.classify_config([0, 1, 1, 2])
        c = 1.0 + SQRT3
        M = mode_matrix(1, cfg, c)
        w = pc.cokernel_vector(1, cfg, c)
        for _ in range(20):
            y = rng.standard_normal(4)
            assert abs(np.dot(w, M @ y)) < 1e-12 * np.linalg.norm(y) * 10

    def test_degenerate_speed_rejected(self):
        cfg = pc.classify_config([-1, 1, -1, 1])
        with pytest.raises(DegenerateSpeedError):
            pc.kernel_vector(1, cfg, 1.0)


class TestTransversality:
    def test_symmetric_hand_value(self):
        cfg = pc.classify_config([-1, 1, -1, 1])
        assert pc.transversality(1, cfg, SQRT5) == pytest.approx(-SQRT5 / 2.0,
                                                                 abs=1e-12)

    def test_sign_flips_between_speed_pair(self):
        cfg = pc.classify_config([-1, 1, -1, 1])
        for m in (1, 2, 7):
            lo, hi = pc.bifurcation_speeds(m, cfg).admissible()
            assert pc.transversality(m, cfg, lo) * pc.transversality(m, cfg, hi) < 0

    def test_nonzero_at_admissible_speeds(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            cfg = random_config(rng)
            if cfg.regime != "generic":
                continue
            m = min_admissible_mode(cfg, 64)
            for c in pc.bifurcation_speeds(m, cfg).admissible():
                assert abs(pc.transversality(m, cfg, c)) > 1e-10


class TestModeScan:
    def test_generic_scan_verified_by_roots(self, gen_cfg):
        m = min_admissible_mode(gen_cfg, 64)
        roots = pc.quartic_roots(m, gen_cfg)
        assert np.all(np.abs(roots.imag) < 1e-9)
        re = np.sort(roots.real)
        assert np.min(np.diff(re)) > 1e-8
        if m > 1:  # every smaller mode must genuinely fail
            for mm in range(1, m):
                rr = pc.quartic_roots(mm, gen_cfg)
                ok = (np.all(np.abs(rr.imag) < 1e-9 * (1 + np.abs(rr.real)))
                      and np.min(np.diff(np.sort(rr.real))) > 1e-8
                      and np.min(np.abs(rr.real[:, None]
                                        - gen_cfg.as_array()[None, :])) > 1e-8)
                assert not ok

    def test_symmetric_every_mode_admissible(self):
        cfg = pc.classify_config([-1, 1, -1, 1])
        for m in range(1, 33):
            assert len(pc.bifurcation_speeds(m, cfg).admissible()) == 2

    def test_symmetric_speed_near_an_interface_is_inadmissible(self):
        # at m = 10^6 the closed-form pair lies 2e-12 from the interfaces
        # +-1, inside the near-interface tolerance of every regime
        cfg = pc.classify_config([-1, 1, -1, 1])
        speeds = pc.bifurcation_speeds(10 ** 6, cfg)
        assert len(speeds.speeds) == 4
        assert speeds.admissible() == []

    def test_cap_zero_errors(self, gen_cfg):
        with pytest.raises(NoAdmissibleModeError):
            min_admissible_mode(gen_cfg, 0)


@pytest.mark.parametrize("W", [1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_two_or_four_solution_branches(W, m):
    # the abstract's "two or four solution branches", by geometry and
    # mode: on the layers (0, w, delta w, delta w + w), W = w m^2, mode m
    # has four admissible speeds for 0 < delta < 1 and for delta >= 1.03
    # delta*, delta*^2 = 1 + 8/W, and two at delta = 0 (symmetric), at
    # delta = 1 (successive) and for 1 < delta <= 0.97 delta* where that
    # interval is not empty (W below about 127); the band around delta*
    # is left out here, and delta* located by the two tests below
    w = W / m ** 2
    star = float(np.sqrt(1.0 + 8.0 / W))
    top = 0.97 * star
    four = [0.05, 0.5, 0.95, 0.999, 1.03 * star, 2.0 * star, 10.0 * star]
    two = [0.0, 1.0]
    if top > 1.001:
        two += [1.001, 0.5 * (1.0 + top), top]
    for delta, count in [(d, 4) for d in four] + [(d, 2) for d in two]:
        cfg = pc.classify_config((0.0, w, delta * w, delta * w + w))
        assert len(pc.bifurcation_speeds(m, cfg).admissible()) == count, \
            delta


def _admissible(W, delta):
    """The layer (0, W, delta W, delta W + W) and its admissible mode-1
    speeds, ascending."""
    cfg = pc.classify_config((0.0, W, delta * W, delta * W + W))
    return cfg, pc.bifurcation_speeds(1, cfg).admissible()


@pytest.mark.parametrize("W", [1.0, 10.0, 100.0])
def test_pair_collision_is_at_the_closed_form(W):
    # delta*, where two admissible speeds of mode 1 collide and leave the
    # real axis, found by bisection on the admissible count between a
    # layer with two and one with four, is sqrt(1 + 8/W) within 1e-9
    star = float(np.sqrt(1.0 + 8.0 / W))
    lo, hi = 0.5 * (1.0 + star), 2.0 * star
    assert (len(_admissible(W, lo)[1]), len(_admissible(W, hi)[1])) == (2, 4)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if len(_admissible(W, mid)[1]) == 4:
            hi = mid
        else:
            lo = mid
    assert abs(lo - star) <= 1e-9 and abs(hi - star) <= 1e-9


@pytest.mark.parametrize("W", [1.0, 10.0, 100.0])
def test_colliding_pair_transversality_decays_as_a_square_root(W):
    # past delta*, the two speeds born there are the closest admissible
    # pair, and each one's |transversality| falls like (delta - delta*)^p:
    # p, fitted over delta - delta* = 1e-8..1e-3, within 0.01 of 1/2
    star = float(np.sqrt(1.0 + 8.0 / W))
    gaps = np.logspace(-8.0, -3.0, 11)
    pairs = []
    for gap in gaps:
        cfg, speeds = _admissible(W, star + gap)
        i = int(np.argmin(np.diff(speeds)))
        pairs.append([abs(pc.transversality(1, cfg, c))
                      for c in speeds[i:i + 2]])
    for magnitude in np.transpose(pairs):
        p = np.polyfit(np.log(gaps), np.log(magnitude), 1)[0]
        assert abs(p - 0.5) <= 0.01
