"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single PASS line once its assertions hold, so a
verbose run doubles as the acceptance report.
"""

import numpy as np

from layerwaves import continuation as ct
from layerwaves import dynamics as dy
from layerwaves import eulerpoisson as ep
from layerwaves import localbranch as lb
from layerwaves import pencil as pc
from layerwaves import spectral as sp
from layerwaves import steady as st

from conftest import wave_at_amplitude
from oracle import hamiltonian_field, mode_matrix

SQRT5 = float(np.sqrt(5.0))


def report(n, text):
    print(f"\nACCEPTANCE {n:2d}: PASS - {text}")


def random_config(rng):
    lo1, lo2 = rng.uniform(-3.0, 3.0, 2)
    width = rng.uniform(0.2, 2.0)
    return pc.classify_config([lo1, lo1 + width, lo2, lo2 + width])


def test_criterion_01_determinant_vs_bruteforce():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        cfg = random_config(rng)
        m = int(rng.integers(1, 65))
        c = rng.uniform(-5.0, 5.0)
        closed = np.polyval(pc.determinant_poly(m, cfg), c)
        brute = np.linalg.det(mode_matrix(m, cfg, c))
        rel = abs(closed - brute) / max(abs(brute), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-10
    report(1, f"determinant closed form vs brute force, 100 samples, "
              f"worst rel {worst:.2e} <= 1e-10")


def _collapsed(numeric):
    out = list(numeric)
    for i in range(len(out) - 1):
        if out[i + 1] - out[i] < 1e-6:
            mid = 0.5 * (out[i] + out[i + 1])
            out[i] = out[i + 1] = mid
    return np.array(out)


def test_criterion_02_closed_form_speeds():
    worst = 0.0
    for a, cardinality in (([-1, 1, -1, 1], 4), ([0, 1, 1, 2], 3)):
        cfg = pc.classify_config(a)
        for m in range(1, 33):
            speeds = pc.bifurcation_speeds(m, cfg)
            assert len(speeds.speeds) == cardinality
            assert sum(s.multiplicity for s in speeds.speeds) == 4
            if cardinality == 3:
                assert max(s.multiplicity for s in speeds.speeds) == 2
            closed = sorted(s.real_value() for s in speeds.speeds
                            for _ in range(s.multiplicity))
            numeric = _collapsed(np.sort(pc.quartic_roots(m, cfg).real))
            dev = float(np.max(np.abs(np.array(closed) - numeric)))
            worst = max(worst, dev)
            assert dev <= 1e-10
    report(2, f"closed-form speeds match quartic roots for m=1..32, "
              f"worst abs dev {worst:.2e} <= 1e-10; cardinalities 4 and "
              f"3 (double root)")


def test_criterion_03_kernel_cokernel_nullity():
    worst = 0.0
    for a in ([-1, 1, -1, 1], [0, 1, 1, 2]):
        cfg = pc.classify_config(a)
        for m in range(1, 33):
            for c in pc.bifurcation_speeds(m, cfg).admissible():
                M = mode_matrix(m, cfg, c)
                scale = np.linalg.norm(M, 2)
                v = pc.kernel_vector(m, cfg, c)
                w = pc.cokernel_vector(m, cfg, c)
                rv = np.linalg.norm(M @ v) / (scale * np.linalg.norm(v))
                rw = np.linalg.norm(M.T @ w) / (scale * np.linalg.norm(w))
                worst = max(worst, rv, rw)
                assert rv <= 1e-12 and rw <= 1e-12
    report(3, f"kernel/cokernel residuals at all admissible speeds, "
              f"worst {worst:.2e} <= 1e-12 relative")


def test_criterion_04_transversality_hand_value():
    cfg = pc.classify_config([-1, 1, -1, 1])
    value = pc.transversality(1, cfg, SQRT5)
    assert abs(value + SQRT5 / 2.0) <= 1e-12
    report(4, f"transversality at the symmetric upper speed: {value:.12f} "
              f"= -sqrt(5)/2 within 1e-12")


def test_criterion_05_generic_speed_asymptotics():
    cfg = pc.classify_config([0.0, 1.0, 2.5, 3.5])
    targets = cfg.as_array()
    ms = np.array([8, 16, 32, 64, 128, 256])
    errors = np.empty((len(ms), 4))
    for row, m in enumerate(ms):
        roots = np.sort(pc.quartic_roots(m, cfg).real)
        errors[row] = np.abs(roots - np.sort(targets))
    slopes = [np.polyfit(np.log(ms), np.log(errors[:, k]), 1)[0]
              for k in range(4)]
    for slope in slopes:
        assert abs(slope + 2.0) <= 0.1
    report(5, "speed gaps to interface velocities decay with log-log "
              f"slopes {['%.3f' % s for s in slopes]} (all within -2 +- 0.1)")


def test_criterion_06_local_pitchfork(sym_expansion, sym_cfg,
                                      sym_branch_pair):
    # (a) predictor residual order
    svals = np.array([1e-2, 1e-3, 1e-4])
    sups = []
    for s in svals:
        c, state = lb.predictor(sym_expansion, float(s), count=8)
        sups.append(np.max(np.abs(st.residual_vector(sym_cfg, c, state))))
    order = np.polyfit(np.log(svals), np.log(sups), 1)[0]
    assert order >= 1.9

    # (b) continued branch curvature vs the local coefficient
    plus, _ = sym_branch_pair
    amps, speeds = [], []
    for p in plus.points:
        s_amp = p.solution.state.series[0].cos[0] / sym_expansion.kernel_vec[0]
        if abs(s_amp) <= 1e-2:
            amps.append(s_amp)
            speeds.append(p.solution.c)
    fitted = 2.0 * np.polyfit(np.array(amps) ** 2,
                              np.array(speeds) - sym_expansion.c_star, 1)[0]
    rel = abs(fitted / sym_expansion.speed_curvature - 1.0)
    assert rel <= 0.05

    # (c) super/subcritical classification vs the sign rule at m = 64
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 5:
        cfg = random_config(rng)
        if cfg.regime != "generic":
            continue
        a = cfg.as_array()
        for c_star in pc.bifurcation_speeds(64, cfg).admissible():
            expansion = lb.local_expansion(64, cfg, c_star)
            rule = ("supercritical" if c_star > a[expansion.nearest_component]
                    else "subcritical")
            assert expansion.pitchfork == rule
        checked += 1
    report(6, f"predictor residual order {order:.3f} >= 1.9; branch "
              f"curvature matches local coefficient to {100 * rel:.2f}% "
              f"(<= 5%); classification follows the sign rule on 5 "
              f"generic configs at m=64")


def test_criterion_07_pitchfork_arms_mirror(sym_branch_pair):
    plus, minus = sym_branch_pair
    worst = 0.0
    for p, q in zip(plus.points, minus.points):
        mirrored = p.solution.state.shifted(np.pi / plus.origin.m)
        dev = float(np.max(np.abs(mirrored.as_vector()
                                  - q.solution.state.as_vector())))
        dev = max(dev, abs(p.solution.c - q.solution.c))
        worst = max(worst, dev)
        assert dev <= 1e-9
    report(7, f"the two arms are half-period shift partners, worst "
              f"coefficient deviation {worst:.2e} <= 1e-9")


def test_criterion_08_hamiltonian_identity(sym_cfg):
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        state = dy.PhaseState(
            [sp.TrigSeries(2, 0.4 * rng.standard_normal(8),
                           0.4 * rng.standard_normal(8)) for _ in range(4)])
        direct = dy.rhs(sym_cfg, state)
        via_energy = hamiltonian_field(sym_cfg, state)
        scale = max(s.max_abs() for s in direct.series)
        dev = max(np.max(np.abs(a.cos - b.cos)) + np.max(np.abs(a.sin - b.sin))
                  for a, b in zip(direct.series, via_energy.series)) / scale
        worst = max(worst, dev)
        assert dev <= 1e-12
    report(8, f"evolution field equals the Hamiltonian field J grad E, "
              f"E's gradient by exact convolution, on 100 random states, "
              f"worst rel dev {worst:.2e} <= 1e-12")


def test_criterion_09_wave_propagation(sym_cfg, sym_branch_pair):
    plus, _ = sym_branch_pair
    sol = wave_at_amplitude(plus, 0.1 * sym_cfg.width)
    phase = dy.PhaseState.from_interface(sol.state)
    period = 2.0 * np.pi / (sol.state.fold * abs(sol.c))
    steps = max(int(np.ceil(period / (0.5 * dy.cfl_limit(sym_cfg, phase)))),
                600)
    traj = dy.evolve(sym_cfg, phase, period / steps, steps, store_every=steps)
    moved = [sp.shift(s, -sol.c * period) for s in sol.state.series]
    x = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    sup = max(np.max(np.abs(got.eval(x) - want.eval(x)))
              for got, want in zip(traj.states[-1].series, moved))
    drift = (abs(traj.energies[-1].e_total - traj.energies[0].e_total)
             / abs(traj.energies[0].e_total))
    assert sup <= 1e-6
    assert drift <= 1e-8
    report(9, f"wave of amplitude {sol.state.max_abs():.3f} propagated one "
              f"period: translation error {sup:.2e} <= 1e-6, energy drift "
              f"{drift:.2e} <= 1e-8")


def test_criterion_10_euler_poisson(sym_cfg, sym_branch_pair):
    # trivial map is exact
    trivial = ep.map_to_ep(sym_cfg, st.solution_at(
        sym_cfg, 0.0, st.InterfaceState.zero(1, 8)))
    assert trivial.cos.shape == (4, 8) and trivial.max_abs() == 0.0

    plus, _ = sym_branch_pair
    sol = wave_at_amplitude(plus, 0.1 * sym_cfg.width)
    mapped = ep.map_to_ep(sym_cfg, sol)
    _, sups = ep.ep_residual(mapped)
    assert max(sups.values()) <= 1e-8

    _, rep = ep.ep_speeds(1.0, 1)
    finding = (f"determinant roots match the closed form with correction "
               f"{rep['matched_form']} (deviation "
               f"{rep['deviations'][rep['matched_form']]:.1e}); the "
               f"alternative form deviates by "
               f"{max(rep['deviations'].values()):.3e}")
    report(10, f"trivial map exact; mapped wave residual "
               f"{max(sups.values()):.2e} <= 1e-8; finding: {finding}")


def test_criterion_11_termination_taxonomy(sym_cfg, sym_branch_pair):
    n = 4
    z = st.InterfaceState.zero(1, n)
    origin = lb.local_expansion(1, sym_cfg, SQRT5)
    opts = ct.ContinuationOptions(count=n, s0=1e-3, max_points=50)

    def point(c, monitors, s):
        sol = st.WaveSolution(sym_cfg, c, z, 0.0, monitors)
        return ct.BranchPoint(s=s, solution=sol,
                              tangent=np.zeros(1 + 4 * n), next_step=1e-3,
                              newton_iters=1, compact_index=1, norm=0.0)

    def branch(points):
        return ct.Branch(points=points, origin=origin, arm=+1,
                         termination=ct.RUNNING, options=opts)

    fixtures = {
        ct.LOOP: [point(2.0, (1, 1), 0.0), point(2.5, (1, 1), 0.05),
                  point(2.0, (1, 1), 0.1)],
        ct.COLLISION: [point(2.0, (1, 1), 0.0), point(2.1, (1e-7, 1), 0.01)],
        ct.DEGENERACY: [point(2.0, (1, 1), 0.0), point(2.1, (1, 1e-7), 0.01)],
        ct.BLOW_UP: [point(2e6, (1, 1), 0.0), point(3e6, (1, 1), 0.01)],
        ct.STEP_LIMIT: [point(2.0 + 0.01 * i, (1, 1), 0.01 * i)
                        for i in range(50)],
    }
    for expected, points in fixtures.items():
        got = ct.detect_termination(branch(points)).kind
        assert got == expected, f"{expected} fixture classified as {got}"

    plus, minus = sym_branch_pair
    taxonomy = {ct.LOOP, ct.BLOW_UP, ct.COLLISION, ct.DEGENERACY,
                ct.STEP_LIMIT}
    assert plus.termination.kind in taxonomy
    assert minus.termination.kind in taxonomy
    report(11, f"synthetic loop/collision/degeneracy/blow-up/step-limit "
               f"fixtures all classified; real arms ended with "
               f"'{plus.termination.label()}' and "
               f"'{minus.termination.label()}'")
