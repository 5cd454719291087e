import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from layerwaves import continuation as ct
from layerwaves import localbranch as lb
from layerwaves import pencil as pc
from layerwaves import spectral as sp
from layerwaves import steady as st
from layerwaves.errors import CannotStartError, CorrectionFailedError
from layerwaves.spectral import NormParams

from oracle import (block_jacobian, copying_gmres, from_vector, restart,
                    two_step_linearization)

SQRT5 = float(np.sqrt(5.0))


def make_constraint(count, ds=0.0):
    tangent = np.zeros(1 + 4 * count)
    tangent[0] = 1.0
    base = np.zeros(1 + 4 * count)
    return ct.ArclengthConstraint(tangent, base, ds)


class TestNewtonCorrect:
    def test_exact_solution_returned_immediately(self, sym_cfg):
        n = 8
        z = st.InterfaceState.zero(1, n)
        tangent = np.zeros(1 + 4 * n)
        tangent[0] = 1.0
        base = np.concatenate([[0.3], np.zeros(4 * n)])
        constraint = ct.ArclengthConstraint(tangent, base, 0.0)
        sol, iters = ct.newton_correct(sym_cfg, (0.3, z), constraint, 1, n)
        assert iters == 0
        assert sol.c == 0.3
        assert sol.residual_norm == 0.0

    def test_accepted_point_reuses_its_residual(self, sym_expansion, sym_cfg,
                                                monkeypatch):
        # the residual of the converged state is evaluated once: on four
        # rows by the Newton loop, and not again to bundle the solution;
        # on the plus rows of the fixed space by the bundling, as the
        # loop's residual of those rows is not the embedded state's bit
        # for bit.  The recorded sup is that of the returned state, bit
        # for bit
        calls = []
        residual = st.Layout.residual

        def counted(layout, c, rows, out=None, grid=None):
            calls.append((float(c), rows.copy()))
            return residual(layout, c, rows, out, grid)

        monkeypatch.setattr(st.Layout, "residual", counted)
        n = 16
        c_g, state_g = lb.predictor(sym_expansion, 1e-2, count=n)
        u0 = np.concatenate([[c_g], state_g.as_vector()])
        constraint = ct.ArclengthConstraint(u0 / np.linalg.norm(u0), u0, 0.0)
        for four_rows in (False, True):
            if four_rows:
                monkeypatch.setattr(st, "on_fixed_space",
                                    lambda cfg, *cos: False)
            calls.clear()
            sol, iters = ct.newton_correct(sym_cfg, (c_g, state_g),
                                           constraint, 1, n)
            assert iters >= 1
            assert {len(rows) for _, rows in calls} == (
                {4} if four_rows else {2, 4})
            assert sum(c == sol.c and np.array_equal(rows, sol.state.cos)
                       for c, rows in calls) == 1
            assert sol.residual_norm == float(np.max(np.abs(
                st.residual_vector(sym_cfg, sol.c, sol.state))))

    def test_quadratic_convergence_from_predictor(self, sym_expansion, sym_cfg):
        n = 16
        c_g, state_g = lb.predictor(sym_expansion, 1e-2, count=n)
        u0 = np.concatenate([[sym_expansion.c_star], np.zeros(4 * n)])
        tangent = np.zeros(1 + 4 * n)
        for i in range(4):
            tangent[1 + i * n] = sym_expansion.kernel_vec[i]
        tangent /= np.linalg.norm(tangent)
        ds = float(np.dot(tangent,
                          np.concatenate([[c_g], state_g.as_vector()]) - u0))
        constraint = ct.ArclengthConstraint(tangent, u0, ds)
        sol, iters = ct.newton_correct(sym_cfg, (c_g, state_g), constraint,
                                       1, n)
        assert sol.residual_norm <= 1e-11
        assert iters <= 5  # superlinear from an O(s^2)-accurate guess

    def test_non_finite_guess_rejected(self, sym_cfg):
        # newton_correct's own check is the one guard: states built from
        # arrays are not checked, so a NaN coefficient reaches it
        n = 4
        zero = st.InterfaceState.zero(1, n)
        with pytest.raises(CorrectionFailedError, match="non-finite guess"):
            ct.newton_correct(sym_cfg, (np.inf, zero), make_constraint(n),
                              1, n)
        cos = np.zeros((4, n))
        cos[2, 1] = np.nan
        bad = st.InterfaceState.from_arrays(1, cos)
        with pytest.raises(CorrectionFailedError, match="non-finite guess"):
            ct.newton_correct(sym_cfg, (1.0, bad), make_constraint(n), 1, n)

    def test_singular_dense_solve_fails_the_correction(self, sym_expansion,
                                                      sym_cfg):
        # a zero arclength tangent leaves the bordered matrix a zero row
        n = 16
        zero = ct.ArclengthConstraint(np.zeros(1 + 4 * n), np.zeros(1 + 4 * n),
                                      0.0)
        with pytest.raises(CorrectionFailedError,
                           match="^correction-failed: Singular matrix$"):
            ct.newton_correct(sym_cfg, lb.predictor(sym_expansion, 1e-2,
                                                    count=n), zero, 1, n)

    def test_gmres_step_at_a_zero_of_q_fails_the_correction(self, sym_cfg):
        # at c = a_plus1 the trivial state has q = 0 on a whole row: the
        # transport preconditioner divides by it, so the GMRES step is
        # not finite, and no dense solve is tried in its place
        n = ct.KRYLOV_MIN_COUNT
        zero = st.InterfaceState.zero(1, n)
        with pytest.raises(CorrectionFailedError,
                           match="^correction-failed: non-finite GMRES step$"):
            ct.newton_correct(sym_cfg, (-1.0, zero),
                              make_constraint(n, ds=0.5), 1, n)

    def test_overflowing_trials_are_damped_without_warnings(self, sym_cfg):
        # a border row of 1e-200 asks for a coefficient step near 1e200:
        # every trial residual overflows, and damping gives up quietly
        n = 8
        rng = np.random.default_rng(12)
        state = from_vector(
            1, n, 0.01 * rng.standard_normal(4 * n))
        tangent = np.zeros(1 + 4 * n)
        tangent[1] = 1e-200
        constraint = ct.ArclengthConstraint(tangent, np.zeros(1 + 4 * n), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CorrectionFailedError, match="damping"):
                ct.newton_correct(sym_cfg, (1.0, state), constraint, 1, n)


class TestBranch:
    def test_points_satisfy_invariants(self, sym_branch_pair, branch_options):
        plus, minus = sym_branch_pair
        for branch in (plus, minus):
            svals = [p.s for p in branch.points]
            assert all(np.diff(svals) > 0)  # arclength strictly increases
            for p in branch.points:
                assert p.solution.residual_norm <= branch_options.newton_tol
                assert p.solution.monitors[0] > 0
                assert p.solution.monitors[1] > 0
                sol = p.solution
                n_k = p.compact_index
                assert n_k >= 1
                assert min(sol.monitors) >= 1.0 / n_k - 1e-12
                assert abs(sol.c) <= n_k
                # the point's norm is its state's, computed once
                assert p.norm == sol.state.norm(branch_options.norm_params)
                assert p.norm <= n_k
                # the reported n is the smallest such integer
                if n_k > 1:
                    bad = (min(sol.monitors) < 1.0 / (n_k - 1)
                           or abs(sol.c) > n_k - 1 or p.norm > n_k - 1)
                    assert bad

    def test_small_amplitude_curvature_fit(self, sym_branch_pair,
                                           sym_expansion):
        plus, _ = sym_branch_pair
        amps, speeds = [], []
        for p in plus.points:
            s_amp = p.solution.state.series[0].cos[0] / sym_expansion.kernel_vec[0]
            if abs(s_amp) <= 1e-2:
                amps.append(s_amp)
                speeds.append(p.solution.c)
        assert len(amps) >= 4
        coeffs = np.polyfit(np.array(amps) ** 2,
                            np.array(speeds) - sym_expansion.c_star, 1)
        fitted = 2.0 * coeffs[0]
        assert fitted == pytest.approx(sym_expansion.speed_curvature, rel=0.05)

    def test_arms_are_shift_partners(self, sym_branch_pair):
        plus, minus = sym_branch_pair
        assert len(plus.points) == len(minus.points)
        for p, q in zip(plus.points, minus.points):
            assert p.solution.c == pytest.approx(q.solution.c, abs=1e-9)
            mirrored = p.solution.state.shifted(np.pi / plus.origin.m)
            dev = np.max(np.abs(mirrored.as_vector()
                                - q.solution.state.as_vector()))
            assert dev <= 1e-9

    def test_jacobian_regular_along_branch(self, sym_branch_pair):
        # rank deficiency is 1 exactly at onset and 0 on the branch
        plus, _ = sym_branch_pair
        sol = plus.points[8].solution
        J = st.jacobian(sol.cfg, sol.c, sol.state)
        sv = np.linalg.svd(J, compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]

    def test_termination_recorded(self, sym_branch_pair):
        plus, _ = sym_branch_pair
        assert plus.termination != ct.RUNNING
        assert plus.termination.kind in (ct.LOOP, ct.BLOW_UP, ct.COLLISION,
                                         ct.DEGENERACY, ct.STEP_LIMIT)

    def test_restart_reproduces_tail(self, sym_branch_pair, branch_options,
                                     default_plus_arms):
        # stepping is deterministic: a restart repeats the tail bit for
        # bit, across the N doublings (dense solves on the N = 48 arm,
        # GMRES on the default arm from before its first doubling at 64)
        plus, _ = sym_branch_pair
        krylov, _ = default_plus_arms
        for branch, k, opts in ((plus, 6, branch_options),
                                (krylov, 15, None)):
            redo = restart(branch, k, opts)
            assert len(redo.points) == len(branch.points) - k
            assert redo.termination.label() == branch.termination.label()
            assert branch.points[-1].solution.state.count > (
                branch.points[k].solution.state.count)
            for p, q in zip(branch.points[k:], redo.points):
                assert p.s == q.s
                assert p.solution.c == q.solution.c
                assert np.array_equal(p.solution.state.cos,
                                      q.solution.state.cos)

    def test_cannot_start_when_first_correction_fails(self, sym_cfg):
        # a corrupted origin produces a non-finite first predictor, and
        # the failure is reported as cannot-start rather than a step halve
        fake = lb.LocalExpansion(
            m=1, cfg=sym_cfg, c_star=SQRT5,
            kernel_vec=np.array([1.0, 1.0, -1.0, -1.0]),
            cokernel_vec=np.array([1.0, -1.0, -1.0, 1.0]),
            recip_sq=np.ones(4), second_harmonic_amp=np.zeros(4),
            speed_curvature=np.nan, pitchfork="supercritical",
            nearest_component=0)
        with pytest.raises(CannotStartError):
            ct.trace_arm(fake, +1, ct.ContinuationOptions(count=8, s0=1e-3))


def _fabricate_point(cfg, c, state, monitors, s, count):
    sol = st.WaveSolution(cfg, c, state, 0.0, monitors)
    return ct.BranchPoint(s=s, solution=sol,
                          tangent=np.zeros(1 + 4 * count), next_step=1e-3,
                          newton_iters=1, compact_index=1,
                          norm=state.norm(NormParams()))


class TestTerminationTaxonomy:
    def _branch(self, cfg, points):
        origin = lb.local_expansion(1, cfg, SQRT5)
        opts = ct.ContinuationOptions(count=4, s0=1e-3, max_points=50)
        return ct.Branch(points=points, origin=origin, arm=+1,
                         termination=ct.RUNNING, options=opts)

    def test_loop_detected(self, sym_cfg):
        n = 4
        z = st.InterfaceState.zero(1, n)
        start = _fabricate_point(sym_cfg, 2.0, z, (1.0, 1.0), 0.0, n)
        mid = _fabricate_point(sym_cfg, 2.5, z, (1.0, 1.0), 0.05, n)
        back = _fabricate_point(sym_cfg, 2.0 + 1e-12, z, (1.0, 1.0), 0.1, n)
        branch = self._branch(sym_cfg, [start, mid, back])
        report = ct.detect_termination(branch)
        assert report.kind == ct.LOOP
        assert report.period == pytest.approx(0.1)

    def test_loop_distance_norm_only_near_a_return(self, sym_cfg,
                                                   monkeypatch):
        # the loop distance is |c - c_0| plus a state norm: the norm is
        # formed only once |c - c_0| is within LOOP_TOL, and the loop
        # still fires on a return
        calls = []
        norm = ct.sp.norm

        def spy(*args):
            calls.append(args)
            return norm(*args)

        monkeypatch.setattr(ct.sp, "norm", spy)
        n = 4
        z = st.InterfaceState.zero(1, n)
        start = _fabricate_point(sym_cfg, 2.0, z, (1.0, 1.0), 0.0, n)
        mid = _fabricate_point(sym_cfg, 2.5, z, (1.0, 1.0), 0.05, n)
        for c, kind, norms in ((2.1, ct.RUNNING, 0), (2.0, ct.LOOP, 1)):
            end = _fabricate_point(sym_cfg, c, z, (1.0, 1.0), 0.1, n)
            calls.clear()
            report = ct.detect_termination(
                self._branch(sym_cfg, [start, mid, end]))
            assert getattr(report, "kind", report) == kind
            assert len(calls) == norms

    def test_collision_detected(self, sym_cfg):
        n = 4
        z = st.InterfaceState.zero(1, n)
        pts = [_fabricate_point(sym_cfg, 2.0, z, (1.0, 1.0), 0.0, n),
               _fabricate_point(sym_cfg, 2.1, z, (5e-7, 1.0), 0.01, n)]
        assert ct.detect_termination(self._branch(sym_cfg, pts)).kind == ct.COLLISION

    def test_degeneracy_detected(self, sym_cfg):
        n = 4
        z = st.InterfaceState.zero(1, n)
        pts = [_fabricate_point(sym_cfg, 2.0, z, (1.0, 1.0), 0.0, n),
               _fabricate_point(sym_cfg, 2.1, z, (1.0, 1e-7), 0.01, n)]
        assert ct.detect_termination(self._branch(sym_cfg, pts)).kind == ct.DEGENERACY

    def test_blow_up_detected(self, sym_cfg):
        n = 4
        z = st.InterfaceState.zero(1, n)
        pts = [_fabricate_point(sym_cfg, 2.0, z, (1.0, 1.0), 0.0, n),
               _fabricate_point(sym_cfg, 2e6, z, (1.0, 1.0), 0.01, n)]
        assert ct.detect_termination(self._branch(sym_cfg, pts)).kind == ct.BLOW_UP

    def test_step_limit_detected(self, sym_cfg):
        n = 4
        z = st.InterfaceState.zero(1, n)
        pts = [_fabricate_point(sym_cfg, 2.0 + 0.1 * i, z, (1.0, 1.0),
                                0.01 * i, n) for i in range(50)]
        assert ct.detect_termination(self._branch(sym_cfg, pts)).kind == ct.STEP_LIMIT

    def test_simultaneous_triggers_reported_together(self, sym_cfg):
        n = 4
        z = st.InterfaceState.zero(1, n)
        pts = [_fabricate_point(sym_cfg, 2.0, z, (1.0, 1.0), 0.0, n),
               _fabricate_point(sym_cfg, 2.1, z, (5e-7, 5e-7), 0.01, n)]
        report = ct.detect_termination(self._branch(sym_cfg, pts))
        assert report.kind == ct.COLLISION
        assert ct.DEGENERACY in report.also
        assert "collision" in report.label() and "degeneracy" in report.label()

    def test_flat_branch_never_collides(self, sym_cfg):
        # the trivial branch keeps the full strip width for every speed
        n = 4
        z = st.InterfaceState.zero(1, n)
        pts = []
        for i in range(10):
            c = 0.1 * i
            sol = st.solution_at(sym_cfg, c, z)
            assert sol.monitors[0] == pytest.approx(sym_cfg.width)
            pts.append(ct.BranchPoint(s=0.01 * i, solution=sol,
                                      tangent=np.zeros(1 + 4 * n),
                                      next_step=1e-3, newton_iters=1,
                                      compact_index=1, norm=0.0))
        report = ct.detect_termination(self._branch(sym_cfg, pts))
        assert report == ct.RUNNING


def test_one_point_budget_stops_at_the_first_point(sym_expansion):
    branch = ct.trace_arm(sym_expansion, +1,
                          ct.ContinuationOptions(max_points=1))
    assert len(branch.points) == 1
    assert branch.termination.label() == ct.STEP_LIMIT


def test_tail_guard_doubles_truncation(sym_expansion):
    # push far enough that the analytic tail outgrows a deliberately
    # small truncation: the loop must re-correct at doubled counts
    opts = ct.ContinuationOptions(count=8, max_points=26, max_count=32)
    branch = ct.trace_arm(sym_expansion, +1, opts)
    counts = {p.solution.state.count for p in branch.points}
    assert 8 in counts
    assert max(counts) > 8


def test_fixed_truncation_asks_for_no_tail_test(sym_expansion, monkeypatch):
    # with max_count == count N cannot double, so no accepted point
    # weighs its tail; an arm that may double still does
    calls = []
    tail_heavy = ct._tail_heavy

    def spy(*args):
        calls.append(args)
        return tail_heavy(*args)

    monkeypatch.setattr(ct, "_tail_heavy", spy)
    branch = ct.trace_arm(sym_expansion, +1, ct.ContinuationOptions(
        count=16, max_count=16, max_points=12))
    assert len(branch.points) == 12 and calls == []
    ct.trace_arm(sym_expansion, +1, ct.ContinuationOptions(
        count=8, max_count=16, max_points=3))
    assert calls


def test_infinite_norm_ends_arm_as_blow_up(sym_expansion):
    # the weight j^200 overflows once the truncation doubles past 8: the
    # point lies in no K_n, and the arm stops as blow-up instead of raising
    with np.errstate(over="ignore", invalid="ignore"):
        branch = ct.trace_arm(sym_expansion, +1, ct.ContinuationOptions(
            count=8, max_points=3, norm_params=NormParams(100.0, 0.1)))
    assert branch.termination.kind == ct.BLOW_UP
    assert branch.points[-1].compact_index == np.inf


def _op(matrix, precondition=lambda v: v):
    """The op(v, z, out) of ct._gmres: writes z = precondition(v) and
    matrix @ z into out."""
    def op(v, z, out):
        z[:] = precondition(v)
        np.matmul(matrix, z, out=out)
    return op


def _copying_gmres(op, rhs, tol, max_iters):
    """ct._gmres solved by the reference copying_gmres, whose op(v, z)
    returns A z as a fresh array."""
    def returning(v, z):
        out = np.empty_like(v)
        op(v, z, out)
        return out
    return copying_gmres(returning, rhs, tol, max_iters)


def test_gmres_stops_at_an_exact_breakdown():
    # the identity makes the first Arnoldi vector vanish: GMRES returns
    # b in one iteration instead of dividing 0 by 0; a singular operator
    # that annihilates b ends with x = 0
    b = np.array([1.0, -1.0, 1.0, -1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, k = ct._gmres(_op(np.eye(5)), b, 1e-13, 10)
        assert k == 1 and np.array_equal(x, b)
        singular = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
        x, k = ct._gmres(_op(singular), np.eye(5)[4], 1e-13, 10)
        assert k == 0 and np.array_equal(x, np.zeros(5))


def test_gmres_matches_dense_solve():
    # nonsymmetric, diagonally dominant, Jacobi-preconditioned: at most
    # 40 iterations to a true residual of 1e-12 relative
    rng = np.random.default_rng(60)
    n = 40
    A = rng.uniform(-1, 1, (n, n)) + np.diag(rng.uniform(n, 2 * n, n))
    b = rng.standard_normal(n)
    x, k = ct._gmres(_op(A, lambda v: v / np.diag(A)), b,
                     1e-14 * np.linalg.norm(b), n)
    assert k <= n
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    want = np.linalg.solve(A, b)
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


def test_gmres_is_flexible():
    # a diagonal preconditioner that changes on every call: x is the
    # combination of the preconditioned vectors GMRES kept, not P applied
    # to a combination of Arnoldi vectors, so it still solves A x = b
    rng = np.random.default_rng(62)
    n = 40
    A = rng.uniform(-1, 1, (n, n)) + np.diag(rng.uniform(n, 2 * n, n))
    b = rng.standard_normal(n)
    calls = []

    def precondition(v):
        calls.append(v)
        return v / (np.diag(A) * (1.0 + 0.5 * (-1) ** len(calls)))

    x, k = ct._gmres(_op(A, precondition), b, 1e-14 * np.linalg.norm(b), n)
    assert 2 <= k == len(calls) <= n
    want = np.linalg.solve(A, b)
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("max_iters", [40, 7])
@pytest.mark.parametrize("seed, flexible", [(60, False), (62, True)],
                         ids=["jacobi", "flexible"])
def test_gmres_builds_the_reference_basis_in_place(seed, flexible,
                                                   max_iters):
    # the systems of the two tests above, to convergence and cut at 7
    # iterations: the basis built in place gives the reference's x and
    # iteration count bit for bit
    rng = np.random.default_rng(seed)
    n = 40
    A = rng.uniform(-1, 1, (n, n)) + np.diag(rng.uniform(n, 2 * n, n))
    b = rng.standard_normal(n)
    tol = 1e-14 * np.linalg.norm(b)

    def op():
        calls = []

        def precondition(v):
            calls.append(v)
            if not flexible:
                return v / np.diag(A)
            return v / (np.diag(A) * (1.0 + 0.5 * (-1) ** len(calls)))

        return _op(A, precondition)

    x, k = ct._gmres(op(), b, tol, max_iters)
    want, want_k = _copying_gmres(op(), b, tol, max_iters)
    assert k == want_k and (k == 7) == (max_iters == 7)
    assert np.array_equal(x, want)


@pytest.mark.parametrize("share, accepted", [(0.5, True), (2.0, False)])
def test_krylov_step_accepts_a_miss_far_below_newton_tol(sym_cfg,
                                                         monkeypatch, share,
                                                         accepted):
    # GMRES is replaced by the exact solve plus an error whose true
    # residual is share times the floor KRYLOV_TOL_SHARE * tol = 1e-14.
    # At a Newton residual of 1e-10, KRYLOV_TRUE_TOL alone refuses both
    # misses; the floor accepts the one below it in the first cycle, and
    # the other fails the step after two cycles, naming its miss
    rng = np.random.default_rng(61)
    n, tol = 16, 1e-11
    layout = st.Layout(sym_cfg, 1, n)
    rows = 0.01 * rng.standard_normal((4, n))
    col = (layout.w * rows).ravel()
    tangent = rng.standard_normal(1 + 4 * n)
    tangent /= np.linalg.norm(tangent)
    res = rng.standard_normal(1 + 4 * n)
    res *= 1e-10 / np.linalg.norm(res)
    miss = share * ct.KRYLOV_TOL_SHARE * tol
    assert miss > 1e3 * ct.KRYLOV_TRUE_TOL * np.linalg.norm(res)

    def off_by_miss(op, rhs, tol, max_iters):
        # column i of A P is op(e_i), and row i of Z is P e_i
        Z, AP = np.empty((2, rhs.size, rhs.size))
        for e, z, out in zip(np.eye(rhs.size), Z, AP):
            op(e, z, out)
        AP = AP.T
        off = rng.standard_normal(rhs.size)
        return Z.T @ np.linalg.solve(AP, rhs + miss * off
                                     / np.linalg.norm(off)), 3

    monkeypatch.setattr(ct, "_gmres", off_by_miss)
    args = (layout, 2.5, rows, col, tangent, res, tol)
    if accepted:
        step, iters = ct._krylov_step(*args)
        assert iters == 3 and np.max(np.abs(step)) > 0.0
    else:
        with pytest.raises(CorrectionFailedError, match=r"^correction-"
                           r"failed: GMRES stalled at true residual "
                           r"2\.000e-14 after 6 iterations$"):
            ct._krylov_step(*args)


@pytest.mark.parametrize("symmetric", [True, False], ids=["k2", "k4"])
def test_bordered_operator_is_a_times_p(sym_cfg, monkeypatch, symmetric):
    # the GMRES operator of a Krylov step writes z = P v, the transport
    # inverse bordered by the c column and the arclength row, and returns
    # A z for the dense bordered matrix A; its arclength entry is v's own
    # last entry, bit for bit
    rng = np.random.default_rng(63)
    n = ct.KRYLOV_MIN_COUNT
    layout = st.Layout(sym_cfg, 1, n, symmetric)
    k, c = layout.k, 2.2
    rows = 0.05 * rng.uniform(-1, 1, (k, n)) * np.exp(-0.2 * np.arange(n))
    col = (layout.w * rows).ravel()
    tangent = rng.standard_normal(1 + k * n)
    tangent /= np.linalg.norm(tangent)
    res = 1e-6 * rng.standard_normal(1 + k * n)
    ops = []
    gmres = ct._gmres

    def keep_op(op, rhs, tol, max_iters):
        ops.append(op)
        return gmres(op, rhs, tol, max_iters)

    monkeypatch.setattr(ct, "_gmres", keep_op)
    ct._krylov_step(layout, c, rows, col, tangent, res, 1e-11)
    A = np.empty((1 + k * n, 1 + k * n))
    A[:-1, 0] = col
    A[:-1, 1:] = layout.jacobian(c, rows)
    A[-1] = tangent
    _, precondition = two_step_linearization(layout, c, rows)
    z_col = precondition(col.reshape(k, n)).ravel()
    for v in rng.standard_normal((3, 1 + k * n)):
        z, out = np.empty((2, v.size))
        ops[0](v, z, out)
        assert out[-1] == v[-1]
        y = precondition(v[:-1].reshape(k, n)).ravel()
        y_c = (v[-1] - tangent[1:] @ y) / (tangent[0] - tangent[1:] @ z_col)
        want = np.concatenate([[y_c], y - y_c * z_col])
        assert np.max(np.abs(z - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(out - A @ z)) <= 1e-12 * np.max(np.abs(out))


def test_gmres_operator_allocates_no_grid_array(sym_cfg, monkeypatch):
    # after a warm-up, one application of the GMRES operator at N = 256
    # on two rows writes P v and A P v into GMRES's rows and the
    # transforms' outputs into work arrays: its traced peak stays below
    # the 16 KiB of one (2, 4N) grid array, which the transforms would
    # allocate with each output
    rng = np.random.default_rng(64)
    n = 256
    layout = st.Layout(sym_cfg, 1, n, True)
    k, c = layout.k, 2.2
    rows = 0.05 * rng.uniform(-1, 1, (k, n)) * np.exp(-0.2 * np.arange(n))
    col = (layout.w * rows).ravel()
    tangent = rng.standard_normal(1 + k * n)
    tangent /= np.linalg.norm(tangent)
    ops = []
    gmres = ct._gmres

    def keep_op(op, rhs, tol, max_iters):
        ops.append(op)
        return gmres(op, rhs, tol, max_iters)

    monkeypatch.setattr(ct, "_gmres", keep_op)
    ct._krylov_step(layout, c, rows, col, tangent,
                    1e-6 * rng.standard_normal(1 + k * n), 1e-11)
    v = rng.standard_normal(1 + k * n)
    z, out = np.empty((2, v.size))
    ops[0](v, z, out)
    tracemalloc.start()
    try:
        ops[0](v, z, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * k * sp.PRODUCT_GRID_FACTOR * n == 16384


class _Forward:
    """Attribute proxy: overrides first, everything else from `base`."""

    def __init__(self, base, **overrides):
        self.__dict__.update(overrides)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


def _refuse(*args, **kwargs):
    raise AssertionError("dense bordered solve")


@pytest.fixture(scope="module")
def default_plus_arms(sym_expansion):
    """The default + arm (N 64 to 256) by GMRES and by dense solves."""
    opts = ct.ContinuationOptions()
    krylov = ct.trace_arm(sym_expansion, +1, opts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ct, "KRYLOV_MIN_COUNT", 10 ** 9)
        dense = ct.trace_arm(sym_expansion, +1, opts)
    return krylov, dense


def test_krylov_step_matches_the_reference_gmres(default_plus_arms,
                                                 monkeypatch):
    # the first Krylov step of the correction from the default arm's
    # third-to-last point, at N = 256, replayed, is the step the
    # correction took, and gives the reference GMRES's step and
    # iteration count bit for bit
    krylov, _ = default_plus_arms
    start = krylov.points[-3]
    sol = start.solution
    fold, count = sol.state.fold, sol.state.count
    layout = st.Layout.shared(sol.cfg, fold, count)
    u = layout.stack(sol.c, sol.state.cos)
    c, rows = layout.unstack(u + start.next_step * start.tangent)
    steps = []
    krylov_step = ct._krylov_step

    def keep(*args):
        # the last argument, the accepted residual's grid values, is a
        # buffer that later trials of the correction overwrite
        saved = args[:-1] + (args[-1].copy(),)
        taken = krylov_step(*args)
        steps.append((saved, taken))
        return taken

    monkeypatch.setattr(ct, "_krylov_step", keep)
    ct.newton_correct(sol.cfg, (c, st.InterfaceState.from_arrays(fold, rows)),
                      ct.ArclengthConstraint(start.tangent, u,
                                             start.next_step),
                      fold, count)
    args, taken = steps[0]
    assert count == 256 and args[0].w.size == count
    step, iters = krylov_step(*args)
    assert np.array_equal(step, taken[0]) and iters == taken[1]
    monkeypatch.setattr(ct, "_gmres", _copying_gmres)
    want, want_iters = krylov_step(*args)
    assert iters == want_iters > 0
    assert np.array_equal(step, want)


def closed_form_monitors(sol):
    """(min strip gap, min relative speed) of a wave on a symmetric
    branch from its six monitored rows (steady.monitors) at x = 0 and
    x = pi/m alone, where each row of an even wave of period 2 pi/m
    takes its extrema: per row the smaller |value| of the two, or 0
    where the row changes sign between them."""
    u, cfg = sol.state.cos, sol.cfg
    rows = np.concatenate(([u[1] - u[0], u[3] - u[2]], u))
    offsets = np.concatenate([[cfg.width, cfg.width], cfg.as_array() - sol.c])
    at_zero = rows.sum(axis=1) + offsets
    # cos(j m x) at x = pi/m is (-1)^j
    at_half = rows @ (-1.0) ** np.arange(1, u.shape[1] + 1) + offsets
    best = np.where(at_zero * at_half < 0.0, 0.0,
                    np.minimum(np.abs(at_zero), np.abs(at_half)))
    return best[:2].min(), best[2:].min()


def test_monitors_are_the_closed_form_on_the_default_arm(default_plus_arms):
    # on every point of the default + arm (N 64 to 256) the monitors, a
    # grid minimum with one Newton polish, are the closed form at x = 0
    # and x = pi/m to round-off
    krylov, _ = default_plus_arms
    assert krylov.points[-1].solution.state.count == 256
    for p in krylov.points:
        got, want = p.solution.monitors, closed_form_monitors(p.solution)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


class TestKrylovNewton:
    def test_krylov_arm_matches_dense_arm(self, default_plus_arms):
        krylov, dense = default_plus_arms
        assert krylov.termination.label() == dense.termination.label()
        assert len(krylov.points) == len(dense.points)
        assert krylov.points[-1].solution.state.count == 256
        for p, q in zip(krylov.points, dense.points):
            assert p.newton_iters == q.newton_iters
            assert abs(p.s - q.s) <= 1e-12 * abs(q.s)
            assert abs(p.solution.c - q.solution.c) <= 1e-12 * abs(q.solution.c)
            assert p.solution.dense_solves == 0
            assert p.solution.krylov_iters >= p.newton_iters
            assert q.solution.krylov_iters == 0
            assert q.solution.dense_solves == q.newton_iters

    def test_residual_norm_is_the_residual_of_the_point(self,
                                                         default_plus_arms,
                                                         sym_cfg):
        for p in default_plus_arms[0].points:
            sol = p.solution
            assert sol.residual_norm == float(np.max(np.abs(
                st.residual_vector(sym_cfg, sol.c, sol.state))))

    def _correction(self, branch, k):
        """Guess and constraint of one predictor step off point k - 1."""
        prev = branch.points[k - 1]
        sol = prev.solution
        u = np.concatenate([[sol.c], sol.state.as_vector()])
        constraint = ct.ArclengthConstraint(prev.tangent, u, prev.next_step)
        guess = u + prev.next_step * prev.tangent
        count = sol.state.count
        return ((guess[0], from_vector(1, count, guess[1:])),
                constraint, count)

    def test_stalled_gmres_fails_the_correction(self, default_plus_arms,
                                                sym_cfg, monkeypatch):
        # with one GMRES iteration per cycle the step stalls: the
        # correction fails, naming the stall, and neither solves densely
        # nor forms the Jacobian; the spies do see a dense correction
        krylov, _ = default_plus_arms
        guess, constraint, count = self._correction(krylov, 12)
        assert count >= ct.KRYLOV_MIN_COUNT
        sol, iters = ct.newton_correct(sym_cfg, guess, constraint, 1, count)
        assert sol.dense_solves == 0 and iters >= 1
        calls = []

        def spy(name, f):
            def called(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return called

        monkeypatch.setattr(ct, "np", _Forward(np, linalg=_Forward(
            np.linalg, solve=spy("solve", np.linalg.solve))))
        monkeypatch.setattr(st.Layout, "jacobian",
                            spy("jacobian", st.Layout.jacobian))
        with monkeypatch.context() as mp:
            mp.setattr(ct, "KRYLOV_MAX_ITERS", 1)
            with pytest.raises(CorrectionFailedError, match=r"^correction-"
                               r"failed: GMRES stalled at true residual "
                               r"\d\.\d{3}e[-+]\d+ after 2 iterations$"):
                ct.newton_correct(sym_cfg, guess, constraint, 1, count)
        assert calls == []
        monkeypatch.setattr(ct, "KRYLOV_MIN_COUNT", 10 ** 9)
        dense, dense_iters = ct.newton_correct(sym_cfg, guess, constraint, 1,
                                               count)
        assert dense.dense_solves == dense_iters >= 1
        assert calls == ["jacobian", "solve"] * dense_iters

    def test_large_truncation_needs_no_dense_matrix(self, default_plus_arms,
                                                    sym_cfg, monkeypatch):
        # a resolved state padded to N = 512 and pushed off the branch is
        # corrected without the (4N+1)^2 matrix: the dense solve and the
        # Jacobian refuse to run, and the peak allocation stays far below
        # the 34 MB that matrix takes
        krylov, _ = default_plus_arms
        sol = krylov.points[15].solution
        n = 512
        rng = np.random.default_rng(50)
        cos = sol.state.with_count(n).cos.copy()
        cos[:, :8] += 1e-6 * rng.standard_normal((4, 8))
        tangent = np.zeros(1 + 4 * n)
        tangent[0] = 1.0
        constraint = ct.ArclengthConstraint(
            tangent, np.concatenate([[sol.c], np.zeros(4 * n)]), 0.0)
        monkeypatch.setattr(ct, "np", _Forward(np, linalg=_Forward(
            np.linalg, solve=_refuse)))
        monkeypatch.setattr(st.Layout, "jacobian", _refuse)
        tracemalloc.start()
        try:
            got, iters = ct.newton_correct(
                sym_cfg, (sol.c, st.InterfaceState.from_arrays(1, cos)),
                constraint, 1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iters >= 1 and got.dense_solves == 0 and got.krylov_iters > 0
        assert got.residual_norm <= 1e-11
        assert abs(got.c - sol.c) <= 1e-14 * abs(sol.c)
        assert np.max(np.abs(got.state.cos[:, :sol.state.count]
                             - sol.state.cos)) <= 1e-9
        assert peak < 0.1 * 8 * (4 * n + 1) ** 2


def test_stalled_corrections_accept_no_degenerate_point():
    # the m = 3 arm of a scan layer: at N = 256 the correction toward a
    # degenerate, unresolved state (m2 below 1e-6, norm above 1e13) has
    # a GMRES step that misses the acceptance floor, so it fails and the
    # step is halved; every point comes from GMRES alone, and the arm
    # ends with no degeneracy
    cfg = pc.classify_config((-1.183, 1.183, -1.183, 1.183))
    origin = lb.local_expansion(3, cfg,
                                pc.bifurcation_speeds(3, cfg).admissible()[0])
    arm = ct.trace_arm(origin, +1, ct.ContinuationOptions(max_points=40))
    assert arm.points[-1].solution.state.count == 256
    assert all(p.solution.dense_solves == 0 for p in arm.points)
    report = arm.termination
    assert ct.DEGENERACY not in (report.kind, *report.also)
    assert arm.points[-1].solution.monitors[1] > ct.DEGENERACY_TOL


# (layer, fold, options) of arms, at the highest admissible speed, whose
# - arm is checked against the half-period image of the + arm: the
# default arm (GMRES, N 64 -> 256), a dense N = 16 arm, the symmetric
# m = 3 arm (GMRES, N 64 -> 256, its last corrections near a degenerate
# state), a generic layer, and a symmetric arm at N = 32, whose monitor
# grid of 512 points is the last one of table products
# (spectral.TABLE_MAX_SIZE)
MIRROR_CASES = {
    "default": ((-1.0, 1.0, -1.0, 1.0), 1, ct.ContinuationOptions()),
    "dense-16": ((-1.0, 1.0, -1.0, 1.0), 1,
                 ct.ContinuationOptions(count=16, max_count=16,
                                        max_points=20)),
    "sym-m3": ((-1.0, 1.0, -1.0, 1.0), 3,
               ct.ContinuationOptions(count=64, max_points=11)),
    "generic": ((0.0, 1.0, 2.5, 3.5), 1,
                ct.ContinuationOptions(count=16, max_points=12)),
    "table-edge": ((-2.0, 0.5, -2.0, 0.5), 1,
                   ct.ContinuationOptions(count=32, max_count=32)),
}


def _origin(a, m):
    cfg = pc.classify_config(a)
    return lb.local_expansion(m, cfg, pc.bifurcation_speeds(m, cfg)
                              .admissible()[-1])


@pytest.fixture(scope="module", params=list(MIRROR_CASES))
def mirror_arms(request):
    """(+ arm, traced - arm, image - arm) of one MIRROR_CASES entry."""
    a, m, opts = MIRROR_CASES[request.param]
    origin = _origin(a, m)
    plus = ct.trace_arm(origin, +1, opts)
    return (plus, ct.trace_arm(origin, -1, opts),
            ct.trace_arm(origin, -1, opts, plus=plus))


class TestMirroredArm:
    def test_image_matches_the_traced_arm(self, mirror_arms):
        _, traced, image = mirror_arms
        assert image.arm == -1
        assert image.termination.label() == traced.termination.label()
        assert len(image.points) == len(traced.points)
        for p, q in zip(traced.points, image.points):
            scale = max(abs(p.solution.c), p.solution.state.max_abs())
            assert abs(p.solution.c - q.solution.c) <= 1e-12 * scale
            assert q.solution.state.count == p.solution.state.count
            assert np.max(np.abs(p.solution.state.cos
                                 - q.solution.state.cos)) <= 1e-12 * scale

    def test_image_points_are_checked_shifts(self, mirror_arms):
        # the state is the + state shifted by pi/m, which flips the signs
        # of the odd harmonics; its residual is its own, and the monitors
        # it carries over from the + point are its own too
        plus, _, image = mirror_arms
        m = plus.origin.m
        for p, q in zip(plus.points, image.points):
            sol = q.solution
            assert np.array_equal(
                sol.state.cos, p.solution.state.shifted(np.pi / m).cos)
            assert sol.c == p.solution.c
            sup = float(np.max(np.abs(st.residual_vector(sol.cfg, sol.c,
                                                         sol.state))))
            assert sol.residual_norm == sup <= image.options.newton_tol
            assert sol.monitors == st.monitors(sol.cfg, sol.c, sol.state)
            odd = np.tile(np.arange(1, sol.state.count + 1) % 2 == 1, 4)
            assert np.array_equal(q.tangent[1:][odd], -p.tangent[1:][odd])
            assert np.array_equal(q.tangent[1:][~odd], p.tangent[1:][~odd])
            assert q.tangent[0] == p.tangent[0]
            assert (q.s, q.norm, q.compact_index, q.next_step,
                    q.newton_iters) == (p.s, p.norm, p.compact_index,
                                        p.next_step, p.newton_iters)
            assert (sol.krylov_iters, sol.dense_solves) == (
                p.solution.krylov_iters, p.solution.dense_solves)
        assert image.termination == plus.termination


def test_unconverged_image_falls_back_to_tracing():
    # a + point pushed off the branch fails its image's residual check:
    # the whole - arm is then traced, bit for bit as without plus=
    a, m, opts = MIRROR_CASES["dense-16"]
    origin = _origin(a, m)
    plus = ct.trace_arm(origin, +1, opts)
    bad = plus.points[5]
    cos = bad.solution.state.cos.copy()
    cos[0, 0] += 1e-6
    moved = replace(bad, solution=replace(
        bad.solution, state=st.InterfaceState.from_arrays(m, cos)))
    plus.points[5] = moved
    got = ct.trace_arm(origin, -1, opts, plus=plus)
    want = ct.trace_arm(origin, -1, opts)
    assert got.termination.label() == want.termination.label()
    assert len(got.points) == len(want.points)
    for p, q in zip(want.points, got.points):
        assert p.solution.c == q.solution.c
        assert np.array_equal(p.solution.state.cos, q.solution.state.cos)
        assert p.solution.residual_norm == q.solution.residual_norm


def test_plus_must_match_origin_and_options(sym_expansion):
    opts = ct.ContinuationOptions(count=16, max_points=3)
    plus = ct.trace_arm(sym_expansion, +1, opts)
    for arm, other in ((+1, opts), (-1, replace(opts, newton_tol=1e-12))):
        with pytest.raises(ValueError, match="same origin and options"):
            ct.trace_arm(sym_expansion, arm, other, plus=plus)


def test_restart_from_an_image_point_reproduces_its_tail(sym_expansion):
    # traced from a mirrored point (GMRES, across the doublings to 256),
    # the tail agrees with the image tail to round-off
    opts = ct.ContinuationOptions()
    image = ct.trace_arm(sym_expansion, -1, opts,
                         plus=ct.trace_arm(sym_expansion, +1, opts))
    k = 15
    redo = restart(image, k)
    assert redo.termination.label() == image.termination.label()
    assert len(redo.points) == len(image.points) - k
    assert image.points[-1].solution.state.count > (
        image.points[k].solution.state.count)
    for p, q in zip(image.points[k:], redo.points):
        assert q.solution.state.count == p.solution.state.count
        assert abs(p.solution.c - q.solution.c) <= 1e-9
        assert np.max(np.abs(p.solution.state.cos
                             - q.solution.state.cos)) <= 1e-9


# (layer, fold, options) of symmetric arms at the highest admissible
# speed, traced on the plus rows of the fixed space and on all four rows:
# the default arm, m = 2, the m = 3 arm whose last corrections, near a
# degenerate state, stall GMRES more often on four rows than on two, and
# a layer of other velocities
FIXED_SPACE_CASES = {
    "default": ((-1.0, 1.0, -1.0, 1.0), 1, ct.ContinuationOptions()),
    "m2": ((-1.0, 1.0, -1.0, 1.0), 2, ct.ContinuationOptions()),
    "m3": ((-1.0, 1.0, -1.0, 1.0), 3,
           ct.ContinuationOptions(count=64, max_points=11)),
    "a2": ((-2.0, 0.5, -2.0, 0.5), 1, ct.ContinuationOptions()),
}
# the symmetric layers of the benchmark's scan-small workload
SCAN_LAYERS = [(-1.741, 1.741, -1.741, 1.741), (-1.467, 1.467, -1.467, 1.467),
               (-0.524, 0.524, -0.524, 0.524), (-0.592, 0.592, -0.592, 0.592),
               (-0.634, 0.634, -0.634, 0.634), (-1.183, 1.183, -1.183, 1.183)]


def _trace_on_four_rows(origin, arm, opts):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(st, "on_fixed_space", lambda cfg, *cos: False)
        return ct.trace_arm(origin, arm, opts)


def _assert_same_arm(got, want):
    assert got.termination.label() == want.termination.label()
    assert len(got.points) == len(want.points)
    for p, q in zip(got.points, want.points):
        assert p.newton_iters == q.newton_iters
        assert p.solution.state.count == q.solution.state.count
        scale = max(abs(q.s), abs(q.solution.c), q.solution.state.max_abs())
        assert abs(p.s - q.s) <= 1e-12 * scale
        assert abs(p.solution.c - q.solution.c) <= 1e-12 * scale
        assert np.max(np.abs(p.solution.state.cos
                             - q.solution.state.cos)) <= 1e-12 * scale


@pytest.mark.parametrize("case", list(FIXED_SPACE_CASES))
def test_fixed_space_arm_matches_the_four_row_arm(case):
    a, m, opts = FIXED_SPACE_CASES[case]
    origin = _origin(a, m)
    _assert_same_arm(ct.trace_arm(origin, +1, opts),
                     _trace_on_four_rows(origin, +1, opts))


def test_scan_arms_match_four_row_arms():
    opts = ct.ContinuationOptions(count=16, max_count=16, max_points=12)
    arms = 0
    for a in SCAN_LAYERS:
        cfg = pc.classify_config(a)
        for m in (1, 2, 3):
            for c_star in pc.bifurcation_speeds(m, cfg).admissible():
                origin = lb.local_expansion(m, cfg, c_star)
                _assert_same_arm(ct.trace_arm(origin, +1, opts),
                                 _trace_on_four_rows(origin, +1, opts))
                arms += 1
    assert arms == 36


def test_four_rows_off_the_fixed_space(monkeypatch):
    # a layer symmetric within the classification tolerance but not bit
    # for bit, and a guess off the fixed space, are solved on four rows;
    # Newton asks for one layout, and solution_at four rows after two
    rows = []
    shared = st.Layout.shared

    def spy(cfg, fold, count, symmetric=False):
        rows.append(2 if symmetric else 4)
        return shared(cfg, fold, count, symmetric)

    monkeypatch.setattr(st.Layout, "shared", spy)
    opts = ct.ContinuationOptions(count=16, max_points=6)
    near = _origin((-1.0, 1.0, -1.0 + 1e-13, 1.0 + 1e-13), 1)
    assert near.cfg.regime == pc.SYMMETRIC
    arm = ct.trace_arm(near, +1, opts)
    assert len(arm.points) == 6 and set(rows) == {4}
    for p in arm.points:
        assert p.solution.residual_norm <= opts.newton_tol
    sym = _origin((-1.0, 1.0, -1.0, 1.0), 1)
    c, state = lb.predictor(sym, 1e-2, count=16)
    u0 = np.concatenate([[c], state.as_vector()])
    constraint = ct.ArclengthConstraint(u0 / np.linalg.norm(u0), u0, 0.0)
    rows.clear()
    ct.newton_correct(sym.cfg, (c, state), constraint, 1, 16)
    assert rows == [2, 4]
    cos = state.cos.copy()
    cos[3, 2] = 1e-9
    rows.clear()
    sol, iters = ct.newton_correct(
        sym.cfg, (c, st.InterfaceState.from_arrays(1, cos)), constraint, 1, 16)
    assert rows == [4] and iters >= 1
    assert sol.residual_norm <= 1e-11


def test_gmres_correction_makes_no_jacobian_index(
        sym_expansion, sym_cfg, jacobian_index_makers, monkeypatch):
    # a correction that never forms the dense Jacobian makes no index
    # tables; a dense one makes them once, whatever its number of solves
    made = jacobian_index_makers
    n = 64
    c, state = lb.predictor(sym_expansion, 1e-2, count=n)
    u0 = np.concatenate([[c], state.as_vector()])
    constraint = ct.ArclengthConstraint(u0 / np.linalg.norm(u0), u0, 0.0)
    sol, iters = ct.newton_correct(sym_cfg, (c, state), constraint, 1, n)
    assert iters >= 1 and sol.dense_solves == 0 and made == []
    monkeypatch.setattr(ct, "KRYLOV_MIN_COUNT", 10 ** 9)
    sol, iters = ct.newton_correct(sym_cfg, (c, state), constraint, 1, n)
    assert sol.dense_solves == iters >= 2
    assert made == [st.Layout.shared(sym_cfg, 1, n, True)]


def test_dense_correction_does_not_depend_on_the_jacobian_assembly(
        monkeypatch):
    # Newton from a predictor step of a generic N = 16 arm, with the
    # Jacobian as assembled and as the block-by-block oracle: the same
    # bits throughout
    origin = _origin((0.0, 1.0, 2.5, 3.5), 1)
    arm = ct.trace_arm(origin, +1, ct.ContinuationOptions(count=16,
                                                          max_points=6))
    prev = arm.points[-1]
    sol = prev.solution
    u = np.concatenate([[sol.c], sol.state.as_vector()])
    ds = 2.0 * prev.next_step
    guess = u + ds * prev.tangent
    args = (origin.cfg, (guess[0], from_vector(1, 16, guess[1:])),
            ct.ArclengthConstraint(prev.tangent, u, ds), 1, 16)
    want, want_iters = ct.newton_correct(*args)

    calls = []

    def oracle(layout, c, rows, out):
        calls.append(c)
        out[:-1, 1:] = block_jacobian(origin.cfg, 1, c, rows)
        return out[:-1, 1:]

    monkeypatch.setattr(st.Layout, "jacobian", oracle)
    got, iters = ct.newton_correct(*args)
    assert want_iters == iters >= 2 and want.dense_solves == iters
    assert len(calls) == iters
    assert got.dense_solves == want.dense_solves
    assert got.c == want.c
    assert np.array_equal(got.state.cos, want.state.cos)
    assert got.residual_norm == want.residual_norm


def test_dense_iterations_allocate_no_matrix(gen_cfg, monkeypatch):
    # the Jacobian is filled in place in the correction's one bordered
    # matrix: from one dense solve to the next, an iteration's trial
    # residuals, c column and Jacobian allocate less than one (kN, kN)
    # matrix at peak (four rows, N = 16: 32 KiB; they read about 18 KiB)
    n = 16
    origin = lb.local_expansion(1, gen_cfg, pc.bifurcation_speeds(
        1, gen_cfg).admissible()[0])
    c, state = lb.predictor(origin, 0.2, count=n)
    u0 = np.concatenate([[c], state.as_vector()])
    constraint = ct.ArclengthConstraint(u0 / np.linalg.norm(u0), u0, 0.0)
    args = (gen_cfg, (c, state), constraint, 1, n)
    ct.newton_correct(*args)  # the layout's index tables are made
    peaks, mark = [], [0]
    solve = np.linalg.solve

    def spy_solve(A, b):
        peaks.append(tracemalloc.get_traced_memory()[1] - mark[0])
        x = solve(A, b)
        tracemalloc.reset_peak()
        mark[0] = tracemalloc.get_traced_memory()[0]
        return x

    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    tracemalloc.start()
    try:
        sol, iters = ct.newton_correct(*args)
    finally:
        tracemalloc.stop()
    assert iters == sol.dense_solves == len(peaks) >= 3
    assert max(peaks[1:]) < 8 * (4 * n) ** 2
