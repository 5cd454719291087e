"""Pseudo-arclength predictor-corrector continuation of wave branches.

The augmented unknown is u = (c, stacked cosine coefficients).  Each
step solves the residual together with a secant arclength constraint;
the step size adapts to Newton performance.  Termination is diagnosed
against the global-curve alternatives: loop, blow-up, boundary
collision, degeneracy, plus a step budget.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import localbranch as lb
from . import spectral as sp
from . import steady as st
from .errors import CannotStartError, CorrectionFailedError
from .spectral import NormParams

RUNNING = "running"
LOOP = "loop"
BLOW_UP = "blow_up"
COLLISION = "collision"
DEGENERACY = "degeneracy"
STEP_LIMIT = "step_limit"

GROWTH = 1.3                 # step-size growth factor
FAST_ITERS = 4               # grow the step when Newton is this fast
# Newton iterations before a correction fails: the most that a converging
# correction of the benchmark's arms takes (README)
MAX_NEWTON = 16
LOOP_TOL = 1e-8
BLOW_UP_CAP = 1e6
COLLISION_TOL = 1e-6
DEGENERACY_TOL = 1e-6
TAIL_FRACTION = 0.25         # share of the harmonics checked as the tail
TAIL_NORM_TOL = 1e-8         # double N when the tail exceeds this share
# Newton steps at N >= KRYLOV_MIN_COUNT go through GMRES.  One step of
# 10 GMRES iterations against one dense solve on four rows (2-core VM,
# 1 BLAS thread, best of 40 interleaved blocks, two runs): 0.49-0.71
# against 0.20-0.35 ms at N = 32, 0.69-0.70 against 0.90 ms at N = 64,
# where the default arm takes 4-10 iterations, and 1.75-1.78 against
# 31 ms at N = 256.
KRYLOV_MIN_COUNT = 64
KRYLOV_TOL = 1e-13           # GMRES stop, relative to the Newton residual
KRYLOV_TRUE_TOL = 1e-12      # true residual that accepts a GMRES step
KRYLOV_TOL_SHARE = 1e-3      # or a true residual this share of Newton's tol
KRYLOV_MAX_ITERS = 40        # per GMRES cycle; at most two cycles


@dataclass
class ContinuationOptions:
    count: int = 64              # harmonic truncation N
    s0: float = 1e-3             # initial kernel amplitude
    h_min: float = 1e-7
    h_max: float = 0.1
    newton_tol: float = 1e-11
    max_points: int = 200
    norm_params: NormParams = field(default_factory=NormParams)
    max_count: int = 256


@dataclass(frozen=True)
class ArclengthConstraint:
    """Hyperplane constraint <tangent, u - base> = ds."""

    tangent: np.ndarray
    base: np.ndarray
    ds: float

    def value(self, u):
        return float(np.dot(self.tangent, u - self.base) - self.ds)


@dataclass
class BranchPoint:
    s: float                     # accumulated arclength from onset
    solution: st.WaveSolution
    tangent: np.ndarray          # unit secant direction in (c, coeffs)
    next_step: float             # step size the loop would take next
    newton_iters: int
    compact_index: int           # smallest n with the point inside K_n
                                 # (inf if in none: an infinite norm)
    norm: float                  # (s, sigma) coefficient norm of the state


@dataclass
class Branch:
    points: list
    origin: lb.LocalExpansion
    arm: int                     # +1 or -1 kernel direction
    termination: object          # TerminationReport or RUNNING
    options: ContinuationOptions

    def csv_rows(self):
        """One row per point, keyed by column name."""
        rows = []
        for p in self.points:
            sol = p.solution
            rows.append({"s": p.s, "c": sol.c, "amp": sol.state.cos[0, 0],
                         "norm_s_sigma": p.norm,
                         "m1": sol.monitors[0], "m2": sol.monitors[1],
                         "n_K": p.compact_index,
                         "krylov_iters": sol.krylov_iters,
                         "dense_solves": sol.dense_solves})
        return rows


@dataclass(frozen=True)
class TerminationReport:
    kind: str
    also: tuple = ()
    period: float = 0.0

    def label(self):
        extra = f"+{'+'.join(self.also)}" if self.also else ""
        if self.kind == LOOP:
            return f"{LOOP}(period={self.period:.6g}){extra}"
        return self.kind + extra


def _gmres(op, rhs, tol, max_iters):
    """Flexible GMRES from x = 0 (Saad 1993; Saad & Schultz 1986).

    op(v, z, out) writes the preconditioned vector z = P v into z and A z
    into out, the next row of the Krylov basis, which is orthogonalized
    and normalized where it lies.  Each z_j is kept, and x = sum_j y_j
    z_j, so no preconditioner call follows the cycle.  Stops when the
    Arnoldi estimate of ||rhs - A x|| is at most tol, after max_iters,
    or when the new Arnoldi vector vanishes: then the Krylov space is
    invariant and x solves the system, unless the rotated Hessenberg
    column vanishes too (a singular operator).  Returns (x, iterations).
    Orthogonalizes by classical Gram-Schmidt twice, rotates each new
    Hessenberg column by Givens rotations on Python floats, and solves
    the small triangular system by back-substitution.
    """
    beta = float(np.linalg.norm(rhs))
    V = np.empty((max_iters + 1, rhs.size))
    Z = np.empty((max_iters, rhs.size))   # preconditioned vectors
    R = np.zeros((max_iters, max_iters))  # rotated Hessenberg, triangular
    rot = []                              # Givens (cos, sin)
    g = [beta]
    np.divide(rhs, beta, out=V[0])
    work = np.empty(rhs.size)             # a Gram-Schmidt projection
    k = 0
    while k < max_iters and abs(g[k]) > tol:
        v = V[k + 1]
        op(V[k], Z[k], v)
        basis = V[:k + 1]
        h = basis @ v
        v -= np.matmul(h, basis, out=work)
        h2 = basis @ v
        v -= np.matmul(h2, basis, out=work)
        col = (h + h2).tolist()
        below = math.sqrt(v @ v)
        for j, (cs, sn) in enumerate(rot):
            col[j], col[j + 1] = (cs * col[j] + sn * col[j + 1],
                                  cs * col[j + 1] - sn * col[j])
        rho = math.hypot(col[k], below)
        if rho == 0.0:
            break
        cs, sn = col[k] / rho, below / rho
        rot.append((cs, sn))
        col[k] = rho
        R[:k + 1, k] = col
        g.append(-sn * g[k])
        g[k] *= cs
        k += 1
        if below == 0.0:
            break
        v /= below
    y = np.zeros(k)
    for j in range(k - 1, -1, -1):
        y[j] = (g[j] - R[j, j + 1:k] @ y[j + 1:]) / R[j, j]
    return y @ Z[:k], k


def _krylov_step(layout, c, rows, col, tangent, res, tol, grid=None):
    """Newton step of the bordered system A by matrix-free GMRES.

    A acts on u = (c, carried rows) of the layout; col is its c column,
    tangent its arclength row.  Its preconditioner P is the transport
    inverse T of Layout.linearization, at the rows' product-grid values
    grid if given (Layout.residual), bordered by elimination: for
    v = (g, s), P v = (y_c, y - y_c z_col) with y = T g, z_col = T col
    and y_c solving the arclength row.  So A P v has the arclength entry
    s and the rows A y + y_c (col - A z_col), one preconditioned pass
    each, which writes y and A y into GMRES's rows z[1:] and out[:-1].
    The true residual is checked after the solve and, if it
    exceeds both KRYLOV_TRUE_TOL times ||res|| and KRYLOV_TOL_SHARE
    times Newton's tol, one more GMRES cycle runs on it: a miss far
    below tol is round-off that no Newton iteration would notice.
    Returns (step, GMRES iterations); raises CorrectionFailedError on a
    stall or a non-finite value, such as a zero of q_i.
    """
    shape = rows.shape
    iters = 0
    with np.errstate(all="ignore"):
        matvec, preconditioned = layout.linearization(c, rows, grid)
        t_c, t_h = tangent[0], tangent[1:]
        z_col, a_z_col = (x.ravel() for x in preconditioned(
            col.reshape(shape)))
        pivot = t_c - t_h @ z_col
        border = col - a_z_col
        work = np.empty_like(col)  # y_c z_col, then y_c border

        def op(v, z, out):
            y, a_y = z[1:], out[:-1]
            preconditioned(v[:-1].reshape(shape), y.reshape(shape),
                           a_y.reshape(shape))
            z[0] = y_c = (v[-1] - t_h @ y) / pivot
            y -= np.multiply(z_col, y_c, out=work)
            a_y += np.multiply(border, y_c, out=work)
            out[-1] = v[-1]

        def apply(x):
            out = np.empty_like(x)
            out[:-1] = x[0] * col + matvec(x[1:].reshape(shape)).ravel()
            out[-1] = tangent @ x
            return out

        target = np.linalg.norm(res)
        step = np.zeros_like(res)
        left = -res
        for _ in range(2):
            dx, k = _gmres(op, left, KRYLOV_TOL * target, KRYLOV_MAX_ITERS)
            iters += k
            step += dx
            left = -res - apply(step)
            miss = np.linalg.norm(left)
            if not np.isfinite(miss):
                raise CorrectionFailedError(
                    "correction-failed: non-finite GMRES step")
            if miss <= max(KRYLOV_TRUE_TOL * target, KRYLOV_TOL_SHARE * tol):
                return step, iters
    raise CorrectionFailedError(
        f"correction-failed: GMRES stalled at true residual {miss:.3e} "
        f"after {iters} iterations")


def newton_correct(cfg, guess, constraint, fold, count,
                   tol=ContinuationOptions.newton_tol):
    """Damped Newton on [residual; arclength constraint].

    The guess, tangent and base are all (c, four rows of N) vectors.

    Iterates on u = (c, carried rows) of one steady.Layout: the plus
    rows alone, 2N + 1 unknowns, if the guess, the constraint's tangent
    and its base lie on a symmetric layer's fixed space
    (steady.on_fixed_space), else all four rows.  The constraint is
    restated on u, and the residual rows are weighted by the layout's
    scale in the linear solves, so every inner product and norm is that
    of the 4N + 1 system.  From KRYLOV_MIN_COUNT harmonics on, each step
    is a matrix-free GMRES solve (_krylov_step), linearized at the
    product-grid values that the accepted residual wrote into the grid
    array kept beside its buffer; below it, a dense solve
    of the one bordered matrix (steady.Layout.bordered), whose couplings
    between rows and arclength row are written once, its c column and
    Jacobian blocks in place per step.  An overflowing trial shows as a
    non-finite sup and is damped.  The converged rows are embedded back
    into four.  Returns (WaveSolution, iterations); the solution records
    its GMRES iterations and dense solves.  Raises CorrectionFailedError
    on non-finite input, a GMRES stall or no convergence.
    """
    cos, t_cos, b_cos = (v[1:].reshape(4, count)
                         for v in (guess, constraint.tangent, constraint.base))
    layout = st.Layout.shared(cfg, fold, count,
                              st.on_fixed_space(cfg, cos, t_cos, b_cos))
    u = layout.stack(guess[0], cos)
    if not np.all(np.isfinite(u)):
        raise CorrectionFailedError("correction-failed: non-finite guess")
    constraint = ArclengthConstraint(
        layout.stack(constraint.tangent[0], t_cos),
        layout.stack(constraint.base[0], b_cos), constraint.ds)
    n = u.size - 1
    four_rows = n == 4 * count  # scale 1: the residual is its own rhs
    if not four_rows:
        weight = np.append(np.full(n, layout.scale), 1.0)
    krylov = count >= KRYLOV_MIN_COUNT
    if krylov:  # the rows' product-grid values beside res and res_t
        grid, grid_t = np.empty((2, layout.k, sp.PRODUCT_GRID_FACTOR * count))
    else:
        A = layout.bordered()  # the one bordered matrix of dense solves
        A[n, :] = constraint.tangent
        grid = grid_t = None
    krylov_iters = dense_solves = 0
    res_t = np.empty(n + 1)  # a trial's residual; swapped in on acceptance

    def full_residual(u, out, grid):
        """Write the residual at u into out and the rows' grid values
        into grid (None: not kept); return u's c and rows."""
        c, rows = layout.unstack(u)
        layout.residual(c, rows, out[:n].reshape(rows.shape), grid)
        out[n] = constraint.value(u)
        return c, rows

    with np.errstate(over="ignore", invalid="ignore"):
        res = np.empty(n + 1)
        c, rows = full_residual(u, res, grid)
        sup = np.abs(res).max()
        for it in range(MAX_NEWTON + 1):
            if sup <= tol or it == MAX_NEWTON:
                break
            col = (layout.w * u[1:].reshape(rows.shape)).ravel()  # c column
            rhs = res if four_rows else weight * res
            if krylov:
                step, k = _krylov_step(layout, c, rows, col,
                                       constraint.tangent, rhs, tol, grid)
                krylov_iters += k
            else:
                A[:n, 0] = col
                layout.jacobian(c, rows, A)
                dense_solves += 1
                try:
                    step = np.linalg.solve(A, -rhs)
                except np.linalg.LinAlgError as exc:
                    raise CorrectionFailedError(
                        f"correction-failed: {exc}") from exc
            lam = 1.0
            while True:
                trial = u + lam * step
                c_t, rows_t = full_residual(trial, res_t, grid_t)
                sup_t = np.abs(res_t).max()
                if np.isfinite(sup_t) and (sup_t < sup or lam <= 0.125):
                    break
                lam *= 0.5
                if lam < 1e-6:
                    raise CorrectionFailedError(
                        "correction-failed: damping exhausted")
            u, c, rows, sup = trial, c_t, rows_t, sup_t
            res, res_t = res_t, res
            grid, grid_t = grid_t, grid
    if sup <= tol:
        # the sup of the plus rows is not that of the four embedded rows
        # bit for bit, so solution_at forms the latter
        known = float(np.abs(res[:-1]).max()) if four_rows else None
        sol = st.solution_at(cfg, c, st.InterfaceState.from_arrays(
            fold, layout.embed(rows)), known)
        sol.krylov_iters, sol.dense_solves = krylov_iters, dense_solves
        return sol, it
    raise CorrectionFailedError(
        f"correction-failed: residual {sup:.3e} after {MAX_NEWTON} iterations")


def _compact_index(sol, norm):
    gap, slip = sol.monitors
    bound = max(1.0 / max(gap, 1e-300), 1.0 / max(slip, 1e-300),
                abs(sol.c), norm)
    if np.isinf(bound):  # detect_termination reads this as blow-up
        return bound
    return int(max(1, np.ceil(bound - 1e-12)))


def detect_termination(branch):
    """Classify the current branch end; first trigger wins, simultaneous
    triggers are reported together."""
    opts = branch.options
    at_limit = len(branch.points) >= opts.max_points
    if len(branch.points) < 2:
        return TerminationReport(STEP_LIMIT) if at_limit else RUNNING
    first = branch.points[0]
    last = branch.points[-1]
    sol = last.solution
    triggered = []
    traveled = last.s - first.s
    dc = abs(sol.c - first.solution.c)
    # the loop distance is dc plus a state norm >= 0: the norm is formed
    # only when dc alone is within LOOP_TOL
    if traveled >= 10.0 * opts.s0 and dc <= LOOP_TOL:
        n = max(sol.state.count, first.solution.state.count)
        diff = (sol.state.with_count(n).cos
                - first.solution.state.with_count(n).cos)
        if dc + sp.norm(diff, opts.norm_params) <= LOOP_TOL:
            triggered.append(LOOP)
    if 1.0 + abs(sol.c) + last.norm >= BLOW_UP_CAP:
        triggered.append(BLOW_UP)
    if sol.monitors[0] <= COLLISION_TOL:
        triggered.append(COLLISION)
    if sol.monitors[1] <= DEGENERACY_TOL:
        triggered.append(DEGENERACY)
    if at_limit:
        triggered.append(STEP_LIMIT)
    if not triggered:
        return RUNNING
    period = traveled if triggered[0] == LOOP else 0.0
    return TerminationReport(triggered[0], tuple(triggered[1:]), period)


def _tail_heavy(state, total, opts):
    """Whether the last TAIL_FRACTION of the harmonics carry more than
    TAIL_NORM_TOL of the state's norm `total`."""
    n = state.count
    head = int(np.ceil((1.0 - TAIL_FRACTION) * n))
    tail = state.cos.copy()
    tail[:, :head] = 0.0
    return sp.norm(tail, opts.norm_params) > TAIL_NORM_TOL * total


def _secant(sol, u_prev):
    """The corrected point's augmented vector u, the unit secant from
    u_prev to it and the secant's length.  Raises CorrectionFailedError
    unless the length is positive and finite: the norm of a step near
    1e-300 underflows to 0, and its secant would be 0/0."""
    u = st.Layout.shared(sol.cfg, sol.state.fold, sol.state.count).stack(
        sol.c, sol.state.cos)
    step = u - u_prev
    step_len = float(np.linalg.norm(step))
    if not 0.0 < step_len < math.inf:
        raise CorrectionFailedError(
            f"correction-failed: secant of length {step_len!r}")
    return u, step / step_len, step_len


def _accept(branch, sol, secant, iters, next_step, norm):
    """Append the corrected point with its secant (u, tangent, length) from
    _secant, its arclength counted on from the last point (or 0) and its
    state's norm.  Returns u and the tangent."""
    u, tangent, step_len = secant
    s = branch.points[-1].s if branch.points else 0.0
    branch.points.append(BranchPoint(
        s=s + step_len, solution=sol, tangent=tangent, next_step=next_step,
        newton_iters=iters, compact_index=_compact_index(sol, norm),
        norm=norm))
    return u, tangent


def _advance(branch, u_prev, tangent, ds):
    """Core predictor-corrector loop; mutates branch.points in place."""
    opts = branch.options
    cfg, fold = branch.origin.cfg, branch.origin.m
    count = branch.points[-1].solution.state.count
    while (status := detect_termination(branch)) == RUNNING:
        try:
            sol, iters = newton_correct(
                cfg, u_prev + ds * tangent,
                ArclengthConstraint(tangent, u_prev, ds), fold, count,
                opts.newton_tol)
            secant = _secant(sol, u_prev)
        except CorrectionFailedError:
            ds *= 0.5
            if ds < opts.h_min:
                # cannot resolve a further step: treat as exhausted budget
                status = TerminationReport(STEP_LIMIT)
                break
            continue
        norm = sol.state.norm(opts.norm_params)
        if count * 2 <= opts.max_count and _tail_heavy(sol.state, norm, opts):
            u_prev, tangent = (  # zero-padded to harmonics 1..2N
                np.append(v[0], np.pad(v[1:].reshape(4, count),
                                       [(0, 0), (0, count)]))
                for v in (u_prev, tangent))
            count *= 2
            continue
        if iters <= FAST_ITERS:
            ds = min(ds * GROWTH, opts.h_max)
        u_prev, tangent = _accept(branch, sol, secant, iters, ds, norm)
    branch.termination = status


def _mirror(plus, opts):
    """The - arm as the half-period image of the + arm, or None.

    The shift x -> x + pi/m maps the kernel cos(mx) to -cos(mx) and the
    steady system to itself, so it carries the + arm onto the - arm.
    Each image point shifts the + point's state and secant by one sign
    table, half_shift (an exact sign flip of the odd harmonics; c and
    its tangent entry stay), and recomputes its residual sup, which is
    its convergence check: None if a sup exceeds opts.newton_tol.  The
    shift leaves the monitors' minima over a fold period unchanged, so
    they are the + point's, as are the arclength, norm, compact index,
    next step and Newton count; the solver counters are those of the
    one correction that produced both.
    """
    fold = plus.origin.m
    points = []
    for p in plus.points:
        sol = p.solution
        shift = st.half_shift(sol.state.count)
        state = st.InterfaceState.from_arrays(fold, shift * sol.state.cos)
        layout = st.Layout.shared(sol.cfg, fold, state.count)
        sup = float(np.abs(layout.residual(sol.c, state.cos)).max(initial=0.0))
        if not sup <= opts.newton_tol:
            return None
        image = st.WaveSolution(sol.cfg, sol.c, state, sup, sol.monitors,
                                sol.krylov_iters, sol.dense_solves)
        signs = np.append(1.0, np.tile(shift, 4))  # c's entry stays
        points.append(replace(p, solution=image, tangent=signs * p.tangent))
    return Branch(points=points, origin=plus.origin, arm=-1,
                  termination=plus.termination, options=opts)


def trace_arm(origin, arm, opts, plus=None):
    """Continue one pitchfork arm (arm = +1 or -1) from its local expansion.

    Given `plus`, the + arm traced from the same origin with the same
    options, the - arm is built as its half-period image (_mirror); it
    is traced instead if an image point fails its residual check.
    """
    if plus is not None:
        if arm != -1 or plus.arm != +1 or plus.origin is not origin \
                or plus.options != opts:
            raise ValueError("plus must be the + arm of the same origin "
                             "and options")
        image = _mirror(plus, opts)
        if image is not None:
            return image
    fold, count = origin.m, opts.count
    layout = st.Layout.shared(origin.cfg, fold, count)
    u0 = layout.stack(origin.c_star, np.zeros((4, count)))
    kernel = layout.stack(0.0, lb.predictor(origin, 1.0, count=count)[1].cos)
    vnorm = float(np.linalg.norm(kernel))
    ds = opts.s0 * vnorm
    constraint = ArclengthConstraint((arm / vnorm) * kernel, u0, ds)
    c, state = lb.predictor(origin, arm * opts.s0, count=count)
    try:
        sol, iters = newton_correct(origin.cfg, layout.stack(c, state.cos),
                                    constraint, fold, count, opts.newton_tol)
        secant = _secant(sol, u0)
    except CorrectionFailedError as exc:
        raise CannotStartError(f"cannot-start: {exc}") from exc
    branch = Branch(points=[], origin=origin, arm=arm, termination=RUNNING,
                    options=opts)
    _advance(branch, *_accept(branch, sol, secant, iters, ds,
                              sol.state.norm(opts.norm_params)), ds)
    return branch

