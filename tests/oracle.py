"""Code that only the tests use.  The 4x4 mode pencil as a matrix
(mode_matrix), and the doubled-mode system of the local expansion
solved in exact rational arithmetic (exact_doubled_mode).  Plain
functions on spectral.TrigSeries:
zero series, sine series, padding, linear combinations, the
antiderivative, the full-series (cosine and sine) norm, and the scan for
the smallest admissible mode of a generic layer.  A checked state from
stacked coefficients (from_vector), a branch restarted from one of its
points (restart), and the inverse Euler-Poisson map (map_from_ep with
its matrix FROM_EP).  The dense Jacobian of a steady.Layout's rows,
block by block (block_jacobian), and their matrix-free Jacobian and
transport preconditioner as two separate passes
(two_step_linearization).  Flexible GMRES that copies each new
Arnoldi vector into its basis (copying_gmres).  Layout.tendency with
its offset 2a added as a (k, 1) column (column_offset_tendency), and
Layout.stage so too, with its derivative table formed afresh as the
derivative of the grid's identity (identity_product_stage).  And RK4
on PhaseState objects, one rhs call and one combine per stage, as the
oracle of dynamics.evolve."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from layerwaves import continuation as ct
from layerwaves import dynamics as dy
from layerwaves import pencil as pc
from layerwaves import spectral as sp
from layerwaves import steady as st
from layerwaves.errors import LayerError
from layerwaves.spectral import FULL, ODD, TrigSeries

# Inverse of eulerpoisson.TO_EP: entries +-1 and 0, so it is exact.
FROM_EP = np.array([[-1.0, 0.0, 1.0, 0.0],
                    [1.0, 0.0, 1.0, 0.0],
                    [0.0, -1.0, 0.0, 1.0],
                    [0.0, 1.0, 0.0, 1.0]])


def mode_matrix(j, cfg, c):
    """The 4x4 pencil of wavenumber j at speed c: diag j^2(a_i - c) plus
    the rank-one coupling outer(SPECIES, CHARGE)."""
    if j < 1:
        raise ValueError("mode index must be >= 1")
    return np.diag(j * j * (cfg.as_array() - c)) + np.outer(pc.SPECIES,
                                                            pc.CHARGE)


def exact_doubled_mode(m, cfg, c):
    """The amplitudes t of the doubled-mode system M_{2m} t = 2 m^2 r^2,
    r = (a - c)^-1, solved in exact rational arithmetic at the float
    speed c by Gaussian elimination, rounded once to floats."""
    gaps = [Fraction(a) - Fraction(c) for a in cfg.as_array()]
    j2 = 4 * m * m
    mat = [[Fraction(int(pc.SPECIES[i] * pc.CHARGE[k]))
            + (j2 * gaps[i] if i == k else 0) for k in range(4)]
           for i in range(4)]
    rhs = [2 * m * m / (g * g) for g in gaps]
    for col in range(4):
        piv = next(i for i in range(col, 4) if mat[i][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for i in range(col + 1, 4):
            f = mat[i][col] / mat[col][col]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
            rhs[i] -= f * rhs[col]
    t = [Fraction(0)] * 4
    for i in reversed(range(4)):
        t[i] = (rhs[i] - sum(mat[i][k] * t[k] for k in range(i + 1, 4))
                ) / mat[i][i]
    return np.array([float(x) for x in t])


class NoAdmissibleModeError(LayerError):
    """Scan exhausted without finding a mode with four simple real speeds."""


def zeros(fold, count, parity=FULL):
    z = np.zeros(count)
    return TrigSeries(fold, z, z.copy(), parity)


def from_sin(fold, coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    return TrigSeries(fold, np.zeros_like(coeffs), coeffs, ODD)


def with_count(f, count):
    """Pad with zeros or truncate to the requested harmonic count."""
    if count == f.count:
        return f
    c = np.zeros(count)
    s = np.zeros(count)
    n = min(count, f.count)
    c[:n] = f.cos[:n]
    s[:n] = f.sin[:n]
    return TrigSeries(f.fold, c, s, f.parity)


def _binary(f, g, op):
    if f.fold != g.fold:
        raise ValueError("fold mismatch")
    n = max(f.count, g.count)
    a, b = with_count(f, n), with_count(g, n)
    parity = f.parity if f.parity == g.parity else FULL
    return TrigSeries(f.fold, op(a.cos, b.cos), op(a.sin, b.sin), parity)


def add(f, g):
    """f + g, padded to the longer count."""
    return _binary(f, g, np.add)


def sub(f, g):
    """f - g, padded to the longer count."""
    return _binary(f, g, np.subtract)


def scale(scalar, f):
    """scalar * f."""
    scalar = float(scalar)
    return TrigSeries(f.fold, scalar * f.cos, scalar * f.sin, f.parity)


def antideriv(f):
    """Zero-mean antiderivative: cos(jmx) -> sin(jmx)/(jm), sin -> -cos/(jm)."""
    w = f.wavenumbers().astype(float)
    return TrigSeries(f.fold, -f.sin / w, f.cos / w, sp._flip(f.parity))


def norm(f, params):
    """Coefficient norm (sum_j w_j (a_j^2 + b_j^2))^(1/2) of one series,
    with the weights w_j of spectral.norm_weight."""
    weighted = sp.norm_weight(f.count, params) * (f.cos ** 2 + f.sin ** 2)
    return float(np.sqrt(np.sum(weighted)))


def from_vector(fold, count, vec):
    """InterfaceState from 4N stacked cosine coefficients, copied;
    refuses non-finite ones."""
    cos = np.array(vec, dtype=float).reshape(4, count)
    if not np.all(np.isfinite(cos)):
        raise ValueError("non-finite coefficients")
    return st.InterfaceState.from_arrays(fold, cos)


def block_jacobian(cfg, fold, c, rows):
    """Jacobian of the residual in the rows of a steady.Layout, block by
    block from Toeplitz and Hankel windows, with fancy-index writes of
    the diagonal couplings: the same floating-point operations as
    Layout.jacobian, one block at a time.  Four rows, or the two plus
    rows of a symmetric layer's fixed space, whose couplings carry the
    weight 1 - T (steady.half_shift)."""
    k, n = rows.shape
    w = fold * np.arange(1, n + 1, dtype=float)
    weight = 1.0 - st.half_shift(n) if k == 2 else np.ones(n)
    out = np.empty((k * n, k * n))
    seq = np.zeros((k, 3 * n))
    seq[:, n:2 * n] = rows
    seq[:, :n - 1] = rows[:, :n - 1][:, ::-1]
    win = sliding_window_view(seq, n, axis=1)
    toeplitz, hankel = win[:, :n, ::-1], win[:, n + 1:]
    a = cfg.as_array()
    p = np.arange(n)
    cols = p[:, None] + n * np.arange(k)
    for i in range(k):
        block_rows = slice(i * n, (i + 1) * n)
        out[block_rows] = 0.0
        block = out[block_rows, block_rows]
        np.add(toeplitz[i], hankel[i], out=block)
        block *= -0.5 * w[:, None]
        out[i * n + p, i * n + p] -= (a[i] - c) * w
        out[i * n + p[:, None], cols] += (-pc.SPECIES[i] * pc.CHARGE[:k]
                                          * (weight / w)[:, None])
    return out


def column_offset_tendency(layout, x):
    """steady.Layout.tendency on the (k, N) cosine rows x with the
    square's offset 2a added as a (k, 1) column broadcast over the
    product grid: the reference for the bits of its full-shape (k, M)
    offset block."""
    count = layout.w.size
    npts = sp.PRODUCT_GRID_FACTOR * count
    vals = sp.grid_values(x, None, npts)
    g = vals + 2.0 * layout.a
    g *= vals
    out = sp.transform(count, npts)[2](g, 1)
    out *= -0.5 * layout.w[0]
    out += layout.coupling * (layout.charge @ x)
    return out


def identity_product_stage(layout, h):
    """steady.Layout.stage(h) with its derivative table formed in a
    fresh array, as the derivative of the (M, M) identity, on table grids
    (N M <= spectral.TABLE_MAX_SIZE), and the transform's derivative on
    FFT grids; on both the derivative's output scaled by h (-fold/2), and
    the square's offset 2a a (k, 1) column.  The reference for the bits
    of the stage, which reads the transform's own aligned table."""
    count = layout.w.size
    npts = sp.PRODUCT_GRID_FACTOR * count
    derivative = sp.transform(count, npts)[2]
    scale = h * (-0.5 * layout.w[0])
    coupling = h * np.concatenate((-layout.coupling, layout.coupling), axis=1)
    if count * npts <= sp.TABLE_MAX_SIZE:
        slope = derivative(np.eye(npts), 2)

        def dx(g):
            return g @ slope
    else:
        def dx(g):
            return derivative(g, 2)

    def stage(x):
        vals = sp.grid_values(x[:, :count], x[:, count:], npts)
        g = vals + 2.0 * layout.a
        g *= vals
        out = dx(g)
        out *= scale
        out += coupling * np.roll(layout.charge @ x, count)
        return out

    return stage


def two_step_linearization(layout, c, rows):
    """(matvec, precondition) of a steady.Layout's rows, as two separate
    transform round trips: the reference for Layout.linearization's
    one-pass preconditioned(g) = (y, matvec(y)).  Each forward product
    forms the cosine and the sine half and keeps the cosine one, and
    kappa_i is applied on the grid: h = (dx^-1 g + kappa_i) / q_i with
    sum_p h = 0."""
    count = layout.w.size
    values, coefficients = sp.transform(
        count, sp.PRODUCT_GRID_FACTOR * count)[:2]
    q = values(rows) + (layout.a - c)
    inv_q = 1.0 / q
    sum_inv_q = np.sum(inv_q, axis=1, keepdims=True)

    def matvec(h):
        prod = coefficients(q * values(h))[0]
        return -layout.coupling * (layout.charge @ h) - layout.w * prod

    def precondition(g):
        h = values(-g / layout.w) * inv_q
        h -= h.sum(axis=1, keepdims=True) / sum_inv_q * inv_q
        return coefficients(h)[0]

    return matvec, precondition


def copying_gmres(op, rhs, tol, max_iters):
    """Flexible GMRES from x = 0 (Saad 1993; Saad & Schultz 1986), each
    A z a fresh array copied into the Krylov basis: the reference for the
    x and iteration count of continuation._gmres, which builds the basis
    in place.

    op(v, z) writes the preconditioned vector z = P v into z and returns
    A z.  Each z_j is kept, and x = sum_j y_j z_j, so no preconditioner
    call follows the cycle.  Stops when the Arnoldi estimate of
    ||rhs - A x|| is at most tol, after max_iters, or when the new
    Arnoldi vector vanishes: then the Krylov space is invariant and x
    solves the system, unless the rotated Hessenberg column vanishes too
    (a singular operator).  Returns (x, iterations).  Orthogonalizes by
    classical Gram-Schmidt twice, rotates each new Hessenberg column by
    Givens rotations on Python floats, and solves the small triangular
    system by back-substitution.
    """
    beta = float(np.linalg.norm(rhs))
    V = np.empty((max_iters + 1, rhs.size))
    Z = np.empty((max_iters, rhs.size))   # preconditioned vectors
    R = np.zeros((max_iters, max_iters))  # rotated Hessenberg, triangular
    rot = []                              # Givens (cos, sin)
    g = [beta]
    V[0] = rhs / beta
    k = 0
    while k < max_iters and abs(g[k]) > tol:
        v = op(V[k], Z[k])
        basis = V[:k + 1]
        h = basis @ v
        v -= h @ basis
        h2 = basis @ v
        v -= h2 @ basis
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
        V[k] = v / below
    y = np.zeros(k)
    for j in range(k - 1, -1, -1):
        y[j] = (g[j] - R[j, j + 1:k] @ y[j + 1:]) / R[j, j]
    return y @ Z[:k], k


def restart(branch, index, opts=None):
    """Re-run continuation from the stored point `index`; deterministic
    stepping makes the result reproduce the original tail of the branch,
    to round-off if the branch is the image of a + arm."""
    opts = opts or branch.options
    pt = branch.points[index]
    # keep the accumulated arclength so loop bookkeeping matches; the
    # norm follows the weights of opts
    start = replace(pt, tangent=pt.tangent.copy(),
                    norm=pt.solution.state.norm(opts.norm_params))
    new = ct.Branch(points=[start], origin=branch.origin, arm=branch.arm,
                    termination=ct.RUNNING, options=opts)
    sol = pt.solution
    layout = st.Layout(branch.origin.cfg, branch.origin.m, sol.state.count)
    ct._advance(new, layout.stack(sol.c, sol.state.cos), pt.tangent.copy(),
                pt.next_step)
    return new


def map_from_ep(state):
    """Inverse Euler-Poisson map: r2 = u + rho - a, r1 = u - rho + a (per
    species), as an InterfaceState."""
    return st.InterfaceState.from_arrays(state.fold, FROM_EP @ state.cos)


def min_admissible_mode(cfg, cap):
    """Smallest mode (scanned 1..cap) whose quartic has four simple real
    roots, all separated from the interface velocities."""
    if cfg.regime != pc.GENERIC:
        raise ValueError("mode scan applies to the generic regime only")
    sep = 1e-8 * cfg.scale()
    a = cfg.as_array()
    for m in range(1, int(cap) + 1):
        roots = pc.quartic_roots(m, cfg)
        if not all(pc._is_real(z) for z in roots):
            continue
        re = np.sort(roots.real)
        if np.min(np.diff(re)) <= sep:
            continue
        if np.min(np.abs(re[:, None] - a[None, :])) <= sep:
            continue
        return m
    raise NoAdmissibleModeError(f"no admissible mode found with m <= {cap}")


def rk4_evolve(cfg, start, dt, steps, store_every=1):
    """Classical RK4 stage by stage on PhaseState objects; stores the
    start, every store_every-th step and the last step, as evolve does.
    Returns the stored times, states and energies."""
    state = start
    times, states, energies = [0.0], [state], [dy.energy(cfg, state)]
    for k in range(1, steps + 1):
        k1 = dy.rhs(cfg, state)
        k2 = dy.rhs(cfg, state.combine([k1], [0.5 * dt]))
        k3 = dy.rhs(cfg, state.combine([k2], [0.5 * dt]))
        k4 = dy.rhs(cfg, state.combine([k3], [dt]))
        state = state.combine([k1, k2, k3, k4],
                              [dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0])
        if k % store_every == 0 or k == steps:
            times.append(k * dt)
            states.append(state)
            energies.append(dy.energy(cfg, state))
    return np.asarray(times), states, energies
