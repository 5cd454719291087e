"""Code that only the tests use.  Plain functions on spectral.TrigSeries:
zero series, sine series, padding, linear combinations, the
antiderivative, the one-series norm, and the scan for the smallest
admissible mode of a generic layer.  And RK4 on PhaseState objects, one
rhs call and one combine per stage, as the oracle of dynamics.evolve."""

import numpy as np

from layerwaves import dynamics as dy
from layerwaves import pencil as pc
from layerwaves import spectral as sp
from layerwaves.errors import LayerError
from layerwaves.spectral import FULL, ODD, TrigSeries


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
    """Coefficient norm of one series (see spectral.norms)."""
    return float(sp.norms(f.cos, f.sin, params))


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
