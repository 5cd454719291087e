"""Hamiltonian time evolution of the four interfaces (validation path).

The evolution system is a quadruple of quasilinear transport equations
with an order minus-one linear coupling; it is Hamiltonian with respect
to the alternating-sign derivative operator and the total (kinetic plus
electrostatic) energy.  Evolution runs on full-parity series: traveling
waves break the even symmetry that steady computations exploit.
"""

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .errors import DivergedError
from .spectral import FULL, TrigSeries

# Sign of the nonlocal coupling per component (+ species positive) and
# the alternating signs of the Hamiltonian operator J = diag(+-d/dx).
COUPLING_SIGN = np.array([1.0, 1.0, -1.0, -1.0])
J_SIGN = np.array([1.0, -1.0, 1.0, -1.0])
KIN_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])  # (-1)^k per component


class PhaseState:
    """Four full-parity, zero-mean series with a common fold and truncation."""

    __slots__ = ("series",)

    def __init__(self, series):
        series = tuple(series)
        if len(series) != 4:
            raise ValueError("expected four components")
        fold, count = series[0].fold, series[0].count
        for s in series:
            if s.fold != fold or s.count != count:
                raise ValueError("components must share fold and truncation")
        self.series = tuple(
            s if s.parity == FULL else TrigSeries(s.fold, s.cos, s.sin, FULL)
            for s in series)

    @classmethod
    def zero(cls, fold, count):
        return cls([TrigSeries.zeros(fold, count) for _ in range(4)])

    @classmethod
    def from_interface(cls, state, count=None):
        count = count or state.count
        return cls([TrigSeries(s.fold, s.with_count(count).cos,
                               np.zeros(count)) for s in state.series])

    @property
    def fold(self):
        return self.series[0].fold

    @property
    def count(self):
        return self.series[0].count

    def max_abs(self):
        return max(s.max_abs() for s in self.series)

    def grid_values(self, npts):
        """(4, npts) component values at the uniform points of one fold
        period, from one batched inverse FFT."""
        return sp.grid_values(np.array([s.cos for s in self.series]),
                              np.array([s.sin for s in self.series]), npts)

    def sup_norms(self, points=None):
        vals = self.grid_values(points or 8 * self.count)
        return [float(v) for v in np.max(np.abs(vals), axis=1)]

    def combine(self, others, weights):
        """Linear combination self + sum_i weights[i] * others[i]."""
        out = []
        for k in range(4):
            cos = self.series[k].cos.copy()
            sin = self.series[k].sin.copy()
            for w, o in zip(weights, others):
                cos += w * o.series[k].cos
                sin += w * o.series[k].sin
            out.append(TrigSeries(self.fold, cos, sin))
        return PhaseState(out)


@dataclass
class EnergyReport:
    e_kin: float
    e_pot: float
    neutrality_defect: float

    @property
    def e_total(self):
        return self.e_kin + self.e_pot


def rhs(cfg, state):
    """Time derivative of the interfaces:
    -(a_i + r_i) dx r_i  +-  dx^-1(r_+^2 - r_+^1)  -+  dx^-1(r_-^2 - r_-^1),
    with the upper signs on the plus species.  Products are dealiased by
    exact convolution before truncation."""
    a = cfg.as_array()
    n = state.count
    s = state.series
    pot = sp.antideriv((s[1] - s[0]) - (s[3] - s[2]))
    out = []
    for i in range(4):
        dr = sp.deriv(s[i])
        adv = sp.multiply(s[i], dr, out_count=n) + a[i] * dr
        out.append(-1.0 * adv + COUPLING_SIGN[i] * pot)
    return PhaseState(out)


def energy(cfg, state):
    """Total energy: strip-integrated kinetic energy by exact grid
    quadrature plus the nonnegative electrostatic energy in coefficients.

    The grid values come from one inverse FFT of all four components;
    the cubic integrand has harmonics up to 3N, so the mean over 4N
    uniform points of one fold period is still its exact integral."""
    a = cfg.as_array()
    vals = state.grid_values(4 * state.count) + a[:, None]
    e_kin = float(np.mean((vals[1] ** 3 - vals[0] ** 3
                           + vals[3] ** 3 - vals[2] ** 3) / 6.0))
    d = (state.series[1] - state.series[0]) - (state.series[3] - state.series[2])
    w = d.wavenumbers().astype(float)
    e_pot = 0.25 * float(np.sum((d.cos ** 2 + d.sin ** 2) / w ** 2))
    return EnergyReport(e_kin, e_pot, 0.0)


def grad_energy(cfg, state):
    """L2 gradient of the energy: component (k, kappa) is
    (-1)^k [ (a + r)^2 / 2  -+  dxx^-1(d) ].  Returns (mean, series)
    pairs; the means matter only for pairings, the Hamiltonian operator
    annihilates them."""
    a = cfg.as_array()
    n = state.count
    s = state.series
    d = (s[1] - s[0]) - (s[3] - s[2])
    ddxx = sp.antideriv(sp.antideriv(d))
    out = []
    for i in range(4):
        sq_mean, sq = sp.multiply_with_mean(s[i], s[i], out_count=n)
        series = KIN_SIGN[i] * (0.5 * sq + a[i] * s[i]
                                - COUPLING_SIGN[i] * ddxx)
        mean = KIN_SIGN[i] * 0.5 * (a[i] * a[i] + sq_mean)
        out.append((mean, series))
    return out


def hamiltonian_rhs(cfg, state):
    """J grad E: the alternating-sign derivative of the energy gradient.
    Identical to rhs(); kept separate so the identity is testable."""
    grads = grad_energy(cfg, state)
    return PhaseState([J_SIGN[i] * sp.deriv(grads[i][1]) for i in range(4)])


def cfl_limit(cfg, state):
    """Largest stable explicit step: 0.5 / (max wavenumber * max |a + r|)."""
    a = cfg.as_array()
    vals = state.grid_values(8 * state.count) + a[:, None]
    vmax = float(np.max(np.abs(vals)))
    return 0.5 / (state.fold * state.count * max(vmax, 1e-300))


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    energies: list  # EnergyReport per stored state

    def csv_rows(self):
        rows = []
        for t, state, e in zip(self.times, self.states, self.energies):
            rows.append((t, e.e_kin, e.e_pot, e.e_total, *state.sup_norms()))
        return rows


def evolve(cfg, start, dt, steps, store_every=1):
    """Classical four-stage Runge-Kutta on the evolution system.

    dt must respect the explicit stability limit of the initial state;
    non-finite coefficients abort with DivergedError.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    limit = cfl_limit(cfg, start)
    if dt > limit:
        raise ValueError(f"dt={dt:g} exceeds the stability limit {limit:g}")
    state = start
    times = [0.0]
    states = [state]
    energies = [energy(cfg, state)]
    for k in range(1, steps + 1):
        try:
            k1 = rhs(cfg, state)
            k2 = rhs(cfg, state.combine([k1], [0.5 * dt]))
            k3 = rhs(cfg, state.combine([k2], [0.5 * dt]))
            k4 = rhs(cfg, state.combine([k3], [dt]))
            state = state.combine([k1, k2, k3, k4],
                                  [dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0])
        except ValueError as exc:
            # the series layer refuses non-finite coefficients
            raise DivergedError(f"evolution diverged at step {k}") from exc
        if not all(np.all(np.isfinite(s.cos)) and np.all(np.isfinite(s.sin))
                   for s in state.series):
            raise DivergedError(f"evolution diverged at step {k}")
        if k % store_every == 0 or k == steps:
            times.append(k * dt)
            states.append(state)
            energies.append(energy(cfg, state))
    return Trajectory(np.asarray(times), states, energies)
