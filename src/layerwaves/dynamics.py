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
from . import steady as st
from .errors import DivergedError
from .pencil import COMPONENT_NAMES, SIDE
from .spectral import TrigSeries


class PhaseState(sp.ComponentArrays):
    """Four full-parity, zero-mean series with a common fold and
    truncation; coefficient arrays `cos` and `sin`."""

    ARRAYS = ("cos", "sin")
    __slots__ = ARRAYS

    @classmethod
    def from_interface(cls, state):
        return cls.from_arrays(state.fold, state.cos, np.zeros_like(state.cos))

    @property
    def series(self):
        """The four components as full-parity TrigSeries."""
        return tuple(TrigSeries(self.fold, c, s)
                     for c, s in zip(self.cos, self.sin))

    def combine(self, others, weights):
        """Linear combination self + sum_i weights[i] * others[i]."""
        cos = self.cos.copy()
        sin = self.sin.copy()
        for w, o in zip(weights, others):
            cos += w * o.cos
            sin += w * o.sin
        return PhaseState.from_arrays(self.fold, cos, sin)


@dataclass
class EnergyReport:
    e_kin: float
    e_pot: float

    @property
    def e_total(self):
        return self.e_kin + self.e_pot


def rhs(cfg, state):
    """Time derivative of the interfaces:
    -(a_i + r_i) dx r_i  +-  dx^-1(r_+^2 - r_+^1)  -+  dx^-1(r_-^2 - r_-^1),
    with the upper signs on the plus species: one stage(1.0) of the
    shared layout (steady.Layout.stage), made per call without a table."""
    stage = st.Layout.shared(cfg, state.fold, state.count).stage(1.0)
    x = stage(np.concatenate((state.cos, state.sin), axis=1))
    return PhaseState.from_arrays(state.fold, *np.hsplit(x, 2))


def energy(cfg, state):
    """Total energy: strip-integrated kinetic energy by exact grid
    quadrature plus the nonnegative electrostatic energy in coefficients
    (_row_energy on the four rows)."""
    layout = st.Layout.shared(cfg, state.fold, state.count)
    return _row_energy(layout, np.concatenate((state.cos, state.sin), axis=1))


def _row_energy(layout, x):
    """Energy of the state with the (k, 2N) cosine then sine rows x of a
    steady.Layout.  The grid values come from one inverse transform of
    the rows, the layout's own (spectral.transform), to spectral's
    product grid, where the cubic integrand's mean is exact.  On the two
    plus rows of a symmetric layer's fixed space the minus rows are their
    half-period shifts, with the same velocities and sides: their kinetic
    part is that of the plus rows, so it is doubled, and the charge
    difference is read through the layout's weight 1 - T."""
    count = layout.w.size
    vals = layout.values(x) + layout.a
    e_kin = (4 // layout.k) * float(
        np.mean((SIDE[:layout.k] @ (vals * vals * vals)) / 6.0))
    q = layout.charge @ x
    qcos, qsin = layout.weight * q[:count], layout.weight * q[count:]
    e_pot = 0.25 * float(np.sum((qcos ** 2 + qsin ** 2) / layout.w ** 2))
    return EnergyReport(e_kin, e_pot)


def cfl_limit(cfg, state):
    """Conservative explicit step bound 0.5 / (k_max * max |a + r|), with
    k_max the largest wavenumber: about 5.7 times inside classical RK4's
    imaginary-axis stability limit 2 sqrt(2) / (k_max * max |a + r|)."""
    a = cfg.as_array()
    vals = sp.grid_values(state.cos, state.sin, 8 * state.count) + a[:, None]
    vmax = float(np.max(np.abs(vals)))
    return 0.5 / (state.fold * state.count * max(vmax, 1e-300))


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    energies: list  # EnergyReport per stored state

    def csv_rows(self):
        """One row per stored state, keyed by column name."""
        rows = []
        for t, state, e in zip(self.times, self.states, self.energies):
            vals = sp.grid_values(state.cos, state.sin, 8 * state.count)
            sups = zip(COMPONENT_NAMES, np.max(np.abs(vals), axis=1).tolist())
            rows.append({"t": t, "e_kin": e.e_kin, "e_pot": e.e_pot,
                         "e_total": e.e_total,
                         **{f"sup_{name}": sup for name, sup in sups}})
        return rows


@np.errstate(over="ignore", invalid="ignore")
def evolve(cfg, start, dt, steps, store_every=1):
    """Classical four-stage Runge-Kutta on the evolution system, stepping
    one (k, 2N) array of rows of cosine then sine coefficients: those of a
    steady.Layout, the two plus rows if the start lies on a symmetric
    layer's fixed space (steady.on_fixed_space), else all four.  The
    system commutes with the species swap composed with the half-period
    shift there, so the state stays on the fixed space; each stored
    state is embedded back into four rows.

    A step runs in the scaled form: with F = (dt/2) f, the layout's
    stage(dt/2), made once per call, the stages are F1 = F(x),
    F2 = F(x + F1), F3 = F(x + F2) and F4 = F(x + 2 F3), and
    x <- x + (F1 + 2 F2 + 2 F3 + F4) / 3, summed in place on F2.

    dt must respect the explicit stability limit of the initial state.
    Stores the start, every store_every-th step and the last step.
    Non-finite coefficients after a step (a non-finite stage value
    reaches the step's result) and a non-finite start energy abort with
    DivergedError; overflow on the way is not warned about.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if store_every < 1:
        raise ValueError("store_every must be at least 1")
    limit = cfl_limit(cfg, start)
    if dt > limit:
        raise ValueError(f"dt={dt:g} exceeds the stability limit {limit:g}")
    layout = st.Layout.shared(cfg, start.fold, start.count,
                              st.on_fixed_space(cfg, start.cos, start.sin))
    stage = layout.stage(0.5 * dt)
    x = np.concatenate((start.cos[:layout.k], start.sin[:layout.k]), axis=1)
    times = [0.0]
    states = [start]
    energies = [_row_energy(layout, x)]
    for k in range(1, steps + 1):
        f1 = stage(x)
        f2 = stage(x + f1)
        f3 = stage(x + f2)
        f3 *= 2.0
        f4 = stage(x + f3)
        f2 *= 2.0  # the step, (f1 + 2 f2 + 2 f3 + f4) / 3, in place
        f2 += f1
        f2 += f3
        f2 += f4
        f2 /= 3.0
        # f2 is a new array each step: stored states keep views of x
        f2 += x
        x = f2
        if not np.isfinite(x).all():
            raise DivergedError(f"evolution diverged at step {k}")
        if k % store_every == 0 or k == steps:
            state = PhaseState.from_arrays(start.fold, *map(
                layout.embed, x.reshape(layout.k, 2, -1).transpose(1, 0, 2)))
            times.append(k * dt)
            states.append(state)
            energies.append(_row_energy(layout, x))
    # checked last, so coefficients that blow up report their own step
    if not np.isfinite(energies[0].e_total):
        raise DivergedError("evolution diverged at step 0: "
                            "non-finite start energy")
    return Trajectory(np.asarray(times), states, energies)
