"""Affine map of symmetric-regime wave solutions to the two-component
isentropic Euler-Poisson system (cubic pressure), and a traveling-wave
residual checker for the mapped solutions.

Densities are stored as zero-mean series around the base level a;
velocities are zero-mean.  The map (rho, u) = (a + (r2 - r1)/2,
(r2 + r1)/2) is affine, invertible (r2 = u + rho - a, r1 = u - rho + a
per species), and bi-Lipschitz with constants one half and one in the
component-max norm.
"""

import numpy as np

from . import pencil as pc
from . import spectral as sp
from . import steady as st
from .errors import ConfigError, DivergedError
from .pencil import SYMMETRIC

EP_NAMES = ("rho_plus", "rho_minus", "u_plus", "u_minus")
RESIDUAL_NAMES = ("continuity_plus", "momentum_plus",
                  "continuity_minus", "momentum_minus")

# TO_EP maps the interfaces (plus1, plus2, minus1, minus2) to the
# zero-mean parts of (rho_+, rho_-, u_+, u_-).  Its entries are +-1/2
# and 0, so the map is exact.
TO_EP = 0.5 * np.array([[-1.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, -1.0, 1.0],
                        [1.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0, 1.0]])


class EPState:
    """Two-fluid state mapped from a symmetric-regime wave solution: the
    fold, one read-only (4, N) cosine array `cos` of harmonics 1..N with
    rows rho_plus, rho_minus, u_plus, u_minus (zero-mean parts; the
    density mean is base_a), base_a and the speed c."""

    __slots__ = ("fold", "cos", "base_a", "c")

    def __init__(self, fold, cos, base_a, c):
        cos.setflags(write=False)
        self.fold, self.cos, self.base_a, self.c = int(fold), cos, base_a, c

    @property
    def count(self):
        return self.cos.shape[1]

    def wavenumbers(self):
        return self.fold * np.arange(1, self.count + 1, dtype=float)

    def max_abs(self):
        return float(np.max(np.abs(self.cos), initial=0.0))

    def to_json(self):
        out = {"a": self.base_a, "c": self.c}
        means = (self.base_a, self.base_a, 0.0, 0.0)
        series = sp.series_json(self.fold, self.cos)
        for name, mean, obj in zip(EP_NAMES, means, series):
            out[name] = {"mean": mean, "series": obj}
        return out

    def min_density(self):
        """Smallest density, sampled on the monitors' grid of one fold
        period."""
        vals = sp.grid_values(self.cos[:2], None,
                              st.MONITOR_GRID_FACTOR * self.count)
        return float(np.min(vals) + self.base_a)


def _require_symmetric(cfg):
    if cfg.regime != SYMMETRIC:
        raise ConfigError("regime-mismatch: the correspondence needs the "
                          "symmetric regime")
    a = cfg.a_plus_2
    if not (a > 0.0 and abs(cfg.a_plus_1 + a) <= 1e-12):
        raise ConfigError("regime-mismatch: interfaces must sit at -a, +a "
                          "with a > 0")
    return a


def map_to_ep(cfg, sol):
    """Map a wave solution to two-fluid variables (affine, invertible)."""
    a = _require_symmetric(cfg)
    return EPState(sol.state.fold, TO_EP @ sol.state.cos, a, sol.c)


def ep_residual(state):
    """Traveling-frame residuals of the two-fluid system.

    continuity: -c dx rho + dx(rho u)
    momentum:   -c dx(rho u) + dx(rho u^2) + dx(rho^3/3)
                -+ 2 rho dx^-1(rho_+ - rho_-)
    rho, u, their derivatives and the force dx^-1(rho_+ - rho_-) come
    from one inverse transform on 8 (3N + 3) uniform points of one fold
    period (spectral.grid_values of 4 even rows over 5 odd ones, each
    padded with zero rows), where the residuals are formed pointwise.
    Returns their (4, 8 (3N + 3)) grid values, rows in the order of
    RESIDUAL_NAMES, and sup norms by name; they reach harmonic 3N, so a
    forward transform of harmonics 1..3N + 3 on that grid gives their
    exact sine coefficients.  A residual that overflows raises
    DivergedError.
    """
    npts = 8 * (3 * state.count + 3)
    w = state.wavenumbers()
    force = (state.cos[0] - state.cos[1]) / w
    odd = np.concatenate((-w * state.cos, force[None]))
    vals = sp.grid_values(np.concatenate((state.cos, np.zeros_like(odd))),
                          np.concatenate((np.zeros_like(state.cos), odd)),
                          npts)
    rho = vals[0:2] + state.base_a
    u, drho, du, field = vals[2:4], vals[4:6], vals[6:8], vals[8]
    flux = drho * u + rho * du  # dx(rho u)
    cont = flux - state.c * drho
    mom = ((u - state.c) * flux + rho * u * du + rho * rho * drho
           - 2.0 * pc.SPECIES[::2, None] * rho * field)
    res = np.array([cont[0], mom[0], cont[1], mom[1]])
    if not np.all(np.isfinite(res)):
        raise DivergedError("Euler-Poisson residual overflows")
    sups = dict(zip(RESIDUAL_NAMES, np.max(np.abs(res), axis=1).tolist()))
    return res, sups


def ep_speeds(a, m):
    """Bifurcation speeds of the symmetric configuration (-a, a, -a, a).

    The determinant roots are authoritative: the pair is the outer two
    of pencil.quartic_roots, whose inner two are the interface
    velocities -a and a.  Two closed forms circulate for the correction
    term under the square root, differing by a factor two; both are
    evaluated and the report records which one the roots actually match.
    """
    if a <= 0.0:
        raise ValueError("base level a must be positive")
    roots = np.sort(pc.quartic_roots(m, pc.classify_config([-a, a, -a, a]))
                    .real)
    c_minus, c_plus = float(roots[0]), float(roots[-1])
    forms = {
        "sqrt(1 + 4/(a m^2))": a * np.sqrt(1.0 + 4.0 / (a * m * m)),
        "sqrt(1 + 2/(a m^2))": a * np.sqrt(1.0 + 2.0 / (a * m * m)),
    }
    deviations = {name: abs(c_plus - val) for name, val in forms.items()}
    matched = min(deviations, key=deviations.get)
    report = {"a": a, "m": m, "quartic": [c_minus, c_plus],
              "closed_forms": {k: float(v) for k, v in forms.items()},
              "deviations": deviations, "matched_form": matched}
    return (c_minus, c_plus), report
