"""Affine correspondence with the two-component isentropic Euler-Poisson
system (cubic pressure) in the symmetric regime, and a traveling-wave
residual checker for the mapped solutions.

Densities are stored as zero-mean series around the base level a;
velocities are zero-mean.  The map (rho, u) = (a + (r2 - r1)/2,
(r2 + r1)/2) is affine, invertible, and bi-Lipschitz with constants
one half and one in the component-max norm.
"""

from dataclasses import dataclass

import numpy as np

from . import pencil as pc
from . import spectral as sp
from .errors import ConfigError, DivergedError
from .pencil import SYMMETRIC

CUBIC_PRESSURE_COEF = 1.0 / 3.0


@dataclass
class EPState:
    """Two-fluid state mapped from a symmetric-regime wave solution."""

    base_a: float
    c: float
    rho_plus: sp.TrigSeries    # zero-mean part; density mean is base_a
    rho_minus: sp.TrigSeries
    u_plus: sp.TrigSeries
    u_minus: sp.TrigSeries

    def to_json(self):
        return {"a": self.base_a, "c": self.c,
                "rho_plus": {"mean": self.base_a,
                             "series": self.rho_plus.to_json()},
                "rho_minus": {"mean": self.base_a,
                              "series": self.rho_minus.to_json()},
                "u_plus": {"mean": 0.0, "series": self.u_plus.to_json()},
                "u_minus": {"mean": 0.0, "series": self.u_minus.to_json()}}

    def min_density(self, points=512):
        rho = (self.rho_plus, self.rho_minus)
        vals = sp.grid_values(np.array([r.cos for r in rho]),
                              np.array([r.sin for r in rho]), points)
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
    s = sol.state.series
    return EPState(base_a=a, c=sol.c,
                   rho_plus=0.5 * (s[1] - s[0]),
                   rho_minus=0.5 * (s[3] - s[2]),
                   u_plus=0.5 * (s[1] + s[0]),
                   u_minus=0.5 * (s[3] + s[2]))


def map_from_ep(state):
    """Inverse map: r2 = u + rho - a, r1 = u - rho + a (per species)."""
    plus_hi = state.u_plus + state.rho_plus
    plus_lo = state.u_plus - state.rho_plus
    minus_hi = state.u_minus + state.rho_minus
    minus_lo = state.u_minus - state.rho_minus
    return [plus_lo, plus_hi, minus_lo, minus_hi]


class _MeanSeries:
    """Series plus explicit mean; closed under the operations below."""

    __slots__ = ("mean", "series")

    def __init__(self, mean, series):
        self.mean = float(mean)
        self.series = series

    def mul(self, other, out_count):
        m, cross = sp.multiply_with_mean(self.series, other.series, out_count)
        series = (self.mean * other.series + other.mean * self.series
                  + cross).with_count(out_count)
        return _MeanSeries(self.mean * other.mean + m, series)

    def dx(self):
        return sp.deriv(self.series)


def ep_residual(state):
    """Traveling-frame residuals of the two-fluid system.

    continuity: -c dx rho + dx(rho u)
    momentum:   -c dx(rho u) + dx(rho u^2) + dx(rho^3/3)
                -+ 2 rho dx^-1(rho_+ - rho_-)
    Products are evaluated at full convolution length; returns the four
    residual series and their sup norms.  A product that overflows
    raises DivergedError.
    """
    c = state.c
    n = state.rho_plus.count
    out_n = 3 * n + 3
    residuals = {}
    force = sp.antideriv(state.rho_plus - state.rho_minus)
    for tag, rho0, u0, sign in (("plus", state.rho_plus, state.u_plus, -1.0),
                                ("minus", state.rho_minus, state.u_minus, 1.0)):
        rho = _MeanSeries(state.base_a, rho0)
        u = _MeanSeries(0.0, u0)
        try:  # TrigSeries refuse the non-finite coefficients of an overflow
            rho_u = rho.mul(u, out_n)
            rho_u_u = rho_u.mul(u, out_n)
            rho3 = rho.mul(rho, out_n).mul(rho, out_n)
            cont = -c * sp.deriv(rho0).with_count(out_n) + rho_u.dx()
            mom = (-c * rho_u.dx() + rho_u_u.dx()
                   + CUBIC_PRESSURE_COEF * rho3.dx()
                   + sign * 2.0 * (rho.mul(_MeanSeries(0.0, force),
                                           out_n).series))
        except ValueError:
            raise DivergedError("Euler-Poisson residual overflows") from None
        residuals[f"continuity_{tag}"] = cont
        residuals[f"momentum_{tag}"] = mom
    series = list(residuals.values())
    vals = sp.grid_values(np.array([f.cos for f in series]),
                          np.array([f.sin for f in series]), 8 * out_n)
    sups = {name: float(v) for name, v
            in zip(residuals, np.max(np.abs(vals), axis=1))}
    return residuals, sups


def ep_speeds(a, m):
    """Bifurcation speeds of the symmetric configuration (-a, a, -a, a).

    The determinant roots are authoritative.  Two closed forms circulate
    for the correction term under the square root, differing by a factor
    two; both are evaluated and the report records which one the roots
    actually match.
    """
    if a <= 0.0:
        raise ValueError("base level a must be positive")
    cfg = pc.classify_config([-a, a, -a, a])
    adm = pc.bifurcation_speeds(m, cfg).admissible()
    c_minus, c_plus = adm[0], adm[-1]
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
