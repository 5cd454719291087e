"""Local expansion of a bifurcating branch at an admissible speed.

The kernel mode is the cokernel-weighted cosine profile on the
fundamental harmonic; the quadratic interaction is concentrated on the
doubled harmonic, which yields the second-order state correction and
the pitchfork curvature of the speed.
"""

from dataclasses import dataclass

import numpy as np

from . import pencil as pc
from .pencil import COMPONENT_NAMES
from .steady import InterfaceState


@dataclass(frozen=True)
class LocalExpansion:
    """Everything needed to start a branch at a bifurcation point."""

    m: int
    cfg: pc.LayerConfig
    c_star: float
    kernel_vec: np.ndarray        # 4-vector of the kernel mode amplitudes
    cokernel_vec: np.ndarray      # range-orthogonal weights
    recip_sq: np.ndarray          # component-wise (a_i - c)^-2
    second_harmonic_amp: np.ndarray  # coefficient vector of cos(2 m x)
    speed_curvature: float        # second derivative of c along the branch
    pitchfork: str                # 'supercritical' or 'subcritical'
    nearest_component: int        # index of the a_i the speed approaches

    def to_json(self):
        return {"a": self.cfg.as_array().tolist(), "m": self.m,
                "c_star": self.c_star,
                "kernel_vec": self.kernel_vec.tolist(),
                "cokernel_vec": self.cokernel_vec.tolist(),
                "recip_sq": self.recip_sq.tolist(),
                "second_harmonic_amp": self.second_harmonic_amp.tolist(),
                "speed_curvature": self.speed_curvature,
                "pitchfork": self.pitchfork,
                "nearest_component": COMPONENT_NAMES[self.nearest_component]}


def _doubled_mode_solve(m, r):
    """Amplitude vector t of the correction t cos(2 m x): solves the
    doubled-mode system  M_{2m} t = 2 m^2 r^2,  r = (a - c)^-1
    component-wise, by Sherman-Morrison.  M_{2m} is diag 4 m^2 (a - c)
    plus the rank-one coupling outer(SPECIES, CHARGE), so it is
    singular only where its secular value 1 + sum SIDE r / (4 m^2)
    vanishes.  At a speed of mode m, sum SIDE r = -m^2 and that value
    is 3/4: the doubled mode is never resonant.  It is computed, not
    taken as 3/4, to follow the float speed next to an interface."""
    j2 = 4.0 * m * m
    half_cube = 0.5 * r ** 3
    secular = 1.0 + np.sum(pc.SIDE * r) / j2
    return half_cube - pc.SPECIES * r * (np.sum(pc.CHARGE * half_cube)
                                         / (j2 * secular))


def nearest_component_index(cfg, c_star):
    """Index of the interface velocity closest to the speed.  Ties go to
    the lower interface of the plus species first (smaller k, then plus)."""
    a = cfg.as_array()
    dist = np.abs(a - c_star)
    # preference order: plus1, minus1, plus2, minus2 (k before species)
    order = [0, 2, 1, 3]
    best = min(order, key=lambda i: dist[i])
    return int(best)


def local_expansion(m, cfg, c_star):
    """Assemble the full local data at an admissible speed, each part
    computed once.

    The speed curvature is the cokernel pairing of the mixed quadratic
    interaction over the transversality value; the first derivative of
    the speed vanishes.  The interaction of the kernel mode v cos(m x)
    with the correction t cos(2 m x) is dx(v_i t_i cos(m x) cos(2 m x)),
    whose fundamental part is -(m/2) v_i t_i sin(m x); the cokernel w
    pairs with that alone."""
    trans = pc.transversality(m, cfg, c_star)
    v = pc.kernel_vector(m, cfg, c_star)
    w = pc.cokernel_vector(m, cfg, c_star)
    recip_sq = pc.reciprocal_sq_weights(cfg, c_star)
    t = _doubled_mode_solve(m, pc.SPECIES * v)  # SPECIES * v = r
    curv = -0.5 * m * float(np.sum(w * v * t)) / trans
    return LocalExpansion(
        m=int(m), cfg=cfg, c_star=float(c_star), kernel_vec=v,
        cokernel_vec=w, recip_sq=recip_sq, second_harmonic_amp=t,
        speed_curvature=curv,
        pitchfork="supercritical" if curv > 0 else "subcritical",
        nearest_component=nearest_component_index(cfg, c_star))


def predictor(origin, s, count):
    """First-order branch point: (c* + curvature s^2 / 2, s * kernel mode).

    The quadratic state correction is omitted; Newton correction
    recovers it.  `count` sets the truncation of the returned state.
    """
    c = origin.c_star + 0.5 * origin.speed_curvature * s * s
    cos = np.zeros((4, count))
    cos[:, 0] = s * origin.kernel_vec
    return c, InterfaceState.from_arrays(origin.m, cos)
