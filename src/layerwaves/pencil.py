"""Exact linear analysis at the flat state.

For each Fourier mode j the linearization acts through a 4x4 matrix
pencil in the wave speed c.  Its determinant is a quartic in c whose
admissible real roots are the bifurcation speeds; kernel and cokernel
vectors and the transversality pairing all have closed forms in terms
of the reciprocal gaps (a_i - c)^-1.

Component order everywhere: (plus lower, plus upper, minus lower,
minus upper), i.e. ion strip interfaces first.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateSpeedError

# Name, species sign and charge weight of each component: the pencil
# couples the components by the rank-one matrix outer(SPECIES, CHARGE),
# and CHARGE @ r is the charge difference d.  SIDE is -1 on the lower
# and +1 on the upper interface of a strip.
COMPONENT_NAMES = ("plus1", "plus2", "minus1", "minus2")
SPECIES = np.array([1.0, 1.0, -1.0, -1.0])
CHARGE = np.array([-1.0, 1.0, 1.0, -1.0])
SIDE = SPECIES * CHARGE

GENERIC = "generic"
SYMMETRIC = "symmetric"
SUCCESSIVE = "successive"

_EQ_TOL = 1e-12
# np.roots returns a double root of the quartic as two roots about
# sqrt(eps) * scale apart (at most 3.7 times that on the two-or-four
# switch layers (0, w, +-d* w, +-d* w + w), m = 1-3, w = 1/1000-1000),
# so roots closer than this share of LayerConfig.scale() are one root.
DOUBLE_ROOT_TOL = 8.0 * math.sqrt(np.finfo(float).eps)

# Every speed of mode j is an eigenvalue of diag(a) + B / j^2, B the
# fixed part of the pencil, so |c| <= max|a_i| + 4 and no entry
# j^2 (a_i - c) or +-1 of the mode-j pencil at such a speed exceeds
# 5 j^2 s, s = LayerConfig.scale().  The pencil's determinant, as 24
# products of four such entries, and the coefficients of its quartic
# stay finite while that entry bound stays below this one.
MAX_PENCIL_ENTRY = (float(np.finfo(float).max) / 24.0) ** 0.25


@dataclass(frozen=True)
class LayerConfig:
    """The four flat interface velocities, validated to equal strip widths."""

    a_plus_1: float
    a_plus_2: float
    a_minus_1: float
    a_minus_2: float
    regime: str = field(init=False)

    def __post_init__(self):
        a = self.as_array()
        if not np.all(np.isfinite(a)):
            raise ConfigError("invalid-config: non-finite velocities")
        width_plus = self.a_plus_2 - self.a_plus_1
        width_minus = self.a_minus_2 - self.a_minus_1
        if abs(width_plus - width_minus) > _EQ_TOL:
            raise ConfigError(
                "invalid-config: strip widths must be equal "
                f"(a_plus_2-a_plus_1={width_plus:g}, "
                f"a_minus_2-a_minus_1={width_minus:g})")
        if width_plus <= _EQ_TOL:
            raise ConfigError("invalid-config: strip width must be positive")
        object.__setattr__(self, "regime", self._classify())

    def _classify(self):
        if (abs(self.a_plus_1 - self.a_minus_1) <= _EQ_TOL
                and abs(self.a_plus_2 - self.a_minus_2) <= _EQ_TOL):
            return SYMMETRIC
        if (abs(self.a_plus_1 - self.a_minus_2) <= _EQ_TOL
                or abs(self.a_plus_2 - self.a_minus_1) <= _EQ_TOL):
            return SUCCESSIVE
        return GENERIC

    def as_array(self):
        return np.array([self.a_plus_1, self.a_plus_2,
                         self.a_minus_1, self.a_minus_2])

    @property
    def width(self):
        return self.a_plus_2 - self.a_plus_1

    def scale(self):
        return 1.0 + float(np.max(np.abs(self.as_array())))


def pencil_is_finite(m, cfg):
    """Whether the pencils of modes m and 2m (the doubled mode of the
    local expansion), their determinants and speeds stay finite.  The
    first test keeps the float conversion of a huge integer m finite."""
    return (m <= MAX_PENCIL_ENTRY
            and 20.0 * m * m * cfg.scale() <= MAX_PENCIL_ENTRY)


def classify_config(a):
    """Validate four interface velocities and label the regime."""
    a = np.asarray(a, dtype=float)
    if a.shape != (4,):
        raise ConfigError("invalid-config: expected four velocities")
    return LayerConfig(*a)


def determinant_poly(m, cfg):
    """Quartic coefficients (highest first) of det of the mode-m pencil.

    The coupling is rank one, so det(D + u w^T) = det D + sum_i u_i w_i
    prod_{k != i} D_k with D = diag m^2 (a_i - c), u = SPECIES, w = CHARGE:
    m^8 prod_i (a_i - c) plus an m^6 sum of signed cubics.  No 4x4
    matrix is formed; the tests keep the pencil (oracle.mode_matrix) and
    its brute-force determinant as an independent oracle.
    """
    a = cfg.as_array()
    poly = float(m) ** 8 * np.poly(a)
    for i in range(4):
        # prod over the three other factors: (a_k - c) = -(c - a_k) each,
        # so three factors contribute a global -1 relative to np.poly.
        cubic = -np.poly(np.delete(a, i))
        poly[1:] += float(m) ** 6 * SIDE[i] * cubic
    return poly


@dataclass(frozen=True)
class SpeedRecord:
    value: complex
    multiplicity: int
    admissible: bool
    provenance: str  # 'closed-form' or 'quartic-root'

    def real_value(self):
        return float(self.value.real)

    def to_json(self):
        c = self.value
        return {"c": c.real if c.imag == 0.0 else {"re": c.real, "im": c.imag},
                "multiplicity": self.multiplicity,
                "admissible": self.admissible,
                "provenance": self.provenance}


@dataclass(frozen=True)
class SpeedSet:
    mode: int
    regime: str
    speeds: tuple

    def admissible(self):
        """Admissible real speeds, ascending."""
        return sorted(s.real_value() for s in self.speeds if s.admissible)

    def to_json(self):
        return {"m": self.mode, "regime": self.regime,
                "speeds": [s.to_json() for s in self.speeds]}


def _is_real(z):
    return abs(z.imag) <= 1e-9 * (1.0 + abs(z.real))


def _near_component(c, cfg):
    return bool(np.min(np.abs(cfg.as_array() - c)) <= 1e-10 * cfg.scale())


def quartic_roots(m, cfg):
    """Companion-matrix roots of the mode-m determinant quartic."""
    return np.roots(determinant_poly(m, cfg))


def bifurcation_speeds(m, cfg):
    """All four determinant roots with multiplicities and admissibility.

    Symmetric and successive regimes use the closed forms (robust near
    the double root): inadmissible roots at interface velocities and the
    pair (alpha+beta)/2 -+ sqrt((beta-alpha)^2 + 8*width/m^2)/2; the
    tests compare them with the quartic roots of the generic regime.
    """
    if cfg.regime == GENERIC:
        roots = quartic_roots(m, cfg)
        records = []
        used = np.zeros(len(roots), dtype=bool)
        tol = DOUBLE_ROOT_TOL * cfg.scale()
        for i, z in enumerate(roots):
            if used[i]:
                continue
            cluster = [z]
            used[i] = True
            for k in range(i + 1, len(roots)):
                if not used[k] and abs(roots[k] - z) <= tol:
                    cluster.append(roots[k])
                    used[k] = True
            center = complex(np.mean(cluster))
            if _is_real(center):
                center = complex(center.real)
            admissible = (len(cluster) == 1 and center.imag == 0.0
                          and not _near_component(center.real, cfg))
            records.append(SpeedRecord(center, len(cluster), admissible,
                                       "quartic-root"))
        return SpeedSet(int(m), cfg.regime, tuple(records))
    a = cfg.as_array()
    if cfg.regime == SYMMETRIC:  # simple roots a_+^1 and a_+^2
        fixed, multiplicity, (alpha, beta) = a[:2], 1, a[:2]
    elif abs(a[1] - a[2]) <= _EQ_TOL:  # double root a_+^2 = a_-^1
        fixed, multiplicity, (alpha, beta) = a[1:2], 2, a[[0, 3]]
    else:  # double root a_+^1 = a_-^2
        fixed, multiplicity, (alpha, beta) = a[:1], 2, a[1:3]
    half = 0.5 * math.sqrt((beta - alpha) ** 2 + 8.0 * cfg.width / m ** 2)
    mid = 0.5 * (alpha + beta)
    records = [SpeedRecord(complex(c), multiplicity, False, "closed-form")
               for c in fixed]
    records += [SpeedRecord(complex(c), 1, not _near_component(c, cfg),
                            "closed-form") for c in (mid - half, mid + half)]
    return SpeedSet(int(m), cfg.regime, tuple(records))


def _reciprocal_gaps(cfg, c_star):
    gaps = cfg.as_array() - c_star
    if np.min(np.abs(gaps)) <= 1e-13 * cfg.scale():
        raise DegenerateSpeedError(
            f"speed {c_star!r} coincides with an interface velocity")
    return 1.0 / gaps


def kernel_vector(m, cfg, c_star):
    """Null vector of the mode-m pencil at an admissible speed."""
    return _reciprocal_gaps(cfg, c_star) * SPECIES


def cokernel_vector(m, cfg, c_star):
    """Null vector of the transposed pencil (range orthogonal)."""
    return -_reciprocal_gaps(cfg, c_star) * CHARGE


def reciprocal_sq_weights(cfg, c_star):
    """Component-wise (a_i - c)^-2 (drives the quadratic interaction)."""
    return _reciprocal_gaps(cfg, c_star) ** 2


def transversality(m, cfg, c_star):
    """Pairing m * sum_i (-1)^(k_i+1) (a_i - c)^-2; nonzero at admissible speeds.

    A magnitude below 1e-10 signals numerical trouble (it cannot vanish
    at an admissible speed) and raises DegenerateSpeedError.
    """
    wsq = reciprocal_sq_weights(cfg, c_star)
    value = float(m) * float(np.dot(-SIDE, wsq))
    if abs(value) < 1e-10:
        raise DegenerateSpeedError(
            f"transversality ~ 0 at c={c_star!r}; speed is numerically degenerate")
    return value
