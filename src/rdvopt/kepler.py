"""Time <-> true anomaly conversions on elliptic orbits, with revolution tracking.

All anomalies are kept unwrapped (no modulo-2pi reduction): a transfer
spanning ten revolutions has a final true anomaly near 20*pi.  Wrapping
would corrupt every quantity downstream that depends on elapsed time.

The true-anomaly to time direction takes a scalar or an array of
anomalies, so that a whole grid is converted in one call; a scalar input
returns a float.  The inverse direction solves Kepler's equation and is
scalar only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conic_solver import _check_real

MU_EARTH_KM3_S2 = 398600.4418

_TWO_PI = 2.0 * math.pi

# Kepler inversion: residual tolerance on eccentric anomaly and iteration cap.
_KEPLER_TOL = 1e-13
_KEPLER_MAX_ITER = 50


class KeplerConvergenceError(RuntimeError):
    """Kepler's equation could not be inverted to tolerance."""


@dataclass(frozen=True)
class TargetOrbit:
    """Keplerian elements of the passive reference orbit.

    Angles are radians; a and mu share a consistent unit system (km and
    km^3/s^2 for physical scenarios, 1 and 1 for normalized ones).
    """

    a: float
    e: float
    i: float = 0.0
    raan: float = 0.0
    argp: float = 0.0
    theta0: float = 0.0
    mu: float = MU_EARTH_KM3_S2

    def __post_init__(self):
        for name in ("a", "mu"):
            _check_real(name, getattr(self, name))
        for name in ("i", "raan", "argp", "theta0"):
            _check_real(name, getattr(self, name), "finite")
        _check_real("e", self.e, "nonnegative")
        if not self.e < 1.0:
            raise ValueError(f"eccentricity must be in [0, 1), got {self.e}")

    @property
    def p(self) -> float:
        """Semilatus rectum a*(1 - e^2)."""
        return self.a * (1.0 - self.e * self.e)

    @property
    def h(self) -> float:
        """Specific angular momentum sqrt(mu*p)."""
        return math.sqrt(self.mu * self.p)

    @property
    def k2(self) -> float:
        """h / p^2, the scale factor of the coordinate transformation (1/time)."""
        return self.h / (self.p * self.p)

    @property
    def n(self) -> float:
        """Mean motion sqrt(mu/a^3)."""
        return math.sqrt(self.mu / self.a**3)

    @property
    def period(self) -> float:
        return _TWO_PI / self.n


def _anomalies(theta):
    """theta as a float array, or as a numpy scalar when it is a scalar.

    Arithmetic on numpy scalars is several times cheaper than on 0-d
    arrays, and the scalar case is the common one outside grid building.
    """
    return np.asarray(theta, dtype=float)[()]


def _like_input(value):
    """A float for a 0-d result, the array otherwise."""
    return float(value) if value.ndim == 0 else value


def _eccentric(theta, e: float):
    """eccentric_from_true on a numpy array or scalar, without conversions."""
    half = 0.5 * theta
    ew = 2.0 * np.arctan2(math.sqrt(1.0 - e) * np.sin(half), math.sqrt(1.0 + e) * np.cos(half))
    # |E - theta| < pi on elliptic orbits, so the revolution is recovered
    # exactly; np.rint rounds half to even, as the builtin round does.
    return ew + _TWO_PI * np.rint((theta - ew) / _TWO_PI)


def _mean(theta, e: float):
    """mean_from_true on a numpy array or scalar, without conversions."""
    ecc = _eccentric(theta, e)
    return ecc - e * np.sin(ecc)


def eccentric_from_true(theta, e: float):
    """Eccentric anomaly for unwrapped true anomalies, same revolution count.

    theta is a scalar or an array; the result has its shape.
    """
    return _like_input(_eccentric(_anomalies(theta), e))


def true_from_eccentric(ecc_anom: float, e: float) -> float:
    """Inverse of eccentric_from_true, preserving the revolution count."""
    tw = 2.0 * math.atan2(
        math.sqrt(1.0 + e) * math.sin(0.5 * ecc_anom),
        math.sqrt(1.0 - e) * math.cos(0.5 * ecc_anom),
    )
    return tw + _TWO_PI * round((ecc_anom - tw) / _TWO_PI)


def mean_from_true(theta, e: float):
    """Mean anomaly for unwrapped true anomalies (scalar or array)."""
    return _like_input(_mean(_anomalies(theta), e))


def solve_kepler(mean_anom: float, e: float, max_iter: int = _KEPLER_MAX_ITER) -> float:
    """Solve E - e*sin(E) = M for M in [0, 2*pi) by safeguarded Newton iteration.

    Newton from E0 = M (E0 = pi for e >= 0.8) with a bisection fallback on
    [0, 2*pi]; the residual is monotone in E, so the bracket always holds.
    """
    lo, hi = 0.0, _TWO_PI
    ecc = mean_anom if e < 0.8 else math.pi
    resid = ecc - e * math.sin(ecc) - mean_anom
    for _ in range(max_iter):
        if abs(resid) <= _KEPLER_TOL:
            return ecc
        if resid > 0.0:
            hi = ecc
        else:
            lo = ecc
        step = resid / (1.0 - e * math.cos(ecc))
        cand = ecc - step
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        ecc = cand
        resid = ecc - e * math.sin(ecc) - mean_anom
    if abs(resid) <= _KEPLER_TOL:
        return ecc
    raise KeplerConvergenceError(
        f"Kepler iteration did not reach |residual| <= {_KEPLER_TOL} in "
        f"{max_iter} iterations (residual {resid:.3e}, e={e}, M={mean_anom})"
    )


def time_from_true(theta, orbit: TargetOrbit):
    """Epoch-relative times at unwrapped true anomalies; t(theta0) = 0.

    theta is a scalar or an array; the result has its shape.
    """
    m = _mean(_anomalies(theta), orbit.e)
    return _like_input((m - _mean(orbit.theta0, orbit.e)) / orbit.n)


def true_from_time(t: float, orbit: TargetOrbit) -> float:
    """Unwrapped true anomaly at epoch-relative time t (inverse of time_from_true)."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    m = mean_from_true(orbit.theta0, orbit.e) + orbit.n * t
    rev = math.floor(m / _TWO_PI)
    ecc = solve_kepler(m - _TWO_PI * rev, orbit.e)
    return true_from_eccentric(ecc, orbit.e) + _TWO_PI * rev
