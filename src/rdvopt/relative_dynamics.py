"""Linear relative motion about an elliptic orbit in transformed coordinates.

The rotating target frame has x along-track, y opposite the orbit normal,
and z radial toward the central body.  States are mapped to coordinates
scaled by rho = 1 + e*cos(theta), in which the equations of motion admit
closed-form transition matrices with true anomaly as independent variable:

    x'' = 2 z',    y'' = -y,    z'' = 3 z / rho - 2 x'

The 6-state ordering is (x, y, z, vx, vy, vz); the in-plane block acts on
(x, z, vx, vz) and the out-of-plane block on (y, vy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kepler import TargetOrbit, time_from_true

# Indices of the in-plane (x, z, vx, vz) and out-of-plane (y, vy) sub-states.
IN_PLANE_IDX = (0, 2, 3, 5)
OUT_OF_PLANE_IDX = (1, 4)

# The 1/(1-e^2) prefactor of the inverse matrix degrades as e -> 1.
_MAX_STM_ECC = 0.99


@dataclass(frozen=True)
class RelativeState:
    """Chaser position/velocity relative to the target, rotating frame."""

    r: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float).reshape(3))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float).reshape(3))

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.r, self.v])


@dataclass(frozen=True)
class TransformedState:
    """Chaser state in rho-scaled coordinates; both blocks carry length units."""

    r: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float).reshape(3))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float).reshape(3))

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.r, self.v])

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "TransformedState":
        x = np.asarray(x, dtype=float).reshape(6)
        return cls(r=x[:3], v=x[3:])


def rho(theta: float, e: float) -> float:
    return 1.0 + e * math.cos(theta)


def to_transformed(state: RelativeState, theta: float, orbit: TargetOrbit) -> TransformedState:
    """Apply the direct transformation at true anomaly theta."""
    rh = rho(theta, orbit.e)
    r_t = rh * state.r
    v_t = -orbit.e * math.sin(theta) * state.r + state.v / (orbit.k2 * rh)
    return TransformedState(r=r_t, v=v_t)


def from_transformed(state: TransformedState, theta: float, orbit: TargetOrbit) -> RelativeState:
    """Invert the direct transformation at true anomaly theta."""
    rh = rho(theta, orbit.e)
    r = state.r / rh
    v = orbit.k2 * (orbit.e * math.sin(theta) * state.r + rh * state.v)
    return RelativeState(r=r, v=v)


def _phi_in_plane(theta: float, e: float, j: float) -> np.ndarray:
    """Fundamental in-plane matrix over (x, z, vx, vz); j = k2*(t - t0)."""
    rh = rho(theta, e)
    s = rh * math.sin(theta)
    c = rh * math.cos(theta)
    sp = math.cos(theta) + e * math.cos(2.0 * theta)
    cp = -(math.sin(theta) + e * math.sin(2.0 * theta))
    return np.array([
        [1.0, -c * (1.0 + 1.0 / rh), s * (1.0 + 1.0 / rh), 3.0 * rh * rh * j],
        [0.0, s, c, 2.0 - 3.0 * e * s * j],
        [0.0, 2.0 * s, 2.0 * c - e, 3.0 * (1.0 - 2.0 * e * s * j)],
        [0.0, sp, cp, -3.0 * e * (sp * j + s / (rh * rh))],
    ])


def _phi_in_plane_inv(theta: float, e: float) -> np.ndarray:
    """Inverse of the fundamental in-plane matrix at theta (zero elapsed time)."""
    rh = rho(theta, e)
    s = rh * math.sin(theta)
    c = rh * math.cos(theta)
    return (1.0 / (1.0 - e * e)) * np.array([
        [1.0 - e * e, 3.0 * e * s * (1.0 / rh + 1.0 / rh**2), -e * s * (1.0 + 1.0 / rh), -e * c + 2.0],
        [0.0, -3.0 * s * (1.0 / rh + e * e / rh**2), s * (1.0 + 1.0 / rh), c - 2.0 * e],
        [0.0, -3.0 * (c / rh + e), c * (1.0 + 1.0 / rh) + e, -s],
        [0.0, 3.0 * rh + e * e - 1.0, -rh * rh, e * s],
    ])


def _check_ecc(orbit: TargetOrbit):
    if orbit.e > _MAX_STM_ECC:
        raise ValueError(
            f"transition matrices are ill-conditioned for e > {_MAX_STM_ECC} (got e={orbit.e})"
        )


def stm_in_plane(theta1: float, theta0: float, orbit: TargetOrbit) -> np.ndarray:
    """4x4 transition matrix over (x, z, vx, vz) from theta0 to theta1.

    The elapsed-time term is evaluated through Kepler's equation on the
    unwrapped anomalies, never by quadrature.
    """
    _check_ecc(orbit)
    j = orbit.k2 * (time_from_true(theta1, orbit) - time_from_true(theta0, orbit))
    return _phi_in_plane(theta1, orbit.e, j) @ _phi_in_plane_inv(theta0, orbit.e)


def stm_out_of_plane(theta1: float, theta0: float, orbit: TargetOrbit) -> np.ndarray:
    """2x2 transition matrix over (y, vy): a rotation by theta1 - theta0."""
    dth = theta1 - theta0
    c, s = math.cos(dth), math.sin(dth)
    return np.array([[c, s], [-s, c]])


def stm_full(theta1: float, theta0: float, orbit: TargetOrbit) -> np.ndarray:
    """6x6 transition matrix over (x, y, z, vx, vy, vz); cross-blocks are zero."""
    full = np.zeros((6, 6))
    full[np.ix_(IN_PLANE_IDX, IN_PLANE_IDX)] = stm_in_plane(theta1, theta0, orbit)
    full[np.ix_(OUT_OF_PLANE_IDX, OUT_OF_PLANE_IDX)] = stm_out_of_plane(theta1, theta0, orbit)
    return full
