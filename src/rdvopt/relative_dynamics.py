"""Linear relative motion about an elliptic orbit in transformed coordinates.

The rotating target frame has x along-track, y opposite the orbit normal,
and z radial toward the central body.  States are mapped to coordinates
scaled by rho = 1 + e*cos(theta), in which the equations of motion admit
closed-form transition matrices with true anomaly as independent variable:

    x'' = 2 z',    y'' = -y,    z'' = 3 z / rho - 2 x'

The 6-state ordering is (x, y, z, vx, vy, vz); the in-plane block acts on
(x, z, vx, vz) and the out-of-plane block on (y, vy).

The transition matrices take scalars or arrays of anomalies: theta1 and
theta0 broadcast and the result is a (..., n, n) stack, a plain n x n
matrix for scalars, so that a whole grid costs one call.  The inverse
state map likewise takes a stack of states with one anomaly per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kepler import TargetOrbit, _anomalies, _mean

# Indices of the in-plane (x, z, vx, vz) and out-of-plane (y, vy) sub-states.
IN_PLANE_IDX = (0, 2, 3, 5)
OUT_OF_PLANE_IDX = (1, 4)
_IN_PLANE_BLOCK = np.ix_(IN_PLANE_IDX, IN_PLANE_IDX)
_OUT_OF_PLANE_BLOCK = np.ix_(OUT_OF_PLANE_IDX, OUT_OF_PLANE_IDX)

# The 1/(1-e^2) prefactor of the inverse matrix degrades as e -> 1.
_MAX_STM_ECC = 0.99


def _triples(value) -> np.ndarray:
    """value as a float array of shape (3,) or, for a stack of states, (..., 3)."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 3:
        raise ValueError(f"expected 3 components per vector, got shape {arr.shape}")
    return arr


def _states_equal(a, b):
    """Field-wise equality for the array-holding state classes."""
    if type(a) is not type(b):
        return NotImplemented
    return bool(np.array_equal(a.r, b.r) and np.array_equal(a.v, b.v))


@dataclass(frozen=True)
class RelativeState:
    """Chaser position/velocity relative to the target, rotating frame.

    r and v have shape (3,), or (..., 3) for a stack of states.
    """

    r: np.ndarray
    v: np.ndarray

    __eq__ = _states_equal

    def __post_init__(self):
        object.__setattr__(self, "r", _triples(self.r))
        object.__setattr__(self, "v", _triples(self.v))

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.r, self.v], axis=-1)


@dataclass(frozen=True)
class TransformedState:
    """Chaser state in rho-scaled coordinates; both blocks carry length units.

    r and v have shape (3,), or (..., 3) for a stack of states.
    """

    r: np.ndarray
    v: np.ndarray

    __eq__ = _states_equal

    def __post_init__(self):
        object.__setattr__(self, "r", _triples(self.r))
        object.__setattr__(self, "v", _triples(self.v))

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.r, self.v], axis=-1)

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "TransformedState":
        """State(s) from a (6,) vector or a (..., 6) stack."""
        x = np.asarray(x, dtype=float)
        return cls(r=x[..., :3], v=x[..., 3:])


def rho(theta, e: float):
    return 1.0 + e * np.cos(theta)


def to_transformed(state: RelativeState, theta: float, orbit: TargetOrbit) -> TransformedState:
    """Apply the direct transformation at true anomaly theta."""
    rh = rho(theta, orbit.e)
    r_t = rh * state.r
    v_t = -orbit.e * math.sin(theta) * state.r + state.v / (orbit.k2 * rh)
    return TransformedState(r=r_t, v=v_t)


def from_transformed(state: TransformedState, theta, orbit: TargetOrbit) -> RelativeState:
    """Invert the direct transformation at true anomaly theta.

    A (..., 3) stack of states takes one anomaly per state, so that a
    sampled trajectory maps back in one call.
    """
    theta = np.asarray(theta, dtype=float)[..., None]
    rh = rho(theta, orbit.e)
    r = state.r / rh
    v = orbit.k2 * (orbit.e * np.sin(theta) * state.r + rh * state.v)
    return RelativeState(r=r, v=v)


def _phi_in_plane(theta: np.ndarray, e: float, j: np.ndarray) -> np.ndarray:
    """Fundamental in-plane matrices over (x, z, vx, vz); j = k2*(t - t0).

    theta and j broadcast; the result is a (..., 4, 4) stack.
    """
    rh = rho(theta, e)
    sin, cos = np.sin(theta), np.cos(theta)
    s = rh * sin
    c = rh * cos
    sp = cos + e * np.cos(2.0 * theta)
    cp = -(sin + e * np.sin(2.0 * theta))
    k = 1.0 + 1.0 / rh
    phi = np.zeros(np.broadcast(theta, j).shape + (4, 4))
    phi[..., 0, 0] = 1.0
    phi[..., 0, 1] = -c * k
    phi[..., 0, 2] = s * k
    phi[..., 0, 3] = 3.0 * rh * rh * j
    phi[..., 1, 1] = s
    phi[..., 1, 2] = c
    phi[..., 1, 3] = 2.0 - 3.0 * e * s * j
    phi[..., 2, 1] = 2.0 * s
    phi[..., 2, 2] = 2.0 * c - e
    phi[..., 2, 3] = 3.0 * (1.0 - 2.0 * e * s * j)
    phi[..., 3, 1] = sp
    phi[..., 3, 2] = cp
    phi[..., 3, 3] = -3.0 * e * (sp * j + s / (rh * rh))
    return phi


def _phi_in_plane_inv(theta: np.ndarray, e: float) -> np.ndarray:
    """Inverses of the fundamental in-plane matrix (zero elapsed time), (..., 4, 4)."""
    rh = rho(theta, e)
    s = rh * np.sin(theta)
    c = rh * np.cos(theta)
    k = 1.0 + 1.0 / rh
    inv = np.zeros(np.shape(theta) + (4, 4))
    inv[..., 0, 0] = 1.0 - e * e
    inv[..., 0, 1] = 3.0 * e * s * (1.0 / rh + 1.0 / rh**2)
    inv[..., 0, 2] = -e * s * k
    inv[..., 0, 3] = -e * c + 2.0
    inv[..., 1, 1] = -3.0 * s * (1.0 / rh + e * e / rh**2)
    inv[..., 1, 2] = s * k
    inv[..., 1, 3] = c - 2.0 * e
    inv[..., 2, 1] = -3.0 * (c / rh + e)
    inv[..., 2, 2] = c * k + e
    inv[..., 2, 3] = -s
    inv[..., 3, 1] = 3.0 * rh + e * e - 1.0
    inv[..., 3, 2] = -rh * rh
    inv[..., 3, 3] = e * s
    return (1.0 / (1.0 - e * e)) * inv


def _check_ecc(orbit: TargetOrbit):
    if orbit.e > _MAX_STM_ECC:
        raise ValueError(
            f"transition matrices are ill-conditioned for e > {_MAX_STM_ECC} (got e={orbit.e})"
        )


def stm_in_plane(theta1, theta0, orbit: TargetOrbit) -> np.ndarray:
    """4x4 transition matrices over (x, z, vx, vz) from theta0 to theta1.

    theta1 and theta0 broadcast; the result is a (..., 4, 4) stack.  The
    elapsed-time term is evaluated through Kepler's equation on the
    unwrapped anomalies, never by quadrature.
    """
    _check_ecc(orbit)
    theta1, theta0 = _anomalies(theta1), _anomalies(theta0)
    dm = _mean(theta1, orbit.e) - _mean(theta0, orbit.e)
    j = (orbit.k2 / orbit.n) * dm
    return _phi_in_plane(theta1, orbit.e, j) @ _phi_in_plane_inv(theta0, orbit.e)


def stm_out_of_plane(theta1, theta0, orbit: TargetOrbit) -> np.ndarray:
    """2x2 transition matrices over (y, vy): rotations by theta1 - theta0."""
    dth = _anomalies(theta1) - _anomalies(theta0)
    c, s = np.cos(dth), np.sin(dth)
    rot = np.empty(np.shape(dth) + (2, 2))
    rot[..., 0, 0] = c
    rot[..., 0, 1] = s
    rot[..., 1, 0] = -s
    rot[..., 1, 1] = c
    return rot


def stm_full(theta1, theta0, orbit: TargetOrbit) -> np.ndarray:
    """6x6 transition matrices over (x, y, z, vx, vy, vz); cross-blocks are zero."""
    in_plane = stm_in_plane(theta1, theta0, orbit)
    full = np.zeros(in_plane.shape[:-2] + (6, 6))
    full[(..., *_IN_PLANE_BLOCK)] = in_plane
    full[(..., *_OUT_OF_PLANE_BLOCK)] = stm_out_of_plane(theta1, theta0, orbit)
    return full
