"""Rotation primitives and the planar pose increment.

A pose is a world position (3,) and a yaw about z, carried as plain
arrays; nothing in the package holds a pose type.  Rotations are 3x3
matrices: the estimator turns a yaw into one with rot_z, and exp_so3 maps
the rig's rotation vectors and the simulator's (0, 0, yaw) stacks.
"""

import math

import numpy as np

# Below this angle Rodrigues terms switch to their second-order Taylor
# expansions to avoid 0/0.
SMALL_ANGLE = 1e-8


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices (..., 3, 3) of vectors (..., 3), such that
    skew(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=float)
    s = np.zeros(v.shape[:-1] + (3, 3))
    s[..., [2, 0, 1], [1, 2, 0]] = v
    s[..., [1, 2, 0], [2, 0, 1]] = -v
    return s


def rot_z(yaw: float) -> np.ndarray:
    """Rotation by yaw radians about the z axis."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def exp_so3(phi: np.ndarray) -> np.ndarray:
    """Rodrigues formula mapping rotation vectors (..., 3) to rotation
    matrices (..., 3, 3).  Every vector in a stack rounds as it does alone."""
    phi = np.asarray(phi, dtype=float)
    angle = np.sqrt(phi[..., None, :] @ phi[..., :, None])  # (..., 1, 1)
    s = skew(phi)
    big = angle >= SMALL_ANGLE
    a = np.divide(np.sin(angle), angle, out=np.ones_like(angle), where=big)
    b = np.divide(1.0 - np.cos(angle), angle * angle,
                  out=np.full_like(angle, 0.5), where=big)
    return np.eye(3) + a * s + b * (s @ s)


def wrap_yaw(yaw: float) -> float:
    """yaw wrapped to (-pi, pi]."""
    return yaw - 2.0 * math.pi * math.ceil((yaw - math.pi) / (2.0 * math.pi))


def boxplus(position: np.ndarray, yaw: float, dp: np.ndarray,
            dyaw: float) -> tuple:
    """Planar increment: (position + dp, yaw + dyaw wrapped to (-pi, pi]),
    with dp in the world frame."""
    return position + dp, wrap_yaw(yaw + dyaw)
