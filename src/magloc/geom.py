"""Rotation and rigid-transform primitives.

Orientation is carried as an axis-angle 3-vector (rotation vector) and
converted to a 3x3 matrix at use sites.  The estimator's state is planar,
(x, y, yaw), with the orientation (0, 0, yaw) turned into a matrix by
rot_z; the SO(3) maps serve dataset quaternions, sensor extrinsics and
the simulator.  Pose perturbations apply the translation additively in
the world frame and the rotation as a right-multiplied exponential.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

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


def log_so3(r: np.ndarray) -> np.ndarray:
    """Principal-branch rotation vector of a rotation matrix (norm <= pi)."""
    r = np.asarray(r, dtype=float)
    trace = float(np.trace(r))
    cos_angle = np.clip(0.5 * (trace - 1.0), -1.0, 1.0)
    angle = float(np.arccos(cos_angle))
    # sin(angle)-scaled antisymmetric part; valid away from angle ~ pi.
    w = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if angle < SMALL_ANGLE:
        return w
    if np.pi - angle < 1e-4:
        # Near the pi branch the antisymmetric part vanishes; recover the
        # axis from the dominant diagonal of (R + I) / 2 instead.
        log.debug("log_so3 taking the stabilized pi-branch (angle=%.6f)", angle)
        diag = np.diag(r)
        k = int(np.argmax(diag))
        axis = np.zeros(3)
        axis[k] = np.sqrt(max(0.0, (diag[k] + 1.0) * 0.5))
        denom = 2.0 * axis[k]
        for j in range(3):
            if j != k:
                axis[j] = (r[k, j] + r[j, k]) / (2.0 * denom)
        axis /= np.linalg.norm(axis)
        # Fix the sign so the result stays consistent with the antisymmetric
        # part when it has not fully vanished.
        if np.dot(axis, w) < 0.0:
            axis = -axis
        return axis * angle
    return w * (angle / np.sin(angle))


@dataclass
class RigidTransform:
    """Rotation + translation; maps points as rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    return RigidTransform(a.rotation @ b.rotation,
                          a.rotation @ b.translation + a.translation)


def inverse(a: RigidTransform) -> RigidTransform:
    rt = a.rotation.T
    return RigidTransform(rt.copy(), -(rt @ a.translation))


@dataclass
class PoseState:
    """Robot pose: world position and axis-angle orientation."""

    position: np.ndarray
    orientation: np.ndarray  # rotation vector, radians

    @staticmethod
    def identity() -> "PoseState":
        return PoseState(np.zeros(3), np.zeros(3))

    def rotation(self) -> np.ndarray:
        return exp_so3(self.orientation)

    def copy(self) -> "PoseState":
        return PoseState(self.position.copy(), self.orientation.copy())


@dataclass
class PosePerturbation:
    """Manifold increment [dp, dphi] applied through boxplus."""

    dp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dphi: np.ndarray = field(default_factory=lambda: np.zeros(3))


def boxplus(x: PoseState, dx: PosePerturbation) -> PoseState:
    """Apply a perturbation: p += dp, R <- R @ exp(dphi), re-encoded."""
    position = x.position + dx.dp
    if not np.any(dx.dphi):
        return PoseState(position, x.orientation.copy())
    r = x.rotation() @ exp_so3(dx.dphi)
    return PoseState(position, log_so3(r))
