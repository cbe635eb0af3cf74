"""Oracles and per-sensor views of the estimator's batched internals.

The finite-difference and residual checks compare one sensor's stacked
body-frame residual and Jacobian.  The estimator solves the pose block in
the world frame; these helpers build each sensor's rotation R from the
window (`sensor_poses`) and turn the production world-frame blocks of
`_jacobian_all` into the body frame with R^T.  The RLS batch oracles build
the dense 12-parameter problem from `regressor`, apart from the
estimator's 4x4 information form.  `RigidTransform`, `compose`, `inverse`
and `sensor_world_poses` are the per-pose geometry that the window and
simulator tests compose their references from.  `associate_loop` is the
per-estimate loop that the vectorized trajectory association of
`evaluate` must reproduce pair for pair.
"""

from dataclasses import dataclass

import numpy as np

from magloc.estimator import _jacobian_all
from magloc.geom import PoseState, rot_z
from magloc.magmap import interpolate_many
from magloc.sim import identity_theta


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


def sensor_world_poses(gt_pose: PoseState, extrinsics) -> tuple:
    """World rotation and position of every sensor at one robot pose."""
    r_body = gt_pose.rotation()
    rots = np.stack([r_body @ e.rotation for e in extrinsics])
    positions = np.stack([r_body @ e.translation + gt_pose.position
                          for e in extrinsics])
    return rots, positions


def sensor_poses(snap, r_body: np.ndarray, p_body: np.ndarray) -> tuple:
    """World pose of every (entry, sensor) pair of a window snapshot under
    the body pose (r_body, p_body): rotations (J, N, 3, 3) and positions
    (J, N, 3),
        R = R_body @ relR @ extR,  p = R_body @ (relp + relR @ extp) + p_body.
    """
    rotations = r_body @ np.swapaxes(snap.rotations_t, -1, -2)
    positions = snap.offsets @ r_body.T + p_body
    return rotations, positions


def regressor(b) -> np.ndarray:
    """3x12 matrix of the affine sensor model: regressor(b) @ theta ==
    C @ b + bias for theta = [rows of C, bias]."""
    return np.hstack([np.kron(np.eye(3), np.reshape(b, (1, 3))), np.eye(3)])


def rls_batch(bs, gs, eps: float) -> np.ndarray:
    """Dense solve of the prior-regularized 12-parameter least squares
    over readings bs and fields gs, around the identity calibration."""
    hs = [regressor(b) for b in bs]
    normal = eps * np.eye(12) + sum(h.T @ h for h in hs)
    rhs = eps * identity_theta() + sum(h.T @ g for h, g in zip(hs, gs))
    return np.linalg.solve(normal, rhs)


def _sensor_frame(window, x, grid) -> tuple:
    """The window's snapshot with the sensor rotations, positions and
    world-frame map fields of every (entry, sensor) pair at the planar
    state x."""
    snap = window.snapshot()
    rotations, positions = sensor_poses(snap, rot_z(x.orientation[2]),
                                        x.position)
    return snap, rotations, positions, interpolate_many(
        grid, positions.reshape(-1, 3)).reshape(positions.shape)


def pose_residual(window, theta, x, grid, sensor: int) -> np.ndarray:
    """Stacked (3*J,) body-frame residual C b + bias - R^T M(p) of one
    sensor at the planar state x."""
    snap, rotations, _, m = _sensor_frame(window, x, grid)
    g = np.einsum("jba,jb->ja", rotations[:, sensor], m[:, sensor])
    c = np.reshape(theta[:9], (3, 3))
    return (snap.readings[:, sensor] @ c.T + theta[9:] - g).ravel()


def pose_jacobian(window, x, grid, sensor: int) -> np.ndarray:
    """Stacked (3*J, 3) body-frame pose Jacobian of one sensor: R^T times
    the world-frame blocks of _jacobian_all."""
    _, rotations, positions, m = _sensor_frame(window, x, grid)
    blocks = _jacobian_all(grid, positions, m, x.position)[:, sensor]
    return (np.swapaxes(rotations[:, sensor], -1, -2) @ blocks).reshape(-1, 3)


def node_position(grid, i: int, j: int) -> np.ndarray:
    """World position of grid node (i, j)."""
    return np.array([grid.origin[0] + i * grid.resolution,
                     grid.origin[1] + j * grid.resolution,
                     grid.plane_height])


def associate_loop(est_t, est_p, ref_t, ref_p, max_dt: float) -> tuple:
    """(est, ref) position arrays of nearest-timestamp association, one
    estimate at a time: the oracle of evaluate._associate.

    Each estimate takes the nearer of the reference samples either side of
    it in sorted order, the later on a tie, if its gap is at most max_dt.
    """
    ref_t = np.asarray(ref_t, dtype=float)
    order = np.argsort(ref_t)
    ref_t_sorted = ref_t[order]
    idx = np.searchsorted(ref_t_sorted, est_t)
    est, ref = [], []
    for k, t in enumerate(np.asarray(est_t, dtype=float)):
        best, best_dt = None, max_dt
        for cand in (idx[k] - 1, idx[k]):
            if 0 <= cand < len(ref_t_sorted):
                dt = abs(ref_t_sorted[cand] - t)
                if dt <= best_dt:
                    best, best_dt = order[cand], dt
        if best is not None:
            est.append(est_p[k])
            ref.append(ref_p[best])
    return (np.array(est, dtype=float).reshape(-1, 3),
            np.array(ref, dtype=float).reshape(-1, 3))
