"""Sliding measurement window over a traveled-distance horizon.

Each entry keeps the backward relative pose of its frame expressed in the
newest frame, so the window re-expresses the whole accumulated sequence at
the current time: on every push the existing entries are pre-composed with
the inverse of the new odometry increment and entries that have fallen
more than the horizon behind are evicted.

The entries are stored as stacked arrays, oldest first, one row per
entry.  A push costs a fixed number of numpy calls whatever the window
length: one batched matmul composes every entry with the inverse
increment, a boolean mask evicts, and one concatenation per array appends
the new entry.
"""

from dataclasses import dataclass

import numpy as np

from .sim import DatasetFrame

# Below these increments a frame replaces the newest entry instead of
# accumulating, so standstill does not pile up duplicate constraints.
STATIONARY_TRANS = 1e-4
STATIONARY_ROT = 1e-4


def regressor(b: np.ndarray) -> np.ndarray:
    """3x12 linear-regression matrix of the affine sensor model.

    Row r carries the reading transposed in columns 3r..3r+2 and a 1 in
    column 9+r, so regressor(B) @ theta == C @ B + b for theta = [rows
    of C, b].
    """
    b = np.asarray(b, dtype=float)
    h = np.zeros((3, 12))
    for r in range(3):
        h[r, 3 * r:3 * r + 3] = b
        h[r, 9 + r] = 1.0
    return h


def regressor_many(b: np.ndarray) -> np.ndarray:
    """regressor() over the last axis of (..., 3), returning (..., 3, 12)."""
    b = np.asarray(b, dtype=float)
    out = np.zeros(b.shape[:-1] + (3, 12))
    for r in range(3):
        out[..., r, 3 * r:3 * r + 3] = b
        out[..., r, 9 + r] = 1.0
    return out


@dataclass
class WindowSnapshot:
    """Stacked copy of what the pose block reads, oldest entry first.

    rel_ext_rotations and body_offsets are the state-independent parts of
    the accumulated sensor poses (relR @ extR and relp + relR @ extp),
    precomputed once so per-iteration pose evaluations reduce to two
    matmuls against the body pose.
    """

    regressors: np.ndarray  # (J, N, 3, 12)
    rel_ext_rotations: np.ndarray  # (J, N, 3, 3)
    body_offsets: np.ndarray  # (J, N, 3)

    def __len__(self):
        return self.regressors.shape[0]

    @property
    def n_sensors(self):
        return self.regressors.shape[1]


class SlidingWindow:
    """Single-writer accumulation buffer; snapshots are safe to share.

    Row j of each array describes entry j, oldest first:
    rel_rotations (J, 3, 3) and rel_translations (J, 3) hold the pose of
    its frame in the newest frame, regressors (J, N, 3, 12) its readings,
    traveled (J,) the distance traveled since it and timestamps (J,) its
    time.
    """

    def __init__(self, horizon_m: float, extrinsics):
        if horizon_m < 0.0:
            raise ValueError("horizon must be non-negative")
        self.horizon_m = float(horizon_m)
        self.extrinsic_rotations = np.stack([e.rotation for e in extrinsics])
        self.extrinsic_translations = np.stack(
            [e.translation for e in extrinsics])
        n = len(self.extrinsic_rotations)
        self.rel_rotations = np.empty((0, 3, 3))
        self.rel_translations = np.empty((0, 3))
        self.regressors = np.empty((0, n, 3, 12))
        self.traveled = np.empty(0)
        self.timestamps = np.empty(0)

    def __len__(self):
        return len(self.timestamps)

    def push(self, frame: DatasetFrame) -> None:
        """Ingest a frame: shift existing entries backward, then append."""
        if len(self) and frame.t <= self.timestamps[-1]:
            raise ValueError(
                f"non-monotone timestamp {frame.t} <= {self.timestamps[-1]}")
        dr = frame.odom_rotation()
        dp = np.asarray(frame.odom_dp, dtype=float)
        step_len = float(np.linalg.norm(dp))
        rot_angle = float(np.arccos(np.clip((np.trace(dr) - 1.0) / 2.0, -1.0, 1.0)))
        regressors = regressor_many(frame.readings)

        if (len(self) and step_len < STATIONARY_TRANS
                and rot_angle < STATIONARY_ROT):
            self.regressors[-1] = regressors
            self.timestamps[-1] = frame.t
            return

        traveled = self.traveled + step_len
        keep = traveled <= self.horizon_m
        # Pre-compose every survivor with the inverse increment
        # (dR^T, -dR^T dp): R <- dR^T R, p <- dR^T p - dR^T dp.
        inv_r = dr.T
        rel_r = np.matmul(inv_r, self.rel_rotations[keep])
        rel_p = self.rel_translations[keep] @ dr - inv_r @ dp
        self.rel_rotations = np.concatenate([rel_r, np.eye(3)[None]])
        self.rel_translations = np.concatenate([rel_p, np.zeros((1, 3))])
        self.regressors = np.concatenate(
            [self.regressors[keep], regressors[None]])
        self.traveled = np.append(traveled[keep], 0.0)
        self.timestamps = np.append(self.timestamps[keep], frame.t)

    def snapshot(self) -> WindowSnapshot:
        if not len(self):
            raise ValueError("window is empty")
        rel_r = self.rel_rotations
        # relR @ extR, laid out transposed in memory: sensor_poses works
        # with its transpose, which is then contiguous.
        rel_ext_r = np.matmul(self.extrinsic_rotations.swapaxes(-1, -2)[None],
                              rel_r.swapaxes(-1, -2)[:, None]).swapaxes(-1, -2)
        offsets = self.rel_translations[:, None, :] + np.matmul(
            rel_r[:, None], self.extrinsic_translations[None, :, :, None])[..., 0]
        return WindowSnapshot(self.regressors.copy(), rel_ext_r, offsets)


def sensor_poses(snap: WindowSnapshot, r_body: np.ndarray,
                 p_body: np.ndarray) -> tuple:
    """World pose of every (entry, sensor) pair under the body pose
    (r_body, p_body).

    Returns rotations (J, N, 3, 3) and positions (J, N, 3):
        R = R_body @ relR @ extR,  p = R_body @ (relp + relR @ extp) + p_body.
    Each is one matrix product over all pairs.  The rotations are a
    transposed view of a contiguous stack of R^T, the form the estimator
    uses.
    """
    rel_ext_t = snap.rel_ext_rotations.swapaxes(-1, -2)
    rotations_t = (rel_ext_t.reshape(-1, 3) @ r_body.T).reshape(rel_ext_t.shape)
    offsets = snap.body_offsets
    positions = (offsets.reshape(-1, 3) @ r_body.T).reshape(offsets.shape) + p_body
    return rotations_t.swapaxes(-1, -2), positions
