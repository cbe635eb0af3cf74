"""Sliding measurement window over a traveled-distance horizon.

Each entry keeps the pose of every sensor of its frame expressed in the
newest frame, so the window re-expresses the whole accumulated sequence at
the current time: on every push the existing sensor poses are
pre-composed with the inverse of the new odometry increment and entries
that have fallen more than the horizon behind are evicted.

The entries are stored as stacked read-only arrays, oldest first, one row
per entry.  A push costs a fixed number of numpy calls whatever the window
length: two 2-D products re-express every survivor, a boolean mask
evicts, and one concatenation per array appends the new entry.  A push
replaces the arrays instead of writing into them, so a snapshot shares
them without copying.
"""

from dataclasses import dataclass

import numpy as np

from .sim import DatasetFrame

# Below these increments a frame replaces the newest entry instead of
# accumulating, so standstill does not pile up duplicate constraints.
STATIONARY_TRANS = 1e-4
STATIONARY_ROT = 1e-4


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class WindowSnapshot:
    """What the pose block reads, oldest entry first.

    Row j, column i describes sensor i of entry j in the newest body
    frame: its raw reading, the transpose of its rotation relR @ extR and
    its offset relp + relR @ extp.  The arrays are the window's own,
    read-only, so a snapshot stays valid after later pushes.
    """

    readings: np.ndarray  # (J, N, 3)
    rotations_t: np.ndarray  # (J, N, 3, 3)
    offsets: np.ndarray  # (J, N, 3)

    def __len__(self):
        return self.readings.shape[0]

    @property
    def n_sensors(self):
        return self.readings.shape[1]


class SlidingWindow:
    """Single-writer accumulation buffer; snapshots are safe to share.

    readings, rotations_t and offsets are laid out as in WindowSnapshot;
    traveled (J,) holds the distance traveled since each entry and
    timestamps (J,) its time.
    """

    def __init__(self, horizon_m: float, extrinsics):
        if horizon_m < 0.0:
            raise ValueError("horizon must be non-negative")
        self.horizon_m = float(horizon_m)
        # The row a new entry starts with: every sensor at its extrinsics.
        self._new_rotations_t = _frozen(
            np.stack([e.rotation.T for e in extrinsics])[None])
        self._new_offsets = _frozen(
            np.stack([e.translation for e in extrinsics])[None])
        n = len(extrinsics)
        self.readings = _frozen(np.empty((0, n, 3)))
        self.rotations_t = _frozen(np.empty((0, n, 3, 3)))
        self.offsets = _frozen(np.empty((0, n, 3)))
        self.traveled = _frozen(np.empty(0))
        self.timestamps = _frozen(np.empty(0))

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
        readings = np.asarray(frame.readings, dtype=float)[None]

        if (len(self) and step_len < STATIONARY_TRANS
                and rot_angle < STATIONARY_ROT):
            self.readings = _frozen(np.concatenate([self.readings[:-1], readings]))
            self.timestamps = _frozen(np.append(self.timestamps[:-1], frame.t))
            return

        traveled = self.traveled + step_len
        keep = traveled <= self.horizon_m
        # Pre-compose every survivor with the inverse increment
        # (dR^T, -dR^T dp): R <- dR^T R, so R^T <- R^T dR, and
        # o <- dR^T (o - dp), as rows o^T <- (o - dp)^T dR.
        rot_t = self.rotations_t[keep]
        offsets = self.offsets[keep]
        self.rotations_t = _frozen(np.concatenate(
            [(rot_t.reshape(-1, 3) @ dr).reshape(rot_t.shape),
             self._new_rotations_t]))
        self.offsets = _frozen(np.concatenate(
            [((offsets - dp).reshape(-1, 3) @ dr).reshape(offsets.shape),
             self._new_offsets]))
        self.readings = _frozen(np.concatenate([self.readings[keep], readings]))
        self.traveled = _frozen(np.append(traveled[keep], 0.0))
        self.timestamps = _frozen(np.append(self.timestamps[keep], frame.t))

    def snapshot(self) -> WindowSnapshot:
        if not len(self):
            raise ValueError("window is empty")
        return WindowSnapshot(self.readings, self.rotations_t, self.offsets)

