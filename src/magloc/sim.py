"""Dataset simulator: trajectories, wheel odometry, distorted readings.

Readings are generated by inverting the affine distortion model against
the true ambient field, so applying the estimated calibration to a
noiseless reading recovers the field the sensor actually saw.  Noise is
injected on the raw (post-inverse) reading.

Datasets serialize as JSON lines, one frame per line with fields
    t, dq (wxyz quaternion of the odometry rotation increment), dp,
    readings (N*3, row per sensor flattened), gt_p, gt_q.
Rotations are stored as quaternions in memory as well, so write/read
round trips are bit-exact.  RNG: numpy PCG64, seeded per scenario.

A dataset is simulated over stacked (frame, sensor) arrays.  Its draws
come in a fixed order, odometry noise (x, y, yaw) for every moving step
and then reading noise for every frame, and that order keeps a dataset
byte-identical for a seed: a new noise source takes its own generator.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DatasetSchemaError
from .geom import PoseState, exp_so3, log_so3
from .magmap import FieldModel, sample_field_many


@dataclass
class SensorExtrinsics:
    """Pose of a magnetometer in the robot body frame."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,) meters

    def __post_init__(self):
        if not (np.linalg.norm(self.translation) <= 2.0
                and np.isfinite(self.rotation).all()):
            raise ConfigurationError("sensor pose non-finite or outside robot footprint")


@dataclass
class CalibrationParams:
    """Affine sensor model: corrected = c @ raw + b."""

    c: np.ndarray  # (3, 3) unitless
    b: np.ndarray  # (3,) uT

    def __post_init__(self):
        if not (np.isfinite(self.c).all() and np.isfinite(self.b).all()
                and abs(float(np.linalg.det(self.c))) > 1e-6):
            raise ConfigurationError("calibration is singular or non-finite")

    def theta(self) -> np.ndarray:
        """12-vector [rows of c, b]."""
        return np.concatenate([np.asarray(self.c, float).ravel(),
                               np.asarray(self.b, float)])

    @staticmethod
    def from_theta(theta: np.ndarray) -> "CalibrationParams":
        theta = np.asarray(theta, dtype=float)
        return CalibrationParams(theta[:9].reshape(3, 3).copy(), theta[9:].copy())

    @staticmethod
    def identity() -> "CalibrationParams":
        return CalibrationParams(np.eye(3), np.zeros(3))


def identity_theta() -> np.ndarray:
    return CalibrationParams.identity().theta()


@dataclass
class NoiseConfig:
    meas_sigma: float = 0.2  # uT per axis
    odom_trans_sigma: float = 0.01  # meters per meter traveled
    odom_rot_sigma: float = 0.005  # radians per meter traveled

    def __post_init__(self):
        if not np.all(np.array([self.meas_sigma, self.odom_trans_sigma,
                                self.odom_rot_sigma]) >= 0.0):
            raise ConfigurationError("noise sigmas must be non-negative")


@dataclass
class DatasetFrame:
    """One ingestion unit: odometry increment plus raw sensor readings.

    gt_p / gt_q carry the simulator's exact pose for evaluation and the
    relocalization fallback only.
    """

    t: float
    odom_dq: np.ndarray  # (4,) wxyz quaternion of the rotation increment
    odom_dp: np.ndarray  # (3,) translation increment, previous body frame
    readings: np.ndarray  # (N, 3) raw distorted fields, uT
    gt_p: np.ndarray  # (3,)
    gt_q: np.ndarray  # (4,) wxyz

    def odom_rotation(self) -> np.ndarray:
        return rotation_from_quat(self.odom_dq)

    def gt_pose(self) -> PoseState:
        return PoseState(self.gt_p.copy(), log_so3(rotation_from_quat(self.gt_q)))


def quat_from_rotation(r: np.ndarray) -> np.ndarray:
    """wxyz unit quaternion from a rotation matrix (Shepperd's method)."""
    r = np.asarray(r, dtype=float)
    trace = r[0, 0] + r[1, 1] + r[2, 2]
    if trace > 0.0:
        s = np.sqrt(trace + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
    else:
        k = int(np.argmax(np.diag(r)))
        i, j = (k + 1) % 3, (k + 2) % 3
        s = np.sqrt(max(0.0, 1.0 + r[k, k] - r[i, i] - r[j, j])) * 2.0
        q = np.empty(4)
        q[0] = (r[j, i] - r[i, j]) / s
        q[1 + k] = 0.25 * s
        q[1 + i] = (r[i, k] + r[k, i]) / s
        q[1 + j] = (r[j, k] + r[k, j]) / s
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def rotation_from_quat(q: np.ndarray) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def default_rig() -> list:
    """Eight sensors at the corners of two 0.3 m x 0.2 m chassis rectangles."""
    return [SensorExtrinsics(np.eye(3), np.array([x, y, 0.0]))
            for x in (0.1, 0.4, -0.4, -0.1) for y in (-0.1, 0.1)]


def sample_distortions(n: int, rng: np.random.Generator,
                       diag_range=(0.9, 1.1), offdiag_range=(-0.05, 0.05),
                       bias_range=(-20.0, 20.0)) -> list:
    """Per-sensor random affine distortions spanning the evaluated regime."""
    out = []
    for _ in range(n):
        c = rng.uniform(*offdiag_range, size=(3, 3))
        c[np.diag_indices(3)] = rng.uniform(*diag_range, size=3)
        b = rng.uniform(*bias_range, size=3)
        out.append(CalibrationParams(c, b))
    return out


def generate_trajectory(waypoints, speed: float, frame_rate: float,
                        height: float = 0.0) -> list:
    """Planar poses along a polyline, yaw tangent to motion.

    Samples every speed/frame_rate meters of arc length; at a corner the
    sample takes the outgoing segment's heading.
    """
    if len(waypoints) < 2:
        raise ConfigurationError("need at least two waypoints")
    if not (0.0 < speed < np.inf and 0.0 < frame_rate < np.inf and np.isfinite(height)):
        raise ConfigurationError(
            "speed and frame_rate must be positive and finite, height finite")
    xy = np.array([np.asarray(w, dtype=float)[:2] for w in waypoints])
    seg_vecs = np.diff(xy, axis=0)
    seg_lens = np.linalg.norm(seg_vecs, axis=1)
    if not np.all(seg_lens > 0.0):
        raise ConfigurationError("repeated or non-finite consecutive waypoints")
    cum = np.concatenate([[0.0], np.cumsum(seg_lens)])
    step = speed / frame_rate
    s = np.minimum(np.arange(int(np.floor(cum[-1] / step + 1e-9)) + 1) * step,
                   cum[-1])
    # Outgoing segment: first segment whose far end lies strictly ahead.
    seg = np.searchsorted(cum[1:-1], s, side="right")
    xy = xy[seg] + ((s - cum[seg]) / seg_lens[seg])[:, None] * seg_vecs[seg]
    yaw = np.arctan2(seg_vecs[:, 1], seg_vecs[:, 0])[seg]
    return [PoseState(np.array([x, y, height]), np.array([0.0, 0.0, a]))
            for (x, y), a in zip(xy, yaw)]


def simulate_odometry(poses, noise: NoiseConfig, rng: np.random.Generator) -> list:
    """Noisy body-frame increments (dR, dp) between consecutive poses.

    Noise is planar (body x/y translation, yaw rotation) and scales with
    the step length, matching wheel odometry of a ground robot.  It is one
    draw of x, y and yaw for each step of non-zero length, in step order.
    """
    if len(poses) < 2:
        raise ConfigurationError("need at least two poses")
    rots = exp_so3(np.stack([p.orientation for p in poses]))
    positions = np.stack([p.position for p in poses])
    back = np.swapaxes(rots[:-1], 1, 2)  # world to previous body frame
    steps = np.diff(positions, axis=0)
    dr, dp = back @ rots[1:], (back @ steps[:, :, None])[:, :, 0]
    step_lens = np.linalg.norm(steps, axis=1)
    moving = step_lens > 0.0
    draws = rng.normal(0.0, step_lens[moving, None] * [
        noise.odom_trans_sigma, noise.odom_trans_sigma, noise.odom_rot_sigma])
    dp[moving, :2] += draws[:, :2]
    dr[moving] = dr[moving] @ exp_so3(draws * [0.0, 0.0, 1.0])
    return list(zip(dr, dp))


def sensor_world_poses(gt_pose: PoseState, extrinsics) -> tuple:
    """World rotation and position of every sensor at one robot pose."""
    r_body = gt_pose.rotation()
    rots = np.stack([r_body @ e.rotation for e in extrinsics])
    positions = np.stack([r_body @ e.translation + gt_pose.position
                          for e in extrinsics])
    return rots, positions


def build_dataset(field: FieldModel, poses, frame_rate: float, extrinsics,
                  calibrations, noise: NoiseConfig,
                  rng: np.random.Generator) -> list:
    """Simulate the full frame sequence for a trajectory, all T frames and
    N sensors at once: one field evaluation over the (T, N) sensor
    positions, one batched distortion solve, one (T, N, 3) noise draw."""
    if len(extrinsics) != len(calibrations):
        raise ConfigurationError("one calibration per sensor required")
    increments = [(np.eye(3), np.zeros(3))] + simulate_odometry(poses, noise, rng)
    r_body = exp_so3(np.stack([p.orientation for p in poses]))
    positions = np.stack([p.position for p in poses])
    rots = r_body[:, None] @ np.stack([e.rotation for e in extrinsics])
    offsets = np.stack([e.translation for e in extrinsics])[:, :, None]
    sensor_positions = (r_body[:, None] @ offsets)[..., 0] + positions[:, None]
    env = sample_field_many(field, sensor_positions.reshape(-1, 3))
    body = np.swapaxes(rots, 2, 3) @ env.reshape(sensor_positions.shape + (1,))
    biases = np.stack([c.b for c in calibrations])[:, :, None]
    readings = np.linalg.solve(np.stack([c.c for c in calibrations]),
                               body - biases)[..., 0]
    if noise.meas_sigma > 0.0:
        readings = readings + rng.normal(0.0, noise.meas_sigma, size=readings.shape)
    return [DatasetFrame(k / frame_rate, quat_from_rotation(dr), dp, readings[k],
                         pose.position.copy(), quat_from_rotation(r_body[k]))
            for k, (pose, (dr, dp)) in enumerate(zip(poses, increments))]


def write_dataset(frames, path) -> None:
    n = frames[0].readings.shape[0] if frames else 0
    with open(path, "w") as f:
        for frame in frames:
            if frame.readings.shape[0] != n:
                raise DatasetSchemaError("inconsistent sensor count across frames")
            record = {
                "t": float(frame.t),
                "dq": [float(v) for v in frame.odom_dq],
                "dp": [float(v) for v in frame.odom_dp],
                "readings": [float(v) for v in frame.readings.ravel()],
                "gt_p": [float(v) for v in frame.gt_p],
                "gt_q": [float(v) for v in frame.gt_q],
            }
            f.write(json.dumps(record) + "\n")


def read_dataset(path) -> list:
    frames = []
    n = None
    last_t = None
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                t = float(record["t"])
                dq = np.array(record["dq"], dtype=float)
                dp = np.array(record["dp"], dtype=float)
                flat = np.array(record["readings"], dtype=float)
                gt_p = np.array(record["gt_p"], dtype=float)
                gt_q = np.array(record["gt_q"], dtype=float)
            except (KeyError, ValueError, TypeError) as exc:
                raise DatasetSchemaError(f"line {line_no}: {exc}") from exc
            if dq.shape != (4,) or dp.shape != (3,) or gt_p.shape != (3,) \
                    or gt_q.shape != (4,) or flat.size % 3 != 0:
                raise DatasetSchemaError(f"line {line_no}: bad field shapes")
            readings = flat.reshape(-1, 3)
            if n is None:
                n = readings.shape[0]
            elif readings.shape[0] != n:
                raise DatasetSchemaError(
                    f"line {line_no}: {readings.shape[0]} sensors, expected {n}")
            if last_t is not None and t <= last_t:
                raise DatasetSchemaError(f"line {line_no}: non-monotone timestamp")
            last_t = t
            frames.append(DatasetFrame(t, dq, dp, readings, gt_p, gt_q))
    return frames
