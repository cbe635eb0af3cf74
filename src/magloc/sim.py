"""Dataset simulator: trajectories, wheel odometry, distorted readings.

A trajectory is a pair of arrays, (T, 3) positions and (T,) yaws about z;
the body rotations are exp_so3 of the (0, 0, yaw) stack.

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
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DatasetSchemaError, check_number
from .geom import exp_so3
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
        for name in ("meas_sigma", "odom_trans_sigma", "odom_rot_sigma"):
            check_number(f"noise.{name}", getattr(self, name), at_least=0)


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

    def gt_yaw(self) -> float:
        """Yaw of the reference rotation, atan2 of its first column, as the
        estimator reads an odometry increment's yaw."""
        r = rotation_from_quat(self.gt_q)
        return math.atan2(r[1, 0], r[0, 0])


def quat_from_rotation(r: np.ndarray) -> np.ndarray:
    """wxyz unit quaternions from rotation matrices (..., 3, 3) (Shepperd's
    method).  Each matrix takes the operations it would take alone, its
    norm one dot product, so stacking leaves every bit as it is."""
    r = np.asarray(r, dtype=float)
    m = r.reshape(-1, 3, 3)
    trace = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
    q = np.empty((len(m), 4))
    top = trace > 0.0
    b, s = m[top], np.sqrt(trace[top] + 1.0) * 2.0
    q[top] = np.stack([0.25 * s, (b[:, 2, 1] - b[:, 1, 2]) / s,
                       (b[:, 0, 2] - b[:, 2, 0]) / s,
                       (b[:, 1, 0] - b[:, 0, 1]) / s], axis=1)
    b, n = m[~top], np.arange(np.count_nonzero(~top))
    k = np.argmax(np.diagonal(b, axis1=1, axis2=2), axis=1)
    i, j = (k + 1) % 3, (k + 2) % 3
    s = np.sqrt(np.maximum(0.0, 1.0 + b[n, k, k] - b[n, i, i] - b[n, j, j])) * 2.0
    rest = np.empty((len(b), 4))
    rest[:, 0] = (b[n, j, i] - b[n, i, j]) / s
    rest[n, 1 + k] = 0.25 * s
    rest[n, 1 + i] = (b[n, i, k] + b[n, k, i]) / s
    rest[n, 1 + j] = (b[n, j, k] + b[n, k, j]) / s
    q[~top] = rest
    q[q[:, 0] < 0.0] *= -1.0
    # (1, 4) @ (4, 1) is numpy's dot, as in np.linalg.norm of one vector.
    return (q / np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]).reshape(
        r.shape[:-2] + (4,))


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
                        height: float = 0.0) -> tuple:
    """Planar poses along a polyline, yaw tangent to motion: (T, 3)
    positions at the given height and (T,) yaws.

    Samples every speed/frame_rate meters of arc length; at a corner the
    sample takes the outgoing segment's heading.
    """
    if len(waypoints) < 2:
        raise ConfigurationError("need at least two waypoints")
    check_number("speed", speed, above=0)
    check_number("frame_rate", frame_rate, above=0)
    check_number("height", height)
    xy = np.array([np.asarray(w, dtype=float)[:2] for w in waypoints])
    seg_vecs = np.diff(xy, axis=0)
    seg_lens = np.linalg.norm(seg_vecs, axis=1)
    if not np.all(seg_lens > 0.0):
        k = int(np.argmin(seg_lens > 0.0)) + 1
        raise ConfigurationError(
            f"waypoints[{k}] repeats the waypoint before it or is not finite")
    cum = np.concatenate([[0.0], np.cumsum(seg_lens)])
    step = speed / frame_rate
    s = np.minimum(np.arange(int(np.floor(cum[-1] / step + 1e-9)) + 1) * step,
                   cum[-1])
    # Outgoing segment: first segment whose far end lies strictly ahead.
    seg = np.searchsorted(cum[1:-1], s, side="right")
    xy = xy[seg] + ((s - cum[seg]) / seg_lens[seg])[:, None] * seg_vecs[seg]
    positions = np.column_stack([xy, np.full(len(xy), float(height))])
    return positions, np.arctan2(seg_vecs[:, 1], seg_vecs[:, 0])[seg]


def _body_rotations(yaws: np.ndarray) -> np.ndarray:
    """(T, 3, 3) rotations exp_so3((0, 0, yaw)) of a yaw stack."""
    phi = np.zeros((len(yaws), 3))
    phi[:, 2] = yaws
    return exp_so3(phi)


def simulate_odometry(trajectory, noise: NoiseConfig,
                      rng: np.random.Generator) -> list:
    """Noisy body-frame increments (dR, dp) between consecutive poses of
    a (positions, yaws) trajectory.

    Noise is planar (body x/y translation, yaw rotation) and scales with
    the step length, matching wheel odometry of a ground robot.  It is one
    draw of x, y and yaw for each step of non-zero length, in step order.
    """
    positions, yaws = trajectory
    if len(positions) < 2:
        raise ConfigurationError("need at least two poses")
    rots = _body_rotations(yaws)
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


def build_dataset(field: FieldModel, trajectory, frame_rate: float,
                  extrinsics, calibrations, noise: NoiseConfig,
                  rng: np.random.Generator) -> list:
    """Simulate the full frame sequence for a (positions, yaws) trajectory,
    all T frames and N sensors at once: one field evaluation over the
    (T, N) sensor positions, one batched distortion solve, one (T, N, 3)
    noise draw."""
    if len(extrinsics) != len(calibrations):
        raise ConfigurationError("one calibration per sensor required")
    increments = [(np.eye(3), np.zeros(3))] + simulate_odometry(
        trajectory, noise, rng)
    positions, yaws = trajectory
    r_body = _body_rotations(yaws)
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
    dqs = quat_from_rotation(np.stack([dr for dr, _ in increments]))
    gt_qs = quat_from_rotation(r_body)
    return [DatasetFrame(k / frame_rate, dqs[k], dp, readings[k],
                         p.copy(), gt_qs[k])
            for k, (p, (_, dp)) in enumerate(zip(positions, increments))]


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
