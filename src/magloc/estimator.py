"""Joint pose and calibration estimator.

Each frame is one alternation of two blocks.  First the pose is refined
over the accumulated window by damped Gauss-Newton with every sensor's
affine calibration held fixed (`alternate`).  Then, with that pose held
fixed, one (regressor, map-field) pair per sensor feeds a
recursive-least-squares filter (`run`).  With the pose fixed the
calibration subproblem is linear, so the RLS update is its exact
least-squares solution over every frame so far; it replaces the paper's
per-frame stochastic-gradient calibration step and seeds the next frame.

The reference pose is substituted and flagged when the pose step fails:
the pooled residual ends above the configured threshold, or a map query
leaves the mapped region.  A stalled line search is not a failure; the
round simply stops at the current pose.  The run continues either way and
the filter keeps ingesting consistent data.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DatasetSchemaError, OutOfMapError
from .geom import (PosePerturbation, PoseState, boxplus, exp_so3, log_so3,
                   skew_many)
from .magmap import MagneticGridMap, gradient_many, interpolate_many
from .sim import DatasetFrame, identity_theta
from .window import SlidingWindow, WindowSnapshot, regressor

STATE_DIM = 6  # [dp, dphi]

MASK_PLANAR_XY = (True, True, False, False, False, False)
MASK_PLANAR = (True, True, False, False, False, True)
MASK_FULL = (True,) * 6


@dataclass
class SolverConfig:
    gn_iters_per_round: int = 3
    max_alternations: int = 10
    pose_tol_m: float = 1e-4
    pose_tol_rad: float = 1e-4
    state_mask: tuple = MASK_PLANAR
    gn_damping: float = 1e-6
    # None = auto threshold 10 * meas_sigma * sqrt(3 * N * window); inf
    # disables the residual-based fallback entirely.
    divergence_residual: float | None = None
    meas_sigma: float = 0.2  # noise scale the auto threshold is based on
    window_m: float = 0.5
    calibrate: bool = True

    def __post_init__(self):
        if not any(self.state_mask):
            raise ConfigurationError("state mask disables every dimension")

    def divergence_threshold(self, n_sensors: int, window_len: int) -> float:
        if self.divergence_residual is not None:
            return float(self.divergence_residual)
        if not self.calibrate:
            # Uncalibrated residuals sit at the distortion floor; the
            # noise-scaled threshold would fire every frame and reduce the
            # ablation to the reference trajectory.
            return np.inf
        return 10.0 * self.meas_sigma * np.sqrt(3.0 * n_sensors * window_len)


def _as_snapshot(window) -> WindowSnapshot:
    return window.snapshot() if isinstance(window, SlidingWindow) else window


def _fields_at_rp(snap: WindowSnapshot, r_body: np.ndarray, p_body: np.ndarray,
                  grid: MagneticGridMap):
    rotations = np.matmul(r_body, snap.rel_ext_rotations)
    positions = np.matmul(r_body, snap.body_offsets[..., None])[..., 0] + p_body
    m = interpolate_many(grid, positions.reshape(-1, 3)).reshape(positions.shape)
    # R^T M, the body-frame map field
    g = np.matmul(rotations.swapaxes(-1, -2), m[..., None])[..., 0]
    return rotations, positions, m, g


def _fields_at(snap: WindowSnapshot, x: PoseState, grid: MagneticGridMap):
    """Sensor poses plus interpolated map fields, shared by all ops."""
    return _fields_at_rp(snap, x.rotation(), x.position, grid)


def _residual_all(snap: WindowSnapshot, thetas: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.matmul(snap.regressors, thetas[None, :, :, None])[..., 0] - g


def pose_residual(window, theta: np.ndarray, x: PoseState,
                  grid: MagneticGridMap, sensor: int) -> np.ndarray:
    """Stacked (3*J,) residual of one sensor at the current state."""
    snap = _as_snapshot(window)
    _, _, _, g = _fields_at(snap, x, grid)
    return (snap.regressors[:, sensor] @ theta - g[:, sensor]).ravel()


def _jacobian_all(snap: WindowSnapshot, x: PoseState, grid: MagneticGridMap,
                  rotations: np.ndarray, positions: np.ndarray,
                  rtm: np.ndarray, r_body: np.ndarray) -> np.ndarray:
    """Pose Jacobian blocks for every (entry, sensor), shape (J, N, 3, 6).

    Exact derivative of the residual under the boxplus parameterization:
    the translation block is -R^T grad(M); the rotation block carries the
    frame conjugation and the lever arm of each accumulated sensor pose,
        -[R^T M]x A^T + R^T grad(M) R_body [c]x
    with A = R_body^T R and c = R_body^T (p - p_body).  For the newest
    entry of a sensor with zero offset this reduces to -[R^T M]x.
    """
    grads = gradient_many(grid, positions.reshape(-1, 3)).reshape(
        positions.shape[:2] + (3, 3))
    rtg = np.matmul(rotations.swapaxes(-1, -2), grads)  # R^T grad(M)
    a = np.matmul(r_body.T, rotations)  # R_body^T R
    c = np.matmul(r_body.T, (positions - x.position)[..., None])[..., 0]
    j_rot = (-np.matmul(skew_many(rtm), a.swapaxes(-1, -2))
             + np.matmul(np.matmul(rtg, r_body), skew_many(c)))
    out = np.empty(positions.shape[:2] + (3, 6))
    out[..., :3] = -rtg
    out[..., 3:] = j_rot
    return out


def pose_jacobian(window, x: PoseState, grid: MagneticGridMap,
                  sensor: int) -> np.ndarray:
    """Stacked (3*J, 6) pose Jacobian of one sensor; see _jacobian_all."""
    snap = _as_snapshot(window)
    rotations, positions, _, g = _fields_at(snap, x, grid)
    return _jacobian_all(snap, x, grid, rotations, positions, g,
                         x.rotation())[:, sensor].reshape(-1, 6)


def gauss_newton_step(residuals, jacobians, mask, damping: float,
                      trial_norm_fn=None) -> tuple:
    """Masked, damped normal-equation step over pooled sensor residuals.

    residuals/jacobians are per-sensor stacks ((3J,) and (3J, 6)).  When
    trial_norm_fn is given the step is halved (up to 4 times) until the
    pooled residual norm decreases; if it never does, a zero step is
    returned with the stall flag set.
    """
    r = np.concatenate([np.ravel(v) for v in residuals])
    j = np.vstack([np.reshape(v, (-1, STATE_DIM)) for v in jacobians])
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    jm = j[:, idx]
    normal = jm.T @ jm + damping * np.eye(len(idx))
    rhs = -(jm.T @ r)
    try:
        step_masked = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError:
        return PosePerturbation(), True
    full = np.zeros(STATE_DIM)
    full[idx] = step_masked
    if trial_norm_fn is None:
        return PosePerturbation(full[:3].copy(), full[3:].copy()), False
    base = float(np.linalg.norm(r))
    scale = 1.0
    for _ in range(5):  # full step plus up to 4 halvings
        dx = PosePerturbation(scale * full[:3], scale * full[3:])
        trial = trial_norm_fn(dx)
        if trial is not None and trial < base:
            return dx, False
        scale *= 0.5
    return PosePerturbation(), True


@dataclass
class AlternateResult:
    x: PoseState
    diverged: bool
    stalled: bool
    alternations: int
    residual_norm: float


def _pooled_norm(snap, thetas, x, grid):
    _, _, _, g = _fields_at(snap, x, grid)
    return float(np.linalg.norm(_residual_all(snap, thetas, g)))


def alternate(window, thetas, x_prior: PoseState, grid: MagneticGridMap,
              config: SolverConfig) -> AlternateResult:
    """Pose block of the alternation: Gauss-Newton on one window.

    The calibration `thetas` is held fixed; `run` refines it afterwards
    with the pose held fixed.  Runs up to max_alternations rounds of
    gn_iters_per_round pooled pose steps.  A stalled line search ends its
    round; the loop stops early once a round's last accepted step (zero if
    none) falls under both pose tolerances.
    """
    snap = _as_snapshot(window)
    thetas = np.asarray(thetas, dtype=float).reshape(snap.n_sensors, 12)
    x = x_prior.copy()
    mask = np.asarray(config.state_mask, dtype=bool)

    stalled = False
    rounds = 0
    try:
        for rounds in range(1, config.max_alternations + 1):
            dp_norm = 0.0
            dphi_norm = 0.0
            for _ in range(config.gn_iters_per_round):
                r_body = x.rotation()
                rotations, positions, _, g = _fields_at_rp(snap, r_body,
                                                           x.position, grid)
                resid = _residual_all(snap, thetas, g)
                jac = _jacobian_all(snap, x, grid, rotations, positions, g,
                                    r_body)

                def trial_norm(dx, _snap=snap, _thetas=thetas, _x=x,
                               _r_body=r_body):
                    try:
                        r_trial = (_r_body @ exp_so3(dx.dphi)
                                   if np.any(dx.dphi) else _r_body)
                        _, _, _, g_t = _fields_at_rp(_snap, r_trial,
                                                     _x.position + dx.dp, grid)
                        return float(np.linalg.norm(
                            _residual_all(_snap, _thetas, g_t)))
                    except OutOfMapError:
                        return None

                # Pooling over sensors == stacking all residual blocks.
                dx, step_stalled = gauss_newton_step(
                    [resid.reshape(-1)], [jac.reshape(-1, STATE_DIM)],
                    mask, config.gn_damping, trial_norm)
                if step_stalled:
                    stalled = True
                    break
                x = boxplus(x, dx)
                dp_norm = dx.norm_translation()
                dphi_norm = dx.norm_rotation()
            if dp_norm < config.pose_tol_m and dphi_norm < config.pose_tol_rad:
                break
        residual_norm = _pooled_norm(snap, thetas, x, grid)
    except OutOfMapError:
        return AlternateResult(x, True, stalled, rounds, np.inf)

    threshold = config.divergence_threshold(snap.n_sensors, len(snap))
    diverged = bool(residual_norm > threshold)
    return AlternateResult(x, diverged, stalled, rounds, residual_norm)


@dataclass
class RlsState:
    """Per-sensor recursive-least-squares accumulator.

    p_inv is the inverse of the accumulated normal matrix (prior
    included), maintained through the 3x3 Woodbury update so no 12x12
    inversion happens per step.
    """

    theta: np.ndarray
    p_inv: np.ndarray

    @staticmethod
    def identity_init(eps: float = 1e-4) -> "RlsState":
        return RlsState(identity_theta(), (1.0 / eps) * np.eye(12))


def rls_update(state: RlsState, h: np.ndarray, g: np.ndarray) -> RlsState:
    """Ingest one (3x12 regressor, 3-vector target) block, in place."""
    h = np.asarray(h, dtype=float)
    g = np.asarray(g, dtype=float)
    pht = state.p_inv @ h.T  # (12, 3)
    inner = np.eye(3) + h @ pht
    gain = pht @ np.linalg.inv(inner)
    state.theta = state.theta + gain @ (g - h @ state.theta)
    state.p_inv = state.p_inv - gain @ pht.T
    return state


@dataclass
class EstimatorOutput:
    timestamps: np.ndarray  # (T,)
    positions: np.ndarray  # (T, 3)
    orientations: np.ndarray  # (T, 3) rotation vectors
    thetas: np.ndarray  # (T, N, 12) post-filter calibration per frame
    fallbacks: np.ndarray  # (T,) bool
    alternations: np.ndarray  # (T,)
    residuals: np.ndarray  # (T,)
    frame_ms: np.ndarray  # (T,)

    @property
    def final_thetas(self) -> np.ndarray:
        return self.thetas[-1]

    def poses(self) -> list:
        return [PoseState(p.copy(), o.copy())
                for p, o in zip(self.positions, self.orientations)]


def _propagate_prior(x: PoseState, frame: DatasetFrame) -> PoseState:
    r = x.rotation()
    return PoseState(x.position + r @ frame.odom_dp,
                     log_so3(r @ frame.odom_rotation()))


def run(frames, grid: MagneticGridMap, extrinsics, config: SolverConfig,
        initial_pose: PoseState | None = None) -> EstimatorOutput:
    """Online loop over a dataset: propagate, accumulate, alternate, filter.

    The prior starts at the first frame's reference pose (relocalization
    handoff) and is propagated by raw odometry between frames.  Each frame
    is one alternation: `alternate` refines the pose with the calibration
    fixed, then the RLS filter refines the calibration with that pose
    fixed, exactly (least squares over every frame so far).  This stands
    in for the paper's stochastic-gradient calibration step.  When the pose
    step diverges (residual above threshold or out-of-map query) the
    reference pose is substituted for the frame and flagged, as the
    fallback relocalization policy prescribes.  A dataset holding a
    non-finite value is rejected before any frame runs.
    """
    if not frames:
        raise ConfigurationError("empty dataset")
    for k, f in enumerate(frames):
        values = (f.t, f.odom_dq, f.odom_dp, f.readings, f.gt_p, f.gt_q)
        if not all(np.all(np.isfinite(v)) for v in values):
            raise DatasetSchemaError(
                f"frame {k} (t={f.t}) holds a non-finite value")
    xmin, xmax, ymin, ymax = grid.extent()
    gt = np.stack([f.gt_p for f in frames])
    if (gt[:, 0].min() < xmin or gt[:, 0].max() > xmax
            or gt[:, 1].min() < ymin or gt[:, 1].max() > ymax):
        raise ConfigurationError("dataset trajectory leaves the mapped region")

    n_sensors = frames[0].readings.shape[0]
    if n_sensors != len(extrinsics):
        raise ConfigurationError("rig size does not match dataset sensor count")
    window = SlidingWindow(config.window_m, extrinsics)
    rls = [RlsState.identity_init() for _ in range(n_sensors)]
    thetas = np.stack([identity_theta() for _ in range(n_sensors)])
    x = (initial_pose or frames[0].gt_pose()).copy()

    ext_r = np.stack([e.rotation for e in extrinsics])
    ext_p = np.stack([e.translation for e in extrinsics])

    t_out, pos_out, ori_out, theta_out = [], [], [], []
    fb_out, alt_out, res_out, ms_out = [], [], [], []
    for k, frame in enumerate(frames):
        tic = time.perf_counter()
        if k > 0:
            x = _propagate_prior(x, frame)
        window.push(frame)
        result = alternate(window, thetas, x, grid, config)
        fallback = result.diverged
        x = frame.gt_pose() if fallback else result.x
        if config.calibrate:
            r_body = x.rotation()
            sensor_r = np.einsum("ab,nbc->nac", r_body, ext_r)
            sensor_p = np.einsum("ab,nb->na", r_body, ext_p) + x.position
            try:
                m = interpolate_many(grid, sensor_p)
                g = np.einsum("nba,nb->na", sensor_r, m)
                for i in range(n_sensors):
                    rls_update(rls[i], regressor(frame.readings[i]), g[i])
            except OutOfMapError:
                pass  # sensors marginally outside: skip this frame's update
            thetas = np.stack([s.theta for s in rls])
        ms_out.append((time.perf_counter() - tic) * 1e3)
        t_out.append(frame.t)
        pos_out.append(x.position.copy())
        ori_out.append(x.orientation.copy())
        theta_out.append(thetas.copy())
        fb_out.append(fallback)
        alt_out.append(result.alternations)
        res_out.append(result.residual_norm)
    return EstimatorOutput(
        np.array(t_out), np.stack(pos_out), np.stack(ori_out),
        np.stack(theta_out), np.array(fb_out, dtype=bool),
        np.array(alt_out), np.array(res_out), np.array(ms_out))


def yaw_of(orientation: np.ndarray) -> float:
    r = exp_so3(orientation)
    return float(np.arctan2(r[1, 0], r[0, 0]))


def write_trajectory_csv(output: EstimatorOutput, path) -> None:
    with open(path, "w") as f:
        f.write("t,px,py,pz,yaw,fallback,iters,resid,ms\n")
        for k in range(len(output.timestamps)):
            p = output.positions[k]
            f.write(",".join([
                repr(float(output.timestamps[k])),
                repr(float(p[0])), repr(float(p[1])), repr(float(p[2])),
                repr(yaw_of(output.orientations[k])),
                str(int(output.fallbacks[k])),
                str(int(output.alternations[k])),
                repr(float(output.residuals[k])),
                repr(float(output.frame_ms[k])),
            ]) + "\n")


def write_theta_trace_csv(output: EstimatorOutput, path) -> None:
    n = output.thetas.shape[1]
    with open(path, "w") as f:
        f.write("t,sensor," + ",".join(f"theta_{i}" for i in range(12)) + "\n")
        for k in range(len(output.timestamps)):
            for s in range(n):
                row = [repr(float(output.timestamps[k])), str(s)]
                row += [repr(float(v)) for v in output.thetas[k, s]]
                f.write(",".join(row) + "\n")


def summary_dict(output: EstimatorOutput) -> dict:
    return {
        "n_frames": int(len(output.timestamps)),
        "n_sensors": int(output.thetas.shape[1]),
        "final_thetas": [[float(v) for v in row] for row in output.final_thetas],
        "fallback_frames": int(output.fallbacks.sum()),
        "mean_frame_ms": float(output.frame_ms.mean()),
    }
