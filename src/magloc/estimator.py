"""Joint pose and calibration estimator.

Each frame is one alternation of two blocks.  First the pose is refined
over the accumulated window by damped Gauss-Newton with every sensor's
affine calibration held fixed (`alternate`).  Then, with that pose held
fixed, one (regressor, map-field) pair per sensor feeds a
recursive-least-squares filter (`run`).  With the pose fixed the
calibration subproblem is linear, so the RLS update is its exact
least-squares solution over every frame so far; it replaces the paper's
per-frame stochastic-gradient calibration step and seeds the next frame.

The pose block evaluates the map once per iterate.  The calibrated
readings H theta are fixed for the whole block and computed once.  Each
line-search trial builds its candidate pose exactly as the next iterate
would be built and keeps the sensor poses, map fields and residual it
evaluated; the accepted trial becomes the next iterate, so a Gauss-Newton
step adds only the Jacobian's gradient lookup.  The Jacobian takes its
pose-independent factors from the window snapshot.

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
# boxplus is no longer called here; the name stays bound for tools that
# patch this module's names to trace it.
from .geom import (PosePerturbation, PoseState, boxplus, exp_so3,  # noqa: F401
                   log_so3, skew_many)
from .magmap import MagneticGridMap, gradient_many, interpolate_many
from .sim import DatasetFrame, identity_theta
from .window import SlidingWindow, WindowSnapshot, regressor, sensor_poses

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
        # Written as "not (ok)" so that NaN fails too.
        for name in ("max_alternations", "gn_iters_per_round"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or not value >= 1):
                raise ConfigurationError(
                    f"{name} must be an integer >= 1, got {value!r}")
        # meas_sigma defaults to the scenario's noise level, which is 0 for
        # a noiseless dataset, so 0 stays allowed.
        for name in ("window_m", "gn_damping", "pose_tol_m", "pose_tol_rad",
                     "meas_sigma"):
            if not getattr(self, name) >= 0.0:
                raise ConfigurationError(
                    f"{name} must be >= 0, got {getattr(self, name)!r}")

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
    """Sensor poses plus the body-frame map field R^T M at each of them."""
    rotations, positions = sensor_poses(snap, r_body, p_body)
    m = interpolate_many(grid, positions.reshape(-1, 3)).reshape(positions.shape)
    g = np.einsum("...ji,...j->...i", rotations, m)
    return rotations, positions, g


def pose_residual(window, theta: np.ndarray, x: PoseState,
                  grid: MagneticGridMap, sensor: int) -> np.ndarray:
    """Stacked (3*J,) residual of one sensor at the current state."""
    snap = _as_snapshot(window)
    _, _, g = _fields_at_rp(snap, x.rotation(), x.position, grid)
    return (snap.regressors[:, sensor] @ theta - g[:, sensor]).ravel()


def _jacobian_all(snap: WindowSnapshot, grid: MagneticGridMap,
                  rotations: np.ndarray, positions: np.ndarray,
                  rtm: np.ndarray, r_body: np.ndarray) -> np.ndarray:
    """Pose Jacobian blocks for every (entry, sensor), shape (J, N, 3, 6).

    Exact derivative of the residual under the boxplus parameterization:
    the translation block is -R^T grad(M); the rotation block carries the
    frame conjugation and the lever arm of each accumulated sensor pose,
        -[R^T M]x A^T + R^T grad(M) R_body [c]x
    with A = R_body^T R and c = R_body^T (p - p_body), which are the
    snapshot's rel_ext_rotations and body_offsets.  For the newest entry of
    a sensor with zero offset this reduces to -[R^T M]x.
    """
    grads = gradient_many(grid, positions.reshape(-1, 3)).reshape(
        positions.shape[:2] + (3, 3))
    rtg = np.matmul(rotations.swapaxes(-1, -2), grads)  # R^T grad(M)
    rtg_rb = (rtg.reshape(-1, 3) @ r_body).reshape(rtg.shape)
    j_rot = (-np.matmul(skew_many(rtm), snap.rel_ext_rotations.swapaxes(-1, -2))
             + np.matmul(rtg_rb, skew_many(snap.body_offsets)))
    out = np.empty(positions.shape[:2] + (3, 6))
    out[..., :3] = -rtg
    out[..., 3:] = j_rot
    return out


def pose_jacobian(window, x: PoseState, grid: MagneticGridMap,
                  sensor: int) -> np.ndarray:
    """Stacked (3*J, 6) pose Jacobian of one sensor; see _jacobian_all."""
    snap = _as_snapshot(window)
    r_body = x.rotation()
    rotations, positions, g = _fields_at_rp(snap, r_body, x.position, grid)
    return _jacobian_all(snap, grid, rotations, positions, g,
                         r_body)[:, sensor].reshape(-1, 6)


def gauss_newton_step(residual, jacobian, mask, damping: float,
                      trial_norm_fn=None) -> tuple:
    """Masked, damped normal-equation step for one stacked residual.

    residual is (m,) and jacobian (m, 6).  When trial_norm_fn is given the
    step is halved (up to 4 times) until the residual norm decreases; if it
    never does, a zero step is returned with the stall flag set.  The
    accepted step is always the last one passed to trial_norm_fn.
    """
    r = np.ravel(residual)
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    jm = np.reshape(jacobian, (-1, STATE_DIM))[:, idx]
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


@dataclass
class _Iterate:
    """A pose with everything one map evaluation gives at it."""

    x: PoseState
    r_body: np.ndarray  # x.rotation()
    rotations: np.ndarray  # (J, N, 3, 3) sensor rotations
    positions: np.ndarray  # (J, N, 3) sensor positions
    g: np.ndarray  # (J, N, 3) body-frame map field R^T M
    residual: np.ndarray  # (J, N, 3)
    norm: float


def _evaluate(snap: WindowSnapshot, pred: np.ndarray, x: PoseState,
              r_body: np.ndarray, grid: MagneticGridMap) -> _Iterate:
    rotations, positions, g = _fields_at_rp(snap, r_body, x.position, grid)
    residual = pred - g
    return _Iterate(x, r_body, rotations, positions, g, residual,
                    float(np.linalg.norm(residual)))


def alternate(window, thetas, x_prior: PoseState, grid: MagneticGridMap,
              config: SolverConfig) -> AlternateResult:
    """Pose block of the alternation: Gauss-Newton on one window.

    The calibration `thetas` is held fixed; `run` refines it afterwards
    with the pose held fixed.  Runs up to max_alternations rounds of
    gn_iters_per_round pooled pose steps.  A stalled line search ends its
    round; the loop stops early once a round's last accepted step (zero if
    none) falls under both pose tolerances.

    Each iterate costs one map evaluation.  A line-search trial builds its
    candidate exactly as the next iterate: p + dp, and the orientation
    log(R_body exp(dphi)) re-expanded to a rotation.  The accepted trial's
    fields and residual become the next iterate, so a Gauss-Newton step
    only adds the Jacobian's gradient lookup, and the returned
    residual_norm is the pooled norm at the returned pose.
    """
    snap = _as_snapshot(window)
    thetas = np.asarray(thetas, dtype=float).reshape(snap.n_sensors, 12)
    # Calibrated readings H theta, fixed while the calibration is.
    pred = np.matmul(snap.regressors, thetas[None, :, :, None])[..., 0]
    mask = np.asarray(config.state_mask, dtype=bool)

    stalled = False
    rounds = 0
    x = x_prior.copy()
    try:
        it = _evaluate(snap, pred, x, x.rotation(), grid)
        for rounds in range(1, config.max_alternations + 1):
            dp_norm = 0.0
            dphi_norm = 0.0
            for _ in range(config.gn_iters_per_round):
                jac = _jacobian_all(snap, grid, it.rotations, it.positions,
                                    it.g, it.r_body)
                tried = []

                def trial_norm(dx, _it=it, _tried=tried):
                    position = _it.x.position + dx.dp
                    if np.any(dx.dphi):
                        x_t = PoseState(position,
                                        log_so3(_it.r_body @ exp_so3(dx.dphi)))
                        r_t = x_t.rotation()
                    else:
                        x_t = PoseState(position, _it.x.orientation.copy())
                        r_t = _it.r_body
                    try:
                        _tried.append(_evaluate(snap, pred, x_t, r_t, grid))
                    except OutOfMapError:
                        return None
                    return _tried[-1].norm

                dx, step_stalled = gauss_newton_step(
                    it.residual.reshape(-1), jac.reshape(-1, STATE_DIM),
                    mask, config.gn_damping, trial_norm)
                if step_stalled:
                    stalled = True
                    break
                it = tried[-1]
                x = it.x
                dp_norm = dx.norm_translation()
                dphi_norm = dx.norm_rotation()
            if dp_norm < config.pose_tol_m and dphi_norm < config.pose_tol_rad:
                break
    except OutOfMapError:
        return AlternateResult(x, True, stalled, rounds, np.inf)

    threshold = config.divergence_threshold(snap.n_sensors, len(snap))
    diverged = bool(it.norm > threshold)
    return AlternateResult(x, diverged, stalled, rounds, it.norm)


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
