"""Joint pose and calibration estimator.

The robot moves on a floor, so the pose state is planar: x, y and a yaw
about z; the pose step leaves the propagated height as it is.  Each frame
is one alternation of two blocks.  First the pose (x, y, yaw) is refined
over the accumulated window by damped Gauss-Newton with every sensor's
affine calibration held fixed (`alternate`).  Then, with that pose held
fixed, each sensor's raw reading b and body-frame map field g feed a
recursive-least-squares filter (`run`).  With the pose fixed the
calibration subproblem is linear, and C b + bias reads the same z = (b, 1)
in all three rows, so the filter keeps one 4x4 normal matrix per sensor
(information form) and solves it on every update: the exact least-squares
solution over every frame so far.  It replaces the paper's per-frame
stochastic-gradient calibration step and seeds the next frame.

The pose block works in the world frame.  A sensor at world pose
(R, p) = (R_body S, R_body o + p_body), with S and o its rotation and
offset in the newest body frame, has the body-frame residual
r = C b + bias - R^T M(p) = R^T (R_body q - M(p)), where q = S (C b + bias)
is its calibrated reading turned into the newest body frame.  q is fixed
while the calibration is, so it is formed once per block, and the block
minimises the world-frame residual w = R_body q - M(p).  Since R^T R = I,
|r| = |w|, and with J = R^T G the normal equations J^T J = G^T G and
J^T r = G^T w are those of the body-frame problem: the steps are the
same, and no per-sensor rotation is built per iterate.

The pose block evaluates the map once per iterate.  Each line-search
trial builds its candidate pose exactly as the next iterate would be
built and keeps the sensor positions, map fields and residual it
evaluated; the accepted trial becomes the next iterate, so a Gauss-Newton
step adds only the Jacobian's gradient lookup.  The RLS update takes the
newest entry's fields from the last iterate, so it needs no lookup of its
own.

The reference pose is substituted and flagged when the pose step fails:
the pooled residual ends above the configured threshold, or a map query
leaves the mapped region.  A stalled line search is not a failure; the
pose block simply stops at the current pose.  The run continues either
way and the filter keeps ingesting consistent data.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DatasetSchemaError, OutOfMapError, check_number
# The planar solver calls neither boxplus nor exp_so3; the names stay bound
# for tools that patch this module's names to trace it.
from .geom import PoseState, boxplus, exp_so3, rot_z  # noqa: F401
from .magmap import MagneticGridMap, gradient_many, interpolate_many
from .sim import DatasetFrame, identity_theta
from .window import SlidingWindow, WindowSnapshot

# Number of leading (x, y, yaw) coordinates each state mask solves for;
# "xy" holds the yaw at the prior.  The pose block solves for all three.
STATE_MASKS = {"xy": 2, "xyyaw": 3}
# Largest deviation from a unit quaternion about z that a dataset may carry.
QUAT_TOL = 1e-9
# Levenberg damping added to the Gauss-Newton normal matrix.
GN_DAMPING = 1e-6
# The pose block ends at the first accepted step under both tolerances.
POSE_TOL_M = 1e-4
POSE_TOL_RAD = 1e-4


@dataclass
class SolverConfig:
    """Solver settings, set only through a scenario's `solver` section.

    max_alternations caps the Gauss-Newton steps of one frame's pose block.
    window_m = 0 turns sequence accumulation off and calibrate = False the
    online calibration: the paper's two ablations.
    """

    max_alternations: int = 10
    # None = auto threshold 10 * meas_sigma * sqrt(3 * N * window), or inf
    # when calibration is off or meas_sigma is 0; inf disables the
    # residual-based fallback entirely.
    divergence_residual: float | None = None
    meas_sigma: float = 0.2  # noise scale the auto threshold is based on
    window_m: float = 0.5
    calibrate: bool = True

    def __post_init__(self):
        check_number("solver.max_alternations", self.max_alternations,
                     integer=True, at_least=1)
        # meas_sigma defaults to the scenario's noise level, which is 0 for
        # a noiseless dataset, so 0 stays allowed.
        check_number("solver.window_m", self.window_m, at_least=0)
        check_number("solver.meas_sigma", self.meas_sigma, at_least=0)
        # A truthy string such as "false" would turn calibration on.
        if not isinstance(self.calibrate, bool):
            raise ConfigurationError(
                f"solver.calibrate must be true or false, got {self.calibrate!r}")
        # inf turns the fallback off; NaN would too, as no norm compares
        # above it, so it is refused.
        if self.divergence_residual is not None:
            check_number("solver.divergence_residual", self.divergence_residual,
                         at_least=0, allow_inf=True)

    def divergence_threshold(self, n_sensors: int, window_len: int) -> float:
        if self.divergence_residual is not None:
            return float(self.divergence_residual)
        if not self.calibrate or self.meas_sigma == 0.0:
            # Uncalibrated residuals sit at the distortion floor, and
            # noiseless ones at the map's interpolation error; a
            # noise-scaled threshold would fire every frame and reduce the
            # run to the reference trajectory.
            return np.inf
        return 10.0 * self.meas_sigma * np.sqrt(3.0 * n_sensors * window_len)


def _newest_fields(rotations_t: np.ndarray, r_body: np.ndarray,
                   fields: np.ndarray) -> np.ndarray:
    """Body-frame fields R^T M (N, 3) of the newest entry's sensors, from
    the newest row of the window's rotations_t (S^T) and the world-frame
    fields M (N, 3) under the body rotation r_body: S^T (R_body^T M)."""
    return np.einsum("nab,nb->na", rotations_t, fields @ r_body)


def _pose(position: np.ndarray, yaw: float) -> PoseState:
    """Planar pose with orientation (0, 0, yaw), yaw wrapped to (-pi, pi]."""
    yaw -= 2.0 * math.pi * math.ceil((yaw - math.pi) / (2.0 * math.pi))
    return PoseState(position, np.array([0.0, 0.0, yaw]))


def _jacobian_all(grid: MagneticGridMap, positions: np.ndarray,
                  fields: np.ndarray, p_body: np.ndarray) -> np.ndarray:
    """World-frame pose Jacobian blocks for every (entry, sensor), shape
    (J, N, 3, 3).

    The body-frame residual C b + bias - R^T M(p) of a sensor at world pose
    (R, p) has the derivatives J = R^T G in the body's x, y and yaw.  A
    step (dx, dy) moves every sensor with the body.  A yaw step turns the
    rig about the vertical through p_body: it moves a sensor by
    z x (p - p_body) and turns its frame, R^T -> R^T - dyaw R^T [z]x.  So
        G = -[dM/dx, dM/dy, grad(M) (z x (p - p_body)) - z x M],
    with M the world-frame field at p (`fields`).  The pose block pairs G
    with the world-frame residual R (C b + bias) - M; as R^T R = I, the
    products G^T G and G^T w equal J^T J and J^T r, so no R^T is applied.
    """
    grads = gradient_many(grid, positions.reshape(-1, 3)).reshape(
        positions.shape + (3,))
    arm = positions - p_body
    # The planar map's dM/dz column is 0; it becomes the yaw column.
    grads[..., 2] = grads[..., 1] * arm[..., :1] - grads[..., 0] * arm[..., 1:2]
    grads[..., 0, 2] += fields[..., 1]
    grads[..., 1, 2] -= fields[..., 0]
    return -grads


def gauss_newton_step(residual, jacobian, mask: str, damping: float,
                      trial_norm_fn=None) -> tuple:
    """Masked, damped normal-equation step for one stacked residual.

    residual is (m,) and jacobian (m, 3) over (x, y, yaw); the step is a
    (3,) array whose coordinates outside the state mask are 0.  When
    trial_norm_fn is given the step is halved (up to 4 times) until the
    residual norm decreases; if it never does, a zero step is returned
    with the stall flag set.  The accepted step is always the last one
    passed to trial_norm_fn.
    """
    r = np.ravel(residual)
    n = STATE_MASKS[mask]
    jm = np.reshape(jacobian, (-1, 3))[:, :n]
    normal = jm.T @ jm + damping * np.eye(n)
    rhs = -(jm.T @ r)
    step = np.zeros(3)
    try:
        step[:n] = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError:
        return np.zeros(3), True
    if trial_norm_fn is None:
        return step, False
    base = float(np.linalg.norm(r))
    scale = 1.0
    for _ in range(5):  # full step plus up to 4 halvings
        dx = scale * step
        trial = trial_norm_fn(dx)
        if trial is not None and trial < base:
            return dx, False
        scale *= 0.5
    return np.zeros(3), True


@dataclass
class AlternateResult:
    x: PoseState
    diverged: bool
    stalled: bool
    alternations: int  # Gauss-Newton steps the pose block took
    residual_norm: float
    # (N, 3) body-frame map field R^T M of the newest entry's sensors at x;
    # None when a map query left the mapped region.
    newest_fields: np.ndarray | None


@dataclass
class _Iterate:
    """A pose with everything one map evaluation gives at it."""

    x: PoseState
    positions: np.ndarray  # (J, N, 3) sensor positions
    fields: np.ndarray  # (J, N, 3) world-frame map field M
    residual: np.ndarray  # (J, N, 3) world-frame residual R_body q - M
    norm: float


def _evaluate(snap: WindowSnapshot, q: np.ndarray, x: PoseState,
              grid: MagneticGridMap) -> _Iterate:
    r_body = rot_z(x.orientation[2])
    offsets = snap.offsets
    positions = ((offsets.reshape(-1, 3) @ r_body.T).reshape(offsets.shape)
                 + x.position)
    m = interpolate_many(grid, positions.reshape(-1, 3)).reshape(positions.shape)
    residual = (q.reshape(-1, 3) @ r_body.T).reshape(q.shape) - m
    return _Iterate(x, positions, m, residual, float(np.linalg.norm(residual)))


def alternate(window: SlidingWindow, thetas, x_prior: PoseState,
              grid: MagneticGridMap, config: SolverConfig) -> AlternateResult:
    """Pose block of the alternation: Gauss-Newton on one window.

    The calibration `thetas` is held fixed; `run` refines it afterwards
    with the pose held fixed.  Takes up to max_alternations pooled pose
    steps over (x, y, yaw), starting from the prior's position and yaw =
    x_prior.orientation[2].  The loop ends at the first accepted step under
    both POSE_TOL_M and POSE_TOL_RAD, or at a stalled line search; the
    returned `alternations` counts the steps taken.

    The residual is the world-frame R_body q - M(p), with q = S (C b +
    bias) each entry's calibrated reading turned into the newest body
    frame by S = relR extR: the body-frame residual turned by R = R_body S.
    As R^T R = I, its norm and normal equations are the body-frame ones,
    and so are the steps.

    Each iterate costs one map evaluation: the sensor positions, one
    lookup and one product turning q by R_body.  A line-search trial
    builds its candidate exactly as the next iterate: p + (dx, dy, 0) and
    the wrapped yaw + dyaw, turned into a rotation by rot_z.  The accepted
    trial's fields and residual become the next iterate, so a Gauss-Newton
    step only adds the Jacobian's gradient lookup, and the returned
    residual_norm and newest_fields are those at the returned pose.
    """
    snap = window.snapshot()
    thetas = np.asarray(thetas, dtype=float).reshape(snap.n_sensors, 12)
    # Calibrated readings C b + bias, fixed while the calibration is, in
    # the newest body frame: q = S (C b + bias), with S^T stored.
    pred = np.einsum("nab,jnb->jna", thetas[:, :9].reshape(-1, 3, 3),
                     snap.readings) + thetas[:, 9:]
    q = np.einsum("jnba,jnb->jna", snap.rotations_t, pred)

    stalled = False
    steps = 0
    x = _pose(x_prior.position.copy(), x_prior.orientation[2])
    tried = []  # iterates the current step's line search evaluated

    def trial_norm(dx):
        x_t = _pose(it.x.position + (dx[0], dx[1], 0.0),
                    it.x.orientation[2] + dx[2])
        try:
            tried.append(_evaluate(snap, q, x_t, grid))
        except OutOfMapError:
            return None
        return tried[-1].norm

    try:
        it = _evaluate(snap, q, x, grid)
        while steps < config.max_alternations:
            jac = _jacobian_all(grid, it.positions, it.fields, it.x.position)
            dx, stalled = gauss_newton_step(
                it.residual.reshape(-1), jac.reshape(-1, 3),
                "xyyaw", GN_DAMPING, trial_norm)
            steps += 1
            if stalled:
                break
            it = tried[-1]
            tried.clear()
            x = it.x
            if math.hypot(dx[0], dx[1]) < POSE_TOL_M and abs(dx[2]) < POSE_TOL_RAD:
                break
    except OutOfMapError:
        return AlternateResult(x, True, stalled, steps, np.inf, None)

    threshold = config.divergence_threshold(snap.n_sensors, len(snap))
    diverged = bool(it.norm > threshold)
    # Entries are oldest first, so the newest frame's sensors are the last row.
    return AlternateResult(x, diverged, stalled, steps, it.norm,
                           _newest_fields(snap.rotations_t[-1],
                                          rot_z(x.orientation[2]),
                                          it.fields[-1]))


@dataclass
class RlsState:
    """Recursive least squares in information form over z = (b, 1).

    normal = eps I + sum z z^T and moments = eps theta0 + sum z g^T, whose
    rows are those of C^T and then the bias; the three output rows share
    the normal matrix.  theta = [rows of C, bias] solves normal X =
    moments.  A state of N sensors holds (N, 4, 4), (N, 4, 3) and (N, 12)
    arrays, and state[i] is sensor i's state as views of their rows.
    """

    normal: np.ndarray
    moments: np.ndarray
    theta: np.ndarray

    @staticmethod
    def identity_init(eps: float = 1e-4, n: int | None = None) -> "RlsState":
        """Prior eps I around the identity calibration, for n sensors."""
        shape = () if n is None else (n,)
        # np.eye(4, 3) is theta0's moments: the identity C^T, zero bias.
        return RlsState(np.tile(eps * np.eye(4), shape + (1, 1)),
                        np.tile(eps * np.eye(4, 3), shape + (1, 1)),
                        np.tile(identity_theta(), shape + (1,)))

    def __getitem__(self, i: int) -> "RlsState":
        return RlsState(self.normal[i], self.moments[i], self.theta[i])


def rls_update(state: RlsState, b: np.ndarray, g: np.ndarray) -> RlsState:
    """Ingest one raw reading b and its body-frame map field g, in place."""
    z = np.append(b, 1.0)
    state.normal += np.outer(z, z)
    state.moments += np.outer(z, g)
    x = np.linalg.solve(state.normal, state.moments)
    state.theta[:9] = x[:3].T.ravel()
    state.theta[9:] = x[3]
    return state


@dataclass
class EstimatorOutput:
    timestamps: np.ndarray  # (T,)
    positions: np.ndarray  # (T, 3)
    orientations: np.ndarray  # (T, 3) rotation vectors (0, 0, yaw)
    thetas: np.ndarray  # (T, N, 12) post-filter calibration per frame
    fallbacks: np.ndarray  # (T,) bool
    alternations: np.ndarray  # (T,)
    residuals: np.ndarray  # (T,)
    frame_ms: np.ndarray  # (T,)
    # (N, 4) final 1-sigma of (c_r0, c_r1, c_r2, b_r), shared by the three
    # rows r of C and bias; None when calibration is off.
    calib_sigma: np.ndarray | None

    @property
    def final_thetas(self) -> np.ndarray:
        return self.thetas[-1]


def _propagate_prior(x: PoseState, frame: DatasetFrame) -> PoseState:
    yaw = x.orientation[2]
    dr = frame.odom_rotation()
    return _pose(x.position + rot_z(yaw) @ frame.odom_dp,
                 yaw + math.atan2(dr[1, 0], dr[0, 0]))


def run(frames, grid: MagneticGridMap, extrinsics,
        config: SolverConfig) -> EstimatorOutput:
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
    non-finite value, or a rotation other than a unit quaternion about z,
    is rejected before any frame runs.
    """
    if not frames:
        raise ConfigurationError("empty dataset")
    for k, f in enumerate(frames):
        values = (f.t, f.odom_dq, f.odom_dp, f.readings, f.gt_p, f.gt_q)
        if not all(np.all(np.isfinite(v)) for v in values):
            raise DatasetSchemaError(
                f"frame {k} (t={f.t}) holds a non-finite value")
        for name in ("odom_dq", "gt_q"):
            q = getattr(f, name)  # wxyz
            if not np.all(np.abs([np.linalg.norm(q) - 1.0, q[1], q[2]])
                          <= QUAT_TOL):
                raise DatasetSchemaError(
                    f"frame {k} (t={f.t}): {name} is not a unit quaternion "
                    "about z")
    xmin, xmax, ymin, ymax = grid.extent()
    gt = np.stack([f.gt_p for f in frames])
    if (gt[:, 0].min() < xmin or gt[:, 0].max() > xmax
            or gt[:, 1].min() < ymin or gt[:, 1].max() > ymax):
        raise ConfigurationError("dataset trajectory leaves the mapped region")

    n_sensors = frames[0].readings.shape[0]
    if n_sensors != len(extrinsics):
        raise ConfigurationError("rig size does not match dataset sensor count")
    window = SlidingWindow(config.window_m, extrinsics)
    rls = RlsState.identity_init(n=n_sensors)
    thetas = rls.theta  # updated in place, one row per sensor
    x = frames[0].gt_pose()

    t_out, pos_out, ori_out, theta_out = [], [], [], []
    fb_out, alt_out, res_out, ms_out = [], [], [], []
    for k, frame in enumerate(frames):
        tic = time.perf_counter()
        if k > 0:
            x = _propagate_prior(x, frame)
        window.push(frame)
        result = alternate(window, thetas, x, grid, config)
        fallback = result.diverged
        x = (_pose(frame.gt_p.copy(), frame.gt_pose().orientation[2])
             if fallback else result.x)
        if config.calibrate:
            g = result.newest_fields
            if fallback:
                # The pose block's fields are not at the reference pose.
                r_body = rot_z(x.orientation[2])
                try:
                    m = interpolate_many(grid,
                                         window.offsets[-1] @ r_body.T + x.position)
                    g = _newest_fields(window.rotations_t[-1], r_body, m)
                except OutOfMapError:
                    g = None  # sensors marginally outside: skip this update
            if g is not None:
                for i in range(n_sensors):
                    rls_update(rls[i], frame.readings[i], g[i])
        ms_out.append((time.perf_counter() - tic) * 1e3)
        t_out.append(frame.t)
        pos_out.append(x.position.copy())
        ori_out.append(x.orientation.copy())
        theta_out.append(thetas.copy())
        fb_out.append(fallback)
        alt_out.append(result.alternations)
        res_out.append(result.residual_norm)
    calib_sigma = None
    if config.calibrate:
        calib_sigma = config.meas_sigma * np.sqrt(np.diagonal(
            np.linalg.solve(rls.normal, np.eye(4)), axis1=1, axis2=2))
    return EstimatorOutput(
        np.array(t_out), np.stack(pos_out), np.stack(ori_out),
        np.stack(theta_out), np.array(fb_out, dtype=bool),
        np.array(alt_out), np.array(res_out), np.array(ms_out), calib_sigma)


def write_trajectory_csv(output: EstimatorOutput, path) -> None:
    with open(path, "w") as f:
        f.write("t,px,py,pz,yaw,fallback,iters,resid,ms\n")
        for k in range(len(output.timestamps)):
            p = output.positions[k]
            f.write(",".join([
                repr(float(output.timestamps[k])),
                repr(float(p[0])), repr(float(p[1])), repr(float(p[2])),
                repr(float(output.orientations[k, 2])),
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
        "calib_sigma": (None if output.calib_sigma is None
                        else [[float(v) for v in row]
                              for row in output.calib_sigma]),
        "mean_frame_ms": float(output.frame_ms.mean()),
    }
