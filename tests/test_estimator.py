import gc
import math
import tracemalloc

import numpy as np
import pytest

from magloc import estimator, scenario
from magloc.errors import ConfigurationError, DatasetSchemaError
from magloc.estimator import (RlsState, SolverConfig, alternate,
                              gauss_newton_step, rls_update, run, summary_dict)
from magloc.geom import exp_so3, rot_z, skew
from magloc.magmap import (MagneticGridMap, DipoleSource, FieldModel,
                           interpolate_many, rasterize)
from magloc.sim import (CalibrationParams, DatasetFrame, NoiseConfig,
                        SensorExtrinsics, build_dataset, default_rig,
                        generate_trajectory, identity_theta,
                        quat_from_rotation, sample_distortions)
from magloc.window import SlidingWindow

from conftest import random_rotation
from helpers import (frame_pose, pose_jacobian, pose_residual, rls_batch,
                     sensor_poses)

ZERO_NOISE = NoiseConfig(meas_sigma=0.0, odom_trans_sigma=0.0,
                         odom_rot_sigma=0.0)


def shifted(x, dx=0.0, dy=0.0, dyaw=0.0):
    """Planar pose x = (position, yaw) moved by (dx, dy) and turned by
    dyaw about z."""
    return x[0] + np.array([dx, dy, 0.0]), x[1] + dyaw


def wrapped(angle):
    return np.angle(np.exp(1j * np.asarray(angle)))


def affine_grid(a, c, origin=(0.0, 0.0), resolution=0.25, nx=25, ny=21):
    """Exactly-bilinear map of the affine field B(p) = a @ p + c (planar a)."""
    a = np.asarray(a, dtype=float).copy()
    a[:, 2] = 0.0
    xs = origin[0] + resolution * np.arange(nx)
    ys = origin[1] + resolution * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([gx.ravel(), gy.ravel(), np.zeros(nx * ny)], axis=-1)
    values = (nodes @ a.T + np.asarray(c, float)).reshape(nx, ny, 3)
    return a, MagneticGridMap(np.asarray(origin, float), resolution, nx, ny, values)


def affine_frames(a, c, poses, rig, calibs, frame_rate=10.0):
    """Noiseless frames whose readings invert the affine sensor model
    against the affine field; the matching grid map is exact."""
    from magloc.sim import simulate_odometry
    increments = simulate_odometry(poses, ZERO_NOISE, np.random.default_rng(0))
    frames = []
    for k, (position, yaw) in enumerate(zip(*poses)):
        dr, dp = (np.eye(3), np.zeros(3)) if k == 0 else increments[k - 1]
        r_body = exp_so3(np.array([0.0, 0.0, yaw]))
        readings = []
        for ext, calib in zip(rig, calibs):
            rot = r_body @ ext.rotation
            pos = r_body @ ext.translation + position
            env = rot.T @ (a @ pos + c)
            readings.append(np.linalg.solve(calib.c, env - calib.b))
        frames.append(DatasetFrame(
            t=k / frame_rate, odom_dq=quat_from_rotation(dr), odom_dp=dp,
            readings=np.stack(readings), gt_p=position.copy(),
            gt_q=quat_from_rotation(r_body)))
    return frames


def affine_setup(rng, distorted=True, n_frames=8, window_m=0.4):
    a = rng.normal(size=(3, 3)) * 4.0
    c = np.array([20.0, 5.0, -40.0]) + rng.normal(size=3)
    a, grid = affine_grid(a, c)
    poses = generate_trajectory([[1.0, 1.0], [4.0, 1.5], [4.0, 4.0]], 0.5, 10.0)
    rig = default_rig()
    if distorted:
        calibs = sample_distortions(len(rig), rng, bias_range=(-15.0, 15.0))
    else:
        calibs = [CalibrationParams.identity() for _ in rig]
    frames = affine_frames(a, c, poses, rig, calibs)
    w = SlidingWindow(window_m, rig)
    for frame in frames[:n_frames]:
        w.push(frame)
    x_gt = frame_pose(frames[n_frames - 1])
    return a, c, grid, rig, calibs, frames, w, x_gt


class TestPoseResidual:
    def test_zero_at_truth(self, rng):
        _, _, grid, rig, calibs, _, w, x_gt = affine_setup(rng)
        for sensor in range(len(rig)):
            r = pose_residual(w, calibs[sensor].theta(), x_gt, grid, sensor)
            assert np.abs(r).max() < 1e-8

    def test_affine_translation_prediction(self, rng):
        # Moving the state by dp changes each residual row by -R^T A dp.
        a, c, grid, rig, calibs, _, w, x_gt = affine_setup(rng)
        snap = w.snapshot()
        dp = np.array([grid.resolution, 0.0, 0.0])
        sensor = 2
        r0 = pose_residual(w, calibs[sensor].theta(), x_gt, grid, sensor)
        x1 = shifted(x_gt, dx=dp[0])
        r1 = pose_residual(w, calibs[sensor].theta(), x1, grid, sensor)
        rot, _ = sensor_poses(snap, rot_z(x_gt[1]), x_gt[0])
        predicted = np.concatenate([
            -(rot[j, sensor].T @ a @ dp) for j in range(len(snap))])
        np.testing.assert_allclose(r1 - r0, predicted, atol=1e-9)

    def test_permutation_invariance(self, rng):
        # Relabeling sensors permutes per-sensor residuals identically.
        _, _, grid, rig, calibs, frames, w, x_gt = affine_setup(rng)
        x = shifted(x_gt, 0.02, 0.01)
        perm = rng.permutation(len(rig))
        rig_p = [rig[i] for i in perm]
        w_p = SlidingWindow(0.4, rig_p)
        for frame in frames[:8]:
            shuffled = DatasetFrame(frame.t, frame.odom_dq, frame.odom_dp,
                                    frame.readings[perm], frame.gt_p, frame.gt_q)
            w_p.push(shuffled)
        norm0 = np.sqrt(sum(
            np.sum(pose_residual(w, calibs[i].theta(), x, grid, i)**2)
            for i in range(len(rig))))
        norm1 = np.sqrt(sum(
            np.sum(pose_residual(w_p, calibs[perm[i]].theta(), x, grid, i)**2)
            for i in range(len(rig))))
        assert abs(norm0 - norm1) < 1e-10


class TestPoseJacobian:
    def test_constant_map_blocks(self, rng):
        # Constant map: the x and y columns vanish and the yaw column of
        # the newest entry (zero-offset sensor) is z x R^T M, the yaw
        # column of -[R^T M]x.
        _, grid = affine_grid(np.zeros((3, 3)), np.array([30.0, -10.0, 20.0]))
        rig = [type(default_rig()[0])(np.eye(3), np.zeros(3))]
        w = SlidingWindow(0.4, rig)
        x = (np.array([2.0, 2.0, 0.0]), 0.6)
        w.push(DatasetFrame(0.0, np.array([1.0, 0, 0, 0]), np.zeros(3),
                            np.zeros((1, 3)), x[0],
                            quat_from_rotation(rot_z(x[1]))))
        jac = pose_jacobian(w, x, grid, 0)
        assert jac.shape == (3, 3)
        np.testing.assert_allclose(jac[:, :2], 0.0, atol=1e-12)
        rtm = rot_z(x[1]).T @ np.array([30.0, -10.0, 20.0])
        np.testing.assert_allclose(jac[:, 2], -skew(rtm)[:, 2], atol=1e-10)

    def test_matches_planar_finite_differences(self, rng):
        # Central differences over (x, y, yaw), applied to the position
        # and the yaw directly.
        checked = 0
        while checked < 8:
            a, c, grid, rig, calibs, _, w, x_gt = affine_setup(rng)
            x = shifted(x_gt, rng.uniform(-0.05, 0.05),
                        rng.uniform(-0.05, 0.05), rng.normal() * 0.02)
            sensor = int(rng.integers(len(rig)))
            theta = calibs[sensor].theta()
            jac = pose_jacobian(w, x, grid, sensor)
            eps = 1e-6
            fd = np.zeros_like(jac)
            for k in range(3):
                vec = np.zeros(3)
                vec[k] = eps
                up = shifted(x, *vec)
                dn = shifted(x, *-vec)
                fd[:, k] = (pose_residual(w, theta, up, grid, sensor)
                            - pose_residual(w, theta, dn, grid, sensor)) / (2 * eps)
            assert np.abs(jac - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-4
            checked += 1

    def test_sign_consistency(self, rng):
        # Flipping the residual sign convention flips the Jacobian: checked
        # through the descent direction J^T r pointing downhill.
        _, _, grid, rig, calibs, _, w, x_gt = affine_setup(rng)
        x = shifted(x_gt, 0.05)
        sensor = 1
        theta = calibs[sensor].theta()
        r = pose_residual(w, theta, x, grid, sensor)
        jac = pose_jacobian(w, x, grid, sensor)
        step = -np.linalg.lstsq(jac[:, :2], r, rcond=None)[0]
        x2 = shifted(x, step[0], step[1])
        r2 = pose_residual(w, theta, x2, grid, sensor)
        assert np.linalg.norm(r2) < np.linalg.norm(r)


class TestGaussNewtonStep:
    def test_zero_residual_zero_step(self, rng):
        jac = rng.normal(size=(12, 3))
        dx, stalled = gauss_newton_step(np.zeros(12), jac, "xyyaw", 1e-9)
        assert not stalled
        assert dx.shape == (3,)
        assert np.abs(dx).max() < 1e-9

    def test_linear_problem_one_step_exact(self, rng):
        # Normal-equation oracle: an exactly affine residual is minimized
        # in a single undamped step.
        jac = rng.normal(size=(30, 3))
        target = rng.normal(size=3) * 0.1
        resid = jac @ (-target)  # r(dx) = J (dx - target)
        expected = np.linalg.solve(jac.T @ jac, jac.T @ (-resid))
        dx, stalled = gauss_newton_step(resid, jac, "xyyaw", 0.0)
        assert not stalled
        np.testing.assert_allclose(dx, expected, atol=1e-9)
        np.testing.assert_allclose(dx, target, atol=1e-9)

    def test_masking(self, rng):
        jac = rng.normal(size=(30, 3))
        resid = rng.normal(size=30)
        dx, _ = gauss_newton_step(resid, jac, "xy", 1e-9)
        assert dx[2] == 0.0
        assert dx[0] != 0.0 and dx[1] != 0.0

    def test_halving_rejects_bad_step(self, rng):
        jac = rng.normal(size=(12, 3))
        resid = rng.normal(size=12)
        # A trial function that never improves forces the stall path.
        dx, stalled = gauss_newton_step(resid, jac, "xyyaw", 1e-9,
                                        trial_norm_fn=lambda dx: np.inf)
        assert stalled
        assert np.array_equal(dx, np.zeros(3))

    def test_pooling_matches_stacking(self, rng):
        # Independent oracle: the damped normal equations restricted to the
        # masked columns, solved densely; masked-out entries stay zero.
        jac = rng.normal(size=(27, 3))
        resid = rng.normal(size=27)
        damping = 1e-3
        for mask, n in (("xyyaw", 3), ("xy", 2)):
            jm = jac[:, :n]
            expected = np.zeros(3)
            expected[:n] = np.linalg.solve(
                jm.T @ jm + damping * np.eye(n), -jm.T @ resid)
            dx, stalled = gauss_newton_step(resid, jac, mask, damping)
            assert not stalled
            np.testing.assert_allclose(dx, expected, rtol=0, atol=1e-12)


class TestSolverConfig:
    def test_divergence_threshold(self):
        assert SolverConfig(meas_sigma=0.2).divergence_threshold(8, 3) == (
            pytest.approx(10.0 * 0.2 * math.sqrt(3 * 8 * 3)))
        assert SolverConfig(divergence_residual=1.5).divergence_threshold(
            8, 3) == 1.5
        # No noise scale to base the threshold on, or no calibration to
        # bring the residual down to it: the fallback stays off.
        assert SolverConfig(meas_sigma=0.0).divergence_threshold(8, 3) == np.inf
        assert SolverConfig(calibrate=False).divergence_threshold(8, 3) == np.inf

    @pytest.mark.parametrize("name", ["window_m", "meas_sigma"])
    @pytest.mark.parametrize("value", ["0.5", True, False, None, [0.5]])
    def test_non_number_names_its_key(self, name, value):
        # A string used to fail the >= comparison with a TypeError that did
        # not name the key, and a bool passed as 1 or 0.
        cfg = scenario.reference_config()
        cfg.solver = {name: value}
        with pytest.raises(ConfigurationError, match=f"solver.{name} must be a finite number"):
            scenario.solver_config(cfg)

    @pytest.mark.parametrize("name", ["window_m", "meas_sigma"])
    @pytest.mark.parametrize("value", [0, 2, 0.25, np.float32(0.5), np.int64(1)])
    def test_numbers_accepted(self, name, value):
        cfg = scenario.reference_config()
        cfg.solver = {name: value}
        assert getattr(scenario.solver_config(cfg), name) == value


class TestPropagatePrior:
    def test_matches_so3_composition(self, rng):
        # Oracle: the composed rotation R dR, position p + R dp and the
        # yaw atan2 of R dR's first column, over yaw-only increments
        # including turns across +-pi.
        for _ in range(200):
            yaw = rng.uniform(-np.pi, np.pi)
            position = rng.normal(size=3)
            dr = exp_so3(np.array([0.0, 0.0, rng.normal() * 1.5]))
            dp = rng.normal(size=3) * 0.1
            frame = DatasetFrame(0.0, quat_from_rotation(dr), dp,
                                 np.zeros((1, 3)), np.zeros(3),
                                 np.array([1.0, 0.0, 0.0, 0.0]))
            out_p, out_yaw = estimator._propagate_prior(position, yaw, frame)
            r = exp_so3(np.array([0.0, 0.0, yaw]))
            np.testing.assert_allclose(out_p, position + r @ dp,
                                       rtol=0, atol=1e-12)
            composed = r @ frame.odom_rotation()
            expected = math.atan2(composed[1, 0], composed[0, 0])
            assert abs(wrapped(out_yaw - expected)) < 1e-12
            assert abs(composed[2, 2] - 1.0) < 1e-12
            assert -np.pi < out_yaw <= np.pi


class TestAlternate:
    def test_fixed_point(self, rng):
        _, _, grid, rig, calibs, _, w, x_gt = affine_setup(rng)
        cfg = SolverConfig(divergence_residual=np.inf)
        thetas = np.stack([c.theta() for c in calibs])
        result = alternate(w, thetas, x_gt, grid, cfg)
        assert not result.diverged
        assert result.alternations == 1
        assert (np.linalg.norm(result.position - x_gt[0])
                < estimator.POSE_TOL_M)

    def test_recovers_pose_offset(self, rng):
        # Known calibration, state perturbed off truth: the pose step alone
        # must pull it back within tolerance of the truth.
        _, _, grid, rig, calibs, _, w, x_gt = affine_setup(rng, distorted=False)
        cfg = SolverConfig(max_alternations=20, calibrate=False)
        thetas = np.stack([identity_theta() for _ in rig])
        x0 = shifted(x_gt, 0.05, -0.04, 0.03)
        result = alternate(w, thetas, x0, grid, cfg)
        assert not result.diverged
        assert np.linalg.norm(result.position - x_gt[0]) < 2e-3

    def test_constant_map_stalls_gracefully(self, rng):
        _, grid = affine_grid(np.zeros((3, 3)), np.array([25.0, 0.0, -40.0]))
        rig = default_rig()
        calibs = [CalibrationParams.identity() for _ in rig]
        poses = generate_trajectory([[1.0, 1.0], [2.0, 1.0]], 0.5, 10.0)
        frames = affine_frames(np.zeros((3, 3)), np.array([25.0, 0.0, -40.0]),
                               poses, rig, calibs)
        w = SlidingWindow(0.4, rig)
        for frame in frames[:6]:
            w.push(frame)
        cfg = SolverConfig()
        thetas = np.stack([identity_theta() for _ in rig])
        result = alternate(w, thetas, frame_pose(frames[5]), grid, cfg)
        assert result.stalled
        assert not result.diverged

    def test_sensor_permutation_independence(self, rng):
        # Relabeling sensors leaves the pose step untouched.
        _, _, grid, rig, calibs, frames, w, x_gt = affine_setup(rng)
        cfg = SolverConfig(divergence_residual=np.inf)
        x0 = shifted(x_gt, 0.02, -0.01)
        thetas = np.stack([identity_theta() for _ in rig])
        base = alternate(w, thetas, x0, grid, cfg)

        perm = rng.permutation(len(rig))
        w_p = SlidingWindow(0.4, [rig[i] for i in perm])
        for frame in frames[:8]:
            w_p.push(DatasetFrame(frame.t, frame.odom_dq, frame.odom_dp,
                                  frame.readings[perm], frame.gt_p, frame.gt_q))
        permuted = alternate(w_p, thetas, x0, grid, cfg)
        np.testing.assert_allclose(permuted.position, base.position, atol=1e-10)
        np.testing.assert_allclose(permuted.yaw, base.yaw, atol=1e-10)

    @staticmethod
    def _dipole_window(n_frames=30, window_m=1.0):
        # Distorted, noisy readings against a dipole map: the line search
        # halves some steps and stalls others.
        field, grid = dipole_world()
        poses = generate_trajectory([[1.0, 1.0], [5.0, 1.0], [5.0, 4.0]],
                                    0.5, 10.0)
        rig = default_rig()
        calibs = sample_distortions(len(rig), np.random.default_rng(5))
        frames = build_dataset(field, poses, 10.0, rig, calibs,
                               NoiseConfig(), np.random.default_rng(6))
        w = SlidingWindow(window_m, rig)
        for frame in frames[:n_frames]:
            w.push(frame)
        thetas = np.stack([c.theta() for c in calibs])
        return grid, w, thetas, frame_pose(frames[n_frames - 1])

    def test_residual_norm_is_pooled_norm_at_returned_pose(self):
        # The returned norm is the one evaluated at the returned pose, not
        # that of an earlier iterate or of a rejected trial: recomputing
        # the pooled world-frame residual R_body q - M there reproduces it
        # bit for bit.  The body-frame residual C b + bias - R^T M has the
        # same norm, as R^T R = I.
        grid, w, thetas, x_gt = self._dipole_window()
        snap = w.snapshot()
        pred = np.einsum("nab,jnb->jna", thetas[:, :9].reshape(-1, 3, 3),
                         snap.readings) + thetas[:, 9:]
        q = np.einsum("jnba,jnb->jna", snap.rotations_t, pred)
        for offset in ([0.03, -0.02, 0.02], [-0.06, 0.04, -0.05]):
            cfg = SolverConfig(divergence_residual=np.inf)
            x0 = shifted(x_gt, *offset)
            result = alternate(w, thetas, x0, grid, cfg)
            r_body = rot_z(result.yaw)
            pos = ((snap.offsets.reshape(-1, 3) @ r_body.T).reshape(
                snap.offsets.shape) + result.position)
            m = interpolate_many(grid, pos.reshape(-1, 3)).reshape(pos.shape)
            world = (q.reshape(-1, 3) @ r_body.T).reshape(q.shape) - m
            assert result.residual_norm == float(np.linalg.norm(world))
            rot, _ = sensor_poses(snap, r_body, result.position)
            body = pred - np.einsum("...ji,...j->...i", rot, m)
            assert (abs(np.linalg.norm(body) - result.residual_norm)
                    <= 1e-12 * result.residual_norm)

    def test_world_frame_normal_equations_match_body_frame(self, monkeypatch):
        # The pose block solves with the world-frame residual w = R_body q
        # - M and blocks G.  At every iterate, G^T G and G^T w equal J^T J
        # and J^T r of the body-frame residuals and Jacobians, stacked
        # densely sensor by sensor.  The window turns a corner and every
        # sensor's extrinsic rotation differs from the identity, so a q
        # turned by S^T in place of S, or by relR alone, breaks J^T r.
        captured = []  # (residual, jacobian, step, stalled) per GN step
        gn_step = estimator.gauss_newton_step

        def recorded(residual, jacobian, mask, damping, trial_norm_fn=None):
            dx, stalled = gn_step(residual, jacobian, mask, damping,
                                  trial_norm_fn)
            captured.append((residual, jacobian, dx, stalled))
            return dx, stalled

        monkeypatch.setattr(estimator, "gauss_newton_step", recorded)
        field, grid = dipole_world()
        rng = np.random.default_rng(11)
        rig = [SensorExtrinsics(random_rotation(rng), e.translation)
               for e in default_rig()]
        calibs = sample_distortions(len(rig), rng)
        # A right-angle turn at frame 40; the window keeps frames 30-49.
        poses = generate_trajectory([[1.0, 1.0], [3.0, 1.0], [3.0, 3.0]],
                                    0.5, 10.0)
        frames = build_dataset(field, poses, 10.0, rig, calibs, NoiseConfig(),
                               rng)
        w = SlidingWindow(1.0, rig)
        for frame in frames[:50]:
            w.push(frame)
        yaws = [f.gt_yaw() for f in frames[:50] if f.t in w.timestamps]
        assert np.ptp(yaws) > 1.5
        thetas = np.stack([c.theta() for c in calibs])
        x0 = shifted(frame_pose(frames[49]), 0.04, -0.03, 0.03)
        alternate(w, thetas, x0, grid, SolverConfig(divergence_residual=np.inf))
        assert len(captured) > 1

        x = x0
        for residual, jacobian, dx, stalled in captured:
            r = np.concatenate([pose_residual(w, thetas[i], x, grid, i)
                                for i in range(len(rig))])
            jac = np.vstack([pose_jacobian(w, x, grid, i)
                             for i in range(len(rig))])
            # J^T r nears 0 as the steps converge, so it is compared on the
            # scale |J| |r| of the products it sums.
            for world, body, scale in (
                    (jacobian.T @ jacobian, jac.T @ jac, np.linalg.norm(jac)**2),
                    (jacobian.T @ residual, jac.T @ r,
                     np.linalg.norm(jac) * np.linalg.norm(r))):
                assert np.abs(world - body).max() <= 1e-10 * scale
            if stalled:
                break
            x = shifted(x, *dx)

    def test_one_map_evaluation_per_iterate(self, monkeypatch):
        # One field lookup for the prior plus one per line-search trial, and
        # one gradient lookup per Gauss-Newton step.  The accepted trial,
        # the last one tried, is the next iterate: the next step starts
        # from its residual norm, and the last one is returned.
        counts = {"field": 0, "gradient": 0, "steps": 0, "trials": 0}
        steps = []  # (norm of the step's residual, trial norms, stalled)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        gn_step = estimator.gauss_newton_step

        def counted_step(residual, jacobian, mask, damping, trial_norm_fn=None):
            counts["steps"] += 1
            norms = []

            def trial(dx):
                norms.append(counted("trials", trial_norm_fn)(dx))
                return norms[-1]

            dx, stalled = gn_step(residual, jacobian, mask, damping, trial)
            steps.append((float(np.linalg.norm(residual)), norms, stalled))
            return dx, stalled

        monkeypatch.setattr(estimator, "interpolate_many",
                            counted("field", estimator.interpolate_many))
        monkeypatch.setattr(estimator, "gradient_many",
                            counted("gradient", estimator.gradient_many))
        monkeypatch.setattr(estimator, "gauss_newton_step", counted_step)
        grid, w, thetas, x_gt = self._dipole_window()
        x0 = shifted(x_gt, -0.06, 0.04, -0.05)
        result = alternate(w, thetas, x0, grid,
                           SolverConfig(divergence_residual=np.inf))
        # The case exercises several steps and at least one halving.
        assert counts["steps"] > 1
        assert counts["trials"] > counts["steps"]
        assert counts["field"] == 1 + counts["trials"]
        assert counts["gradient"] == counts["steps"]
        assert any(len(norms) > 1 and not stalled for _, norms, stalled in steps)
        current = steps[0][0]
        for base, norms, stalled in steps:
            assert base == current
            current = base if stalled else norms[-1]
        assert result.residual_norm == current

    @staticmethod
    def _record_steps(monkeypatch):
        """Wrap gauss_newton_step; returns the list of (step, stalled) it
        appends to, one pair per Gauss-Newton step."""
        steps = []
        gn_step = estimator.gauss_newton_step

        def recorded(residual, jacobian, mask, damping, trial_norm_fn=None):
            dx, stalled = gn_step(residual, jacobian, mask, damping,
                                  trial_norm_fn)
            steps.append((dx, stalled))
            return dx, stalled

        monkeypatch.setattr(estimator, "gauss_newton_step", recorded)
        return steps

    def test_loop_ends_at_convergence_or_stall(self, monkeypatch):
        # No step follows a stalled one, nor an accepted one under both
        # pose tolerances; `alternations` counts the steps taken.
        steps = self._record_steps(monkeypatch)
        grid, w, thetas, x_gt = self._dipole_window()
        cases = [(grid, w, thetas, x_gt, offset)
                 for offset in ([0.0, 0.0, 0.0], [0.03, -0.02, 0.02],
                                [-0.06, 0.04, -0.05], [0.1, 0.08, 0.1])]
        # Uncalibrated readings: the line search stalls after several
        # accepted steps.
        grid_long, w_long, _, x_long = self._dipole_window(n_frames=40)
        identity = np.stack([identity_theta() for _ in range(len(thetas))])
        cases.append((grid_long, w_long, identity, x_long,
                      [-0.037, -0.027, -0.016]))
        endings = []
        for g, window, th, x_ref, offset in cases:
            steps.clear()
            cfg = SolverConfig(divergence_residual=np.inf)
            result = alternate(window, th, shifted(x_ref, *offset), g, cfg)
            assert result.alternations == len(steps) < cfg.max_alternations
            for dx, stalled in steps[:-1]:
                assert not stalled
                assert (math.hypot(dx[0], dx[1]) >= estimator.POSE_TOL_M
                        or abs(dx[2]) >= estimator.POSE_TOL_RAD)
            dx, stalled = steps[-1]
            assert result.stalled == stalled
            assert stalled or (math.hypot(dx[0], dx[1]) < estimator.POSE_TOL_M
                               and abs(dx[2]) < estimator.POSE_TOL_RAD)
            endings.append(stalled)
        assert endings[-1] and not any(endings[:-1])

    def test_step_cap(self, monkeypatch):
        # max_alternations caps the Gauss-Newton steps of the pose block.
        steps = self._record_steps(monkeypatch)
        grid, w, thetas, x_gt = self._dipole_window()
        x0 = shifted(x_gt, -0.06, 0.04, -0.05)
        result = alternate(w, thetas, x0, grid,
                           SolverConfig(max_alternations=1,
                                        divergence_residual=np.inf))
        assert len(steps) == 1
        assert result.alternations == 1
        assert not result.stalled
        assert math.hypot(*steps[0][0][:2]) >= estimator.POSE_TOL_M

    def test_newest_fields_match_a_fresh_lookup(self):
        # The RLS step reads the newest entry's body-frame fields from the
        # last iterate; they equal a lookup at the returned pose.
        grid, w, thetas, x_gt = self._dipole_window()
        result = alternate(w, thetas, shifted(x_gt, 0.03, -0.02, 0.02), grid,
                           SolverConfig(divergence_residual=np.inf))
        r_body = rot_z(result.yaw)
        for i, ext in enumerate(default_rig()):
            rot = r_body @ ext.rotation
            pos = r_body @ ext.translation + result.position
            m = interpolate_many(grid, pos[None])[0]
            np.testing.assert_allclose(result.newest_fields[i], rot.T @ m,
                                       rtol=0, atol=1e-10)

    def test_divergence_on_out_of_map(self, rng):
        _, _, grid, rig, calibs, _, w, x_gt = affine_setup(rng, distorted=False)
        cfg = SolverConfig()
        thetas = np.stack([identity_theta() for _ in rig])
        x_out = (np.array([100.0, 100.0, 0.0]), 0.0)
        result = alternate(w, thetas, x_out, grid, cfg)
        assert result.diverged


class TestRls:
    def test_zero_innovation(self, rng):
        # A reading the current calibration already explains leaves it
        # unchanged.  Twenty readings first pin all four parameters: from
        # the bare eps prior the solve scales the rounding of z z^T by
        # up to |z|^2 / eps, about 1e-9 here.
        state = RlsState.identity_init()
        for _ in range(20):
            rls_update(state, rng.normal(size=3) * 30, rng.normal(size=3) * 30)
        b = rng.normal(size=3) * 30
        c, bias = state.theta[:9].reshape(3, 3), state.theta[9:]
        theta_before = state.theta.copy()
        rls_update(state, b, c @ b + bias)
        np.testing.assert_allclose(state.theta, theta_before, atol=1e-12)

    def test_batch_equivalence(self):
        # Independent dense solve of the full prior-regularized problem,
        # over many draws at criterion 1's scale.
        eps = 1e-4
        for seed in range(20):
            rng = np.random.default_rng(seed)
            state = RlsState.identity_init(eps)
            bs, gs = [], []
            for _ in range(50):
                bs.append(rng.normal(size=3) * 25)
                gs.append(rng.normal(size=3) * 30)
                rls_update(state, bs[-1], gs[-1])
            assert np.abs(state.theta - rls_batch(bs, gs, eps)).max() < 1e-8

    def test_p_accumulation(self, rng):
        eps = 1e-4
        state = RlsState.identity_init(eps)
        bs = [rng.normal(size=3) * 10 for _ in range(20)]
        for b in bs:
            rls_update(state, b, rng.normal(size=3))
        zs = [np.append(b, 1.0) for b in bs]
        expected = eps * np.eye(4) + sum(np.outer(z, z) for z in zs)
        np.testing.assert_allclose(state.normal, expected, rtol=1e-12)

    def test_stacked_rows_are_sensor_states(self, rng):
        # state[i] writes through to row i of the stacked arrays.
        stacked = RlsState.identity_init(n=3)
        single = RlsState.identity_init()
        b, g = rng.normal(size=3) * 20, rng.normal(size=3) * 20
        rls_update(stacked[1], b, g)
        rls_update(single, b, g)
        np.testing.assert_array_equal(stacked.theta[1], single.theta)
        np.testing.assert_array_equal(stacked.normal[1], single.normal)
        np.testing.assert_array_equal(stacked.theta[[0, 2]],
                                      np.tile(identity_theta(), (2, 1)))


def dipole_world():
    field = FieldModel(
        np.array([18.0, 4.0, -44.0]),
        [DipoleSource(np.array([1.5, 3.2, -1.0]), np.array([25.0, -40.0, 60.0])),
         DipoleSource(np.array([4.5, 0.8, -1.2]), np.array([-50.0, 20.0, 45.0])),
         DipoleSource(np.array([3.0, 4.2, -0.9]), np.array([30.0, 35.0, -40.0]))])
    grid = rasterize(field, (0.0, 0.0), 0.1, 61, 51)
    return field, grid


class TestRun:
    def test_clean_fixed_point(self, rng):
        # Map exactly consistent with the readings (affine world): the
        # estimator must neither wander in pose nor in calibration.
        a = rng.normal(size=(3, 3)) * 5.0
        c = np.array([20.0, 5.0, -40.0])
        a, grid = affine_grid(a, c, resolution=0.1, nx=61, ny=51)
        poses = generate_trajectory([[1.0, 1.0], [5.0, 1.0], [5.0, 4.0]], 0.5, 10.0)
        rig = default_rig()
        calibs = [CalibrationParams.identity() for _ in rig]
        frames = affine_frames(a, c, poses, rig, calibs)
        output = run(frames, grid, rig, SolverConfig(meas_sigma=0.05))
        errors = np.linalg.norm(output.positions - np.stack([f.gt_p for f in frames]),
                                axis=1)
        assert np.sqrt(np.mean(errors**2)) < grid.resolution / 10.0
        assert np.abs(output.final_thetas - identity_theta()).max() < 1e-3

    def test_clean_dipole_world_ate(self, rng):
        # Continuous-field readings against the rasterized map: pose error
        # stays below a tenth of a cell; calibration absorbs the map's
        # bilinear discretization bias (structurally ~1e-2, planar z-bias).
        field, grid = dipole_world()
        poses = generate_trajectory([[1.0, 1.0], [5.0, 1.0], [5.0, 4.0]], 0.5, 10.0)
        rig = default_rig()
        calibs = [CalibrationParams.identity() for _ in rig]
        frames = build_dataset(field, poses, 10.0, rig, calibs, ZERO_NOISE,
                               np.random.default_rng(1))
        output = run(frames, grid, rig, SolverConfig(meas_sigma=0.05))
        errors = np.linalg.norm(output.positions - np.stack([f.gt_p for f in frames]),
                                axis=1)
        assert np.sqrt(np.mean(errors**2)) < grid.resolution / 10.0
        assert np.abs(output.final_thetas - identity_theta()).max() < 0.2

    def test_distorted_run_converges(self, rng):
        # Published-regime distortion (diagonal scale, ~20 uT bias) and
        # identity init: per-frame error ends below map resolution.
        field, grid = dipole_world()
        poses = generate_trajectory([[1.0, 1.0], [5.0, 1.0], [5.0, 4.0], [1.0, 4.0]],
                                    0.5, 10.0)
        rig = default_rig()
        calib = CalibrationParams(np.diag([1.01, 0.98, 0.99]),
                                  np.array([19.49, 20.60, 20.17]))
        frames = build_dataset(field, poses, 10.0, rig, [calib] * len(rig),
                               NoiseConfig(meas_sigma=0.2, odom_trans_sigma=0.005,
                                           odom_rot_sigma=0.002),
                               np.random.default_rng(2))
        output = run(frames, grid, rig, SolverConfig())
        errors = np.linalg.norm(output.positions - np.stack([f.gt_p for f in frames]),
                                axis=1)
        tail = errors[3 * len(errors) // 4:]
        assert np.max(tail) < grid.resolution
        # Calibration moved from identity toward the truth.
        final_err = np.linalg.norm(output.final_thetas - calib.theta(), axis=1)
        init_err = np.linalg.norm(identity_theta() - calib.theta())
        assert np.all(final_err < 0.2 * init_err)

    def test_run_deterministic_excluding_timing(self, rng):
        field, grid = dipole_world()
        poses = generate_trajectory([[1.0, 1.0], [3.0, 1.0]], 0.5, 10.0)
        rig = default_rig()
        calibs = sample_distortions(len(rig), np.random.default_rng(5))
        frames = build_dataset(field, poses, 10.0, rig, calibs,
                               NoiseConfig(), np.random.default_rng(6))
        out1 = run(frames, grid, rig, SolverConfig())
        out2 = run(frames, grid, rig, SolverConfig())
        assert np.array_equal(out1.positions, out2.positions)
        assert np.array_equal(out1.thetas, out2.thetas)
        assert np.array_equal(out1.residuals, out2.residuals)

    def test_calib_sigma_closed_form(self, rng):
        # Every frame updates the filter, so the final normal matrix is
        # eps I + sum z z^T over the readings, and calib_sigma is
        # meas_sigma sqrt(diag(inv(normal))); more frames never raise it.
        c = np.array([20.0, 5.0, -40.0])
        a, grid = affine_grid(rng.normal(size=(3, 3)) * 5.0, c,
                              resolution=0.1, nx=61, ny=51)
        poses = generate_trajectory([[1.0, 1.0], [3.0, 1.0], [3.0, 2.0]],
                                    0.5, 10.0)
        rig = default_rig()
        frames = affine_frames(a, c, poses, rig,
                               [CalibrationParams.identity() for _ in rig])
        sigmas = []
        for k in (5, 20, len(frames)):
            out = run(frames[:k], grid, rig, SolverConfig(meas_sigma=0.2))
            assert not out.fallbacks.any()
            readings = np.stack([f.readings for f in frames[:k]])
            zs = np.concatenate([readings, np.ones(readings.shape[:2] + (1,))],
                                axis=2)
            normal = 1e-4 * np.eye(4) + np.einsum("kna,knb->nab", zs, zs)
            expected = 0.2 * np.sqrt(np.diagonal(np.linalg.inv(normal),
                                                 axis1=1, axis2=2))
            np.testing.assert_allclose(out.calib_sigma, expected, rtol=1e-6)
            sigmas.append(out.calib_sigma)
        assert np.all(np.diff(sigmas, axis=0) <= 0.0)
        assert summary_dict(out)["calib_sigma"] == out.calib_sigma.tolist()
        off = run(frames, grid, rig, SolverConfig(calibrate=False))
        assert off.calib_sigma is None
        assert summary_dict(off)["calib_sigma"] is None

    def test_empty_dataset_rejected(self):
        _, grid = dipole_world()
        with pytest.raises(Exception):
            run([], grid, default_rig(), SolverConfig())

    def test_region_mismatch_rejected(self, rng):
        field, grid = dipole_world()
        poses = generate_trajectory([[1.0, 1.0], [3.0, 1.0]], 0.5, 10.0)
        rig = default_rig()
        calibs = [CalibrationParams.identity() for _ in rig]
        frames = build_dataset(field, poses, 10.0, rig, calibs, ZERO_NOISE,
                               np.random.default_rng(1))
        for frame in frames:
            frame.gt_p = frame.gt_p + np.array([100.0, 0.0, 0.0])
        with pytest.raises(ConfigurationError):
            run(frames, grid, rig, SolverConfig())

    def test_non_finite_dataset_rejected(self, rng):
        field, grid = dipole_world()
        poses = generate_trajectory([[1.0, 1.0], [3.0, 1.0]], 0.5, 10.0)
        rig = default_rig()
        calibs = [CalibrationParams.identity() for _ in rig]
        for value in (np.nan, np.inf):
            for attr in ("readings", "odom_dp", "gt_p"):
                frames = build_dataset(field, poses, 10.0, rig, calibs,
                                       ZERO_NOISE, np.random.default_rng(1))
                getattr(frames[7], attr).flat[1] = value
                with pytest.raises(DatasetSchemaError, match="frame 7"):
                    run(frames, grid, rig, SolverConfig())

    def test_non_planar_rotation_rejected(self):
        # A rotation the planar state cannot represent: off the z axis, or
        # not a unit quaternion at all.
        field, grid = dipole_world()
        poses = generate_trajectory([[1.0, 1.0], [3.0, 1.0]], 0.5, 10.0)
        rig = default_rig()
        calibs = [CalibrationParams.identity() for _ in rig]
        tilted = quat_from_rotation(exp_so3(np.array([1e-3, 0.0, 0.3])))
        for attr, q in (("odom_dq", [1.0, 1.0, 0.0, 0.0]),
                        ("odom_dq", [1.0 + 1e-6, 0.0, 0.0, 0.0]),
                        ("gt_q", tilted),
                        ("gt_q", [0.0, 0.0, 0.0, 0.0])):
            frames = build_dataset(field, poses, 10.0, rig, calibs,
                                   ZERO_NOISE, np.random.default_rng(1))
            setattr(frames[7], attr, np.array(q))
            with pytest.raises(DatasetSchemaError, match=f"frame 7.*{attr}"):
                run(frames, grid, rig, SolverConfig())

    def test_csv_outputs(self, tmp_path, rng):
        from magloc.estimator import write_theta_trace_csv, write_trajectory_csv
        from magloc.evaluate import read_trajectory_csv
        field, grid = dipole_world()
        poses = generate_trajectory([[1.0, 1.0], [2.0, 1.0]], 0.5, 10.0)
        rig = default_rig()
        calibs = [CalibrationParams.identity() for _ in rig]
        frames = build_dataset(field, poses, 10.0, rig, calibs, ZERO_NOISE,
                               np.random.default_rng(1))
        output = run(frames, grid, rig, SolverConfig(meas_sigma=0.05))
        write_trajectory_csv(output, tmp_path / "traj.csv")
        write_theta_trace_csv(output, tmp_path / "theta.csv")
        cols = read_trajectory_csv(tmp_path / "traj.csv")
        assert len(cols["t"]) == len(frames)
        np.testing.assert_array_equal(cols["px"], output.positions[:, 0])
        np.testing.assert_array_equal(cols["yaw"], output.orientations)
        summary = summary_dict(output)
        assert summary["n_frames"] == len(frames)
        assert len(summary["final_thetas"]) == len(rig)


class TestTraceStorage:
    """The calibration trace holds one (N, 12) array when calibration is
    off, and one per frame when it is on."""

    def distorted_run(self, calibrate):
        field, grid = dipole_world()
        poses = generate_trajectory([[1.0, 1.0], [3.0, 1.0]], 0.5, 10.0)
        rig = default_rig()
        calibs = sample_distortions(len(rig), np.random.default_rng(5))
        frames = build_dataset(field, poses, 10.0, rig, calibs,
                               NoiseConfig(), np.random.default_rng(6))
        return frames, run(frames, grid, rig, SolverConfig(calibrate=calibrate))

    def test_calibration_off_trace_is_one_read_only_array(self):
        frames, out = self.distorted_run(calibrate=False)
        n = len(default_rig())
        assert out.thetas.shape == (len(frames), n, 12)
        # The run never moves from the identity it starts at.
        assert np.array_equal(out.thetas,
                              np.broadcast_to(identity_theta(), out.thetas.shape))
        assert np.shares_memory(out.thetas[0], out.thetas[-1])
        with pytest.raises(ValueError, match="read-only"):
            out.thetas[0, 0, 0] = 2.0

    def test_calibrating_trace_owns_a_row_per_frame(self):
        frames, out = self.distorted_run(calibrate=True)
        assert out.thetas.shape == (len(frames), len(default_rig()), 12)
        assert out.thetas.flags.owndata and out.thetas.flags.writeable
        assert not np.array_equal(out.thetas[0], out.thetas[-1])
        assert not np.shares_memory(out.thetas[0], out.thetas[-1])

    def test_calibration_off_run_retains_less_than_a_fifth_of_a_trace(self):
        # The reference dataset (seed 7, 601 frames, 8 sensors), its
        # readings precalibrated with the true calibrations as `run
        # --precalibrated` does, on the true map.  A per-frame copy of the
        # unchanging calibration would keep T x N x 12 floats; the output
        # keeps about a tenth of that, all of it the other per-frame columns.
        cfg = scenario.reference_config(7)
        model = scenario.field_model(cfg)
        grid = rasterize(model, **scenario.grid_spec(cfg))
        rig = scenario.rig(cfg)
        calibs = scenario.true_calibrations(cfg)
        poses = generate_trajectory(cfg.trajectory.waypoints,
                                    cfg.trajectory.speed,
                                    cfg.trajectory.frame_rate)
        frames = build_dataset(model, poses, cfg.trajectory.frame_rate, rig,
                               calibs, scenario.noise_config(cfg),
                               scenario.seed_children(cfg.seed)[2])
        for frame in frames:
            frame.readings = np.stack([c.c @ b + c.b
                                       for c, b in zip(calibs, frame.readings)])
        solver = scenario.solver_config(cfg, calibrate=False)
        trace_bytes = len(frames) * len(rig) * 12 * 8
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = run(frames, grid, rig, solver)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.thetas.shape == (len(frames), len(rig), 12)
        assert retained < trace_bytes / 5
