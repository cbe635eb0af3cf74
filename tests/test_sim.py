import numpy as np
import pytest

from magloc.errors import ConfigurationError, DatasetSchemaError
from magloc.geom import PoseState, exp_so3
from magloc.magmap import FieldModel, DipoleSource, sample_field
from magloc.sim import (CalibrationParams, DatasetFrame, NoiseConfig,
                        SensorExtrinsics, build_dataset, default_rig,
                        generate_trajectory,
                        quat_from_rotation, read_dataset, rotation_from_quat,
                        sample_distortions, simulate_odometry, write_dataset)

from conftest import random_rotation
from helpers import sensor_world_poses

ZERO_NOISE = NoiseConfig(meas_sigma=0.0, odom_trans_sigma=0.0, odom_rot_sigma=0.0)


def simple_field():
    return FieldModel(np.array([20.0, 5.0, -40.0]),
                      [DipoleSource(np.array([4.0, 4.0, -1.0]),
                                    np.array([30.0, -50.0, 80.0]))])


def turning_path():
    """A path whose heading takes four values, one of them diagonal."""
    return generate_trajectory([[0.5, 0.5], [3.0, 0.5], [3.0, 2.0], [1.0, 2.6]],
                               0.5, 10.0)


def readings_of(frames):
    return np.stack([f.readings for f in frames])


def per_frame_readings(field, poses, rig, calibs=None):
    """Noiseless (T, N, 3) readings, one pose and one sensor at a time: the
    reference for build_dataset's stacked arrays.  Without calibrations,
    the ambient field in each sensor's frame."""
    calibs = calibs or [CalibrationParams.identity()] * len(rig)
    out = []
    for pose in poses:
        rots, positions = sensor_world_poses(pose, rig)
        out.append([np.linalg.solve(c.c, rots[i].T @ sample_field(field, positions[i])
                                    - c.b) for i, c in enumerate(calibs)])
    return np.array(out)


class TestCalibrationParams:
    def test_theta_round_trip(self, rng):
        c = np.eye(3) + rng.normal(size=(3, 3)) * 0.05
        b = rng.uniform(-20, 20, 3)
        calib = CalibrationParams(c, b)
        back = CalibrationParams.from_theta(calib.theta())
        assert np.array_equal(back.c, c)
        assert np.array_equal(back.b, b)

    def test_theta_ordering(self):
        calib = CalibrationParams(np.arange(9.0).reshape(3, 3) + np.eye(3),
                                  np.array([9.0, 10.0, 11.0]))
        theta = calib.theta()
        np.testing.assert_array_equal(theta[:3], calib.c[0])
        np.testing.assert_array_equal(theta[9:], calib.b)

    def test_singular_rejected(self):
        with pytest.raises(ConfigurationError):
            CalibrationParams(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(ConfigurationError, match="non-finite"):
            CalibrationParams(np.full((3, 3), np.nan), np.zeros(3))
        with pytest.raises(ConfigurationError, match="non-finite"):
            CalibrationParams(np.eye(3), np.array([0.0, np.inf, 0.0]))


class TestQuaternions:
    def test_round_trip(self, rng):
        for _ in range(50):
            r = random_rotation(rng)
            np.testing.assert_allclose(rotation_from_quat(quat_from_rotation(r)),
                                       r, atol=1e-12)

    def test_identity(self):
        np.testing.assert_array_equal(quat_from_rotation(np.eye(3)),
                                      [1.0, 0.0, 0.0, 0.0])

    @staticmethod
    def _scalar_shepperd(r):
        """One matrix at a time, the conversion datasets were written with."""
        trace = r[0, 0] + r[1, 1] + r[2, 2]
        if trace > 0.0:
            s = np.sqrt(trace + 1.0) * 2.0
            q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s,
                          (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
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

    def test_stacked_bits_match_per_matrix(self, rng):
        # A dataset stays byte-identical only if a stacked call rounds
        # every matrix as a lone call and the scalar conversion do, in
        # each of Shepperd's four branches.
        rs = np.stack([random_rotation(rng) for _ in range(400)])
        diag = np.diagonal(rs, axis1=1, axis2=2)
        branch = np.where(diag.sum(axis=1) > 0.0, 3, np.argmax(diag, axis=1))
        assert set(branch) == {0, 1, 2, 3}
        stacked = quat_from_rotation(rs.reshape(20, 20, 3, 3)).reshape(-1, 4)
        for r, q in zip(rs, stacked):
            assert np.array_equal(q, quat_from_rotation(r))
            assert np.array_equal(q, self._scalar_shepperd(r))


class TestTrajectory:
    def test_straight_line_spacing(self):
        poses = generate_trajectory([[0, 0], [1, 0]], speed=1.0, frame_rate=10.0)
        assert len(poses) == 11
        for k, pose in enumerate(poses):
            np.testing.assert_allclose(pose.position, [0.1 * k, 0.0, 0.0],
                                       atol=1e-12)
            assert pose.orientation[2] == 0.0

    def test_single_segment_constant_yaw(self):
        poses = generate_trajectory([[0, 0], [1, 1]], speed=0.5, frame_rate=5.0)
        yaws = {float(p.orientation[2]) for p in poses}
        assert yaws == {np.pi / 4}

    def test_corner_yaw_steps(self):
        # Tangent-direction oracle: the sample at the corner takes the
        # outgoing segment's heading.
        poses = generate_trajectory([[0, 0], [1, 0], [1, 1]], speed=1.0,
                                    frame_rate=10.0)
        s = np.array([np.linalg.norm(p.position[:2] - [0, 0]) for p in poses])
        for k, pose in enumerate(poses):
            arc = 0.1 * k
            expected = 0.0 if arc < 1.0 - 1e-9 else np.pi / 2
            assert pose.orientation[2] == pytest.approx(expected), k

    def test_total_length(self):
        poses = generate_trajectory([[0, 0], [2, 0], [2, 1]], speed=0.7,
                                    frame_rate=10.0)
        last = poses[-1].position
        assert np.linalg.norm(last[:2] - [2, 1]) < 0.07 + 1e-9

    def test_bad_input(self):
        with pytest.raises(ConfigurationError):
            generate_trajectory([[0, 0]], 1.0, 10.0)
        with pytest.raises(ConfigurationError):
            generate_trajectory([[0, 0], [1, 0]], -1.0, 10.0)


class TestOdometry:
    def test_noiseless_chain_reproduces_truth(self, rng):
        poses = generate_trajectory([[0, 0], [2, 0], [2, 2], [0, 2]], 0.5, 10.0)
        increments = simulate_odometry(poses, ZERO_NOISE, rng)
        assert len(increments) == len(poses) - 1
        p = poses[0].position.copy()
        r = poses[0].rotation()
        for (dr, dp), pose in zip(increments, poses[1:]):
            p = p + r @ dp
            r = r @ dr
            np.testing.assert_allclose(p, pose.position, atol=1e-10)
            np.testing.assert_allclose(r, pose.rotation(), atol=1e-10)

    def test_stationary_identity(self, rng):
        pose = PoseState(np.array([1.0, 2.0, 0.0]), np.array([0, 0, 0.3]))
        increments = simulate_odometry([pose, pose.copy()], ZERO_NOISE, rng)
        dr, dp = increments[0]
        np.testing.assert_allclose(dr, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(dp, np.zeros(3), atol=1e-12)

    def test_seed_determinism(self):
        poses = generate_trajectory([[0, 0], [3, 0]], 0.5, 10.0)
        noise = NoiseConfig(odom_trans_sigma=0.02, odom_rot_sigma=0.01)
        a = simulate_odometry(poses, noise, np.random.default_rng(99))
        b = simulate_odometry(poses, noise, np.random.default_rng(99))
        for (ra, pa), (rb, pb) in zip(a, b):
            assert np.array_equal(ra, rb)
            assert np.array_equal(pa, pb)

    def test_noise_is_planar(self, rng):
        poses = generate_trajectory([[0, 0], [3, 0]], 0.5, 10.0)
        noise = NoiseConfig(odom_trans_sigma=0.05, odom_rot_sigma=0.02)
        for dr, dp in simulate_odometry(poses, noise, rng):
            assert dp[2] == 0.0
            np.testing.assert_allclose(dr[2, 2], 1.0, atol=1e-12)


class TestReadings:
    def test_identity_distortion(self, rng):
        field = simple_field()
        poses = turning_path()
        rig = default_rig()
        calibs = [CalibrationParams.identity() for _ in rig]
        frames = build_dataset(field, poses, 10.0, rig, calibs, ZERO_NOISE, rng)
        np.testing.assert_allclose(readings_of(frames),
                                   per_frame_readings(field, poses, rig),
                                   atol=1e-12)

    def test_distortion_round_trip_paper_regime(self, rng):
        # Diagonal scale plus bias in the published test regime: applying
        # the affine model to the noiseless reading recovers the ambient
        # field seen by the sensor.
        c = np.diag([1.01, 0.98, 0.99])
        b = np.array([19.49, 20.60, 20.17])
        calib = CalibrationParams(c, b)
        field = simple_field()
        poses = turning_path()
        rig = default_rig()
        frames = build_dataset(field, poses, 10.0, rig, [calib] * len(rig),
                               ZERO_NOISE, rng)
        recovered = readings_of(frames) @ c.T + b
        np.testing.assert_allclose(recovered,
                                   per_frame_readings(field, poses, rig),
                                   atol=1e-10)

    def test_regressor_form_round_trip(self, rng):
        # C b + bias of the true calibration equals the body-frame
        # ambient field.
        field = simple_field()
        poses = turning_path()
        rig = default_rig()
        calibs = sample_distortions(len(rig), rng)
        frames = build_dataset(field, poses, 10.0, rig, calibs, ZERO_NOISE, rng)
        expected = per_frame_readings(field, poses, rig)
        for frame, fields in zip(frames, expected):
            for i, calib in enumerate(calibs):
                lhs = calib.c @ frame.readings[i] + calib.b
                np.testing.assert_allclose(lhs, fields[i], atol=1e-9)

    def test_rotated_rig_matches_per_frame_reference(self, rng):
        # Rotated extrinsics and random distortions: the default rig's
        # identity rotations would hide a transposed or reordered product.
        field = simple_field()
        poses = turning_path()
        rig = [SensorExtrinsics(exp_so3(rng.normal(size=3)),
                                rng.uniform(-0.4, 0.4, 3)) for _ in range(5)]
        assert all(np.abs(e.rotation - np.eye(3)).max() > 0.1 for e in rig)
        calibs = sample_distortions(len(rig), rng)
        frames = build_dataset(field, poses, 10.0, rig, calibs, ZERO_NOISE, rng)
        expected = per_frame_readings(field, poses, rig, calibs)
        np.testing.assert_allclose(readings_of(frames), expected, rtol=0,
                                   atol=1e-12)

    def test_draw_order(self):
        # One (moving steps, 3) odometry draw of x, y, yaw, then one
        # (T, N, 3) reading draw, on the same generator.  Clean datasets
        # stay byte-identical only while this order holds.
        field = simple_field()
        poses = turning_path()
        poses.insert(6, poses[5].copy())  # a stationary step draws nothing
        rig = default_rig()
        calibs = sample_distortions(len(rig), np.random.default_rng(1))
        noise = NoiseConfig(meas_sigma=0.3, odom_trans_sigma=0.02,
                            odom_rot_sigma=0.01)
        noisy = build_dataset(field, poses, 10.0, rig, calibs, noise,
                              np.random.default_rng(5))
        clean = build_dataset(field, poses, 10.0, rig, calibs, ZERO_NOISE,
                              np.random.default_rng(5))
        rng = np.random.default_rng(5)
        odometry = rng.standard_normal((len(poses) - 2, 3))
        reading = rng.standard_normal((len(poses), len(rig), 3)) * 0.3
        np.testing.assert_allclose(readings_of(noisy) - readings_of(clean),
                                   reading, rtol=0, atol=1e-12)
        steps = np.array([np.linalg.norm(b.position - a.position)
                          for a, b in zip(poses[:-1], poses[1:])])
        moving = [k + 1 for k, step in enumerate(steps) if step > 0.0]
        assert len(moving) == len(odometry)
        dp = np.stack([noisy[k].odom_dp - clean[k].odom_dp for k in moving])
        np.testing.assert_allclose(dp[:, :2],
                                   odometry[:, :2] * 0.02 * steps[steps > 0.0, None],
                                   rtol=0, atol=1e-15)
        extra = [rotation_from_quat(clean[k].odom_dq).T
                 @ rotation_from_quat(noisy[k].odom_dq) for k in moving]
        np.testing.assert_allclose([np.arctan2(r[1, 0], r[0, 0]) for r in extra],
                                   odometry[:, 2] * 0.01 * steps[steps > 0.0],
                                   rtol=0, atol=1e-12)

    def test_noise_monte_carlo_mean(self):
        # Mean residual of C @ reading + b - B_env over many draws stays
        # near zero (noise enters the raw reading, transformed by C).
        rng = np.random.default_rng(4)
        field = FieldModel(np.array([20.0, 5.0, -40.0]))
        ext = [SensorExtrinsics(np.eye(3), np.zeros(3))]
        calib = CalibrationParams(np.eye(3) * 1.05, np.array([3.0, -2.0, 1.0]))
        noise = NoiseConfig(meas_sigma=0.2)
        frames = build_dataset(field, [PoseState(np.zeros(3), np.zeros(3))] * 10000, 10.0, ext,
                               [calib], noise, rng)
        resids = readings_of(frames)[:, 0] @ calib.c.T + calib.b - field.earth_field
        mean = np.abs(np.mean(resids, axis=0))
        assert np.all(mean <= 0.01)

    def test_default_rig_geometry(self):
        rig = default_rig()
        assert len(rig) == 8
        xs = sorted({float(e.translation[0]) for e in rig})
        ys = sorted({float(e.translation[1]) for e in rig})
        assert xs == [-0.4, -0.1, 0.1, 0.4]
        assert ys == [-0.1, 0.1]
        assert all(e.translation[2] == 0.0 for e in rig)
        # Two 0.3 m x 0.2 m rectangles.
        assert xs[3] - xs[2] == pytest.approx(0.3)
        assert ys[1] - ys[0] == pytest.approx(0.2)

    @pytest.mark.parametrize("rotation, translation", [
        (np.eye(3), [2.5, 0.0, 0.0]), (np.eye(3), [np.nan, 0.0, 0.0]),
        (np.full((3, 3), np.nan), [0.1, 0.0, 0.0])])
    def test_bad_extrinsics_rejected(self, rotation, translation):
        with pytest.raises(ConfigurationError, match="sensor"):
            SensorExtrinsics(rotation, np.array(translation))


class TestDatasetIo:
    def _frames(self, rng, n_frames=20):
        field = simple_field()
        poses = generate_trajectory([[0.5, 0.5], [3.0, 0.5], [3.0, 2.0]], 0.5, 10.0)
        poses = poses[:n_frames]
        rig = default_rig()
        calibs = sample_distortions(len(rig), rng)
        noise = NoiseConfig(meas_sigma=0.2, odom_trans_sigma=0.01,
                            odom_rot_sigma=0.005)
        return build_dataset(field, poses, 10.0, rig, calibs, noise, rng)

    def test_round_trip_bit_exact(self, tmp_path, rng):
        frames = self._frames(rng)
        path = tmp_path / "d.jsonl"
        write_dataset(frames, path)
        loaded = read_dataset(path)
        assert len(loaded) == len(frames)
        for a, b in zip(frames, loaded):
            assert a.t == b.t
            assert np.array_equal(a.odom_dq, b.odom_dq)
            assert np.array_equal(a.odom_dp, b.odom_dp)
            assert np.array_equal(a.readings, b.readings)
            assert np.array_equal(a.gt_p, b.gt_p)
            assert np.array_equal(a.gt_q, b.gt_q)

    def test_large_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        frames = []
        for k in range(1000):
            frames.append(DatasetFrame(
                t=k * 0.1,
                odom_dq=quat_from_rotation(random_rotation(rng, 0.2)),
                odom_dp=rng.normal(size=3),
                readings=rng.normal(size=(3, 3)) * 50,
                gt_p=rng.normal(size=3) * 10,
                gt_q=quat_from_rotation(random_rotation(rng)),
            ))
        path = tmp_path / "big.jsonl"
        write_dataset(frames, path)
        loaded = read_dataset(path)
        for a, b in zip(frames, loaded):
            for field_name in ("odom_dq", "odom_dp", "readings", "gt_p", "gt_q"):
                assert np.array_equal(getattr(a, field_name),
                                      getattr(b, field_name)), field_name

    def test_sensor_count_mismatch(self, tmp_path, rng):
        frames = self._frames(rng, n_frames=3)
        frames[1].readings = frames[1].readings[:7]
        path = tmp_path / "d.jsonl"
        with pytest.raises(DatasetSchemaError):
            write_dataset(frames, path)
        # And on the read side, with a hand-built file.
        good = frames[0]
        import json
        with open(path, "w") as f:
            for nsens, t in ((8, 0.0), (7, 0.1)):
                f.write(json.dumps({
                    "t": t, "dq": [1, 0, 0, 0], "dp": [0, 0, 0],
                    "readings": [0.0] * (nsens * 3),
                    "gt_p": [0, 0, 0], "gt_q": [1, 0, 0, 0]}) + "\n")
        with pytest.raises(DatasetSchemaError):
            read_dataset(path)

    def test_non_monotone_timestamps(self, tmp_path):
        import json
        path = tmp_path / "d.jsonl"
        with open(path, "w") as f:
            for t in (0.0, 0.2, 0.1):
                f.write(json.dumps({
                    "t": t, "dq": [1, 0, 0, 0], "dp": [0, 0, 0],
                    "readings": [0.0] * 3,
                    "gt_p": [0, 0, 0], "gt_q": [1, 0, 0, 0]}) + "\n")
        with pytest.raises(DatasetSchemaError):
            read_dataset(path)

    def test_generation_deterministic(self, tmp_path):
        a = self._frames(np.random.default_rng(42))
        b = self._frames(np.random.default_rng(42))
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.readings, fb.readings)
            assert np.array_equal(fa.odom_dp, fb.odom_dp)

    def test_gt_pose_accessor(self, rng):
        frames = self._frames(rng, n_frames=2)
        pose = frames[0].gt_pose()
        np.testing.assert_allclose(pose.position, frames[0].gt_p)
        np.testing.assert_allclose(exp_so3(pose.orientation),
                                   rotation_from_quat(frames[0].gt_q), atol=1e-12)
