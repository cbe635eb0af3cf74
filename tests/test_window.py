import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magloc.geom import exp_so3
from magloc.magmap import FieldModel, DipoleSource
from magloc.sim import (CalibrationParams, DatasetFrame, NoiseConfig,
                        build_dataset, default_rig, generate_trajectory,
                        quat_from_rotation)
from magloc.window import STATIONARY_ROT, STATIONARY_TRANS, SlidingWindow

from helpers import (RigidTransform, compose, frame_pose, inverse, regressor,
                     sensor_poses, sensor_world_poses)

ZERO_NOISE = NoiseConfig(meas_sigma=0.0, odom_trans_sigma=0.0,
                         odom_rot_sigma=0.0)


def assert_sensor_poses(w, j, rel_r, rel_p, rig, **tol):
    """Row j of the window holds, for each sensor, the rotation
    rel_r @ extR (stored transposed) and the offset rel_r @ extp + rel_p
    of the entry's relative pose (rel_r, rel_p)."""
    for i, ext in enumerate(rig):
        np.testing.assert_allclose(w.rotations_t[j, i].T, rel_r @ ext.rotation,
                                   **tol)
        np.testing.assert_allclose(w.offsets[j, i],
                                   rel_r @ ext.translation + rel_p, **tol)


def frame_of(t, dr, dp, readings):
    """A frame of the given odometry increment and readings, its reference
    pose at the origin."""
    return DatasetFrame(t=t, odom_dq=quat_from_rotation(dr),
                        odom_dp=np.asarray(dp, float),
                        readings=np.atleast_2d(readings),
                        gt_p=np.zeros(3), gt_q=np.array([1.0, 0.0, 0.0, 0.0]))


class TestRegressor:
    """The batch oracle's regressor uses the estimator's theta layout:
    theta = [rows of C, bias] and window readings b map to C b + bias."""

    def test_zero_reading(self):
        h = regressor(np.zeros(3))
        expected = np.zeros((3, 12))
        expected[0, 9] = expected[1, 10] = expected[2, 11] = 1.0
        assert np.array_equal(h, expected)

    def test_matches_direct_affine(self, rng):
        for _ in range(20):
            b = rng.normal(size=3) * 40
            c = rng.normal(size=(3, 3))
            bias = rng.normal(size=3) * 10
            theta = np.concatenate([c.ravel(), bias])
            np.testing.assert_allclose(regressor(b) @ theta, c @ b + bias,
                                       atol=1e-10)


class TestPush:
    def test_single_push_identity(self):
        rig = default_rig()[:1]
        w = SlidingWindow(0.5, rig)
        w.push(frame_of(0.0, np.eye(3), [0, 0, 0], np.zeros((1, 3))))
        assert len(w) == 1
        np.testing.assert_array_equal(w.rotations_t[0, 0], rig[0].rotation.T)
        np.testing.assert_array_equal(w.offsets[0, 0], rig[0].translation)
        assert w.traveled[0] == 0.0

    def test_two_pushes_pure_translation(self):
        rig = default_rig()[:1]
        w = SlidingWindow(5.0, rig)
        w.push(frame_of(0.0, np.eye(3), [0, 0, 0], np.zeros((1, 3))))
        w.push(frame_of(0.1, np.eye(3), [1.0, 0, 0], np.zeros((1, 3))))
        np.testing.assert_allclose(w.offsets[0, 0] - rig[0].translation,
                                   [-1.0, 0, 0], atol=1e-12)
        np.testing.assert_array_equal(w.offsets[1, 0], rig[0].translation)

    def test_matrix_chain_oracle(self, rng):
        # Five mixed increments: the stored backward poses must equal the
        # explicit product form computed independently.
        increments = []
        for _ in range(5):
            dr = exp_so3(rng.normal(size=3) * 0.3)
            dp = rng.normal(size=3) * 0.05
            increments.append((dr, dp))
        rig = default_rig()[:2]
        w = SlidingWindow(100.0, rig)
        w.push(frame_of(0.0, np.eye(3), [0, 0, 0], np.zeros((2, 3))))
        for k, (dr, dp) in enumerate(increments):
            w.push(frame_of(0.1 * (k + 1), dr, dp, np.zeros((2, 3))))
        k = len(increments)
        for j_entry in range(len(w)):
            # Literal product form (increments[m-1] is the step into frame m):
            #   R = dR_k^T dR_{k-1}^T ... dR_{j+1}^T
            #   p = -sum_{m=j+1..k} (prod_{n=k..m+1} dR_n^T) dR_m^T dp_m
            exp_r = np.eye(3)
            exp_p = np.zeros(3)
            for m in range(k, j_entry, -1):
                prefix = np.eye(3)
                for n in range(k, m, -1):
                    prefix = prefix @ increments[n - 1][0].T
                dr_m, dp_m = increments[m - 1]
                exp_p = exp_p - prefix @ dr_m.T @ dp_m
                exp_r = prefix @ dr_m.T
            assert_sensor_poses(w, j_entry, exp_r, exp_p, rig, atol=1e-9)

    def test_backward_pose_consistency(self, rng):
        # Composing the forward increment chain with the stored backward
        # sensor poses yields each entry's sensor world poses.
        rig = default_rig()[:2]
        w = SlidingWindow(100.0, rig)
        w.push(frame_of(0.0, np.eye(3), [0, 0, 0], np.zeros((2, 3))))
        chain = [(np.eye(3), np.zeros(3))]
        for k in range(6):
            dr = exp_so3(rng.normal(size=3) * 0.2)
            dp = rng.normal(size=3) * 0.04
            chain.append((dr, dp))
            w.push(frame_of(0.1 * (k + 1), dr, dp, np.zeros((2, 3))))
        # Forward world pose of each frame (world = frame 0).
        world = []
        r, p = np.eye(3), np.zeros(3)
        for dr, dp in chain:
            p = p + r @ dp
            r = r @ dr
            world.append((r.copy(), p.copy()))
        rk, pk = world[-1]
        for j in range(len(w)):
            rj, pj = world[j]
            for i, ext in enumerate(rig):
                # Sensor world pose of frame j composed from world_k and
                # the backward sensor pose.
                np.testing.assert_allclose(rk @ w.rotations_t[j, i].T,
                                           rj @ ext.rotation, atol=1e-9)
                np.testing.assert_allclose(rk @ w.offsets[j, i] + pk,
                                           rj @ ext.translation + pj, atol=1e-9)

    def test_eviction_by_distance(self):
        rig = default_rig()[:1]
        w = SlidingWindow(0.25, rig)
        for k in range(6):
            w.push(frame_of(0.1 * k, np.eye(3), [0.1, 0, 0] if k else [0, 0, 0],
                            np.zeros((1, 3))))
        dists = w.traveled
        assert max(dists) <= 0.25 + 1e-12
        assert dists[-1] == 0.0
        # horizon 0.25 at 0.1 m steps keeps distances {0.2, 0.1, 0}.
        np.testing.assert_allclose(dists, [0.2, 0.1, 0.0], atol=1e-12)
        # The survivors are the last three frames, 0.2, 0.1 and 0 m behind.
        assert len(w) == 3
        for j, back in enumerate((0.2, 0.1, 0.0)):
            assert_sensor_poses(w, j, np.eye(3), np.array([-back, 0.0, 0.0]),
                                rig, atol=1e-12)

    def test_stationary_replacement(self, rng):
        rig = default_rig()[:1]
        w = SlidingWindow(0.5, rig)
        w.push(frame_of(0.0, np.eye(3), [0, 0, 0], np.array([[1.0, 2, 3]])))
        w.push(frame_of(0.1, np.eye(3), [1e-6, 0, 0], np.array([[4.0, 5, 6]])))
        assert len(w) == 1
        np.testing.assert_array_equal(w.readings[0, 0], [4.0, 5, 6])
        assert w.timestamps[0] == 0.1
        # The newest entry keeps the pose it was pushed with.
        assert_sensor_poses(w, 0, np.eye(3), np.zeros(3), rig, rtol=0, atol=0)

    def test_non_monotone_rejected(self):
        w = SlidingWindow(0.5, default_rig()[:1])
        w.push(frame_of(0.1, np.eye(3), [0, 0, 0], np.zeros((1, 3))))
        with pytest.raises(ValueError):
            w.push(frame_of(0.1, np.eye(3), [0.1, 0, 0], np.zeros((1, 3))))

    def test_zero_horizon_keeps_newest_only(self):
        w = SlidingWindow(0.0, default_rig()[:1])
        for k in range(4):
            w.push(frame_of(0.1 * k, np.eye(3), [0.05, 0, 0] if k else [0, 0, 0],
                            np.zeros((1, 3))))
        assert len(w) == 1
        assert w.traveled[0] == 0.0


class TestSensorPoses:
    def test_single_entry_identity_state(self):
        rig = default_rig()
        w = SlidingWindow(0.5, rig)
        w.push(frame_of(0.0, np.eye(3), [0, 0, 0], np.zeros((len(rig), 3))))
        rot, pos = sensor_poses(w.snapshot(), np.eye(3), np.zeros(3))
        assert rot.shape == (1, len(rig), 3, 3)
        for i, ext in enumerate(rig):
            np.testing.assert_allclose(pos[0, i], ext.translation, atol=1e-12)
            np.testing.assert_allclose(rot[0, i], ext.rotation, atol=1e-12)

    def test_pure_yaw_rotates_offsets(self):
        rig = default_rig()
        w = SlidingWindow(0.5, rig)
        w.push(frame_of(0.0, np.eye(3), [0, 0, 0], np.zeros((len(rig), 3))))
        yaw = 0.7
        position = np.array([2.0, -1.0, 0.0])
        rz = exp_so3(np.array([0, 0, yaw]))
        _, pos = sensor_poses(w.snapshot(), rz, position)
        for i, ext in enumerate(rig):
            np.testing.assert_allclose(pos[0, i], rz @ ext.translation + position,
                                       atol=1e-12)

    def test_against_simulator_ground_truth(self):
        # At zero odometry noise, sensor poses reconstructed from the
        # window at the newest ground-truth state reproduce each frame's
        # true sensor world poses.
        rng = np.random.default_rng(3)
        field = FieldModel(np.array([20.0, 5.0, -40.0]),
                           [DipoleSource(np.array([2.0, 5.0, -1.0]),
                                         np.array([40.0, 10.0, -60.0]))])
        poses = generate_trajectory([[0.5, 0.5], [2.5, 0.5], [2.5, 2.0]], 0.5, 10.0)
        rig = default_rig()
        calibs = [CalibrationParams.identity() for _ in rig]
        frames = build_dataset(field, poses, 10.0, rig, calibs, ZERO_NOISE, rng)
        w = SlidingWindow(0.4, rig)
        for frame in frames[:9]:
            w.push(frame)
        snap = w.snapshot()
        position, yaw = frame_pose(frames[8])
        rot, pos = sensor_poses(snap, exp_so3(np.array([0.0, 0.0, yaw])),
                                position)
        j_count = len(snap)
        for j in range(j_count):
            frame_idx = 8 - (j_count - 1 - j)
            true_rot, true_pos = sensor_world_poses(*frame_pose(frames[frame_idx]),
                                                    rig)
            np.testing.assert_allclose(rot[j], true_rot, atol=1e-9)
            np.testing.assert_allclose(pos[j], true_pos, atol=1e-9)

    def test_snapshot_is_read_only(self):
        # A snapshot shares the window's arrays, so writing into one must
        # fail rather than corrupt the window.
        w = SlidingWindow(0.5, default_rig()[:2])
        w.push(frame_of(0.0, np.eye(3), [0, 0, 0], np.ones((2, 3))))
        snap = w.snapshot()
        for name in ("readings", "rotations_t", "offsets"):
            with pytest.raises(ValueError):
                getattr(snap, name)[...] = -99.0
        for name in ("readings", "rotations_t", "offsets", "traveled",
                     "timestamps"):
            with pytest.raises(ValueError):
                getattr(w, name)[...] = -99.0

    def test_snapshot_survives_pushes(self):
        # Moving and standstill pushes replace the window's arrays; a
        # snapshot taken before keeps the entries it was taken with.
        w = SlidingWindow(0.5, default_rig()[:2])
        w.push(frame_of(0.0, np.eye(3), [0, 0, 0], np.ones((2, 3))))
        w.push(frame_of(0.1, exp_so3(np.array([0.0, 0.0, 0.3])), [0.1, 0, 0],
                        2 * np.ones((2, 3))))
        snap = w.snapshot()
        before = [getattr(snap, name).copy()
                  for name in ("readings", "rotations_t", "offsets")]
        w.push(frame_of(0.2, exp_so3(np.array([0.0, 0.0, -0.2])), [0, 0.1, 0],
                        3 * np.ones((2, 3))))
        w.push(frame_of(0.3, np.eye(3), [0, 0, 0], 4 * np.ones((2, 3))))
        assert len(w) == 3
        for name, old in zip(("readings", "rotations_t", "offsets"), before):
            np.testing.assert_array_equal(getattr(snap, name), old)


def reference_window(frames, horizon_m):
    """Per-entry window built with compose/inverse, one entry at a time:
    a list of [rel_pose, readings, traveled, timestamp], oldest first."""
    entries = []
    for frame in frames:
        dr = frame.odom_rotation()
        dp = np.asarray(frame.odom_dp, dtype=float)
        step = float(np.linalg.norm(dp))
        angle = float(np.arccos(np.clip((np.trace(dr) - 1.0) / 2.0, -1.0, 1.0)))
        if entries and step < STATIONARY_TRANS and angle < STATIONARY_ROT:
            entries[-1][1] = frame.readings.copy()
            entries[-1][3] = frame.t
            continue
        inv_step = inverse(RigidTransform(dr, dp))
        entries = [[compose(inv_step, rel), readings, dist + step, t]
                   for rel, readings, dist, t in entries
                   if dist + step <= horizon_m]
        entries.append([RigidTransform.identity(), frame.readings.copy(),
                        0.0, frame.t])
    return entries


# One frame: a standstill, or a move of up to 0.3 m and 0.5 rad.
_standstill = st.tuples(st.just("still"),
                        st.floats(0.0, 0.5 * STATIONARY_TRANS),
                        st.floats(0.0, 0.5 * STATIONARY_ROT))
_move = st.tuples(st.just("move"), st.floats(-0.3, 0.3), st.floats(-0.5, 0.5))
_steps = st.lists(st.tuples(st.one_of(_standstill, _move),
                            st.integers(0, 2**32 - 1)),
                  min_size=1, max_size=25)


class TestStackedWindowProperty:
    @settings(max_examples=60, deadline=None)
    @given(steps=_steps, horizon=st.floats(0.0, 1.5),
           n_sensors=st.integers(1, 3))
    def test_matches_per_entry_reference(self, steps, horizon, n_sensors):
        # Random increments, standstill frames and evictions: the stacked
        # window and its snapshot equal the per-entry reference.
        rig = default_rig()[:n_sensors]
        frames = []
        for k, ((kind, a, b), seed) in enumerate(steps):
            rng = np.random.default_rng(seed)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            dp = direction * (a if kind == "still" else abs(a))
            dr = exp_so3(axis * b)
            readings = rng.normal(size=(n_sensors, 3)) * 40.0
            frames.append(frame_of(0.1 * k, dr, dp, readings))
        w = SlidingWindow(horizon, rig)
        for frame in frames:
            w.push(frame)
        ref = reference_window(frames, horizon)

        assert len(w) == len(ref)
        for j, (rel, readings, dist, t) in enumerate(ref):
            assert_sensor_poses(w, j, rel.rotation, rel.translation, rig,
                                rtol=0, atol=1e-12)
            np.testing.assert_array_equal(w.readings[j], readings)
            assert abs(w.traveled[j] - dist) <= 1e-12
            assert w.timestamps[j] == t
        assert w.traveled[-1] == 0.0
        assert np.all(w.traveled <= horizon)

        # The snapshot is the window's arrays, unchanged.
        snap = w.snapshot()
        assert len(snap) == len(ref)
        assert snap.readings is w.readings
        assert snap.rotations_t is w.rotations_t
        assert snap.offsets is w.offsets
