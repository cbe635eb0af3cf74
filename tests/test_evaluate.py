import numpy as np
import pytest

from magloc.errors import AlignmentError
from magloc.evaluate import (_associate, ate, calib_error, class_counts,
                             evaluation_report, per_frame_errors)
from magloc.geom import exp_so3

from helpers import associate_loop


def lawn_path(n=200):
    t = np.arange(n) * 0.1
    x = np.linspace(0, 10, n)
    y = np.sin(np.linspace(0, 3 * np.pi, n)) * 2.0
    return t, np.stack([x, y, np.zeros(n)], axis=1)


def helix_path(n=200):
    t = np.arange(n) * 0.1
    a = np.linspace(0, 4 * np.pi, n)
    return t, np.stack([3.0 * np.cos(a), 2.0 * np.sin(a),
                        np.linspace(0, 1.5, n)], axis=1)


class TestAlignRigid:
    # Rigid alignment is checked through the errors it leaves: zero for a
    # rigidly moved copy of the reference.
    def test_identical_trajectories(self):
        t, p = lawn_path()
        errors = per_frame_errors(t, p, t, p)
        assert errors.shape == (len(t),)
        assert errors.max() < 1e-12

    def test_pure_offset(self):
        t, p = lawn_path()
        est = p + np.array([1.0, 2.0, 0.0])
        assert per_frame_errors(t, est, t, p).max() < 1e-10

    def test_known_yaw(self):
        # Constructed-transform oracle: the reference rotated by a known
        # rotation, off the plane too, aligns back with no residual.
        t, p = helix_path()
        r = exp_so3(np.array([0.2, -0.1, 0.3]))
        est = p @ r.T + np.array([0.5, -2.0, 1.0])
        assert per_frame_errors(t, est, t, p).max() < 1e-9

    def test_collinear_rejected(self):
        t = np.arange(10) * 0.1
        p = np.stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)], axis=1)
        with pytest.raises(AlignmentError):
            per_frame_errors(t, p, t, p)

    def test_too_few_points(self):
        t = np.array([0.0, 0.1])
        p = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]])
        with pytest.raises(AlignmentError):
            per_frame_errors(t, p, t, p)

    def test_no_reflection(self):
        # A mirror image of a planar path is a proper rotation of it (a
        # half turn about an in-plane axis), so the path must leave the
        # plane: the mirrored helix then cannot align onto the helix, and
        # a fit that allowed the reflection would read zero error.
        t, p = helix_path()
        mirrored = p * np.array([-1.0, 1.0, 1.0])
        assert per_frame_errors(t, mirrored, t, p).min() > 0.0
        assert ate(t, mirrored, t, p) > 0.3


class TestAssociate:
    def test_matches_loop_oracle(self):
        # Property test against the per-estimate loop.  Times sit on
        # dyadic grids, so equal-distance ties and gaps of exactly max_dt
        # are exact in floating point; reference times are unsorted with
        # duplicates, and estimates run past both ends of the reference.
        rng = np.random.default_rng(22)
        seen = {"tie": 0, "gap_at_max_dt": 0, "outside": 0, "dup_ref": 0,
                "max_dt_zero": 0, "empty": 0}
        for case in range(1500):
            n_ref = int(rng.integers(0, 12))
            n_est = int(rng.integers(0, 12))
            if case % 5 == 4:
                ref_t = rng.uniform(0.0, 2.0, n_ref)
                est_t = rng.uniform(-0.5, 2.5, n_est)
                max_dt = float(rng.uniform(0.0, 0.4))
            else:
                ref_t = rng.integers(0, 8, n_ref) * 0.25
                est_t = rng.integers(-4, 20, n_est) * 0.125
                max_dt = float(rng.choice([0.0, 0.125, 0.25, 0.375, 10.0]))
            ref_p = np.column_stack([np.arange(n_ref),
                                     rng.normal(size=(n_ref, 2))])
            est_p = np.column_stack([np.arange(n_est),
                                     rng.normal(size=(n_est, 2))])
            est, ref = _associate(est_t, est_p, ref_t, ref_p, max_dt)
            est_o, ref_o = associate_loop(est_t, est_p, ref_t, ref_p, max_dt)
            assert np.array_equal(est, est_o) and np.array_equal(ref, ref_o), \
                f"case {case}"
            if n_ref == 0 or n_est == 0:
                seen["empty"] += 1
                with pytest.raises(AlignmentError):
                    per_frame_errors(est_t, est_p, ref_t, ref_p, max_dt)
                continue
            gaps = np.abs(est_t[:, None] - ref_t[None, :])
            nearest = gaps.min(axis=1)
            seen["tie"] += int(np.any(
                [len(np.unique(ref_t[g == m])) > 1 and m <= max_dt
                 for g, m in zip(gaps, nearest)]))
            seen["gap_at_max_dt"] += int(np.any(nearest == max_dt))
            seen["outside"] += int(np.any((est_t < ref_t.min())
                                          | (est_t > ref_t.max())))
            seen["dup_ref"] += int(len(np.unique(ref_t)) < n_ref)
            seen["max_dt_zero"] += int(max_dt == 0.0)
        assert min(seen.values()) >= 50, seen

    def test_tie_goes_to_later_reference(self):
        ref_t = np.array([0.5, 0.0])
        ref_p = np.array([[5.0, 0, 0], [0.0, 0, 0]])
        est, ref = _associate(np.array([0.25]), np.zeros((1, 3)), ref_t,
                              ref_p, 0.25)
        np.testing.assert_array_equal(ref, [[5.0, 0, 0]])

    def test_gap_of_max_dt_kept(self):
        t = np.array([0.0, 1.0])
        p = np.eye(3)[:2]
        est, _ = _associate(t + 0.125, p, t, p, 0.125)
        assert len(est) == 2
        est, _ = _associate(t + 0.125, p, t, p, 0.0)
        assert len(est) == 0
        est, _ = _associate(t, p, t, p, 0.0)
        assert len(est) == 2


class TestAte:
    def test_identical_zero(self):
        t, p = lawn_path()
        assert ate(t, p, t, p) == 0.0

    def test_constant_offset_removed(self):
        t, p = lawn_path()
        est = p + np.array([3.0, -1.0, 0.5])
        assert ate(t, est, t, p) < 1e-12

    def test_rigid_transform_invariance(self, rng):
        t, p = lawn_path()
        est = p + rng.normal(size=p.shape) * 0.05
        base = ate(t, est, t, p)
        r = exp_so3(rng.normal(size=3))
        moved = est @ r.T + rng.normal(size=3) * 5
        assert abs(ate(t, moved, t, p) - base) < 1e-9

    def test_gaussian_noise_statistics(self):
        # Monte-Carlo oracle: iid sigma_p noise on each axis gives
        # RMSE = sigma_p * sqrt(3) up to sampling error.
        rng = np.random.default_rng(0)
        n = 10000
        t = np.arange(n) * 0.1
        p = np.stack([np.cos(np.linspace(0, 20, n)) * 5,
                      np.sin(np.linspace(0, 20, n)) * 5,
                      np.zeros(n)], axis=1)
        sigma = 0.13
        est = p + rng.normal(0, sigma, size=p.shape)
        value = ate(t, est, t, p)
        assert abs(value - sigma * np.sqrt(3)) / (sigma * np.sqrt(3)) < 0.1

    def test_association_by_nearest_timestamp(self):
        t, p = lawn_path(20)
        # Estimated stream slightly offset in time, but within 1/(2*rate).
        est_t = t + 0.01
        value = ate(est_t, p, t, p, max_dt=0.05)
        assert value == 0.0
        # Out-of-window estimates are dropped entirely.
        with pytest.raises(AlignmentError):
            ate(t + 10.0, p, t, p, max_dt=0.05)


class TestCalibError:
    def test_equal_vectors(self, rng):
        theta = rng.normal(size=12)
        assert calib_error(theta, theta) == 0.0

    def test_unit_bias(self):
        a = np.zeros(12)
        b = np.zeros(12)
        b[9] = 1.0
        assert calib_error(a, b) == 1.0

    def test_paper_scale_bias_only(self):
        # A bias-only discrepancy of aggregate norm 0.659 (published Office
        # figure) is reported verbatim by the mixed-unit l2 norm.
        theta_g = np.array([1, 0, 0, 0, 1, 0, 0, 0, 1, 5.0, -3.0, 7.0])
        delta = np.array([0.35, -0.42, 0.37])
        delta *= 0.659 / np.linalg.norm(delta)
        theta_e = theta_g.copy()
        theta_e[9:] += delta
        assert calib_error(theta_e, theta_g) == pytest.approx(0.659, abs=1e-12)

    def test_metric_axioms(self, rng):
        for _ in range(20):
            a, b, c = rng.normal(size=(3, 12))
            assert calib_error(a, b) == calib_error(b, a)
            assert calib_error(a, c) <= calib_error(a, b) + calib_error(b, c) + 1e-12


class TestClassify:
    def test_thresholds(self):
        # Below 0.3 m is well, 0.3-1.0 m both ends included is poor, and
        # above 1 m or NaN is failed.
        cases = [(0.0, "well"), (np.nextafter(0.3, 0.0), "well"),
                 (0.3, "poor"), (0.5, "poor"), (1.0, "poor"),
                 (np.nextafter(1.0, 2.0), "failed"), (1.5, "failed"),
                 (np.inf, "failed"), (np.nan, "failed")]
        for value, label in cases:
            expected = {"well": 0, "poor": 0, "failed": 0}
            expected[label] = 1
            assert class_counts([value]) == expected, value

    def test_exhaustive_and_exclusive(self, rng):
        errors = rng.uniform(0, 2, 500)
        errors[::50] = np.nan
        counts = class_counts(errors)
        assert sum(counts.values()) == 500
        assert all(isinstance(v, int) for v in counts.values())

    def test_counts(self):
        counts = class_counts(np.array([0.1, 0.5, 2.0, 0.2, np.nan]))
        assert counts == {"well": 2, "poor": 1, "failed": 2}


class TestReport:
    def test_schema_and_values(self, rng):
        t, p = lawn_path(100)
        est = p + rng.normal(size=p.shape) * 0.02
        theta_true = [rng.normal(size=12) for _ in range(3)]
        theta_est = [tt + rng.normal(size=12) * 0.1 for tt in theta_true]
        report = evaluation_report(t, est, t, p, theta_est, theta_true, 4.2)
        assert set(report) == {"ate_m", "calib_error_uT", "frame_class_counts",
                               "mean_frame_ms"}
        assert report["mean_frame_ms"] == 4.2
        assert len(report["calib_error_uT"]["per_sensor"]) == 3
        expected_avg = np.mean([calib_error(e, g)
                                for e, g in zip(theta_est, theta_true)])
        assert report["calib_error_uT"]["average"] == pytest.approx(expected_avg)
        assert sum(report["frame_class_counts"].values()) == 100
