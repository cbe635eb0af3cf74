import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from magloc import gpr
from magloc.errors import DegenerateTrainingError
from magloc.gpr import (Fingerprint, KernelParams, _kernel_matrix, build_grid,
                        fit, predict_many, read_fingerprints_csv,
                        write_fingerprints_csv)
from magloc.magmap import DipoleSource, FieldModel, sample_field_many


def make_params(**kw):
    base = dict(lengthscale=1.0, signal_var=25.0, noise_var=0.04)
    base.update(kw)
    return KernelParams(**base)


def fit_random(rng, n, params):
    pos = rng.uniform(0, 3, size=(n, 3))
    fields = rng.normal(size=(n, 3)) * 6 + 30
    return fit([Fingerprint(p, b) for p, b in zip(pos, fields)], params)


def broadcast_reference(model, query):
    """Posterior mean through one unblocked broadcast kernel."""
    d2 = np.sum((query[:, None, :] - model.train_pos[None, :, :])**2, axis=-1)
    kstar = model.params.signal_var * np.exp(
        -d2 / (2.0 * model.params.lengthscale**2))
    return model.mean + kstar @ model.alpha


def rbf(pj, pk, params):
    """The RBF kernel of one pair of points, written out as the oracle."""
    d2 = float(np.sum((pj - pk)**2))
    return params.signal_var * np.exp(-d2 / (2.0 * params.lengthscale**2))


class TestKernel:
    def test_zero_distance(self, rng):
        params = make_params()
        p = rng.normal(size=(20, 3))
        assert np.all(np.diag(_kernel_matrix(p, p, params)) == 25.0)

    def test_one_lengthscale(self):
        params = make_params(lengthscale=0.7)
        a = np.zeros((1, 3))
        b = np.array([[0.7, 0.0, 0.0]])
        np.testing.assert_allclose(_kernel_matrix(a, b, params)[0, 0],
                                   25.0 * np.exp(-0.5), rtol=1e-12)

    def test_symmetry(self, rng):
        params = make_params(lengthscale=0.9)
        p = rng.normal(size=(100, 3))
        k = _kernel_matrix(p, p, params)
        assert np.array_equal(k, k.T)


class TestFit:
    def test_single_point_shrinkage(self):
        # 1x1 closed form: mean + signal_var/(signal_var+noise_var)*(B - mean).
        params = make_params(signal_var=4.0, noise_var=1.0)
        fp = Fingerprint(np.zeros(3), np.array([10.0, -2.0, 6.0]))
        model = fit([fp], params)
        expected = model.mean + 4.0 / 5.0 * (fp.field - model.mean)
        np.testing.assert_allclose(predict_many(model, fp.position[None])[0],
                                   expected, atol=1e-12)

    def test_constant_fields_give_zero_weights(self, rng):
        params = make_params()
        field = np.array([30.0, -10.0, 5.0])
        fps = [Fingerprint(rng.uniform(0, 3, 3), field.copy()) for _ in range(6)]
        model = fit(fps, params)
        np.testing.assert_allclose(model.alpha, 0.0, atol=1e-12)
        np.testing.assert_allclose(predict_many(model, np.full((1, 3), 9.0))[0],
                                   field, atol=1e-12)

    def test_predictions_match_dense_solve(self, rng):
        # Independent dense solve of the same linear system.
        params = make_params(lengthscale=0.8, noise_var=0.1)
        pos = rng.uniform(0, 2, size=(5, 3))
        fields = rng.normal(size=(5, 3)) * 10
        fps = [Fingerprint(p, b) for p, b in zip(pos, fields)]
        model = fit(fps, params)

        k = np.empty((5, 5))
        for i in range(5):
            for j in range(5):
                k[i, j] = rbf(pos[i], pos[j], params)
        k += params.noise_var * np.eye(5)
        mean = fields.mean(axis=0)
        alpha = np.linalg.solve(k, fields - mean)
        for i in range(5):
            expected = mean + k[i] @ alpha - params.noise_var * alpha[i]
            np.testing.assert_allclose(predict_many(model, pos[i][None])[0],
                                       expected, atol=1e-8)

    def test_weights_match_c_ordered_factor(self, rng):
        # fit factors the Fortran-ordered view of the symmetric kernel; the
        # weights are those of the C-ordered factorization, bit for bit.
        params = make_params(lengthscale=0.7, noise_var=0.05)
        pos = rng.uniform(0, 4, size=(200, 3))
        fields = rng.normal(size=(200, 3)) * 6 + 30
        model = fit([Fingerprint(p, b) for p, b in zip(pos, fields)], params)
        k = _kernel_matrix(pos, pos, params)
        k[np.diag_indices_from(k)] += params.noise_var
        assert k.flags.c_contiguous
        alpha = cho_solve(cho_factor(k, lower=True), fields - fields.mean(axis=0))
        assert np.array_equal(model.alpha, alpha)

    @pytest.mark.parametrize("row, column, value", [
        (3, "field", np.nan), (5, "position", np.inf)])
    def test_non_finite_rejected(self, rng, row, column, value):
        pos = rng.uniform(0, 3, size=(8, 3))
        fields = rng.normal(size=(8, 3)) * 6 + 30
        (pos if column == "position" else fields)[row, 1] = value
        with pytest.raises(DegenerateTrainingError,
                           match=f"fingerprint index {row} has a non-finite"):
            fit([Fingerprint(p, b) for p, b in zip(pos, fields)], make_params())

    def test_peak_memory_one_kernel_buffer(self, rng):
        # The kernel is factored in its own buffer: one n x n array, where
        # a factor into a copy holds two.
        n = 1500
        pos = rng.uniform(0, 12, size=(n, 3))
        fields = rng.normal(size=(n, 3)) * 6 + 30
        fps = [Fingerprint(p, b) for p, b in zip(pos, fields)]
        tracemalloc.start()
        try:
            fit(fps, make_params())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n * 8

    def test_residual_check_rejects_a_perturbed_solve(self, rng, monkeypatch):
        pos = rng.uniform(0, 4, size=(200, 3))
        fields = rng.normal(size=(200, 3)) * 6 + 30
        fps = [Fingerprint(p, b) for p, b in zip(pos, fields)]
        fit(fps, make_params())

        def perturbed(*args, **kwargs):
            return cho_solve(*args, **kwargs) + 1e-6

        monkeypatch.setattr(gpr, "cho_solve", perturbed)
        with pytest.raises(DegenerateTrainingError, match="residual"):
            fit(fps, make_params())

    def test_jitter_retry_rebuilds_the_kernel(self, rng, monkeypatch):
        # The first factor overwrites its buffer and then fails, so the
        # retry must start from a fresh kernel.
        params = make_params(lengthscale=0.8, noise_var=0.1)
        pos = rng.uniform(0, 4, size=(60, 3))
        fields = rng.normal(size=(60, 3)) * 6 + 30
        calls = []

        def fail_once(a, **kwargs):
            calls.append(a.shape)
            if len(calls) == 1:
                cho_factor(a, **kwargs)
                raise np.linalg.LinAlgError("forced failure")
            return cho_factor(a, **kwargs)

        monkeypatch.setattr(gpr, "cho_factor", fail_once)
        model = fit([Fingerprint(p, b) for p, b in zip(pos, fields)], params)
        assert len(calls) == 2
        k = np.array([[rbf(pj, pk, params) for pk in pos] for pj in pos])
        k += (params.noise_var + 1e-8 * params.signal_var) * np.eye(60)
        np.testing.assert_allclose(
            model.alpha, np.linalg.solve(k, fields - fields.mean(axis=0)),
            rtol=1e-9, atol=1e-9)

    def test_jitter_retry_gives_up(self, rng, monkeypatch):
        def always_fail(a, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(gpr, "cho_factor", always_fail)
        fps = [Fingerprint(rng.normal(size=3), np.zeros(3)) for _ in range(4)]
        with pytest.raises(DegenerateTrainingError, match="even with jitter"):
            fit(fps, make_params())

    def test_duplicate_positions_rejected(self):
        p = np.array([1.0, 1.0, 0.0])
        fps = [Fingerprint(p, np.zeros(3)), Fingerprint(p.copy(), np.ones(3))]
        with pytest.raises(DegenerateTrainingError):
            fit(fps, make_params())

    def test_empty_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            fit([], make_params())

    def test_training_cap(self, rng):
        fps = [Fingerprint(rng.normal(size=3), np.zeros(3)) for _ in range(5001)]
        with pytest.raises(DegenerateTrainingError):
            fit(fps, make_params())


class TestPredict:
    def test_prior_reversion_far_away(self, rng):
        params = make_params()
        fps = [Fingerprint(rng.uniform(0, 1, 3), rng.normal(size=3) * 5 + 30)
               for _ in range(8)]
        model = fit(fps, params)
        far = np.array([100.0 * params.lengthscale, 0.0, 0.0])
        np.testing.assert_allclose(predict_many(model, far[None])[0], model.mean,
                                   atol=1e-6)

    def test_noise_free_interpolation(self, rng):
        params = make_params(noise_var=0.0)
        pos = rng.uniform(0, 3, size=(30, 3))
        fields = rng.normal(size=(30, 3)) * 8 + 40
        model = fit([Fingerprint(p, b) for p, b in zip(pos, fields)], params)
        preds = predict_many(model, pos)
        np.testing.assert_allclose(preds, fields, atol=1e-8)

    def test_translation_invariance(self, rng):
        params = make_params(lengthscale=0.6)
        pos = rng.uniform(0, 2, size=(10, 3))
        fields = rng.normal(size=(10, 3)) * 5
        shift = np.array([13.0, -4.0, 2.0])
        m1 = fit([Fingerprint(p, b) for p, b in zip(pos, fields)], params)
        m2 = fit([Fingerprint(p + shift, b) for p, b in zip(pos, fields)], params)
        q = rng.uniform(0, 2, size=3)
        np.testing.assert_allclose(predict_many(m1, q[None])[0],
                                   predict_many(m2, (q + shift)[None])[0],
                                   atol=1e-9)

    def test_constant_offset_absorbed_by_mean(self, rng):
        params = make_params()
        pos = rng.uniform(0, 2, size=(12, 3))
        fields = rng.normal(size=(12, 3)) * 4
        offset = np.array([7.0, -3.0, 11.0])
        m1 = fit([Fingerprint(p, b) for p, b in zip(pos, fields)], params)
        m2 = fit([Fingerprint(p, b + offset) for p, b in zip(pos, fields)], params)
        q = rng.uniform(-1, 3, size=3)
        np.testing.assert_allclose(predict_many(m2, q[None])[0],
                                   predict_many(m1, q[None])[0] + offset,
                                   atol=1e-9)

    def test_holdout_rmse_on_dipole_field(self, rng):
        # Field from a known dipole model, noisy training set, held-out RMSE
        # within 3 sigma of the injected noise.
        sigma = 0.2
        model_field = FieldModel(
            np.array([20.0, 5.0, -40.0]),
            [DipoleSource(np.array([1.5, 1.5, -1.2]), np.array([40.0, -60.0, 90.0]))])
        xs = np.arange(0.0, 3.01, 0.25)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pos = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=-1)
        truth = sample_field_many(model_field, pos)
        noisy = truth + rng.normal(0, sigma, size=truth.shape)
        fps = [Fingerprint(p, b) for p, b in zip(pos, noisy)]
        gp = fit(fps, make_params(lengthscale=0.5, noise_var=sigma**2))
        held = np.column_stack([rng.uniform(0.3, 2.7, 60),
                                rng.uniform(0.3, 2.7, 60), np.zeros(60)])
        pred = predict_many(gp, held)
        ref = sample_field_many(model_field, held)
        rmse = np.sqrt(np.mean((pred - ref)**2))
        assert rmse <= 3.0 * sigma

    def test_blocks_match_unblocked_reference(self, rng):
        # Two full blocks of 1024 rows plus a partial one of 7, then none.
        params = make_params(lengthscale=0.6)
        pos = rng.uniform(0, 3, size=(40, 3))
        fields = rng.normal(size=(40, 3)) * 6 + 30
        model = fit([Fingerprint(p, b) for p, b in zip(pos, fields)], params)
        query = rng.uniform(-1, 4, size=(2 * 1024 + 7, 3))
        d2 = np.sum((query[:, None, :] - pos[None, :, :])**2, axis=-1)
        kstar = params.signal_var * np.exp(-d2 / (2.0 * params.lengthscale**2))
        np.testing.assert_allclose(predict_many(model, query),
                                   model.mean + kstar @ model.alpha,
                                   rtol=1e-12, atol=1e-12)
        assert predict_many(model, np.empty((0, 3))).shape == (0, 3)


def lattice(xs, ys, zs):
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=-1)


class TestLatticePath:
    """Queries spanning a lattice no larger than themselves take the
    separable per-axis path; it must equal the broadcast kernel."""

    @staticmethod
    def forbid_cross_kernel(monkeypatch):
        def fail(*args):
            raise AssertionError("lattice queries took the cdist path")
        monkeypatch.setattr(gpr, "_kernel_matrix", fail)

    def cases(self, rng):
        xs = np.linspace(-1.0, 4.0, 23)
        ys = np.linspace(-0.5, 3.5, 17)
        grid = lattice(xs, ys, [0.0])
        return {
            "shuffled": grid[rng.permutation(len(grid))],
            "non-uniform": lattice(np.sort(rng.uniform(-1, 4, 19)),
                                   np.sort(rng.uniform(-1, 4, 11)) ** 2, [0.3]),
            "two levels": lattice(xs, ys, [-0.4, 0.9]),
            "repeated": np.concatenate([grid, grid[::3], grid[:5]]),
            "one point": np.array([[0.7, 1.1, 0.2]]),
        }

    def test_matches_broadcast_reference(self, rng, monkeypatch):
        model = fit_random(rng, 60, make_params(lengthscale=0.6))
        self.forbid_cross_kernel(monkeypatch)
        for name, query in self.cases(rng).items():
            np.testing.assert_allclose(predict_many(model, query),
                                       broadcast_reference(model, query),
                                       rtol=1e-12, atol=1e-10, err_msg=name)
        assert predict_many(model, np.empty((0, 3))).shape == (0, 3)

    def test_blocks_of_distinct_values(self, rng, monkeypatch):
        # 2 * 1024 + 5 distinct x values: two full blocks and a partial one.
        model = fit_random(rng, 30, make_params(lengthscale=0.8))
        self.forbid_cross_kernel(monkeypatch)
        query = lattice(np.linspace(0, 3, 2 * 1024 + 5), [0.5, 1.5], [0.0])
        np.testing.assert_allclose(predict_many(model, query),
                                   broadcast_reference(model, query),
                                   rtol=1e-12, atol=1e-10)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_peak_memory_on_a_line(self, rng, axis):
        # 5000 points on one axis-aligned line against 917 points: an
        # unblocked (5000, 917) factor alone would take 37 MB.
        pos = np.column_stack([rng.uniform(0, 15, 917), rng.uniform(0, 10, 917),
                               np.zeros(917)])
        fields = rng.normal(size=(917, 3)) * 5 + 30
        model = fit([Fingerprint(p, b) for p, b in zip(pos, fields)],
                    make_params())
        line = np.full((5000, 3), 0.5)
        line[:, axis] = np.linspace(0, 15, 5000)
        tracemalloc.start()
        try:
            predict_many(model, line)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestBuildGrid:
    def test_zero_weights_give_uniform_map(self, rng):
        field = np.array([25.0, 0.0, -40.0])
        fps = [Fingerprint(rng.uniform(0, 2, 3), field.copy()) for _ in range(5)]
        model = fit(fps, make_params())
        grid = build_grid(model, (0.0, 0.0), 0.5, 4, 4)
        for i in range(4):
            for j in range(4):
                np.testing.assert_allclose(grid.values[i, j], field, atol=1e-10)

    def test_nodes_match_pointwise_predictions(self, rng):
        pos = rng.uniform(0, 2, size=(10, 3))
        fields = rng.normal(size=(10, 3)) * 6 + 30
        model = fit([Fingerprint(p, b) for p, b in zip(pos, fields)],
                    make_params())
        grid = build_grid(model, (0.2, 0.1), 0.4, 3, 3, plane_height=0.0)
        for i in range(3):
            for j in range(3):
                np.testing.assert_allclose(
                    grid.values[i, j],
                    predict_many(model, grid.node_position(i, j)[None])[0],
                    atol=1e-12)

    def test_peak_memory_stays_blocked(self, rng):
        # 15251 nodes against 917 points: the (m, n, 3) difference array
        # alone would take 336 MB, one 1024-row kernel block takes 7.5 MB.
        pos = np.column_stack([rng.uniform(0, 15, 917), rng.uniform(0, 10, 917),
                               np.zeros(917)])
        fields = rng.normal(size=(917, 3)) * 5 + 30
        model = fit([Fingerprint(p, b) for p, b in zip(pos, fields)],
                    make_params())
        tracemalloc.start()
        try:
            build_grid(model, (0.0, 0.0), 0.1, 151, 101)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_save_load_round_trip(self, tmp_path, rng):
        from magloc.magmap import load_map, save_map
        pos = rng.uniform(0, 2, size=(6, 3))
        model = fit([Fingerprint(p, rng.normal(size=3) * 5 + 20) for p in pos],
                    make_params())
        grid = build_grid(model, (0.0, 0.0), 0.5, 5, 4)
        save_map(grid, tmp_path / "g.mag")
        loaded = load_map(tmp_path / "g.mag")
        assert np.array_equal(loaded.values, grid.values)


class TestFingerprintCsv:
    def test_round_trip(self, tmp_path, rng):
        fps = [Fingerprint(rng.normal(size=3), rng.normal(size=3) * 30)
               for _ in range(10)]
        path = tmp_path / "fp.csv"
        write_fingerprints_csv(fps, path)
        loaded = read_fingerprints_csv(path)
        assert len(loaded) == 10
        for a, b in zip(fps, loaded):
            assert np.array_equal(a.position, b.position)
            assert np.array_equal(a.field, b.field)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "fp.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DegenerateTrainingError):
            read_fingerprints_csv(path)
