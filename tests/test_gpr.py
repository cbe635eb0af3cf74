import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import magloc
from magloc import gpr
from magloc.errors import DegenerateTrainingError
from magloc.gpr import (Fingerprint, KernelParams, build_grid, fit,
                        predict_many, read_fingerprints_csv,
                        write_fingerprints_csv)
from magloc.magmap import DipoleSource, FieldModel, sample_field_many


def make_params(**kw):
    base = dict(lengthscale=1.0, signal_var=25.0, noise_var=0.04)
    base.update(kw)
    return KernelParams(**base)


def planar(rng, n, extent=3.0, height=0.0):
    """n positions uniform over [0, extent] in x and y (a scalar or an
    (x, y) pair) on the plane z = height."""
    return np.column_stack([rng.uniform(0, extent, size=(n, 2)),
                            np.full(n, height)])


def fingerprints(pos, fields):
    return [Fingerprint(p, b) for p, b in zip(pos, fields)]


def fit_random(rng, n, params):
    pos = planar(rng, n)
    fields = rng.normal(size=(n, 3)) * 6 + 30
    return fit(fingerprints(pos, fields), params)


def basis(model, pos):
    """The model's features written out per fingerprint, as the oracle.

    Returns the kept 1-based frequency indices (a, b), the (n, m) Bz
    features phi and the (n, m) psi features -dphi/dx and -dphi/dy, and the
    (m,) spectral density of the unit-variance 2-D RBF kernel."""
    lo, hi = model.lo, model.hi
    half = (hi - lo) / 2.0
    cutoff = gpr.OMEGA_CUTOFF / model.params.lengthscale
    a, b = np.meshgrid(np.arange(1, 200), np.arange(1, 200), indexing="ij")
    wa, wb = np.pi * a / (2 * half[0]), np.pi * b / (2 * half[1])
    keep = wa**2 + wb**2 <= cutoff**2
    a, b, wa, wb = a[keep], b[keep], wa[keep], wb[keep]
    x, y = pos[:, :1] - lo[0], pos[:, 1:2] - lo[1]
    scale = 1.0 / np.sqrt(half[0] * half[1])
    phi = np.sin(wa * x) * np.sin(wb * y) * scale
    minus_dx = -wa * np.cos(wa * x) * np.sin(wb * y) * scale
    minus_dy = -np.sin(wa * x) * wb * np.cos(wb * y) * scale
    l2 = model.params.lengthscale**2
    density = 2 * np.pi * l2 * np.exp(-0.5 * l2 * (wa**2 + wb**2))
    return (a, b), phi, minus_dx, minus_dy, density


def dense_weights(model, pos, fields):
    """psi and Bz weights from np.linalg.solve on an explicitly built Phi."""
    (a, b), phi, minus_dx, minus_dy, density = basis(model, pos)
    p = model.params
    y = fields - fields.mean(axis=0)
    phi_psi = np.vstack([minus_dx, minus_dy])
    w_psi = np.linalg.solve(
        phi_psi.T @ phi_psi
        + p.noise_var * np.diag(1 / (p.signal_var * p.lengthscale**2 * density)),
        phi_psi.T @ np.concatenate([y[:, 0], y[:, 1]]))
    w_z = np.linalg.solve(
        phi.T @ phi + p.noise_var * np.diag(1 / (p.signal_var * density)),
        phi.T @ y[:, 2])
    return (a, b), w_psi, w_z


def dense_reference(model, query):
    """Posterior mean through explicitly built per-point features."""
    (a, b), phi, minus_dx, minus_dy, _ = basis(model, query)
    w_psi, w_z = model.weights[:, a - 1, b - 1]
    inside = np.all((query[:, :2] >= model.lo) & (query[:, :2] <= model.hi),
                    axis=1)
    out = np.column_stack([minus_dx @ w_psi, minus_dy @ w_psi, phi @ w_z])
    out[~inside] = 0.0
    return model.mean + out


def reduced_rank_kernel(p, q, params, lo, hi):
    """Prior covariances of Bz, Bx and By between the (n, 3) points p and
    the (k, 3) points q that the model's basis and weight priors imply,
    sum_j var S_j f_j(p) f_j(q), each (n, k)."""
    wx, wy, keep = gpr._frequencies(lo, hi, params.lengthscale)
    density = gpr._spectral_density(wx, wy, keep, params.lengthscale)
    norm = 4.0 / np.prod(np.subtract(hi, lo))

    def features(pts):
        sx, cx = gpr._axis_tables(pts[:, 0], lo[0], hi[0], wx)
        sy, cy = gpr._axis_tables(pts[:, 1], lo[1], hi[1], wy)

        def outer(u, v):
            return (u[:, :, None] * v[:, None, :])[:, keep]
        return outer(sx, sy), -outer(cx, sy), -outer(sx, cy)

    var = params.signal_var * np.array([1.0, params.lengthscale**2,
                                        params.lengthscale**2])
    return [norm * v * (fp * density) @ fq.T
            for v, fp, fq in zip(var, features(p), features(q))]


class TestKernel:
    """The basis and spectral-density priors approximate the curl-free RBF
    kernel: Bz has the RBF kernel of variance signal_var, and (Bx, By) =
    -grad psi with psi's RBF variance signal_var * l^2.  Points lie 3 m
    inside the box, where the truncation at OMEGA_CUTOFF / l dominates the
    error (relative e^-12.5 for Bz, 27 e^-12.5 / 2 for Bx and By)."""

    lo, hi = np.array([-3.0, -3.0]), np.array([6.0, 6.0])

    def test_zero_distance(self, rng):
        p = planar(rng, 20)
        for k in reduced_rank_kernel(p, p, make_params(), self.lo, self.hi):
            np.testing.assert_allclose(np.diag(k), 25.0, rtol=1e-4)

    def test_one_lengthscale(self):
        # One lengthscale apart along x: Bz and By covary as the RBF,
        # 25 e^-1/2, and Bx as 25 (1 - r^2 / l^2) e^-1/2 = 0.
        params = make_params(lengthscale=0.7)
        a = np.array([[1.0, 1.5, 0.0]])
        b = np.array([[1.7, 1.5, 0.0]])
        kz, kx, ky = (k[0, 0] for k in reduced_rank_kernel(a, b, params,
                                                            self.lo, self.hi))
        np.testing.assert_allclose([kz, kx, ky],
                                   [25.0 * np.exp(-0.5), 0.0, 25.0 * np.exp(-0.5)],
                                   rtol=0, atol=1e-3)

    def test_symmetry(self, rng):
        params = make_params(lengthscale=0.9)
        p, q = planar(rng, 100), planar(rng, 30)
        for kpq, kqp in zip(reduced_rank_kernel(p, q, params, self.lo, self.hi),
                            reduced_rank_kernel(q, p, params, self.lo, self.hi)):
            np.testing.assert_allclose(kpq, kqp.T, rtol=0, atol=1e-12)
        # The normal matrices of fit are gathered symmetrically, bit for bit.
        wx, wy, keep = gpr._frequencies(self.lo, self.hi, params.lengthscale)
        normal, _ = gpr._normal_equations(p, rng.normal(size=(100, 3)),
                                          self.lo, self.hi, wx, wy, keep)
        for a in normal:
            assert np.array_equal(a, a.T)


class TestKernelParams:
    @pytest.mark.parametrize("name", ["lengthscale", "signal_var", "noise_var"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            make_params(**{name: value})


class TestFit:
    def test_single_point_shrinkage(self):
        # One fingerprint: the mean is its field, so the prediction there is
        # mean + (shrunk) zero residual, the field itself.
        params = make_params(signal_var=4.0, noise_var=1.0)
        fp = Fingerprint(np.zeros(3), np.array([10.0, -2.0, 6.0]))
        model = fit([fp], params)
        expected = model.mean + 4.0 / 5.0 * (fp.field - model.mean)
        np.testing.assert_allclose(predict_many(model, fp.position[None])[0],
                                   expected, atol=1e-12)

    def test_constant_fields_give_zero_weights(self, rng):
        params = make_params()
        field = np.array([30.0, -10.0, 5.0])
        model = fit(fingerprints(planar(rng, 6), [field] * 6), params)
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-12)
        np.testing.assert_allclose(
            predict_many(model, np.array([[1.5, 2.0, 0.0]]))[0], field,
            atol=1e-12)

    def test_weights_match_dense_feature_solve(self, rng):
        params = make_params(lengthscale=0.7, noise_var=0.05)
        pos = planar(rng, 200, extent=4.0, height=0.3)
        fields = rng.normal(size=(200, 3)) * 6 + 30
        model = fit(fingerprints(pos, fields), params)
        (a, b), w_psi, w_z = dense_weights(model, pos, fields)
        assert np.count_nonzero(model.weights[0]) == len(a) > 100
        np.testing.assert_allclose(model.weights[0][a - 1, b - 1], w_psi,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.weights[1][a - 1, b - 1], w_z,
                                   rtol=0, atol=1e-9)

    def test_predictions_match_dense_solve(self, rng):
        params = make_params(lengthscale=0.8, noise_var=0.1)
        pos = planar(rng, 40, extent=2.0)
        fields = rng.normal(size=(40, 3)) * 10
        model = fit(fingerprints(pos, fields), params)
        (a, b), w_psi, w_z = dense_weights(model, pos, fields)
        _, phi, minus_dx, minus_dy, _ = basis(model, pos)
        expected = fields.mean(axis=0) + np.column_stack(
            [minus_dx @ w_psi, minus_dy @ w_psi, phi @ w_z])
        np.testing.assert_allclose(predict_many(model, pos), expected,
                                   rtol=0, atol=1e-8)

    def test_duplicated_survey_equals_halved_noise(self, rng):
        # Repeated positions need no special case: every fingerprint taken
        # twice is the same posterior as each taken once at half the noise.
        pos = planar(rng, 50)
        fields = rng.normal(size=(50, 3)) * 6 + 30
        twice = fit(fingerprints(np.vstack([pos, pos]), np.vstack([fields, fields])),
                    make_params(noise_var=0.1))
        once = fit(fingerprints(pos, fields), make_params(noise_var=0.05))
        np.testing.assert_allclose(twice.weights, once.weights, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("row, column, value", [
        (3, "field", np.nan), (5, "position", np.inf)])
    def test_non_finite_rejected(self, rng, row, column, value):
        pos = planar(rng, 8)
        fields = rng.normal(size=(8, 3)) * 6 + 30
        (pos if column == "position" else fields)[row, 1] = value
        with pytest.raises(DegenerateTrainingError,
                           match=f"fingerprint index {row} has a non-finite"):
            fit(fingerprints(pos, fields), make_params())

    def test_off_plane_rejected(self, rng):
        pos = planar(rng, 8, height=0.5)
        pos[6, 2] += 1e-3
        with pytest.raises(DegenerateTrainingError,
                           match="fingerprint index 6 at z = 0.501 is off the plane"):
            fit(fingerprints(pos, np.zeros((8, 3))), make_params())

    def test_peak_memory_below_a_tenth_of_a_kernel(self, rng):
        # The exact GP held an n x n kernel.  The reduced-rank fit holds
        # (n, 2 mx + 1) tables and the (2, m, m) system, m = 384 on a survey
        # of the reference scenario's 13 m x 8 m.
        n = 3000
        pos = planar(rng, n, extent=(13.0, 8.0))
        fps = fingerprints(pos, rng.normal(size=(n, 3)) * 6 + 30)
        tracemalloc.start()
        try:
            fit(fps, make_params())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * n * 8

    def test_empty_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            fit([], make_params())

    def test_basis_cap(self, rng):
        fps = fingerprints(planar(rng, 10), np.zeros((10, 3)))
        with pytest.raises(DegenerateTrainingError, match="basis frequencies exceed"):
            fit(fps, make_params(lengthscale=0.05))


class TestPredict:
    def test_prior_reversion_far_away(self, rng):
        params = make_params()
        fps = fingerprints(planar(rng, 8, extent=1.0), rng.normal(size=(8, 3)) * 5 + 30)
        model = fit(fps, params)
        far = np.array([100.0 * params.lengthscale, 0.0, 0.0])
        np.testing.assert_allclose(predict_many(model, far[None])[0], model.mean,
                                   atol=1e-6)

    def test_noise_free_interpolation(self, rng):
        # noise_var = 0 is rejected; in the limit noise_var -> 0 the
        # posterior mean interpolates fingerprints that the basis resolves.
        params = make_params(lengthscale=0.5, noise_var=1e-12)
        pos = planar(rng, 20)
        fields = rng.normal(size=(20, 3)) * 8 + 40
        model = fit(fingerprints(pos, fields), params)
        preds = predict_many(model, pos)
        np.testing.assert_allclose(preds, fields, atol=1e-8)

    def test_translation_invariance(self, rng):
        params = make_params(lengthscale=0.6)
        pos = planar(rng, 10, extent=2.0)
        fields = rng.normal(size=(10, 3)) * 5
        shift = np.array([13.0, -4.0, 2.0])
        m1 = fit(fingerprints(pos, fields), params)
        m2 = fit(fingerprints(pos + shift, fields), params)
        q = np.append(rng.uniform(0, 2, size=2), 0.0)
        np.testing.assert_allclose(predict_many(m1, q[None])[0],
                                   predict_many(m2, (q + shift)[None])[0],
                                   atol=1e-9)

    def test_constant_offset_absorbed_by_mean(self, rng):
        params = make_params()
        pos = planar(rng, 12, extent=2.0)
        fields = rng.normal(size=(12, 3)) * 4
        offset = np.array([7.0, -3.0, 11.0])
        m1 = fit(fingerprints(pos, fields), params)
        m2 = fit(fingerprints(pos, fields + offset), params)
        q = np.append(rng.uniform(-1, 3, size=2), 0.0)
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
        gp = fit(fingerprints(pos, noisy),
                 make_params(lengthscale=0.5, noise_var=sigma**2))
        held = np.column_stack([rng.uniform(0.3, 2.7, 60),
                                rng.uniform(0.3, 2.7, 60), np.zeros(60)])
        pred = predict_many(gp, held)
        ref = sample_field_many(model_field, held)
        rmse = np.sqrt(np.mean((pred - ref)**2))
        assert rmse <= 3.0 * sigma

    def test_horizontal_field_is_curl_free(self, rng):
        # (Bx, By) = -grad psi, so dBx/dy = dBy/dx; central differences.
        model = fit_random(rng, 80, make_params(lengthscale=0.7))
        h = 1e-4
        for p in planar(rng, 10):
            def at(dx, dy):
                return predict_many(model, (p + [dx, dy, 0.0])[None])[0]
            dbx_dy = (at(0.0, h)[0] - at(0.0, -h)[0]) / (2 * h)
            dby_dx = (at(h, 0.0)[1] - at(-h, 0.0)[1]) / (2 * h)
            assert abs(dbx_dy) > 0.1
            assert dbx_dy == pytest.approx(dby_dx, abs=1e-5)

    def test_point_features_match_dense_reference(self, rng):
        params = make_params(lengthscale=0.6)
        model = fit_random(rng, 40, params)
        query = np.column_stack([rng.uniform(-3, 6, size=(500, 2)), np.zeros(500)])
        np.testing.assert_allclose(predict_many(model, query),
                                   dense_reference(model, query),
                                   rtol=0, atol=1e-10)
        assert predict_many(model, np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("z", [0.01, np.nan])
    def test_off_plane_query_rejected(self, rng, z):
        model = fit_random(rng, 20, make_params())
        query = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, z]])
        with pytest.raises(ValueError,
                           match="query index 1 .* not a finite point on the map plane"):
            predict_many(model, query)


def lattice(xs, ys, z=0.0):
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)], axis=-1)


class TestLatticePath:
    """Queries spanning a lattice no larger than themselves take the
    separable per-axis path; it must equal the per-point features."""

    def cases(self, rng):
        xs = np.linspace(-1.0, 4.0, 23)
        ys = np.linspace(-0.5, 3.5, 17)
        grid = lattice(xs, ys)
        return {
            "shuffled": grid[rng.permutation(len(grid))],
            "non-uniform": lattice(np.sort(rng.uniform(-1, 4, 19)),
                                   np.sort(rng.uniform(-1, 4, 11)) ** 2),
            "past the box": lattice(np.linspace(-6.0, 9.0, 31), ys),
            "repeated": np.concatenate([grid, grid[::3], grid[:5]]),
            "one point": np.array([[0.7, 1.1, 0.0]]),
        }

    def test_matches_broadcast_reference(self, rng):
        model = fit_random(rng, 60, make_params(lengthscale=0.6))
        for name, query in self.cases(rng).items():
            np.testing.assert_allclose(predict_many(model, query),
                                       dense_reference(model, query),
                                       rtol=0, atol=1e-10, err_msg=name)

    def test_grid_nodes_match_point_features(self, rng):
        # build_grid takes the lattice path; the grid's diagonal, queried on
        # its own, spans n^2 > n lattice points and takes the point path.
        model = fit_random(rng, 60, make_params(lengthscale=0.6))
        grid = build_grid(model, (-0.5, -0.5), 0.05, 80, 80)
        diagonal = np.array([grid.node_position(i, i) for i in range(80)])
        np.testing.assert_allclose(predict_many(model, diagonal),
                                   grid.values[np.arange(80), np.arange(80)],
                                   rtol=0, atol=1e-12)

    def test_blocks_of_distinct_values(self, rng):
        # 2 * 1024 + 5 distinct x values against 2 y values: a long, thin
        # lattice, taken whole by the (nx, mx) table.
        model = fit_random(rng, 30, make_params(lengthscale=0.8))
        query = lattice(np.linspace(0, 3, 2 * 1024 + 5), [0.5, 1.5])
        np.testing.assert_allclose(predict_many(model, query),
                                   dense_reference(model, query),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_peak_memory_on_a_line(self, rng, axis):
        # 5000 points on one line against 917 fingerprints: along x (axis
        # 0) or y (axis 1) the line is a lattice; axis 2 is the diagonal
        # x = y, which takes the per-point path (a line along z would leave
        # the map plane).
        pos = np.column_stack([rng.uniform(0, 15, 917), rng.uniform(0, 10, 917),
                               np.zeros(917)])
        fields = rng.normal(size=(917, 3)) * 5 + 30
        model = fit(fingerprints(pos, fields), make_params())
        line = np.full((5000, 3), 0.5)
        line[:, 2] = 0.0
        if axis == 2:
            line[:, :2] = np.linspace(0, 10, 5000)[:, None]
        else:
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
        model = fit(fingerprints(planar(rng, 5, extent=2.0), [field] * 5),
                    make_params())
        grid = build_grid(model, (0.0, 0.0), 0.5, 4, 4)
        for i in range(4):
            for j in range(4):
                np.testing.assert_allclose(grid.values[i, j], field, atol=1e-10)

    def test_nodes_match_pointwise_predictions(self, rng):
        pos = planar(rng, 10, extent=2.0)
        fields = rng.normal(size=(10, 3)) * 6 + 30
        model = fit(fingerprints(pos, fields), make_params())
        grid = build_grid(model, (0.2, 0.1), 0.4, 3, 3, plane_height=0.0)
        for i in range(3):
            for j in range(3):
                np.testing.assert_allclose(
                    grid.values[i, j],
                    predict_many(model, grid.node_position(i, j)[None])[0],
                    atol=1e-12)

    def test_peak_memory_stays_blocked(self, rng):
        # 15251 nodes against 917 fingerprints: the separable tables are
        # (151, mx) and (101, my); the output is 0.37 MB.
        pos = np.column_stack([rng.uniform(0, 15, 917), rng.uniform(0, 10, 917),
                               np.zeros(917)])
        fields = rng.normal(size=(917, 3)) * 5 + 30
        model = fit(fingerprints(pos, fields), make_params())
        tracemalloc.start()
        try:
            build_grid(model, (0.0, 0.0), 0.1, 151, 101)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_save_load_round_trip(self, tmp_path, rng):
        from magloc.magmap import load_map, save_map
        pos = planar(rng, 6, extent=2.0)
        model = fit(fingerprints(pos, rng.normal(size=(6, 3)) * 5 + 20),
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

    @pytest.mark.parametrize("row, message", [
        ("1,2,0,oops,5,6", "line 3: cannot parse 'oops'"),
        ("1,2,0,4,5", "line 3: expected 6 values, got 5"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "fp.csv"
        path.write_text(f"x,y,z,bx,by,bz\n0,0,0,1,2,3\n{row}\n0,1,0,1,2,3\n")
        with pytest.raises(DegenerateTrainingError, match=message):
            read_fingerprints_csv(path)


def test_import_leaves_scipy_out():
    # No module of the package needs scipy; importing it would cost every
    # CLI call its import time.
    src = str(Path(magloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, magloc, magloc.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
