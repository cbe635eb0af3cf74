import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magloc.errors import (ConfigurationError, DegenerateQueryError,
                           MapFormatError, OutOfMapError)
from magloc.magmap import (DipoleSource, FieldModel, MagneticGridMap,
                           gradient_many, interpolate_many, load_map, rasterize,
                           sample_field_many, save_map)

from helpers import node_position


def field_at(model, p) -> np.ndarray:
    """The field of model at the one point p: a one-point
    sample_field_many call."""
    return sample_field_many(model, np.asarray(p, dtype=float)[None])[0]


def dipole_alone(d) -> FieldModel:
    return FieldModel(np.zeros(3), [d])


def affine_model(a, c):
    """Grid-map rasterized from an affine field B(p) = a @ p + c."""

    def field(points):
        return points @ np.asarray(a).T + np.asarray(c)

    return field


def affine_map(a, c, origin=(0.0, 0.0), resolution=0.25, nx=9, ny=7, z=0.0):
    xs = origin[0] + resolution * np.arange(nx)
    ys = origin[1] + resolution * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([gx.ravel(), gy.ravel(), np.full(nx * ny, z)], axis=-1)
    values = (nodes @ np.asarray(a).T + np.asarray(c)).reshape(nx, ny, 3)
    return MagneticGridMap(np.asarray(origin, float), resolution, nx, ny, values, z)


class TestDipoleField:
    def test_on_axis(self):
        d = DipoleSource(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(field_at(dipole_alone(d), [0, 0, 1.0]),
                                   [0.0, 0.0, 2.0], atol=1e-14)

    def test_equatorial(self):
        d = DipoleSource(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(field_at(dipole_alone(d), [1.0, 0, 0]),
                                   [0.0, 0.0, -1.0], atol=1e-14)

    def test_inverse_cube_decay(self):
        # Direct formula at twice the distance: 2 * m / 2^3 = 0.25.
        d = DipoleSource(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(field_at(dipole_alone(d), [0, 0, 2.0]),
                                   [0.0, 0.0, 0.25], atol=1e-14)

    def test_degenerate_query(self):
        d = DipoleSource(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DegenerateQueryError):
            field_at(dipole_alone(d), [0.0, 0.0, 1e-9])


class TestSampleField:
    def test_no_dipoles(self):
        model = FieldModel(np.array([10.0, -5.0, 40.0]))
        np.testing.assert_array_equal(field_at(model, np.zeros(3)),
                                      [10.0, -5.0, 40.0])

    def test_superposition(self, rng):
        d1 = DipoleSource(np.array([5.0, 0, 0]), rng.normal(size=3))
        d2 = DipoleSource(np.array([0, 5.0, 0]), rng.normal(size=3))
        earth = np.array([20.0, 0.0, -40.0])
        model = FieldModel(earth, [d1, d2])
        p = np.array([1.0, 1.0, 0.0])
        expected = (earth + field_at(dipole_alone(d1), p)
                    + field_at(dipole_alone(d2), p))
        np.testing.assert_allclose(field_at(model, p), expected, atol=1e-12)

    def test_many_matches_scalar(self, rng):
        model = FieldModel(np.array([20.0, 0.0, -40.0]),
                           [DipoleSource(np.array([5.0, 5.0, -1.0]),
                                         rng.normal(size=3) * 50)])
        pts = rng.uniform(0, 3, size=(20, 3))
        batch = sample_field_many(model, pts)
        for k in range(20):
            np.testing.assert_allclose(batch[k], field_at(model, pts[k]),
                                       atol=1e-12)


class TestRasterize:
    def test_uniform_field(self):
        model = FieldModel(np.array([1.0, 2.0, 3.0]))
        grid = rasterize(model, (0.0, 0.0), 0.5, 2, 2)
        assert grid.values.shape == (2, 2, 3)
        for i in range(2):
            for j in range(2):
                np.testing.assert_array_equal(grid.values[i, j], [1.0, 2.0, 3.0])

    def test_node_positions_and_values(self, rng):
        model = FieldModel(np.array([20.0, 0.0, -40.0]),
                           [DipoleSource(np.array([-2.0, -2.0, 0.0]),
                                         rng.normal(size=3) * 20)])
        grid = rasterize(model, (1.0, 2.0), 0.5, 4, 3, plane_height=0.25)
        for i in range(4):
            for j in range(3):
                p = node_position(grid, i, j)
                np.testing.assert_array_equal(p, [1.0 + 0.5 * i, 2.0 + 0.5 * j, 0.25])
                np.testing.assert_allclose(grid.values[i, j],
                                           field_at(model, p), atol=1e-12)

    def test_dipole_inside_grid_rejected(self):
        model = FieldModel(np.array([20.0, 0.0, -40.0]),
                           [DipoleSource(np.array([1.0, 1.0, 0.0]), np.ones(3))])
        with pytest.raises(ConfigurationError):
            rasterize(model, (0.0, 0.0), 0.5, 5, 5)

    @pytest.mark.parametrize("resolution", [0.0, -0.1, np.nan])
    def test_non_positive_resolution_rejected(self, resolution):
        with pytest.raises(ConfigurationError, match="resolution"):
            MagneticGridMap(np.zeros(2), resolution, 2, 2, np.zeros((2, 2, 3)))

    def test_dipole_below_floor_allowed(self):
        model = FieldModel(np.array([20.0, 0.0, -40.0]),
                           [DipoleSource(np.array([1.0, 1.0, -1.0]), np.ones(3))])
        grid = rasterize(model, (0.0, 0.0), 0.5, 5, 5)
        assert np.all(np.isfinite(grid.values))


class TestInterpolate:
    def test_exact_at_nodes(self, rng):
        grid = affine_map(rng.normal(size=(3, 3)), rng.normal(size=3))
        for i in (0, 3, 8):
            for j in (0, 2, 6):
                p = node_position(grid, i, j)
                np.testing.assert_array_equal(interpolate_many(grid, p[None])[0],
                                              grid.values[i, j])

    def test_cell_center_average(self):
        values = np.zeros((2, 2, 3))
        values[0, 0] = [1.0, 0, 0]
        values[1, 0] = [2.0, 0, 0]
        values[0, 1] = [4.0, 0, 0]
        values[1, 1] = [9.0, 0, 0]
        grid = MagneticGridMap(np.zeros(2), 1.0, 2, 2, values)
        np.testing.assert_allclose(
            interpolate_many(grid, np.array([[0.5, 0.5, 0.0]]))[0],
            [(1 + 2 + 4 + 9) / 4.0, 0, 0], atol=1e-14)

    def test_affine_field_reproduced(self, rng):
        # Bilinear interpolation is exact for affine fields.
        a = rng.normal(size=(3, 3))
        c = rng.normal(size=3) * 30
        grid = affine_map(a, c, resolution=0.3, nx=11, ny=9)
        a_planar = a.copy()
        a_planar[:, 2] = 0.0  # the map ignores z
        for _ in range(50):
            p = np.array([rng.uniform(0, 3.0), rng.uniform(0, 2.4), 0.0])
            expected = a_planar @ p + c
            np.testing.assert_allclose(interpolate_many(grid, p[None])[0],
                                       expected, atol=1e-10)

    def test_z_ignored(self, rng):
        grid = affine_map(rng.normal(size=(3, 3)), rng.normal(size=3))
        p = np.array([0.7, 0.9, 0.0])
        np.testing.assert_array_equal(
            interpolate_many(grid, p[None])[0],
            interpolate_many(grid, (p + [0, 0, 5.0])[None])[0])

    def test_out_of_map(self):
        grid = affine_map(np.eye(3), np.zeros(3))
        with pytest.raises(OutOfMapError) as err:
            interpolate_many(grid, np.array([[-0.1, 0.5, 0.0]]))
        assert err.value.point[0] == -0.1
        # Non-finite coordinates take the same path, in the batched
        # kernels too, instead of indexing with a garbage cell.
        for bad in ([np.nan, 0.5, 0.0], [0.5, np.nan, 0.0],
                    [np.inf, 0.5, 0.0], [0.5, -np.inf, 0.0]):
            points = np.array([[0.5, 0.5, 0.0], bad])
            with pytest.raises(OutOfMapError):
                interpolate_many(grid, points)
            with pytest.raises(OutOfMapError):
                gradient_many(grid, points)

    def test_continuity_across_cell_edges(self, rng):
        grid = affine_map(rng.normal(size=(3, 3)), rng.normal(size=3),
                          resolution=0.1, nx=15, ny=15)
        # Perturbed node values make the surface genuinely piecewise.
        grid.values += rng.normal(size=grid.values.shape)
        for _ in range(20):
            i = rng.integers(1, 13)
            x_edge = float(grid.origin[0] + i * grid.resolution)
            y = rng.uniform(0.05, 1.3)
            left = interpolate_many(
                grid, np.array([[np.nextafter(x_edge, -1), y, 0]]))[0]
            right = interpolate_many(
                grid, np.array([[np.nextafter(x_edge, 2), y, 0]]))[0]
            assert np.max(np.abs(left - right)) < 1e-10


class TestGradient:
    def test_constant_map_zero_gradient(self):
        grid = affine_map(np.zeros((3, 3)), np.array([5.0, 6.0, 7.0]))
        assert np.array_equal(gradient_many(grid, np.array([[0.6, 0.7, 0.0]]))[0],
                              np.zeros((3, 3)))

    def test_affine_field_gradient(self, rng):
        a = rng.normal(size=(3, 3))
        a[:, 2] = 0.0
        grid = affine_map(a, rng.normal(size=3))
        for _ in range(10):
            p = np.array([rng.uniform(0.1, 1.9), rng.uniform(0.1, 1.4), 0.0])
            np.testing.assert_allclose(gradient_many(grid, p[None])[0], a,
                                       atol=1e-10)

    def test_matches_finite_differences(self, rng):
        grid = affine_map(rng.normal(size=(3, 3)), rng.normal(size=3),
                          resolution=0.1, nx=15, ny=15)
        grid.values += rng.normal(size=grid.values.shape) * 3.0
        h = grid.resolution / 100.0
        checked = 0
        while checked < 30:
            p = np.array([rng.uniform(0.1, 1.3), rng.uniform(0.1, 1.3), 0.0])
            # Stay at least h away from cell edges.
            u = (p[0] - grid.origin[0]) / grid.resolution % 1.0
            v = (p[1] - grid.origin[1]) / grid.resolution % 1.0
            margin = h / grid.resolution
            if min(u, 1 - u, v, 1 - v) < margin:
                continue
            g = gradient_many(grid, p[None])[0]
            fd = np.zeros((3, 3))
            for axis in range(2):
                dp = np.zeros(3)
                dp[axis] = h
                fd[:, axis] = (interpolate_many(grid, (p + dp)[None])[0]
                               - interpolate_many(grid, (p - dp)[None])[0]) / (2 * h)
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(g - fd).max() / scale < 1e-6
            checked += 1

    def test_batch_matches_scalar(self, rng):
        # A batch equals one-row batched calls, bit for bit.
        grid = affine_map(rng.normal(size=(3, 3)), rng.normal(size=3))
        pts = np.column_stack([rng.uniform(0.1, 1.9, 8), rng.uniform(0.1, 1.4, 8),
                               np.zeros(8)])
        gm = gradient_many(grid, pts)
        im = interpolate_many(grid, pts)
        for k in range(8):
            np.testing.assert_array_equal(gm[k], gradient_many(grid, pts[k:k + 1])[0])
            np.testing.assert_array_equal(im[k],
                                          interpolate_many(grid, pts[k:k + 1])[0])


# A small affine-valued grid over [-1.25, 0.75] x [0.5, 2.0] at z = 0.
_A = np.array([[1.5, -2.0, 0.7], [0.3, 4.0, -1.1], [-2.5, 0.8, 3.0]])
_C = np.array([21.0, -7.5, -43.0])
_GRID = affine_map(_A, _C, origin=(-1.25, 0.5), resolution=0.25, nx=9, ny=7)
_XMIN, _XMAX, _YMIN, _YMAX = _GRID.extent()


def _closed(lo, hi):
    """Floats in [lo, hi], the end points drawn on their own as well."""
    return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))


def _beyond(lo, hi):
    """Finite floats outside [lo, hi]."""
    return st.one_of(
        st.floats(max_value=lo, exclude_max=True, allow_infinity=False),
        st.floats(min_value=hi, exclude_min=True, allow_infinity=False))


_z = st.floats(-1e3, 1e3)
_inside = st.tuples(_closed(_XMIN, _XMAX), _closed(_YMIN, _YMAX), _z)


@st.composite
def _bad_point(draw):
    """A point off the rectangle, or one with a NaN or infinite coordinate."""
    kind = draw(st.sampled_from(["x", "y", "non-finite"]))
    p = list(draw(_inside))
    if kind == "x":
        p[0] = draw(_beyond(_XMIN, _XMAX))
    elif kind == "y":
        p[1] = draw(_beyond(_YMIN, _YMAX))
    else:
        p[draw(st.integers(0, 2))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return p


class TestQueryProperties:
    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(_inside, min_size=1, max_size=8))
    def test_closed_rectangle_reproduces_affine_field(self, points):
        pts = np.array(points)
        values = interpolate_many(_GRID, pts)
        grads = gradient_many(_GRID, pts)
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(grads))
        np.testing.assert_allclose(values, pts[:, :2] @ _A[:, :2].T + _C,
                                   rtol=0, atol=1e-9)
        expected = np.zeros((3, 3))
        expected[:, :2] = _A[:, :2]
        np.testing.assert_allclose(grads, np.broadcast_to(expected, grads.shape),
                                   rtol=0, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(_inside, max_size=4), bad=_bad_point(),
           at=st.integers(0, 4))
    def test_outside_or_non_finite_raises(self, points, bad, at):
        points.insert(at, bad)
        pts = np.array(points)
        with pytest.raises(OutOfMapError):
            interpolate_many(_GRID, pts)
        with pytest.raises(OutOfMapError):
            gradient_many(_GRID, pts)


class TestMapIo:
    def test_round_trip(self, tmp_path, rng):
        grid = affine_map(rng.normal(size=(3, 3)), rng.normal(size=3),
                          origin=(-1.5, 2.0), resolution=0.1, nx=12, ny=8, z=0.3)
        grid.values += rng.normal(size=grid.values.shape)
        path = tmp_path / "m.mag"
        save_map(grid, path)
        loaded = load_map(path)
        assert np.array_equal(loaded.values, grid.values)
        assert np.array_equal(loaded.origin, grid.origin)
        assert loaded.resolution == grid.resolution
        assert loaded.plane_height == grid.plane_height
        assert (loaded.nx, loaded.ny) == (grid.nx, grid.ny)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "m.mag"
        path.write_bytes(b"MAGMAP01" + b"\x00" * 10)
        with pytest.raises(MapFormatError):
            load_map(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mag"
        path.write_bytes(b"NOTAMAPX" + b"\x00" * 100)
        with pytest.raises(MapFormatError):
            load_map(path)

    def test_dimension_mismatch(self, tmp_path, rng):
        grid = affine_map(np.eye(3), np.zeros(3))
        path = tmp_path / "m.mag"
        save_map(grid, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])  # drop one f64 from the payload
        with pytest.raises(MapFormatError):
            load_map(path)

    @pytest.mark.parametrize("index, name, value", [
        (0, "origin_x", np.nan), (1, "origin_y", np.inf),
        (2, "resolution", np.nan), (2, "resolution", 0.0),
        (3, "plane_height", -np.inf)])
    def test_bad_header_field_named(self, tmp_path, index, name, value):
        path = tmp_path / "m.mag"
        save_map(affine_map(np.eye(3), np.zeros(3)), path)
        blob = bytearray(path.read_bytes())
        offset = 8 + 8 * index
        blob[offset:offset + 8] = np.array(value, dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(MapFormatError, match=f"header field {name}"):
            load_map(path)

    @pytest.mark.parametrize("index, name", [(0, "nx"), (1, "ny")])
    def test_too_few_nodes_named(self, tmp_path, index, name):
        # A malformed file, not a configuration error, however the
        # in-memory map would reject the same count.
        path = tmp_path / "m.mag"
        save_map(affine_map(np.eye(3), np.zeros(3)), path)
        blob = bytearray(path.read_bytes())
        offset = 8 + 8 * 4 + 4 * index
        blob[offset:offset + 4] = np.array(1, dtype="<u4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(MapFormatError, match=f"header field {name} is 1"):
            load_map(path)

    def test_non_finite_node_named(self, tmp_path):
        grid = affine_map(np.eye(3), np.zeros(3))
        grid.values[5, 3, 2] = np.nan
        grid.values[2:4, 4:6] = np.inf
        path = tmp_path / "m.mag"
        save_map(grid, path)
        # The first bad node in file order, where the x index runs fastest.
        with pytest.raises(MapFormatError, match=r"node \(5, 3\)"):
            load_map(path)
