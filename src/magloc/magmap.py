"""Synthetic ambient-field model and planar magnetic grid map.

The grid map is the localization reference: a dense 2-D lattice of 3-axis
field values at a fixed plane height.  Queries between nodes use bilinear
interpolation; the spatial gradient is the analytic derivative of the same
bilinear surface, so residuals and Jacobians built from the map are
mutually consistent.  Both blend the four corners of each query's cell,
gathered from the values array in one lookup.

Map file format ("MAGMAP01"): 8-byte magic, little-endian f64
origin_x, origin_y, resolution, plane_height, u32 nx, ny, then nx*ny
3-vectors of f64 with the x index varying fastest.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateQueryError, MapFormatError, OutOfMapError

MAP_MAGIC = b"MAGMAP01"

# Queries closer than this to a dipole are rejected as degenerate.
MIN_DIPOLE_DISTANCE = 1e-6


@dataclass
class DipoleSource:
    """Point dipole with the field constant absorbed into the moment."""

    position: np.ndarray  # meters
    moment: np.ndarray  # uT * m^3


@dataclass
class FieldModel:
    """Uniform background field plus point-dipole anomalies."""

    earth_field: np.ndarray  # uT
    dipoles: list = field(default_factory=list)


def sample_field_many(model: FieldModel, points: np.ndarray) -> np.ndarray:
    """Superposed field (earth + all dipoles) in uT at an (m, 3) array of
    points, returning (m, 3).  A dipole of moment m at distance r along
    the unit vector u adds (3 (m . u) u - m) / r^3."""
    points = np.asarray(points, dtype=float)
    out = np.broadcast_to(np.asarray(model.earth_field, dtype=float),
                          points.shape).copy()
    for d in model.dipoles:
        r = points - d.position
        dist = np.linalg.norm(r, axis=-1)
        if np.any(dist < MIN_DIPOLE_DISTANCE):
            bad = points[dist < MIN_DIPOLE_DISTANCE][0]
            raise DegenerateQueryError(
                f"query {bad} within {MIN_DIPOLE_DISTANCE} m of dipole")
        rhat = r / dist[:, None]
        mdot = rhat @ d.moment
        out += (3.0 * mdot[:, None] * rhat - d.moment) / dist[:, None]**3
    return out


@dataclass
class MagneticGridMap:
    """Dense planar grid of 3-axis field values.

    Node (i, j) sits at (origin[0] + i*resolution, origin[1] + j*resolution,
    plane_height); values has shape (nx, ny, 3).
    """

    origin: np.ndarray  # (2,) meters
    resolution: float  # meters per cell
    nx: int
    ny: int
    values: np.ndarray  # (nx, ny, 3) uT
    plane_height: float = 0.0

    def __post_init__(self):
        if not self.resolution > 0.0:
            raise ConfigurationError("map resolution must be positive")
        if self.nx < 2 or self.ny < 2:
            raise ConfigurationError("map needs at least 2x2 nodes")
        if self.values.shape != (self.nx, self.ny, 3):
            raise ConfigurationError(
                f"values shape {self.values.shape} != ({self.nx}, {self.ny}, 3)")

    def extent(self) -> tuple:
        """(xmin, xmax, ymin, ymax) of the mapped rectangle."""
        return (float(self.origin[0]),
                float(self.origin[0] + (self.nx - 1) * self.resolution),
                float(self.origin[1]),
                float(self.origin[1] + (self.ny - 1) * self.resolution))


def distance_to_grid_rect(p: np.ndarray, origin, resolution, nx, ny,
                          plane_height) -> float:
    """3-D distance from a point to the planar map rectangle."""
    xmin, ymin = float(origin[0]), float(origin[1])
    xmax = xmin + (nx - 1) * resolution
    ymax = ymin + (ny - 1) * resolution
    dx = max(xmin - p[0], 0.0, p[0] - xmax)
    dy = max(ymin - p[1], 0.0, p[1] - ymax)
    dz = p[2] - plane_height
    return float(np.sqrt(dx * dx + dy * dy + dz * dz))


def grid_nodes(origin, resolution: float, nx: int, ny: int,
               plane_height: float) -> np.ndarray:
    """(nx * ny, 3) world positions of the grid nodes, in the row order of
    a (nx, ny, 3) values array."""
    xs = origin[0] + resolution * np.arange(nx)
    ys = origin[1] + resolution * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(),
                     np.full(nx * ny, float(plane_height))], axis=-1)


def rasterize(model: FieldModel, origin, resolution: float, nx: int, ny: int,
              plane_height: float = 0.0) -> MagneticGridMap:
    """Sample the field model on a regular grid at the given plane height.

    Dipoles must keep at least one cell of clearance from the mapped
    rectangle so node values stay bounded.
    """
    origin = np.asarray(origin, dtype=float)
    for d in model.dipoles:
        dist = distance_to_grid_rect(d.position, origin, resolution, nx, ny,
                                     plane_height)
        if dist < resolution:
            raise ConfigurationError(
                f"dipole at {d.position} within one cell of the mapped region")
    nodes = grid_nodes(origin, resolution, nx, ny, plane_height)
    values = sample_field_many(model, nodes).reshape(nx, ny, 3)
    return MagneticGridMap(origin, float(resolution), nx, ny, values,
                           float(plane_height))


def _cell_corners(grid: MagneticGridMap, points: np.ndarray):
    """Corner values and in-cell fractions of the cells holding (m, 3)
    query points.

    Returns (m, 4, 3) corners at nodes (i, j), (i+1, j), (i, j+1) and
    (i+1, j+1), gathered with one `take`, and the (m, 1) fractions u, v.

    A non-finite coordinate, z included, fails the in-range test and raises
    OutOfMapError like a point off the rectangle.
    """
    xmin, xmax, ymin, ymax = grid.extent()
    x, y = points[:, 0], points[:, 1]
    bad = ~((x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)
            & np.isfinite(points[:, 2]))
    if np.any(bad):
        raise OutOfMapError(points[np.argmax(bad)])
    tx = (x - xmin) / grid.resolution
    ty = (y - ymin) / grid.resolution
    i = np.minimum(np.floor(tx).astype(int), grid.nx - 2)
    j = np.minimum(np.floor(ty).astype(int), grid.ny - 2)
    ny = grid.ny
    flat = (i * ny + j)[:, None] + np.array([0, ny, 1, ny + 1])
    corners = grid.values.reshape(-1, 3).take(flat, axis=0)
    return corners, (tx - i)[:, None], (ty - j)[:, None]


def interpolate_many(grid: MagneticGridMap, points: np.ndarray) -> np.ndarray:
    """Bilinear interpolation for an (m, 3) array of points; z is ignored."""
    corners, u, v = _cell_corners(grid, np.asarray(points, dtype=float))
    a, b, c, d = corners.transpose(1, 0, 2)
    return ((1.0 - u) * (1.0 - v) * a + u * (1.0 - v) * b
            + (1.0 - u) * v * c + u * v * d)


def gradient_many(grid: MagneticGridMap, points: np.ndarray) -> np.ndarray:
    """Analytic spatial gradient of the bilinear surface, (m, 3, 3).

    Columns are dM/dx, dM/dy and a zero dM/dz column (planar map).  The
    gradient is piecewise constant in x along a cell row and vice versa,
    and discontinuous across cell boundaries.
    """
    points = np.asarray(points, dtype=float)
    corners, u, v = _cell_corners(grid, points)
    a, b, c, d = corners.transpose(1, 0, 2)
    ddx = ((1.0 - v) * (b - a) + v * (d - c)) / grid.resolution
    ddy = ((1.0 - u) * (c - a) + u * (d - b)) / grid.resolution
    out = np.zeros(points.shape[:-1] + (3, 3))
    out[..., :, 0] = ddx
    out[..., :, 1] = ddy
    return out


def save_map(grid: MagneticGridMap, path) -> None:
    """Write the map in the MAGMAP01 binary format (bit-exact round trip)."""
    header = MAP_MAGIC + struct.pack(
        "<ddddII", float(grid.origin[0]), float(grid.origin[1]),
        float(grid.resolution), float(grid.plane_height), grid.nx, grid.ny)
    # File stores nodes with the x index fastest: transpose to (ny, nx, 3).
    payload = np.ascontiguousarray(
        grid.values.transpose(1, 0, 2), dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


def load_map(path) -> MagneticGridMap:
    """Read a MAGMAP01 file; raises MapFormatError on corruption."""
    with open(path, "rb") as f:
        blob = f.read()
    header_len = len(MAP_MAGIC) + struct.calcsize("<ddddII")
    if len(blob) < header_len or blob[:len(MAP_MAGIC)] != MAP_MAGIC:
        raise MapFormatError("missing or malformed MAGMAP01 header")
    header = struct.unpack("<ddddII", blob[len(MAP_MAGIC):header_len])
    ox, oy, resolution, plane_height, nx, ny = header
    for name, value in zip(("origin_x", "origin_y", "resolution", "plane_height"),
                           header):
        if not np.isfinite(value) or (name == "resolution" and not value > 0.0):
            raise MapFormatError(f"header field {name} is {value}")
    for name, value in (("nx", nx), ("ny", ny)):
        if value < 2:
            raise MapFormatError(f"header field {name} is {value}, below 2")
    payload = blob[header_len:]
    expected = nx * ny * 3 * 8
    if len(payload) != expected:
        raise MapFormatError(
            f"payload holds {len(payload)} bytes, header implies {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(ny, nx, 3)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        j, i = bad[0][:2]
        raise MapFormatError(f"node ({i}, {j}) holds a non-finite value")
    return MagneticGridMap(np.array([ox, oy]), resolution, nx, ny,
                           np.ascontiguousarray(values.transpose(1, 0, 2)),
                           plane_height)
