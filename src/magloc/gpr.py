"""Gaussian-process regression of the magnetic field from fingerprints.

The map is a planar, reduced-rank, curl-free GP (Solin, Kok, Wahlstrom,
Schon & Sarkka 2018, IEEE T-RO; Solin & Sarkka 2020, Stat. Comput.).  The
fingerprints and the map lie on one z plane, where the 3-D curl-free
kernel (B = -grad phi with an RBF prior on phi) splits exactly into two
independent 2-D GPs:

- (Bx, By) = -grad psi, where psi has the RBF kernel of variance
  `signal_var * l^2`;
- Bz has the RBF kernel of variance `signal_var`; its cross-covariance
  with Bx and By carries a factor dz, which is 0 on the plane.

Both expand in the Laplace eigenfunctions of the fingerprints' xy
bounding box padded by `PAD_M`, [x0, x0 + 2 Lx] x [y0, y0 + 2 Ly]:

    phi_ab(x, y) = sin(wx_a (x - x0)) sin(wy_b (y - y0)) / sqrt(Lx Ly),

with w_a = pi a / (2 L), keeping the m pairs with |w| <= OMEGA_CUTOFF / l.
The prior variance of each weight is the 2-D RBF spectral density at its
frequency, var * 2 pi l^2 exp(-|w|^2 l^2 / 2).  psi has one weight vector
over the phi_ab and Bz its own.  The mean function is the per-axis
average of the training fields (the local background field).  Only the
posterior mean is used downstream: `build_grid` rasterizes it into the
grid map that the estimator queries.

`fit` solves one m x m system per block, (Phi^T Phi + noise_var S^-1) w =
Phi^T y, which is positive definite for any point set, so repeated
positions need no special case.  Phi is never formed: every entry of
Phi^T Phi is a sum of four moments sum_i cos(p theta_x,i) cos(q theta_y,i)
(see `_normal_equations`), so the fingerprints enter through one
(2 mx + 1, n) @ (n, 2 my + 1) product whatever their layout, and the
largest arrays are the (2, m, m) system and (n, 2 mx + 1) tables.

`predict_many` evaluates queries that span a lattice of at most as many
points as themselves (the nodes of a grid) through separable per-axis
tables, one (nx, mx) @ (mx, my) @ (my, ny) product per field axis, and
other queries through per-point tables.  Queries outside the padded box
get the mean; queries off the plane are rejected.  The basis pins psi,
not its normal derivative, to 0 on the box edge, so within about a
lengthscale of the edge the normal field component departs from the
mean and steps back to it outside; the pad keeps that away from the
survey.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrainingError
from .magmap import MagneticGridMap

PAD_M = 2.0  # padding of the fingerprints' bounding box, m
OMEGA_CUTOFF = 5.0  # basis frequencies |w| <= OMEGA_CUTOFF / lengthscale
PLANE_TOL_M = 1e-6  # fingerprints and queries must lie this close to the plane
# Cap on mx * my, the frequency pairs of the rectangle that holds the kept
# disc (m is about pi / 4 of it): the system is m x m, its solve O(m^3).
MAX_FREQUENCY_PAIRS = 2500


@dataclass
class Fingerprint:
    """One training sample: position in meters, field in uT."""

    position: np.ndarray
    field: np.ndarray


@dataclass
class KernelParams:
    lengthscale: float = 1.0  # meters
    signal_var: float = 25.0  # uT^2
    noise_var: float = 0.04  # uT^2

    def __post_init__(self):
        # noise_var > 0 keeps the regularized system of fit positive definite.
        for name in ("lengthscale", "signal_var", "noise_var"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class GprModel:
    train_pos: np.ndarray  # (n, 3)
    mean: np.ndarray  # (3,) uT
    params: KernelParams
    height: float  # z of the map plane, m
    lo: np.ndarray  # (2,) (x0, y0), corner of the padded box, m
    hi: np.ndarray  # (2,) (x0 + 2 Lx, y0 + 2 Ly)
    wx: np.ndarray  # (mx,) basis frequencies along x, rad/m
    wy: np.ndarray  # (my,)
    weights: np.ndarray  # (2, mx, my) psi and Bz weights, 0 past the cutoff


def _frequencies(lo, hi, lengthscale: float):
    """Per-axis frequencies pi a / (2 L) up to the cutoff, and the (mx, my)
    mask of the pairs within it."""
    cutoff = OMEGA_CUTOFF / lengthscale
    counts = [int(cutoff * (b - a) / np.pi) for a, b in zip(lo, hi)]
    if counts[0] * counts[1] > MAX_FREQUENCY_PAIRS:
        raise DegenerateTrainingError(
            f"{counts[0]} x {counts[1]} basis frequencies exceed "
            f"{MAX_FREQUENCY_PAIRS}: the survey box is too large for "
            f"lengthscale {lengthscale} m")
    wx, wy = (np.pi * np.arange(1, k + 1) / (b - a)
              for k, a, b in zip(counts, lo, hi))
    return wx, wy, np.add.outer(wx**2, wy**2) <= cutoff**2


def _spectral_density(wx, wy, keep, lengthscale: float):
    """The unit-variance 2-D RBF spectral density, 2 pi l^2
    exp(-|w|^2 l^2 / 2), at the kept frequency pairs, (m,)."""
    l2 = lengthscale**2
    return 2.0 * np.pi * l2 * np.exp(-0.5 * l2 * np.add.outer(wx**2, wy**2)[keep])


def _axis_tables(u: np.ndarray, start: float, end: float, w: np.ndarray):
    """sin(w (u - start)) and w cos(w (u - start)), each (len(u), len(w)),
    with the rows of u outside [start, end] zero."""
    arg = np.multiply.outer(u - start, w)
    s = np.sin(arg)
    c = np.cos(arg)
    c *= w
    outside = ~((u >= start) & (u <= end))
    s[outside] = 0.0
    c[outside] = 0.0
    return s, c


def _pair_harmonics(w: np.ndarray):
    """The frequency pairs a <= a' of one axis as combinations of the
    harmonics cos(p theta), p = 0 .. 2 len(w), where w_a (u - u0) = a theta.

    For D = a' - a and S = a + a', sin(a theta) sin(a' theta) =
    (cos(D theta) - cos(S theta)) / 2 and cos(a theta) cos(a' theta) =
    (cos(D theta) + cos(S theta)) / 2.  Returns the (pairs, 2 len(w) + 1)
    rows of sin sin and of w_a w_a' cos cos, and the (len(w), len(w))
    table of each pair's row, in either order.
    """
    first, second = np.triu_indices(len(w))
    rows = np.arange(len(first))
    sin = np.zeros((len(first), 2 * len(w) + 1))
    cos = np.zeros_like(sin)
    # Frequency index a is 1-based: a = first + 1, a' = second + 1.
    sin[rows, second - first] = cos[rows, second - first] = 0.5
    sin[rows, first + second + 2] = -0.5
    cos[rows, first + second + 2] = 0.5
    cos *= (w[first] * w[second])[:, None]
    where = np.empty((len(w), len(w)), dtype=np.intp)
    where[first, second] = where[second, first] = rows
    return sin, cos, where


def _normal_equations(pos, y, lo, hi, wx, wy, keep):
    """Phi^T Phi, (2, m, m), and Phi^T y, (2, m), of the psi and Bz blocks
    over the kept frequency pairs, without the 1 / (Lx Ly) and
    1 / sqrt(Lx Ly) factors.

    A product of features (a, b) and (a', b') is an x part times a y
    part: for Bz (sx sx')(sy sy'), for psi dx phi dx phi' + dy phi dy phi'
    = (cx cx')(sy sy') + (sx sx')(cy cy').  Each part is a combination of
    harmonics (`_pair_harmonics`), so summed over the fingerprints every
    entry combines the moments M[p, q] = sum_i cos(p theta_x,i)
    cos(q theta_y,i), one (2 mx + 1, n) @ (n, 2 my + 1) product.  No
    n x m array is formed.
    """
    sin_x, cos_x = _axis_tables(pos[:, 0], lo[0], hi[0], wx)
    sin_y, cos_y = _axis_tables(pos[:, 1], lo[1], hi[1], wy)
    rhs = np.stack([-((cos_x * y[:, :1]).T @ sin_y + (sin_x * y[:, 1:2]).T @ cos_y),
                    (sin_x * y[:, 2:]).T @ sin_y])[:, keep]
    # Free the (n, m_axis) tables before the (n, 2 m_axis + 1) ones.
    del sin_x, cos_x, sin_y, cos_y

    theta = (pos[:, :2] - lo) * (np.pi / (hi - lo))
    moments = (np.cos(np.multiply.outer(theta[:, 0], np.arange(2 * len(wx) + 1))).T
               @ np.cos(np.multiply.outer(theta[:, 1], np.arange(2 * len(wy) + 1))))
    x_sin, x_cos, x_where = _pair_harmonics(wx)
    y_sin, y_cos, y_where = _pair_harmonics(wy)
    x_sin_m = x_sin @ moments
    pairs = np.stack([(x_cos @ moments) @ y_sin.T + x_sin_m @ y_cos.T,
                      x_sin_m @ y_sin.T])
    # Gather the kept pairs' entries through one flat index into pairs.
    ka, kb = np.nonzero(keep)
    index = x_where[ka[:, None], ka] * len(y_sin)
    index += y_where[kb[:, None], kb]
    return pairs.reshape(2, -1)[:, index], rhs


def fit(fingerprints, params: KernelParams) -> GprModel:
    """Fit the planar reduced-rank model (see the module docstring).

    Positions and fields must be finite and the positions on one z plane
    (within `PLANE_TOL_M`); repeated positions are fine.
    """
    if len(fingerprints) == 0:
        raise DegenerateTrainingError("need at least one fingerprint")
    pos = np.array([f.position for f in fingerprints], dtype=float)
    fields = np.array([f.field for f in fingerprints], dtype=float)
    finite = np.isfinite(pos).all(axis=1) & np.isfinite(fields).all(axis=1)
    if not finite.all():
        raise DegenerateTrainingError(
            f"fingerprint index {int(np.argmin(finite))} has a non-finite "
            "position or field")
    height = float(pos[0, 2])
    on_plane = np.abs(pos[:, 2] - height) <= PLANE_TOL_M
    if not on_plane.all():
        i = int(np.argmin(on_plane))
        raise DegenerateTrainingError(
            f"fingerprint index {i} at z = {float(pos[i, 2])!r} is off the plane "
            f"z = {height!r} of fingerprint 0")
    lo = pos[:, :2].min(axis=0) - PAD_M
    hi = pos[:, :2].max(axis=0) + PAD_M
    wx, wy, keep = _frequencies(lo, hi, params.lengthscale)
    mean = fields.mean(axis=0)
    a, rhs = _normal_equations(pos, fields - mean, lo, hi, wx, wy, keep)
    norm = 4.0 / np.prod(hi - lo)  # 1 / (Lx Ly)
    a *= norm
    density = _spectral_density(wx, wy, keep, params.lengthscale)
    prior = np.outer([params.signal_var * params.lengthscale**2,
                      params.signal_var], density)
    diag = np.arange(len(density))
    a[:, diag, diag] += params.noise_var / prior
    weights = np.zeros((2, len(wx), len(wy)))
    weights[:, keep] = np.linalg.solve(a, (rhs * np.sqrt(norm))[..., None])[..., 0]
    return GprModel(pos, mean, params, height, lo, hi, wx, wy, weights)


def predict_many(model: GprModel, points: np.ndarray) -> np.ndarray:
    """Posterior-mean field at (q, 3) query points, returning (q, 3).

    Queries whose distinct x and y values span a lattice of at most q
    points (the nodes of a grid) are evaluated through per-axis tables of
    the distinct values, one product chain per field axis; other queries
    through per-point tables.  The choice affects cost only.  Queries
    outside the padded box get the mean.  Raises ValueError for a query
    that is not finite or not on the model's plane.
    """
    points = np.asarray(points, dtype=float)
    ok = (np.isfinite(points).all(axis=1)
          & (np.abs(points[:, 2] - model.height) <= PLANE_TOL_M))
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"query index {i} at {points[i].tolist()} is not a "
                         f"finite point on the map plane z = {model.height!r}")
    (lo_x, lo_y), (hi_x, hi_y) = model.lo, model.hi
    w_psi, w_z = model.weights * np.sqrt(4.0 / np.prod(model.hi - model.lo))
    (ux, ix), (uy, iy) = (np.unique(points[:, d], return_inverse=True)
                          for d in range(2))
    if len(ux) * len(uy) <= len(points):
        sx, cx = _axis_tables(ux, lo_x, hi_x, model.wx)
        sy, cy = _axis_tables(uy, lo_y, hi_y, model.wy)
        out = np.stack([-(cx @ w_psi) @ sy.T, -(sx @ w_psi) @ cy.T,
                        (sx @ w_z) @ sy.T], axis=-1)[ix, iy]
    else:
        sx, cx = _axis_tables(points[:, 0], lo_x, hi_x, model.wx)
        sy, cy = _axis_tables(points[:, 1], lo_y, hi_y, model.wy)
        out = np.column_stack([-np.sum((cx @ w_psi) * sy, axis=1),
                               -np.sum((sx @ w_psi) * cy, axis=1),
                               np.sum((sx @ w_z) * sy, axis=1)])
    out += model.mean
    return out


def build_grid(model: GprModel, origin, resolution: float, nx: int, ny: int,
               plane_height: float = 0.0) -> MagneticGridMap:
    """Rasterize GP predictions into a dense grid map."""
    origin = np.asarray(origin, dtype=float)
    xs = origin[0] + resolution * np.arange(nx)
    ys = origin[1] + resolution * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([gx.ravel(), gy.ravel(),
                      np.full(nx * ny, float(plane_height))], axis=-1)
    values = predict_many(model, nodes).reshape(nx, ny, 3)
    return MagneticGridMap(origin, float(resolution), nx, ny, values,
                           float(plane_height))


def write_fingerprints_csv(fingerprints, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x", "y", "z", "bx", "by", "bz"])
        for fp in fingerprints:
            writer.writerow([repr(float(v)) for v in (*fp.position, *fp.field)])


def read_fingerprints_csv(path) -> list:
    """Fingerprints of a CSV file; a row that does not parse raises
    DegenerateTrainingError naming its 1-based line number."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["x", "y", "z", "bx", "by", "bz"]:
            raise DegenerateTrainingError(f"unexpected fingerprint header {header}")
        out = []
        for row in reader:
            if len(row) != 6:
                raise DegenerateTrainingError(
                    f"fingerprint line {reader.line_num}: expected 6 values, "
                    f"got {len(row)}")
            vals = []
            for v in row:
                try:
                    vals.append(float(v))
                except ValueError:
                    raise DegenerateTrainingError(
                        f"fingerprint line {reader.line_num}: cannot parse "
                        f"{v!r}") from None
            out.append(Fingerprint(np.array(vals[:3]), np.array(vals[3:])))
    return out
