"""Gaussian-process regression of the magnetic field from fingerprints.

Three independent per-axis GPs share one RBF kernel; the mean function is
the per-axis average of the training fields (the local background field).
Only the posterior mean is used downstream: predictions are rasterized
into the dense grid map that the estimator queries.

Kernel matrices come from `cdist` squared distances, with the RBF applied
in place, so no (m, n, 3) difference array is formed.

`predict_many` picks one of two exact evaluations of the posterior mean by
cost, from the shape of its input.  The RBF kernel factorizes over axes,
k(p, q) = s2 * kx * ky * kz, so when the m queries span a lattice of at
most m points (distinct x, y and z values whose product is <= m, as the
nodes of a grid map do) it builds the 1-D factors exp(-(u - t)^2 / 2l^2)
of each axis's distinct values against the n training coordinates and
forms the lattice table with one matrix product per field axis and level
of the third axis, (Ea * w) @ Eb^T with w = s2 * kc * alpha[:, axis];
each query then reads its row of the table.  For the 151 x 101 x 1 grid
of a map that is three (151, n) @ (n, 101) products in place of an
exp() over all 15251 x n (node, point) pairs.  Other inputs take the
`cdist` cross-kernel in blocks of `_PREDICT_BLOCK_ROWS` query rows.
Either way working memory stays bounded: the lattice path blocks the axis
with the most distinct values in `_PREDICT_BLOCK_ROWS` values, so its
factors hold at most one (block, n) slab plus (sqrt(m), n) and
(cbrt(m), n) ones, and its table is no larger than the (m, 3) output;
the `cdist` path holds one (block, n) kernel.

`build_grid` evaluates all nodes through one `predict_many` call, so the
map build has a single prediction entry point whether callers time it,
trace it or test it.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import DegenerateTrainingError
from .magmap import MagneticGridMap

# Exact GPR only; larger training sets need an approximate method.
MAX_TRAINING_POINTS = 5000

MIN_PAIRWISE_DISTANCE = 1e-6

# Query rows per cross-kernel block in predict_many.
_PREDICT_BLOCK_ROWS = 1024


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
        if self.lengthscale <= 0.0 or self.signal_var <= 0.0 or self.noise_var < 0.0:
            raise ValueError("kernel parameters must be positive (noise_var >= 0)")


def _kernel_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """RBF kernel between the rows of (m, 3) `a` and (n, 3) `b`, (m, n)."""
    k = cdist(a, b, "sqeuclidean")
    # Divide, not multiply by the reciprocal: the bits of -d2 / (2 l^2) stay.
    k /= -2.0 * params.lengthscale**2
    np.exp(k, out=k)
    k *= params.signal_var
    return k


@dataclass
class GprModel:
    train_pos: np.ndarray  # (n, 3)
    alpha: np.ndarray  # (n, 3) per-axis weights
    mean: np.ndarray  # (3,) uT
    params: KernelParams


def fit(fingerprints, params: KernelParams) -> GprModel:
    """Fit per-axis GPs: solve (K + noise_var*I) alpha = B - mean.

    Positions must be pairwise distinct; a singular factorization is
    retried once with a small jitter before giving up.
    """
    if len(fingerprints) == 0:
        raise DegenerateTrainingError("need at least one fingerprint")
    if len(fingerprints) > MAX_TRAINING_POINTS:
        raise DegenerateTrainingError(
            f"{len(fingerprints)} fingerprints exceed the exact-GPR cap "
            f"of {MAX_TRAINING_POINTS}")
    pos = np.array([f.position for f in fingerprints], dtype=float)
    fields = np.array([f.field for f in fingerprints], dtype=float)
    if len(pos) > 1:
        dist, _ = cKDTree(pos).query(pos, k=2)
        if float(np.min(dist[:, 1])) <= MIN_PAIRWISE_DISTANCE:
            raise DegenerateTrainingError("duplicate fingerprint positions")
    mean = fields.mean(axis=0)
    rhs = fields - mean
    k = _kernel_matrix(pos, pos, params)
    k[np.diag_indices_from(k)] += params.noise_var
    try:
        # k is exactly symmetric; its Fortran-ordered view k.T spares scipy
        # a layout copy.
        factor = cho_factor(k.T, lower=True)
    except np.linalg.LinAlgError:
        k[np.diag_indices_from(k)] += 1e-8 * params.signal_var
        try:
            factor = cho_factor(k.T, lower=True)
        except np.linalg.LinAlgError as exc:
            raise DegenerateTrainingError(
                "kernel matrix not positive definite even with jitter") from exc
    alpha = cho_solve(factor, rhs)
    resid = np.linalg.norm(k @ alpha - rhs)
    if resid > 1e-8 * max(np.linalg.norm(rhs), 1.0):
        raise DegenerateTrainingError(
            f"weight solve residual {resid:.3e} too large")
    return GprModel(pos, alpha, mean, params)


def _rbf_factor(u: np.ndarray, t: np.ndarray, lengthscale: float) -> np.ndarray:
    """One axis's RBF factor exp(-(u - t)^2 / 2l^2), (len(u), len(t))."""
    f = np.subtract.outer(u, t)
    f *= f
    f /= -2.0 * lengthscale**2
    np.exp(f, out=f)
    return f


def _predict_lattice(model: GprModel, axes: list) -> np.ndarray:
    """Zero-mean prediction at every point of a lattice.

    `axes` holds, per coordinate axis, the distinct values and each query's
    index into them (`np.unique(..., return_inverse=True)`).  Returns the
    (m, 3) predictions at the queries.
    """
    # The axis with the most distinct values is blocked; the other two then
    # hold at most sqrt(m) and cbrt(m) distinct values.
    order = sorted(range(3), key=lambda d: -len(axes[d][0]))
    (ua, ia), (ub, ib), (uc, ic) = (axes[d] for d in order)
    lengthscale = model.params.lengthscale
    train = model.train_pos
    eb_t = _rbf_factor(ub, train[:, order[1]], lengthscale).T
    # (levels, n, 3): s2 * kc * alpha for each distinct value of the third axis.
    weights = (model.params.signal_var
               * _rbf_factor(uc, train[:, order[2]], lengthscale)[:, :, None]
               * model.alpha)
    table = np.empty((len(ua), len(ub), len(uc), 3))
    for start in range(0, len(ua), _PREDICT_BLOCK_ROWS):
        rows = slice(start, start + _PREDICT_BLOCK_ROWS)
        ea = _rbf_factor(ua[rows], train[:, order[0]], lengthscale)
        for level, w in enumerate(weights):
            for axis in range(3):
                table[rows, :, level, axis] = (ea * w[:, axis]) @ eb_t
    return table[ia, ib, ic]


def predict_many(model: GprModel, points: np.ndarray) -> np.ndarray:
    """Posterior-mean field at (m, 3) query points, returning (m, 3).

    Queries whose distinct x, y and z values span a lattice of at most m
    points (the nodes of a grid) are evaluated through the per-axis kernel
    factors, one matrix product per field axis and level; other queries
    through the `cdist` cross-kernel in blocks of `_PREDICT_BLOCK_ROWS`
    rows.  Both are exact for any input, and both keep working memory to
    a few (block, n) arrays plus the output (see the module docstring);
    the choice affects cost only.
    """
    points = np.asarray(points, dtype=float)
    axes = [np.unique(points[:, d], return_inverse=True) for d in range(3)]
    if math.prod(len(u) for u, _ in axes) <= len(points):
        out = _predict_lattice(model, axes)
    else:
        out = np.empty((len(points), 3))
        for start in range(0, len(points), _PREDICT_BLOCK_ROWS):
            block = points[start:start + _PREDICT_BLOCK_ROWS]
            out[start:start + len(block)] = (
                _kernel_matrix(block, model.train_pos, model.params) @ model.alpha)
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
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["x", "y", "z", "bx", "by", "bz"]:
            raise DegenerateTrainingError(f"unexpected fingerprint header {header}")
        out = []
        for row in reader:
            vals = [float(v) for v in row]
            if len(vals) != 6:
                raise DegenerateTrainingError(f"bad fingerprint row {row}")
            out.append(Fingerprint(np.array(vals[:3]), np.array(vals[3:])))
    return out
