"""Gaussian-process regression of the magnetic field from fingerprints.

Three independent per-axis GPs share one RBF kernel; the mean function is
the per-axis average of the training fields (the local background field).
Only the posterior mean is used downstream: predictions are rasterized
into the dense grid map that the estimator queries.

Kernel matrices come from `cdist` squared distances, with the RBF applied
in place, so no (m, n, 3) difference array is formed.

`fit` holds one n x n buffer, the training kernel from `cdist`.  The noise
goes onto its diagonal, making K, and K is Cholesky-factored in that
buffer: in its Fortran-ordered view the lower triangle holds L and the
strict upper triangle still holds K, whose diagonal is saved apart
(n floats).  The residual check of the weight solve reads K from those
two parts.  Positions and fields are checked for finite values before any
n x n work, which therefore needs no finite checks of its own.

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
from scipy.linalg.blas import dsymm
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


def _factor_in_place(k: np.ndarray, diag_add: float):
    """Add `diag_add` to the diagonal of the kernel `k`, making it K, and
    Cholesky-factor K in the memory of `k`.

    Returns (c, diag_k): `c` is `k.T`, with L in its lower triangle and K
    in its strict upper triangle; `diag_k` is K's diagonal, which L
    overwrote.  Raises LinAlgError, with `k` partly overwritten, when K is
    not numerically positive definite.
    """
    diag = np.diag_indices_from(k)
    k[diag] += diag_add
    diag_k = k[diag]
    # k is exactly symmetric and potrf('L') reads and writes only the lower
    # triangle of the Fortran-ordered view k.T, so the strict upper triangle
    # keeps K.  fit rejects non-finite input, so nothing here scans for it.
    c, _ = cho_factor(k.T, lower=True, overwrite_a=True, check_finite=False)
    return c, diag_k


def fit(fingerprints, params: KernelParams) -> GprModel:
    """Fit per-axis GPs: solve (K + noise_var*I) alpha = B - mean.

    Positions must be pairwise distinct and positions and fields finite; a
    singular factorization is retried once with a small jitter before
    giving up.  After factoring, K (noise included) and its Cholesky
    factor L share the one n x n buffer that `_kernel_matrix` returned: L
    is the lower triangle of its Fortran-ordered view `c`, K the strict
    upper triangle, and K's diagonal is kept in `diag_k`.
    """
    if len(fingerprints) == 0:
        raise DegenerateTrainingError("need at least one fingerprint")
    if len(fingerprints) > MAX_TRAINING_POINTS:
        raise DegenerateTrainingError(
            f"{len(fingerprints)} fingerprints exceed the exact-GPR cap "
            f"of {MAX_TRAINING_POINTS}")
    pos = np.array([f.position for f in fingerprints], dtype=float)
    fields = np.array([f.field for f in fingerprints], dtype=float)
    # Finite positions give a finite kernel, so the n x n work below needs no
    # finite checks of its own.
    finite = np.isfinite(pos).all(axis=1) & np.isfinite(fields).all(axis=1)
    if not finite.all():
        raise DegenerateTrainingError(
            f"fingerprint index {int(np.argmin(finite))} has a non-finite "
            "position or field")
    if len(pos) > 1:
        dist, _ = cKDTree(pos).query(pos, k=2)
        if float(np.min(dist[:, 1])) <= MIN_PAIRWISE_DISTANCE:
            raise DegenerateTrainingError("duplicate fingerprint positions")
    mean = fields.mean(axis=0)
    rhs = fields - mean
    for jitter in (0.0, 1e-8 * params.signal_var):
        try:
            c, diag_k = _factor_in_place(_kernel_matrix(pos, pos, params),
                                         params.noise_var + jitter)
            break
        except np.linalg.LinAlgError:
            # The failed factor overwrote part of K, so the retry rebuilds
            # it; continuing leaves the handler, which frees the failed one.
            continue
    else:
        raise DegenerateTrainingError(
            "kernel matrix not positive definite even with jitter")
    alpha = cho_solve((c, True), rhs, check_finite=False)
    # K alpha from the strict upper triangle of c and the saved diagonal.
    k_alpha = dsymm(1.0, c, alpha, lower=0)
    k_alpha += (diag_k - np.diag(c))[:, None] * alpha
    resid = np.linalg.norm(k_alpha - rhs)
    # Written so that a NaN residual fails the check too.
    if not resid <= 1e-8 * max(np.linalg.norm(rhs), 1.0):
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
