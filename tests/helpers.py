"""Per-sensor views of the estimator's batched internals, for oracles.

The finite-difference and residual checks compare one sensor's stacked
residual and Jacobian; these helpers slice them out of the production
`_fields_at` and `_jacobian_all`, which evaluate every (entry, sensor)
pair at once.  The RLS batch oracles build the dense 12-parameter problem
from `regressor`, apart from the estimator's 4x4 information form.
`associate_loop` is the per-estimate loop that the vectorized trajectory
association of `evaluate` must reproduce pair for pair.
"""

import numpy as np

from magloc.estimator import _fields_at, _jacobian_all
from magloc.sim import identity_theta


def regressor(b) -> np.ndarray:
    """3x12 matrix of the affine sensor model: regressor(b) @ theta ==
    C @ b + bias for theta = [rows of C, bias]."""
    return np.hstack([np.kron(np.eye(3), np.reshape(b, (1, 3))), np.eye(3)])


def rls_batch(bs, gs, eps: float) -> np.ndarray:
    """Dense solve of the prior-regularized 12-parameter least squares
    over readings bs and fields gs, around the identity calibration."""
    hs = [regressor(b) for b in bs]
    normal = eps * np.eye(12) + sum(h.T @ h for h in hs)
    rhs = eps * identity_theta() + sum(h.T @ g for h, g in zip(hs, gs))
    return np.linalg.solve(normal, rhs)


def pose_residual(window, theta, x, grid, sensor: int) -> np.ndarray:
    """Stacked (3*J,) residual C b + bias - R^T M(p) of one sensor at the
    planar state x."""
    snap = window.snapshot()
    g = _fields_at(snap, x, grid)[3]
    c = np.reshape(theta[:9], (3, 3))
    return (snap.readings[:, sensor] @ c.T + theta[9:] - g[:, sensor]).ravel()


def pose_jacobian(window, x, grid, sensor: int) -> np.ndarray:
    """Stacked (3*J, 3) pose Jacobian of one sensor; see _jacobian_all."""
    rotations, positions, m, _ = _fields_at(window.snapshot(), x, grid)
    return _jacobian_all(grid, rotations, positions, m,
                         x.position)[:, sensor].reshape(-1, 3)


def node_position(grid, i: int, j: int) -> np.ndarray:
    """World position of grid node (i, j)."""
    return np.array([grid.origin[0] + i * grid.resolution,
                     grid.origin[1] + j * grid.resolution,
                     grid.plane_height])


def associate_loop(est_t, est_p, ref_t, ref_p, max_dt: float) -> tuple:
    """(est, ref) position arrays of nearest-timestamp association, one
    estimate at a time: the oracle of evaluate._associate.

    Each estimate takes the nearer of the reference samples either side of
    it in sorted order, the later on a tie, if its gap is at most max_dt.
    """
    ref_t = np.asarray(ref_t, dtype=float)
    order = np.argsort(ref_t)
    ref_t_sorted = ref_t[order]
    idx = np.searchsorted(ref_t_sorted, est_t)
    est, ref = [], []
    for k, t in enumerate(np.asarray(est_t, dtype=float)):
        best, best_dt = None, max_dt
        for cand in (idx[k] - 1, idx[k]):
            if 0 <= cand < len(ref_t_sorted):
                dt = abs(ref_t_sorted[cand] - t)
                if dt <= best_dt:
                    best, best_dt = order[cand], dt
        if best is not None:
            est.append(est_p[k])
            ref.append(ref_p[best])
    return (np.array(est, dtype=float).reshape(-1, 3),
            np.array(ref, dtype=float).reshape(-1, 3))
