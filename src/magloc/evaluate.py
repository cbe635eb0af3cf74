"""Trajectory and calibration metrics.

Every metric takes plain arrays: estimated timestamps and (T, 3)
positions, and reference timestamps and positions.  Each estimate is
matched to its nearest reference sample in time, within `max_dt`.  ATE is
the RMSE of the translational residuals after a rigid (no-scale) alignment
of the matched estimates onto the reference.  Calibration error is the
plain l2 norm of the difference between 12-vectors, mixing the unitless
matrix entries with the uT biases by definition.
"""

import csv

import numpy as np

from .errors import AlignmentError, ConfigurationError

WELL_ESTIMATED_M = 0.3
FAILED_M = 1.0


def _associate(est_t, est_p, ref_t, ref_p, max_dt: float) -> tuple:
    """(est, ref) position arrays of the estimates matched to their
    nearest reference sample within max_dt.

    A tie goes to the later reference sample in sorted order, and a gap of
    exactly max_dt is kept; unmatched estimates are dropped.
    """
    order = np.argsort(ref_t)
    ref_sorted = ref_t[order]
    n = len(ref_sorted)
    if n == 0:
        return est_p[:0], ref_p[:0]
    idx = np.searchsorted(ref_sorted, est_t)
    before = np.maximum(idx - 1, 0)
    after = np.minimum(idx, n - 1)
    dt_before = np.where(idx > 0, np.abs(ref_sorted[before] - est_t), np.inf)
    dt_after = np.where(idx < n, np.abs(ref_sorted[after] - est_t), np.inf)
    take_before = dt_before <= max_dt
    take_after = dt_after <= np.where(take_before, dt_before, max_dt)
    matched = take_before | take_after
    nearest = np.where(take_after, after, before)[matched]
    return est_p[matched], ref_p[order[nearest]]


def _fit_rigid(est: np.ndarray, ref: np.ndarray) -> tuple:
    """(rotation, translation) of the least-squares rigid transform s
    minimizing sum ||s(est) - ref||^2 over associated (K, 3) position
    arrays.

    Standard SVD construction on centered point sets with a reflection
    guard; requires at least three non-collinear positions.
    """
    if len(est) < 3:
        raise AlignmentError(f"only {len(est)} associated positions")
    mu_e = est.mean(axis=0)
    mu_r = ref.mean(axis=0)
    cov = (ref - mu_r).T @ (est - mu_e) / len(est)
    u, s, vt = np.linalg.svd(cov)
    # Collinear sets leave the rotation about the line unconstrained.
    if s[1] < 1e-12 * max(s[0], 1.0):
        raise AlignmentError("associated positions are collinear")
    d = np.eye(3)
    if np.linalg.det(u @ vt) < 0.0:
        d[2, 2] = -1.0
    rotation = u @ d @ vt
    translation = mu_r - rotation @ mu_e
    return rotation, translation


def per_frame_errors(est_t, est_p, ref_t, ref_p,
                     max_dt: float = 0.05) -> np.ndarray:
    """Translational error of each associated sample after rigid
    alignment, meters."""
    est, ref = _associate(np.asarray(est_t, float), np.asarray(est_p, float),
                          np.asarray(ref_t, float), np.asarray(ref_p, float),
                          max_dt)
    rotation, translation = _fit_rigid(est, ref)
    aligned = est @ rotation.T + translation
    return np.linalg.norm(aligned - ref, axis=1)


def ate(est_t, est_p, ref_t, ref_p, max_dt: float = 0.05) -> float:
    """RMSE of translational error after rigid alignment, meters."""
    errors = per_frame_errors(est_t, est_p, ref_t, ref_p, max_dt)
    return float(np.sqrt(np.mean(errors**2)))


def calib_error(theta_e: np.ndarray, theta_g: np.ndarray) -> float:
    """l2 norm of the 12-vector difference (mixed units, by definition)."""
    return float(np.linalg.norm(np.asarray(theta_e, float)
                                - np.asarray(theta_g, float)))


def class_counts(errors) -> dict:
    """Frames per class: well (< 0.3 m), poor (0.3-1.0 m) and failed
    (> 1 m, or a NaN error)."""
    errors = np.asarray(errors, dtype=float)
    well = int(np.count_nonzero(errors < WELL_ESTIMATED_M))
    poor = int(np.count_nonzero((errors >= WELL_ESTIMATED_M)
                                & (errors <= FAILED_M)))
    return {"well": well, "poor": poor, "failed": errors.size - well - poor}


def read_trajectory_csv(path) -> dict:
    """Columns of an estimator trajectory CSV as float arrays."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    if not rows:
        raise ConfigurationError(f"trajectory file {path} holds no frames")
    out = {}
    for key in rows[0].keys():
        out[key] = np.array([float(r[key]) for r in rows])
    return out


def evaluation_report(est_t, est_p, ref_t, ref_p, theta_est, theta_true,
                      mean_frame_ms: float, max_dt: float = 0.05) -> dict:
    """Report dict: ATE, per-sensor and averaged calibration error, class
    counts, timing."""
    errors = per_frame_errors(est_t, est_p, ref_t, ref_p, max_dt)
    per_sensor = [calib_error(e, g) for e, g in zip(theta_est, theta_true)]
    return {
        "ate_m": float(np.sqrt(np.mean(errors**2))),
        "calib_error_uT": {
            "per_sensor": [float(v) for v in per_sensor],
            "average": float(np.mean(per_sensor)) if per_sensor else 0.0,
        },
        "frame_class_counts": class_counts(errors),
        "mean_frame_ms": float(mean_frame_ms),
    }
