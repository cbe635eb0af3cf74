"""Trajectory and calibration metrics.

ATE is the RMSE of the translational residuals after a rigid (no-scale)
alignment of the estimated trajectory onto the reference.  Calibration
error is the plain l2 norm of the difference between 12-vectors, mixing
the unitless matrix entries with the uT biases by definition.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigurationError
from .geom import RigidTransform

WELL_ESTIMATED_M = 0.3
FAILED_M = 1.0


@dataclass
class TrajectoryPair:
    """Estimated and reference positions associated by nearest timestamp."""

    est_t: np.ndarray
    est_p: np.ndarray  # (T, 3)
    ref_t: np.ndarray
    ref_p: np.ndarray

    def associated(self, max_dt: float) -> tuple:
        """(est, ref) position arrays for samples matched within max_dt."""
        ref_t = np.asarray(self.ref_t, dtype=float)
        order = np.argsort(ref_t)
        ref_t_sorted = ref_t[order]
        idx = np.searchsorted(ref_t_sorted, self.est_t)
        est, ref = [], []
        for k, t in enumerate(np.asarray(self.est_t, dtype=float)):
            best, best_dt = None, max_dt
            for cand in (idx[k] - 1, idx[k]):
                if 0 <= cand < len(ref_t_sorted):
                    dt = abs(ref_t_sorted[cand] - t)
                    if dt <= best_dt:
                        best, best_dt = order[cand], dt
            if best is not None:
                est.append(self.est_p[k])
                ref.append(self.ref_p[best])
        return np.array(est, dtype=float), np.array(ref, dtype=float)


def pair_from_arrays(est_t, est_p, ref_t, ref_p) -> TrajectoryPair:
    return TrajectoryPair(np.asarray(est_t, float), np.asarray(est_p, float),
                          np.asarray(ref_t, float), np.asarray(ref_p, float))


def _fit_rigid(est: np.ndarray, ref: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform s minimizing sum ||s(est) - ref||^2
    over associated (K, 3) position arrays.

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
    return RigidTransform(rotation, translation)


def align_rigid(pair: TrajectoryPair, max_dt: float = 0.05) -> RigidTransform:
    """Rigid transform aligning the associated estimated positions onto
    the reference; see _fit_rigid."""
    return _fit_rigid(*pair.associated(max_dt))


def per_frame_errors(pair: TrajectoryPair, max_dt: float = 0.05) -> np.ndarray:
    """Translational error of each associated sample after rigid
    alignment, meters."""
    est, ref = pair.associated(max_dt)
    transform = _fit_rigid(est, ref)
    aligned = est @ transform.rotation.T + transform.translation
    return np.linalg.norm(aligned - ref, axis=1)


def ate(pair: TrajectoryPair, max_dt: float = 0.05) -> float:
    """RMSE of translational error after rigid alignment, meters."""
    return float(np.sqrt(np.mean(per_frame_errors(pair, max_dt)**2)))


def calib_error(theta_e: np.ndarray, theta_g: np.ndarray) -> float:
    """l2 norm of the 12-vector difference (mixed units, by definition)."""
    return float(np.linalg.norm(np.asarray(theta_e, float)
                                - np.asarray(theta_g, float)))


def classify_frames(errors: np.ndarray) -> list:
    """Bucket per-frame errors: well (<0.3 m), poor (0.3-1.0 m), failed (>1 m)."""
    labels = []
    for e in np.asarray(errors, dtype=float):
        if e < WELL_ESTIMATED_M:
            labels.append("well")
        elif e <= FAILED_M:
            labels.append("poor")
        else:
            labels.append("failed")
    return labels


def class_counts(labels) -> dict:
    return {name: int(sum(1 for v in labels if v == name))
            for name in ("well", "poor", "failed")}


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
    errors = per_frame_errors(pair_from_arrays(est_t, est_p, ref_t, ref_p),
                              max_dt)
    per_sensor = [calib_error(e, g) for e, g in zip(theta_est, theta_true)]
    return {
        "ate_m": float(np.sqrt(np.mean(errors**2))),
        "calib_error_uT": {
            "per_sensor": [float(v) for v in per_sensor],
            "average": float(np.mean(per_sensor)) if per_sensor else 0.0,
        },
        "frame_class_counts": class_counts(classify_frames(errors)),
        "mean_frame_ms": float(mean_frame_ms),
    }
