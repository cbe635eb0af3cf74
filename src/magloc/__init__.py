"""Magnetometer-array localization with online affine sensor calibration.

Pipeline: simulate a magnetometer-array robot in a synthetic ambient
field, build a dense magnetic grid map by Gaussian-process regression,
then jointly estimate pose and per-sensor calibration online via sequence
accumulation and, per frame, one alternation of a Gauss-Newton pose step
(calibration fixed) with an exact recursive-least-squares calibration
step (pose fixed).  The RLS step replaces the paper's stochastic-gradient
calibration update.
"""

from .errors import (AlignmentError, ConfigurationError, DatasetSchemaError,
                     DegenerateQueryError, DegenerateTrainingError,
                     MapFormatError, OutOfMapError)
from .geom import PoseState, exp_so3, log_so3, rot_z, skew
from .magmap import (DipoleSource, FieldModel, MagneticGridMap, dipole_field,
                     gradient_many, interpolate_many, load_map, rasterize,
                     sample_field, save_map)
from .gpr import Fingerprint, GprModel, KernelParams, build_grid, fit, predict_many
from .sim import (CalibrationParams, DatasetFrame, NoiseConfig,
                  SensorExtrinsics, build_dataset, default_rig,
                  generate_trajectory, read_dataset, simulate_odometry,
                  write_dataset)
from .window import SlidingWindow
from .estimator import (EstimatorOutput, RlsState, SolverConfig, alternate,
                        gauss_newton_step, rls_update, run)
from .evaluate import (ate, calib_error, class_counts, evaluation_report,
                       per_frame_errors)

__version__ = "0.1.0"
