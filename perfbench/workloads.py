"""Benchmark workloads: inputs from a seed, the untimed set-up, the timed
operation, and the correctness gate of each operation.

Every workload runs the user-facing pipeline of `magloc pipeline`: the
set-up synthesizes the world and the dataset and round-trips them through
their file formats, then each timed operation GP-fits the fingerprint
survey, rasterizes the GP grid map and runs the online estimator over all
601 frames on that map.  The workloads differ in survey density and solver
settings, which decides the layer that dominates:

- ref_online: the paper's operating point (raw readings, online
  calibration, 0.5 m window).  The estimator dominates, overhead-bound.
- precal_wide: readings pre-corrected with the true calibration,
  calibration off, 2.0 m window.  Bypasses the SGD step and the RLS filter;
  fewer, larger map lookups.
- map_dense: a survey four times as dense, localized with the precal_wide
  solver settings.  The GP fit and grid build dominate.

BENCHMARK.json runs ref_online and map_dense; map_dense loads every layer
precal_wide loads, and two workloads leave each run twice the time.

The world and the sensor distortions are those of the reference scenario
(seed 7).  The seed draws the dataset noise and the fingerprint noise, so
seed 7 reproduces the reference scenario exactly and every seed poses the
same problem at the same size.
"""

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from magloc import estimator, evaluate, gpr, magmap, scenario, sim
from magloc.errors import AlignmentError

REFERENCE_SEED = 7

# Acceptance criteria of tests/test_acceptance.py.  Criterion 5 bounds the
# calibration error of the reference seed; criterion 8 sets the tolerances
# for every re-drawn input: calibration, ATE, well-estimated share and a
# quiet second half.
CALIB_MAX_REFERENCE_UT = 2.0
CALIB_MAX_REDRAWN_UT = 2.5
CALIB_MAX_SHARE_OF_INITIAL = 0.1
WELL_ESTIMATED_MIN_SHARE = 0.9
# GP grid against the rasterized true field at the nodes inside the surveyed
# rectangle: about 0.30 uT for the reference survey, 0.20 uT for the dense
# one.  Outside the survey the GP reverts to its mean and the error there
# says nothing about the map build.
MAP_RMSE_MAX_UT = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    line_spacing: float  # fingerprint survey, meters
    sample_spacing: float
    precalibrated: bool  # readings pre-corrected with the true calibration
    solver: dict = field(default_factory=dict)  # scenario.solver_config overrides
    ate_max_m: float = 0.2  # criterion 6: raw 0.2 m, precalibrated 0.15 m


WORKLOADS = {w.name: w for w in (
    Workload("ref_online", 0.5, 0.25, False),
    Workload("precal_wide", 0.5, 0.25, True,
             {"calibrate": False, "window_m": 2.0}, 0.15),
    Workload("map_dense", 0.25, 0.125, True,
             {"calibrate": False, "window_m": 2.0}, 0.15),
)}


@dataclass
class Inputs:
    config: scenario.ScenarioConfig
    spec: dict
    rig: list
    grid_true: magmap.MagneticGridMap
    surveyed: np.ndarray  # (nx, ny) bool, nodes inside the survey's bounding box
    frames: list
    fingerprints: list
    truth_thetas: list  # calibration the readings still carry, per sensor
    initial_calib_err: float
    solver: estimator.SolverConfig


def scenario_config(workload: Workload) -> scenario.ScenarioConfig:
    config = scenario.reference_config(REFERENCE_SEED)
    config.fingerprints.line_spacing = workload.line_spacing
    config.fingerprints.sample_spacing = workload.sample_spacing
    return config


def setup(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    """Everything before timing starts: world, dataset, file round trips
    and one GP fit that pays the first-call cost."""
    config = scenario_config(workload)
    model = scenario.field_model(config)
    spec = scenario.grid_spec(config)
    magmap.save_map(magmap.rasterize(model, **spec), work_dir / "map_true.mag")
    grid_true = magmap.load_map(work_dir / "map_true.mag")

    noise = scenario.seed_children(seed)
    rig = scenario.rig(config)
    calibs = scenario.true_calibrations(config)
    poses = sim.generate_trajectory(config.trajectory.waypoints,
                                    config.trajectory.speed,
                                    config.trajectory.frame_rate,
                                    config.trajectory.height)
    sim.write_dataset(sim.build_dataset(model, poses,
                                        config.trajectory.frame_rate, rig,
                                        calibs, scenario.noise_config(config),
                                        noise[2]),
                      work_dir / "dataset.jsonl")
    frames = sim.read_dataset(work_dir / "dataset.jsonl")

    positions = scenario.fingerprint_positions(config)
    fields = magmap.sample_field_many(model, positions) + noise[3].normal(
        0.0, config.fingerprints.noise_sigma, size=positions.shape)
    fingerprints = [gpr.Fingerprint(p, b) for p, b in zip(positions, fields)]
    xs = spec["origin"][0] + spec["resolution"] * np.arange(spec["nx"])
    ys = spec["origin"][1] + spec["resolution"] * np.arange(spec["ny"])
    lo, hi = positions[:, :2].min(axis=0), positions[:, :2].max(axis=0)
    surveyed = np.outer((xs >= lo[0]) & (xs <= hi[0]), (ys >= lo[1]) & (ys <= hi[1]))

    truth = [c.theta() for c in calibs]
    if workload.precalibrated:
        for frame in frames:
            frame.readings = np.stack([c.c @ frame.readings[i] + c.b
                                       for i, c in enumerate(calibs)])
        truth = [sim.identity_theta() for _ in calibs]
    initial = float(np.mean([evaluate.calib_error(sim.identity_theta(), t)
                             for t in truth]))
    gpr.fit(fingerprints, scenario.kernel_params(config))
    return Inputs(config, spec, rig, grid_true, surveyed, frames, fingerprints,
                  truth, initial,
                  scenario.solver_config(config, **workload.solver))


@dataclass
class OpResult:
    build_s: float  # warm GP fit plus grid build
    grid: magmap.MagneticGridMap
    output: estimator.EstimatorOutput


def run_op(inputs: Inputs) -> OpResult:
    """The timed operation: map build, then the online run on that map."""
    tic = time.perf_counter()
    model = gpr.fit(inputs.fingerprints, scenario.kernel_params(inputs.config))
    grid = gpr.build_grid(model, **inputs.spec)
    build_s = time.perf_counter() - tic
    output = estimator.run(inputs.frames, grid, inputs.rig, inputs.solver)
    return OpResult(build_s, grid, output)


def check(workload: Workload, seed: int, inputs: Inputs, op: OpResult,
          first: OpResult) -> tuple:
    """Scores of one operation and its failed checks (empty when correct).

    Every operation must also reproduce the first one bit for bit."""
    out = op.output
    diff = (op.grid.values - inputs.grid_true.values)[inputs.surveyed]
    scores = {
        "ate_m": float("nan"),
        "calib_err_uT": float("nan"),
        "well_share": float("nan"),
        "map_rmse_uT": float(np.sqrt(np.mean(diff**2))),
        "fallbacks": int(out.fallbacks.sum()),
        "late_fallbacks": int(out.fallbacks[len(out.fallbacks) // 2:].sum()),
    }
    problems = []
    ref_p = np.stack([f.gt_p for f in inputs.frames])
    try:
        report = evaluate.evaluation_report(
            out.timestamps, out.positions, out.timestamps, ref_p,
            list(out.final_thetas), inputs.truth_thetas,
            float(out.frame_ms.mean()))
    except AlignmentError as exc:
        problems.append(f"trajectory cannot be scored: {exc}")
    else:
        scores["ate_m"] = report["ate_m"]
        scores["calib_err_uT"] = report["calib_error_uT"]["average"]
        scores["well_share"] = (report["frame_class_counts"]["well"]
                                / len(out.timestamps))
    if not scores["map_rmse_uT"] <= MAP_RMSE_MAX_UT:
        problems.append(f"map RMSE {scores['map_rmse_uT']} uT > {MAP_RMSE_MAX_UT}")
    if not scores["ate_m"] <= workload.ate_max_m:
        problems.append(f"ATE {scores['ate_m']} m > {workload.ate_max_m}")
    if inputs.solver.calibrate:
        if seed == REFERENCE_SEED:
            limit = min(CALIB_MAX_REFERENCE_UT,
                        CALIB_MAX_SHARE_OF_INITIAL * inputs.initial_calib_err)
        else:
            limit = CALIB_MAX_REDRAWN_UT
        if not scores["calib_err_uT"] <= limit:
            problems.append(f"calibration error {scores['calib_err_uT']} uT > {limit}")
    if not scores["well_share"] >= WELL_ESTIMATED_MIN_SHARE:
        problems.append(f"well-estimated share {scores['well_share']} < "
                        f"{WELL_ESTIMATED_MIN_SHARE}")
    if scores["late_fallbacks"]:
        problems.append(f"{scores['late_fallbacks']} fallbacks in the second half")
    if not same_outputs(first, op):
        problems.append("outputs differ from the first operation")
    return scores, problems


def same_outputs(a: OpResult, b: OpResult) -> bool:
    """Bit-identical map, trajectory and calibration trace."""
    return (np.array_equal(a.grid.values, b.grid.values)
            and np.array_equal(a.output.positions, b.output.positions)
            and np.array_equal(a.output.orientations, b.output.orientations)
            and np.array_equal(a.output.thetas, b.output.thetas)
            and np.array_equal(a.output.fallbacks, b.output.fallbacks))


def work_dir(root: Path):
    """Scratch directory for the file round trips, inside the checkout."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root)

