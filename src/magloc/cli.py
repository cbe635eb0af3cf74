"""Command-line pipeline: world synthesis, dataset simulation, GP map
building, online estimation, and evaluation.

Every subcommand validates its inputs before creating any output file and
materializes the configuration it ran with into the output directory.
Exit codes: 0 success, 1 runtime/numeric failure, 2 configuration error.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import estimator, evaluate, gpr, magmap, scenario, sim
from .errors import AlignmentError, ConfigurationError
from .sim import CalibrationParams

MAP_TRUE = "map_true.mag"
MAP_GPR = "map_gpr.mag"
DATASET = "dataset.jsonl"
FINGERPRINTS = "fingerprints.csv"
TRUTH = "true_calibration.json"
TRAJECTORY = "trajectory.csv"
THETA_TRACE = "theta_trace.csv"
RUN_SUMMARY = "run_summary.json"
RUN_CONFIG = "run_config.json"
REPORT = "report.json"


def _write_json(data: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_scenario(args) -> scenario.ScenarioConfig:
    if args.config:
        config = scenario.load_config(args.config)
    else:
        config = scenario.reference_config(args.seed if args.seed is not None else 7)
    if args.seed is not None and args.config:
        config.seed = args.seed
    return config


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_world(args) -> int:
    config = _load_scenario(args)
    model = scenario.field_model(config)
    spec = scenario.grid_spec(config)
    grid = magmap.rasterize(model, **spec)
    out = _out_dir(args)
    magmap.save_map(grid, out / MAP_TRUE)
    scenario.save_config(config, out / "scenario.json")
    print(f"world: {grid.nx}x{grid.ny} nodes at {grid.resolution} m -> {out / MAP_TRUE}")
    return 0


def _trajectory(config) -> list:
    """Poses of the trajectory section, whose waypoints must lie on the map."""
    spec = scenario.grid_spec(config)
    extent_x = spec["origin"][0] + (spec["nx"] - 1) * spec["resolution"]
    extent_y = spec["origin"][1] + (spec["ny"] - 1) * spec["resolution"]
    for w in config.trajectory.waypoints:
        if not (spec["origin"][0] <= w[0] <= extent_x
                and spec["origin"][1] <= w[1] <= extent_y):
            raise ConfigurationError(f"waypoint {w} outside the mapped region")
    return sim.generate_trajectory(config.trajectory.waypoints,
                                   config.trajectory.speed,
                                   config.trajectory.frame_rate,
                                   config.trajectory.height)


def cmd_gen_dataset(args) -> int:
    config = _load_scenario(args)
    model = scenario.field_model(config)
    poses = _trajectory(config)
    rig = scenario.rig(config)
    calibs = scenario.true_calibrations(config)
    noise = scenario.noise_config(config)
    children = scenario.seed_children(config.seed)
    frames = sim.build_dataset(model, poses, config.trajectory.frame_rate,
                               rig, calibs, noise, children[2])
    positions = scenario.fingerprint_positions(config)
    fields = magmap.sample_field_many(model, positions)
    if config.fingerprints.noise_sigma > 0.0:
        fields = fields + children[3].normal(
            0.0, config.fingerprints.noise_sigma, size=fields.shape)
    fingerprints = [gpr.Fingerprint(p, b) for p, b in zip(positions, fields)]

    out = _out_dir(args)
    sim.write_dataset(frames, out / DATASET)
    gpr.write_fingerprints_csv(fingerprints, out / FINGERPRINTS)
    _write_json({
        "mode": config.distortion.mode,
        "thetas": [[float(v) for v in c.theta()] for c in calibs],
    }, out / TRUTH)
    scenario.save_config(config, out / "scenario.json")
    print(f"dataset: {len(frames)} frames, {len(fingerprints)} fingerprints -> {out}")
    return 0


def cmd_build_map(args) -> int:
    config = _load_scenario(args)
    fingerprints = gpr.read_fingerprints_csv(args.fingerprints)
    model = gpr.fit(fingerprints, scenario.kernel_params(config))
    grid = gpr.build_grid(model, **scenario.grid_spec(config))
    out = _out_dir(args)
    magmap.save_map(grid, out / MAP_GPR)
    print(f"map: fitted {len(fingerprints)} fingerprints -> {out / MAP_GPR}")
    return 0


def _solver_from_args(config, args) -> estimator.SolverConfig:
    overrides = {}
    if args.window_m is not None:
        overrides["window_m"] = args.window_m
    if args.no_window:
        overrides["window_m"] = 0.0
    if args.no_calib:
        overrides["calibrate"] = False
    if args.state_mask:
        overrides["state_mask"] = args.state_mask
    return scenario.solver_config(config, **overrides)


def cmd_run(args) -> int:
    config = _load_scenario(args)
    frames = sim.read_dataset(args.dataset)
    grid = magmap.load_map(args.map)
    solver = _solver_from_args(config, args)
    rig = scenario.rig(config)

    truth_path = Path(args.truth) if args.truth else Path(args.dataset).parent / TRUTH
    if args.precalibrated:
        if not truth_path.exists():
            raise ConfigurationError(
                f"--precalibrated needs the truth file {truth_path}")
        with open(truth_path) as f:
            thetas = json.load(f)["thetas"]
        calibs = [CalibrationParams.from_theta(np.asarray(t, float))
                  for t in thetas]
        if len(calibs) != frames[0].readings.shape[0]:
            raise ConfigurationError("truth file sensor count mismatch")
        for frame in frames:
            frame.readings = np.stack([
                c.c @ frame.readings[i] + c.b for i, c in enumerate(calibs)])

    output = estimator.run(frames, grid, rig, solver)
    out = _out_dir(args)
    estimator.write_trajectory_csv(output, out / TRAJECTORY)
    estimator.write_theta_trace_csv(output, out / THETA_TRACE)
    _write_json(estimator.summary_dict(output), out / RUN_SUMMARY)
    _write_json({
        "dataset": str(args.dataset),
        "map": str(args.map),
        "precalibrated": bool(args.precalibrated),
        "no_calib": bool(args.no_calib),
        "no_window": bool(args.no_window),
        "window_m": solver.window_m,
        "state_mask": solver.state_mask,
    }, out / RUN_CONFIG)
    print(f"run: {len(frames)} frames, "
          f"{int(output.fallbacks.sum())} fallbacks, "
          f"mean {output.frame_ms.mean():.1f} ms/frame -> {out}")
    return 0


def cmd_eval(args) -> int:
    run_dir = Path(args.run_dir)
    for name in (TRAJECTORY, RUN_SUMMARY, RUN_CONFIG):
        if not (run_dir / name).exists():
            raise ConfigurationError(f"run directory is missing {name}")
    frames = sim.read_dataset(args.dataset)
    columns = evaluate.read_trajectory_csv(run_dir / TRAJECTORY)
    with open(run_dir / RUN_SUMMARY) as f:
        summary = json.load(f)
    with open(run_dir / RUN_CONFIG) as f:
        run_config = json.load(f)

    n_sensors = summary["n_sensors"]
    if run_config.get("precalibrated"):
        theta_true = [sim.identity_theta() for _ in range(n_sensors)]
    else:
        truth_path = Path(args.truth) if args.truth else Path(args.dataset).parent / TRUTH
        if not truth_path.exists():
            raise ConfigurationError(f"missing truth file {truth_path}")
        with open(truth_path) as f:
            theta_true = [np.asarray(t, float) for t in json.load(f)["thetas"]]

    est_p = np.stack([columns["px"], columns["py"], columns["pz"]], axis=1)
    ref_t = np.array([f.t for f in frames])
    ref_p = np.stack([f.gt_p for f in frames])
    # Associate within half the dataset's frame period.
    max_dt = float(np.median(np.diff(ref_t))) / 2.0 if len(ref_t) > 1 else 0.05
    report = evaluate.evaluation_report(
        columns["t"], est_p, ref_t, ref_p,
        [np.asarray(t, float) for t in summary["final_thetas"]],
        theta_true, summary["mean_frame_ms"], max_dt=max_dt)
    # Fallback frames carry the ground-truth pose, which flatters the ATE.
    fallbacks = int(np.count_nonzero(columns["fallback"]))
    report["fallback_frames"] = fallbacks
    report["fallback_rate"] = fallbacks / len(columns["fallback"])
    # The ATE of the estimated frames alone, aligned on them.
    estimated = columns["fallback"] == 0
    try:
        report["ate_m_estimated"] = evaluate.ate(evaluate.pair_from_arrays(
            columns["t"][estimated], est_p[estimated], ref_t, ref_p),
            max_dt=max_dt)
    except AlignmentError:
        report["ate_m_estimated"] = None
    out = run_dir if args.out is None else _out_dir(args)
    _write_json(report, Path(out) / REPORT)
    print(f"eval: ATE {report['ate_m']:.3f} m, "
          f"calib err {report['calib_error_uT']['average']:.3f} uT -> {Path(out) / REPORT}")
    return 0


def cmd_pipeline(args) -> int:
    # Each step reads its scenario sections only after the steps before it
    # have written files; resolve every section before the first write.
    config = _load_scenario(args)
    scenario.field_model(config)
    _trajectory(config)
    scenario.fingerprint_positions(config)
    scenario.true_calibrations(config)
    scenario.noise_config(config)
    scenario.kernel_params(config)
    _solver_from_args(config, args)
    out = _out_dir(args)
    args.out = str(out)
    cmd_gen_world(args)
    cmd_gen_dataset(args)
    args.fingerprints = str(out / FINGERPRINTS)
    cmd_build_map(args)
    args.dataset = str(out / DATASET)
    args.map = str(out / MAP_GPR)
    args.truth = str(out / TRUTH)
    cmd_run(args)
    args.run_dir = str(out)
    args.out = None
    cmd_eval(args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magloc",
        description="Magnetometer-array localization and online calibration")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="scenario JSON (default: built-in reference)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("gen-world", help="rasterize the true field into a map file")
    common(p)
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("gen-dataset", help="simulate frames and fingerprints")
    common(p)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("build-map", help="GP-regress fingerprints into a map file")
    common(p)
    p.add_argument("--fingerprints", required=True)
    p.set_defaults(func=cmd_build_map)

    def run_flags(p):
        p.add_argument("--no-calib", action="store_true",
                       help="disable online calibration")
        p.add_argument("--no-window", action="store_true",
                       help="disable sequence accumulation")
        p.add_argument("--precalibrated", action="store_true",
                       help="apply the true calibration to readings first")
        p.add_argument("--window-m", type=float, default=None)
        p.add_argument("--state-mask", choices=("xy", "xyyaw"), default=None)
        p.add_argument("--truth", default=None, help="true_calibration.json path")

    p = sub.add_parser("run", help="online estimation over a dataset")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--map", required=True)
    run_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="metrics report for a finished run")
    p.add_argument("--config", help="scenario JSON (unused, accepted for symmetry)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--truth", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="gen-world, gen-dataset, build-map, run, eval")
    common(p)
    run_flags(p)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime / numeric failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
