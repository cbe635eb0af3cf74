"""Command-line pipeline: world synthesis, dataset simulation, GP map
building, online estimation, and evaluation.

Every subcommand validates its inputs before creating any output file and
materializes the scenario it ran with into the output directory
(`scenario.json`).  An output directory whose `scenario.json` names another
scenario is refused (exit 2, nothing written), so a directory's files all
come from the one scenario it records.  The scenario is checked whole when
it is loaded, the `--seed` override through the same number rule, so
nothing is left to check before the first write.  Solver settings, the
paper's ablations among them, come from the scenario's `solver` section
alone; `run` and `pipeline` take only the run's inputs as flags.
Exit codes: 0 success, 1 runtime/numeric failure, 2 configuration error.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import estimator, evaluate, gpr, magmap, scenario, sim
from .errors import AlignmentError, ConfigurationError, check_number
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
SCENARIO = "scenario.json"


def _write_json(data: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _read_truth(path: Path, n_sensors: int) -> list:
    """The (12,) true calibrations of a truth file, whose `thetas` must be
    exactly n_sensors lists of 12 finite numbers; anything else is refused
    naming the file, before the command writes."""
    if not path.exists():
        raise ConfigurationError(f"missing truth file {path}")
    try:
        with open(path) as f:
            data = json.load(f)
        thetas = data.get("thetas") if isinstance(data, dict) else None
        if not (isinstance(thetas, list) and len(thetas) == n_sensors
                and all(isinstance(t, list) and len(t) == 12 for t in thetas)):
            raise ConfigurationError(
                f"thetas must be {n_sensors} lists of 12 numbers")
        for k, theta in enumerate(thetas):
            for i, value in enumerate(theta):
                check_number(f"thetas[{k}][{i}]", value)
    except ValueError as exc:  # bad JSON, or a ConfigurationError above
        raise ConfigurationError(f"truth file {path}: {exc}") from exc
    return [np.asarray(t, dtype=float) for t in thetas]


def _load_scenario(args) -> scenario.ScenarioConfig:
    """The command's scenario.  A `scenario.json` in `--out` that differs
    from it is refused here, before any work, so that a directory never
    holds files of two scenarios."""
    if args.seed is not None:
        check_number("--seed", args.seed, integer=True, at_least=0)
    if not args.config:
        config = scenario.reference_config(args.seed if args.seed is not None else 7)
    else:
        config = scenario.load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
    path = Path(args.out) / SCENARIO
    if path.exists() and path.read_text() != scenario.config_json(config):
        raise ConfigurationError(
            f"{path} holds another scenario; choose another --out")
    return config


def _out_dir(args, config: scenario.ScenarioConfig) -> Path:
    """The output directory, made if missing, with the command's
    `scenario.json` written into it."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario.save_config(config, out / SCENARIO)
    return out


def cmd_gen_world(args) -> int:
    config = _load_scenario(args)
    model = scenario.field_model(config)
    spec = scenario.grid_spec(config)
    grid = magmap.rasterize(model, **spec)
    out = _out_dir(args, config)
    magmap.save_map(grid, out / MAP_TRUE)
    print(f"world: {grid.nx}x{grid.ny} nodes at {grid.resolution} m -> {out / MAP_TRUE}")
    return 0


def cmd_gen_dataset(args) -> int:
    config = _load_scenario(args)
    model = scenario.field_model(config)
    poses = sim.generate_trajectory(config.trajectory.waypoints,
                                    config.trajectory.speed,
                                    config.trajectory.frame_rate,
                                    config.trajectory.height)
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

    out = _out_dir(args, config)
    sim.write_dataset(frames, out / DATASET)
    gpr.write_fingerprints_csv(fingerprints, out / FINGERPRINTS)
    _write_json({
        "mode": config.distortion.mode,
        "thetas": [[float(v) for v in c.theta()] for c in calibs],
    }, out / TRUTH)
    print(f"dataset: {len(frames)} frames, {len(fingerprints)} fingerprints -> {out}")
    return 0


def cmd_build_map(args) -> int:
    config = _load_scenario(args)
    fingerprints = gpr.read_fingerprints_csv(args.fingerprints)
    model = gpr.fit(fingerprints, scenario.kernel_params(config))
    grid = gpr.build_grid(model, **scenario.grid_spec(config))
    out = _out_dir(args, config)
    magmap.save_map(grid, out / MAP_GPR)
    print(f"map: fitted {len(fingerprints)} fingerprints -> {out / MAP_GPR}")
    return 0


def cmd_run(args) -> int:
    config = _load_scenario(args)
    frames = sim.read_dataset(args.dataset)
    grid = magmap.load_map(args.map)
    rig = scenario.rig(config)

    truth_path = Path(args.truth) if args.truth else Path(args.dataset).parent / TRUTH
    if args.precalibrated:
        calibs = [CalibrationParams.from_theta(t)
                  for t in _read_truth(truth_path, len(rig))]
        if frames and len(frames[0].readings) != len(rig):
            raise ConfigurationError("rig size does not match dataset sensor count")
        for frame in frames:
            frame.readings = np.stack([
                c.c @ b + c.b for c, b in zip(calibs, frame.readings)])

    output = estimator.run(frames, grid, rig, scenario.solver_config(config))
    out = _out_dir(args, config)
    estimator.write_trajectory_csv(output, out / TRAJECTORY)
    estimator.write_theta_trace_csv(output, out / THETA_TRACE)
    _write_json(estimator.summary_dict(output), out / RUN_SUMMARY)
    _write_json({
        "dataset": str(args.dataset),
        "map": str(args.map),
        "truth": str(truth_path) if args.precalibrated else None,
        "precalibrated": bool(args.precalibrated),
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
        theta_true = _read_truth(truth_path, n_sensors)

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
        report["ate_m_estimated"] = evaluate.ate(
            columns["t"][estimated], est_p[estimated], ref_t, ref_p, max_dt)
    except AlignmentError:
        report["ate_m_estimated"] = None
    out = run_dir if args.out is None else Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(report, out / REPORT)
    print(f"eval: ATE {report['ate_m']:.3f} m, "
          f"calib err {report['calib_error_uT']['average']:.3f} uT -> {out / REPORT}")
    return 0


def cmd_pipeline(args) -> int:
    out = Path(args.out)
    cmd_gen_world(args)  # loading the scenario checks it before any write
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
        p.add_argument("--precalibrated", action="store_true",
                       help="apply the true calibration to readings first")
        p.add_argument("--truth", default=None, help="true_calibration.json path")

    p = sub.add_parser("run", help="online estimation over a dataset")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--map", required=True)
    run_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="metrics report for a finished run")
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
