import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magloc
from magloc import evaluate, gpr, magmap, scenario, sim
from magloc.cli import main
from magloc.errors import ConfigurationError


def small_config(seed=3, **kw):
    world = scenario.WorldConfig(
        earth_field=[18.0, 4.0, -44.0],
        dipoles=[
            {"position": [1.5, 3.8, -1.2], "moment": [40.0, -60.0, 90.0]},
            {"position": [4.5, 1.2, -1.0], "moment": [-70.0, 30.0, 60.0]},
        ],
        origin=[0.0, 0.0], resolution=0.1, nx=61, ny=51)
    trajectory = scenario.TrajectoryConfig(
        waypoints=[[1.0, 1.0], [5.0, 1.0], [5.0, 4.0]], speed=0.5, frame_rate=10.0)
    cfg = scenario.ScenarioConfig(seed=seed, world=world, trajectory=trajectory)
    cfg.fingerprints.line_spacing = 0.5
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    scenario.save_config(small_config(), path)
    return str(path)


class TestGenWorld:
    def test_minimal_config_produces_loadable_map(self, tmp_path, config_path):
        out = tmp_path / "w"
        assert main(["gen-world", "--config", config_path, "--out", str(out)]) == 0
        grid = magmap.load_map(out / "map_true.mag")
        assert (grid.nx, grid.ny) == (61, 51)

    def test_same_seed_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["gen-world", "--config", config_path, "--out", str(out1)])
        main(["gen-world", "--config", config_path, "--out", str(out2)])
        assert (out1 / "map_true.mag").read_bytes() == (out2 / "map_true.mag").read_bytes()

    def test_dipole_inside_grid_exit_2(self, tmp_path):
        cfg = small_config()
        cfg.world.dipoles[0]["position"] = [3.0, 2.5, 0.0]
        path = tmp_path / "bad.json"
        scenario.save_config(cfg, path)
        assert main(["gen-world", "--config", str(path),
                     "--out", str(tmp_path / "w")]) == 2


class TestGenDataset:
    def test_frame_count(self, tmp_path):
        cfg = small_config()
        cfg.trajectory.waypoints = [[1.0, 1.0], [1.9, 1.0]]
        path = tmp_path / "s.json"
        scenario.save_config(cfg, path)
        out = tmp_path / "d"
        assert main(["gen-dataset", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "dataset.jsonl").read_text().strip().split("\n")
        # 0.9 m at 0.05 m per sample -> 18 increments plus the start frame.
        assert len(lines) == 19

    def test_fingerprint_count_arithmetic(self, tmp_path, config_path):
        out = tmp_path / "d"
        main(["gen-dataset", "--config", config_path, "--out", str(out)])
        fps = gpr.read_fingerprints_csv(out / "fingerprints.csv")
        cfg = small_config()
        positions = scenario.fingerprint_positions(cfg)
        assert len(fps) == len(positions)
        # Coverage path sampled every sample_spacing along its length.
        waypoints = scenario.coverage_waypoints(cfg)
        total = sum(np.linalg.norm(np.subtract(b, a))
                    for a, b in zip(waypoints[:-1], waypoints[1:]))
        expected = int(np.floor(total / cfg.fingerprints.sample_spacing + 1e-9)) + 1
        assert len(fps) == expected

    @pytest.mark.parametrize("spacing", [0.0, -0.25])
    def test_bad_sample_spacing_exit_2(self, tmp_path, capsys, spacing):
        cfg = small_config()
        cfg.fingerprints.sample_spacing = spacing
        with pytest.raises(ConfigurationError):
            scenario.fingerprint_positions(cfg)
        path = tmp_path / "s.json"
        scenario.save_config(cfg, path)
        out = tmp_path / "d"
        assert main(["gen-dataset", "--config", str(path), "--out", str(out)]) == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("spacing", [0.0, -0.5])
    def test_bad_line_spacing_exit_2_before_any_write(self, tmp_path, spacing):
        # Run in a subprocess with a timeout: a coverage path that steps by
        # a non-positive line spacing never ends.
        cfg = small_config()
        cfg.fingerprints.line_spacing = spacing
        path = tmp_path / "s.json"
        scenario.save_config(cfg, path)
        out = tmp_path / "p"
        src = str(Path(magloc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "magloc.cli", "pipeline",
             "--config", str(path), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "fingerprints.line_spacing must be positive" in proc.stderr
        assert not out.exists()
        with pytest.raises(ConfigurationError, match="line_spacing"):
            scenario.coverage_waypoints(cfg)

    def test_reseed_changes_noise_not_gt(self, tmp_path, config_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        main(["gen-dataset", "--config", config_path, "--out", str(out1)])
        main(["gen-dataset", "--config", config_path, "--seed", "99",
              "--out", str(out2)])
        a = sim.read_dataset(out1 / "dataset.jsonl")
        b = sim.read_dataset(out2 / "dataset.jsonl")
        assert len(a) == len(b)
        gt_equal = all(np.array_equal(x.gt_p, y.gt_p) for x, y in zip(a, b))
        readings_equal = all(np.array_equal(x.readings, y.readings)
                             for x, y in zip(a, b))
        assert gt_equal and not readings_equal


class TestBuildMap:
    def test_nodes_match_gpr_predictions(self, tmp_path, config_path):
        out = tmp_path / "d"
        main(["gen-dataset", "--config", config_path, "--out", str(out)])
        assert main(["build-map", "--config", config_path,
                     "--fingerprints", str(out / "fingerprints.csv"),
                     "--out", str(out)]) == 0
        grid = magmap.load_map(out / "map_gpr.mag")
        fps = gpr.read_fingerprints_csv(out / "fingerprints.csv")
        cfg = small_config()
        model = gpr.fit(fps, scenario.kernel_params(cfg))
        for i, j in ((0, 0), (30, 25), (60, 50)):
            np.testing.assert_allclose(grid.values[i, j],
                                       gpr.predict_many(
                                           model, grid.node_position(i, j)[None])[0],
                                       atol=1e-10)

    def test_empty_fingerprints_fail(self, tmp_path, config_path):
        path = tmp_path / "fp.csv"
        path.write_text("x,y,z,bx,by,bz\n")
        assert main(["build-map", "--config", config_path,
                     "--fingerprints", str(path),
                     "--out", str(tmp_path / "m")]) != 0

    def test_non_finite_fingerprint_exit_1(self, tmp_path, config_path, capsys):
        out = tmp_path / "d"
        main(["gen-dataset", "--config", config_path, "--out", str(out)])
        path = out / "fingerprints.csv"
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[4] = "nan"
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert main(["build-map", "--config", config_path,
                     "--fingerprints", str(path), "--out", str(out)]) == 1
        assert ("fingerprint index 2 has a non-finite position or field"
                in capsys.readouterr().err)
        assert not (out / "map_gpr.mag").exists()

    def test_unparsable_fingerprint_names_its_line_exit_1(self, tmp_path,
                                                           config_path, capsys):
        path = tmp_path / "fp.csv"
        path.write_text("x,y,z,bx,by,bz\n"
                        "1.0,1.0,0.0,18.0,4.0,-44.0\n"
                        "1.5,1.0,0.0,oops,4.0,-44.0\n")
        out = tmp_path / "m"
        assert main(["build-map", "--config", config_path,
                     "--fingerprints", str(path), "--out", str(out)]) == 1
        assert "fingerprint line 3: cannot parse 'oops'" in capsys.readouterr().err
        assert not out.exists()

    def test_off_plane_fingerprint_exit_1(self, tmp_path, config_path, capsys):
        path = tmp_path / "fp.csv"
        path.write_text("x,y,z,bx,by,bz\n"
                        "1.0,1.0,0.0,18.0,4.0,-44.0\n"
                        "1.5,1.0,0.0,18.0,4.0,-44.0\n"
                        "2.0,1.0,0.2,18.0,4.0,-44.0\n")
        out = tmp_path / "m"
        assert main(["build-map", "--config", config_path,
                     "--fingerprints", str(path), "--out", str(out)]) == 1
        assert ("fingerprint index 2 at z = 0.2 is off the plane"
                in capsys.readouterr().err)
        assert not out.exists()


class TestRunAndEval:
    @pytest.fixture
    def workdir(self, tmp_path):
        cfg = small_config(distortion=scenario.DistortionConfig(mode="identity"))
        cfg.noise = {"meas_sigma": 0.0, "odom_trans_sigma": 0.0,
                     "odom_rot_sigma": 0.0}
        cfg.fingerprints.noise_sigma = 0.0
        path = tmp_path / "s.json"
        scenario.save_config(cfg, path)
        out = tmp_path / "run"
        main(["gen-world", "--config", str(path), "--out", str(out)])
        main(["gen-dataset", "--config", str(path), "--out", str(out)])
        return str(path), out

    def test_clean_dataset_near_zero_ate(self, workdir):
        config_path, out = workdir
        assert main(["run", "--config", config_path, "--out", str(out),
                     "--dataset", str(out / "dataset.jsonl"),
                     "--map", str(out / "map_true.mag")]) == 0
        assert main(["eval", "--run-dir", str(out),
                     "--dataset", str(out / "dataset.jsonl")]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["ate_m"] < 0.01
        assert report["frame_class_counts"]["failed"] == 0
        # Estimated, not substituted: no frame takes the reference pose.
        assert report["fallback_frames"] == 0

    def test_report_matches_eval_module(self, workdir):
        config_path, out = workdir
        main(["run", "--config", config_path, "--out", str(out),
              "--dataset", str(out / "dataset.jsonl"),
              "--map", str(out / "map_true.mag")])
        main(["eval", "--run-dir", str(out),
              "--dataset", str(out / "dataset.jsonl")])
        report = json.loads((out / "report.json").read_text())
        cols = evaluate.read_trajectory_csv(out / "trajectory.csv")
        frames = sim.read_dataset(out / "dataset.jsonl")
        pair = evaluate.pair_from_arrays(
            cols["t"], np.stack([cols["px"], cols["py"], cols["pz"]], axis=1),
            [f.t for f in frames], np.stack([f.gt_p for f in frames]))
        assert report["ate_m"] == pytest.approx(evaluate.ate(pair), abs=1e-12)
        summary = json.loads((out / "run_summary.json").read_text())
        assert report["fallback_frames"] == summary["fallback_frames"]
        assert report["fallback_rate"] == summary["fallback_frames"] / len(frames)

    def test_region_mismatch_exit_code(self, tmp_path, workdir):
        config_path, out = workdir
        # A map covering a disjoint region.
        cfg = small_config()
        cfg.world.origin = [100.0, 100.0]
        cfg.world.dipoles = []
        other = tmp_path / "other.json"
        scenario.save_config(cfg, other)
        main(["gen-world", "--config", str(other), "--out", str(tmp_path / "ow")])
        code = main(["run", "--config", config_path, "--out", str(out),
                     "--dataset", str(out / "dataset.jsonl"),
                     "--map", str(tmp_path / "ow" / "map_true.mag")])
        assert code == 2

    def test_non_finite_dataset_exit_1_without_outputs(self, tmp_path, workdir,
                                                       capsys):
        config_path, out = workdir
        lines = (out / "dataset.jsonl").read_text().splitlines()
        record = json.loads(lines[5])
        record["readings"][4] = float("nan")
        lines[5] = json.dumps(record)  # written as a bare NaN, valid for json
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        run_out = tmp_path / "nan_run"
        assert main(["run", "--config", config_path, "--out", str(run_out),
                     "--dataset", str(bad),
                     "--map", str(out / "map_true.mag")]) == 1
        assert "frame 5" in capsys.readouterr().err
        assert not run_out.exists()

    @pytest.mark.parametrize("corrupt, message", [
        ("resolution", "header field resolution"), ("block", "node (20, 10)")])
    def test_non_finite_map_exit_1_without_outputs(self, tmp_path, workdir,
                                                   capsys, corrupt, message):
        # A NaN resolution once made every frame fall back, and a block of
        # NaN nodes crashed the estimator on a NaN yaw.
        config_path, out = workdir
        grid = magmap.load_map(out / "map_true.mag")
        if corrupt == "resolution":
            grid.resolution = float("nan")
        else:
            grid.values[20:30, 10:20] = np.nan
        bad = tmp_path / "bad.mag"
        magmap.save_map(grid, bad)
        run_out = tmp_path / "nan_map_run"
        assert main(["run", "--config", config_path, "--out", str(run_out),
                     "--dataset", str(out / "dataset.jsonl"),
                     "--map", str(bad)]) == 1
        assert message in capsys.readouterr().err
        assert not run_out.exists()

    @pytest.mark.parametrize("key, q", [("dq", [1.0, 1.0, 0.0, 0.0]),
                                        ("gt_q", [0.9, 0.0, 0.0, 0.1])])
    def test_non_planar_rotation_exit_1_without_outputs(self, tmp_path, workdir,
                                                        capsys, key, q):
        # A hand-edited rotation that is not a unit quaternion about z.
        config_path, out = workdir
        lines = (out / "dataset.jsonl").read_text().splitlines()
        record = json.loads(lines[5])
        record[key] = q
        lines[5] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        run_out = tmp_path / "tilted_run"
        assert main(["run", "--config", config_path, "--out", str(run_out),
                     "--dataset", str(bad),
                     "--map", str(out / "map_true.mag")]) == 1
        assert "frame 5" in capsys.readouterr().err
        assert not run_out.exists()

    def test_header_only_trajectory_exit_2(self, workdir):
        config_path, out = workdir
        assert main(["run", "--config", config_path, "--out", str(out),
                     "--dataset", str(out / "dataset.jsonl"),
                     "--map", str(out / "map_true.mag")]) == 0
        (out / "trajectory.csv").write_text(
            "t,px,py,pz,yaw,fallback,iters,resid,ms\n")
        assert main(["eval", "--run-dir", str(out),
                     "--dataset", str(out / "dataset.jsonl")]) == 2

    @pytest.mark.parametrize("n_frames", [1, 2])
    def test_too_few_frames_run_but_eval_exit_1(self, tmp_path, workdir, capsys,
                                                n_frames):
        # A one- or two-frame dataset runs; scoring it needs three associated
        # positions, so eval fails at run time and writes no report.
        config_path, out = workdir
        lines = (out / "dataset.jsonl").read_text().splitlines()
        short = tmp_path / "short.jsonl"
        short.write_text("\n".join(lines[:n_frames]) + "\n")
        run_out = tmp_path / "short_run"
        assert main(["run", "--config", config_path, "--out", str(run_out),
                     "--dataset", str(short),
                     "--map", str(out / "map_true.mag")]) == 0
        capsys.readouterr()
        assert main(["eval", "--run-dir", str(run_out), "--dataset", str(short),
                     "--truth", str(out / "true_calibration.json")]) == 1
        assert f"only {n_frames} associated positions" in capsys.readouterr().err
        assert not (run_out / "report.json").exists()

    def test_ablation_flags_recorded(self, workdir):
        config_path, out = workdir
        main(["run", "--config", config_path, "--out", str(out),
              "--dataset", str(out / "dataset.jsonl"),
              "--map", str(out / "map_true.mag"),
              "--no-calib", "--no-window", "--window-m", "0.8"])
        run_config = json.loads((out / "run_config.json").read_text())
        assert run_config["no_calib"] and run_config["no_window"]
        assert run_config["window_m"] == 0.0  # no-window wins over window-m

    def test_state_mask_recorded(self, workdir):
        config_path, out = workdir
        assert main(["run", "--config", config_path, "--out", str(out),
                     "--dataset", str(out / "dataset.jsonl"),
                     "--map", str(out / "map_true.mag"),
                     "--state-mask", "xy"]) == 0
        run_config = json.loads((out / "run_config.json").read_text())
        assert run_config["state_mask"] == "xy"

    def test_state_mask_full_exit_2(self, workdir, tmp_path):
        config_path, out = workdir
        run_out = tmp_path / "full_run"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", config_path, "--out", str(run_out),
                  "--dataset", str(out / "dataset.jsonl"),
                  "--map", str(out / "map_true.mag"), "--state-mask", "full"])
        assert exc.value.code == 2
        assert not run_out.exists()

    def test_precalibrated_flag(self, tmp_path):
        cfg = small_config()
        cfg.noise = {"meas_sigma": 0.0, "odom_trans_sigma": 0.0,
                     "odom_rot_sigma": 0.0}
        cfg.fingerprints.noise_sigma = 0.0
        path = tmp_path / "s.json"
        scenario.save_config(cfg, path)
        out = tmp_path / "p"
        main(["gen-world", "--config", str(path), "--out", str(out)])
        main(["gen-dataset", "--config", str(path), "--out", str(out)])
        assert main(["run", "--config", str(path), "--out", str(out),
                     "--dataset", str(out / "dataset.jsonl"),
                     "--map", str(out / "map_true.mag"),
                     "--precalibrated"]) == 0
        main(["eval", "--run-dir", str(out),
              "--dataset", str(out / "dataset.jsonl")])
        report = json.loads((out / "report.json").read_text())
        # Undistorted readings: estimates stay near identity.  The
        # calibration absorbs the bias of the bilinear 0.1 m map (0.250 uT
        # measured, every frame estimated).
        assert report["fallback_frames"] == 0
        assert report["calib_error_uT"]["average"] < 0.3
        assert report["ate_m"] < 0.02


class TestPipeline:
    def test_removed_solver_key_exit_2(self, tmp_path, capsys):
        # A solver key SolverConfig does not define, such as the paper's
        # SGD rate eta, is rejected rather than silently ignored.
        path = tmp_path / "old.json"
        scenario.save_config(small_config(solver={"eta": 0.001}), path)
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 2
        assert "eta" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("solver, flags, name", [
        ({}, ["--window-m", "-1"], "window_m"),
        ({"window_m": float("nan")}, [], "window_m"),
        ({"max_alternations": 0}, [], "max_alternations"),
        ({"max_alternations": 2.5}, [], "max_alternations"),
        ({"gn_iters_per_round": 0}, [], "gn_iters_per_round"),
        ({"gn_damping": -1.0}, [], "gn_damping"),
        ({"pose_tol_m": -1e-4}, [], "pose_tol_m"),
        ({"pose_tol_rad": -1e-4}, [], "pose_tol_rad"),
        ({"meas_sigma": -1.0}, [], "meas_sigma"),
        ({"state_mask": "full"}, [], "state_mask"),
        ({"state_mask": [True] * 6}, [], "state_mask"),
    ])
    def test_bad_solver_value_exit_2_before_any_write(self, tmp_path, capsys,
                                                      solver, flags, name):
        path = tmp_path / "bad.json"
        scenario.save_config(small_config(solver=solver), path)
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(path), "--out", str(out),
                     *flags]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key, value", [
        ("noise_var", 0.0), ("noise_var", -0.04), ("lengthscale", 0.0)])
    def test_bad_gpr_value_exit_2_before_any_write(self, tmp_path, capsys,
                                                   key, value):
        cfg = small_config()
        cfg.gpr[key] = value
        path = tmp_path / "bad.json"
        scenario.save_config(cfg, path)
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 2
        assert f"{key} must be positive" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("section, key, message", [
        ("trajectory", "speed", "speed and frame_rate must be positive"),
        ("trajectory", "height", "height finite"),
        ("fingerprints", "margin", "fingerprints.margin nan leaves no interior"),
        ("world", "resolution", "world.resolution must be positive"),
        ("noise", "odom_trans_sigma", "noise sigmas must be non-negative")])
    def test_non_finite_scenario_value_exit_2_before_any_write(
            self, tmp_path, capsys, section, key, message):
        # Each of these once passed its check and failed only after
        # gen-world had written map_true.mag.
        data = small_config().to_dict()
        data[section][key] = float("nan")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_ate_of_estimated_frames(self, tmp_path):
        # The reference pipeline substitutes the reference pose at one
        # frame; ate_m_estimated leaves it out of both the alignment and
        # the error.
        out = tmp_path / "ref"
        assert main(["pipeline", "--seed", "7", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fallback_frames"] == 1
        cols = evaluate.read_trajectory_csv(out / "trajectory.csv")
        keep = cols["fallback"] == 0
        frames = sim.read_dataset(out / "dataset.jsonl")
        pair = evaluate.pair_from_arrays(
            cols["t"][keep],
            np.stack([cols["px"], cols["py"], cols["pz"]], axis=1)[keep],
            [f.t for f in frames], np.stack([f.gt_p for f in frames]))
        assert report["ate_m_estimated"] == pytest.approx(evaluate.ate(pair),
                                                          abs=1e-12)
        assert report["ate_m_estimated"] != report["ate_m"]

    def test_ate_of_estimated_frames_null_when_all_fall_back(self, tmp_path):
        path = tmp_path / "s.json"
        scenario.save_config(small_config(solver={"divergence_residual": 0}),
                             path)
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fallback_rate"] == 1.0
        assert report["ate_m_estimated"] is None

    def test_end_to_end_determinism(self, tmp_path, config_path):
        outs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            assert main(["pipeline", "--config", config_path,
                         "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            report.pop("mean_frame_ms")
            outs.append(json.dumps(report, sort_keys=True))
        assert outs[0] == outs[1]
