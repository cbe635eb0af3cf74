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

from helpers import node_position


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


def reference_dipoles_with_first_at(z):
    """The reference world's dipoles, the first moved to height z."""
    dipoles = scenario.reference_config(7).world.dipoles
    dipoles[0]["position"][2] = z
    return dipoles


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
        assert ("fingerprints.sample_spacing must be a finite number > 0"
                in capsys.readouterr().err)

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
        assert ("fingerprints.line_spacing must be a finite number > 0"
                in proc.stderr)
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
            node = node_position(grid, i, j)[None]
            np.testing.assert_allclose(grid.values[i, j],
                                       gpr.predict_many(model, node)[0],
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
        ate = evaluate.ate(
            cols["t"], np.stack([cols["px"], cols["py"], cols["pz"]], axis=1),
            [f.t for f in frames], np.stack([f.gt_p for f in frames]))
        assert report["ate_m"] == pytest.approx(ate, abs=1e-12)
        summary = json.loads((out / "run_summary.json").read_text())
        assert report["fallback_frames"] == summary["fallback_frames"]
        assert report["fallback_rate"] == summary["fallback_frames"] / len(frames)
        assert np.shape(summary["calib_sigma"]) == (len(frames[0].readings), 4)

    def test_region_mismatch_exit_code(self, tmp_path, workdir):
        config_path, out = workdir
        # A map covering a disjoint region.
        cfg = small_config()
        cfg.world.origin = [100.0, 100.0]
        cfg.world.dipoles = []
        # Its trajectory must lie on its own map for the scenario to load.
        cfg.trajectory.waypoints = [[x + 100.0, y + 100.0]
                                    for x, y in cfg.trajectory.waypoints]
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

    def test_map_with_too_few_nodes_exit_1(self, tmp_path, workdir, capsys):
        # A malformed map file exits 1 like any other, not 2.
        config_path, out = workdir
        blob = bytearray((out / "map_true.mag").read_bytes())
        blob[40:44] = np.array(1, dtype="<u4").tobytes()  # nx
        bad = tmp_path / "bad.mag"
        bad.write_bytes(bytes(blob))
        run_out = tmp_path / "r"
        assert main(["run", "--config", config_path, "--out", str(run_out),
                     "--dataset", str(out / "dataset.jsonl"),
                     "--map", str(bad)]) == 1
        assert "header field nx is 1" in capsys.readouterr().err
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

    def test_ablations_recorded_in_scenario_json(self, workdir, tmp_path):
        # The ablations are set through the scenario's solver section, and
        # the run directory records that section; run_config.json holds
        # the run's inputs only.
        _, out = workdir
        for k, solver in enumerate(({"calibrate": False, "max_alternations": 3},
                                    {"window_m": 0.0})):
            path = tmp_path / "ablation.json"
            scenario.save_config(small_config(solver=solver), path)
            run_out = tmp_path / f"ablation_run{k}"
            assert main(["run", "--config", str(path), "--out", str(run_out),
                         "--dataset", str(out / "dataset.jsonl"),
                         "--map", str(out / "map_true.mag")]) == 0
            recorded = json.loads((run_out / "scenario.json").read_text())
            assert recorded["solver"] == solver
            summary = json.loads((run_out / "run_summary.json").read_text())
            calibrated = solver.get("calibrate", True)
            assert (summary["calib_sigma"] is None) == (not calibrated)
            run_config = json.loads((run_out / "run_config.json").read_text())
            assert sorted(run_config) == ["dataset", "map", "precalibrated",
                                          "truth"]

    def test_scenario_json_reproduces_the_run(self, tmp_path):
        # A run directory's scenario.json is enough to run it again: the
        # calibration trace and the trajectory, timings aside, come out the
        # same without the original scenario file.
        cfg = small_config(solver={"window_m": 0.3, "max_alternations": 4})
        path = tmp_path / "s.json"
        scenario.save_config(cfg, path)
        data = tmp_path / "d"
        main(["gen-world", "--config", str(path), "--out", str(data)])
        main(["gen-dataset", "--config", str(path), "--out", str(data)])
        inputs = ["--dataset", str(data / "dataset.jsonl"),
                  "--map", str(data / "map_true.mag")]
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(path), "--out", str(first),
                     *inputs]) == 0
        assert main(["run", "--config", str(first / "scenario.json"),
                     "--out", str(second), *inputs]) == 0
        assert ((first / "theta_trace.csv").read_bytes()
                == (second / "theta_trace.csv").read_bytes())
        a = evaluate.read_trajectory_csv(first / "trajectory.csv")
        b = evaluate.read_trajectory_csv(second / "trajectory.csv")
        assert set(a) == set(b)
        for column in set(a) - {"ms"}:
            np.testing.assert_array_equal(a[column], b[column])

    def test_other_scenario_json_refused_before_any_write(self, tmp_path,
                                                          capsys):
        # A directory records one scenario: running another into it exits
        # 2 naming its scenario.json and leaves every file as it was, while
        # the same scenario may be written again.
        path = tmp_path / "a.json"
        scenario.save_config(small_config(), path)
        out = tmp_path / "ow"
        for command in ("gen-world", "gen-dataset"):
            assert main([command, "--config", str(path), "--seed", "7",
                         "--out", str(out)]) == 0
        other = tmp_path / "b.json"
        scenario.save_config(small_config(seed=99,
                                          solver={"calibrate": False}), other)
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        inputs = ["--dataset", str(out / "dataset.jsonl"),
                  "--map", str(out / "map_true.mag")]
        assert main(["run", "--config", str(other), "--out", str(out),
                     *inputs]) == 2
        assert f"{out / 'scenario.json'} holds another scenario" in \
            capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        assert main(["run", "--config", str(path), "--seed", "7",
                     "--out", str(out), *inputs]) == 0
        assert (out / "scenario.json").read_bytes() == before["scenario.json"]

    def test_removed_run_flags_exit_2(self, workdir, tmp_path, capsys):
        # Solver settings come from the scenario alone: the old run flags
        # are unknown arguments, refused before anything is written.
        config_path, out = workdir
        run_out = tmp_path / "flag_run"
        for flag in (["--no-calib"], ["--no-window"], ["--window-m", "0.8"],
                     ["--state-mask", "xy"]):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--config", config_path, "--out", str(run_out),
                      "--dataset", str(out / "dataset.jsonl"),
                      "--map", str(out / "map_true.mag"), *flag])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(flag)}" in err
            assert not run_out.exists()

    # Truth files that once scored or precalibrated silently, or failed
    # with a numpy message: each maps the true thetas to a bad file body.
    BAD_TRUTH = {
        # 3 of the 8 sensors: eval scored 3 and exited 0.
        "three_of_eight": (lambda t: {"thetas": t[:3]},
                           "thetas must be 8 lists of 12 numbers"),
        # One number per sensor broadcast to every parameter.
        "one_number_each": (lambda t: {"thetas": [[0.0]] * 8},
                            "thetas must be 8 lists of 12 numbers"),
        "nan": (lambda t: {"thetas": [[float("nan")] + r[1:] for r in t]},
                "thetas[0][0] must be a finite number"),
        "bool": (lambda t: {"thetas": t[:2] + [r[:5] + [True] + r[6:]
                                               for r in t[2:]]},
                 "thetas[2][5] must be a finite number"),
        "no_thetas": (lambda t: {"mode": "identity"},
                      "thetas must be 8 lists of 12 numbers"),
        "not_json": (lambda t: "oops", "Expecting value"),
    }

    def _bad_truth(self, tmp_path, out, case):
        make, message = self.BAD_TRUTH[case]
        thetas = json.loads((out / "true_calibration.json").read_text())["thetas"]
        body = make(thetas)
        path = tmp_path / "bad_truth.json"
        path.write_text(body if isinstance(body, str) else json.dumps(body))
        return path, message

    @pytest.mark.parametrize("case", sorted(BAD_TRUTH))
    def test_bad_truth_eval_exit_2_without_report(self, tmp_path, workdir,
                                                  capsys, case):
        # eval takes the sensor count from run_summary.json.
        config_path, out = workdir
        run_out = tmp_path / "r"
        assert main(["run", "--config", config_path, "--out", str(run_out),
                     "--dataset", str(out / "dataset.jsonl"),
                     "--map", str(out / "map_true.mag")]) == 0
        before = sorted(f.name for f in run_out.iterdir())
        bad, message = self._bad_truth(tmp_path, out, case)
        capsys.readouterr()
        assert main(["eval", "--run-dir", str(run_out),
                     "--dataset", str(out / "dataset.jsonl"),
                     "--truth", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"truth file {bad}" in err and message in err
        assert sorted(f.name for f in run_out.iterdir()) == before

    @pytest.mark.parametrize("case", sorted(BAD_TRUTH))
    def test_bad_truth_precalibrated_run_exit_2_without_outputs(
            self, tmp_path, workdir, capsys, case):
        # run takes the sensor count from the scenario's rig.
        config_path, out = workdir
        bad, message = self._bad_truth(tmp_path, out, case)
        run_out = tmp_path / "r"
        assert main(["run", "--config", config_path, "--out", str(run_out),
                     "--dataset", str(out / "dataset.jsonl"),
                     "--map", str(out / "map_true.mag"),
                     "--precalibrated", "--truth", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"truth file {bad}" in err and message in err
        assert not run_out.exists()

    @pytest.mark.parametrize("n_sensors", [7, 9])
    def test_precalibrated_sensor_count_mismatch_exit_2(self, tmp_path, workdir,
                                                        capsys, n_sensors):
        # The truth file is read for the scenario's 8-sensor rig; a dataset
        # of another sensor count is refused, not precalibrated in part.
        config_path, out = workdir
        lines = []
        for line in (out / "dataset.jsonl").read_text().splitlines():
            record = json.loads(line)
            record["readings"] = (record["readings"] * 2)[:3 * n_sensors]
            lines.append(json.dumps(record))
        other = tmp_path / "other.jsonl"
        other.write_text("\n".join(lines) + "\n")
        run_out = tmp_path / "r"
        assert main(["run", "--config", config_path, "--out", str(run_out),
                     "--dataset", str(other), "--map", str(out / "map_true.mag"),
                     "--precalibrated",
                     "--truth", str(out / "true_calibration.json")]) == 2
        assert "rig size does not match" in capsys.readouterr().err
        assert not run_out.exists()

    def test_precalibrated_empty_dataset_exit_2(self, tmp_path, workdir, capsys):
        # The sensor count once came from the first frame, so an empty
        # dataset failed with an IndexError (exit 1) under --precalibrated.
        config_path, out = workdir
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        run_out = tmp_path / "r"
        assert main(["run", "--config", config_path, "--out", str(run_out),
                     "--dataset", str(empty), "--map", str(out / "map_true.mag"),
                     "--precalibrated",
                     "--truth", str(out / "true_calibration.json")]) == 2
        assert "empty dataset" in capsys.readouterr().err
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

    # flags: pipeline arguments besides the scenario; the run flags left
    # do not bypass the check.
    @pytest.mark.parametrize("solver, flags, name", [
        ({"window_m": -1.0}, ["--precalibrated"], "window_m"),
        ({"window_m": float("nan")}, [], "window_m"),
        ({"max_alternations": 0}, [], "max_alternations"),
        ({"max_alternations": 2.5}, [], "max_alternations"),
        ({"gn_iters_per_round": 0}, [], "gn_iters_per_round"),
        ({"gn_damping": -1.0}, [], "gn_damping"),
        ({"pose_tol_m": -1e-4}, [], "pose_tol_m"),
        ({"pose_tol_rad": -1e-4}, [], "pose_tol_rad"),
        ({"meas_sigma": -1.0}, [], "meas_sigma"),
        # The state mask is no solver setting any more: an unknown key.
        ({"state_mask": "full"}, [], "state_mask"),
        ({"state_mask": [True] * 6}, [], "state_mask"),
        # A non-empty string is truthy: "false" would turn calibration on.
        ({"calibrate": "false"}, [], "calibrate"),
        # No norm compares above NaN: it would turn the fallback off.
        ({"divergence_residual": float("nan")}, [], "divergence_residual"),
        ({"divergence_residual": "10"}, [], "divergence_residual"),
        ({"divergence_residual": -1.0}, [], "divergence_residual"),
        ({"window_m": "0.5"}, [], "window_m"),
        ({"meas_sigma": True}, [], "meas_sigma"),
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
        ("noise_var", 0.0), ("noise_var", -0.04), ("lengthscale", 0.0),
        ("lengthscale", "1.0"), ("signal_var", True)])
    def test_bad_gpr_value_exit_2_before_any_write(self, tmp_path, capsys,
                                                   key, value):
        cfg = small_config()
        cfg.gpr[key] = value
        path = tmp_path / "bad.json"
        scenario.save_config(cfg, path)
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 2
        assert (f"gpr.{key} must be a finite number > 0"
                in capsys.readouterr().err)
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("section, key, message", [
        ("trajectory", "speed", "trajectory.speed must be a finite number > 0"),
        ("trajectory", "height", "trajectory.height must be a finite number"),
        ("fingerprints", "margin", "fingerprints.margin must be a finite number"),
        ("world", "resolution", "world.resolution must be a finite number > 0"),
        ("noise", "odom_trans_sigma",
         "noise.odom_trans_sigma must be a finite number >= 0")])
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

    @pytest.mark.parametrize("key, value, message", [
        ("line_spacing", "0.5",
         "fingerprints.line_spacing must be a finite number > 0"),
        ("sample_spacing", True,
         "fingerprints.sample_spacing must be a finite number > 0"),
        ("margin", "1.0", "fingerprints.margin must be a finite number"),
        ("noise_sigma", None,
         "fingerprints.noise_sigma must be a finite number >= 0"),
        ("noise_sigma", -0.2,
         "fingerprints.noise_sigma must be a finite number >= 0")])
    def test_bad_fingerprint_value_exit_2_before_any_write(
            self, tmp_path, capsys, key, value, message):
        # A string once failed only at the comparison, with a message that
        # named no key, and true passed as 1.0.
        data = small_config().to_dict()
        data["fingerprints"][key] = value
        with pytest.raises(ConfigurationError, match=message):
            scenario.ScenarioConfig.from_dict(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("seed", [7.9, True, "7", -1])
    def test_non_integer_seed_exit_2(self, tmp_path, capsys, seed):
        # int() would run seed 7 or 1, a world the user did not ask for.
        data = small_config().to_dict()
        data["seed"] = seed
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            scenario.ScenarioConfig.from_dict(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 2
        assert "seed must be an integer" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key, value, named", [
        ("trajectory.speed", "0.5", "trajectory.speed"),
        ("trajectory.frame_rate", None, "trajectory.frame_rate"),
        ("world.resolution", "0.1", "world.resolution"),
        ("world.nx", "151", "world.nx"),
        ("world.origin", [0.0], "world.origin"),
        ("trajectory.waypoints", [[2.5, 2.5], [3.0]], "trajectory.waypoints[1]"),
        ("rig", [{}], "rig[0].rotvec"),
        ("world.dipoles", [{}], "world.dipoles[0].position"),
        ("distortion.bias_range", [20, -20], "distortion.bias_range"),
        ("distortion.diag_range", "ab", "distortion.diag_range"),
        ("distortion.offdiag_range", [-0.05, 0.05, 0.1],
         "distortion.offdiag_range"),
        ("--seed", -1, "--seed"),
        ("trajectory.speed", True, "trajectory.speed"),
        ("world.nx", 151.7, "world.nx"),
        ("world.plane_height", True, "world.plane_height"),
        ("world.earth_field", ["18", "4", "-44"], "world.earth_field[0]"),
        ("noise.odom_trans_sigma", True, "noise.odom_trans_sigma"),
        ("noise.odom_rot_sigma", "0.005", "noise.odom_rot_sigma"),
        ("world.nx", 1, "world.nx"),
        ("rig", [], "rig"),
        # Within one cell of the map: rasterize once refused it only after
        # the output directory was made, naming no key.
        ("world.dipoles", reference_dipoles_with_first_at(-0.05),
         "world.dipoles[0].position"),
    ])
    def test_malformed_value_exit_2_naming_its_key(self, tmp_path, capsys,
                                                   key, value, named):
        # Each once exited 1 with a stray type or index error, ran with a
        # value nobody asked for, or exited 2 naming no key.
        out = tmp_path / "p"
        if key.startswith("--"):
            argv = ["gen-world", key, str(value), "--out", str(out)]
        else:
            data = scenario.reference_config(7).to_dict()
            *sections, leaf = key.split(".")
            target = data
            for section in sections:
                target = target[section]
            target[leaf] = value
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(data))
            argv = ["pipeline", "--config", str(path), "--out", str(out)]
        assert main(argv) == 2
        assert f"configuration error: {named} must" in capsys.readouterr().err
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
        ate = evaluate.ate(
            cols["t"][keep],
            np.stack([cols["px"], cols["py"], cols["pz"]], axis=1)[keep],
            [f.t for f in frames], np.stack([f.gt_p for f in frames]))
        assert report["ate_m_estimated"] == pytest.approx(ate, abs=1e-12)
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
