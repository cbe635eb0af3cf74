"""Self-test of the benchmark at a short run length.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the workloads and metrics the benchmark
emits, runs every workload untraced once and traced twice on the first
FRAMES frames, and checks that every metric is emitted with its unit, that
the two traced runs give identical counts, that the count invariants hold,
and that the benchmark refuses to run without a source tree.  Exits 1 on
the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FRAMES = 300  # past the first corner, so the trajectory can be aligned
SEED = 7
# Metrics that must repeat exactly between two traced runs of one seed.
EXACT_UNITS = ("count", "bytes", "ratio", "m", "uT")
NOT_EXACT = ("trace.frames_per_s_untraced", "trace.frames_per_s_traced",
             "trace.overhead")


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def check_spec(spec: dict, workload_names) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check({w["name"] for w in spec["workloads"]} <= set(workload_names),
          "BENCHMARK.json workloads are defined in perfbench/workloads.py")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values()), "bounds within (0, 0.25]")
    check(bounds.get("setup_s") == max(bounds.values()),
          "setup_s carries the largest bound")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(m["better"] in ("higher", "lower") and m["unit"],
              f"{m['name']} has a unit and a direction")


def check_emitted(result: dict, metrics: list, positive: bool) -> None:
    values = result["values"]
    for m in metrics:
        name = m["name"]
        check(name in values, f"{name} emitted")
        check(math.isfinite(values[name]), f"{name} finite")
        if positive:
            check(values[name] > 0, f"{name} is never 0")
    check(set(values) == {m["name"] for m in metrics}, "no extra metrics")


def check_invariants(v: dict, frames: int, calibrating: bool, sensors: int) -> None:
    gn = v["estimator.gauss_newton_step.calls"]
    check(gn == round(v["estimator.gn_steps_per_frame"] * frames),
          "gauss_newton_step.calls == gn_steps_per_frame x frames")
    check(v["magmap.interpolate_many.calls"] >= gn,
          "interpolate_many.calls >= gauss_newton_step.calls")
    check(v["estimator.jacobian.calls"] >= gn, "jacobian.calls >= GN steps")
    check(v["magmap.gradient_many.calls"] == v["estimator.jacobian.calls"],
          "one gradient lookup per Jacobian")
    for name in ("estimator.alternate.calls", "window.push.calls",
                 "window.snapshot.calls"):
        check(v[name] == frames, f"{name} == frames")
    trials = v["estimator.line_search.trials"]
    check(gn - v["estimator.gn_stalls"] <= trials <= 5 * gn,
          "accepted steps <= line-search trials <= 5 per GN step")
    check(v["geom.exp_so3.calls"] <= trials, "exp_so3 only in trials")
    check(v["geom.boxplus.calls"] <= gn, "at most one boxplus per GN step")
    rls = v["estimator.rls_update.calls"]
    check(rls == (frames * sensors if calibrating else 0),
          "rls_update once per sensor and frame, only when calibrating")
    for name in ("estimator.alternate", "estimator.gauss_newton_step"):
        check(0 <= v[name + ".self_s"] <= v[name + ".s"], f"{name} self_s <= s")
    check(v["estimator.gauss_newton_step.s"] <= v["estimator.alternate.s"],
          "GN time inside alternate time")
    check(v["gpr.predict_many.calls"] == 1, "one grid prediction per map build")
    fallbacks = (v["estimator.fallbacks.residual"]
                 + v["estimator.fallbacks.out_of_map"])
    check(fallbacks == round(v["estimator.fallback_rate"] * frames),
          "fallback_rate == fallbacks / frames")


def check_refuses_without_sources() -> None:
    """The benchmark exits non-zero, printing no result, when the checkout
    holds only BENCHMARK.json and the benchmark's own files."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ref_online",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    check(done.returncode != 0, "non-zero exit without src/")
    check('"correct"' not in done.stdout, "no result printed without src/")


def main() -> int:
    run.one_blas_thread()
    check(run.import_magloc(), "magloc imports from this checkout")
    import workloads
    spec = run.load_spec()
    check_spec(spec, workloads.WORKLOADS)
    for name, wl in workloads.WORKLOADS.items():
        sensors = len(workloads.scenario.rig(workloads.scenario_config(wl)))
        plain = run.measure(name, SEED, 0.0, False, time.perf_counter(), FRAMES)
        check_emitted(plain, spec["end_to_end"], positive=True)
        check(plain["attempted"] >= run.MIN_OPS, f"{name}: repeats compared")
        traced = [run.measure(name, SEED, 0.0, True, time.perf_counter(), FRAMES)
                  for _ in range(2)]
        for result in traced:
            check_emitted(result, spec["per_layer"], positive=False)
            check(not any("wrapped" in f for f in result["failures"]),
                  f"{name}: wrappers restored")
            check_invariants(result["values"], result["frames"],
                             wl.solver.get("calibrate", True), sensors)
        for m in spec["per_layer"]:
            key = m["name"]
            if m["unit"] in EXACT_UNITS and key not in NOT_EXACT:
                check(traced[0]["values"][key] == traced[1]["values"][key],
                      f"{name}: {key} repeats exactly "
                      f"({traced[0]['values'][key]} vs {traced[1]['values'][key]})")
        print(f"selftest {name}: ok ({plain['attempted']} operations, "
              f"{json.dumps(plain['scores'])})")
    check_refuses_without_sources()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
