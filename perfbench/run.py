"""magloc benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload ref_online --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The set-up builds the inputs from the seed, then
operations (GP map build plus one online run over the dataset) repeat
while another one fits in --seconds, at least three times; repeats must
agree bit for bit.  Every operation passes or fails its correctness gate.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
exactly two operations, the first untraced and the second traced, and
prints the per-layer metrics.  Metric names, units and directions are read
from BENCHMARK.json.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2 means the
benchmark could not run (bad arguments or no source tree).
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 3  # the slowest of three repeats rarely misses the contended state
SETUP_SAMPLES = 3  # this process plus fresh processes; setup_s is their median
SUBPROCESS_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it (internal)")
    return parser.parse_args(argv)


def one_blas_thread() -> None:
    """The benchmark is one thread on a few shared cores, and a second BLAS
    thread measures the scheduler.  OpenBLAS reads this when numpy loads."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def import_magloc() -> bool:
    """Import magloc from this checkout's src/ and nowhere else."""
    if not (SRC / "magloc" / "__init__.py").is_file():
        print(f"benchmark: no magloc sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import magloc
    if Path(magloc.__file__).resolve().parent != (SRC / "magloc").resolve():
        print(f"benchmark: imported magloc from {magloc.__file__}", file=sys.stderr)
        return False
    return True


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def blas_info() -> list:
    """Build string and thread count of each OpenBLAS that numpy and scipy
    bundle, queried through the library itself."""
    import ctypes
    import numpy
    import scipy
    out = []
    for pkg in (numpy, scipy):
        libs = Path(pkg.__path__[0]).parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            info = {"package": pkg.__name__, "library": path.name}
            for suffix in ("", "64_"):
                if hasattr(lib, "scipy_openblas_get_config" + suffix):
                    config = getattr(lib, "scipy_openblas_get_config" + suffix)
                    config.restype = ctypes.c_char_p
                    threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                    threads.restype = ctypes.c_int
                    info["config"] = config().decode()
                    info["threads"] = threads()
            out.append(info)
    return out


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(load_start) -> dict:
    import numpy
    import scipy
    return {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def cold_setup_seconds(workload_name: str, seed: int) -> float:
    """One set-up in a fresh interpreter, imports and first calls included."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload_name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def throughput(ms) -> float:
    """Frames per second: frames divided by their summed latency."""
    return float(len(ms) / (sum(ms) / 1e3))


def frame_metrics(ops) -> dict:
    """Frame latency over the operations of a run.

    Each frame's latency is its slowest over the operations, which compute
    it on bit-identical inputs.  A shared host runs the program in a
    contended state most of the time and, for seconds at a time, in one up
    to 1.7x faster; the slowest repeat measures the contended state, where
    the median would mix the two in a share that changes from run to run.
    More repeats make the slowest slightly slower, so a comparison holds
    when both sides fit about as many into --seconds."""
    import numpy as np
    per_frame = np.max([op.output.frame_ms for op in ops], axis=0)
    return {
        "frames_per_s": throughput(per_frame),
        "frame_ms_p50": float(np.percentile(per_frame, 50)),
        "frame_ms_p95": float(np.percentile(per_frame, 95)),
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            started: float, max_frames: int | None = None) -> dict:
    """Run one workload in this process; returns the result object.

    Set-up time counts from `started`.  max_frames shortens the dataset for
    the self-test; the benchmark always runs every frame."""
    import numpy as np
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    setup_tracer = tracing.Tracer()
    with workloads.work_dir(ROOT) as tmp:
        with (setup_tracer.installed() if trace else contextlib.nullcontext()):
            inputs = workloads.setup(wl, seed, Path(tmp))
    inputs.frames = inputs.frames[:max_frames]
    setup_s = time.perf_counter() - started

    ops, scores, failures, failed_ops = [], [], [], 0
    op_tracer = tracing.Tracer()
    n_ops = 2 if trace else MIN_OPS  # traced: one untraced, then one traced
    tic = time.perf_counter()
    op_s = []  # duration of each operation, checks included
    while len(ops) < n_ops or (
            not trace and time.perf_counter() - tic + np.median(op_s) <= seconds):
        traced = trace and len(ops) == 1
        op_tic = time.perf_counter()
        with (op_tracer.installed() if traced else contextlib.nullcontext()):
            op = workloads.run_op(inputs)
            op_scores, problems = workloads.check(wl, seed, inputs, op,
                                                  ops[0] if ops else op)
        op_s.append(time.perf_counter() - op_tic)
        failures += [f"operation {len(ops)}: {p}" for p in problems]
        failed_ops += bool(problems)
        ops.append(op)
        scores.append(op_scores)

    if trace:
        frames = len(inputs.frames)
        values = tracing.layer_metrics(setup_tracer, op_tracer, frames)
        untraced = throughput(ops[0].output.frame_ms)
        traced_fps = throughput(ops[1].output.frame_ms)
        values.update({
            "estimator.fallback_rate": scores[1]["fallbacks"] / frames,
            "evaluate.ate_m": scores[1]["ate_m"],
            "evaluate.calib_err_uT": scores[1]["calib_err_uT"],
            "trace.frames_per_s_untraced": untraced,
            "trace.frames_per_s_traced": traced_fps,
            "trace.overhead": untraced / traced_fps - 1.0,
        })
        if not tracing.originals_restored():
            failures.append("a traced name was left wrapped")
    else:
        setup_samples = [setup_s] + [cold_setup_seconds(workload_name, seed)
                                     for _ in range(SETUP_SAMPLES - 1)]
        values = frame_metrics(ops)
        values.update({
            "map_build_s": max(op.build_s for op in ops),  # as frame_metrics
            "setup_s": float(np.median(setup_samples)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "map_rmse_uT": scores[0]["map_rmse_uT"],
        })
    return {"values": values, "attempted": len(ops), "failed": failed_ops,
            "failures": failures, "scores": scores[0],
            "frames": len(inputs.frames)}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = list(os.getloadavg())
    one_blas_thread()
    if not import_magloc():
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_only:
        with workloads.work_dir(ROOT) as tmp:
            workloads.setup(workloads.WORKLOADS[args.workload], args.seed, Path(tmp))
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     T0)
    values = result["values"]
    if set(values) != {m["name"] for m in metrics}:
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in metrics})}")

    print(json.dumps({"env": environment(load_start)}))
    print(json.dumps({"scores": result["scores"]}))
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for m in metrics:
        print(f"{m['name']:44s} {values[m['name']]!r:>24} {m['unit']:8s} "
              f"({m['better']} is better)")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
