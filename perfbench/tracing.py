"""Per-layer tracing from outside the program.

Wrappers time calls into each module and count the work they receive.
They are installed on the name the caller looks up: `magloc.estimator`
binds `interpolate_many`, `gradient_many`, `boxplus`, `exp_so3` and
`rls_update` at import, so those are patched on `magloc.estimator`, not on
the defining module.  `installed()` restores every original on exit.

A span's self time is its duration minus the time of the traced calls it
made.  Line-search trials are counted by wrapping the `trial_norm_fn`
argument of `gauss_newton_step`.
"""

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

from magloc import estimator, evaluate, gpr, magmap, sim, window

# (owner, attribute, span name, argument index whose length counts points)
TARGETS = (
    (estimator, "interpolate_many", "magmap.interpolate_many", 1),
    (estimator, "gradient_many", "magmap.gradient_many", 1),
    (estimator, "_jacobian_all", "estimator.jacobian", None),
    (estimator, "rls_update", "estimator.rls_update", None),
    (estimator, "boxplus", "geom.boxplus", None),
    (estimator, "exp_so3", "geom.exp_so3", None),
    (window.SlidingWindow, "snapshot", "window.snapshot", None),
    (magmap, "rasterize", "magmap.rasterize", None),
    (magmap, "save_map", "magmap.save_map", None),
    (magmap, "load_map", "magmap.load_map", None),
    (gpr, "fit", "gpr.fit", None),
    (gpr, "build_grid", "gpr.build_grid", None),
    (sim, "build_dataset", "sim.build_dataset", None),
    (sim, "write_dataset", "sim.write_dataset", None),
    (sim, "read_dataset", "sim.read_dataset", None),
    (evaluate, "evaluation_report", "evaluate.evaluation_report", None),
)
# Names whose wrappers also inspect arguments or results; see Tracer.
CUSTOM = ((gpr, "predict_many"), (estimator, "gauss_newton_step"),
          (estimator, "alternate"), (window.SlidingWindow, "push"))


class Tracer:
    """Call counts, total and self time, and work counters per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)  # points, trials, outcomes
        self.samples = defaultdict(list)  # per-call observations
        self._child = []  # traced time spent in callees, one slot per open span

    def span(self, name: str, fn, *args, **kwargs):
        self._child.append(0.0)
        tic = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - tic
            child = self._child.pop()
            if self._child:
                self._child[-1] += elapsed
            self.calls[name] += 1
            self.seconds[name] += elapsed
            self.self_seconds[name] += elapsed - child

    def _wrap(self, name, fn, points_arg):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if points_arg is not None:
                self.counts[name + ".points"] += len(args[points_arg])
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_predict(self, fn):
        @functools.wraps(fn)
        def wrapper(model, points):
            # The (m, n, 3) float64 difference temporary of _kernel_matrix,
            # computed from array sizes.
            temp = len(points) * len(model.train_pos) * 3 * 8
            self.samples["gpr.kernel_temp_bytes"].append(temp)
            self.counts["gpr.predict_many.points"] += len(points)
            return self.span("gpr.predict_many", fn, model, points)
        return wrapper

    def _wrap_gauss_newton(self, fn):
        @functools.wraps(fn)
        def wrapper(residuals, jacobians, mask, damping, trial_norm_fn=None):
            trial = trial_norm_fn
            if trial_norm_fn is not None:
                def trial(dx):
                    self.counts["line_search.trials"] += 1
                    return self.span("estimator.line_search", trial_norm_fn, dx)
            dx, stalled = self.span("estimator.gauss_newton_step", fn,
                                    residuals, jacobians, mask, damping, trial)
            if stalled:
                self.counts["gn_stalls"] += 1
            elif trial_norm_fn is not None:
                self.counts["line_search.accepted"] += 1
            return dx, stalled
        return wrapper

    def _wrap_alternate(self, fn):
        @functools.wraps(fn)
        def wrapper(window_, thetas, x_prior, grid, config):
            result = self.span("estimator.alternate", fn, window_, thetas,
                               x_prior, grid, config)
            self.samples["alternations"].append(result.alternations)
            aborted = not np.isfinite(result.residual_norm)  # out of map
            if result.alternations < config.max_alternations and not aborted:
                self.counts["early_stops"] += 1
            if result.diverged:
                self.counts["fallbacks.out_of_map" if aborted
                            else "fallbacks.residual"] += 1
            return result
        return wrapper

    def _wrap_push(self, fn):
        @functools.wraps(fn)
        def wrapper(window_, frame):
            self.span("window.push", fn, window_, frame)
            self.samples["window.entries"].append(len(window_))
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        originals = [(owner, attr, owner.__dict__[attr])
                     for owner, attr in traced_names()]
        wrappers = [self._wrap(name, owner.__dict__[attr], arg)
                    for owner, attr, name, arg in TARGETS]
        wrappers += [wrap(owner.__dict__[attr]) for (owner, attr), wrap in zip(
            CUSTOM, (self._wrap_predict, self._wrap_gauss_newton,
                     self._wrap_alternate, self._wrap_push))]
        try:
            for (owner, attr, _), wrapper in zip(originals, wrappers):
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)


def traced_names() -> list:
    return [(owner, attr) for owner, attr, _, _ in TARGETS] + list(CUSTOM)


def originals_restored() -> bool:
    """True when no traced name is left wrapped."""
    return not any(hasattr(owner.__dict__[attr], "__wrapped__")
                   for owner, attr in traced_names())


def layer_metrics(setup: Tracer, op: Tracer, frames: int) -> dict:
    """Per-layer metric values: set-up stages from `setup`, everything else
    from one traced operation over `frames` frames."""
    gn = op.calls["estimator.gauss_newton_step"]
    trials = op.counts["line_search.trials"]
    values = {
        "estimator.alternations_per_frame": float(np.mean(op.samples["alternations"])),
        "estimator.early_stop_rate": op.counts["early_stops"] / frames,
        "estimator.gn_steps_per_frame": gn / frames,
        "estimator.gn_stalls": op.counts["gn_stalls"],
        "estimator.line_search.trials": trials,
        "estimator.line_search.s": op.seconds["estimator.line_search"],
        "estimator.line_search.trials_per_step": trials / gn if gn else 0.0,
        "estimator.line_search.accept_rate":
            op.counts["line_search.accepted"] / trials if trials else 0.0,
        "estimator.fallbacks.residual": op.counts["fallbacks.residual"],
        "estimator.fallbacks.out_of_map": op.counts["fallbacks.out_of_map"],
        "window.entries_mean": float(np.mean(op.samples["window.entries"])),
        "gpr.fit.cold_s": setup.seconds["gpr.fit"],
        "gpr.kernel_temp_bytes": max(op.samples["gpr.kernel_temp_bytes"]),
    }
    for name in ("estimator.alternate", "estimator.gauss_newton_step"):
        values[name + ".calls"] = op.calls[name]
        values[name + ".s"] = op.seconds[name]
        values[name + ".self_s"] = op.self_seconds[name]
    for name in ("magmap.interpolate_many", "magmap.gradient_many",
                 "gpr.predict_many"):
        values[name + ".calls"] = op.calls[name]
        values[name + ".s"] = op.seconds[name]
        values[name + ".points"] = op.counts[name + ".points"]
    for name in ("estimator.jacobian", "estimator.rls_update", "window.push",
                 "window.snapshot", "geom.boxplus", "geom.exp_so3"):
        values[name + ".calls"] = op.calls[name]
        values[name + ".s"] = op.seconds[name]
    for name in ("gpr.fit", "gpr.build_grid", "evaluate.evaluation_report"):
        values[name + ".s"] = op.seconds[name]
    for name in ("magmap.rasterize", "magmap.save_map", "magmap.load_map",
                 "sim.build_dataset", "sim.write_dataset", "sim.read_dataset"):
        values[name + ".s"] = setup.seconds[name]
    return values
