"""The benchmark tracer's contract with the package.

perfbench/tracing.py patches names in the package's modules and calls the
functions it wraps with fixed positional arguments; perfbench/workloads.py
compares runs by EstimatorOutput fields.  A refactor that drops one of
those names or changes those signatures fails here, in the test suite,
and not only in the benchmark's self-test.  The tracer is imported from
its file as it is, without editing it.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

from magloc import estimator, gpr, window

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# The wrapped functions with custom wrappers, and the number of positional
# arguments each wrapper passes.
CUSTOM_ARGS = {
    (gpr, "predict_many"): 2,  # model, points
    (estimator, "gauss_newton_step"): 5,  # residual, jacobian, mask, damping, trial
    (estimator, "alternate"): 5,  # window, thetas, x_prior, grid, config
    (window.SlidingWindow, "push"): 2,  # window, frame
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound(tracing):
    for owner, attr in tracing.traced_names():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is not bound"


def test_custom_wrappers_pass_accepted_arguments(tracing):
    assert set(tracing.CUSTOM) == set(CUSTOM_ARGS)
    for (owner, attr), n_args in CUSTOM_ARGS.items():
        inspect.signature(owner.__dict__[attr]).bind(*range(n_args))


def test_counted_points_argument_exists(tracing):
    for owner, attr, _, points_arg in tracing.TARGETS:
        if points_arg is not None:
            params = inspect.signature(owner.__dict__[attr]).parameters
            assert len(params) > points_arg, f"{owner.__name__}.{attr}"


def test_result_fields_read_by_the_benchmark():
    fields = {f.name for f in dataclasses.fields(estimator.AlternateResult)}
    assert {"alternations", "residual_norm", "diverged"} <= fields
    fields = {f.name for f in dataclasses.fields(estimator.EstimatorOutput)}
    assert {"positions", "orientations", "thetas", "fallbacks",
            "timestamps", "frame_ms"} <= fields


def test_install_restores_every_name(tracing):
    with tracing.Tracer().installed():
        assert not tracing.originals_restored()
    assert tracing.originals_restored()
