"""The traced benchmark can still read every per-layer metric it declares.

``bench/run.py --trace 1`` wraps the package's public functions by name
(``bench/tracer.py``) and reads each per-layer metric of BENCHMARK.json from
the span of the function it names, and its observers read the arguments
and results of a solve, a pattern sweep and a decomposition by name.
Renaming or deleting such a function, argument or result attribute breaks
every traced run.  The bench files are loaded by path and only read:
nothing is installed and no batch runs.
"""

import importlib
import importlib.util
import inspect
import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from trihybrid import wmmse
from trihybrid.channel import ScenarioConfig, generate_scenario
from trihybrid.decomposition import decompose

ROOT = Path(__file__).resolve().parents[1]


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench():
    # run.py pins the BLAS thread variables on import
    environ = dict(os.environ)
    try:
        yield load_bench_module("run"), load_bench_module("tracer")
    finally:
        os.environ.clear()
        os.environ.update(environ)


def test_every_per_layer_metric_names_a_traced_span(bench):
    run, tracer = bench
    for layer in tracer.LAYERS:
        importlib.import_module(f"trihybrid.{layer}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in spec["per_layer"]]
    spans = tracer.Tracer()
    tracer.Instrumentation(spans)  # built, never installed
    assert sorted(run.per_layer(names, spans, 0.0)) == sorted(names)
    assert "coeffs" in inspect.signature(wmmse.update_em).parameters


def test_every_observer_fills_its_counters(bench):
    # each observer gets the bound arguments and the result of one real call,
    # as the tracer's wrapper passes them
    _, tracer = bench
    scenario = generate_scenario(ScenarioConfig(), seed=1)
    solve = (scenario, 0.01, wmmse.SolverConfig(max_iterations=1))
    result = wmmse.run_algorithm1(*solve)
    state, noise = result.iterate, scenario.noise_powers.tolist()
    sweep = (
        wmmse.factor_ac_blocks(scenario.blocks), state.coeffs, state.f_d, state.w,
        wmmse.update_v(state.links, noise), scenario.weights.tolist(), noise,
    )
    calls = {
        "wmmse.run_algorithm1": (wmmse.run_algorithm1, solve),
        "wmmse.update_em": (wmmse.update_em, sweep),
        "decomposition.decompose": (decompose, (state.f_d, 4)),
    }
    assert set(tracer.OBSERVERS) == set(calls)
    counters, results = Counter(), {}
    for name, (func, args) in calls.items():
        results[name] = func(*args)
        arguments = inspect.signature(func).bind(*args).arguments
        tracer.OBSERVERS[name](counters, arguments, results[name])
    changed = np.any(results["wmmse.update_em"] != state.coeffs, axis=1)
    history = results["decomposition.decompose"].residual_history
    assert counters == {
        "wmmse.converged": 0,  # one iteration under a nonzero tolerance
        "wmmse.iterations": 1,
        "wmmse.solves_returned": 1,
        "wmmse.em_rows_attempted": 9,
        "wmmse.em_rows_changed": int(changed.sum()),
        "decomposition.iterations": len(history) - 1,
        "decomposition.calls_returned": 1,
    }
