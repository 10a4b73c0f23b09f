"""The traced benchmark can still read every per-layer metric it declares.

``bench/run.py --trace 1`` wraps the package's public functions by name
(``bench/tracer.py``) and reads each per-layer metric of BENCHMARK.json from
the span of the function it names, and its observers read the arguments
and results of a solve, a pattern sweep and a decomposition by name.
Renaming or deleting such a function, argument or result attribute breaks
every traced run.  The bench files are loaded by path and only read, and
nothing is installed; one test replays project_file's calls on a small
candidate file.
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

from trihybrid import harness, wmmse
from trihybrid.channel import ScenarioConfig, generate_scenario
from trihybrid.decomposition import decompose
from trihybrid.projection import save_candidates, steered_candidate_set

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
    solve = (scenario, 105.0, wmmse.SolverConfig(max_iterations=1))  # 10 dBm over -95 dBm
    result = wmmse.run_algorithm1(*solve)
    state = result.iterate
    # the sweep takes and returns the row point the solve's iterate holds
    factors = wmmse.factor_ac_blocks(scenario.blocks * wmmse.snr_scale(105.0), solve[2].eta)
    sweep = (
        factors, state.coeffs, state.f_d, state.w, wmmse.update_v(state.links),
        scenario.weights.tolist(),
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


def test_project_file_parses_its_candidate_file_once(bench, tmp_path, monkeypatch):
    # project_file sets up as the CLI does, with a load of its candidate
    # file, then calls run_trials once per drop, and each call looks the set
    # up again: the kept set serves those lookups, so the file is parsed
    # once however many drops run
    run, _ = bench
    monkeypatch.setattr(harness, "_last_set", (None, None))
    path = tmp_path / "patterns.json"
    save_candidates(steered_candidate_set(count=4, n_theta=13, n_phi=25), path)
    jobs = run.jobs_for("project_file", 0, 1.5 * run.WORKLOADS["project_file"][0], path)
    assert len(jobs) == 2
    load, parses = harness.load_candidates, []

    def counted(*args):
        parses.append(args)
        return load(*args)

    monkeypatch.setattr(harness, "load_candidates", counted)
    _, module = run.set_up(jobs[0])
    assert module is harness
    batches = [run.run_job(module, module.parse_config(None, job))[1] for job in jobs]
    assert run.check(batches, set()) == []
    assert len(parses) == 1
