"""The traced benchmark can still read every per-layer metric it declares.

``bench/run.py --trace 1`` wraps the package's public functions by name
(``bench/tracer.py``) and reads each per-layer metric of BENCHMARK.json from
the span of the function it names; its ``update_em`` observer reads the
``coeffs`` argument by name.  Renaming or deleting such a function, or that
argument, breaks every traced run.  The bench files are loaded by path and
only read: nothing is installed and no batch runs.
"""

import importlib
import importlib.util
import inspect
import json
import os
from pathlib import Path

import pytest

from trihybrid import wmmse

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
