#!/usr/bin/env python3
"""Benchmark of trihybrid's batch entry point, ``trihybrid.harness.run_trials``.

Run from the repository root, one fresh process per run:

    python3 bench/run.py --workload sweep_all --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload sweep_all --seed 0 --seconds 30 --trace 1
    python3 bench/compare.py OLD NEW        # per-layer deltas of traced runs

A run imports the package from ``src/``, sets up as ``trihybrid run`` does
(import, ``parse_config``, the fail-fast candidate-set load when projection
runs), then calls ``run_trials`` with ``workers=1`` once per drop of the
workload, in an order the seed permutes.  ``setup_s`` is the median of this
process's cold set-up and four more, each in a new Python process, spread
over the batch.
The number of drops is sized so that the batch takes about ``--seconds`` on
the machine the benchmark was calibrated on (2 vCPUs, numpy 2.4, OpenBLAS
pinned to one thread); a faster program finishes the same jobs sooner.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs the jobs sized for half of ``--seconds`` twice, untraced and then traced
(see tracer.py), and reports the per-layer metrics plus the tracing overhead.
Both modes check the outputs; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result (machine block, failed rows' error text, hash of the scientific CSV
columns, per-layer table, spans) is written under ``bench/out/``.
"""

import os

# Pin the BLAS pool before numpy loads, so a run uses one core throughout.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 5
TAIL_SAMPLES = 10  # the tail percentile keeps at least this many rows beyond it
SWEEP_DBM = (0.0, 10.0, 20.0, 30.0)
CANDIDATES = 256


# Each workload is a fixed panel of drops 1..n, one `run_trials` call per
# drop, and the seed only permutes the order of the calls: every seed runs
# the same inputs, so runs with different seeds are repeats of one workload.
# Drops are fixed, not drawn from the seed, because a drop's cost and rate
# depend on its channel (a sweep drop takes 6-16 s) and few drops fit in a
# run: seed-drawn panels made batch_s and rate_mean differ by 12-20% between
# seeds.  The CSV hash, taken over sorted rows, shows that no row depends on
# what ran before it.


def _sweep_all(drops, patterns):
    return [dict(mode="all", pmax_dbm=SWEEP_DBM, seed=d) for d in range(1, drops + 1)]


def _hybrid_batch(drops, patterns):
    half = max(1, round(drops / 2))
    return [
        dict(mode="hybrid", pmax_dbm=SWEEP_DBM, field_mode="far" if d <= half else "near",
             seed=d)
        for d in range(1, 2 * half + 1)
    ]


def _project_file(drops, patterns):
    return [
        dict(mode="projected", pmax_dbm=(0.0,), refit=True, patterns_path=str(patterns), seed=d)
        for d in range(1, drops + 1)
    ]


# name -> (seconds per drop at calibration, job builder)
WORKLOADS = {
    "sweep_all": (10.0, _sweep_all),
    "hybrid_batch": (0.14, _hybrid_batch),
    "project_file": (1.4, _project_file),
}


# Rows that fail today, as (seed, pmax_dbm, mode): the 30 dBm pattern solve
# of drop 2 fails to bracket its multiplier, and the projected row re-runs
# that solve.  Any other failed row is a check failure.
KNOWN_FAILURES = {
    "sweep_all": {(2, 30.0, "trihybrid"), (2, 30.0, "projected")},
}


def jobs_for(workload, seed, seconds, patterns):
    drop_s, build = WORKLOADS[workload]
    drops = max(1, math.ceil(seconds / drop_s))
    jobs = [dict(job, trials=1, workers=1) for job in build(drops, patterns)]
    random.Random(seed).shuffle(jobs)
    return jobs


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def write_candidates(path) -> None:
    """Write the steered candidate file in a child process, so that building
    it stays out of this process's time and peak memory."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from trihybrid.projection import save_candidates, steered_candidate_set; "
        "save_candidates(steered_candidate_set(int(sys.argv[2])), sys.argv[3])"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(CANDIDATES), str(path)],
        check=True, timeout=120,
    )


def fail_fast_load(harness, config) -> None:
    """Load the candidate set when projection runs, as the CLI does before
    its first job."""
    if "projected" in config.modes():
        harness.load_candidate_set(config)


def set_up(job):
    """Import trihybrid, parse the job's config and fail-fast load its
    candidates, as one ``trihybrid run`` does before its first job.

    Returns the seconds taken and the harness module.  The import is cold,
    numpy's included, only on the first call in a process.
    """
    tic = time.perf_counter()
    harness = importlib.import_module("trihybrid.harness")
    fail_fast_load(harness, harness.parse_config(None, job))
    return time.perf_counter() - tic, harness


def fresh_set_up(job) -> float:
    """Seconds ``set_up`` takes in a new Python process."""
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:3]; from run import set_up; "
        "print(set_up(json.loads(sys.argv[3]))[0])"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), str(SRC), json.dumps(job)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(child.stdout.split()[-1])


def run_job(harness, config):
    tic = time.perf_counter()
    records = harness.run_trials(config)
    return time.perf_counter() - tic, (config, records)


def check(batches, known_failures) -> list:
    """Problems found in the batch's rows; empty when the outputs are right.

    A failed row is a problem unless ``known_failures`` names it.
    """
    problems = []
    for config, records in batches:
        expected = [
            (config.seed + t, pmax, mode)
            for t in range(config.trials)
            for pmax in config.pmax_dbm
            for mode in config.modes()
        ]
        got = [(r.seed, r.pmax_dbm, r.mode) for r in records]
        if got != expected:
            problems.append(
                f"seed {config.seed}: {len(got)} rows, expected {len(expected)} "
                "in (seed, pmax, mode) order"
            )
        for r in records:
            tag = f"seed={r.seed} mode={r.mode} pmax={r.pmax_dbm:g} dBm"
            if r.error is not None:
                if (r.seed, r.pmax_dbm, r.mode) not in known_failures:
                    problems.append(f"{tag}: failed: {r.error}")
                elif not r.error.strip():
                    problems.append(f"{tag}: failed row without error text")
                continue
            values = [r.sum_rate, r.decomp_residual, r.wall_ms]
            if r.projected_sum_rate is not None:
                values.append(r.projected_sum_rate)
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{tag}: non-finite value in a successful row")
            if not r.sum_rate >= 0.0:
                problems.append(f"{tag}: negative sum rate {r.sum_rate}")
            if r.iterations < 1:
                problems.append(f"{tag}: {r.iterations} iterations")
            if (r.projected_sum_rate is not None) != (r.mode == "projected"):
                problems.append(f"{tag}: projected_sum_rate set on the wrong mode")
    return problems


def csv_sha256(harness, records, path) -> str:
    """Hash of the results CSV the program writes, minus its wall_ms column.

    Rows are sorted by (seed, pmax, mode) first, so the hash depends on the
    jobs and not on the order they ran in.
    """
    order = {mode: i for i, mode in enumerate(harness.MODES)}
    harness.emit_csv(sorted(records, key=lambda r: (r.seed, r.pmax_dbm, order[r.mode])), path)
    with open(path, encoding="utf-8") as fh:
        science = "".join(line.rsplit(",", 1)[0] + "\n" for line in fh.read().splitlines())
    return hashlib.sha256(science.encode()).hexdigest()


E2E_UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "rate_mean": "bit/s/Hz",
    "peak_rss_mb": "MiB",
}


def end_to_end(records, batch_s, setup_times) -> tuple:
    ok = [r for r in records if r.error is None]
    failed = len(records) - len(ok)
    # A failed row has no measured time and ranks above every successful
    # row; where a percentile lands on one, the batch wall time stands in.
    ranked = sorted(r.wall_ms for r in ok) + [batch_s * 1e3] * failed
    tail = len(ranked) - 1 - TAIL_SAMPLES if len(ranked) > TAIL_SAMPLES else len(ranked) - 1
    rates = [
        0.0 if r.error is not None
        else r.projected_sum_rate if r.mode == "projected"
        else r.sum_rate
        for r in records
    ]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "batch_s": batch_s,
        "trials_per_s": len(ok) / batch_s,
        "trial_ms_p50": statistics.median_low(ranked),
        "trial_ms_tail": ranked[tail],
        "rate_mean": sum(rates) / len(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "rows": len(records),
        "fail_frac": failed / len(records),
        "tail_percentile": 100.0 * (tail + 1) / len(ranked),
        "tail_rows_beyond": len(ranked) - 1 - tail,
    }
    return metrics, info


def per_layer(names, tracer, overhead_s) -> dict:
    table = tracer.layer_table()
    counters = tracer.counters

    def ratio(num, den):
        return counters[num] / counters[den] if counters[den] else 0.0

    solve = table.get("wmmse.run_algorithm1", {}).get("calls", 0)
    derived = {
        "wmmse.solves": solve,
        "wmmse.converged_frac": counters["wmmse.converged"] / solve if solve else 0.0,
        "wmmse.iterations_mean": ratio("wmmse.iterations", "wmmse.solves_returned"),
        "wmmse.em_accept_frac": ratio("wmmse.em_rows_changed", "wmmse.em_rows_attempted"),
        "decomposition.iterations_mean": ratio(
            "decomposition.iterations", "decomposition.calls_returned"
        ),
        "harness.self_s": sum(
            row["self_s"] for name, row in table.items() if name.startswith("harness.")
        ),
        "trace.overhead_s": overhead_s,
    }
    fields = {"s": "self_s", "total_s": "total_s", "calls": "calls", "failures": "failures"}
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        span, _, suffix = name.rpartition(".")
        if span not in table or suffix not in fields:
            raise KeyError(f"per-layer metric {name!r} names no traced span")
        out[name] = table[span][fields[suffix]]
    return out


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
    }


def report(args, result, metrics, units) -> None:
    mach, e2e, info = result["machine"], result["end_to_end"], result["info"]
    print(f"{args.workload}: seed {args.seed}, trace {args.trace}, {info['rows']} rows "
          f"from {len(result['jobs'])} drops")
    print(f"  machine: {mach['nproc']} cpus ({mach['cpu']}), python {mach['python']}, "
          f"numpy {mach['numpy']}, {mach['blas']}, blas threads {mach['blas_threads']}")
    untraced = " (untraced)" if args.trace else ""
    for name, value in e2e.items():
        print(f"  {name:<16} {value:12.6g} {E2E_UNITS[name]}{untraced}")
    print(f"  {'fail_frac':<16} {info['fail_frac']:12.6g} "
          f"({len(result['failures'])} of {info['rows']} rows)")
    print(f"  trial_ms_tail is p{info['tail_percentile']:.1f}, "
          f"{info['tail_rows_beyond']} rows beyond it")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<34} {value:12.6g} {units[name]}")
    for f in result["failures"]:
        print(f"  failed: seed={f['seed']} mode={f['mode']} pmax={f['pmax_dbm']:g} dBm: "
              f"{f['error']}")
    print(f"  csv sha256 without wall_ms: {result['csv_sha256']}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks {'pass' if result['correct'] else 'FAIL'}; full result in "
          f"{result['path']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trihybrid" / "__init__.py").is_file():
        print(f"error: trihybrid sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for m in spec["end_to_end"]:
        if E2E_UNITS.get(m["name"]) != m["unit"]:
            print(f"error: BENCHMARK.json metric {m['name']} [{m['unit']}] is not measured here",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    patterns = OUT / f"{tag}.candidates.json"
    # a traced run measures the same jobs twice, untraced and traced
    jobs = jobs_for(args.workload, args.seed, args.seconds / (1 + args.trace), patterns)
    try:
        if any("patterns_path" in job for job in jobs):
            write_candidates(patterns)
        setup_s, harness = set_up(jobs[0])
        setup_times = [setup_s]
        configs = [harness.parse_config(None, job) for job in jobs]
        # The fresh-process set-ups are spread over the batch, so that their
        # median does not hang on the machine's speed at one moment.
        n = len(configs)
        set_up_before = [round(k * n / SETUP_REPEATS) for k in range(1, SETUP_REPEATS)]
        if args.trace:
            from tracer import Instrumentation, Tracer

            tracer = Tracer()
            probes = Instrumentation(tracer)
        batch_s, batches, traced_s, traced = 0.0, [], 0.0, []
        for i, config in enumerate(configs):
            setup_times += [fresh_set_up(jobs[0]) for _ in range(set_up_before.count(i))]
            seconds, batch = run_job(harness, config)
            batch_s += seconds
            batches.append(batch)
            if args.trace:
                # Traced and untraced calls alternate drop by drop, so both
                # see the same machine state and differ by the overhead.
                probes.install()
                if i == 0:
                    fail_fast_load(harness, harness.parse_config(None, jobs[0]))  # traced set-up
                seconds, batch = run_job(harness, config)
                traced_s += seconds
                traced.append(batch)
                probes.remove()
        setup_times += [fresh_set_up(jobs[0]) for _ in range(set_up_before.count(n))]
        known = KNOWN_FAILURES.get(args.workload, set())
        problems = check(batches, known)
        records = [r for _, rows in batches for r in rows]
        digest = csv_sha256(harness, records, OUT / f"{tag}.csv")
        e2e, info = end_to_end(records, batch_s, setup_times)
        result = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "jobs": jobs, "machine": machine(),
            "setup_times_s": setup_times, "end_to_end": e2e, "info": info,
            "csv_sha256": digest,
        }
        if args.trace:
            problems += check(traced, known)
            records = [r for _, rows in traced for r in rows]
            if csv_sha256(harness, records, OUT / f"{tag}.traced.csv") != digest:
                problems.append("traced batch differs from the untraced batch")
            layer = spec["per_layer"]
            metrics = per_layer([m["name"] for m in layer], tracer, traced_s - batch_s)
            result.update(
                bindings_wrapped=len(probes.bindings), traced_batch_s=traced_s,
                per_layer=metrics, layers=tracer.layer_table(),
                counters=dict(tracer.counters), spans=f"{tag}.spans.csv",
            )
            tracer.write_spans(OUT / f"{tag}.spans.csv")
        else:
            layer = spec["end_to_end"]
            metrics = {m["name"]: e2e[m["name"]] for m in layer}
    finally:
        patterns.unlink(missing_ok=True)
    units = {m["name"]: m["unit"] for m in layer}

    result["failures"] = [
        {"seed": r.seed, "mode": r.mode, "pmax_dbm": r.pmax_dbm, "error": r.error}
        for r in records if r.error is not None
    ]
    result.update(problems=problems, correct=not problems)
    path = OUT / f"{tag}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    report(args, dict(result, path=path.relative_to(ROOT)), metrics, units)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(result["failures"]),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
