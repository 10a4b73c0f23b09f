"""Monte-Carlo experiment harness: configs, trial batches, CSV emission.

A run is fully determined by (config, base seed): trial t draws its scenario
from seed ``base + t``, once for all of the configured powers, and every
solver and decomposition step is seeded from the same value: each solve
from ``base + t`` itself, and each decomposition from ``[base + t, 0xD0C]``,
which ``decompose`` turns into a Generator only in its ALS regime
(K <= N_RF < 2K).  So rerunning a config reproduces every scientific output
byte for byte (wall-clock timings are measured and therefore exempt).

The solve runs in SNR units, from pmax_dbm - noise_dbm alone, so a shift of
both knobs by the same integer dB leaves it bit for bit as it was; a row's
decomposition reads the precoder in watts, sqrt(p_max) F~.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import time
from dataclasses import dataclass, fields, replace

from .channel import ScenarioConfig, generate_scenario
from .channel import _check_rules, _int_rule, _is_numbers, _within
from .decomposition import decompose
from .projection import (
    CandidatePatternSet,
    PatternLoadError,
    load_candidates,
    apply_projection,
    read_candidate_file,
    steered_candidate_set,
)
from .wmmse import SolverConfig, run_algorithm1
from .wmmse import _require_pattern_degree

logger = logging.getLogger(__name__)

MODES = ("trihybrid", "hybrid", "projected")
CSV_HEADER = (
    "seed,mode,pmax_dbm,sum_rate,iterations,decomp_residual,projected_sum_rate,wall_ms"
)


class ConfigError(ValueError):
    """A run configuration is malformed."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class RunConfig(ScenarioConfig, SolverConfig):
    """Everything needed to reproduce a batch; defaults follow the reference
    setup: 3x3 array, 30 GHz, K=2 users with L=3 paths, 4 RF chains,
    T=25 harmonics, -95 dBm noise, 10 dBm budget.

    A RunConfig is the library's ``ScenarioConfig`` and ``SolverConfig``,
    whose fields it inherits and whose checks it runs, plus the batch's own
    fields below; ``generate_scenario`` and the solves take it as it is."""

    n_rf: int = 4
    noise_dbm: float = -95.0
    mode: str = "all"
    trials: int = 100
    seed: int = 1
    pmax_dbm: tuple = (10.0,)
    patterns_path: str | None = None
    refit: bool = True
    out_path: str = "results.csv"
    workers: int = 1

    RULES = {
        "n_rf": _int_rule(1),  # and within n_users..n_h*n_v, checked below
        "noise_dbm": ("a number in [-250, 250]", lambda x: _within(x, -250.0, 250.0)),
        "mode": ("'trihybrid', 'hybrid', 'projected' or 'all'",
                 lambda x: isinstance(x, str) and x in MODES + ("all",)),
        "trials": _int_rule(1),
        "seed": _int_rule(0),
        "pmax_dbm": ("a nonempty list of numbers in [-250, 250]", lambda x: (
            _is_numbers(x) and len(x) > 0 and all(_within(p, -250.0, 250.0) for p in x))),
        "patterns_path": ("null or a string", lambda x: x is None or isinstance(x, str)),
        "refit": ("true or false", lambda x: type(x) is bool),
        "out_path": ("a string", lambda x: isinstance(x, str)),
        "workers": _int_rule(1),
    }

    def __post_init__(self):
        try:
            _check_rules(RunConfig, self)
            ScenarioConfig.__post_init__(self)
            SolverConfig.__post_init__(self)
            if self.mode != "hybrid":
                _require_pattern_degree(self.truncation)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        object.__setattr__(self, "pmax_dbm", tuple(map(float, self.pmax_dbm)))
        # after the array sizes, which the range reads, are checked
        if not self.n_users <= self.n_rf <= self.n_h * self.n_v:
            raise ConfigError(f"n_rf: need n_users <= n_rf <= n_h*n_v, got {self.n_rf}")

    def modes(self) -> tuple:
        return MODES if self.mode == "all" else (self.mode,)


def parse_config(
    path=None, overrides: dict | None = None, *, defaults: dict | None = None, unread=()
) -> RunConfig:
    """Build a RunConfig from ``defaults``, an optional JSON file and
    overrides, each winning over the ones before it.

    File keys use the RunConfig field names; unknown keys, and keys naming a
    field in ``unread`` (fields the caller never reads), are rejected with
    the offending names.
    """
    values: dict = dict(defaults or {})
    doc: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file: invalid JSON at line {err.lineno}") from err
        except RecursionError:
            raise ConfigError("config file: document is nested too deeply") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        values.update(doc)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(RunConfig) if f.init}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    ignored = sorted(set(doc) & set(unread))
    if ignored:
        raise ConfigError(
            f"config file sets field(s) this command never reads: {', '.join(ignored)}"
        )
    return RunConfig(**values)


@dataclass
class TrialRecord:
    """One (trial, power, mode) outcome; failed trials carry NaN metrics and
    the error text (logged, not serialized).

    ``wall_ms`` is the time of the stages the row's values come from: its
    seed's scenario and EM-domain blocks, which every row of the seed counts
    in full, the mode's solve and its decomposition at the row's power, and
    for ``projected`` also the projection.  The ``projected`` row shares the
    ``trihybrid`` row's solve, so both count its time.
    """

    seed: int
    mode: str
    pmax_dbm: float
    sum_rate: float
    iterations: int
    decomp_residual: float
    projected_sum_rate: float | None
    wall_ms: float
    error: str | None = None

    def __post_init__(self):
        if self.error is None:
            if not self.sum_rate >= 0.0:
                raise ValueError(f"sum rate must be nonnegative, got {self.sum_rate}")
            if self.iterations < 1:
                raise ValueError("a successful trial runs at least one iteration")


_last_set = (None, None)  # (bytes, set) of the last file parsed


@functools.cache
def _stand_in_set() -> CandidatePatternSet:
    return steered_candidate_set(count=64)


def _file_equals(path, kept: bytes) -> bool:
    view, pos = memoryview(bytearray(1 << 20)), 0
    with open(path, "rb") as fh:
        while n := fh.readinto(view):
            if not kept.startswith(view[:n], pos):
                return False
            pos += n
    return pos == len(kept)


def load_candidate_set(config: RunConfig) -> CandidatePatternSet:
    """Candidate set from the configured file, or the synthetic 64-lobe
    stand-in, built once per process, when no file is given.

    The last set parsed from a file is kept with the file's bytes.  A call
    whose file holds bytes equal to the kept ones returns the kept set; the
    compare reads the file through one reused MiB buffer and holds no second
    copy.  Any other file is parsed, and its set and bytes are kept.  A
    failed read or parse raises and leaves the kept set in place.
    """
    global _last_set
    path = config.patterns_path
    if path is None:
        return _stand_in_set()
    data, cset = _last_set
    try:
        if data is not None and _file_equals(path, data):
            return cset
    except OSError as err:
        raise PatternLoadError(f"{path}: cannot read candidate set: {err}") from err
    data = read_candidate_file(path)
    _last_set = (data, load_candidates(path, data))
    return _last_set[1]


def _failed(seed: int, mode: str, pmax_dbm: float, err: BaseException) -> TrialRecord:
    logger.error(
        "trial failed: seed=%d mode=%s pmax=%.1f dBm", seed, mode, pmax_dbm, exc_info=err
    )
    return TrialRecord(
        seed=seed,
        mode=mode,
        pmax_dbm=pmax_dbm,
        sum_rate=math.nan,
        iterations=0,
        decomp_residual=math.nan,
        projected_sum_rate=None,
        wall_ms=math.nan,
        error=f"{type(err).__name__}: {err}",
    )


def _solve(config: RunConfig, drop, seed: int, pmax_dbm: float, mode: str):
    """One pipeline's solve and decomposition at one power: its row, timed
    with the seed's set-up, and the solver result.

    ``drop`` is the seed's (scenario, seconds taken to build it); the
    scenario carries its EM-domain blocks.
    """
    scenario, setup_s = drop
    p_max = dbm_to_watts(pmax_dbm)
    tic = time.perf_counter()
    result = run_algorithm1(
        scenario, pmax_dbm - config.noise_dbm, config, seed, em_update=mode != "hybrid"
    )
    f_d = math.sqrt(p_max) * result.iterate.f_d  # in watts
    factors = decompose(f_d, config.n_rf, p_max=p_max, rng=[seed, 0xD0C])
    record = TrialRecord(
        seed=seed,
        mode=mode,
        pmax_dbm=pmax_dbm,
        sum_rate=result.sum_rate,
        iterations=result.iterations,
        decomp_residual=factors.residual,
        projected_sum_rate=None,
        wall_ms=(setup_s + time.perf_counter() - tic) * 1e3,
    )
    return record, result


def _project(config: RunConfig, scenario, result, solved: TrialRecord, cset) -> TrialRecord:
    """The projected row: the solved row plus the rate after projection onto
    the batch's set ``cset``; a failed projection flags the row.
    ``wall_ms`` counts the projection.
    """
    try:
        tic = time.perf_counter()
        projected = apply_projection(
            result, scenario, cset, refit=config.refit, config=config
        )
    except Exception as err:
        return _failed(solved.seed, "projected", solved.pmax_dbm, err)
    return replace(
        solved,
        mode="projected",
        projected_sum_rate=projected.sum_rate,
        wall_ms=solved.wall_ms + (time.perf_counter() - tic) * 1e3,
    )


def run_drop(config: RunConfig, seed: int, cset) -> list[TrialRecord]:
    """Rows of every configured power and mode for one seed, ordered by
    power as configured, then in ``MODES`` order.

    The seed's scenario, which carries its EM-domain blocks, is built once
    and serves every power: the power enters only the solves, as their SNR,
    and the decompositions.  At each power the pattern
    solve (``em_update=True``) runs once for ``trihybrid`` and
    ``projected`` together, the frozen-pattern solve
    once for ``hybrid``, and each solve's precoder is decomposed once.  The
    ``projected`` row carries its solve's rate, iterations and residual plus
    the rate after projecting onto ``cset``, the batch's candidate set (None
    when no ``projected`` row runs).  A failed scenario flags every row of
    the seed, a failed solve the rows derived from it and a failed
    projection the ``projected`` row; the other rows still succeed.
    """
    modes = config.modes()
    tic = time.perf_counter()
    try:
        scenario = generate_scenario(config, seed)
    except Exception as err:  # per-seed failures must not abort the batch
        return [
            _failed(seed, mode, pmax_dbm, err)
            for pmax_dbm in config.pmax_dbm
            for mode in modes
        ]
    drop = (scenario, time.perf_counter() - tic)
    records = []
    for pmax_dbm in config.pmax_dbm:
        rows = {}
        if "trihybrid" in modes or "projected" in modes:
            try:
                rows["trihybrid"], result = _solve(config, drop, seed, pmax_dbm, "trihybrid")
            except Exception as err:  # flags the rows derived from this solve
                for mode in ("trihybrid", "projected"):
                    if mode in modes:
                        rows[mode] = _failed(seed, mode, pmax_dbm, err)
            else:
                if "projected" in modes:
                    rows["projected"] = _project(config, scenario, result, rows["trihybrid"], cset)
        if "hybrid" in modes:
            try:
                rows["hybrid"], _ = _solve(config, drop, seed, pmax_dbm, "hybrid")
            except Exception as err:
                rows["hybrid"] = _failed(seed, "hybrid", pmax_dbm, err)
        records += [rows[mode] for mode in modes]
    return records


_pool_set = None  # a pool worker's candidate set, which _hold_set hands over


def _hold_set(cset) -> None:
    global _pool_set
    _pool_set = cset


def _pooled_drop(config: RunConfig, seed: int) -> list[TrialRecord]:
    return run_drop(config, seed, _pool_set)


def run_trials(config: RunConfig, cset=None) -> list[TrialRecord]:
    """Run the full (trial x power x mode) batch, one ``run_drop`` per
    trial seed.

    Seeds may execute on worker processes, at most one per seed; records
    always come back ordered by (trial, pmax, mode).  Failed trials yield
    flagged NaN records.  Every projected row projects onto one set: ``cset``,
    or when that is None ``load_candidate_set(config)``, looked up once before
    the first drop, so a bad file raises ``PatternLoadError`` before any
    trial.  A pool hands the set to each worker once.
    """
    if cset is None and "projected" in config.modes():
        cset = load_candidate_set(config)
    seeds = [config.seed + t for t in range(config.trials)]
    configs = [config] * len(seeds)
    workers = min(config.workers, len(seeds))
    if workers > 1:
        # imported here, so a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_hold_set, initargs=(cset,)) as pool:
            drops = list(pool.map(_pooled_drop, configs, seeds, chunksize=1))
    else:
        drops = [run_drop(config, seed, cset) for seed in seeds]
    return [record for drop in drops for record in drop]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_csv(path, header: str, rows) -> None:
    """Write ``rows``, each a sequence of values, as CSV under ``header``:
    9 significant digits, LF endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(value) for value in row) + "\n")


def emit_csv(records, path) -> None:
    """Write trial records as the results CSV, ``CSV_HEADER``."""
    columns = CSV_HEADER.split(",")
    _write_csv(path, CSV_HEADER, ([getattr(r, c) for c in columns] for r in records))


def convergence_trace(config: RunConfig, seed: int) -> dict:
    """The ``SolverResult``s, by mode, of the pattern-optimizing solve and
    the frozen-pattern baseline under the same seed, at the config's one
    power (the trace CSV has no power column)."""
    if len(config.pmax_dbm) > 1:
        raise ConfigError(f"pmax_dbm: trace runs one power, got {len(config.pmax_dbm)}")
    replace(config, mode="all")  # the pattern solve runs, so check the config as mode all
    scenario = generate_scenario(config, seed)
    snr_db = config.pmax_dbm[0] - config.noise_dbm
    return {
        mode: run_algorithm1(scenario, snr_db, config, seed, em_update=mode != "hybrid")
        for mode in ("trihybrid", "hybrid")
    }


def emit_trace_csv(results, path) -> None:
    """Write the trace CSV, one row per kept map of each mode's solve."""
    rows = [
        (mode, rec.iteration, rec.sum_rate, rec.objective)
        for mode, result in results.items()
        for rec in result.history
    ]
    _write_csv(path, "mode,iteration,sum_rate,objective", rows)
