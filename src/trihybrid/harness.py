"""Monte-Carlo experiment harness: configs, trial batches, CSV emission.

A run is fully determined by (config, base seed): trial t draws its scenario
from seed ``base + t``, once for all of the configured powers, and every
solver and decomposition step is seeded from the same value: each solve
from ``base + t`` itself, and each decomposition from ``[base + t, 0xD0C]``,
which ``decompose`` turns into a Generator only in its ALS regime
(K <= N_RF < 2K).  So rerunning a config reproduces every scientific output
byte for byte (wall-clock timings are measured and therefore exempt).

dBm quantities are converted to watts here, at the config boundary; all
internal computation is in SI units.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, fields, replace

from .channel import ScenarioConfig, generate_scenario
from .channel import _check_rules, _int_rule, _is_number, _is_numbers
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

logger = logging.getLogger(__name__)

MODES = ("trihybrid", "hybrid", "projected")
CSV_HEADER = (
    "seed,mode,pmax_dbm,sum_rate,iterations,decomp_residual,projected_sum_rate,wall_ms"
)


class ConfigError(ValueError):
    """A run configuration is malformed."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _config_watts(name: str, dbm: float) -> float:
    """The config field ``name``'s ``dbm`` in watts, or a ValueError naming
    the field when it overflows or underflows to 0 W."""
    try:
        watts = dbm_to_watts(dbm)
    except OverflowError:
        raise ValueError(f"{name}: {dbm} dBm overflows in watts") from None
    if watts == 0.0:
        raise ValueError(f"{name}: {dbm} dBm underflows to 0 W")
    return watts


def _require_pattern_degree(truncation: int) -> None:
    """The pattern solve's check of the truncation degree: with no AC part,
    a pattern pinned at DC eta < sqrt(4 pi) misses its budget."""
    if truncation == 0:
        raise ConfigError("truncation: optimizing patterns needs degree >= 1, got 0")


@dataclass(frozen=True)
class RunConfig(ScenarioConfig, SolverConfig):
    """Everything needed to reproduce a batch; defaults follow the reference
    setup: 3x3 array, 30 GHz, K=2 users with L=3 paths, 4 RF chains,
    T=25 harmonics, -95 dBm noise, 10 dBm budget.

    A RunConfig is the library's ``ScenarioConfig`` and ``SolverConfig``,
    whose fields it inherits and whose checks it runs, plus the batch's own
    fields below; ``generate_scenario`` and the solves take it as it is.
    ``noise_power_w`` is set from ``noise_dbm`` and is not a config-file
    key."""

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
    noise_power_w: float = field(init=False, repr=False, compare=False)

    RULES = {
        "n_rf": _int_rule(1),  # and within n_users..n_h*n_v, checked below
        "noise_dbm": ("a finite number", _is_number),
        "mode": ("'trihybrid', 'hybrid', 'projected' or 'all'",
                 lambda x: isinstance(x, str) and x in MODES + ("all",)),
        "trials": _int_rule(1),
        "seed": _int_rule(0),
        "pmax_dbm": ("a nonempty list of finite numbers", lambda x: _is_numbers(x) and len(x) > 0),
        "patterns_path": ("null or a string", lambda x: x is None or isinstance(x, str)),
        "refit": ("true or false", lambda x: type(x) is bool),
        "out_path": ("a string", lambda x: isinstance(x, str)),
        "workers": _int_rule(1),
    }

    def __post_init__(self):
        try:
            _check_rules(RunConfig, self)
            for pmax_dbm in self.pmax_dbm:  # reject bad knobs before any trial runs
                _config_watts("pmax_dbm", pmax_dbm)
            object.__setattr__(self, "noise_power_w", _config_watts("noise_dbm", self.noise_dbm))
            ScenarioConfig.__post_init__(self)
            SolverConfig.__post_init__(self)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        for name in ("bs_position", "weights", "pmax_dbm"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        # after the array sizes, which the range reads, are checked
        if not self.n_users <= self.n_rf <= self.n_h * self.n_v:
            raise ConfigError(f"n_rf: need n_users <= n_rf <= n_h*n_v, got {self.n_rf}")
        if self.mode != "hybrid":
            _require_pattern_degree(self.truncation)

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


# A candidate file's stat key is trusted only once the file was this much
# older than the clock when its bytes were read (see load_candidate_set).
STAT_SETTLE_NS = 2_000_000_000

_last_set = (None, None, None)  # (stat key, bytes while not settled else None, set)


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

    The last set parsed from a file is kept, so the CLI's fail-fast check,
    every batch and every worker of one process share one parse.  A settled
    entry is returned unopened when the file's stat key (device, inode, size,
    mtime, ctime) equals the entry's; it holds no bytes, so a new stat key
    costs a parse, even of equal bytes.  An unsettled entry holds the file's
    bytes, which the next call compares with the file through one reused MiB
    buffer, holding no second copy: equal bytes, under the same stat key or a
    new one (a ``touch`` or an ``os.replace``), cost a read, not a parse.

    An entry is settled when the file's mtime and ctime were more than
    ``STAT_SETTLE_NS`` older than the clock reading taken just before the
    stat: git's "racy clean" rule, which relies on POSIX ctime.  A write
    after that reading sets the ctime to at least the reading less one
    timestamp tick, which a settled key's ctime cannot equal and which no
    user can set back; a write in the same tick as a fresh file's last
    change, though, can leave its whole stat key as it was.  So a file
    changed less than ``STAT_SETTLE_NS`` before the read, or dated in the
    future, is read and compared again on the next call.  A failed stat,
    read or parse raises and leaves the kept entry in place.
    """
    global _last_set
    path = config.patterns_path
    if path is None:
        return _stand_in_set()
    (key, data, cset), now = _last_set, time.time_ns()
    try:
        st = os.stat(path)
        same = data is not None and _file_equals(path, data)
    except OSError as err:
        raise PatternLoadError(f"{path}: cannot read candidate set: {err}") from err
    stat_key = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    if data is None and key == stat_key:
        return cset
    if not same:
        data = read_candidate_file(path)
        cset = load_candidates(path, data)
    settled = max(st.st_mtime_ns, st.st_ctime_ns) < now - STAT_SETTLE_NS
    _last_set = (stat_key, None if settled else data, cset)
    return cset


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
        scenario, p_max, config, seed, em_update=mode != "hybrid"
    )
    factors = decompose(result.iterate.f_d, config.n_rf, p_max=p_max, rng=[seed, 0xD0C])
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


def _project(config: RunConfig, scenario, result, solved: TrialRecord) -> TrialRecord:
    """The projected row: the solved row plus the rate after projection.

    The candidate set comes from ``load_candidate_set``; a failed load flags
    the row like a failed projection.  ``wall_ms`` counts the projection, not
    the load.
    """
    try:
        cset = load_candidate_set(config)
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


def run_drop(config: RunConfig, seed: int) -> list[TrialRecord]:
    """Rows of every configured power and mode for one seed, ordered by
    power as configured, then in ``MODES`` order.

    The seed's scenario, which carries its EM-domain blocks, is built once
    and serves every power: the power enters only the solves, the
    decompositions and the projection's refit.  At each power the pattern
    solve (``em_update=True``) runs once for ``trihybrid`` and
    ``projected`` together, the frozen-pattern solve
    once for ``hybrid``, and each solve's precoder is decomposed once.  The
    ``projected`` row carries its solve's rate, iterations and residual plus
    the rate after projecting onto the candidate set of
    ``load_candidate_set(config)``.  A failed scenario flags every row of
    the seed, a failed solve the rows derived from it and a failed load or
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
                    rows["projected"] = _project(config, scenario, result, rows["trihybrid"])
        if "hybrid" in modes:
            try:
                rows["hybrid"], _ = _solve(config, drop, seed, pmax_dbm, "hybrid")
            except Exception as err:
                rows["hybrid"] = _failed(seed, "hybrid", pmax_dbm, err)
        records += [rows[mode] for mode in modes]
    return records


def run_trials(config: RunConfig) -> list[TrialRecord]:
    """Run the full (trial x power x mode) batch, one ``run_drop`` per
    trial seed.

    Seeds may execute on worker processes, at most one per seed; records
    always come back ordered by (trial, pmax, mode).  Failed trials yield
    flagged NaN records.  Each projection looks its candidate set up
    through ``load_candidate_set``, which says when a file is parsed again.
    """
    seeds = [config.seed + t for t in range(config.trials)]
    configs = [config] * len(seeds)
    workers = min(config.workers, len(seeds))
    if workers > 1:
        # imported here, so a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            drops = list(pool.map(run_drop, configs, seeds, chunksize=1))
    else:
        drops = list(map(run_drop, configs, seeds))
    return [record for drop in drops for record in drop]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_csv(path, header: str, rows) -> None:
    """Write ``rows`` as CSV under ``header``, each column read from the
    row's attribute of that name: 9 significant digits, LF endings."""
    columns = header.split(",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(getattr(row, column)) for column in columns) + "\n")


def emit_csv(records, path) -> None:
    """Write trial records as the results CSV, ``CSV_HEADER``."""
    _write_csv(path, CSV_HEADER, records)


@dataclass(frozen=True)
class TraceRow:
    mode: str
    iteration: int
    sum_rate: float
    objective: float


def convergence_trace(config: RunConfig, seed: int) -> list[TraceRow]:
    """Per-iteration sum rate and objective for the pattern-optimizing run
    and the frozen-pattern baseline under the same seed, at the config's one
    power (the trace CSV has no power column)."""
    if len(config.pmax_dbm) > 1:
        raise ConfigError(f"pmax_dbm: trace runs one power, got {len(config.pmax_dbm)}")
    _require_pattern_degree(config.truncation)  # a config of mode hybrid skipped it
    rows = []
    scenario = generate_scenario(config, seed)
    p_max = dbm_to_watts(config.pmax_dbm[0])
    for mode in ("trihybrid", "hybrid"):
        result = run_algorithm1(
            scenario, p_max, config, seed, em_update=mode != "hybrid"
        )
        rows.extend(
            TraceRow(mode, rec.iteration, rec.sum_rate, rec.objective)
            for rec in result.history
        )
    return rows


def emit_trace_csv(rows, path) -> None:
    _write_csv(path, "mode,iteration,sum_rate,objective", rows)
