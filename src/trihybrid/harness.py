"""Monte-Carlo experiment harness: configs, trial batches, CSV emission.

A run is fully determined by (config, base seed): trial t draws its scenario
from seed ``base + t`` and every solver and decomposition step is seeded from
the same value, so rerunning a config reproduces every scientific output
byte for byte (wall-clock timings are measured and therefore exempt).

dBm quantities are converted to watts here, at the config boundary; all
internal computation is in SI units.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import ScenarioConfig, generate_scenario
from .decomposition import decompose, sum_rate_loss
from .projection import (
    CandidatePatternSet,
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
DEFAULT_SWEEP_DBM = tuple(float(p) for p in range(0, 31, 5))


class ConfigError(ValueError):
    """A run configuration is malformed."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a batch; defaults follow the reference
    setup: 3x3 array, 30 GHz, K=2 users with L=3 paths, 4 RF chains,
    T=25 harmonics, -95 dBm noise, 10 dBm budget."""

    n_h: int = 3
    n_v: int = 3
    n_users: int = 2
    n_paths: int = 3
    n_rf: int = 4
    truncation: int = 4
    frequency_hz: float = 30e9
    noise_dbm: float = -95.0
    bs_position: tuple = (0.0, 0.0, 10.0)
    user_radius_m: float = 200.0
    field_mode: str = "far"
    weights: tuple | None = None
    eta: float = math.sqrt(2.0 * math.pi)
    max_iterations: int = 100
    tolerance: float = 1e-5
    bisection_tol: float = 1e-10
    mode: str = "all"
    trials: int = 100
    seed: int = 1
    pmax_dbm: tuple = (10.0,)
    patterns_path: str | None = None
    refit: bool = True
    out_path: str = "results.csv"
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "pmax_dbm", tuple(float(p) for p in self.pmax_dbm))
        object.__setattr__(self, "bs_position", tuple(float(x) for x in self.bs_position))
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(b) for b in self.weights))
        if self.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {self.trials}")
        if self.mode not in MODES + ("all",):
            raise ConfigError(f"mode: unknown mode {self.mode!r}")
        if not self.pmax_dbm or any(not math.isfinite(p) for p in self.pmax_dbm):
            raise ConfigError("pmax_dbm: need a nonempty list of finite powers")
        if not self.n_users <= self.n_rf <= self.n_h * self.n_v:
            raise ConfigError(
                f"n_rf: need n_users <= n_rf <= n_h*n_v, got {self.n_rf}"
            )
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers}")
        for pmax_dbm in self.pmax_dbm:  # reject bad knobs before any trial runs
            self.scenario_config(pmax_dbm)
        self.solver_config()

    def scenario_config(self, pmax_dbm: float) -> ScenarioConfig:
        try:
            return ScenarioConfig(
                n_h=self.n_h,
                n_v=self.n_v,
                n_users=self.n_users,
                n_paths=self.n_paths,
                frequency_hz=self.frequency_hz,
                bs_position=self.bs_position,
                user_radius_m=self.user_radius_m,
                noise_power_w=dbm_to_watts(self.noise_dbm),
                p_max_w=dbm_to_watts(pmax_dbm),
                weights=self.weights,
                field_mode=self.field_mode,
                truncation=self.truncation,
            )
        except OverflowError as err:
            raise ConfigError(f"dBm value out of range: {err}") from err
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def solver_config(self) -> SolverConfig:
        try:
            return SolverConfig(
                eta=self.eta,
                max_iterations=self.max_iterations,
                tolerance=self.tolerance,
                bisection_tol=self.bisection_tol,
            )
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def modes(self) -> tuple:
        return MODES if self.mode == "all" else (self.mode,)


def parse_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus overrides.

    File keys use the RunConfig field names; unknown keys are rejected with
    the offending name.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file: invalid JSON at line {err.lineno}") from err
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        values.update(doc)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    try:
        return RunConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


@dataclass
class TrialRecord:
    """One (trial, power, mode) outcome; failed trials carry NaN metrics and
    the error text (logged, not serialized).

    ``wall_ms`` is the time of the stages the row's values come from: the
    drop's scenario, the mode's solve and its decomposition, and for
    ``projected`` also the projection.  The ``projected`` row shares the
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


_last_set = None  # (key, set) of the last set load_candidate_set returned


def load_candidate_set(config: RunConfig) -> CandidatePatternSet:
    """Candidate set from the configured file, or the synthetic 64-lobe
    stand-in when no file is given.

    The file is read on every call, but parsed only when its content
    changed: the last set returned is returned again while its key matches,
    the sha256 of the file's bytes (None for the stand-in).  So the CLI's
    fail-fast check, every batch and every worker of one process share one
    parse.  A failed load leaves the last set in place.
    """
    global _last_set
    key = data = None
    if config.patterns_path is not None:
        key, data = read_candidate_file(config.patterns_path)
    last = _last_set
    if last is not None and last[0] == key:
        return last[1]
    if data is None:
        cset = steered_candidate_set(count=64)
    else:
        cset = load_candidates(config.patterns_path, data)
    _last_set = (key, cset)
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


def _solve(
    config: RunConfig, scenario, seed: int, pmax_dbm: float, mode: str, scenario_s: float
):
    """One pipeline's solve and decomposition: its row, timed with the
    scenario's ``scenario_s``, and the solver result."""
    tic = time.perf_counter()
    result = run_algorithm1(
        scenario, config.solver_config(), seed, em_update=mode != "hybrid"
    )
    factors = decompose(
        result.state.f_d,
        config.n_rf,
        p_max=scenario.p_max,
        rng=np.random.default_rng([seed, 0xD0C]),
    )
    loss = sum_rate_loss(
        result.state.f_d, factors, result.channels, scenario.weights, scenario.noise_powers
    )
    logger.info(
        "seed=%d mode=%s pmax=%.1f dBm: rate %.4f, decomposition residual %.3e, loss %.4g",
        seed, mode, pmax_dbm, result.sum_rate, factors.residual, loss,
    )
    record = TrialRecord(
        seed=seed,
        mode=mode,
        pmax_dbm=pmax_dbm,
        sum_rate=result.sum_rate,
        iterations=result.iterations,
        decomp_residual=factors.residual,
        projected_sum_rate=None,
        wall_ms=(scenario_s + time.perf_counter() - tic) * 1e3,
    )
    return record, result


def _project(config: RunConfig, scenario, result, solved: TrialRecord, cset) -> TrialRecord:
    """The projected row: the solved row plus the rate after projection."""
    if isinstance(cset, Exception):
        return _failed(solved.seed, "projected", solved.pmax_dbm, cset)
    tic = time.perf_counter()
    try:
        projected = apply_projection(
            result,
            scenario,
            load_candidate_set(config) if cset is None else cset,
            refit=config.refit,
            config=config.solver_config(),
        )
    except Exception as err:
        return _failed(solved.seed, "projected", solved.pmax_dbm, err)
    return replace(
        solved,
        mode="projected",
        projected_sum_rate=projected.sum_rate,
        wall_ms=solved.wall_ms + (time.perf_counter() - tic) * 1e3,
    )


def run_drop(
    config: RunConfig,
    seed: int,
    pmax_dbm: float,
    cset: CandidatePatternSet | Exception | None = None,
) -> list[TrialRecord]:
    """Rows of every configured mode for one drop (seed, power), in
    ``MODES`` order.

    The drop's scenario is generated once.  The pattern solve
    (``em_update=True``) runs once for ``trihybrid`` and ``projected``
    together, the frozen-pattern solve once for ``hybrid``, and each
    solve's precoder is decomposed once.  The ``projected`` row carries its
    solve's rate, iterations and residual plus the rate after projecting
    onto ``cset``, which is loaded from ``config`` when None; an exception
    in its place is the error loading it raised.  A failed solve flags the
    rows derived from it and a failed projection the ``projected`` row; the
    other rows still succeed.  Failing to generate the scenario raises.
    """
    modes = config.modes()
    tic = time.perf_counter()
    scenario = generate_scenario(config.scenario_config(pmax_dbm), seed)
    scenario_s = time.perf_counter() - tic
    rows = {}
    if "trihybrid" in modes or "projected" in modes:
        try:
            rows["trihybrid"], result = _solve(
                config, scenario, seed, pmax_dbm, "trihybrid", scenario_s
            )
        except Exception as err:  # flags the rows derived from this solve
            for mode in ("trihybrid", "projected"):
                if mode in modes:
                    rows[mode] = _failed(seed, mode, pmax_dbm, err)
        else:
            if "projected" in modes:
                rows["projected"] = _project(
                    config, scenario, result, rows["trihybrid"], cset
                )
    if "hybrid" in modes:
        try:
            rows["hybrid"], _ = _solve(config, scenario, seed, pmax_dbm, "hybrid", scenario_s)
        except Exception as err:
            rows["hybrid"] = _failed(seed, "hybrid", pmax_dbm, err)
    return [rows[mode] for mode in modes]


def _candidates(config: RunConfig):
    """The batch's candidate set when projection runs, or the error loading
    it raised, for the projected rows to carry."""
    if "projected" not in config.modes():
        return None
    try:
        return load_candidate_set(config)
    except Exception as err:
        return err


def _drop_rows(config: RunConfig, seed: int, pmax_dbm: float, cset) -> list[TrialRecord]:
    try:
        return run_drop(config, seed, pmax_dbm, cset)
    except Exception as err:  # per-drop failures must not abort the batch
        return [_failed(seed, mode, pmax_dbm, err) for mode in config.modes()]


_worker_cset = None  # a pool worker's candidate set, loaded by _init_worker


def _init_worker(config: RunConfig) -> None:
    global _worker_cset
    _worker_cset = _candidates(config)


def _worker_drop(job) -> list[TrialRecord]:
    return _drop_rows(*job, _worker_cset)


def run_trials(config: RunConfig) -> list[TrialRecord]:
    """Run the full (trial x power x mode) batch, one ``run_drop`` per
    (trial, power).

    Drops may execute on worker processes; records always come back ordered
    by (trial, pmax, mode).  The candidate set is parsed once per process
    (see ``load_candidate_set``).
    Failed trials yield flagged NaN records.
    """
    jobs = [
        (config, config.seed + t, pmax)
        for t in range(config.trials)
        for pmax in config.pmax_dbm
    ]
    if config.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(
            max_workers=config.workers, initializer=_init_worker, initargs=(config,)
        ) as pool:
            drops = list(pool.map(_worker_drop, jobs, chunksize=1))
    else:
        cset = _candidates(config)
        drops = [_drop_rows(*job, cset) for job in jobs]
    return [record for drop in drops for record in drop]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def emit_csv(records, path) -> None:
    """Write records as CSV: fixed header, 9 significant digits, LF endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            row = (
                rec.seed,
                rec.mode,
                rec.pmax_dbm,
                rec.sum_rate,
                rec.iterations,
                rec.decomp_residual,
                rec.projected_sum_rate,
                rec.wall_ms,
            )
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path) -> list[TrialRecord]:
    """Parse a results CSV back into records (round-trip of emit_csv)."""
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ValueError(f"unexpected CSV header in {path}")
        for row in reader:
            iterations = int(row["iterations"])
            records.append(
                TrialRecord(
                    seed=int(row["seed"]),
                    mode=row["mode"],
                    pmax_dbm=float(row["pmax_dbm"]),
                    sum_rate=float(row["sum_rate"]),
                    iterations=iterations,
                    decomp_residual=float(row["decomp_residual"]),
                    projected_sum_rate=(
                        float(row["projected_sum_rate"])
                        if row["projected_sum_rate"]
                        else None
                    ),
                    wall_ms=float(row["wall_ms"]),
                    error="parsed-failure" if iterations < 1 else None,
                )
            )
    return records


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
    rows = []
    scenario = generate_scenario(config.scenario_config(config.pmax_dbm[0]), seed)
    solver_cfg = config.solver_config()
    for mode in ("trihybrid", "hybrid"):
        result = run_algorithm1(scenario, solver_cfg, seed, em_update=mode != "hybrid")
        rows.extend(
            TraceRow(mode, rec.iteration, rec.sum_rate, rec.objective)
            for rec in result.history
        )
    return rows


def emit_trace_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("mode,iteration,sum_rate,objective\n")
        for row in rows:
            fh.write(
                f"{row.mode},{row.iteration},{_fmt(row.sum_rate)},{_fmt(row.objective)}\n"
            )


def sweep_config(config: RunConfig, pmax_dbm=None) -> RunConfig:
    """Power-sweep variant: all modes over the default 0..30 dBm grid unless
    an explicit grid is given."""
    grid = tuple(pmax_dbm) if pmax_dbm else DEFAULT_SWEEP_DBM
    return replace(config, mode="all", pmax_dbm=grid)
