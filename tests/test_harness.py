import base64
import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from reference import check_state, initial_objective

from trihybrid import cli, wmmse
from trihybrid import decomposition as dec
from trihybrid import harness as hn
from trihybrid import projection as proj
from trihybrid.channel import Scenario, ScenarioConfig, UpaGeometry, generate_scenario
from trihybrid.harmonics import truncation_length
from trihybrid.projection import PatternLoadError, save_candidates, steered_candidate_set
from trihybrid.wmmse import SolverConfig

# small, fast batch settings shared by most tests
FAST = dict(
    n_h=2, n_v=2, n_users=2, n_paths=2, n_rf=2, truncation=1,
    max_iterations=5, tolerance=0.0, user_radius_m=60.0,
)


def fast_config(**kwargs):
    params = dict(FAST)
    params.update(kwargs)
    return hn.RunConfig(**params)


def library_fields(config, cls) -> dict:
    """The values ``config`` holds of the fields of the library config ``cls``."""
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(cls)}


@pytest.fixture(autouse=True)
def fresh_candidate_memo(monkeypatch):
    """Each test starts with no candidate set kept from an earlier test,
    and no stand-in set built."""
    monkeypatch.setattr(hn, "_last_set", (None, None, None))
    hn._stand_in_set.cache_clear()


def count_calls(monkeypatch, *names):
    """Record the calls made through ``harness.<name>`` for each of
    ``names``, in one list."""
    calls = []

    def counter(func):
        def counted(*args, **kwargs):
            calls.append(args)
            return func(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(hn, name, counter(getattr(hn, name)))
    return calls


# Each way the candidate memo reads a file: its compare with the kept bytes
# and its plain read.
MEMO_READS = ("_file_equals", "read_candidate_file")


def read_csv(path) -> list[hn.TrialRecord]:
    """Parse a results CSV back into records (round-trip of ``emit_csv``)."""
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != hn.CSV_HEADER.split(","):
            raise ValueError(f"unexpected CSV header in {path}")
        for row in reader:
            iterations = int(row["iterations"])
            records.append(
                hn.TrialRecord(
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


def count_lifts_and_factors(monkeypatch):
    """Count the calls of the EM lift and of the pattern solve's AC
    factorization."""
    counts = {"lift": 0, "factor": 0}
    lift, factor = Scenario.em_channels, wmmse.factor_ac_blocks

    def counted_lift(scenario):
        counts["lift"] += 1
        return lift(scenario)

    def counted_factor(blocks):
        counts["factor"] += 1
        return factor(blocks)

    monkeypatch.setattr(Scenario, "em_channels", counted_lift)
    monkeypatch.setattr(wmmse, "factor_ac_blocks", counted_factor)
    return counts


def write_uniform_doc(path, value):
    """A one-pattern file of constant gain ``value`` (one digit), so files
    of different values have the same size."""
    doc = {
        "normalize": False,
        "patterns": [
            {"theta_deg": [0, 90, 180], "phi_deg": [0, 180, 360],
             "gain": [[value] * 3] * 3}
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def strip_wall(record):
    return (
        record.seed, record.mode, record.pmax_dbm, record.sum_rate,
        record.iterations, record.decomp_residual, record.projected_sum_rate,
        record.error,
    )


def _nested(depth, width, leaf):
    for _ in range(depth):
        leaf = [leaf] * width
    return leaf


ECHOED = ("x" * 100_000, _nested(900, 1, []), _nested(6, 6, 1), [1.0] * 100_000)


def _candidate_file(value, field):
    """Load a one-pattern candidate file with ``value`` at ``field``."""
    pattern = {"name": "p", "theta_deg": [0, 90, 180], "phi_deg": [0, 120, 240],
               "gain": [[1, 1, 1]] * 3}
    doc = {"normalize": True, "patterns": [pattern]}
    if field == "shape":
        pattern["gain"] = {"shape": "@", "base64": ""}
    else:
        (doc if field == "normalize" else pattern)[field] = "@"
    text = json.dumps(doc).replace('"@"', json.dumps(value))
    proj.load_candidates("doc", text.encode())


# Every site whose error message shows an offending config or candidate-file
# value, fed through the public entry point that reaches it; a value of the
# wrong type stops at its field's rule instead.
ECHO_SITES = {
    "run-config-type": lambda value: hn.RunConfig(n_h=value),
    "mode": lambda value: hn.RunConfig(mode=value),
    "field-mode": lambda value: hn.RunConfig(field_mode=value),
    "bs-position": lambda value: hn.RunConfig(bs_position=value),
    "weights": lambda value: hn.RunConfig(weights=value),
    # any string is a valid name
    "candidate-name": lambda value: _candidate_file([value], "name"),
    "block-shape": lambda value: _candidate_file(value, "shape"),
    "normalize": lambda value: _candidate_file(value, "normalize"),
}


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = hn.RunConfig()
        assert cfg.n_h * cfg.n_v == 9
        assert cfg.n_users == 2
        assert cfg.n_paths == 3
        assert cfg.n_rf == 4
        assert truncation_length(cfg.truncation) == 25
        assert cfg.eta == pytest.approx(math.sqrt(2 * math.pi))
        assert cfg.frequency_hz == 30e9
        assert cfg.noise_dbm == -95.0
        assert cfg.pmax_dbm == (10.0,)
        assert cfg.bs_position == (0.0, 0.0, 10.0)
        # the run's defaults are the library's, field for field, the noise
        # power converted from noise_dbm included
        assert library_fields(cfg, ScenarioConfig) == library_fields(
            ScenarioConfig(), ScenarioConfig
        )
        assert library_fields(cfg, SolverConfig) == library_fields(SolverConfig(), SolverConfig)

    def test_dbm_conversion(self):
        assert hn.dbm_to_watts(20.0) == pytest.approx(0.1)
        assert hn.dbm_to_watts(10.0) == pytest.approx(0.01)
        cfg = hn.RunConfig(pmax_dbm=(20.0,))
        assert cfg.noise_power_w == pytest.approx(10 ** (-12.5))

    def test_library_configs_built_from_fields_of_the_same_names(self):
        # a RunConfig is both library configs, and the library reads it as one
        cfg = hn.RunConfig(**FAST, noise_dbm=-80.0, eta=1.5, weights=[1, 2])
        assert isinstance(cfg, ScenarioConfig) and isinstance(cfg, SolverConfig)
        scenario = ScenarioConfig(
            n_h=2, n_v=2, n_users=2, n_paths=2, user_radius_m=60.0, truncation=1,
            noise_power_w=hn.dbm_to_watts(-80.0), weights=(1.0, 2.0),
        )
        assert library_fields(cfg, ScenarioConfig) == library_fields(scenario, ScenarioConfig)
        solver = SolverConfig(eta=1.5, max_iterations=5, tolerance=0.0)
        assert library_fields(cfg, SolverConfig) == library_fields(solver, SolverConfig)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.eta = 2.0

    def test_library_configs_are_not_config_keys(self, tmp_path):
        # noise_power_w is set from noise_dbm, never from a file
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": {}, "solver": {}, "noise_power_w": 1e-12}))
        with pytest.raises(
            hn.ConfigError, match="unknown config field.*noise_power_w, scenario, solver"
        ):
            hn.parse_config(path)

    def test_zero_trials_rejected(self):
        with pytest.raises(hn.ConfigError, match="trials"):
            hn.RunConfig(trials=0)

    def test_missing_config_file_reported(self, tmp_path):
        with pytest.raises(hn.ConfigError, match="cannot read config file"):
            hn.parse_config(tmp_path / "missing.json")

    def test_config_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1]", encoding="utf-8")
        with pytest.raises(hn.ConfigError, match="must hold a JSON object"):
            hn.parse_config(path)

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_users": 2, "bogus_knob": 1}))
        with pytest.raises(hn.ConfigError, match="bogus_knob"):
            hn.parse_config(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(hn.ConfigError, match="line"):
            hn.parse_config(path)

    def test_deeply_nested_file_rejected(self, tmp_path):
        # the parser recursed once per level and escaped as a RecursionError
        path = tmp_path / "cfg.json"
        path.write_text('{"weights": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(hn.ConfigError, match="nested too deeply"):
            hn.parse_config(path)

    @pytest.mark.parametrize(
        "value", ECHOED, ids=["long-string", "deep-list", "wide-nest", "long-list"]
    )
    @pytest.mark.parametrize("site", sorted(ECHO_SITES))
    def test_error_shows_a_bounded_value(self, site, value):
        # each message showed the whole value: 100,000 characters of a
        # string, 1,800 of a 900-deep list, and reprlib alone still prints
        # a list six wide and six deep in 158,628; now the value takes at
        # most 200 characters, and the message, without a file's path, 300
        with pytest.raises((hn.ConfigError, PatternLoadError)) as err:
            ECHO_SITES[site](value)
        assert len(str(err.value)) <= 300

    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 7, "seed": 3}))
        cfg = hn.parse_config(path, {"seed": 9, "mode": None})
        assert cfg.trials == 7
        assert cfg.seed == 9  # override wins, None overrides are ignored
        assert cfg.mode == "all"

    def test_rf_chain_bounds(self):
        with pytest.raises(hn.ConfigError, match="n_rf"):
            hn.RunConfig(n_rf=1)  # below n_users
        with pytest.raises(hn.ConfigError, match="n_rf"):
            hn.RunConfig(n_rf=10)  # above n_h * n_v

    @pytest.mark.parametrize("field", ["n_h", "n_v"])
    def test_empty_array_names_the_array_size(self, field):
        # the n_rf range reads n_h * n_v, so the array size is checked first
        with pytest.raises(hn.ConfigError, match=rf"^{field}: must be an integer >= 1, got 0$"):
            hn.RunConfig(**{field: 0})

    @pytest.mark.parametrize(
        "cls, bad",
        [
            (ScenarioConfig, {"n_h": 2.5}),
            (ScenarioConfig, {"truncation": 1.5}),
            (ScenarioConfig, {"n_users": True}),
            (ScenarioConfig, {"frequency_hz": True}),
            (SolverConfig, {"max_iterations": 2.5}),
            (SolverConfig, {"eta": True}),
            (SolverConfig, {"tolerance": True}),
        ],
        ids=["n-h-float", "truncation-float", "n-users-bool", "frequency-bool",
             "max-iterations-float", "eta-bool", "tolerance-bool"],
    )
    def test_library_config_names_the_knob(self, cls, bad):
        # without its rule, each builds and fails later in a TypeError that names no knob
        (name,) = bad
        with pytest.raises(ValueError, match=f"^{name}: must be "):
            cls(**bad)
        # numpy integers and arrays still build the same drop
        numpy_valued = ScenarioConfig(
            n_h=np.int64(3), weights=np.array([1.0, 2.0]), bs_position=np.zeros(3)
        )
        plain = ScenarioConfig(n_h=3, weights=(1.0, 2.0), bs_position=(0.0, 0.0, 0.0))
        assert np.array_equal(
            generate_scenario(numpy_valued, 1).blocks, generate_scenario(plain, 1).blocks
        )

    @pytest.mark.parametrize("cls", [ScenarioConfig, SolverConfig, hn.RunConfig, UpaGeometry])
    def test_every_init_field_has_one_rule(self, cls):
        tables = [vars(c)["RULES"] for c in cls.__mro__ if "RULES" in vars(c)]
        ruled = [name for table in tables for name in table]
        init = [f.name for f in dataclasses.fields(cls) if f.init]
        assert {name: ruled.count(name) for name in init} == dict.fromkeys(init, 1)
        assert set(ruled) <= {f.name for f in dataclasses.fields(cls)}

    def test_invalid_mode(self):
        with pytest.raises(hn.ConfigError, match="mode"):
            hn.RunConfig(mode="quad")


class TestRunTrials:
    def test_cardinality(self):
        cfg = fast_config(trials=2, pmax_dbm=(5.0, 10.0), mode="all", seed=1)
        records = hn.run_trials(cfg)
        assert len(records) == 12
        keys = [(r.seed, r.pmax_dbm, r.mode) for r in records]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], hn.MODES.index(k[2])))

    def test_deterministic_scientific_fields(self):
        cfg = fast_config(trials=2, mode="all", seed=4)
        a = [strip_wall(r) for r in hn.run_trials(cfg)]
        b = [strip_wall(r) for r in hn.run_trials(cfg)]
        assert a == b

    def test_parallel_matches_serial(self):
        serial = fast_config(trials=3, mode="trihybrid", seed=2, workers=1)
        parallel = fast_config(trials=3, mode="trihybrid", seed=2, workers=2)
        a = [strip_wall(r) for r in hn.run_trials(serial)]
        b = [strip_wall(r) for r in hn.run_trials(parallel)]
        assert a == b

    def test_failed_trial_flagged_not_fatal(self):
        cfg = fast_config(
            trials=1, mode="projected", patterns_path="/nonexistent/patterns.json"
        )
        records = hn.run_trials(cfg)
        assert len(records) == 1
        assert records[0].error is not None
        assert math.isnan(records[0].sum_rate)
        assert records[0].iterations == 0

    def test_mean_trihybrid_beats_hybrid(self):
        cfg = fast_config(trials=5, mode="all", seed=10, max_iterations=30)
        records = hn.run_trials(cfg)
        tri = np.mean([r.sum_rate for r in records if r.mode == "trihybrid"])
        hyb = np.mean([r.sum_rate for r in records if r.mode == "hybrid"])
        assert tri > hyb


class TestRunDrop:
    def test_one_lift_per_seed_one_factorization_per_pattern_solve(self, monkeypatch):
        # the scenario carries its blocks to every power; each pattern solve,
        # shared by the trihybrid and projected rows, factors them once
        counts = count_lifts_and_factors(monkeypatch)
        records = hn.run_trials(fast_config(mode="all", trials=2, pmax_dbm=(0.0, 20.0)))
        assert all(r.error is None for r in records)
        assert counts == {"lift": 2, "factor": 4}

    def test_default_row_draws_no_generator_and_no_loss(self, monkeypatch):
        # the default N_RF = 2K split reads no randomness, and no row output
        # reads a rate loss: neither module may build a Generator, and the
        # loss helper is gone from both
        make_rng, callers = np.random.default_rng, []

        def counted_rng(*args, **kwargs):
            callers.append(sys._getframe(1).f_globals.get("__name__"))
            return make_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted_rng)
        records = hn.run_drop(hn.RunConfig(mode="all"), seed=1)
        assert [r.mode for r in records] == list(hn.MODES)
        assert all(r.error is None for r in records)
        assert not {"trihybrid.decomposition", "trihybrid.harness"} & set(callers)
        assert not hasattr(dec, "sum_rate_loss") and not hasattr(hn, "sum_rate_loss")

    def test_als_row_seeds_decompose_from_its_seed(self):
        # K = 3 with N_RF = 4 < 2K is the ALS regime, seeded by [seed, 0xD0C]
        config, seed = hn.RunConfig(n_users=3, mode="hybrid"), 2
        (row,) = hn.run_drop(config, seed)
        p_max = hn.dbm_to_watts(config.pmax_dbm[0])
        scenario = generate_scenario(config, seed)
        result = wmmse.run_algorithm1(scenario, p_max, config, seed, em_update=False)
        factors = dec.decompose(
            result.iterate.f_d, 4, p_max=p_max, rng=np.random.default_rng([seed, 0xD0C])
        )
        assert len(factors.residual_history) > 1  # the ALS loop ran
        assert row.decomp_residual == factors.residual

    def test_frozen_patterns_factor_nothing(self, monkeypatch):
        counts = count_lifts_and_factors(monkeypatch)
        hn.run_drop(fast_config(mode="hybrid", pmax_dbm=(0.0, 20.0)), seed=1)
        assert counts == {"lift": 1, "factor": 0}

    @pytest.mark.parametrize("field_mode", ["far", "near"])
    def test_all_modes_match_separate_runs(self, field_mode):
        # each mode's rows derive from one shared solve per drop; they must
        # equal the rows of a run of that mode alone
        params = dict(trials=2, pmax_dbm=(0.0, 20.0), seed=3, field_mode=field_mode)
        together = hn.run_trials(fast_config(mode="all", **params))
        alone = {
            (r.seed, r.pmax_dbm, r.mode): strip_wall(r)
            for mode in hn.MODES
            for r in hn.run_trials(fast_config(mode=mode, **params))
        }
        assert len(together) == len(alone) == 12
        assert all(r.error is None for r in together)
        for r in together:
            assert strip_wall(r) == alone[(r.seed, r.pmax_dbm, r.mode)]
        # a projected row carries the optimized solve of its drop
        solved = {(r.seed, r.pmax_dbm): r for r in together if r.mode == "trihybrid"}
        for r in together:
            if r.mode == "projected":
                tri = solved[(r.seed, r.pmax_dbm)]
                assert (r.sum_rate, r.iterations, r.decomp_residual) == (
                    tri.sum_rate, tri.iterations, tri.decomp_residual
                )

    def test_failed_pattern_solve_flags_its_rows_only(self, monkeypatch):
        solve = hn.run_algorithm1

        def pattern_solve_fails(*args, em_update=True, **kwargs):
            if em_update:
                raise RuntimeError("synthetic pattern-solve failure")
            return solve(*args, em_update=em_update, **kwargs)

        monkeypatch.setattr(hn, "run_algorithm1", pattern_solve_fails)
        records = hn.run_trials(fast_config(trials=1, mode="all"))
        by_mode = {r.mode: r for r in records}
        for mode in ("trihybrid", "projected"):
            assert by_mode[mode].error == "RuntimeError: synthetic pattern-solve failure"
            assert math.isnan(by_mode[mode].sum_rate)
        assert by_mode["hybrid"].error is None
        assert by_mode["hybrid"].sum_rate > 0

    def test_failed_hybrid_solve_flags_its_row_only(self, monkeypatch):
        solve = hn.run_algorithm1

        def frozen_solve_fails(*args, em_update=True, **kwargs):
            if not em_update:
                raise RuntimeError("synthetic frozen-solve failure")
            return solve(*args, em_update=em_update, **kwargs)

        monkeypatch.setattr(hn, "run_algorithm1", frozen_solve_fails)
        records = hn.run_drop(fast_config(mode="all", pmax_dbm=(0.0, 10.0)), 1)
        assert [r.mode for r in records] == list(hn.MODES) * 2
        for record in records:
            if record.mode == "hybrid":
                assert record.error == "RuntimeError: synthetic frozen-solve failure"
                assert math.isnan(record.sum_rate) and record.iterations == 0
            else:
                assert record.error is None and record.sum_rate > 0

    def test_failed_projection_flags_projected_row_only(self, monkeypatch):
        def projection_fails(*args, **kwargs):
            raise ValueError("synthetic projection failure")

        monkeypatch.setattr(hn, "apply_projection", projection_fails)
        records = hn.run_trials(fast_config(trials=1, mode="all"))
        by_mode = {r.mode: r for r in records}
        assert by_mode["projected"].error == "ValueError: synthetic projection failure"
        assert by_mode["trihybrid"].error is None
        assert by_mode["hybrid"].error is None

    def test_candidates_loaded_once_per_batch(self, tmp_path, monkeypatch):
        path = tmp_path / "patterns.json"
        save_candidates(steered_candidate_set(count=4, n_theta=13, n_phi=25), path)
        load, calls = hn.load_candidates, []

        def counted(*args):
            calls.append(args)
            return load(*args)

        monkeypatch.setattr(hn, "load_candidates", counted)
        records = hn.run_trials(
            fast_config(mode="projected", trials=3, patterns_path=str(path))
        )
        assert len(calls) == 1
        assert all(r.error is None for r in records)

    def test_failed_scenario_flags_its_drop_only(self, monkeypatch):
        generate = hn.generate_scenario

        def scenario_fails(config, seed):
            if seed == 2:
                raise RuntimeError("synthetic scenario failure")
            return generate(config, seed)

        monkeypatch.setattr(hn, "generate_scenario", scenario_fails)
        records = hn.run_trials(fast_config(trials=2, mode="all", seed=1))
        assert len(records) == 6
        for r in records:
            if r.seed == 2:
                assert r.error == "RuntimeError: synthetic scenario failure"
                assert math.isnan(r.sum_rate) and r.iterations == 0
            else:
                assert r.error is None

    def test_pooled_missing_file_flags_projected_rows(self):
        cfg = fast_config(
            trials=2, mode="all", workers=2, patterns_path="/nonexistent/patterns.json"
        )
        records = hn.run_trials(cfg)
        assert len(records) == 6
        for r in records:
            if r.mode == "projected":
                assert r.error.startswith("PatternLoadError:")
                assert "/nonexistent/patterns.json" in r.error
            else:
                assert r.error is None and r.sum_rate > 0

    def test_parallel_projection_matches_serial(self, tmp_path):
        path = tmp_path / "patterns.json"
        save_candidates(steered_candidate_set(count=4, n_theta=13, n_phi=25), path)
        params = dict(trials=3, mode="projected", seed=2, patterns_path=str(path))
        serial = hn.run_trials(fast_config(workers=1, **params))
        parallel = hn.run_trials(fast_config(workers=2, **params))
        assert [strip_wall(r) for r in serial] == [strip_wall(r) for r in parallel]


class TestSnrShift:
    """Moving ``pmax_dbm`` and ``noise_dbm`` together by the same dB leaves
    the problem unchanged: the precoder scales by the square root of the
    power ratio and every rate stays put.  Over seeds 1..10, far and near
    field, at +-20 dB (480 row pairs), the rates moved by at most 9.2e-13
    relative and no ``iterations`` value changed."""

    POWERS_DBM = (0.0, 10.0, 20.0, 30.0)
    RTOL = 1e-10

    @pytest.mark.parametrize("field_mode", ["far", "near"])
    def test_rows_unchanged(self, field_mode):
        def drop(shift_db, seed):
            config = hn.RunConfig(
                field_mode=field_mode, mode="all", noise_dbm=-95.0 + shift_db,
                pmax_dbm=[p + shift_db for p in self.POWERS_DBM],
            )
            return hn.run_drop(config, seed)

        for seed in (1, 2, 3):
            base = drop(0.0, seed)
            for shift_db in (20.0, -20.0):
                shifted = drop(shift_db, seed)
                assert len(shifted) == len(base) == 3 * len(self.POWERS_DBM)
                for want, got in zip(base, shifted):
                    assert want.error is None and got.error is None
                    assert (got.mode, got.iterations) == (want.mode, want.iterations)
                    assert got.sum_rate == pytest.approx(want.sum_rate, rel=self.RTOL)
                    if want.mode == "projected":
                        assert got.projected_sum_rate == pytest.approx(
                            want.projected_sum_rate, rel=self.RTOL
                        )


class TestPowerGrouping:
    """A seed's rows do not depend on how its powers are grouped: its
    scenario is drawn from the seed alone, built once, and each power's
    solves read only it."""

    POWERS = (0.0, 10.0, 30.0)

    def run(self, pmax_dbm, **kwargs):
        params = dict(trials=2, seed=5, mode="all", field_mode="near", pmax_dbm=pmax_dbm)
        params.update(kwargs)
        return [strip_wall(r) for r in hn.run_trials(fast_config(**params))]

    @staticmethod
    def by_power(rows):
        """Rows ordered by (seed, power, mode)."""
        return sorted(rows, key=lambda r: (r[0], r[2], hn.MODES.index(r[1])))

    def test_together_equals_each_power_alone(self):
        together = self.run(self.POWERS)
        alone = [row for p in self.POWERS for row in self.run((p,))]
        assert len(together) == 2 * 3 * 3
        assert all(row[-1] is None for row in together)
        assert together == self.by_power(alone)

    def test_permuted_powers_sorted_back(self):
        together = self.run(self.POWERS)
        permuted = self.run((30.0, 0.0, 10.0))
        assert [r[2] for r in permuted[:9]] == [30.0] * 3 + [0.0] * 3 + [10.0] * 3
        assert self.by_power(permuted) == together

    def test_workers_match_serial(self):
        assert self.run(self.POWERS, workers=2) == self.run(self.POWERS, workers=1)

    def test_import_leaves_multiprocessing_unloaded(self):
        # a serial run needs no process pool, so importing the harness (as
        # every cold start does) must not pull in multiprocessing
        code = "import sys, trihybrid.harness; print('multiprocessing' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_one_scenario_per_seed(self, monkeypatch):
        calls = count_calls(monkeypatch, "generate_scenario")
        records = hn.run_trials(fast_config(trials=2, mode="all", pmax_dbm=self.POWERS))
        assert len(records) == 18
        assert [args[1] for args in calls] == [1, 2]

    @pytest.mark.parametrize("trials,workers,processes", [(1, 2, 0), (2, 4, 2), (3, 2, 2)])
    def test_no_more_processes_than_seeds(self, monkeypatch, trials, workers, processes):
        # run_trials imports the pool class when it needs one
        pools = []
        pool = concurrent.futures.ProcessPoolExecutor

        def recorded(max_workers):
            pools.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded)
        records = hn.run_trials(fast_config(trials=trials, workers=workers, mode="hybrid"))
        assert len(records) == trials
        assert pools == ([processes] if processes else [])


class TestCandidateMemo:
    def test_unchanged_bytes_parse_once(self, tmp_path, monkeypatch):
        path = tmp_path / "patterns.json"
        save_candidates(steered_candidate_set(count=4, n_theta=13, n_phi=25), path)
        calls = count_calls(monkeypatch, "load_candidates")
        cfg = fast_config(patterns_path=str(path))
        first = hn.load_candidate_set(cfg)
        assert hn.load_candidate_set(cfg) is first
        assert hn.load_candidate_set(cfg) is first
        assert len(calls) == 1

    def test_shared_set_is_read_only(self, tmp_path):
        path = tmp_path / "patterns.json"
        save_candidates(steered_candidate_set(count=4, n_theta=13, n_phi=25), path)
        cfg = fast_config(patterns_path=str(path))
        cset = hn.load_candidate_set(cfg)
        assert hn.load_candidate_set(cfg) is cset
        with pytest.raises(ValueError):
            cset.patterns[0].gain[0, 0] = 0.0
        with pytest.raises(ValueError):
            cset.grids[0].gains *= 2.0

    def test_rewritten_bytes_reload(self, tmp_path, monkeypatch):
        path = tmp_path / "patterns.json"
        write_uniform_doc(path, 1)
        cfg = fast_config(patterns_path=str(path))
        old = hn.load_candidate_set(cfg)
        stat = path.stat()
        write_uniform_doc(path, 2)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        calls = count_calls(monkeypatch, "load_candidates")
        new = hn.load_candidate_set(cfg)
        assert len(calls) == 1
        assert new is not old
        np.testing.assert_array_equal(new.patterns[0].gain, 2.0)
        np.testing.assert_array_equal(old.patterns[0].gain, 1.0)

    def test_failed_load_is_not_kept(self, tmp_path):
        path = tmp_path / "patterns.json"
        cfg = fast_config(patterns_path=str(path))
        write_uniform_doc(path, 1)
        hn.load_candidate_set(cfg)
        path.write_text('{"patterns": [', encoding="utf-8")
        with pytest.raises(PatternLoadError):
            hn.load_candidate_set(cfg)
        write_uniform_doc(path, 3)
        np.testing.assert_array_equal(hn.load_candidate_set(cfg).patterns[0].gain, 3.0)

    def test_settled_hit_opens_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hn, "STAT_SETTLE_NS", 0)  # a file settles at once
        path = tmp_path / "patterns.json"
        write_uniform_doc(path, 1)
        cfg = fast_config(patterns_path=str(path))
        first = hn.load_candidate_set(cfg)
        reads = count_calls(monkeypatch, *MEMO_READS)
        assert hn.load_candidate_set(cfg) is first
        assert hn.load_candidate_set(cfg) is first
        assert len(reads) == 0

    def test_unsettled_hit_compares_without_parsing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hn, "STAT_SETTLE_NS", 10**18)  # a file never settles
        path = tmp_path / "patterns.json"
        write_uniform_doc(path, 1)
        cfg = fast_config(patterns_path=str(path))
        first = hn.load_candidate_set(cfg)
        reads = count_calls(monkeypatch, *MEMO_READS)
        parses = count_calls(monkeypatch, "load_candidates")
        assert hn.load_candidate_set(cfg) is first
        assert (len(reads), len(parses)) == (1, 0)

    def test_touched_settled_file_parses_once(self, tmp_path, monkeypatch):
        # A settled entry holds no bytes to compare with, so its file under a
        # new stat key is parsed again, even with equal bytes.
        monkeypatch.setattr(hn, "STAT_SETTLE_NS", 0)
        path = tmp_path / "patterns.json"
        write_uniform_doc(path, 1)
        cfg = fast_config(patterns_path=str(path))
        first = hn.load_candidate_set(cfg)
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns - 10**9))
        reads = count_calls(monkeypatch, *MEMO_READS)
        parses = count_calls(monkeypatch, "load_candidates")
        touched = hn.load_candidate_set(cfg)
        assert touched is not first
        assert hn.load_candidate_set(cfg) is touched  # settled under the new key
        assert (len(reads), len(parses)) == (1, 1)
        np.testing.assert_array_equal(touched.patterns[0].gain, first.patterns[0].gain)

    def test_unsettled_replace_with_equal_bytes_parses_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hn, "STAT_SETTLE_NS", 10**18)  # a file never settles
        path = tmp_path / "patterns.json"
        write_uniform_doc(path, 1)
        cfg = fast_config(patterns_path=str(path))
        first = hn.load_candidate_set(cfg)
        ino = path.stat().st_ino
        staged = tmp_path / "staged.json"
        staged.write_bytes(path.read_bytes())
        os.replace(staged, path)
        assert path.stat().st_ino != ino
        reads = count_calls(monkeypatch, *MEMO_READS)
        parses = count_calls(monkeypatch, "load_candidates")
        assert hn.load_candidate_set(cfg) is first
        assert (len(reads), len(parses)) == (1, 0)

    def test_replaced_same_size_restored_mtime_reloads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hn, "STAT_SETTLE_NS", 0)
        path = tmp_path / "patterns.json"
        write_uniform_doc(path, 1)
        cfg = fast_config(patterns_path=str(path))
        old = hn.load_candidate_set(cfg)
        assert hn.load_candidate_set(cfg) is old  # the entry is settled
        stat = path.stat()
        staged = tmp_path / "staged.json"
        write_uniform_doc(staged, 2)
        os.utime(staged, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        os.replace(staged, path)
        assert path.stat().st_size == stat.st_size
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        parses = count_calls(monkeypatch, "load_candidates")
        new = hn.load_candidate_set(cfg)
        assert len(parses) == 1
        np.testing.assert_array_equal(new.patterns[0].gain, 2.0)

    def test_settled_in_place_rewrite_reloads(self, tmp_path, monkeypatch):
        # A 50 ms window, waited out for real: the rewrite's ctime is then
        # newer than the settled key's, whatever the timestamp tick below 50 ms.
        monkeypatch.setattr(hn, "STAT_SETTLE_NS", 50_000_000)
        path = tmp_path / "patterns.json"
        write_uniform_doc(path, 1)
        time.sleep(0.1)
        cfg = fast_config(patterns_path=str(path))
        old = hn.load_candidate_set(cfg)
        reads = count_calls(monkeypatch, *MEMO_READS)
        assert hn.load_candidate_set(cfg) is old
        assert len(reads) == 0  # the entry is settled
        stat = path.stat()
        write_uniform_doc(path, 2)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_ino == stat.st_ino
        assert path.stat().st_size == stat.st_size
        new = hn.load_candidate_set(cfg)
        np.testing.assert_array_equal(new.patterns[0].gain, 2.0)

    def test_deleted_file_raises_then_reloads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hn, "STAT_SETTLE_NS", 0)
        path = tmp_path / "patterns.json"
        write_uniform_doc(path, 1)
        cfg = fast_config(patterns_path=str(path))
        old = hn.load_candidate_set(cfg)
        assert hn.load_candidate_set(cfg) is old  # the entry is settled
        path.unlink()
        with pytest.raises(PatternLoadError, match="cannot read candidate set"):
            hn.load_candidate_set(cfg)
        # A new size: with the settle window off, a same-size file written in
        # the tick of the old one's last change could reuse its whole stat key.
        write_uniform_doc(path, 10)
        np.testing.assert_array_equal(hn.load_candidate_set(cfg).patterns[0].gain, 10.0)

    def test_unsettled_hit_holds_no_second_copy(self, tmp_path, monkeypatch):
        # An unsettled hit on a file of over 8 MiB allocates one MiB, the
        # compare's buffer: neither the whole file nor a chunk of either
        # side is copied beside the kept bytes.
        monkeypatch.setattr(hn, "STAT_SETTLE_NS", 10**18)  # a file never settles
        path = tmp_path / "patterns.json"
        save_candidates(steered_candidate_set(count=112), path)
        assert path.stat().st_size >= 8 << 20
        cfg = fast_config(patterns_path=str(path))
        first = hn.load_candidate_set(cfg)
        tracemalloc.start()
        try:
            assert hn.load_candidate_set(cfg) is first
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (1 << 20)

    def test_compare_is_true_only_for_equal_bytes(self, tmp_path):
        path = tmp_path / "patterns.json"
        data = bytes(range(256)) * 9000  # over two MiB: three compared chunks
        path.write_bytes(data)
        assert hn._file_equals(path, bytes(bytearray(data)))  # equal bytes in another object
        for other in (data[:-1], data + b"x", data[:-1] + b"x", b"x" + data[1:]):
            assert not hn._file_equals(path, other)
        assert proj.read_candidate_file(path) == data

    def test_stand_in_built_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "steered_candidate_set")
        cfg = fast_config(mode="projected", trials=1)
        for _ in range(2):
            assert all(r.error is None for r in hn.run_trials(cfg))
        assert len(calls) == 1

    def test_not_utf8_file_flags_projected_rows(self, tmp_path):
        path = tmp_path / "patterns.json"
        path.write_bytes(b"\xff\xfe{}")
        records = hn.run_trials(fast_config(mode="all", trials=1, patterns_path=str(path)))
        by_mode = {r.mode: r for r in records}
        assert by_mode["projected"].error.startswith("PatternLoadError:")
        assert "not UTF-8 text" in by_mode["projected"].error
        assert by_mode["trihybrid"].error is None


class TestConfigSpace:
    """Every draw from the documented config space is either a config error
    or a drop whose rows are finite and error-free, with every solve keeping
    its invariants: the 4 pi and power budgets, pinned DC (pattern solves),
    and acceptance 04's monotone objective chain and sum rate.  The draws
    cover eta over (0, sqrt(4 pi)), unequal weights, user radii from 10 m to
    1 km, noise from -120 to -70 dBm, and projection onto the stand-in set
    or a small candidate file."""

    DRAWS = 100
    DEGREES = (0, 1, 2, 4, 6, 10)
    TOL = 1e-8  # acceptance 04's bound

    @staticmethod
    def draw(rng, seed, patterns):
        n_h, n_v = (int(n) for n in rng.integers(1, 5, size=2))
        n_users = int(rng.integers(1, min(4, n_h * n_v) + 1))
        return dict(
            n_h=n_h,
            n_v=n_v,
            n_users=n_users,
            n_rf=int(rng.integers(n_users, n_h * n_v + 1)),
            n_paths=int(rng.integers(1, 5)),
            truncation=int(rng.choice(TestConfigSpace.DEGREES)),
            field_mode=str(rng.choice(["far", "near"])),
            pmax_dbm=(float(rng.uniform(0.0, 30.0)),),
            eta=float(rng.uniform(0.0, math.sqrt(4.0 * math.pi))),
            weights=tuple(float(b) for b in rng.uniform(0.25, 4.0, n_users)),
            patterns_path=str(patterns) if rng.uniform() < 0.5 else None,
            user_radius_m=float(10 ** rng.uniform(1.0, 3.0)),
            noise_dbm=float(rng.uniform(-120.0, -70.0)),
            mode="all",
            trials=1,
            seed=seed,
        )

    def audit(self, scenario, result, eta, p_max, em_update):
        check_state(result.iterate, eta, p_max, dc_pinned=em_update)
        prev = initial_objective(scenario)
        for rec in result.history:
            chain = (rec.objective_after_v, rec.objective_after_w,
                     rec.objective_after_fd, rec.objective)
            for obj in chain:
                assert obj <= prev + self.TOL
                prev = obj
        rates = [rec.sum_rate for rec in result.history]
        assert all(b >= a - self.TOL for a, b in zip(rates, rates[1:]))

    def test_every_draw_runs_clean_or_is_config_error(self, monkeypatch, tmp_path):
        patterns = tmp_path / "patterns.json"
        save_candidates(steered_candidate_set(count=8, n_theta=19, n_phi=37), patterns)
        solves = []
        solve = hn.run_algorithm1

        def recorded(scenario, p_max, config, seed, em_update=True, **kwargs):
            result = solve(scenario, p_max, config, seed, em_update=em_update, **kwargs)
            solves.append((scenario, result, config.eta, p_max, em_update))
            return result

        monkeypatch.setattr(hn, "run_algorithm1", recorded)
        rng = np.random.default_rng(11)
        clean = 0
        for seed in range(1, self.DRAWS + 1):
            params = self.draw(rng, seed, patterns)
            try:
                config = hn.RunConfig(**params)
            except hn.ConfigError:
                continue
            solves.clear()
            rows = hn.run_drop(config, seed)
            for row in rows:
                assert row.error is None, (params, row.error)
                assert math.isfinite(row.sum_rate) and math.isfinite(row.decomp_residual)
            assert math.isfinite(rows[-1].projected_sum_rate)
            assert [r.mode for r in rows] == list(hn.MODES)
            assert len(solves) == 2
            for solved in solves:
                self.audit(*solved)
            clean += 1
        assert clean >= self.DRAWS // 2


class TestCsv:
    def test_header_only_for_empty_batch(self, tmp_path):
        path = tmp_path / "empty.csv"
        hn.emit_csv([], path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines == [hn.CSV_HEADER, ""]

    def test_line_count(self, tmp_path):
        cfg = fast_config(trials=2, pmax_dbm=(5.0, 10.0), mode="all", seed=1)
        records = hn.run_trials(cfg)
        path = tmp_path / "r.csv"
        hn.emit_csv(records, path)
        text = path.read_text(encoding="utf-8")
        assert len(text.split("\n")) == 14  # header + 12 rows + trailing newline
        assert "\r" not in text

    def test_round_trip(self, tmp_path):
        cfg = fast_config(trials=1, mode="all", seed=6)
        records = hn.run_trials(cfg)
        path = tmp_path / "r.csv"
        hn.emit_csv(records, path)
        parsed = read_csv(path)
        for orig, back in zip(records, parsed):
            assert back.seed == orig.seed
            assert back.mode == orig.mode
            assert back.pmax_dbm == orig.pmax_dbm
            assert back.sum_rate == pytest.approx(orig.sum_rate, rel=1e-8)
            assert back.iterations == orig.iterations
            assert back.decomp_residual == pytest.approx(orig.decomp_residual, rel=1e-8)
            if orig.projected_sum_rate is None:
                assert back.projected_sum_rate is None
            else:
                assert back.projected_sum_rate == pytest.approx(
                    orig.projected_sum_rate, rel=1e-8
                )

    def test_nine_significant_digits(self, tmp_path):
        rec = hn.TrialRecord(
            seed=1, mode="hybrid", pmax_dbm=10.0, sum_rate=1.0 / 3.0,
            iterations=2, decomp_residual=2.0 / 3.0, projected_sum_rate=None,
            wall_ms=1.5,
        )
        path = tmp_path / "fmt.csv"
        hn.emit_csv([rec], path)
        row = path.read_text().split("\n")[1]
        assert "0.333333333" in row
        assert "0.666666667" in row

    def test_emit_is_byte_stable(self, tmp_path):
        cfg = fast_config(trials=1, mode="hybrid", seed=8)
        records = hn.run_trials(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        hn.emit_csv(records, p1)
        hn.emit_csv(records, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestTrace:
    def test_rows_start_at_one_and_rates_monotone(self):
        # a row per kept map, numbered by the map that made it: the hybrid
        # solve's rejected extrapolations spend numbers and leave no row
        cfg = fast_config(max_iterations=12, seed=3)
        rows = hn.convergence_trace(cfg, seed=3)
        modes = {r.mode for r in rows}
        assert modes == {"trihybrid", "hybrid"}
        scenario = hn.generate_scenario(cfg, 3)
        for mode in modes:
            series = [r for r in rows if r.mode == mode]
            result = hn.run_algorithm1(
                scenario, hn.dbm_to_watts(cfg.pmax_dbm[0]), cfg, 3,
                em_update=mode != "hybrid",
            )
            numbers = [r.iteration for r in series]
            assert numbers[0] == 1
            assert all(a < b for a, b in zip(numbers, numbers[1:]))
            assert numbers == [rec.iteration for rec in result.history]
            assert numbers[-1] <= result.iterations
            rates = [r.sum_rate for r in series]
            assert all(b >= a - 1e-8 for a, b in zip(rates, rates[1:]))

    def test_trihybrid_ends_at_or_above_hybrid(self):
        cfg = fast_config(max_iterations=30, seed=5)
        rows = hn.convergence_trace(cfg, seed=5)
        tri = [r.sum_rate for r in rows if r.mode == "trihybrid"][-1]
        hyb = [r.sum_rate for r in rows if r.mode == "hybrid"][-1]
        assert tri >= hyb

    def test_degree_zero_rejected(self):
        # the API may set a mode that allows degree 0; trace still needs it
        with pytest.raises(hn.ConfigError, match="truncation"):
            hn.convergence_trace(fast_config(truncation=0, mode="hybrid"), seed=1)

    def test_one_power_only(self):
        cfg = fast_config(max_iterations=3, pmax_dbm=(0.0, 30.0))
        with pytest.raises(hn.ConfigError, match="pmax_dbm"):
            hn.convergence_trace(cfg, seed=1)

    def test_one_lift_and_one_factorization(self, monkeypatch):
        counts = count_lifts_and_factors(monkeypatch)
        hn.convergence_trace(fast_config(max_iterations=3), seed=1)
        assert counts == {"lift": 1, "factor": 1}

    def test_trace_csv(self, tmp_path):
        cfg = fast_config(max_iterations=4, seed=1)
        rows = hn.convergence_trace(cfg, seed=1)
        path = tmp_path / "trace.csv"
        hn.emit_trace_csv(rows, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "mode,iteration,sum_rate,objective"
        assert len(lines) == len(rows) + 1


class TestCli:
    def write_fast_config(self, tmp_path, **kwargs):
        params = dict(FAST)
        params.update(kwargs)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(params))
        return path

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = self.write_fast_config(tmp_path, trials=1, mode="hybrid")
        out = tmp_path / "results.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out), "--seed", "2"])
        assert code == 0
        assert out.exists()
        assert "hybrid" in capsys.readouterr().out
        assert len(read_csv(out)) == 1

    def test_summary_table_reports_csv_means(self, tmp_path, capsys):
        # one row per power, one column per mode; the projected column is the
        # rate after projection, not the optimized rate its rows also carry
        cfg = self.write_fast_config(tmp_path, trials=2)
        out = tmp_path / "all.csv"
        code = cli.main(
            ["run", "--config", str(cfg), "--pmax-dbm", "0", "10", "--out", str(out)]
        )
        assert code == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        header = lines.index(["P_max", "[dBm]", *hn.MODES])
        records = read_csv(out)
        for row in lines[header + 1 : header + 3]:
            pmax = float(row[0])
            for mode, printed in zip(hn.MODES, map(float, row[1:])):
                rows = [r for r in records if r.mode == mode and r.pmax_dbm == pmax]
                field = "projected_sum_rate" if mode == "projected" else "sum_rate"
                mean = np.mean([getattr(r, field) for r in rows])
                assert printed == pytest.approx(mean, abs=1e-4)

    def test_config_error_exit_code(self, capsys):
        code = cli.main(["run", "--trials", "0"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            {"weights": [1, 2, 3]},
            {"weights": [1, -2]},
            {"field_mode": "mid"},
            {"truncation": -1},
            {"eta": 0},
            {"max_iterations": 0},
            {"pmax_dbm": [10, 5000]},  # the second budget overflows in watts
            {"noise_dbm": math.nan},
            {"noise_dbm": math.inf},
            {"frequency_hz": math.nan},
            {"frequency_hz": math.inf},
            {"user_radius_m": math.nan},
            {"user_radius_m": math.inf},
            {"bs_position": [0, math.nan, 10]},
            {"tolerance": math.nan},  # the solve would never converge
            {"bisection_tol": math.nan},
            {"bisection_tol": math.inf},
            {"weights": [1, math.inf]},
            {"n_h": 2.5},
            {"n_v": 2.0},
            {"n_users": 2.0},
            {"n_paths": 1.5},
            {"n_rf": 2.5},
            {"truncation": 1.5},
            {"max_iterations": 5.5},
            {"trials": 1.5},
            {"seed": 1.5},
            {"workers": 1.0},
            {"workers": True},
            {"seed": -3},
            {"n_h": -1, "n_v": -2, "n_users": 1, "n_rf": 1},  # product 2 passes n_rf
            {"truncation": 0, "mode": "all"},  # no AC part for the pattern solve
            {"truncation": 0, "mode": "trihybrid"},
            {"truncation": 0, "mode": "projected"},
            {"pmax_dbm": [10, -5000]},  # the second budget underflows to 0 W
            {"refit": "no"},  # a nonempty string would be truthy
            {"refit": 0},
            {"frequency_hz": True},  # a bool would run at 1 Hz
            {"tolerance": False},
            {"eta": True},
            {"noise_dbm": "-95"},
            {"weights": [1, True]},
            {"pmax_dbm": [True]},
            {"pmax_dbm": ["10"]},
            {"pmax_dbm": 10},  # a scalar where a list belongs
            {"pmax_dbm": "10"},
            {"pmax_dbm": [10, math.nan]},
            {"pmax_dbm": [10**400]},  # an int too large for a float
            {"bs_position": [0, 0, "10"]},
            {"bs_position": 10},
            {"out_path": 7},  # would fail only after the batch ran
            {"patterns_path": 7},
            {"mode": 7},
            {"noise_dbm": 1e5},  # overflows in watts
            {"noise_dbm": -1e5},  # underflows to 0 W
            {"tolerance": -1e-3},
            {"frequency_hz": -30e9},
            {"user_radius_m": 0.0},
            {"pmax_dbm": []},
            {"workers": 0},
        ],
        ids=["weights-length", "weights-sign", "field-mode", "truncation", "eta",
             "max-iterations", "pmax-overflow", "noise-nan", "noise-inf",
             "frequency-nan", "frequency-inf", "radius-nan", "radius-inf",
             "bs-position-nan", "tolerance-nan", "bisection-tol-nan",
             "bisection-tol-inf", "weights-inf", "n-h-float", "n-v-float",
             "n-users-float", "n-paths-float", "n-rf-float", "truncation-float",
             "max-iterations-float", "trials-float", "seed-float", "workers-float",
             "workers-bool", "seed-negative", "n-h-n-v-negative", "degree-0-all",
             "degree-0-trihybrid", "degree-0-projected", "pmax-underflow",
             "refit-string", "refit-int", "frequency-bool", "tolerance-bool", "eta-bool",
             "noise-string", "weights-bool", "pmax-bool", "pmax-string-entry",
             "pmax-scalar", "pmax-string", "pmax-nan", "pmax-huge-int",
             "bs-position-string-entry",
             "bs-position-scalar", "out-path-int", "patterns-path-int", "mode-int",
             "noise-overflow", "noise-underflow", "tolerance-negative",
             "frequency-negative", "radius-zero", "pmax-empty", "workers-zero"],
    )
    def test_malformed_knob_is_config_error(self, tmp_path, capsys, bad):
        # rejected before any trial runs, not turned into NaN rows; the file
        # names the output, so that a bad out_path is not overridden
        out = tmp_path / "r.csv"
        cfg = self.write_fast_config(tmp_path, **{"trials": 1, "out_path": str(out), **bad})
        code = cli.main(["run", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        # the message names a field the case sets first, a key no field has
        # as unknown
        known = {f.name for f in dataclasses.fields(hn.RunConfig) if f.init}
        prefix = "config error: " + ("" if set(bad) <= known else "unknown config field(s): ")
        assert err.startswith(tuple(prefix + key + end for key in bad for end in ":,\n")), err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "trace"])
    @pytest.mark.parametrize(
        "where",
        ["missing-dir", "is-dir", "read-only-dir", "empty", "empty-in-file",
         "dangling-symlink", "read-only-file"],
    )
    def test_unwritable_output_fails_before_any_trial(
        self, tmp_path, tmp_path_factory, capsys, monkeypatch, command, where
    ):
        def never(*args, **kwargs):
            raise AssertionError("ran although the output cannot be written")

        monkeypatch.setattr(cli, "run_trials", never)
        monkeypatch.setattr(cli, "convergence_trace", never)
        elsewhere = tmp_path_factory.mktemp("out")  # outside tmp_path, which holds only cfg.json
        out = {
            "missing-dir": tmp_path / "missing" / "r.csv",
            "is-dir": tmp_path,
            "read-only-dir": tmp_path / "r.csv",
            "empty": "",  # open("") fails only once the batch has run
            "empty-in-file": "",
            # the link's own directory is writable, its target's is missing
            "dangling-symlink": elsewhere / "link.csv",
            "read-only-file": elsewhere / "r.csv",
        }[where]
        if where == "read-only-dir":
            monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: mode != os.W_OK)
        if where == "dangling-symlink":
            out.symlink_to(elsewhere / "missing" / "r.csv")
        if where == "read-only-file":
            out.write_text("kept\n")

            def access(path, mode, real_access=os.access, **kwargs):
                denied = mode == os.W_OK and os.path.realpath(path) == os.path.realpath(out)
                return not denied and real_access(path, mode, **kwargs)

            monkeypatch.setattr(os, "access", access)
        if where == "empty-in-file":
            cfg = self.write_fast_config(tmp_path, max_iterations=3, out_path=out)
            code = cli.main([command, "--config", str(cfg)])
        else:
            cfg = self.write_fast_config(tmp_path, max_iterations=3)
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: out_path:")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_degree_zero_hybrid_runs(self, tmp_path):
        # frozen isotropic patterns need no AC part, so degree 0 still runs
        cfg = self.write_fast_config(tmp_path, trials=1, truncation=0, mode="hybrid")
        out = tmp_path / "r.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        (record,) = read_csv(out)
        assert record.error is None and math.isfinite(record.sum_rate)

    def test_trace_degree_zero_is_config_error(self, tmp_path, capsys):
        # trace runs the pattern solve, and its config file may not set a mode
        cfg = self.write_fast_config(tmp_path, truncation=0)
        out = tmp_path / "t.csv"
        assert cli.main(["trace", "--config", str(cfg), "--out", str(out)]) == 1
        # trace takes no mode, so the error names none
        assert capsys.readouterr().err == (
            "config error: truncation: optimizing patterns needs degree >= 1, got 0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("trace", "trials", 7),
            ("trace", "mode", "hybrid"),
            ("trace", "workers", 3),
            ("trace", "patterns_path", "/nonexistent.json"),
            ("trace", "refit", False),
            ("sweep", "mode", "hybrid"),
            ("project", "mode", "hybrid"),
        ],
        ids=["trace-trials", "trace-mode", "trace-workers", "trace-patterns",
             "trace-refit", "sweep-mode", "project-mode"],
    )
    def test_file_field_the_subcommand_never_reads_is_config_error(
        self, tmp_path, capsys, command, key, value
    ):
        cfg = self.write_fast_config(tmp_path, max_iterations=3, **{key: value})
        out = tmp_path / "r.csv"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()

    def test_sweep_power_grid_precedence(self, tmp_path):
        # the --pmax-dbm flag, else the file's pmax_dbm, else 0..30 dBm
        out = tmp_path / "s.csv"
        plain = self.write_fast_config(tmp_path, trials=1, max_iterations=2)
        assert cli.main(["sweep", "--config", str(plain), "--out", str(out)]) == 0
        assert sorted({r.pmax_dbm for r in read_csv(out)}) == list(cli.SWEEP_DBM)
        cfg = self.write_fast_config(tmp_path, trials=1, max_iterations=2, pmax_dbm=[0, 10])
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        records = read_csv(out)
        assert len(records) == 2 * len(hn.MODES)
        assert {r.pmax_dbm for r in records} == {0.0, 10.0}
        code = cli.main(["sweep", "--config", str(cfg), "--pmax-dbm", "5", "--out", str(out)])
        assert code == 0
        assert {r.pmax_dbm for r in read_csv(out)} == {5.0}

    def test_trace_file_sets_out_path(self, tmp_path):
        # a subcommand default gives way to the file
        out = tmp_path / "from-file.csv"
        cfg = self.write_fast_config(tmp_path, max_iterations=2, out_path=str(out))
        assert cli.main(["trace", "--config", str(cfg)]) == 0
        assert out.read_text().startswith("mode,iteration,sum_rate,objective")

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("trace", ["--trials", "7"]),
            ("trace", ["--mode", "hybrid"]),
            ("trace", ["--patterns", "/nonexistent.json"]),
            ("trace", ["--no-refit"]),
            ("trace", ["--workers", "3"]),
            ("sweep", ["--mode", "hybrid"]),
            ("project", ["--mode", "hybrid"]),
        ],
        ids=["trace-trials", "trace-mode", "trace-patterns", "trace-no-refit",
             "trace-workers", "sweep-mode", "project-mode"],
    )
    def test_flag_the_subcommand_ignores_is_usage_error(
        self, tmp_path, capsys, command, flag
    ):
        cfg = self.write_fast_config(tmp_path, trials=1, max_iterations=3)
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg), "--out", str(out), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_patterns_file_is_config_error(self, tmp_path, capsys):
        cfg = self.write_fast_config(tmp_path, trials=1, mode="projected")
        code = cli.main(
            ["run", "--config", str(cfg), "--patterns", "/missing.json",
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 1

    def test_patterns_naming_a_directory_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli.main(
            ["project", "--patterns", str(tmp_path), "--trials", "1", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: {tmp_path}: cannot read candidate set")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("patterns", [5, [5]], ids=["number", "list-of-number"])
    def test_patterns_not_a_list_of_objects_is_config_error(
        self, tmp_path, capsys, patterns
    ):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"patterns": patterns}), encoding="utf-8")
        out = tmp_path / "r.csv"
        code = cli.main(
            ["project", "--patterns", str(path), "--trials", "1", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "patterns" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"patterns": [{"theta_deg": [0, float("nan"), 180], "phi_deg": [0, 120, 240],
                           "gain": [[1, 1, 1]] * 3}]},
            {"normalize": "false", "patterns": [
                {"theta_deg": [0, 90, 180], "phi_deg": [0, 120, 240],
                 "gain": [[1, 1, 1]] * 3}]},
            {"patterns": [{"theta_deg": [0, 90, 180], "phi_deg": [0, 180, 360, 540],
                           "gain": [[1, 1, 1, 1]] * 3}]},
            {"patterns": [{"theta_deg": [0, "90", 180], "phi_deg": [0, 120, 240],
                           "gain": [[1, 1, 1], [1, True, 1], [1, 1, 1]]}]},
            # normalized pole samples whose power overflows
            {"patterns": [{"theta_deg": [0, 1.0353996866939073e-209], "phi_deg": [0, 1],
                           "gain": [[0, 9.480751908109178e135], [0, 1e-18]]}]},
            '{"patterns": ' + "[" * 100_000 + "]" * 100_000 + "}",  # text, not a doc
            {"normalise": False, "patterns": [
                {"theta_deg": [0, 90, 180], "phi_deg": [0, 120, 240],
                 "gain": [[2, 2, 2]] * 3}]},
            {"patterns": [{"theta_deg": [0, 90, 180], "phi_deg": [0, 120, 240],
                           "gain": [[1, 1, 1], [1, -1, 1], [1, 1, 1]]}]},
            {"patterns": [{"theta_deg": [0, 90, 180], "phi_deg": [0, 120, 240],
                           "gain": {"shape": [3, 3], "base64": "not base64!"}}]},
            {"patterns": [{"theta_deg": [0, 90, 180], "phi_deg": [0, 120, 240],
                           "gain": {"shape": [3, 3]}}]},
            {"patterns": [{"theta_deg": [0, 90, 180], "phi_deg": [0, 120, 240],
                           "gain": {"shape": [3, 3], "dtype": "<f8",
                                    "base64": base64.b64encode(np.ones(9, "<f8")).decode()}}]},
        ],
        ids=["nan-axis-node", "normalize-string", "azimuth-over-360", "string-node-bool-sample",
             "pole-overflow", "nested-too-deep", "unknown-document-field", "negative-sample",
             "bad-base64", "block-without-base64", "block-with-dtype"],
    )
    def test_malformed_candidate_field_is_config_error(self, tmp_path, capsys, doc):
        path = tmp_path / "f.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        out = tmp_path / "r.csv"
        code = cli.main(
            ["project", "--patterns", str(path), "--trials", "1", "--pmax-dbm", "0",
             "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: {path}: "), err
        assert "Traceback" not in err
        assert not out.exists()

    def test_constant_candidate_at_extreme_scales_projects_as_unit_gain(self, tmp_path):
        # squared samples that under- or overflow once gave projected_sum_rate
        # nan (1e-160) or 0 (1e200) with exit 0
        rows = []
        for level in (1.0, 1e-160, 1e200):
            path = tmp_path / f"{level}.json"
            path.write_text(json.dumps({"patterns": [
                {"theta_deg": [0, 90, 180], "phi_deg": [0, 120, 240],
                 "gain": [[level] * 3] * 3}]}), encoding="utf-8")
            out = tmp_path / f"{level}.csv"
            code = cli.main(
                ["project", "--patterns", str(path), "--trials", "1", "--pmax-dbm", "0",
                 "--out", str(out)]
            )
            assert code == 0
            rows.append([row[:-1] for row in csv.reader(out.read_text().splitlines())])
        assert rows[1] == rows[0] and rows[2] == rows[0]
        assert math.isfinite(float(rows[0][-1][-1])) and float(rows[0][-1][-1]) > 0

    def test_not_utf8_patterns_file_is_config_error(self, tmp_path, capsys):
        cfg = self.write_fast_config(tmp_path, trials=1)
        patterns = tmp_path / "f.json"
        patterns.write_bytes(b"\xff\xfe{}")
        code = cli.main(
            ["project", "--config", str(cfg), "--patterns", str(patterns),
             "--out", str(tmp_path / "r.csv")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "not UTF-8 text" in err
        assert "Traceback" not in err

    def test_project_parses_patterns_once(self, tmp_path, monkeypatch):
        cfg = self.write_fast_config(tmp_path, trials=2)
        patterns = tmp_path / "patterns.json"
        save_candidates(steered_candidate_set(count=4, n_theta=13, n_phi=25), patterns)
        calls = count_calls(monkeypatch, "load_candidates")
        code = cli.main(
            ["project", "--config", str(cfg), "--patterns", str(patterns),
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 0
        assert len(calls) == 1

    def test_trace_subcommand(self, tmp_path):
        cfg = self.write_fast_config(tmp_path, max_iterations=3)
        out = tmp_path / "t.csv"
        code = cli.main(["trace", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("mode,iteration,sum_rate,objective")

    def test_trace_rejects_several_powers(self, tmp_path, capsys):
        cfg = self.write_fast_config(tmp_path, max_iterations=3)
        out = tmp_path / "t.csv"
        code = cli.main(
            ["trace", "--config", str(cfg), "--pmax-dbm", "0", "30", "--out", str(out)]
        )
        assert code == 1
        assert "pmax_dbm" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_forces_all_modes(self, tmp_path):
        cfg = self.write_fast_config(tmp_path, trials=1)
        out = tmp_path / "s.csv"
        code = cli.main(
            ["sweep", "--config", str(cfg), "--pmax-dbm", "5", "10",
             "--out", str(out)]
        )
        assert code == 0
        records = read_csv(out)
        assert {r.mode for r in records} == set(hn.MODES)
        assert {r.pmax_dbm for r in records} == {5.0, 10.0}

    def test_project_subcommand(self, tmp_path):
        cfg = self.write_fast_config(tmp_path, trials=1)
        out = tmp_path / "p.csv"
        code = cli.main(["project", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        records = read_csv(out)
        assert all(r.mode == "projected" for r in records)
        assert all(r.projected_sum_rate is not None for r in records)

    def test_failed_batch_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic trial failure")

        monkeypatch.setattr(hn, "generate_scenario", boom)
        cfg = self.write_fast_config(tmp_path, trials=2, mode="hybrid")
        out = tmp_path / "f.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "failed" in capsys.readouterr().err
        records = read_csv(out)
        assert len(records) == 2
        assert all(math.isnan(r.sum_rate) for r in records)

    def test_no_refit_flag(self, tmp_path):
        cfg = self.write_fast_config(tmp_path, trials=1)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["project", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(
            ["project", "--config", str(cfg), "--out", str(out2), "--no-refit"]
        ) == 0
        with_refit = read_csv(out1)[0].projected_sum_rate
        without = read_csv(out2)[0].projected_sum_rate
        assert with_refit >= without - 1e-9
