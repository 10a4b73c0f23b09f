import json
import math
import os

import numpy as np
import pytest

from trihybrid import cli
from trihybrid import harness as hn
from trihybrid.harmonics import truncation_length
from trihybrid.projection import PatternLoadError, save_candidates, steered_candidate_set

# small, fast batch settings shared by most tests
FAST = dict(
    n_h=2, n_v=2, n_users=2, n_paths=2, n_rf=2, truncation=1,
    max_iterations=5, tolerance=0.0, user_radius_m=60.0,
)


def fast_config(**kwargs):
    params = dict(FAST)
    params.update(kwargs)
    return hn.RunConfig(**params)


@pytest.fixture(autouse=True)
def fresh_candidate_memo(monkeypatch):
    """Each test starts with no candidate set kept from an earlier test."""
    monkeypatch.setattr(hn, "_last_set", None)


def count_calls(monkeypatch, name):
    """Record the calls made through ``harness.<name>``."""
    func, calls = getattr(hn, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    monkeypatch.setattr(hn, name, counted)
    return calls


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

    def test_dbm_conversion(self):
        assert hn.dbm_to_watts(20.0) == pytest.approx(0.1)
        assert hn.dbm_to_watts(10.0) == pytest.approx(0.01)
        assert hn.watts_to_dbm(0.1) == pytest.approx(20.0)
        cfg = hn.RunConfig(pmax_dbm=(20.0,))
        assert cfg.scenario_config(20.0).p_max_w == pytest.approx(0.1)
        assert cfg.scenario_config(20.0).noise_power_w == pytest.approx(10 ** (-12.5))

    def test_zero_trials_rejected(self):
        with pytest.raises(hn.ConfigError, match="trials"):
            hn.RunConfig(trials=0)

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

    def test_invalid_mode(self):
        with pytest.raises(hn.ConfigError, match="mode"):
            hn.RunConfig(mode="quad")

    def test_sweep_config(self):
        cfg = hn.sweep_config(fast_config(mode="hybrid"))
        assert cfg.mode == "all"
        assert cfg.pmax_dbm == tuple(float(p) for p in range(0, 31, 5))
        cfg = hn.sweep_config(fast_config(), pmax_dbm=[3.0, 6.0])
        assert cfg.pmax_dbm == (3.0, 6.0)


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

        def pattern_solve_fails(scenario, config, seed, em_update=True):
            if em_update:
                raise RuntimeError("synthetic pattern-solve failure")
            return solve(scenario, config, seed, em_update=em_update)

        monkeypatch.setattr(hn, "run_algorithm1", pattern_solve_fails)
        records = hn.run_trials(fast_config(trials=1, mode="all"))
        by_mode = {r.mode: r for r in records}
        for mode in ("trihybrid", "projected"):
            assert by_mode[mode].error == "RuntimeError: synthetic pattern-solve failure"
            assert math.isnan(by_mode[mode].sum_rate)
        assert by_mode["hybrid"].error is None
        assert by_mode["hybrid"].sum_rate > 0

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

    def test_parallel_projection_matches_serial(self, tmp_path):
        path = tmp_path / "patterns.json"
        save_candidates(steered_candidate_set(count=4, n_theta=13, n_phi=25), path)
        params = dict(trials=3, mode="projected", seed=2, patterns_path=str(path))
        serial = hn.run_trials(fast_config(workers=1, **params))
        parallel = hn.run_trials(fast_config(workers=2, **params))
        assert [strip_wall(r) for r in serial] == [strip_wall(r) for r in parallel]


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
        parsed = hn.read_csv(path)
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
        cfg = fast_config(max_iterations=12, seed=3)
        rows = hn.convergence_trace(cfg, seed=3)
        modes = {r.mode for r in rows}
        assert modes == {"trihybrid", "hybrid"}
        for mode in modes:
            series = [r for r in rows if r.mode == mode]
            assert series[0].iteration == 1
            assert [r.iteration for r in series] == list(range(1, len(series) + 1))
            rates = [r.sum_rate for r in series]
            assert all(b >= a - 1e-8 for a, b in zip(rates, rates[1:]))

    def test_trihybrid_ends_at_or_above_hybrid(self):
        cfg = fast_config(max_iterations=30, seed=5)
        rows = hn.convergence_trace(cfg, seed=5)
        tri = [r.sum_rate for r in rows if r.mode == "trihybrid"][-1]
        hyb = [r.sum_rate for r in rows if r.mode == "hybrid"][-1]
        assert tri >= hyb

    def test_one_power_only(self):
        cfg = fast_config(max_iterations=3, pmax_dbm=(0.0, 30.0))
        with pytest.raises(hn.ConfigError, match="pmax_dbm"):
            hn.convergence_trace(cfg, seed=1)

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
        assert len(hn.read_csv(out)) == 1

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
        records = hn.read_csv(out)
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
        ],
        ids=["weights-length", "weights-sign", "field-mode", "truncation", "eta",
             "max-iterations", "pmax-overflow"],
    )
    def test_malformed_knob_is_config_error(self, tmp_path, capsys, bad):
        # rejected before any trial runs, not turned into NaN rows
        cfg = self.write_fast_config(tmp_path, trials=1, **bad)
        out = tmp_path / "r.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_patterns_file_is_config_error(self, tmp_path, capsys):
        cfg = self.write_fast_config(tmp_path, trials=1, mode="projected")
        code = cli.main(
            ["run", "--config", str(cfg), "--patterns", "/missing.json",
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 1

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
        cfg = self.write_fast_config(tmp_path, trials=1, mode="hybrid")
        out = tmp_path / "s.csv"
        code = cli.main(
            ["sweep", "--config", str(cfg), "--pmax-dbm", "5", "10",
             "--out", str(out)]
        )
        assert code == 0
        records = hn.read_csv(out)
        assert {r.mode for r in records} == set(hn.MODES)
        assert {r.pmax_dbm for r in records} == {5.0, 10.0}

    def test_project_subcommand(self, tmp_path):
        cfg = self.write_fast_config(tmp_path, trials=1)
        out = tmp_path / "p.csv"
        code = cli.main(["project", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        records = hn.read_csv(out)
        assert all(r.mode == "projected" for r in records)
        assert all(r.projected_sum_rate is not None for r in records)

    def test_failed_batch_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic trial failure")

        monkeypatch.setattr(hn, "run_drop", boom)
        cfg = self.write_fast_config(tmp_path, trials=2, mode="hybrid")
        out = tmp_path / "f.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "failed" in capsys.readouterr().err
        records = hn.read_csv(out)
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
        with_refit = hn.read_csv(out1)[0].projected_sum_rate
        without = hn.read_csv(out2)[0].projected_sum_rate
        assert with_refit >= without - 1e-9
