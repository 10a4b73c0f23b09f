"""Committed mutants: edits of ``src/`` that named tests must catch.

Each row is one mutant: a single text edit of one source file, and the
test IDs that must each fail once the edit is applied to an otherwise
unchanged tree.  ``old`` must occur exactly once in ``file`` (relative to
the repository root); ``tests/test_mutants.py`` checks that, so a refactor
that rewrites a mutated line has to carry its row along.  A test ID is a
pytest node ID; one without parameters names every case of the test, and
fails when any case fails.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


WMMSE = "src/trihybrid/wmmse.py"
HARNESS = "src/trihybrid/harness.py"
FIXED_CHANNEL = "tests/test_wmmse.py::TestFixedChannelInvariance"
PATTERN_SOLVE = "tests/test_wmmse.py::TestPatternSolveInvariance"
PER_USER_ORACLE = "tests/test_wmmse.py::test_per_user_functions_match_numpy_oracles"
MONOTONE_CHAIN = "tests/test_acceptance.py::test_criterion_04_wmmse_monotonicity"
GOLDEN_PANEL = "tests/test_golden.py::test_panel_matches_golden_rows"

MUTANTS = (
    Mutant(
        "snr_scale off by a constant factor",
        WMMSE,
        "        scale = 10.0 ** (snr_db / 20.0)\n",
        "        scale = 2.0 * 10.0 ** (snr_db / 20.0)\n",
        ("tests/test_harness.py::TestSnrUnits::test_row_rates_are_rates_in_watts",),
    ),
    Mutant(
        "update_w returns its weights in reverse user order",
        WMMSE,
        '        raise RuntimeError("weight update produced a non-positive weight")\n'
        "    return w\n",
        '        raise RuntimeError("weight update produced a non-positive weight")\n'
        "    return w[::-1]\n",
        (f"{FIXED_CHANNEL}::test_user_permutation", f"{PATTERN_SOLVE}::test_user_permutation"),
    ),
    Mutant(
        "link_stats reads only the real part of user 0's links",
        WMMSE,
        "    powers = np.abs(p) ** 2\n",
        "    p = np.concatenate([p[:1].real, p[1:]])\n    powers = np.abs(p) ** 2\n",
        (
            f"{FIXED_CHANNEL}::test_user_permutation",
            f"{FIXED_CHANNEL}::test_per_user_phase",
            f"{PATTERN_SOLVE}::test_user_permutation",
            f"{PATTERN_SOLVE}::test_per_user_phase",
        ),
    ),
    Mutant(
        "update_w returns 1 / (1 + v_k p_kk)",
        WMMSE,
        "    deltas = [1.0 - vk * g for vk, g in zip(v, links.gains)]\n",
        "    deltas = [1.0 + vk * g for vk, g in zip(v, links.gains)]\n",
        (PER_USER_ORACLE, "tests/test_wmmse.py::test_weight_update_failures_match_numpy_oracle"),
    ),
    Mutant(
        "the projection's selection reads the pattern's AC coefficients",
        "src/trihybrid/projection.py",
        "    indices = project_antenna(entries, result.iterate.h)\n",
        "    ac_sum = result.coeffs[:, 1:].sum(axis=1)\n"
        "    indices = project_antenna(entries, result.iterate.h * (1.0 + 0.1 * ac_sum))\n",
        (
            "tests/test_projection.py::TestApplyProjection"
            "::test_null_space_convention_leaves_projection_unchanged",
        ),
    ),
    Mutant(
        "every row builds a decomposition Generator",
        HARNESS,
        "rng=[seed, 0xD0C])\n",
        'rng=__import__("numpy").random.default_rng([seed, 0xD0C]))\n',
        ("tests/test_harness.py::TestRunDrop::test_default_row_draws_no_generator_and_no_loss",),
    ),
    Mutant(
        "the candidate-set memo never returns its kept set",
        HARNESS,
        "        if data is not None and _file_equals(path, data):\n",
        "        if False:\n",
        ("tests/test_bench.py::test_project_file_parses_its_candidate_file_once",),
    ),
    Mutant(
        "wmmse_objective without its ln w term",
        WMMSE,
        "        total += b * (wk * ek - math.log(wk))\n",
        "        total += b * (wk * ek)\n",
        (MONOTONE_CHAIN, GOLDEN_PANEL, PER_USER_ORACLE),
    ),
    Mutant(
        "mse_vector counts the desired power as interference",
        WMMSE,
        "gain * gain * ((r - s) + 1.0)",
        "gain * gain * (r + 1.0)",
        (
            MONOTONE_CHAIN,
            GOLDEN_PANEL,
            PER_USER_ORACLE,
            "tests/test_acceptance.py::test_criterion_07_directional_reproduction",
        ),
    ),
    Mutant(
        "the loop keeps a map whose objective after v rose",
        WMMSE,
        "        kept = start is x or (\n"
        "            wmmse_objective(start.w, mse_vector(start.links, update_v(start.links)), weights)\n"
        "            <= last.objective\n"
        "        )\n",
        "        kept = True\n",
        (
            MONOTONE_CHAIN,
            GOLDEN_PANEL,
            "tests/test_wmmse.py::TestLoopMatchesReference::test_history_bit_equal",
            "tests/test_wmmse.py::TestExtrapolation::test_rejected_extrapolation_skips_its_map",
            "tests/test_harness.py::TestConfigSpace"
            "::test_every_draw_runs_clean_or_is_config_error",
        ),
    ),
    Mutant(
        "the step-length bound never grows",
        WMMSE,
        "bound * STEP_GROWTH if kept",
        "bound if kept",
        (
            GOLDEN_PANEL,
            "tests/test_wmmse.py::TestLoopMatchesReference::test_history_bit_equal",
            "tests/test_wmmse.py::TestPatternExtrapolation::test_loop_moves_the_step_bound",
        ),
    ),
    Mutant(
        "a rejection does not shrink the step-length bound",
        WMMSE,
        "max(bound / STEP_GROWTH, floor)",
        "bound",
        (
            GOLDEN_PANEL,
            "tests/test_wmmse.py::TestPatternExtrapolation::test_loop_moves_the_step_bound",
        ),
    ),
    Mutant(
        "update_em reads each antenna's AC factor from the antenna before it",
        WMMSE,
        "        f_n, r_n = f_d[n], factors.r[n]\n",
        "        f_n, r_n = f_d[n], factors.r[n - 1]\n",
        (
            MONOTONE_CHAIN,
            "tests/test_wmmse.py::TestUpdateEm::test_carried_links_match_full_rebuild",
            "tests/test_wmmse.py::TestUpdateEm::test_matches_dense_sweep",
        ),
    ),
    Mutant(
        "an interior ball minimiser is pushed to the boundary",
        WMMSE,
        "            return -0.5 * pole, y\n",
        "            return -0.5 * pole, y * math.sqrt(rho_sq / range_sq)\n",
        (
            GOLDEN_PANEL,
            "tests/test_wmmse.py::TestUpdateEm::test_matches_dense_sweep",
            "tests/test_wmmse.py::test_float_subproblem_matches_numpy_oracle",
        ),
    ),
    Mutant(
        "an extrapolated a is not scaled back into its ball",
        WMMSE,
        "np.where(inside, np.minimum(scale, 1.0), scale)",
        "np.where(inside, 1.0, scale)",
        (
            "tests/test_wmmse.py::TestLoopMatchesReference::test_history_bit_equal",
            "tests/test_wmmse.py::TestPatternExtrapolation::test_kept_points_stay_on_the_budgets",
        ),
    ),
    Mutant(
        "an extrapolated a on its sphere is let into its ball",
        WMMSE,
        "        inside = _null_sq(factors, x.coeffs) > 0.0\n",
        "        inside = factors.q.shape[1] > factors.q.shape[2]\n",
        (GOLDEN_PANEL, "tests/test_wmmse.py::TestLoopMatchesReference::test_history_bit_equal"),
    ),
    Mutant(
        "the completion pads an a_n within the secular band of its sphere",
        WMMSE,
        "(missing > MULTIPLIER_TOL * factors.rho_sq)",
        "(missing > 0.0)",
        (
            "tests/test_wmmse.py::TestUpdateEm::test_completion_matches_reference",
        ),
    ),
    Mutant(
        "the result's iterate holds the completed patterns, not the row point",
        WMMSE,
        "    return replace(result, coeffs=coeffs, snr_db=snr_db)\n",
        "    x = result.iterate._replace(coeffs=coeffs)\n"
        "    return replace(result, iterate=x, coeffs=coeffs, snr_db=snr_db)\n",
        ("tests/test_wmmse.py::TestOuterStep::test_result_iterate_continues_its_solve",),
    ),
    Mutant(
        "the completion leaves DC at 0 rather than eta",
        WMMSE,
        "np.full((len(ac), 1), factors.eta)",
        "np.zeros((len(ac), 1))",
        (
            "tests/test_wmmse.py::TestUpdateEm::test_dc_entries_untouched",
            "tests/test_wmmse.py::TestAlgorithm::test_feasibility_every_iteration",
            "tests/test_wmmse.py::TestPatternExtrapolation::test_kept_points_stay_on_the_budgets",
        ),
    ),
)
