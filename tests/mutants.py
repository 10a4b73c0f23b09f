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
KERNELS = "tests/test_linalg_kernels.py"
STEP_POLICY = "tests/test_wmmse.py::TestStepPolicy"

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
        "zip(links.signal, links.received)]\n",
        "zip(links.signal, links.received)][::-1]\n",
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
        "update_w returns 1 / (1 + SINR_k), the MSE rather than its inverse",
        WMMSE,
        "    return [1.0 + s / (1.0 + (r - s)) for",
        "    return [1.0 / (1.0 + s / (1.0 + (r - s))) for",
        (PER_USER_ORACLE, "tests/test_wmmse.py::test_weights_match_numpy_oracle_up_to_high_sinr"),
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
        "    return objective_after_v <= last_objective\n",
        "    return True\n",
        (
            MONOTONE_CHAIN,
            GOLDEN_PANEL,
            f"{STEP_POLICY}::test_keeps_start",
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
            f"{STEP_POLICY}::test_moved_bound",
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
            f"{STEP_POLICY}::test_moved_bound",
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
        "np.where(null_sq > 0.0, np.minimum(scale, 1.0), scale)",
        "np.where(null_sq > 0.0, 1.0, scale)",
        (
            f"{STEP_POLICY}::test_side_scales",
            "tests/test_wmmse.py::TestPatternExtrapolation::test_kept_points_stay_on_the_budgets",
        ),
    ),
    Mutant(
        "an extrapolated a on its sphere is let into its ball",
        WMMSE,
        "null_sq > 0.0, np.minimum",
        "null_sq >= 0.0, np.minimum",
        (GOLDEN_PANEL, f"{STEP_POLICY}::test_side_scales"),
    ),
    Mutant(
        "a bound of 1 does not clamp the step to the plain map",
        WMMSE,
        "alpha >= -1.0",
        "alpha > -1.0",
        (
            GOLDEN_PANEL,
            f"{STEP_POLICY}::test_step_length",
            "tests/test_wmmse.py::TestExtrapolation::test_step_length_is_clamped_to_the_bound",
        ),
    ),
    Mutant(
        "the loop keeps an extrapolated map whose rate only ties the last kept one",
        WMMSE,
        "    return rate > last_rate\n",
        "    return rate >= last_rate\n",
        (f"{STEP_POLICY}::test_keeps_map",),
    ),
    Mutant(
        "the stop test does not stop on a rise exactly at the tolerance",
        WMMSE,
        "rate - last_rate <= tolerance",
        "rate - last_rate < tolerance",
        (f"{STEP_POLICY}::test_settled",),
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
    Mutant(
        "the frozen baseline's channel drops its sqrt(4 pi) factor",
        WMMSE,
        "        h = math.sqrt(FULL_SPHERE) * blocks[:, :, 0]\n",
        "        h = blocks[:, :, 0]\n",
        ("tests/test_wmmse.py::TestAlgorithm::test_refit_digital_is_the_frozen_pattern_loop",),
    ),
    Mutant(
        "_norm sums a transposed array's squares in C order",
        "src/trihybrid/channel.py",
        '    x = x.ravel(order="K")\n',
        "    x = x.ravel()\n",
        (f"{KERNELS}::test_norm_is_numpys_in_memory_order",),
    ),
    Mutant(
        "the QR helper keeps the Householder vectors below R's diagonal",
        WMMSE,
        "np.triu(a[..., : tau.shape[-1], :])",
        "a[..., : tau.shape[-1], :]",
        (f"{KERNELS}::test_qr_r_is_upper_triangular", f"{KERNELS}::test_qr_of_a_channel_is_numpys"),
    ),
    Mutant(
        "update_fd squares an eigenvalue before dividing by it, which underflows",
        WMMSE,
        "power0 += x / lam / lam",
        "power0 += x / (lam * lam)",
        ("tests/test_harness.py::TestPhysicalKnobs::test_named_case_runs_clean[bottom-corner-far]",),
    ),
    Mutant(
        "update_fd reads a NaN eigenvalue without raising",
        WMMSE,
        "    if any(map(math.isnan, lams)):\n        raise LinAlgError(EIGH_FAILED)\n",
        "",
        (
            f"{KERNELS}::TestNanEigenvalueRaises::test_update_fd",
            f"{KERNELS}::TestNanEigenvalueRaises::test_nan_channel_fails_its_row_with_numpys_text",
        ),
    ),
    Mutant(
        "assemble_quadratic reads a NaN eigenvalue without raising",
        WMMSE,
        "    if np.isnan(lams).any():\n        raise LinAlgError(EIGH_FAILED)\n",
        "",
        (f"{KERNELS}::TestNanEigenvalueRaises::test_assemble_quadratic",),
    ),
    Mutant(
        "the trace writer puts the objective in the sum_rate column",
        HARNESS,
        "        (mode, rec.iteration, rec.sum_rate, rec.objective)\n",
        "        (mode, rec.iteration, rec.objective, rec.objective)\n",
        ("tests/test_harness.py::TestTrace::test_trace_csv",),
    ),
)
