"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The batch criteria use
the default configuration (3x3 array, K=2, L=3, T=25, 30 GHz, -95 dBm noise,
10 dBm budget) over 100 seeds with trial-level parallelism.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dense_oracle import QuadraticSubproblem, left_root, solve_dense
from reference import (
    direct_channel_oracle,
    initial_objective,
    sampled_pattern_set,
    sum_rate_loss,
)
from trihybrid import harness as hn
from trihybrid import projection as proj
from trihybrid import wmmse
from trihybrid.channel import (
    ScenarioConfig,
    effective_channels,
    generate_scenario,
)
from trihybrid.decomposition import decompose
from trihybrid.harmonics import FULL_SPHERE, basis_vector, gauss_legendre_grid, truncation_length

ETA = math.sqrt(2.0 * math.pi)
RHO_SQ = FULL_SPHERE - ETA**2
DEFAULT = hn.RunConfig()
P_MAX = hn.dbm_to_watts(DEFAULT.pmax_dbm[0])  # the default budget
NOISE_W = hn.dbm_to_watts(DEFAULT.noise_dbm)
SNR_DB = DEFAULT.pmax_dbm[0] - DEFAULT.noise_dbm  # the solve's argument
WORKERS = min(4, os.cpu_count() or 1)
N_SEEDS = 100


def report(criterion: int, ok: bool, detail: str) -> None:
    # write past pytest's capture so the line shows without -s
    import sys

    line = f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)


def _audited_solve(seed: int):
    """Default-config solve, reduced to the per-step objective/rate audit."""
    scenario = generate_scenario(ScenarioConfig(), seed)
    result = wmmse.run_algorithm1(scenario, SNR_DB, wmmse.SolverConfig(), seed)
    steps = [
        (r.objective_after_v, r.objective_after_w, r.objective_after_fd, r.objective)
        for r in result.history
    ]
    rates = [r.sum_rate for r in result.history]
    return initial_objective(scenario), steps, rates


@pytest.fixture(scope="module")
def audited_solves():
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        return list(pool.map(_audited_solve, range(1, N_SEEDS + 1), chunksize=4))


@pytest.fixture(scope="module")
def default_batch():
    config = hn.RunConfig(trials=N_SEEDS, mode="all", seed=1, workers=WORKERS)
    tic = time.perf_counter()
    records = hn.run_trials(config)
    elapsed = time.perf_counter() - tic
    return records, elapsed


def test_criterion_01_gram_identity_runtime():
    tic = time.perf_counter()
    grid = gauss_legendre_grid(16, 32)
    basis = basis_vector(grid.theta[:, None], grid.phi[None, :], 4)
    flat = basis.reshape(-1, 25)
    gram = flat.T @ (flat * grid.weights.reshape(-1)[:, None])
    elapsed = time.perf_counter() - tic
    err = float(np.abs(gram - np.eye(25)).max())
    ok = err <= 1e-6 and elapsed < 1.0
    report(1, ok, f"max Gram deviation {err:.2e}, {elapsed * 1e3:.0f} ms")
    assert err <= 1e-6
    assert elapsed < 1.0


def test_criterion_02_addition_theorem():
    rng = np.random.default_rng(2024)
    theta = rng.uniform(0.0, math.pi, 1000)
    phi = rng.uniform(0.0, 2.0 * math.pi, 1000)
    b = basis_vector(theta, phi, 4)
    norms = np.sum(b * b, axis=-1)
    err = float(np.abs(norms - 25.0 / FULL_SPHERE).max())
    ok = err <= 1e-9
    report(2, ok, f"max |norm^2 - 25/(4pi)| = {err:.2e} over 1000 angles")
    assert ok


def test_criterion_03_factorization_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    cases = 0
    for i in range(200):
        mode = "far" if i % 2 == 0 else "near"
        degree = (1, 2, 4)[i % 3]
        config = ScenarioConfig(field_mode=mode, truncation=degree, user_radius_m=120.0)
        scenario = generate_scenario(config, seed=1000 + i)
        t_len = truncation_length(degree)
        coeffs = rng.standard_normal((9, t_len))
        blocks = scenario.em_channels()
        via = effective_channels(blocks, coeffs)
        directs = direct_channel_oracle(scenario, coeffs)
        for k in range(scenario.n_users):
            direct = directs[k]
            rel = np.linalg.norm(via[k] - direct) / np.linalg.norm(direct)
            worst = max(worst, rel)
            cases += 1
    ok = worst <= 1e-10
    report(3, ok, f"worst relative factorization error {worst:.2e} over {cases} channels")
    assert ok


def test_criterion_04_wmmse_monotonicity(audited_solves):
    worst_step = -math.inf
    worst_rate_drop = -math.inf
    for initial_obj, steps, rates in audited_solves:
        prev = initial_obj
        for chain in steps:
            for obj in chain:
                worst_step = max(worst_step, obj - prev)
                prev = obj
        for a, b in zip(rates, rates[1:]):
            worst_rate_drop = max(worst_rate_drop, a - b)
    ok = worst_step <= 1e-8 and worst_rate_drop <= 1e-8
    report(
        4,
        ok,
        f"100 trials: max objective increase {worst_step:.2e}, "
        f"max sum-rate drop {worst_rate_drop:.2e}",
    )
    assert worst_step <= 1e-8
    assert worst_rate_drop <= 1e-8


def test_criterion_05_subproblem_exactness():
    rng = np.random.default_rng(5)
    dim = 24
    worst_norm = 0.0
    worst_grad = 0.0
    for _ in range(1000):
        b = rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-1, 1)
        sub = QuadraticSubproblem(
            b @ b.T / dim, rng.standard_normal(dim) * 10.0 ** rng.uniform(-1, 1), RHO_SQ
        )
        for nu, c in (left_root(sub), solve_dense(sub)):
            worst_norm = max(worst_norm, abs(float(np.dot(c, c)) - RHO_SQ))

            def lagrangian(x):
                return 0.5 * x @ sub.a_matrix @ x + sub.d @ x + nu * (x @ x - sub.rho_sq)

            eps = 1e-5
            grad = np.empty(dim)
            for j in range(dim):
                step = np.zeros(dim)
                step[j] = eps
                grad[j] = (lagrangian(c + step) - lagrangian(c - step)) / (2.0 * eps)
            worst_grad = max(worst_grad, float(np.linalg.norm(grad)))

    # diagonal closed form
    d = np.zeros(dim)
    d[0] = -2.0
    diagonal = QuadraticSubproblem(np.eye(dim), d, RHO_SQ)
    nu_plus, _ = solve_dense(diagonal)
    nu_minus, _ = left_root(diagonal)
    rho = math.sqrt(RHO_SQ)
    nu_plus_err = abs(nu_plus - (2.0 / rho - 1.0) / 2.0)
    nu_minus_err = abs(nu_minus - (-2.0 / rho - 1.0) / 2.0)
    ok = (
        worst_norm <= 1e-8
        and worst_grad <= 1e-6
        and nu_plus_err <= 1e-6
        and nu_minus_err <= 1e-6
    )
    report(
        5,
        ok,
        f"1000 instances: max |norm^2-rho^2| {worst_norm:.2e}, max KKT gradient "
        f"{worst_grad:.2e}; diagonal case nu errors {nu_plus_err:.1e}/{nu_minus_err:.1e}",
    )
    assert ok


def test_criterion_06_brute_force_toy():
    # the brute force is in watts, the solve in SNR units
    toy = hn.RunConfig(n_h=1, n_v=1, n_users=1, n_rf=1, n_paths=3, truncation=1,
                       pmax_dbm=(-20.0,))
    p_max, noise = hn.dbm_to_watts(toy.pmax_dbm[0]), hn.dbm_to_watts(toy.noise_dbm)
    snr_db = toy.pmax_dbm[0] - toy.noise_dbm
    solver_cfg = wmmse.SolverConfig(max_iterations=300, tolerance=1e-9)
    worst_rel = 0.0
    for seed in range(1, 21):
        scenario = generate_scenario(toy, seed)
        result = wmmse.run_algorithm1(scenario, snr_db, solver_cfg, seed)
        h_em = scenario.em_channels()[0, 0]  # the one antenna: [DC, 3 AC entries]
        rng = np.random.default_rng(seed + 10_000)
        dirs = rng.standard_normal((10_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        h = h_em[0] * ETA + dirs @ (math.sqrt(RHO_SQ) * h_em[1:])
        sinr = p_max * np.abs(h) ** 2 / noise
        brute = float(np.min(1.0 - np.log1p(sinr)))  # beta = 1
        solver_obj = result.history[-1].objective
        rel = abs(solver_obj - brute) / abs(brute)
        worst_rel = max(worst_rel, rel)
    ok = worst_rel <= 0.01
    report(6, ok, f"20 seeds: worst solver-vs-sphere-search objective gap {worst_rel:.4%}")
    assert ok


def test_criterion_07_directional_reproduction(default_batch):
    records, _ = default_batch
    tri = {r.seed: r.sum_rate for r in records if r.mode == "trihybrid"}
    hyb = {r.seed: r.sum_rate for r in records if r.mode == "hybrid"}
    projected = [r for r in records if r.mode == "projected"]
    assert len(tri) == N_SEEDS and len(hyb) == N_SEEDS and len(projected) == N_SEEDS
    assert all(r.error is None for r in records)

    mean_tri = np.mean(list(tri.values()))
    mean_hyb = np.mean(list(hyb.values()))
    per_seed_wins = sum(tri[s] >= hyb[s] for s in tri)
    proj_ok = sum(r.projected_sum_rate <= r.sum_rate + 1e-12 for r in projected)
    ok = mean_tri > mean_hyb and per_seed_wins >= 95 and proj_ok == N_SEEDS
    report(
        7,
        ok,
        f"mean rates tri {mean_tri:.3f} vs hybrid {mean_hyb:.3f}; per-seed wins "
        f"{per_seed_wins}/100; projected <= unconstrained in {proj_ok}/100",
    )
    assert mean_tri > mean_hyb
    assert per_seed_wins >= 95
    assert proj_ok == N_SEEDS


def test_criterion_08_decomposition_contract():
    solver_cfg = wmmse.SolverConfig(max_iterations=40)
    monotone = True
    unit_mod_err = 0.0
    budget_ok = True
    worst_loss = 0.0
    for seed in range(1, 31):
        scenario = generate_scenario(ScenarioConfig(), seed)
        result = wmmse.run_algorithm1(scenario, SNR_DB, solver_cfg, seed)
        # the row's precoder and channel in watts, as the harness forms them
        f_d = math.sqrt(P_MAX) * result.iterate.f_d
        h = effective_channels(scenario.blocks, result.coeffs)
        rng = np.random.default_rng([seed, 8])
        factors = decompose(f_d, 4, p_max=P_MAX, rng=rng)
        monotone &= bool(np.all(np.diff(factors.residual_history) <= 1e-15))
        unit_mod_err = max(
            unit_mod_err, float(np.abs(np.abs(factors.f_rf) ** 2 - 1.0 / 9.0).max())
        )
        budget_ok &= float(np.sum(np.abs(factors.f_rf @ factors.f_bb) ** 2)) <= P_MAX + 1e-8
        full = decompose(f_d, 9, p_max=P_MAX, rng=rng)
        loss = sum_rate_loss(f_d, full, h, scenario.weights, NOISE_W)
        worst_loss = max(worst_loss, abs(loss))
        monotone &= bool(np.all(np.diff(full.residual_history) <= 1e-15))
    ok = monotone and unit_mod_err <= 1e-12 and budget_ok and worst_loss <= 1e-3
    report(
        8,
        ok,
        f"30 trials: residuals monotone {monotone}, max modulus error {unit_mod_err:.1e}, "
        f"budgets held {budget_ok}, worst full-rank rate loss {worst_loss:.2e}",
    )
    assert ok


def test_criterion_09_projection_self_consistency():
    solver_cfg = wmmse.SolverConfig(max_iterations=60)
    worst = 0.0
    for seed in (1, 2, 3):
        scenario = generate_scenario(ScenarioConfig(), seed)
        result = wmmse.run_algorithm1(scenario, SNR_DB, solver_cfg, seed)
        cset = sampled_pattern_set(result.coeffs, n_theta=181, n_phi=361)
        projected = proj.apply_projection(result, scenario, cset, config=solver_cfg)
        rel = abs(projected.sum_rate - result.sum_rate) / result.sum_rate
        worst = max(worst, rel)
    ok = worst < 0.005
    report(9, ok, f"worst self-projection sum-rate change {worst:.4%} over 3 seeds")
    assert ok


def test_criterion_10_performance_envelope(default_batch):
    tic = time.perf_counter()
    hn.run_drop(hn.RunConfig(mode="trihybrid"), seed=99, cset=None)
    single = time.perf_counter() - tic
    _, batch_elapsed = default_batch
    ok = single < 60.0 and batch_elapsed < 1800.0
    report(
        10,
        ok,
        f"single default trial {single:.1f} s (< 60 s); "
        f"100-trial batch {batch_elapsed:.0f} s (< 1800 s, {WORKERS} workers)",
    )
    assert single < 60.0
    assert batch_elapsed < 1800.0
