"""Factor a fully digital precoder into analog (phase-shifter) and baseband
parts by alternating least squares and phase projection.

The analog precoder is entrywise constrained to modulus 1/sqrt(N_T).  Each
iteration solves the baseband matrix exactly by least squares, then proposes
re-projecting the phases of F_D F_BB^H; the proposal is kept only when it
does not increase the Frobenius residual, so the residual sequence is
non-increasing by construction.  A final scaling of the baseband matrix
keeps the total transmit power within budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wmmse import sum_rate


@dataclass(frozen=True)
class HybridFactors:
    """Analog/baseband factor pair with its approximation residual."""

    f_rf: np.ndarray  # (N_T, N_RF), |entry|^2 = 1/N_T
    f_bb: np.ndarray  # (N_RF, K)
    residual: float  # Frobenius norm of F_D - F_RF F_BB for the returned pair
    residual_history: np.ndarray  # in-loop residuals, non-increasing

    @property
    def product(self) -> np.ndarray:
        return self.f_rf @ self.f_bb

    @property
    def power(self) -> float:
        return float(np.sum(np.abs(self.product) ** 2))


def phase_projection(m: np.ndarray) -> np.ndarray:
    """Keep entry phases, force modulus 1/sqrt(N_T); zero entries get phase 0."""
    m = np.asarray(m)
    n_t = m.shape[0]
    out = np.where(m == 0, 1.0 + 0.0j, np.exp(1j * np.angle(m)))
    return out / math.sqrt(n_t)


def _lstsq(f_rf, f_d):
    return np.linalg.lstsq(f_rf, f_d, rcond=None)[0]


def decompose(
    f_d: np.ndarray,
    n_rf: int,
    max_iterations: int = 200,
    tol: float = 1e-8,
    p_max: float | None = None,
    rng: np.random.Generator | None = None,
) -> HybridFactors:
    """Approximate F_D by F_RF F_BB with unit-modulus analog entries.

    The analog matrix starts from the entrywise phases of [F_D, random
    columns]; ``p_max`` defaults to the power of ``f_d`` itself.  Requires
    K <= n_rf <= N_T.
    """
    f_d = np.asarray(f_d, dtype=complex)
    n_t, k = f_d.shape
    if not k <= n_rf <= n_t:
        raise ValueError(f"need K <= N_RF <= N_T, got K={k}, N_RF={n_rf}, N_T={n_t}")
    if p_max is None:
        p_max = float(np.sum(np.abs(f_d) ** 2))
    rng = rng or np.random.default_rng(0)

    extra = rng.standard_normal((n_t, n_rf - k)) + 1j * rng.standard_normal((n_t, n_rf - k))
    f_rf = phase_projection(np.concatenate([f_d, extra], axis=1))
    f_bb = _lstsq(f_rf, f_d)
    residual = float(np.linalg.norm(f_d - f_rf @ f_bb))
    history = [residual]

    for _ in range(max_iterations):
        cand_rf = phase_projection(f_d @ f_bb.conj().T)
        cand_bb = _lstsq(cand_rf, f_d)
        cand_res = float(np.linalg.norm(f_d - cand_rf @ cand_bb))
        if cand_res > residual:
            break  # projection step no longer helps
        f_rf, f_bb = cand_rf, cand_bb
        change = residual - cand_res
        residual = cand_res
        history.append(residual)
        if change <= tol * max(residual, 1e-30):
            break

    power = float(np.sum(np.abs(f_rf @ f_bb) ** 2))
    if power > p_max:
        f_bb = f_bb * math.sqrt(p_max / power)
    final_residual = float(np.linalg.norm(f_d - f_rf @ f_bb))
    return HybridFactors(
        f_rf=f_rf,
        f_bb=f_bb,
        residual=final_residual,
        residual_history=np.asarray(history),
    )


def sum_rate_loss(f_d, factors: HybridFactors, channels, weights, noise_powers) -> float:
    """Sum-rate drop from replacing the digital precoder by the factor pair."""
    full = sum_rate(channels @ f_d, weights, noise_powers)
    approx = sum_rate(channels @ factors.product, weights, noise_powers)
    return full - approx
