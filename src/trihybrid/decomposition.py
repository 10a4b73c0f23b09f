"""Factor a fully digital precoder into analog (phase-shifter) and baseband
parts, F_D ~ F_RF F_BB, with every analog entry of modulus 1/sqrt(N_T).

Two regimes, by the number of RF chains N_RF against the K users:

* N_RF >= 2K: every F_D splits exactly, in closed form (Sohrabi & Yu 2016,
  "Hybrid digital and analog beamforming design for large-scale antenna
  arrays").  Each entry x of F_D is the sum of two unit-modulus terms,
  beta (e^{j phi_1} + e^{j phi_2}) / sqrt(N_T), with beta = sqrt(N_T)
  max|x| / 2 and phi_1,2 = arg x +- arccos(|x| sqrt(N_T) / (2 beta)).
  Chains k and K + k carry the two phases of user k's column, and
  F_BB = beta [I_K; I_K]; extra chains get zero rows of F_BB.
* K <= N_RF < 2K: alternating least squares and phase projection.  Each
  iteration solves the baseband matrix exactly by least squares, then
  proposes re-projecting the phases of F_D F_BB^H; the proposal is kept
  only when it does not increase the Frobenius residual, so the residual
  sequence is non-increasing by construction.

A final scaling of the baseband matrix keeps the total transmit power
within budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _norm

MAX_ITERATIONS = 200  # cap on alternating steps
TOLERANCE = 1e-8  # stop once a step lowers the residual by less than this, relative


@dataclass(frozen=True, eq=False)
class HybridFactors:
    """Analog/baseband factor pair with its approximation residual."""

    f_rf: np.ndarray  # (N_T, N_RF), |entry|^2 = 1/N_T
    f_bb: np.ndarray  # (N_RF, K)
    residual: float  # Frobenius norm of F_D - F_RF F_BB for the returned pair
    residual_history: np.ndarray  # ALS's in-loop residuals, non-increasing; [residual] if exact


def phase_projection(m: np.ndarray) -> np.ndarray:
    """Keep entry phases, force modulus 1/sqrt(N_T); zero entries get phase 0."""
    m = np.asarray(m)
    n_t = m.shape[0]
    out = np.where(m == 0, 1.0 + 0.0j, np.exp(1j * np.angle(m)))
    return out / math.sqrt(n_t)


def _lstsq(f_rf, f_d):
    return np.linalg.lstsq(f_rf, f_d, rcond=None)[0]


def _exact_split(f_d: np.ndarray, n_rf: int) -> tuple:
    """The closed-form pair with F_RF F_BB = F_D, for n_rf >= 2K."""
    n_t, k = f_d.shape
    root = math.sqrt(n_t)
    mag = np.abs(f_d)
    beta = root * float(mag.max()) / 2.0
    # the clamp keeps the largest entry's arccos real under rounding; an
    # all-zero F_D has beta = 0 and takes arccos(0)
    ratio = np.minimum(mag * (root / (2.0 * beta)), 1.0) if beta > 0 else mag
    spread, angle = np.arccos(ratio), np.angle(f_d)
    f_rf = np.ones((n_t, n_rf), dtype=complex)
    f_rf[:, :k] = np.exp(1j * (angle + spread))
    f_rf[:, k : 2 * k] = np.exp(1j * (angle - spread))
    f_rf /= root
    f_bb = np.zeros((n_rf, k), dtype=complex)
    f_bb[:k] = f_bb[k : 2 * k] = beta * np.eye(k)
    return f_rf, f_bb


def _alternating_least_squares(f_d: np.ndarray, n_rf: int, rng) -> tuple:
    """The ALS pair and its in-loop residuals, for K <= n_rf < 2K."""
    n_t, k = f_d.shape
    extra = rng.standard_normal((n_t, n_rf - k)) + 1j * rng.standard_normal((n_t, n_rf - k))
    f_rf = phase_projection(np.concatenate([f_d, extra], axis=1))
    f_bb = _lstsq(f_rf, f_d)
    residual = _norm(f_d - f_rf @ f_bb)
    history = [residual]

    for _ in range(MAX_ITERATIONS):
        cand_rf = phase_projection(f_d @ f_bb.conj().T)
        cand_bb = _lstsq(cand_rf, f_d)
        cand_res = _norm(f_d - cand_rf @ cand_bb)
        if cand_res > residual:
            break  # projection step no longer helps
        f_rf, f_bb = cand_rf, cand_bb
        change = residual - cand_res
        residual = cand_res
        history.append(residual)
        if change <= TOLERANCE * max(residual, 1e-30):
            break
    return f_rf, f_bb, history


def decompose(
    f_d: np.ndarray,
    n_rf: int,
    p_max: float | None = None,
    rng=None,
) -> HybridFactors:
    """Factor F_D into F_RF F_BB with unit-modulus analog entries.

    With n_rf >= 2K the split is exact and closed form (Sohrabi & Yu 2016;
    see the module docstring): its history is ``[residual]``, and ``rng``
    is not read.  With K <= n_rf < 2K it is alternating least squares, whose
    analog matrix starts from the entrywise phases of [F_D, random columns
    from ``np.random.default_rng(rng)``]: ``rng`` is a seed (an int or a
    sequence of ints), a Generator, which is drawn from as it is, or None
    for seed 0.  ``p_max`` defaults to the power of ``f_d`` itself; one
    given must be positive and finite.  Requires K <= n_rf <= N_T.
    """
    f_d = np.asarray(f_d, dtype=complex)
    n_t, k = f_d.shape
    if not k <= n_rf <= n_t:
        raise ValueError(f"need K <= N_RF <= N_T, got K={k}, N_RF={n_rf}, N_T={n_t}")
    if p_max is None:
        p_max = float(np.add.reduce(np.abs(f_d) ** 2, axis=None))
    elif not 0 < p_max < math.inf:  # nan fails both comparisons
        raise ValueError(f"p_max must be positive and finite, got {p_max}")
    history = None
    if n_rf >= 2 * k:
        f_rf, f_bb = _exact_split(f_d, n_rf)
    else:
        f_rf, f_bb, history = _alternating_least_squares(
            f_d, n_rf, np.random.default_rng(0 if rng is None else rng)
        )

    power = float(np.add.reduce(np.abs(f_rf @ f_bb) ** 2, axis=None))
    if power > p_max:
        f_bb = f_bb * math.sqrt(p_max / power)
    final_residual = _norm(f_d - f_rf @ f_bb)
    return HybridFactors(
        f_rf=f_rf,
        f_bb=f_bb,
        residual=final_residual,
        residual_history=np.asarray(history or [final_residual]),
    )
