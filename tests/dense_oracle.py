"""Dense (T-1)-dimensional form of the pattern subproblem, the oracle of the
solver's reduced, range-space form.

``dense_quadratic`` builds one antenna's model c^T (A/2) c + d^T c in full
from the affine link-gain decomposition, and ``solve_dense`` solves it with
one eigh of A followed by the solver's spectral core,
``wmmse.solve_ac_subproblem``, on the complete eigenbasis.
"""

from dataclasses import dataclass

import numpy as np

import reference
from trihybrid import wmmse
from trihybrid.channel import effective_channels
from trihybrid.harmonics import FULL_SPHERE


@dataclass(frozen=True)
class QuadraticSubproblem:
    """Norm-constrained quadratic model for one antenna's AC coefficients:
    minimize c^T (A/2) c + d^T c subject to ||c||^2 = rho_sq."""

    a_matrix: np.ndarray
    d: np.ndarray
    rho_sq: float

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        if not np.allclose(a, a.T, atol=1e-12):
            raise ValueError("quadratic matrix must be symmetric")
        object.__setattr__(self, "a_matrix", 0.5 * (a + a.T))
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))
        if self.rho_sq <= 0:
            raise ValueError("target squared norm must be positive")


def dense_quadratic(blocks, coeffs, f_d, w, v, weights, n: int) -> QuadraticSubproblem:
    """Quadratic model of the WMMSE objective in antenna n's AC coefficients.

    Built from the affine link-gain decomposition so that the model value
    equals sum_k beta_k w_k e_k up to a constant; A is the positive
    semidefinite Gram-type matrix of the AC channel block.
    """
    weights = np.asarray(weights, dtype=float)
    gw = weights * w * np.abs(v) ** 2  # (K,)
    h_ac = blocks[:, n, 1:]  # (K, T-1)
    s_n = float(np.sum(np.abs(f_d[n, :]) ** 2))
    a_matrix = 2.0 * s_n * np.real((np.conj(h_ac) * gw[:, None]).T @ h_ac)
    a_matrix = 0.5 * (a_matrix + a_matrix.T)

    p = effective_channels(blocks, coeffs) @ f_d  # (K, K)
    ac_inner = h_ac @ coeffs[n, 1:]  # (K,)
    b_mat = p - np.outer(ac_inner, f_d[n, :])  # b_{k,i}
    d1 = -2.0 * np.real(np.sum((weights * w * v * f_d[n, :])[:, None] * h_ac, axis=0))
    s2 = np.conj(b_mat) @ f_d[n, :]  # (K,)
    d23 = 2.0 * np.real(np.sum((gw * s2)[:, None] * h_ac, axis=0))
    rho_sq = FULL_SPHERE - float(np.sum(coeffs[n, 0] ** 2))
    return QuadraticSubproblem(a_matrix=a_matrix, d=d1 + d23, rho_sq=rho_sq)


def solve_dense(sub: QuadraticSubproblem):
    """(nu, c) of the solver's spectral core on A's full eigenbasis."""
    lams, vecs = np.linalg.eigh(sub.a_matrix)
    return wmmse.solve_ac_subproblem(lams, vecs, vecs.T @ sub.d, sub.rho_sq, np.eye(len(lams)))


def left_root(sub: QuadraticSubproblem):
    """Oracle for the stationary point left of A's largest eigenvalue.

    That point is the global maximizer on the sphere, so the solver never
    computes it; it is the solver's root of (-A, -d) with the multiplier
    negated.  For d = 0 it is the mirror image of the solver's point, at the
    same multiplier.
    """
    if not np.any(sub.d):
        nu, c = solve_dense(sub)
        return nu, -c
    nu, c = solve_dense(QuadraticSubproblem(-sub.a_matrix, -sub.d, sub.rho_sq))
    return -nu, c


def full_objective(blocks, coeffs, f_d, w, v, weights) -> float:
    """The WMMSE objective on a full rebuild of the effective channels, by
    the numpy formulas of ``reference``, at unit noise (SNR units)."""
    p = effective_channels(blocks, coeffs) @ f_d
    return reference.wmmse_objective(w, reference.mse_vector(p, v, 1.0), weights)


def dense_sweep(blocks, coeffs, f_d, w, v, weights):
    """``update_em`` with every antenna's model and score built in full."""
    coeffs = np.array(coeffs, dtype=float)
    incumbent = full_objective(blocks, coeffs, f_d, w, v, weights)
    for n in range(coeffs.shape[0]):
        _, c_ac = solve_dense(dense_quadratic(blocks, coeffs, f_d, w, v, weights, n))
        trial = coeffs.copy()
        trial[n, 1:] = c_ac
        obj = full_objective(blocks, trial, f_d, w, v, weights)
        if obj < incumbent:
            incumbent, coeffs = obj, trial
    return coeffs

