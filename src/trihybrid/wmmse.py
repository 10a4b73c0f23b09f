"""Alternating weighted-MMSE solver for tri-hybrid sum-rate maximization.

The weighted sum rate is maximized through its WMMSE reformulation: minimize
sum_k beta_k (w_k e_k - ln w_k) over per-user MSE weights w, scalar
combiners v, a fully digital precoder F_D under the total power budget, and
the per-antenna pattern coefficients c^(n) under the 4 pi gain-power budget
with the constant (DC) coefficient pinned to eta.  Every block update is
closed form:

* v, w, F_D follow the classic per-user expressions, v and w (like the
  MSE and the sum rate) from the links p = H F_D alone; the one power
  multiplier all columns of F_D share solves a secular equation;
* each antenna's AC coefficient vector solves a norm-constrained quadratic
  program whose KKT system is (A + 2 nu I) c = -d.  A has rank at most 2K
  and d lies in its range, so once per sweep one batched thin QR of the
  antennas' channel blocks and one batched eigen decomposition of the
  r x r (r <= 2K) reduced matrices give every A's spectrum; each antenna
  then solves the secular equation ||c(nu)||^2 = rho^2 on at most 2K terms,
  right of the smallest eigenvalue, where the solution is the global
  minimizer on the sphere.  The null space of A, where d has exactly no
  weight, joins the pole's eigenspace in the explicit hard case.  The point
  is scored on the exact objective, from the links H F_D moved by one rank-1
  term, and accepted only on strict improvement, which makes the objective
  non-increasing step by step and the sum rate non-decreasing across outer
  iterations.

Both multipliers come from one safeguarded Newton iteration on
sum_i x_i / (s_i + t)^2 = target (More & Sorensen 1983).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .channel import Scenario, effective_channels
from .harmonics import FULL_SPHERE, truncation_length

DEGENERACY_TOL = 1e-14
# Backward error of an n x n eigensolve, in units of n * eps * max|lam|:
# eigenvalues this close to the pole form one cluster, and weight of d on that
# cluster below this level is rounding noise.
CLUSTER_ULPS = 10.0
MULTIPLIER_STEPS = 100  # cap on safeguarded Newton steps per multiplier


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs of the alternating solver."""

    eta: float = math.sqrt(2.0 * math.pi)
    max_iterations: int = 100
    tolerance: float = 1e-5  # relative sum-rate change; 0 disables early exit
    bisection_tol: float = 1e-10  # relative constraint residual

    def __post_init__(self):
        if not 0.0 < self.eta < math.sqrt(FULL_SPHERE):
            raise ValueError("eta must lie in (0, sqrt(4*pi))")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if self.tolerance < 0 or self.bisection_tol <= 0:
            raise ValueError("tolerances must be positive (convergence tol may be 0)")


@dataclass
class IterationRecord:
    iteration: int
    sum_rate: float
    objective: float
    objective_after_v: float
    objective_after_w: float
    objective_after_fd: float
    step_seconds: tuple


@dataclass
class SolverState:
    """Variables of the alternating solver."""

    w: np.ndarray  # (K,) positive MSE weights
    v: np.ndarray  # (K,) complex combiners
    f_d: np.ndarray  # (N_T, K) fully digital precoder
    coeffs: np.ndarray  # (N_T, T) pattern coefficients

    def validate(self, eta: float, p_max: float, dc_pinned: bool = True) -> None:
        if np.any(self.w <= 0):
            raise AssertionError("MSE weights must stay positive")
        power = float(np.sum(np.abs(self.f_d) ** 2))
        if power > p_max + 1e-8:
            raise AssertionError(f"precoder power {power} exceeds budget {p_max}")
        norms = np.sum(self.coeffs**2, axis=1)
        if np.any(np.abs(norms - FULL_SPHERE) > 1e-8):
            raise AssertionError("a pattern violates the 4*pi budget")
        if dc_pinned and np.any(self.coeffs[:, 0] != eta):
            raise AssertionError("DC coefficients drifted from eta")


@dataclass
class SolverResult:
    state: SolverState
    history: list
    converged: bool
    initial_objective: float
    channels: np.ndarray  # (K, N_T) effective channels at the final state
    blocks: np.ndarray  # (K, N_T, T) EM-domain channel blocks

    @property
    def sum_rate(self) -> float:
        return self.history[-1].sum_rate

    @property
    def iterations(self) -> int:
        return len(self.history)


def sum_rate(p, weights, noise_powers) -> float:
    """Weighted sum rate sum_k beta_k log2(1 + SINR_k) of the links, in bits/s/Hz."""
    noise_powers = np.asarray(noise_powers, dtype=float)
    if np.any(noise_powers <= 0):
        raise ValueError("noise powers must be positive")
    powers = np.abs(p) ** 2
    signal = np.diag(powers)
    interference = powers.sum(axis=1) - signal
    sinr = signal / (noise_powers + interference)
    return float(np.sum(np.asarray(weights) * np.log2(1.0 + sinr)))


def mse_vector(p, v, noise_powers) -> np.ndarray:
    """Per-user MSE e_k = |1 - v_k p_kk|^2 + |v_k|^2 (interference + noise)."""
    diag = p.diagonal()
    powers = np.abs(p) ** 2
    interference = powers.sum(axis=1) - powers.diagonal()
    return (
        np.abs(1.0 - v * diag) ** 2
        + np.abs(v) ** 2 * (interference + np.asarray(noise_powers, dtype=float))
    )


def wmmse_objective(w, e, weights) -> float:
    """sum_k beta_k (w_k e_k - ln w_k)."""
    return float(np.sum(np.asarray(weights) * (w * e - np.log(w))))


def update_v(p, noise_powers) -> np.ndarray:
    """Per-user MMSE combiner: conj(p_kk) over total received power plus noise."""
    denom = np.sum(np.abs(p) ** 2, axis=1) + np.asarray(noise_powers, dtype=float)
    return np.conj(np.diag(p)) / denom


def update_w(p, v) -> np.ndarray:
    """MSE weights w_k = 1 / (1 - v_k p_kk); equals 1/e_k for fresh v."""
    delta = 1.0 - v * np.diag(p)
    if np.any(np.abs(delta) < DEGENERACY_TOL):
        raise RuntimeError("weight update degenerate: v_k p_kk is numerically 1")
    w = np.real(1.0 / delta)
    if np.any(w <= 0):
        raise RuntimeError("weight update produced a non-positive weight")
    return w


def _secular_shift(x_sq, shift, target, tol, what) -> float:
    """Shift t > 0 solving sum_i x_sq_i / (shift_i + t)^2 = target.

    ``x_sq`` holds the squared spectral weights and ``shift >= 0`` the
    eigenvalues' distances from the lower end of the bracket, so the sum
    decreases in t and t = 0 is that end: the pole for the pattern
    multiplier, mu = 0 for the power multiplier.  Newton runs
    on 1/sqrt(sum) - 1/sqrt(target) (More & Sorensen 1983) inside
    [0, sqrt(sum(x_sq) / target)], where the sum at the upper end is at most
    the target by construction, and starts there, never at t = 0, where a
    zero shift would divide by zero.  A step that leaves the bracket is
    replaced by a bisection step in log t: the bracket's geometric mean, or
    hi/1000 while the lower end is still 0, so roots very close to the pole
    take a few steps rather than one per halving.  Stops once
    |sum - target| <= tol * target; ``what`` names the summed quantity in
    the error raised after MULTIPLIER_STEPS steps.
    """
    sqrt_target = math.sqrt(target)
    lo, hi = 0.0, math.sqrt(float(x_sq.sum()) / target)
    t = hi
    for _ in range(MULTIPLIER_STEPS):
        denom = shift + t
        terms = x_sq / denom**2
        value = float(terms.sum())
        if abs(value - target) <= tol * target:
            return t
        if value > target:
            lo = t
        else:
            hi = t
        # Newton on 1/sqrt(value) - 1/sqrt_target; the derivative of value is -2 * slope
        slope = float((terms / denom).sum())
        t += value / slope * (math.sqrt(value) - sqrt_target) / sqrt_target
        if not lo < t < hi:
            t = max(math.sqrt(lo * hi), 1e-3 * hi)
    raise RuntimeError(
        f"multiplier Newton did not converge in {MULTIPLIER_STEPS} steps: "
        f"relative {what} residual {abs(value - target) / target:.3e}"
    )


def update_fd(channels, w, v, weights, p_max, rel_tol=1e-10) -> np.ndarray:
    """Fully digital precoder under the total power budget.

    Solves (M + mu I) f_k = beta_k w_k conj(v_k) conj(h_k) with the single
    multiplier mu >= 0 shared across users.  With M = Q diag(lam) Q^H and
    B~ = Q^H B, the power is sum_i ||b~_i||^2 / (lam_i + mu)^2.  When the
    budget is slack, mu = 0 is kept (complementary slackness) through the
    pseudo-inverse, the minimum-norm limit mu -> 0+, which also covers a
    rank-deficient M; otherwise the secular solver matches the power to
    p_max within rel_tol * p_max, with the bracket's lower end at mu = 0.
    """
    if p_max <= 0:
        raise ValueError("power budget must be positive")
    weights = np.asarray(weights, dtype=float)
    coef = weights * w * np.abs(v) ** 2
    hc = np.conj(channels)  # rows conj(h_k)
    m = hc.T @ (coef[:, None] * channels)
    b = hc.T * (weights * w * np.conj(v))[None, :]  # columns beta_k w_k v_k* h_k*
    eigvals, q = np.linalg.eigh(m)
    eigvals = np.clip(eigvals.real, 0.0, None)
    bt = q.conj().T @ b  # (N_T, K)
    bt_sq = np.sum(np.abs(bt) ** 2, axis=1)

    cutoff = eigvals[-1] * max(m.shape) * np.finfo(float).eps
    active = eigvals > cutoff
    power0 = float(np.sum(bt_sq[active] / eigvals[active] ** 2))
    if power0 <= p_max:
        scale = np.where(active, 1.0 / np.where(active, eigvals, 1.0), 0.0)
        return q @ (scale[:, None] * bt)

    mu = _secular_shift(bt_sq, eigvals, p_max, rel_tol, "power")
    return q @ (bt / (eigvals + mu)[:, None])


def assemble_quadratic(blocks, f_d, w, v, weights):
    """Every antenna's pattern quadratic, factored in its channel range.

    For antenna n the WMMSE objective is, up to a constant,
    c^T (A/2) c + d^T c in its AC coefficients c, with
    A = 2 s_n Re(H_ac^H diag(g) H_ac) = G^T diag(2 s_n [g; g]) G, where
    H_ac = blocks[:, n, 1:] = X + iY, G = [X; Y], s_n = ||F_D[n]||^2 and
    g = beta w |v|^2, and d = Re(H_ac^T a) for a per-user vector a that
    depends on the current links (see ``update_em``).  Both live in the row
    space of G, of dimension r <= min(T-1, 2K), so one batched thin QR
    G^T = Q R and one batched eigh of the r x r matrices
    R diag(2 s_n [g; g]) R^T = U diag(lams) U^T give all antennas at once
    A = V diag(lams) V^T with V = Q U, and V^T d = Re((H_ac V)^T a).

    Returns (lams, vecs, proj): lams (N_T, r) ascending, vecs = V
    (N_T, T-1, r) and proj = (H_ac V)^T (N_T, r, K).  A vanishes on the
    complement of V's columns and d has no weight there.
    """
    h_ac = blocks[:, :, 1:].transpose(1, 2, 0)  # (N_T, T-1, K)
    q, r = np.linalg.qr(np.concatenate((h_ac.real, h_ac.imag), axis=2))
    gw = np.asarray(weights, dtype=float) * w * np.abs(v) ** 2
    scale = 2.0 * np.sum(np.abs(f_d) ** 2, axis=1)[:, None] * np.concatenate((gw, gw))
    lams, u = np.linalg.eigh((r * scale[:, None, :]) @ r.transpose(0, 2, 1))
    vecs = q @ u
    return lams, vecs, vecs.transpose(0, 2, 1) @ h_ac


def _cluster_direction(vecs, cluster, null) -> np.ndarray:
    """Unit vector of the pole's eigenspace, independent of the basis chosen.

    The eigenspace is spanned by the ``cluster`` columns of ``vecs``; when
    ``null`` holds it also holds the complement of all columns, so it is the
    complement of the other columns.  The vector is the projection of the
    all-ones vector onto it; when that vanishes, the projection of the unit
    vector the eigenspace is closest to.
    """
    dim = vecs.shape[0]
    basis = vecs[:, ~cluster] if null else vecs[:, cluster]

    def project(x):
        inside = basis @ (basis.T @ x)
        return x - inside if null else inside

    z = project(np.ones(dim))
    if np.linalg.norm(z) <= 1e-8 * math.sqrt(dim):
        weight = np.sum(basis**2, axis=1)
        z = project(np.eye(1, dim, np.argmin(weight) if null else np.argmax(weight))[0])
    return z / np.linalg.norm(z)


def solve_ac_subproblem(lams, vecs, dt, rho_sq, tol: float = 1e-10):
    """Global minimizer of c^T (A/2) c + d^T c on ||c||^2 = rho_sq, and its
    multiplier nu.

    A is given by its spectrum: A = vecs diag(lams) vecs^T with ``lams``
    ascending and ``vecs`` a (dim, r) matrix of orthonormal columns; A
    vanishes on the complement of those columns, where d has no weight, and
    ``dt = vecs^T d``.  The complement, when r < dim, is one more eigenspace
    at 0.  With pole = min(lams[0], 0) (lams[0] when r = dim),
    c(nu) = -(A + 2 nu I)^{-1} d has squared norm sum_m (dt_m / (lams_m +
    2 nu))^2, decreasing for nu > -pole/2.  The root there, where A + 2 nu I
    is positive semidefinite, is the global minimizer on the sphere (More &
    Sorensen 1983).  The secular solver works in the shift
    t = 2 nu + pole >= 0, so the distance to the pole keeps full precision,
    and stops once |norm(c)^2 - rho_sq| <= tol * rho_sq.  Returns (nu, c).

    Hard case: eigenvalues within CLUSTER_ULPS * dim * eps * max|lams| of
    the pole form one cluster.  When d has only rounding-level weight on that
    cluster (none at all on the complement) and the range-only solution at
    the pole has norm at most rho, no root lies right of the pole.  The
    multiplier is then the pole itself and c is the range solution plus a
    vector of the cluster's eigenspace that makes up the missing norm.  Its
    direction, by convention, is the projection of the all-ones vector onto
    that eigenspace (a unit vector's projection if that one vanishes), so it
    does not depend on the eigenbasis returned; since A z = pole z and
    d^T z = 0, the direction does not change the objective.  d = 0 is a hard
    case.
    """
    dim, rank = vecs.shape
    null = rank < dim
    pole = min(lams[0], 0.0) if null else lams[0]
    rounding = CLUSTER_ULPS * dim * np.finfo(float).eps
    lam_scale = float(np.abs(lams).max())
    bound = rounding * lam_scale
    shift = lams - pole
    cluster = shift <= bound
    shift[cluster] = 0.0  # the cluster counts as one eigenvalue at the pole
    rest = ~cluster
    y_range = dt[rest] / shift[rest]
    range_sq = float(y_range @ y_range)
    # d = A x keeps up to rounding * (norm(d) + norm(A) norm(x)) of weight on
    # the computed cluster, from the eigenvector error alone
    noise = rounding * (float(np.linalg.norm(dt)) + lam_scale * math.sqrt(range_sq))
    if range_sq <= rho_sq and np.linalg.norm(dt[cluster]) <= noise:
        z = _cluster_direction(vecs, cluster, null and -pole <= bound)
        return -0.5 * pole, math.sqrt(rho_sq - range_sq) * z - vecs[:, rest] @ y_range

    t = _secular_shift(dt**2, shift, rho_sq, tol, "norm")
    return 0.5 * (t - pole), -vecs @ (dt / (shift + t))


def update_em(
    blocks, coeffs, f_d, w, v, weights, noise_powers, bisection_tol=1e-10
) -> np.ndarray:
    """One ascending sweep of per-antenna AC updates with monotone acceptance.

    The quadratics of all antennas are factored once (``assemble_quadratic``),
    since F_D, w and v are fixed within the sweep; the links P = H F_D are
    computed in full once, at the start.  Replacing antenna n's AC vector c
    changes only column n of H, so P moves by the rank-1 term
    outer(H_ac (c - c_old), F_D[n]); each candidate is scored on the exact
    objective from the moved P and kept only when it strictly beats the
    incumbent, which guards against rounding, so the sweep never increases
    the objective.  DC entries are left untouched.
    """
    coeffs = np.array(coeffs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    lams, vecs, proj = assemble_quadratic(blocks, f_d, w, v, weights)
    h_ac = np.ascontiguousarray(blocks[:, :, 1:].transpose(1, 0, 2))  # (N_T, K, T-1)
    gw = weights * w * np.abs(v) ** 2
    bwv = weights * w * v
    rho_sq = FULL_SPHERE - coeffs[:, 0] ** 2
    links = effective_channels(blocks, coeffs) @ f_d
    incumbent = wmmse_objective(w, mse_vector(links, v, noise_powers), weights)
    for n in range(coeffs.shape[0]):
        f_n = f_d[n]
        # links without antenna n's AC part, and d = Re(H_ac^T a)
        rest = links - np.outer(h_ac[n] @ coeffs[n, 1:], f_n)
        a = 2.0 * (gw * (np.conj(rest) @ f_n) - bwv * f_n)
        dt = (proj[n] @ a).real
        _, c_ac = solve_ac_subproblem(lams[n], vecs[n], dt, rho_sq[n], bisection_tol)
        moved = rest + np.outer(h_ac[n] @ c_ac, f_n)
        obj = wmmse_objective(w, mse_vector(moved, v, noise_powers), weights)
        if obj < incumbent:
            incumbent, links = obj, moved
            coeffs[n, 1:] = c_ac
    return coeffs


def initial_coefficients(
    n_antennas: int, degree: int, eta: float, rng: np.random.Generator
) -> np.ndarray:
    """DC pinned at eta, AC uniform on its sphere, independently per antenna."""
    t_len = truncation_length(degree)
    coeffs = np.empty((n_antennas, t_len))
    radius = math.sqrt(FULL_SPHERE - eta * eta)
    for n in range(n_antennas):
        direction = rng.standard_normal(t_len - 1)
        direction /= np.linalg.norm(direction)
        coeffs[n, 0] = eta
        coeffs[n, 1:] = radius * direction
    return coeffs


def isotropic_coefficients(n_antennas: int, degree: int) -> np.ndarray:
    """Unit-gain patterns: all power in the DC coefficient."""
    coeffs = np.zeros((n_antennas, truncation_length(degree)))
    coeffs[:, 0] = math.sqrt(FULL_SPHERE)
    return coeffs


def matched_filter_precoder(channels: np.ndarray, p_max: float) -> np.ndarray:
    """Conjugate matched-filter columns scaled to the full power budget."""
    f = np.conj(channels).T
    total = float(np.sum(np.abs(f) ** 2))
    if total == 0.0:
        raise ValueError("cannot initialize the precoder on an all-zero channel")
    return f * math.sqrt(p_max / total)


def _alternate(h, f_d, weights, noise, p_max, config, pattern_step=None):
    """Outer iterations of the v, w, F_D block updates on the channel ``h``.

    ``pattern_step(f_d, w, v)``, when given, runs after the F_D update and
    returns the channel under the updated patterns; the links p = h F_D are
    formed once after each change of either.  Weights start at one.  The
    loop stops when the relative sum-rate change drops below
    ``config.tolerance`` or ``config.max_iterations`` is spent.  Returns
    (h, f_d, v, w, history, converged).
    """
    w = np.ones(len(weights))
    history: list[IterationRecord] = []
    prev_rate = None
    p = h @ f_d
    for it in range(1, config.max_iterations + 1):
        tic = time.perf_counter()
        v = update_v(p, noise)
        obj_v = wmmse_objective(w, mse_vector(p, v, noise), weights)
        t_v = time.perf_counter()
        w = update_w(p, v)
        obj_w = wmmse_objective(w, mse_vector(p, v, noise), weights)
        t_w = time.perf_counter()
        f_d = update_fd(h, w, v, weights, p_max, config.bisection_tol)
        p = h @ f_d
        obj_fd = wmmse_objective(w, mse_vector(p, v, noise), weights)
        t_fd = time.perf_counter()
        if pattern_step is None:
            obj_em = obj_fd
        else:
            h = pattern_step(f_d, w, v)
            p = h @ f_d
            obj_em = wmmse_objective(w, mse_vector(p, v, noise), weights)
        t_em = time.perf_counter()
        rate = sum_rate(p, weights, noise)
        history.append(
            IterationRecord(
                iteration=it,
                sum_rate=rate,
                objective=obj_em,
                objective_after_v=obj_v,
                objective_after_w=obj_w,
                objective_after_fd=obj_fd,
                step_seconds=(t_v - tic, t_w - t_v, t_fd - t_w, t_em - t_fd),
            )
        )
        if prev_rate is not None and abs(rate - prev_rate) <= config.tolerance * max(
            abs(prev_rate), 1e-12
        ):
            return h, f_d, v, w, history, True
        prev_rate = rate
    return h, f_d, v, w, history, False


def run_algorithm1(
    scenario: Scenario,
    config: SolverConfig | None = None,
    seed: int = 0,
    *,
    em_update: bool = True,
) -> SolverResult:
    """Run the alternating solver on one scenario.

    Patterns start with DC pinned at eta and random AC (or isotropic when
    ``em_update`` is off, the conventional hybrid baseline); the digital
    precoder starts as the conjugate matched filter at full power.  Each
    outer iteration runs the four block updates; the loop stops when the
    relative sum-rate change drops below the tolerance or the iteration
    budget is spent.
    """
    config = config or SolverConfig()
    geom = scenario.geometry
    blocks = scenario.em_channels()
    weights = scenario.weights
    noise = scenario.noise_powers
    if em_update:
        rng = np.random.default_rng(seed)
        coeffs = initial_coefficients(geom.n_t, scenario.truncation, config.eta, rng)
    else:
        coeffs = isotropic_coefficients(geom.n_t, scenario.truncation)

    def pattern_step(f_d, w, v):
        nonlocal coeffs
        coeffs = update_em(blocks, coeffs, f_d, w, v, weights, noise, config.bisection_tol)
        return effective_channels(blocks, coeffs)

    h = effective_channels(blocks, coeffs)
    f_d = matched_filter_precoder(h, scenario.p_max)
    v = np.zeros(scenario.n_users, dtype=complex)
    initial_obj = wmmse_objective(
        np.ones(scenario.n_users), mse_vector(h @ f_d, v, noise), weights
    )
    h, f_d, v, w, history, converged = _alternate(
        h, f_d, weights, noise, scenario.p_max, config,
        pattern_step if em_update else None,
    )
    return SolverResult(
        state=SolverState(w=w, v=v, f_d=f_d, coeffs=coeffs),
        history=history,
        converged=converged,
        initial_objective=initial_obj,
        channels=h,
        blocks=blocks,
    )


def refit_digital(
    channels: np.ndarray,
    weights,
    noise_powers,
    p_max: float,
    config: SolverConfig | None = None,
    f_init: np.ndarray | None = None,
):
    """Iterate the v/w/F_D updates on a fixed channel until the sum rate
    settles; returns (f_d, v, w, rates)."""
    config = config or SolverConfig()
    f_d = matched_filter_precoder(channels, p_max) if f_init is None else f_init
    _, f_d, v, w, history, _ = _alternate(
        channels, f_d, weights, noise_powers, p_max, config
    )
    return f_d, v, w, [rec.sum_rate for rec in history]
