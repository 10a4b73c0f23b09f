"""Alternating weighted-MMSE solver for tri-hybrid sum-rate maximization.

The weighted sum rate is maximized through its WMMSE reformulation: minimize
sum_k beta_k (w_k e_k - ln w_k) over per-user MSE weights w, scalar
combiners v, a fully digital precoder F_D under the total power budget, and
the per-antenna pattern coefficients c^(n) under the 4 pi gain-power budget
with the constant (DC) coefficient pinned to eta.  Every block update is
closed form:

* v, w, F_D follow the classic per-user expressions, v and w (like the
  MSE and the sum rate) from the statistics of the links p = H F_D alone,
  which ``link_stats`` forms once after each change of H or F_D.  F_D lies
  in the K-dimensional range of H^H: one thin QR H^H = Q R per channel
  reduces each F_D update to the spectrum of the K x K matrix R C R^H, and
  the one power multiplier all columns of F_D share solves a secular
  equation on those K terms;
* each antenna's AC coefficient vector solves a norm-constrained quadratic
  program whose KKT system is (A + 2 nu I) c = -d.  A has rank at most 2K
  and d lies in its range, so one batched thin QR of the antennas' channel
  blocks, formed once per solve (``factor_ac_blocks``), and one batched
  eigen decomposition per sweep of the r x r (r <= 2K) reduced matrices
  give every A's spectrum; each antenna then solves the secular equation
  ||c(nu)||^2 = rho^2 on at most 2K terms,
  right of the smallest eigenvalue, where the solution is the global
  minimizer on the sphere.  The null space of A, where d has exactly no
  weight, joins the pole's eigenspace in the explicit hard case.  The point
  is scored on the exact objective, from the links H F_D moved by one rank-1
  term, and accepted only on strict improvement, which makes the objective
  non-increasing step by step and the sum rate non-decreasing across outer
  iterations.

Both multipliers come from one safeguarded Newton iteration on
sum_i x_i / (s_i + t)^2 = target (More & Sorensen 1983), which runs on
Python floats, since it never sees more than 2K terms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import Scenario, effective_channels
from .harmonics import FULL_SPHERE, truncation_length

EPS = np.finfo(float).eps
DEGENERACY_TOL = 1e-14
# Backward error of an n x n eigensolve, in units of n * eps * max|lam|:
# eigenvalues this close to the pole form one cluster, and weight of d on that
# cluster below this level is rounding noise.
CLUSTER_ULPS = 10.0
MULTIPLIER_STEPS = 100  # cap on safeguarded Newton steps per multiplier
MULTIPLIER_TOL = 1e-10  # relative constraint residual at which a multiplier stops


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs of the alternating solver."""

    eta: float = math.sqrt(2.0 * math.pi)
    max_iterations: int = 100
    tolerance: float = 1e-5  # relative sum-rate change; 0 disables early exit

    def __post_init__(self):
        if not 0.0 < self.eta < math.sqrt(FULL_SPHERE):
            raise ValueError("eta must lie in (0, sqrt(4*pi))")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError("tolerance must be finite and nonnegative")


@dataclass
class IterationRecord:
    iteration: int
    sum_rate: float
    objective: float
    objective_after_v: float
    objective_after_w: float
    objective_after_fd: float
    step_seconds: tuple


@dataclass(eq=False)
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


@dataclass(eq=False)
class SolverResult:
    state: SolverState
    history: list
    converged: bool
    initial_objective: float
    channels: np.ndarray  # (K, N_T) effective channels at the final state
    p_max: float  # power budget of the solve, watts

    @property
    def sum_rate(self) -> float:
        return self.history[-1].sum_rate

    @property
    def iterations(self) -> int:
        return len(self.history)


class Links(NamedTuple):
    """What the per-user updates read of the (K, K) links p[k, j] = h_k . f_j."""

    gains: np.ndarray  # (K,) desired-link gains p_kk
    signal: np.ndarray  # (K,) desired powers |p_kk|^2
    received: np.ndarray  # (K,) received powers sum_j |p_kj|^2
    interference: np.ndarray  # (K,) received minus desired power


def link_stats(p) -> Links:
    """The statistics of the links ``p`` that the v, w, MSE and rate
    functions read, formed once per change of p."""
    powers = np.abs(p) ** 2
    received = powers.sum(axis=1)
    signal = powers.diagonal()
    return Links(p.diagonal(), signal, received, received - signal)


def sum_rate(links: Links, weights, noise_powers) -> float:
    """Weighted sum rate sum_k beta_k log2(1 + SINR_k) of the links, in bits/s/Hz."""
    noise_powers = np.asarray(noise_powers, dtype=float)
    if (noise_powers <= 0).any():
        raise ValueError("noise powers must be positive")
    sinr = links.signal / (noise_powers + links.interference)
    return float((np.asarray(weights) * np.log2(1.0 + sinr)).sum())


def mse_vector(links: Links, v, noise_powers) -> np.ndarray:
    """Per-user MSE e_k = |1 - v_k p_kk|^2 + |v_k|^2 (interference + noise)."""
    return (
        np.abs(1.0 - v * links.gains) ** 2
        + np.abs(v) ** 2 * (links.interference + np.asarray(noise_powers, dtype=float))
    )


def wmmse_objective(w, e, weights) -> float:
    """sum_k beta_k (w_k e_k - ln w_k)."""
    return float((np.asarray(weights) * (w * e - np.log(w))).sum())


def update_v(links: Links, noise_powers) -> np.ndarray:
    """Per-user MMSE combiner: conj(p_kk) over total received power plus noise."""
    return np.conj(links.gains) / (links.received + np.asarray(noise_powers, dtype=float))


def update_w(links: Links, v) -> np.ndarray:
    """MSE weights w_k = 1 / (1 - v_k p_kk); equals 1/e_k for fresh v."""
    delta = 1.0 - v * links.gains
    if (np.abs(delta) < DEGENERACY_TOL).any():
        raise RuntimeError("weight update degenerate: v_k p_kk is numerically 1")
    w = np.real(1.0 / delta)
    if (w <= 0).any():
        raise RuntimeError("weight update produced a non-positive weight")
    return w


def _secular_shift(x_sq, shift, target, what) -> float:
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
    |sum - target| <= MULTIPLIER_TOL * target; ``what`` names the summed
    quantity in the error raised after MULTIPLIER_STEPS steps.  Both
    multipliers see at most 2K terms, so the steps run on Python floats.
    """
    terms = list(zip(x_sq.tolist(), shift.tolist()))
    sqrt_target = math.sqrt(target)
    lo, hi = 0.0, math.sqrt(sum(x for x, _ in terms) / target)
    t = hi
    for _ in range(MULTIPLIER_STEPS):
        value = slope = 0.0
        for x, s in terms:
            denom = s + t
            term = x / (denom * denom)
            value += term
            slope += term / denom
        if abs(value - target) <= MULTIPLIER_TOL * target:
            return t
        if value > target:
            lo = t
        else:
            hi = t
        # Newton on 1/sqrt(value) - 1/sqrt_target; the derivative of value is -2 * slope
        t += value / slope * (math.sqrt(value) - sqrt_target) / sqrt_target
        if not lo < t < hi:
            t = max(math.sqrt(lo * hi), 1e-3 * hi)
    raise RuntimeError(
        f"multiplier Newton did not converge in {MULTIPLIER_STEPS} steps: "
        f"relative {what} residual {abs(value - target) / target:.3e}"
    )


def _check_budget(p_max) -> None:
    """Reject a power budget that is not a positive finite number of watts."""
    if not (math.isfinite(p_max) and p_max > 0):
        raise ValueError(f"power budget must be positive and finite, got {p_max}")


def update_fd(channels, w, v, weights, p_max, basis=None) -> np.ndarray:
    """Fully digital precoder under the total power budget.

    Solves (M + mu I) f_k = beta_k w_k conj(v_k) conj(h_k), M = H^H C H with
    C = diag(beta_k w_k |v_k|^2), for the single multiplier mu >= 0 shared
    across users.  Every right-hand side lies in range(H^H), so F_D does too:
    with the thin QR H^H = Q R, M = Q (R C R^H) Q^H, and only the spectrum of
    the r x r matrix R C R^H = U diag(lam) U^H (r = min(K, N_T)) matters.
    With B~ = U^H R D, D = diag(beta_k w_k conj(v_k)), the power is
    sum_i ||b~_i||^2 / (lam_i + mu)^2 and F_D = (Q U) (B~ / (lam + mu)).
    When the budget is slack, mu = 0 is kept (complementary slackness) through
    the pseudo-inverse, the minimum-norm limit mu -> 0+, which also covers a
    rank-deficient H; otherwise the secular solver matches the power to
    p_max within MULTIPLIER_TOL * p_max, with the bracket's lower end at mu = 0.
    ``basis`` is ``np.linalg.qr(np.conj(channels).T)``, for a caller that
    updates F_D on one channel many times.
    """
    _check_budget(p_max)
    q, r = np.linalg.qr(np.conj(channels).T) if basis is None else basis
    weights = np.asarray(weights, dtype=float)
    coef = weights * w * np.abs(v) ** 2
    m = (r * coef) @ np.conj(r).T
    eigvals, u = np.linalg.eigh(m)
    eigvals = np.maximum(eigvals, 0.0)
    bt = np.conj(u).T @ (r * (weights * w * np.conj(v)))  # (r, K)
    bt_sq = (np.abs(bt) ** 2).sum(axis=1)

    cutoff = eigvals[-1] * max(m.shape) * EPS
    active = eigvals > cutoff
    power0 = float((bt_sq[active] / eigvals[active] ** 2).sum())
    if power0 <= p_max:
        scale = np.where(active, 1.0 / np.where(active, eigvals, 1.0), 0.0)
        return (q @ u) @ (scale[:, None] * bt)

    mu = _secular_shift(bt_sq, eigvals, p_max, "power")
    return (q @ u) @ (bt / (eigvals + mu)[:, None])


class AcFactors(NamedTuple):
    """Every antenna's AC channel block and the thin QR of it; they depend on
    the EM-domain channel blocks alone (``factor_ac_blocks``)."""

    columns: np.ndarray  # (N_T, T-1, K) H_ac^T per antenna
    rows: np.ndarray  # (N_T, K, T-1) H_ac per antenna, contiguous
    q: np.ndarray  # (N_T, T-1, r) orthonormal basis of each G's row space
    r: np.ndarray  # (N_T, r, 2K) with G^T = Q R


def factor_ac_blocks(blocks) -> AcFactors:
    """Thin QR G^T = Q R of every antenna's G = [X; Y], where H_ac =
    blocks[:, n, 1:] = X + iY, in one batched call."""
    columns = blocks[:, :, 1:].transpose(1, 2, 0)
    q, r = np.linalg.qr(np.concatenate((columns.real, columns.imag), axis=2))
    return AcFactors(columns, np.ascontiguousarray(columns.transpose(0, 2, 1)), q, r)


def assemble_quadratic(factors: AcFactors, f_d, w, v, weights):
    """Every antenna's pattern quadratic, factored in its channel range.

    For antenna n the WMMSE objective is, up to a constant,
    c^T (A/2) c + d^T c in its AC coefficients c, with
    A = 2 s_n Re(H_ac^H diag(g) H_ac) = G^T diag(2 s_n [g; g]) G, where
    H_ac = blocks[:, n, 1:] = X + iY, G = [X; Y], s_n = ||F_D[n]||^2 and
    g = beta w |v|^2, and d = Re(H_ac^T a) for a per-user vector a that
    depends on the current links (see ``update_em``).  Both live in the row
    space of G, of dimension r <= min(T-1, 2K), so the thin QR G^T = Q R of
    ``factors`` and one batched eigh of the r x r matrices
    R diag(2 s_n [g; g]) R^T = U diag(lams) U^T give all antennas at once
    A = V diag(lams) V^T with V = Q U, and V^T d = Re((H_ac V)^T a).

    Returns (lams, vecs, proj): lams (N_T, r) ascending, vecs = V
    (N_T, T-1, r) and proj = (H_ac V)^T (N_T, r, K).  A vanishes on the
    complement of V's columns and d has no weight there.
    """
    r = factors.r
    gw = np.asarray(weights, dtype=float) * w * np.abs(v) ** 2
    scale = 2.0 * np.sum(np.abs(f_d) ** 2, axis=1)[:, None] * np.concatenate((gw, gw))
    lams, u = np.linalg.eigh((r * scale[:, None, :]) @ r.transpose(0, 2, 1))
    vecs = factors.q @ u
    return lams, vecs, vecs.transpose(0, 2, 1) @ factors.columns


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


def solve_ac_subproblem(lams, vecs, dt, rho_sq):
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
    and stops once |norm(c)^2 - rho_sq| <= MULTIPLIER_TOL * rho_sq.
    Returns (nu, c).

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
    rounding = CLUSTER_ULPS * dim * EPS
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

    t = _secular_shift(dt**2, shift, rho_sq, "norm")
    return 0.5 * (t - pole), -vecs @ (dt / (shift + t))


def update_em(
    blocks, coeffs, f_d, w, v, weights, noise_powers, factors=None
) -> np.ndarray:
    """One ascending sweep of per-antenna AC updates with monotone acceptance.

    The quadratics of all antennas are factored once (``assemble_quadratic``),
    since F_D, w and v are fixed within the sweep; ``factors`` is
    ``factor_ac_blocks(blocks)``, for a caller that sweeps one channel many
    times.  The links P = H F_D are computed in full once, at the start, and
    their statistics once per scored P.  Replacing antenna n's AC vector c
    changes only column n of H, so P moves by the rank-1 term
    outer(H_ac (c - c_old), F_D[n]); each candidate is scored on the exact
    objective from the moved P and kept only when it strictly beats the
    incumbent, which guards against rounding, so the sweep never increases
    the objective.  DC entries are left untouched.
    """
    coeffs = np.array(coeffs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if factors is None:
        factors = factor_ac_blocks(blocks)
    lams, vecs, proj = assemble_quadratic(factors, f_d, w, v, weights)
    h_ac = factors.rows
    gw = weights * w * np.abs(v) ** 2
    bwv = weights * w * v
    rho_sq = FULL_SPHERE - coeffs[:, 0] ** 2
    links = effective_channels(blocks, coeffs) @ f_d
    incumbent = wmmse_objective(w, mse_vector(link_stats(links), v, noise_powers), weights)
    for n in range(coeffs.shape[0]):
        f_n = f_d[n]
        # links without antenna n's AC part, and d = Re(H_ac^T a)
        rest = links - np.outer(h_ac[n] @ coeffs[n, 1:], f_n)
        a = 2.0 * (gw * (np.conj(rest) @ f_n) - bwv * f_n)
        dt = (proj[n] @ a).real
        _, c_ac = solve_ac_subproblem(lams[n], vecs[n], dt, rho_sq[n])
        moved = rest + np.outer(h_ac[n] @ c_ac, f_n)
        obj = wmmse_objective(w, mse_vector(link_stats(moved), v, noise_powers), weights)
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
    returns the channel under the updated patterns.  The link statistics of
    p = h F_D are formed once after each change of either, and the thin QR
    of H^H that ``update_fd`` works in once per channel: once per solve
    without ``pattern_step``, once per pattern step with it.  v and w read
    the same statistics, so one MSE vector scores both.
    Weights start at one.  The loop stops when the relative sum-rate change
    drops below ``config.tolerance`` or ``config.max_iterations`` is spent.
    Returns (h, f_d, v, w, history, converged).
    """
    w = np.ones(len(weights))
    history: list[IterationRecord] = []
    prev_rate = None
    basis = np.linalg.qr(np.conj(h).T)
    links = link_stats(h @ f_d)
    for it in range(1, config.max_iterations + 1):
        tic = time.perf_counter()
        v = update_v(links, noise)
        e = mse_vector(links, v, noise)
        obj_v = wmmse_objective(w, e, weights)
        t_v = time.perf_counter()
        w = update_w(links, v)
        obj_w = wmmse_objective(w, e, weights)
        t_w = time.perf_counter()
        f_d = update_fd(h, w, v, weights, p_max, basis)
        links = link_stats(h @ f_d)
        obj_fd = wmmse_objective(w, mse_vector(links, v, noise), weights)
        t_fd = time.perf_counter()
        if pattern_step is None:
            obj_em = obj_fd
        else:
            h = pattern_step(f_d, w, v)
            basis = np.linalg.qr(np.conj(h).T)
            links = link_stats(h @ f_d)
            obj_em = wmmse_objective(w, mse_vector(links, v, noise), weights)
        t_em = time.perf_counter()
        rate = sum_rate(links, weights, noise)
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
    p_max: float,
    config: SolverConfig | None = None,
    seed: int = 0,
    *,
    em_update: bool = True,
) -> SolverResult:
    """Run the alternating solver on one scenario under the total power
    budget ``p_max`` (watts).

    Patterns start with DC pinned at eta and random AC (or isotropic when
    ``em_update`` is off, the conventional hybrid baseline); the digital
    precoder starts as the conjugate matched filter at full power.  Each
    outer iteration runs the four block updates; the loop stops when the
    relative sum-rate change drops below the tolerance or the iteration
    budget is spent.  The solve reads the scenario's EM-domain ``blocks``,
    lifted once per scenario, so one scenario serves every budget; a
    pattern solve factors their AC parts once (``factor_ac_blocks``) and
    needs a truncation degree of at least 1.
    """
    _check_budget(p_max)
    if em_update and scenario.truncation == 0:
        raise ValueError("truncation: optimizing patterns needs degree >= 1, got 0")
    config = config or SolverConfig()
    geom = scenario.geometry
    blocks = scenario.blocks
    weights = scenario.weights
    noise = scenario.noise_powers
    if em_update:
        rng = np.random.default_rng(seed)
        coeffs = initial_coefficients(geom.n_t, scenario.truncation, config.eta, rng)
        factors = factor_ac_blocks(blocks)
    else:
        coeffs = isotropic_coefficients(geom.n_t, scenario.truncation)

    def pattern_step(f_d, w, v):
        nonlocal coeffs
        coeffs = update_em(blocks, coeffs, f_d, w, v, weights, noise, factors)
        return effective_channels(blocks, coeffs)

    h = effective_channels(blocks, coeffs)
    h, f_d, v, w, history, converged = _alternate(
        h, matched_filter_precoder(h, p_max), weights, noise, p_max, config,
        pattern_step if em_update else None,
    )
    return SolverResult(
        state=SolverState(w=w, v=v, f_d=f_d, coeffs=coeffs),
        history=history,
        converged=converged,
        # at v = 0, w = 1 every MSE is exactly 1, so the objective is sum(beta)
        initial_objective=float(weights.sum()),
        channels=h,
        p_max=p_max,
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
    _check_budget(p_max)
    config = config or SolverConfig()
    f_d = matched_filter_precoder(channels, p_max) if f_init is None else f_init
    _, f_d, v, w, history, _ = _alternate(
        channels, f_d, weights, noise_powers, p_max, config
    )
    return f_d, v, w, [rec.sum_rate for rec in history]
