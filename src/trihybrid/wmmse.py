"""Alternating weighted-MMSE solver for tri-hybrid sum-rate maximization.

The weighted sum rate is maximized through its WMMSE reformulation: minimize
sum_k beta_k (w_k e_k - ln w_k) over per-user MSE weights w, scalar
combiners v, a fully digital precoder F_D under the total power budget, and
the per-antenna pattern coefficients c^(n) under the 4 pi gain-power budget
with the constant (DC) coefficient pinned to eta.  Every block update is
closed form:

* v, w, F_D follow the classic per-user expressions, v and w (like the
  MSE, the objective and the sum rate) from the statistics of the links
  p = H F_D alone, which ``link_stats`` forms once after each change of H
  or F_D.  F_D lies in the K-dimensional range of H^H: one thin QR
  H^H = Q R per channel reduces each F_D update to the spectrum of the
  K x K matrix R C R^H, and the one power multiplier all columns of F_D
  share solves a secular equation on those K terms;
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
sum_i x_i / (s_i + t)^2 = target (More & Sorensen 1983).

One outer iteration, a map G, is ``outer_step``, a function from one
immutable ``Iterate`` to the next, so a solve can resume from, or evaluate
the step at, any iterate; ``_alternate`` loops over it and returns the
``SolverResult`` of every solve, the pattern solve's, the frozen baseline's
and ``refit_digital``'s alike.  On a fixed channel (the frozen baseline and
``refit_digital``) the loop takes one SQUAREM extrapolation of F_D after
every two maps (``extrapolated_step``; Varadhan & Roland 2008), which
shortcuts the slow linear tail of block-coordinate WMMSE; the pattern solve
runs the plain maps.

Every per-user K-vector (the links' statistics, v, w and ln w, the MSE, the
user weights and noise powers) is a list of Python floats, and the
functions of them run O(K) scalar loops: at a few users numpy's cost per
call, not the arithmetic, would bound the loop.  The same holds for the
K terms of an F_D update after its eigensolve and for the at most 2K
spectral terms of each pattern subproblem, from its pole and cluster to
its multiplier.  numpy forms the K x K links, R C R^H and its eigensolve,
the precoder, the pattern quadratics and each pattern point V y; a
K-vector becomes an array only where it scales one of those matrices.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import Scenario, _check_rules, _int_rule, _is_number, effective_channels
from .harmonics import FULL_SPHERE, truncation_length

EPS = sys.float_info.epsilon
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
    tolerance: float = 1e-5  # relative sum-rate change to stop at; 0 stops on an equal rate

    RULES = {
        "eta": ("a number in (0, sqrt(4*pi))",
                lambda x: _is_number(x) and 0.0 < x < math.sqrt(FULL_SPHERE)),
        "max_iterations": _int_rule(1),
        "tolerance": ("a finite number >= 0", lambda x: _is_number(x) and x >= 0),
    }

    def __post_init__(self):
        _check_rules(SolverConfig, self)


@dataclass
class IterationRecord:
    iteration: int
    sum_rate: float
    objective: float
    objective_after_v: float
    objective_after_w: float
    objective_after_fd: float
    step_seconds: tuple


class Links(NamedTuple):
    """What the per-user updates read of the (K, K) links p[k, j] = h_k . f_j,
    as lists of Python numbers."""

    gains: list  # (K,) desired-link gains p_kk
    signal: list  # (K,) desired powers |p_kk|^2
    received: list  # (K,) received powers sum_j |p_kj|^2
    interference: list  # (K,) received minus desired power


def link_stats(p) -> Links:
    """The statistics of the links ``p`` that the v, w, MSE and rate
    functions read, formed once per change of p."""
    powers = np.abs(p) ** 2
    received = powers.sum(axis=1).tolist()
    signal = powers.diagonal().tolist()
    return Links(
        p.diagonal().tolist(), signal, received, [r - s for r, s in zip(received, signal)]
    )


def sum_rate(links: Links, weights, noise_powers) -> float:
    """Weighted sum rate sum_k beta_k log2(1 + SINR_k) of the links, in bits/s/Hz."""
    rate = 0.0
    for b, s, i, n in zip(weights, links.signal, links.interference, noise_powers):
        if not n > 0:
            raise ValueError("noise powers must be positive")
        rate += b * math.log2(1.0 + s / (n + i))
    return float(rate)


def mse_vector(links: Links, v, noise_powers) -> list:
    """Per-user MSE e_k = |1 - v_k p_kk|^2 + |v_k|^2 (interference + noise)."""
    e = []
    for vk, g, i, n in zip(v, links.gains, links.interference, noise_powers):
        miss, gain = abs(1.0 - vk * g), abs(vk)
        e.append(miss * miss + gain * gain * (i + n))
    return e


def wmmse_objective(w, e, weights, log_w) -> float:
    """sum_k beta_k (w_k e_k - ln w_k), with ``log_w`` = ln w, formed once per w."""
    total = 0.0
    for b, wk, ek, lk in zip(weights, w, e, log_w):
        total += b * (wk * ek - lk)
    return float(total)


def update_v(links: Links, noise_powers) -> list:
    """Per-user MMSE combiner: conj(p_kk) over total received power plus noise."""
    # times the reciprocal, which rounds as numpy's complex-by-real division
    return [
        g.conjugate() * (1.0 / (r + n))
        for g, r, n in zip(links.gains, links.received, noise_powers)
    ]


def update_w(links: Links, v) -> list:
    """MSE weights w_k = 1 / (1 - v_k p_kk); equals 1/e_k for fresh v."""
    deltas = [1.0 - vk * g for vk, g in zip(v, links.gains)]
    if any(abs(delta) < DEGENERACY_TOL for delta in deltas):
        raise RuntimeError("weight update degenerate: v_k p_kk is numerically 1")
    w = [(1.0 / delta).real for delta in deltas]
    if any(wk <= 0 for wk in w):
        raise RuntimeError("weight update produced a non-positive weight")
    return w


def _user_scales(w, v, weights):
    """The per-user factors through which w and v enter the F_D and pattern
    updates: beta_k w_k |v_k|^2 and beta_k w_k v_k, as lists."""
    gw, bwv = [], []
    for b, wk, vk in zip(weights, w, v):
        bw, gain = b * wk, abs(vk)
        gw.append(bw * (gain * gain))
        bwv.append(bw * vk)
    return gw, bwv


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
    multipliers see at most 2K terms, so the steps run on Python floats:
    ``x_sq`` and ``shift`` are sequences of them.
    """
    terms = list(zip(x_sq, shift))
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


def update_fd(basis, w, v, weights, p_max) -> np.ndarray:
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
    The channel enters only as ``basis``, its thin QR (Q, R) =
    ``np.linalg.qr(np.conj(channels).T)``, which the loop forms once per H.
    The K terms after the eigensolve (clamp, ||b~_i||^2, cutoff, power at
    mu = 0, scale) are Python floats.
    """
    _check_budget(p_max)
    q, r = basis
    gw, bwv = _user_scales(w, v, weights)
    m = (r * gw) @ np.conj(r).T
    eigvals, u = np.linalg.eigh(m)
    bt = np.conj(u).T @ (r * [z.conjugate() for z in bwv])  # (r, K)
    lams = [max(lam, 0.0) for lam in eigvals.tolist()]
    bt_sq = []
    for row in bt.tolist():
        total = 0.0
        for z in row:
            mag = abs(z)
            total += mag * mag
        bt_sq.append(total)

    cutoff = lams[-1] * len(lams) * EPS
    power0 = 0.0
    for x, lam in zip(bt_sq, lams):
        if lam > cutoff:
            power0 += x / (lam * lam)
    if power0 <= p_max:
        scale = [1.0 / lam if lam > cutoff else 0.0 for lam in lams]
        return (q @ u) @ (np.array(scale)[:, None] * bt)

    mu = _secular_shift(bt_sq, lams, p_max, "power")
    return (q @ u) @ (bt / np.array([lam + mu for lam in lams])[:, None])


class AcFactors(NamedTuple):
    """The EM-domain channel blocks, every antenna's AC block of them and the
    thin QR of it (``factor_ac_blocks``)."""

    blocks: np.ndarray  # (K, N_T, T) the blocks factored
    columns: np.ndarray  # (N_T, T-1, K) H_ac^T per antenna
    rows: np.ndarray  # (N_T, K, T-1) H_ac per antenna, contiguous
    q: np.ndarray  # (N_T, T-1, r) orthonormal basis of each G's row space
    r: np.ndarray  # (N_T, r, 2K) with G^T = Q R


def factor_ac_blocks(blocks) -> AcFactors:
    """Thin QR G^T = Q R of every antenna's G = [X; Y], where H_ac =
    blocks[:, n, 1:] = X + iY, in one batched call."""
    columns = blocks[:, :, 1:].transpose(1, 2, 0)
    q, r = np.linalg.qr(np.concatenate((columns.real, columns.imag), axis=2))
    return AcFactors(blocks, columns, np.ascontiguousarray(columns.transpose(0, 2, 1)), q, r)


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
    gw, _ = _user_scales(w, v, weights)
    scale = 2.0 * np.sum(np.abs(f_d) ** 2, axis=1)[:, None] * np.array(gw + gw)
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

    The r <= 2K terms (``lams`` and ``dt`` arrays) are read once as Python
    floats, and every step over them runs on those: the pole, the cluster,
    the range solution's squared norm, the noise test and the secular
    solve.  numpy forms only c from V, plus the cluster direction in the
    hard case, which takes up the norm the branch test itself measured.
    """
    lams, dt = lams.tolist(), dt.tolist()
    dim, rank = vecs.shape
    null = rank < dim
    pole = min(lams[0], 0.0) if null else lams[0]
    rounding = CLUSTER_ULPS * dim * EPS
    lam_scale = max(abs(lams[0]), abs(lams[-1]))  # lams ascend
    bound = rounding * lam_scale
    shift, x_sq, y_range = [], [], []
    dt_sq = cluster_sq = range_sq = 0.0
    for lam, d in zip(lams, dt):
        s, d_sq = lam - pole, d * d
        x_sq.append(d_sq)
        dt_sq += d_sq
        if s <= bound:  # the cluster counts as one eigenvalue at the pole
            s = 0.0
            cluster_sq += d_sq
        else:
            y = d / s
            y_range.append(y)
            range_sq += y * y
        shift.append(s)
    # d = A x keeps up to rounding * (norm(d) + norm(A) norm(x)) of weight on
    # the computed cluster, from the eigenvector error alone
    noise = rounding * (math.sqrt(dt_sq) + lam_scale * math.sqrt(range_sq))
    if range_sq <= rho_sq and math.sqrt(cluster_sq) <= noise:
        cluster = np.array(shift) == 0.0  # every other shift exceeds bound >= 0
        z = _cluster_direction(vecs, cluster, null and -pole <= bound)
        return -0.5 * pole, math.sqrt(rho_sq - range_sq) * z - vecs[:, ~cluster] @ y_range

    t = _secular_shift(x_sq, shift, rho_sq, "norm")
    return 0.5 * (t - pole), vecs @ [-d / (s + t) for d, s in zip(dt, shift)]


def update_em(factors: AcFactors, coeffs, f_d, w, v, weights, noise_powers) -> np.ndarray:
    """One ascending sweep of per-antenna AC updates with monotone acceptance.

    The channel enters only as ``factors``, ``factor_ac_blocks`` of its
    EM-domain blocks, formed once per solve.  The quadratics of all antennas
    are assembled once (``assemble_quadratic``), since F_D, w and v are fixed
    within the sweep.  The links P = H F_D are computed in full once, at the
    start, and their statistics once per scored P.  Replacing antenna n's AC
    vector c changes only column n of H, so P moves by the rank-1 term
    outer(H_ac (c - c_old), F_D[n]); each candidate is scored on the exact
    objective from the moved P and kept only when it strictly beats the
    incumbent, which guards against rounding, so the sweep never increases
    the objective.  DC entries are left untouched.  beta w v F_D[n] and
    each antenna's rho^2 are formed for all antennas once per sweep.
    """
    coeffs = np.array(coeffs, dtype=float)
    lams, vecs, proj = assemble_quadratic(factors, f_d, w, v, weights)
    h_ac = factors.rows
    gw, bwv = _user_scales(w, v, weights)
    gw, bwv_fd = np.array(gw), np.array(bwv) * f_d  # row n: beta w v F_D[n]
    log_w = [math.log(wk) for wk in w]
    rho_sq = (FULL_SPHERE - coeffs[:, 0] ** 2).tolist()
    links = effective_channels(factors.blocks, coeffs) @ f_d

    def objective(p):
        return wmmse_objective(w, mse_vector(link_stats(p), v, noise_powers), weights, log_w)

    incumbent = objective(links)
    for n in range(coeffs.shape[0]):
        f_n = f_d[n]
        # links without antenna n's AC part, and d = Re(H_ac^T a); the rank-1
        # moves broadcast as np.outer does
        rest = links - (h_ac[n] @ coeffs[n, 1:])[:, None] * f_n
        a = 2.0 * (gw * (np.conj(rest) @ f_n) - bwv_fd[n])
        dt = (proj[n] @ a).real
        _, c_ac = solve_ac_subproblem(lams[n], vecs[n], dt, rho_sq[n])
        moved = rest + (h_ac[n] @ c_ac)[:, None] * f_n
        obj = objective(moved)
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


class Iterate(NamedTuple):
    """One point of the alternating solve, never changed in place: F_D, the
    coefficients, the MSE weights the next v update is scored with, and what
    the next step reads of them, formed once per change.  On a fixed channel
    it also carries the precoders going into the last maps since the last
    extrapolation, at most two, which ``extrapolated_step`` reads, so a
    solve resumed from any iterate continues its history."""

    f_d: np.ndarray  # (N_T, K) digital precoder
    coeffs: np.ndarray | None  # (N_T, T) pattern coefficients; None on a fixed channel
    w: list  # (K,) MSE weights
    log_w: list  # (K,) ln w
    h: np.ndarray  # (K, N_T) channel
    basis: tuple  # thin QR (Q, R) of h^H
    links: Links  # statistics of h F_D
    pending: tuple = ()  # (F_0,) or (F_0, F_1) on a fixed channel, else ()
    objective: float = math.inf  # the objective recorded by the map that made it

    @classmethod
    def start(cls, h, f_d, coeffs=None) -> Iterate:
        """The iterate a solve starts from: F_D on the channel h (under
        ``coeffs``), with every MSE weight at one."""
        k = h.shape[0]
        return cls(f_d, coeffs, [1.0] * k, [0.0] * k, h, np.linalg.qr(np.conj(h).T),
                   link_stats(h @ f_d))


@dataclass(eq=False)
class SolverResult:
    """One solve of the v/w/F_D loop, as ``_alternate`` ends it."""

    iterate: Iterate  # the last kept iterate: F_D, coefficients, w, the channel h
    history: list  # one IterationRecord per kept map
    converged: bool  # the rate settled before the iteration cap
    p_max: float  # power budget of the solve, watts
    # loop steps spent, kept or not: each plain map and each extrapolation
    # attempt, also one whose map was skipped as already rejected
    iterations: int

    @property
    def sum_rate(self) -> float:
        return self.history[-1].sum_rate


def outer_step(x: Iterate, it, weights, noise, p_max, factors):
    """Outer iteration ``it`` from ``x``: v, w and F_D and, when ``factors``
    (``factor_ac_blocks`` of the blocks) is given, one ``update_em`` sweep
    and the channel, QR and links under its coefficients.  v and w read the
    same links, so one MSE vector scores both; ``weights`` and ``noise`` are
    lists of floats.  On a fixed channel (no ``factors``) the next iterate's
    ``pending`` is the last two precoders going into the maps, x's among
    them.  Returns (next iterate, ``IterationRecord``)."""
    tic = time.perf_counter()
    v = update_v(x.links, noise)
    e = mse_vector(x.links, v, noise)
    obj_v = wmmse_objective(x.w, e, weights, x.log_w)
    t_v = time.perf_counter()
    w = update_w(x.links, v)
    log_w = [math.log(wk) for wk in w]
    obj_w = wmmse_objective(w, e, weights, log_w)
    t_w = time.perf_counter()
    f_d = update_fd(x.basis, w, v, weights, p_max)
    links = link_stats(x.h @ f_d)
    obj_fd = wmmse_objective(w, mse_vector(links, v, noise), weights, log_w)
    t_fd = time.perf_counter()
    coeffs, h, basis, obj_em = x.coeffs, x.h, x.basis, obj_fd
    if factors is not None:
        coeffs = update_em(factors, coeffs, f_d, w, v, weights, noise)
        h = effective_channels(factors.blocks, coeffs)
        basis = np.linalg.qr(np.conj(h).T)
        links = link_stats(h @ f_d)
        obj_em = wmmse_objective(w, mse_vector(links, v, noise), weights, log_w)
    t_em = time.perf_counter()
    rate = sum_rate(links, weights, noise)
    seconds = (t_v - tic, t_w - t_v, t_fd - t_w, t_em - t_fd)
    record = IterationRecord(it, rate, obj_em, obj_v, obj_w, obj_fd, seconds)
    pending = () if factors is not None else (*x.pending, x.f_d)[-2:]
    return Iterate(f_d, coeffs, w, log_w, h, basis, links, pending, obj_em), record


def extrapolated_step(x: Iterate, it, weights, noise, p_max):
    """Loop step ``it`` of a fixed-channel solve after two plain maps: one
    SQUAREM extrapolation of F_D and one stabilising map G from the point
    it gives.

    With F_0, F_1 = ``x.pending`` and F_2 = ``x.f_d``, r = F_1 - F_0,
    u = F_2 - 2 F_1 + F_0 and alpha = -||r||_F / ||u||_F.  Only a step
    longer than the plain one, alpha < -1, extrapolates; otherwise this is
    the plain map from x.  F' = F_0 - 2 alpha r + alpha^2 u, scaled down
    into the budget when over it, carries its links and a fresh w from a
    fresh v at them, so the map's objective after v is sum(beta) -
    ln 2 rate(F').  G's result is kept only when its rate beats x's and its
    objective after v is at most x's recorded objective, so acceptance 04's
    chain and the non-decreasing rate hold across it.  That objective is
    formed here, exactly as G forms it, and G runs only when it passes.
    Returns what ``outer_step`` returns, with nothing pending, or None when
    G's result would not be kept (G then may not have run) and the solve
    continues from x."""
    f_0, f_1 = x.pending
    r = f_1 - f_0
    u = x.f_d - 2.0 * f_1 + f_0
    norm_r, norm_u = float(np.linalg.norm(r)), float(np.linalg.norm(u))
    x = x._replace(pending=())
    if not norm_r > norm_u > 0.0:
        return outer_step(x, it, weights, noise, p_max, None)
    alpha = -norm_r / norm_u
    f_d = f_0 - 2.0 * alpha * r + alpha * alpha * u
    power = float(np.sum(np.abs(f_d) ** 2))
    if power > p_max:
        f_d = f_d * math.sqrt(p_max / power)
    links = link_stats(x.h @ f_d)
    v = update_v(links, noise)
    w = update_w(links, v)
    log_w = [math.log(wk) for wk in w]
    # G's objective after v: its first block forms this v again and scores
    # it with this w
    if wmmse_objective(w, mse_vector(links, v, noise), weights, log_w) > x.objective:
        return None
    start = x._replace(f_d=f_d, w=w, log_w=log_w, links=links)
    y, record = outer_step(start, it, weights, noise, p_max, None)
    if record.sum_rate > sum_rate(x.links, weights, noise):
        return y._replace(pending=()), record
    return None


def _alternate(x: Iterate, weights, noise, p_max, config, factors=None) -> SolverResult:
    """Maps from ``x``, with ``weights`` and ``noise`` made lists of floats
    once, until the relative sum-rate change between two kept maps is at
    most ``config.tolerance`` or ``config.max_iterations`` loop steps are
    spent.  A step is ``outer_step``, or ``extrapolated_step`` once a
    fixed-channel iterate has two precoders pending; an extrapolation that
    is not kept spends its step and leaves no record, whether its
    stabilising map ran or was skipped as already rejected.  Returns the
    solve's result: the last kept iterate, the history, whether the rate
    settled and the steps spent."""
    weights = np.asarray(weights, dtype=float).tolist()
    noise = np.asarray(noise, dtype=float).tolist()
    history: list[IterationRecord] = []
    prev_rate = None
    for it in range(1, config.max_iterations + 1):
        if len(x.pending) == 2:
            step = extrapolated_step(x, it, weights, noise, p_max)
        else:
            step = outer_step(x, it, weights, noise, p_max, factors)
        if step is None:
            x = x._replace(pending=())
            continue
        x, record = step
        history.append(record)
        rate = record.sum_rate
        if prev_rate is not None and abs(rate - prev_rate) <= config.tolerance * max(
            abs(prev_rate), 1e-12
        ):
            return SolverResult(x, history, True, p_max, it)
        prev_rate = rate
    return SolverResult(x, history, False, p_max, config.max_iterations)


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
    outer iteration runs the four block updates (the frozen baseline's three,
    with an extrapolation of F_D after every two; see ``_alternate``); the
    loop stops when the relative sum-rate change drops below the tolerance
    or the iteration budget is spent.  The solve reads the scenario's EM-domain ``blocks``,
    lifted once per scenario, so one scenario serves every budget; a
    pattern solve factors their AC parts once (``factor_ac_blocks``) and
    needs a truncation degree of at least 1.
    """
    _check_budget(p_max)
    if em_update and scenario.truncation == 0:
        raise ValueError("truncation: optimizing patterns needs degree >= 1, got 0")
    config = config or SolverConfig()
    n_t, blocks = scenario.geometry.n_t, scenario.blocks
    if em_update:
        rng = np.random.default_rng(seed)
        coeffs = initial_coefficients(n_t, scenario.truncation, config.eta, rng)
        factors = factor_ac_blocks(blocks)
    else:
        coeffs, factors = isotropic_coefficients(n_t, scenario.truncation), None
    h = effective_channels(blocks, coeffs)
    return _alternate(
        Iterate.start(h, matched_filter_precoder(h, p_max), coeffs),
        scenario.weights, scenario.noise_powers, p_max, config, factors,
    )


def refit_digital(
    channels: np.ndarray,
    weights,
    noise_powers,
    p_max: float,
    config: SolverConfig | None = None,
    f_init: np.ndarray | None = None,
) -> SolverResult:
    """Iterate the v/w/F_D updates on a fixed channel, extrapolating F_D
    after every two maps, until the sum rate settles or the iteration budget
    is spent; the result is a solve's, with no coefficients in its
    iterate."""
    _check_budget(p_max)
    config = config or SolverConfig()
    f_d = matched_filter_precoder(channels, p_max) if f_init is None else f_init
    return _alternate(Iterate.start(channels, f_d), weights, noise_powers, p_max, config)
