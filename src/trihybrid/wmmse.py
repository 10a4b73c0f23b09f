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
* the channel sees antenna n's AC coefficients c only through their
  r <= min(T-1, 2K) coordinates a_n = Q_n^T c in its block's row space:
  one batched thin QR per solve (``factor_ac_blocks``) gives
  H_ac = R_n^T Q_n^T, so the solve's point holds a_n alone, and the
  channel is the DC part eta blocks[:, :, 0], formed once, plus R_n^T a_n.
  Where r < T-1 the null space takes up the rest of the 4 pi budget and
  a_n lies in a ball; where r = T-1 it lies on the sphere.  One batched
  eigh per sweep of the r x r quadratics gives each antenna a secular
  equation on at most 2K terms, or nu = 0 where the unconstrained
  minimiser lies inside the ball (More & Sorensen 1983).  The point is
  scored on the exact objective, from the links H F_D moved by one rank-1
  term, and accepted only on strict improvement, which makes the objective
  non-increasing step by step and the sum rate non-decreasing across outer
  iterations.  A pattern solve completes its coefficients once, at its end
  (``complete_coefficients``), into ``SolverResult.coeffs``.

Both multipliers come from one safeguarded Newton iteration on
sum_i x_i / (s_i + t)^2 = target (More & Sorensen 1983).

One outer iteration, a map G, is ``outer_step``, a function from one
immutable ``Iterate``, the point alone, to the next.  ``_alternate`` runs
it once per loop step and returns the ``SolverResult`` of every solve, the
pattern solve's, the frozen baseline's and ``refit_digital``'s alike.
Every solve takes one SQUAREM extrapolation after every two maps
(``extrapolated_start``; Varadhan & Roland 2008), which shortcuts the slow
linear tail of block-coordinate WMMSE: of F_D on a fixed channel, and of
F_D with the row point on a pattern solve.  Each rule of the step policy
is one pure function: ``step_length``, ``side_scales`` (each a_n kept in
its ball or on its sphere), ``moved_bound`` (the step-length bound),
``keeps_start`` and ``keeps_map`` (the keep tests) and ``settled`` (the
stop test).  ``Iterate.start`` forms the state of every new channel, its
QR and links, where a solve starts, a pattern sweep ends or an
extrapolation moves the patterns.

The solve runs in SNR units: ``snr_scale`` scales the channel so that the
noise is 1 at every user and the power budget is 1.  Its precoder F~ times
the square root of the budget in watts is the precoder in watts.

Every per-user K-vector (the links' statistics, v, w, the MSE and the
user weights) is a list of Python floats, and the functions of them run
O(K) scalar loops: at a few users numpy's cost per call, not the
arithmetic, would bound the loop.  The same holds for the
K terms of an F_D update after its eigensolve and for the at most 2K
spectral terms of each pattern subproblem, from its pole and cluster to
its multiplier.  numpy forms the K x K links, R C R^H and its eigensolve,
the precoder, the pattern quadratics and each pattern point U y; a
K-vector becomes an array only where it scales one of those matrices.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .channel import Scenario, _check_rules, _int_rule, _is_number, _norm
from .harmonics import FULL_SPHERE, truncation_length

EPS = sys.float_info.epsilon
# Backward error of an n x n eigensolve, in units of n * eps * max|lam|:
# eigenvalues this close to the pole form one cluster, and weight of d on that
# cluster below this level is rounding noise.
CLUSTER_ULPS = 10.0
MULTIPLIER_STEPS = 100  # cap on safeguarded Newton steps per multiplier
MULTIPLIER_TOL = 1e-10  # relative constraint residual at which a multiplier stops
# SQUAREM step-length control (``_alternate``): the bound on |alpha| a solve
# starts from, and the factor by which the loop grows and shrinks it.  Chosen
# on the pattern solves of seeds 1..10, far and near field, at 0/10/20/30 dBm
# under the 100-step cap: start 1 and factor 3 raise the mean rate from
# 3.140060 / 7.383094 / 13.412281 / 18.389475 (unbounded) to 3.140107 /
# 7.390729 / 13.494003 / 19.087514, in 1,759 maps rather than 1,608 at 30 dBm.
# Factors 2 and 4 from start 1, and factors 2, 3 and 4 from start 2, part the
# solve from its dense or bisection oracle beyond their tests' bounds; a fixed
# bound of 2 lowers the 10, 20 and 30 dBm means, and fixed bounds of 4 and 8
# part the solve from its dense oracle.  The fixed channel stays unbounded:
# bounding its 20 hybrid solves at 30 dBm too (start 1, factor 2) raised their
# maps from 388 to 615 and lowered their mean by 1.6e-5 relative.
STEP_BOUND_PATTERN = 1.0
STEP_BOUND_FIXED = math.inf
STEP_GROWTH = 3.0
EIGH_FAILED = "Eigenvalues did not converge"  # numpy.linalg's text for a failed eigh


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs of the alternating solver."""

    eta: float = math.sqrt(2.0 * math.pi)
    max_iterations: int = 100
    tolerance: float = 1e-5  # relative sum-rate rise to stop at; 0 stops once it stops rising

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
    as lists of Python numbers.  The interference, received minus desired
    power, is formed where it is read."""

    gains: list  # (K,) desired-link gains p_kk
    signal: list  # (K,) desired powers |p_kk|^2
    received: list  # (K,) received powers sum_j |p_kj|^2


def link_stats(p) -> Links:
    """The statistics of the links ``p`` that the v, w, MSE and rate
    functions read, formed once per change of p."""
    powers = np.abs(p) ** 2
    received = np.add.reduce(powers, axis=1)
    return Links(p.diagonal().tolist(), powers.diagonal().tolist(), received.tolist())


def sum_rate(links: Links, weights) -> float:
    """Weighted sum rate sum_k beta_k log2(1 + SINR_k) of the links at unit
    noise, SINR_k = |p_kk|^2 / (1 + interference), in bits/s/Hz."""
    rate = 0.0
    for b, s, r in zip(weights, links.signal, links.received):
        rate += b * math.log2(1.0 + s / (1.0 + (r - s)))
    return float(rate)


def mse_vector(links: Links, v) -> list:
    """Per-user MSE e_k = |1 - v_k p_kk|^2 + |v_k|^2 (interference + 1), the
    interference being the received minus the desired power."""
    e = []
    for vk, g, s, r in zip(v, links.gains, links.signal, links.received):
        miss, gain = abs(1.0 - vk * g), abs(vk)
        e.append(miss * miss + gain * gain * ((r - s) + 1.0))
    return e


def wmmse_objective(w, e, weights) -> float:
    """sum_k beta_k (w_k e_k - ln w_k)."""
    total = 0.0
    for b, wk, ek in zip(weights, w, e):
        total += b * (wk * ek - math.log(wk))
    return float(total)


def update_v(links: Links) -> list:
    """Per-user MMSE combiner: conj(p_kk) over total received power plus 1."""
    # times the reciprocal, which rounds as numpy's complex-by-real division
    return [g.conjugate() * (1.0 / (r + 1.0)) for g, r in zip(links.gains, links.received)]


def update_w(links: Links) -> list:
    """MSE weights w_k = 1 + SINR_k, which is 1/e_k at the fresh combiner
    ``update_v(links)``.  The received power sums nonnegative terms that
    include the desired one, so r - s >= 0 and every weight is at least 1."""
    return [1.0 + s / (1.0 + (r - s)) for s, r in zip(links.signal, links.received)]


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


def _eigh(a):
    """``np.linalg.eigh(a)`` of a float64 or complex128 (..., n, n) stack, bit
    for bit: numpy's own LAPACK gufunc, called as numpy.linalg calls it but
    without its per-call checks and ``np.errstate``, which cost as much as
    the kernel at these sizes.  Where LAPACK fails, the gufunc fills NaN, as
    under numpy.linalg before that raises; each caller raises the same
    ``LinAlgError(EIGH_FAILED)`` on a NaN eigenvalue, from the values it
    already holds."""
    return _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


def _qr(a):
    """``np.linalg.qr(a)``, the reduced (Q, R), of a float64 or complex128
    (..., m, n) stack, bit for bit, from numpy's own LAPACK gufuncs without
    the wrapper's checks and ``np.errstate``: the Householder factors on a
    copy in ``a``'s memory order, Q from them, and R their upper triangle."""
    a = a.copy(order="K")
    real = a.dtype.kind != "c"
    tau = _umath_linalg.qr_r_raw(a, signature="d->d" if real else "D->D")
    q = _umath_linalg.qr_reduced(a, tau, signature="dd->d" if real else "DD->D")
    return q, np.triu(a[..., : tau.shape[-1], :])


def update_fd(basis, w, v, weights) -> np.ndarray:
    """Fully digital precoder under the unit power budget.

    Solves (M + mu I) f_k = beta_k w_k conj(v_k) conj(h_k), M = H^H C H with
    C = diag(beta_k w_k |v_k|^2), for the single multiplier mu >= 0 shared
    across users.  Every right-hand side lies in range(H^H), so F_D does too:
    with the thin QR H^H = Q R, M = Q (R C R^H) Q^H, and only the spectrum of
    the r x r matrix R C R^H = U diag(lam) U^H (r = min(K, N_T)) matters.
    With B~ = U^H R D, D = diag(beta_k w_k conj(v_k)), the power is
    sum_i ||b~_i||^2 / (lam_i + mu)^2 and F_D = (Q U) (B~ / (lam + mu)).
    When the budget is slack, mu = 0 is kept (complementary slackness) through
    the pseudo-inverse, the minimum-norm limit mu -> 0+, which also covers a
    rank-deficient H; otherwise the secular solver matches the power to 1
    within MULTIPLIER_TOL, with the bracket's lower end at mu = 0.
    The channel enters only as ``basis``, its thin QR (Q, R) =
    ``_qr(np.conj(channels).T)``, which the loop forms once per H.
    The K terms after the eigensolve (clamp, ||b~_i||^2, cutoff, power at
    mu = 0, scale) are Python floats.
    """
    q, r = basis
    gw, bwv = _user_scales(w, v, weights)
    m = (r * gw) @ np.conj(r).T
    eigvals, u = _eigh(m)
    bt = np.conj(u).T @ (r * [z.conjugate() for z in bwv])  # (r, K)
    lams = eigvals.tolist()
    if any(map(math.isnan, lams)):
        raise LinAlgError(EIGH_FAILED)
    lams = [max(lam, 0.0) for lam in lams]
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
            power0 += x / lam / lam  # lam * lam may underflow to 0
    if power0 <= 1.0:
        scale = [1.0 / lam if lam > cutoff else 0.0 for lam in lams]
        return (q @ u) @ (np.array(scale)[:, None] * bt)

    mu = _secular_shift(bt_sq, lams, 1.0, "power")
    return (q @ u) @ (bt / np.array([lam + mu for lam in lams])[:, None])


class AcFactors(NamedTuple):
    """What a pattern solve reads of its blocks (``factor_ac_blocks``): the
    DC, its part of the channel, and the thin QR H_ac^T = Q R per antenna."""

    eta: float  # every antenna's DC coefficient
    rho_sq: float  # 4 pi - eta^2, the squared norm each AC part may spend
    dc: np.ndarray  # (K, N_T) the channel's DC part, eta blocks[:, :, 0]
    q: np.ndarray  # (N_T, T-1, r) orthonormal basis of each H_ac's row space
    r: np.ndarray  # (N_T, r, K) complex, with H_ac^T = Q R


def factor_ac_blocks(blocks, eta) -> AcFactors:
    """Thin QR G^T = Q [R_X R_Y] of every antenna's G = [X; Y], where H_ac =
    blocks[:, n, 1:] = X + iY, in one batched call, read as H_ac^T = Q R
    with R = R_X + i R_Y; returns it with the DC ``eta`` and its fixed part."""
    k = blocks.shape[0]
    columns = blocks[:, :, 1:].transpose(1, 2, 0)
    q, r = _qr(np.concatenate((columns.real, columns.imag), axis=2))
    r = r[:, :, :k] + 1j * r[:, :, k:]
    return AcFactors(eta, FULL_SPHERE - eta * eta, eta * blocks[:, :, 0], q, r)


def channels_at(factors: AcFactors, coeffs) -> np.ndarray:
    """The (K, N_T) channel at the (N_T, r) row point ``coeffs``, the a_n:
    column n is the DC part eta blocks[:, n, 0] plus R_n^T a_n."""
    return factors.dc + (coeffs[:, None, :] @ factors.r)[:, 0, :].T


def assemble_quadratic(factors: AcFactors, f_d, w, v, weights):
    """Every antenna's pattern quadratic in its row coordinates.

    For antenna n the WMMSE objective is, up to a constant,
    c^T (A/2) c + d^T c in its AC coefficients c, with
    A = 2 s_n Re(H_ac^H diag(g) H_ac), s_n = ||F_D[n]||^2, g = beta w |v|^2
    and d = Re(H_ac^T a) for a per-user vector a of the current links (see
    ``update_em``).  With H_ac^T = Q R of ``factors``, in y = Q^T c the
    model is y^T (A~/2) y + d~^T y with A~ = 2 s_n Re(conj(R) diag(g) R^T)
    and d~ = Re(R a); one batched eigh of the r x r matrices
    A~ = U diag(lams) U^T gives all antennas at once.

    Returns (lams, vecs, proj): lams (N_T, r) ascending, vecs = U
    (N_T, r, r) and proj = U^T R (N_T, r, K), so U^T d~ = Re(proj a).
    """
    r = factors.r
    gw, _ = _user_scales(w, v, weights)
    scale = 2.0 * np.add.reduce(np.abs(f_d) ** 2, axis=1)[:, None] * np.array(gw)
    lams, u = _eigh(((np.conj(r) * scale[:, None, :]) @ r.transpose(0, 2, 1)).real)
    if np.isnan(lams).any():
        raise LinAlgError(EIGH_FAILED)
    return lams, u, u.transpose(0, 2, 1) @ r


def _cluster_direction(span, complement=False) -> np.ndarray:
    """Unit vector of the span of the orthonormal columns ``span``, or of its
    complement when ``complement``, independent of the basis chosen: the
    projection of the all-ones vector onto that space or, when that
    vanishes, of the unit vector the space is closest to."""
    dim = span.shape[0]

    def project(x):
        inside = span @ (span.T @ x)
        return x - inside if complement else inside

    z = project(np.ones(dim))
    if _norm(z) <= 1e-8 * math.sqrt(dim):
        weight = np.add.reduce(span**2, axis=1)
        z = project(np.eye(1, dim, np.argmin(weight) if complement else np.argmax(weight))[0])
    return z / _norm(z)


def solve_ac_subproblem(lams, vecs, dt, rho_sq, basis):
    """Global minimizer of y^T (A/2) y + d^T y on the sphere
    ||y||^2 = rho_sq, or in the ball ||y||^2 <= rho_sq where a null space
    takes up the rest of the budget, and its multiplier nu.

    y are the coordinates in the (T-1, r) orthonormal ``basis`` Q_n, the
    identity for the AC coefficients themselves; r < T-1 leaves a null
    space.  A = vecs diag(lams) vecs^T with ``lams`` ascending and ``vecs``
    orthogonal, and ``dt = vecs^T d``.  With pole = lams[0] on the sphere and
    min(lams[0], 0) in the ball, y(nu) = -(A + 2 nu I)^{-1} d has squared
    norm sum_m (dt_m / (lams_m + 2 nu))^2, decreasing for nu > -pole/2; the
    root there is the global minimizer (More & Sorensen 1983).  The secular
    solver works in the shift t = 2 nu + pole >= 0, so the distance to the
    pole keeps full precision, and stops once
    |norm(y)^2 - rho_sq| <= MULTIPLIER_TOL * rho_sq.  Returns (nu, y).

    Eigenvalues within CLUSTER_ULPS * r * eps * max|lams| of the pole form
    one cluster.  When d has only rounding-level weight on it and the
    range-only solution at the pole has norm at most rho, no root lies
    right of the pole.  In the ball with the pole at 0 up to that rounding,
    the range solution is then the minimizer, inside the ball, at nu = 0.
    Otherwise, the hard case, y is the range solution plus the cluster
    vector that makes up the missing norm, along ``_cluster_direction`` of
    the eigenspace Q_n vecs[:, cluster], which does not depend on the
    eigenbasis returned; since A z = pole z and d^T z = 0, it does not
    change the objective.  d = 0 is such a case.

    The r <= 2K terms are read once as Python floats, and every step over
    them runs on those: the pole, the cluster, the range solution's squared
    norm, the noise test and the secular solve.  numpy forms only y from
    vecs, plus the cluster direction in the hard case, which takes up the
    norm the branch test itself measured.
    """
    lams, dt = lams.tolist(), dt.tolist()
    ball = basis.shape[0] > basis.shape[1]
    pole = min(lams[0], 0.0) if ball else lams[0]
    rounding = CLUSTER_ULPS * len(lams) * EPS
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
        y = -(vecs[:, ~cluster] @ y_range)
        if ball and -pole <= bound:
            return -0.5 * pole, y
        z = basis.T @ _cluster_direction(basis @ vecs[:, cluster])
        return -0.5 * pole, math.sqrt(rho_sq - range_sq) * z + y

    t = _secular_shift(x_sq, shift, rho_sq, "norm")
    return 0.5 * (t - pole), vecs @ [-d / (s + t) for d, s in zip(dt, shift)]


def update_em(factors: AcFactors, coeffs, f_d, w, v, weights) -> np.ndarray:
    """One ascending sweep of per-antenna AC updates with monotone acceptance,
    from the row point ``coeffs`` (``channels_at``) to the next.

    The channel enters only as ``factors``, formed once per solve.  The
    quadratics of all antennas are assembled once (``assemble_quadratic``),
    since F_D, w and v are fixed within the sweep.  The links P = H F_D are
    computed in full once, at the start, and their statistics once per
    scored P.  Replacing antenna n's a_n changes only column n of H, so P
    moves by the rank-1 term outer(R_n^T (a - a_old), F_D[n]); each
    candidate, the solution of its ball (or sphere) subproblem, is scored
    on the exact objective from the moved P and kept only when it strictly
    beats the incumbent, which guards against rounding, so the sweep never
    increases the objective.
    """
    coeffs = np.array(coeffs, dtype=float)
    lams, vecs, proj = assemble_quadratic(factors, f_d, w, v, weights)
    gw, bwv = _user_scales(w, v, weights)
    gw, bwv_fd = np.array(gw), np.array(bwv) * f_d  # row n: beta w v F_D[n]
    links = channels_at(factors, coeffs) @ f_d

    def objective(p):
        return wmmse_objective(w, mse_vector(link_stats(p), v), weights)

    incumbent = objective(links)
    for n in range(coeffs.shape[0]):
        f_n, r_n = f_d[n], factors.r[n]
        # links without antenna n's AC part, and d = Re(H_ac^T a); the rank-1
        # moves broadcast as np.outer does
        rest = links - (coeffs[n] @ r_n)[:, None] * f_n
        a = 2.0 * (gw * (np.conj(rest) @ f_n) - bwv_fd[n])
        dt = (proj[n] @ a).real
        _, y = solve_ac_subproblem(lams[n], vecs[n], dt, factors.rho_sq, factors.q[n])
        moved = rest + (y @ r_n)[:, None] * f_n
        obj = objective(moved)
        if obj < incumbent:
            incumbent, links = obj, moved
            coeffs[n] = y
    return coeffs


def _null_sq(factors: AcFactors, coeffs) -> np.ndarray:
    """Each antenna's rho^2 - ||a_n||^2 at the row point ``coeffs``, the
    squared norm the null space of Q_n = ``factors.q[n]`` takes up; 0 where
    there is none, and where a_n lies within MULTIPLIER_TOL of its sphere,
    the band in which the secular solve stops."""
    missing = factors.rho_sq - np.add.reduce(coeffs**2, axis=1)
    ball = factors.q.shape[1] > factors.q.shape[2]
    return np.where(ball & (missing > MULTIPLIER_TOL * factors.rho_sq), missing, 0.0)


def complete_coefficients(factors: AcFactors, coeffs) -> np.ndarray:
    """The (N_T, T) pattern coefficients of the row point ``coeffs``: DC
    ``factors.eta``, and AC Q_n a_n plus a null vector of the norm
    ``_null_sq`` gives, along ``_cluster_direction`` of the null space, so
    that every pattern is on its 4 pi budget."""
    ac = (factors.q @ coeffs[:, :, None])[:, :, 0]
    null_sq = _null_sq(factors, coeffs)
    for n in np.flatnonzero(null_sq):
        ac[n] += math.sqrt(null_sq[n]) * _cluster_direction(factors.q[n], True)
    return np.concatenate((np.full((len(ac), 1), factors.eta), ac), axis=1)


def initial_coefficients(
    n_antennas: int, degree: int, eta: float, rng: np.random.Generator
) -> np.ndarray:
    """DC pinned at eta, AC uniform on its sphere, independently per antenna."""
    t_len = truncation_length(degree)
    coeffs = np.empty((n_antennas, t_len))
    radius = math.sqrt(FULL_SPHERE - eta * eta)
    for n in range(n_antennas):
        direction = rng.standard_normal(t_len - 1)
        direction /= _norm(direction)
        coeffs[n, 0] = eta
        coeffs[n, 1:] = radius * direction
    return coeffs


def isotropic_coefficients(n_antennas: int, degree: int) -> np.ndarray:
    """Unit-gain patterns: all power in the DC coefficient."""
    coeffs = np.zeros((n_antennas, truncation_length(degree)))
    coeffs[:, 0] = math.sqrt(FULL_SPHERE)
    return coeffs


def matched_filter_precoder(channels: np.ndarray) -> np.ndarray:
    """Conjugate matched-filter columns scaled to the full (unit) power budget."""
    f = np.conj(channels).T
    total = float(np.add.reduce(np.abs(f) ** 2, axis=None))
    if total == 0.0:
        raise ValueError("cannot initialize the precoder on an all-zero channel")
    return f * math.sqrt(1.0 / total)


def snr_scale(snr_db: float) -> float:
    """The amplitude s = 10^(snr_db / 20) by which a solve scales its
    channel, for the budget over the noise ``snr_db`` in dB: s^2 is that
    ratio, so the scaled problem has unit noise and a unit budget."""
    try:
        scale = 10.0 ** (snr_db / 20.0)
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:  # nan fails both comparisons
        raise ValueError(f"SNR of {snr_db} dB gives no positive finite channel scale")
    return scale


class Iterate(NamedTuple):
    """One point of the alternating solve, never changed in place: F_D, a
    pattern solve's row point (``channels_at``), the MSE weights the next v
    update is scored with, and the channel, its QR and the links' statistics
    the next step reads, formed once per change of the channel or F_D.  A
    solve's last iterate is a point ``_alternate`` can continue from."""

    f_d: np.ndarray  # (N_T, K) digital precoder
    coeffs: np.ndarray | None  # (N_T, r) row point of a pattern solve; None on a fixed channel
    w: list  # (K,) MSE weights
    h: np.ndarray  # (K, N_T) channel
    basis: tuple  # thin QR (Q, R) of h^H
    links: Links  # statistics of h F_D

    @classmethod
    def start(cls, h, f_d, coeffs=None, w=None) -> Iterate:
        """F_D on the new channel h (under ``coeffs``) with the MSE weights
        ``w``, every one at one by default, as a solve starts: the one place
        that forms a channel's QR, here with the links' statistics."""
        w = [1.0] * h.shape[0] if w is None else w
        return cls(f_d, coeffs, w, h, _qr(np.conj(h).T), link_stats(h @ f_d))


@dataclass(eq=False)
class SolverResult:
    """One solve of the v/w/F_D loop, as ``_alternate`` ends it."""

    iterate: Iterate  # the last kept iterate: F_D, row point, w, the channel h
    history: list  # one IterationRecord per kept map
    converged: bool  # the rate settled before the iteration cap
    # loop steps spent, kept or not: each plain map and each extrapolation
    # attempt, also one whose map was skipped as already rejected
    iterations: int
    snr_db: float | None = None  # budget over noise, dB; None for a refit
    coeffs: np.ndarray | None = None  # (N_T, T) patterns, isotropic if frozen; None for a refit

    @property
    def sum_rate(self) -> float:
        return self.history[-1].sum_rate


def outer_step(x: Iterate, it, weights, factors):
    """Outer iteration ``it`` from ``x``: v, w and F_D and, when ``factors``
    (``factor_ac_blocks`` of the blocks) is given, one ``update_em`` sweep
    of the row point and ``Iterate.start`` of the channel under it.  v and w
    read the same links, so one MSE vector scores both; ``weights`` is a
    list of floats.  Returns (next iterate, ``IterationRecord``)."""
    tic = time.perf_counter()
    v = update_v(x.links)
    e = mse_vector(x.links, v)
    obj_v = wmmse_objective(x.w, e, weights)
    t_v = time.perf_counter()
    w = update_w(x.links)
    obj_w = wmmse_objective(w, e, weights)
    t_w = time.perf_counter()
    f_d = update_fd(x.basis, w, v, weights)
    links = link_stats(x.h @ f_d)
    obj_fd = wmmse_objective(w, mse_vector(links, v), weights)
    t_fd = time.perf_counter()
    y, obj_em = Iterate(f_d, x.coeffs, w, x.h, x.basis, links), obj_fd
    if factors is not None:
        coeffs = update_em(factors, x.coeffs, f_d, w, v, weights)
        y = Iterate.start(channels_at(factors, coeffs), f_d, coeffs, w)
        obj_em = wmmse_objective(w, mse_vector(y.links, v), weights)
    t_em = time.perf_counter()
    rate = sum_rate(y.links, weights)
    seconds = (t_v - tic, t_w - t_v, t_fd - t_w, t_em - t_fd)
    return y, IterationRecord(it, rate, obj_em, obj_v, obj_w, obj_fd, seconds)


def step_length(norm_r, norm_u, bound) -> tuple:
    """(alpha = -min(||r|| / ||u||, bound), None where the step is plain; alpha == -bound)."""
    if not norm_r > norm_u > 0.0:  # NaN fails too
        return None, False
    alpha = max(-norm_r / norm_u, -bound)
    return (None if alpha >= -1.0 else alpha), alpha == -bound


def side_scales(a_sq, null_sq, rho_sq) -> np.ndarray:
    """Each a_n's scale: into its ball if x_2's was inside (null_sq > 0), else onto its sphere."""
    scale = np.sqrt(rho_sq / a_sq)
    return np.where(null_sq > 0.0, np.minimum(scale, 1.0), scale)


def moved_bound(bound, floor, kept) -> float:
    """The bound after a step at it: grown if kept or plain, else shrunk, not below ``floor``."""
    return bound * STEP_GROWTH if kept else max(bound / STEP_GROWTH, floor)


def keeps_start(objective_after_v, last_objective) -> bool:
    """Keep test before the map: at most the last kept objective; NaN fails."""
    return objective_after_v <= last_objective


def keeps_map(rate, last_rate) -> bool:
    """Keep test after the map: the rate beats the last kept one."""
    return rate > last_rate


def settled(rate, last_rate, tolerance) -> bool:
    """Stop test: the rate rose by at most ``tolerance`` relative to the last one, or fell."""
    return rate - last_rate <= tolerance * max(abs(last_rate), 1e-12)


def extrapolated_start(x: Iterate, inputs, factors, bound) -> tuple[Iterate, bool]:
    """Where the loop's next map starts after two plain maps: one SQUAREM
    extrapolation of F_D, with the row point where ``factors`` are given.

    With x_0, x_1 the (F_D, row point) pairs ``inputs`` into the two maps,
    x_2 = x's own, r = x_1 - x_0, u = x_2 - 2 x_1 + x_0 and alpha of
    ``step_length`` under ``bound``, x' = x_0 - 2 alpha r + alpha^2 u, with
    no DC, its F' scaled down into the unit budget when over it and each
    a_n by ``side_scales`` of x_2's ``_null_sq``.  x' carries a fresh w, so
    the map's objective after v is sum(beta) - ln 2 rate(x').  Returns (x
    itself where the step is plain, as alpha = -1 gives x_2, else x'; and
    whether alpha = -bound).  ``_alternate`` alone keeps or rejects x'."""
    (f_0, c_0), (f_1, c_1) = inputs
    r = f_1 - f_0
    u = x.f_d - 2.0 * f_1 + f_0
    norm_r, norm_u = _norm(r), _norm(u)
    if factors is not None:
        r_c, u_c = c_1 - c_0, x.coeffs - 2.0 * c_1 + c_0
        norm_r = math.hypot(norm_r, _norm(r_c))
        norm_u = math.hypot(norm_u, _norm(u_c))
    alpha, full = step_length(norm_r, norm_u, bound)
    if alpha is None:
        return x, full
    f_d = f_0 - 2.0 * alpha * r + alpha * alpha * u
    power = float(np.add.reduce(np.abs(f_d) ** 2, axis=None))
    if power > 1.0:
        f_d = f_d * math.sqrt(1.0 / power)
    if factors is None:
        start = x._replace(f_d=f_d, links=link_stats(x.h @ f_d))
    else:
        coeffs = c_0 - 2.0 * alpha * r_c + alpha * alpha * u_c
        a_sq = np.add.reduce(coeffs**2, axis=1)
        coeffs *= side_scales(a_sq, _null_sq(factors, x.coeffs), factors.rho_sq)[:, None]
        start = Iterate.start(channels_at(factors, coeffs), f_d, coeffs)
    return start._replace(w=update_w(start.links)), full


def _alternate(x: Iterate, weights, config, factors=None) -> SolverResult:
    """Maps from ``x``, with ``weights`` made a list of floats once, until
    two kept maps' rates are ``settled`` under ``config.tolerance`` or
    ``config.max_iterations`` loop steps are spent.  Each step runs
    ``outer_step`` once, from x or, after two plain maps, from
    ``extrapolated_start``'s point.  The loop alone keeps or rejects that
    point: before the map by ``keeps_start`` of its objective after v,
    formed here as ``outer_step`` forms it (acceptance 04's chain), or the
    map is not run, and after it by ``keeps_map`` of its rate.  A step not
    kept leaves no record.  The loop holds SQUAREM's step-length bound,
    STEP_BOUND_PATTERN on a pattern solve and STEP_BOUND_FIXED (none) on a
    fixed channel, moved by ``moved_bound`` after a step that used it in
    full (one the clamp made plain counts as kept), and the pairs the
    extrapolation reads, so a solve continued from an iterate starts a
    fresh cycle.  Returns the last kept iterate, the history, whether the
    rate settled and the steps spent."""
    weights = np.asarray(weights, dtype=float).tolist()
    history: list[IterationRecord] = []
    inputs = []  # the (F_D, row point) pairs into the plain maps since the last extrapolation
    bound = floor = STEP_BOUND_FIXED if factors is None else STEP_BOUND_PATTERN
    for it in range(1, config.max_iterations + 1):
        start, full = x, False
        last = history[-1] if history else None
        if len(inputs) == 2:
            (start, full), inputs = extrapolated_start(x, inputs, factors, bound), []
        if start is x:
            inputs.append((x.f_d, x.coeffs))
        kept = start is x or keeps_start(
            wmmse_objective(start.w, mse_vector(start.links, update_v(start.links)), weights),
            last.objective,
        )
        if kept:
            y, record = outer_step(start, it, weights, factors)
            kept = start is x or keeps_map(record.sum_rate, last.sum_rate)
        if full:
            bound = moved_bound(bound, floor, kept)
        if not kept:
            continue
        x = y
        history.append(record)
        if last is not None and settled(record.sum_rate, last.sum_rate, config.tolerance):
            return SolverResult(x, history, True, it)
    return SolverResult(x, history, False, config.max_iterations)


def _require_pattern_degree(truncation: int) -> None:
    """The pattern solve's check of the truncation degree: with no AC part,
    a pattern pinned at DC eta < sqrt(4 pi) misses its budget."""
    if truncation == 0:
        raise ValueError("truncation: optimizing patterns needs degree >= 1, got 0")


def run_algorithm1(
    scenario: Scenario,
    snr_db: float,
    config: SolverConfig | None = None,
    seed: int = 0,
    *,
    em_update: bool = True,
) -> SolverResult:
    """Run the alternating solver on one scenario in SNR units: on its
    EM-domain ``blocks`` times ``snr_scale(snr_db)``, for the budget over
    the noise ``snr_db`` (dB), with unit noise and a unit budget.

    Patterns start with DC pinned at eta and random AC (or isotropic when
    ``em_update`` is off, the conventional hybrid baseline); the digital
    precoder starts as the conjugate matched filter at full power.  Each
    outer iteration runs the four block updates (the frozen baseline's
    three), with an extrapolation after every two (see ``_alternate``); the
    loop stops when the relative sum-rate rise drops below the tolerance
    or the iteration budget is spent.  The blocks are lifted once per
    scenario, so one scenario serves every SNR; a pattern solve factors its
    scaled blocks' AC parts once (``factor_ac_blocks``), needs a truncation
    degree of at least 1 and runs on the row point of its start; the
    frozen baseline's channel is its DC part, sqrt(4 pi) blocks[:, :, 0].
    The result carries ``snr_db`` and ``coeffs``, its last row point completed
    (``complete_coefficients``) or the frozen baseline's isotropic stack.
    """
    scale = snr_scale(snr_db)
    if em_update:
        _require_pattern_degree(scenario.truncation)
    config = config or SolverConfig()
    n_t, blocks = scenario.geometry.n_t, scenario.blocks * scale
    if em_update:
        rng = np.random.default_rng(seed)
        drawn = initial_coefficients(n_t, scenario.truncation, config.eta, rng)
        factors = factor_ac_blocks(blocks, config.eta)
        point = (drawn[:, None, 1:] @ factors.q)[:, 0]
        h = channels_at(factors, point)
    else:
        coeffs, factors, point = isotropic_coefficients(n_t, scenario.truncation), None, None
        h = math.sqrt(FULL_SPHERE) * blocks[:, :, 0]
    result = _alternate(
        Iterate.start(h, matched_filter_precoder(h), point), scenario.weights, config, factors
    )
    if factors is not None:
        coeffs = complete_coefficients(factors, result.iterate.coeffs)
    return replace(result, coeffs=coeffs, snr_db=snr_db)


def refit_digital(
    channels: np.ndarray,
    weights,
    config: SolverConfig | None = None,
    f_init: np.ndarray | None = None,
) -> SolverResult:
    """Iterate the v/w/F_D updates on a fixed channel in SNR units (unit
    noise, unit budget), extrapolating F_D after every two maps, until the
    sum rate settles or the iteration budget is spent; the result is a
    solve's, with no coefficients in its iterate."""
    config = config or SolverConfig()
    f_d = matched_filter_precoder(channels) if f_init is None else f_init
    return _alternate(Iterate.start(channels, f_d), weights, config)
