"""Reference forms of the basis, the channel and the candidate sets, the
oracles of the batched code in ``trihybrid``.

* ``assoc_legendre`` and ``real_sph_harmonic`` evaluate one harmonic at a
  time by the textbook recurrence; ``harmonics.basis_vector`` stacks all of
  them in one sweep and must equal them bit for bit.
* ``index_of`` and ``degree_order_of`` map harmonic (u, q) to the flat
  1-based index and back.
* ``pattern_power``, ``normalize_power`` and ``sphere_quadrature`` check the
  4 pi gain-power budget by Parseval and by quadrature.
* ``direct_channel_oracle`` builds the channel without the EM-domain lift,
  from synthesized gains, to audit ``effective_channels``.
* ``sampled_pattern_set`` samples harmonic patterns onto a grid as a
  candidate set, for self-projection checks.
* ``secular_shift`` is the multipliers' safeguarded Newton iteration
  vectorized over the terms; ``wmmse._secular_shift`` runs the same steps on
  Python floats and must find the same root.
* ``sum_rate``, ``mse_vector``, ``wmmse_objective``, ``update_v``,
  ``update_w`` and ``update_fd`` are the per-user formulas on numpy arrays,
  read from the links p = H F_D themselves, in watts: the noise powers and
  the budget are their arguments.  The functions of the same names in
  ``wmmse``, which run them on Python floats from ``link_stats`` in SNR
  units, must match them at unit noise and unit budget to a relative 1e-12
  (``PER_USER_RTOL`` in ``test_wmmse``).
* ``sum_rate_loss`` is the rate a decomposition gives up, in watts:
  ``sum_rate`` of the links H F_D less that of H F_RF F_BB.
* ``solve_ac_subproblem`` is the pattern subproblem with its 2K-term
  bookkeeping (pole, cluster, range solution, noise test) on numpy arrays;
  ``wmmse.solve_ac_subproblem``, which runs it on Python floats, must give
  the same multiplier and point bit for bit where both take the secular
  root or the ball's interior minimizer.  Where either takes the hard
  case, the points agree to a relative 1e-12 plus the square root of the
  two forms' difference in the range solution's squared norm, which a
  numpy dot and a Python sum may round apart, and which the hard case's
  missing norm sqrt(rho^2 - range_sq) amplifies.
* ``row_point`` maps a stack of pattern coefficients to the row point a
  pattern solve runs on, each antenna's AC coordinates a_n alone, and
  ``complete_coefficients`` maps a row point back, with DC at eta and the
  null part along the all-ones vector's projection onto an explicit basis
  of the null space; ``wmmse.complete_coefficients`` must match it to
  rounding.
* ``alternate`` is the v/w/F_D loop, in SNR units, calling the per-user
  functions of ``wmmse`` on per-call statistics of the links and QR of
  H^H, with ``wmmse.update_em`` as the pattern update of the row point,
  and the SQUAREM extrapolation after every two maps, of F_D and of the
  row point, with its step-length bound and its rule for each antenna's
  constraint, written out on its local variables;
  ``wmmse._alternate``, which runs ``outer_step`` once per step, from an
  ``Iterate`` holding the links' statistics and the QR, each formed once
  per change, or from the point ``extrapolated_start`` forms and the loop
  itself keeps or rejects, must equal it bit for bit.
* ``check_state`` audits the invariants of a solve's result: positive MSE
  weights and the power budget of its last iterate, and the 4 pi budget
  and pinned DC of its patterns (``SolverResult.coeffs``).
  ``initial_objective`` is the objective a solve starts from, the first
  term of its monotone chain.
"""

import math
import time

import numpy as np

from trihybrid.channel import assemble_channel
from trihybrid.decomposition import HybridFactors
from trihybrid.harmonics import FULL_SPHERE, AngularGrid, _norm_factor, synthesize_gain
from trihybrid.projection import CandidatePattern, CandidatePatternSet, grid_power
from trihybrid import wmmse
from trihybrid.wmmse import (
    CLUSTER_ULPS,
    DEGENERACY_TOL,
    EPS,
    MULTIPLIER_STEPS,
    MULTIPLIER_TOL,
    IterationRecord,
)


def index_of(degree: int, order: int) -> int:
    """Flat 1-based index ``t = u**2 + u + q + 1`` of harmonic (u, q)."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if abs(order) > degree:
        raise ValueError(f"order {order} out of range for degree {degree}")
    return degree * degree + degree + order + 1


def degree_order_of(index: int) -> tuple[int, int]:
    """Inverse of :func:`index_of`: flat index t -> (degree, order)."""
    if index < 1:
        raise ValueError(f"flat index must be >= 1, got {index}")
    degree = math.isqrt(index - 1)
    order = index - 1 - degree * degree - degree
    return degree, order


def assoc_legendre(degree: int, order: int, x):
    """Associated Legendre function P_u^q(x) with Condon-Shortley phase.

    Computed by the standard (u - q)-step upward recurrence seeded at
    P_q^q(x) = (-1)**q (2q-1)!! (1 - x**2)**(q/2), stable for the degrees
    used here (U <= 10).  Accepts scalars or arrays in [-1, 1].
    """
    if order < 0 or order > degree:
        raise ValueError(f"need 0 <= order <= degree, got ({degree}, {order})")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("argument outside [-1, 1]")

    # P_q^q via the double factorial, Condon-Shortley sign included.
    pqq = np.ones_like(x)
    if order > 0:
        somx2 = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
        fact = 1.0
        for _ in range(order):
            pqq = -pqq * fact * somx2
            fact += 2.0
    if degree == order:
        return pqq if pqq.shape else float(pqq)

    pq1q = x * (2 * order + 1) * pqq  # P_{q+1}^q
    if degree == order + 1:
        return pq1q if pq1q.shape else float(pq1q)

    pm2, pm1 = pqq, pq1q
    for u in range(order + 2, degree + 1):
        p = (x * (2 * u - 1) * pm1 - (u + order - 1) * pm2) / (u - order)
        pm2, pm1 = pm1, p
    return pm1 if pm1.shape else float(pm1)


def real_sph_harmonic(degree: int, order: int, theta, phi):
    """Real orthonormal spherical harmonic Y_u^q(theta, phi).

    Three branches: sqrt(2) N P cos(q phi) for q > 0, sqrt(2) N P sin(|q| phi)
    for q < 0, and N P for q = 0, where N is the orthonormalization factor.
    """
    if abs(order) > degree:
        raise ValueError(f"order {order} out of range for degree {degree}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    aq = abs(order)
    p = assoc_legendre(degree, aq, np.cos(theta))
    n = _norm_factor(degree, aq)
    if order > 0:
        out = math.sqrt(2.0) * n * p * np.cos(order * phi)
    elif order < 0:
        out = math.sqrt(2.0) * n * p * np.sin(aq * phi)
    else:
        out = n * p * np.ones_like(phi)
    out = np.asarray(out)
    return out if out.shape else float(out)


def pattern_power(c) -> float:
    """Total pattern power ||c||**2, equal by Parseval to the sphere
    integral of the squared gain."""
    c = np.asarray(c, dtype=float)
    return float(np.dot(c.ravel(), c.ravel()))


def normalize_power(c, total: float = FULL_SPHERE):
    """Rescale ``c`` so that pattern_power(c) == total."""
    c = np.asarray(c, dtype=float)
    p = pattern_power(c)
    if p <= 0.0:
        raise ValueError("cannot normalize a zero coefficient vector")
    return c * math.sqrt(total / p)


def sphere_quadrature(f, grid: AngularGrid) -> float:
    """Weighted sum approximating the integral of f(theta, phi) over the
    sphere; ``f`` must broadcast over array angles."""
    vals = f(grid.theta[:, None], grid.phi[None, :])
    return float(np.sum(grid.weights * vals))


def direct_channel_oracle(scenario, coeffs: np.ndarray) -> np.ndarray:
    """(K, N_T) channels computed without the EM-domain lift, as the per-path
    product of gain, pattern value, and response; used to audit the
    factorization."""
    coeffs = np.asarray(coeffs, dtype=float)
    gains = [
        [synthesize_gain(coeffs[n], thetas[n], phis[n]) for n in range(len(thetas))]
        for thetas, phis in zip(scenario.thetas, scenario.phis)
    ]
    return assemble_channel(scenario.responses, scenario.path_counts, np.array(gains))


def user_rows(counts) -> list:
    """Each user's slice of the rows of a scenario's path table."""
    ends = np.cumsum(counts)
    return [slice(int(end) - count, int(end)) for count, end in zip(counts, ends)]


def sampled_pattern_set(
    coeff_rows, n_theta: int = 181, n_phi: int = 361
) -> CandidatePatternSet:
    """Sample synthesized patterns onto a grid as an in-memory candidate set.

    Audit helper for self-projection checks: samples keep their sign and are
    not renormalized, so file-schema validation (nonnegativity) does not
    apply.  Harmonic patterns on the 4 pi budget already integrate to 4 pi.
    """
    theta = np.linspace(0.0, math.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi)
    patterns = []
    for r, c in enumerate(np.atleast_2d(np.asarray(coeff_rows, float))):
        gain = synthesize_gain(c, theta[:, None], phi[None, :])
        patterns.append(
            CandidatePattern(
                name=f"sampled-{r:02d}",
                theta=theta,
                phi=phi,
                gain=gain,
                power=grid_power(theta, phi, gain),
            )
        )
    return CandidatePatternSet(patterns=tuple(patterns), normalized=False)


def sum_rate(p, weights, noise_powers) -> float:
    """Weighted sum rate of the links p, from p itself, in numpy."""
    noise_powers = np.asarray(noise_powers, dtype=float)
    if np.any(noise_powers <= 0):
        raise ValueError("noise powers must be positive")
    powers = np.abs(p) ** 2
    signal = np.diag(powers)
    interference = powers.sum(axis=1) - signal
    sinr = signal / (noise_powers + interference)
    return float(np.sum(np.asarray(weights) * np.log2(1.0 + sinr)))


def sum_rate_loss(f_d, factors: HybridFactors, channels, weights, noise_powers) -> float:
    """Sum-rate drop from replacing the digital precoder by the factor pair,
    with the channels, the precoders and the noise powers in watts."""
    full = sum_rate(channels @ f_d, weights, noise_powers)
    approx = sum_rate(channels @ (factors.f_rf @ factors.f_bb), weights, noise_powers)
    return full - approx


def mse_vector(p, v, noise_powers) -> np.ndarray:
    """Per-user MSE of the links p, from p itself, in numpy."""
    diag = p.diagonal()
    powers = np.abs(p) ** 2
    interference = powers.sum(axis=1) - powers.diagonal()
    return (
        np.abs(1.0 - v * diag) ** 2
        + np.abs(v) ** 2 * (interference + np.asarray(noise_powers, dtype=float))
    )


def wmmse_objective(w, e, weights) -> float:
    """sum_k beta_k (w_k e_k - ln w_k), in numpy."""
    w = np.asarray(w, dtype=float)
    return float(np.sum(np.asarray(weights) * (w * np.asarray(e) - np.log(w))))


def update_v(p, noise_powers) -> np.ndarray:
    """MMSE combiners of the links p, from p itself, in numpy."""
    denom = np.sum(np.abs(p) ** 2, axis=1) + np.asarray(noise_powers, dtype=float)
    return np.conj(np.diag(p)) / denom


def update_w(p, v) -> np.ndarray:
    """MSE weights of the links p, from p itself, in numpy."""
    delta = 1.0 - v * np.diag(p)
    if np.any(np.abs(delta) < DEGENERACY_TOL):
        raise RuntimeError("weight update degenerate: v_k p_kk is numerically 1")
    w = np.real(1.0 / delta)
    if np.any(w <= 0):
        raise RuntimeError("weight update produced a non-positive weight")
    return w


def update_fd(basis, w, v, weights, p_max) -> np.ndarray:
    """``wmmse.update_fd`` with the K-term bookkeeping after the eigensolve
    (clamp, spectral weights, cutoff, unconstrained power, scale) on numpy
    arrays, the multiplier from the vectorized ``secular_shift``."""
    q, r = basis
    weights = np.asarray(weights, dtype=float)
    coef = weights * w * np.abs(v) ** 2
    m = (r * coef) @ np.conj(r).T
    eigvals, u = np.linalg.eigh(m)
    eigvals = np.maximum(eigvals, 0.0)
    bt = np.conj(u).T @ (r * (weights * w * np.conj(v)))
    bt_sq = (np.abs(bt) ** 2).sum(axis=1)
    cutoff = eigvals[-1] * max(m.shape) * np.finfo(float).eps
    active = eigvals > cutoff
    power0 = float((bt_sq[active] / eigvals[active] ** 2).sum())
    if power0 <= p_max:
        scale = np.where(active, 1.0 / np.where(active, eigvals, 1.0), 0.0)
        return (q @ u) @ (scale[:, None] * bt)
    mu = secular_shift(bt_sq, eigvals, p_max, "power")
    return (q @ u) @ (bt / (eigvals + mu)[:, None])


def row_point(factors, coeffs) -> np.ndarray:
    """The row point of the (N_T, T) pattern coefficients ``coeffs``: each
    antenna's AC coordinates Q_n^T c_n^AC in the basis Q_n =
    ``factors.q[n]``, as ``wmmse.run_algorithm1`` forms its start."""
    return (coeffs[:, None, 1:] @ factors.q)[:, 0]


def complete_coefficients(factors, coeffs) -> np.ndarray:
    """The pattern coefficients of the row point ``coeffs``: DC
    ``factors.eta``, and AC Q_n a_n plus, where Q_n = ``factors.q[n]``
    leaves a null space and a_n lies inside its ball by more than
    MULTIPLIER_TOL, a null vector making up the 4 pi budget.  Its direction
    is the all-ones vector's projection onto an orthonormal basis of the
    null space, completed by a full QR of Q_n, or the projection of the
    unit vector that space is closest to when that one vanishes."""
    dim, rank = factors.q.shape[1:]
    out = np.zeros((len(coeffs), dim + 1))
    out[:, 0] = factors.eta
    rho_sq = FULL_SPHERE - factors.eta**2
    for n, (row, basis) in enumerate(zip(coeffs, factors.q)):
        out[n, 1:] = basis @ row
        missing = rho_sq - float(row @ row)
        if rank == dim or missing <= MULTIPLIER_TOL * rho_sq:
            continue
        null = np.linalg.qr(basis, mode="complete")[0][:, rank:]
        z = null @ (null.T @ np.ones(dim))
        if np.linalg.norm(z) <= 1e-8 * math.sqrt(dim):
            z = null @ null[np.argmax(np.sum(null**2, axis=1))]
        out[n, 1:] += math.sqrt(missing) * z / np.linalg.norm(z)
    return out


def alternate(h, f_d, weights, config, factors=None, coeffs=None):
    """The loop of ``wmmse._alternate`` written as one loop over local
    variables, with the same per-user functions, on per-call evaluations:
    each function reads the links' statistics from p itself, each objective
    its own MSE vector and ln w, and F_D factors H^H itself.  With
    ``factors`` (``wmmse.factor_ac_blocks`` of the blocks) and ``coeffs``,
    the row point (``row_point``), each map ends with ``wmmse.update_em``'s
    pattern sweep and the channel under the new point, the DC part
    ``factors.dc`` plus the AC part R_n^T a_n; without them the channel is
    fixed.

    After every two plain maps since the last extrapolation, with x_0, x_1
    the points going into them and x_2 the point out of them, the next map
    starts from the SQUAREM point of the three, with fresh v and w there,
    when its step length alpha = -min(||x_1 - x_0|| / ||x_2 - 2 x_1 + x_0||,
    bound) is below -1 (otherwise it is a plain map).  The bound starts at
    ``wmmse.STEP_BOUND_PATTERN`` on a pattern solve and at
    ``wmmse.STEP_BOUND_FIXED`` on a fixed channel.  After a step whose length
    is the bound, the bound is multiplied by ``wmmse.STEP_GROWTH`` when the
    step was a plain map or its map's result was kept, and divided by it,
    but not below its start, when the result was not kept.  A point is F_D
    and, on a pattern solve, the row point.  The extrapolated F_D is scaled
    into the unit budget.  Each antenna's extrapolated a is scaled onto its
    sphere ||a||^2 = 4 pi - eta^2 when x_2's a lies within MULTIPLIER_TOL of
    that sphere or no null space exists, and otherwise only when a leaves
    the ball.  That map's result is kept only when its rate beats the last
    record's and its objective after v is at most the last record's
    objective.  ``h`` is in SNR units, so the noise and the budget are 1.
    Returns (h, f_d, w, history, converged, maps), with w as an array."""
    weights = np.asarray(weights, dtype=float).tolist()

    def objective(p, v, w):
        e = wmmse.mse_vector(wmmse.link_stats(p), v)
        return wmmse.wmmse_objective(w, e, weights)

    def channels(c):
        return factors.dc + (c[:, None, :] @ factors.r)[:, 0, :].T

    def one_map(it, h, f_d, w, coeffs):
        tic = time.perf_counter()
        p = h @ f_d
        v = wmmse.update_v(wmmse.link_stats(p))
        obj_v = objective(p, v, w)
        t_v = time.perf_counter()
        w = wmmse.update_w(wmmse.link_stats(p), v)
        obj_w = objective(p, v, w)
        t_w = time.perf_counter()
        f_d = wmmse.update_fd(np.linalg.qr(np.conj(h).T), w, v, weights)
        p = h @ f_d
        obj_fd = objective(p, v, w)
        t_fd = time.perf_counter()
        if factors is None:
            obj_em = obj_fd
        else:
            coeffs = wmmse.update_em(factors, coeffs, f_d, w, v, weights)
            h = channels(coeffs)
            p = h @ f_d
            obj_em = objective(p, v, w)
        t_em = time.perf_counter()
        record = IterationRecord(
            iteration=it,
            sum_rate=wmmse.sum_rate(wmmse.link_stats(p), weights),
            objective=obj_em,
            objective_after_v=obj_v,
            objective_after_w=obj_w,
            objective_after_fd=obj_fd,
            step_seconds=(t_v - tic, t_w - t_v, t_fd - t_w, t_em - t_fd),
        )
        return h, f_d, w, coeffs, record

    def point(f, c):
        return [f] if factors is None else [f, c]

    def extrapolated(x_0, x_1, x_2, bound):
        """The SQUAREM point (F_D, row point), or None for a plain map, and
        whether the step length is the bound."""
        r = [b - a for a, b in zip(x_0, x_1)]
        u = [c - 2.0 * b + a for a, b, c in zip(x_0, x_1, x_2)]
        norm_r = math.hypot(*[float(np.linalg.norm(part)) for part in r])
        norm_u = math.hypot(*[float(np.linalg.norm(part)) for part in u])
        if not norm_r > norm_u > 0.0:
            return None, False
        length = min(norm_r / norm_u, bound)
        if length <= 1.0:  # the bound clamped the step to the plain map's
            return None, True
        alpha = -length
        x = [a - 2.0 * alpha * b + alpha * alpha * c for a, b, c in zip(x_0, r, u)]
        f_x = x[0]
        power = float(np.sum(np.abs(f_x) ** 2))
        if power > 1.0:
            f_x = f_x * math.sqrt(1.0 / power)
        if factors is None:
            return (f_x, coeffs), length == bound
        c_x = x[1]
        null = factors.q.shape[1] > factors.q.shape[2]
        rho_sq = FULL_SPHERE - factors.eta * factors.eta
        for n, own in enumerate(x_2[1]):
            a_sq = np.sum(c_x[n] ** 2)
            inside = null and rho_sq - np.sum(own**2) > MULTIPLIER_TOL * rho_sq
            if not inside or a_sq > rho_sq:
                c_x[n] *= math.sqrt(rho_sq / a_sq)
        return (f_x, c_x), length == bound

    w = [1.0] * len(weights)
    history = []
    inputs = []  # the points (F_D, row point) going into each map since the last extrapolation
    lowest = wmmse.STEP_BOUND_FIXED if factors is None else wmmse.STEP_BOUND_PATTERN
    bound = lowest
    for it in range(1, config.max_iterations + 1):
        start, at_bound = None, False
        if len(inputs) == 2:
            start, at_bound = extrapolated(
                *(point(f, c) for f, c in inputs), point(f_d, coeffs), bound
            )
            inputs = []
        if start is None:
            if at_bound:
                bound *= wmmse.STEP_GROWTH
            inputs.append((f_d, coeffs))
            h, f_d, w, coeffs, record = one_map(it, h, f_d, w, coeffs)
        else:
            f_x, c_x = start
            h_x = h if factors is None else channels(c_x)
            p_x = h_x @ f_x
            w_x = wmmse.update_w(wmmse.link_stats(p_x), wmmse.update_v(wmmse.link_stats(p_x)))
            h_y, f_y, w_y, c_y, record = one_map(it, h_x, f_x, w_x, c_x)
            last = history[-1]
            if not (record.sum_rate > last.sum_rate
                    and record.objective_after_v <= last.objective):
                if at_bound:
                    bound = max(bound / wmmse.STEP_GROWTH, lowest)
                continue
            if at_bound:
                bound *= wmmse.STEP_GROWTH
            h, f_d, w, coeffs = h_y, f_y, w_y, c_y
        history.append(record)
        if len(history) > 1 and record.sum_rate - history[-2].sum_rate <= (
            config.tolerance * max(abs(history[-2].sum_rate), 1e-12)
        ):
            return h, f_d, np.array(w), history, True, it
    return h, f_d, np.array(w), history, False, config.max_iterations


def check_state(result, eta: float, p_max: float, dc_pinned: bool = True) -> None:
    """Raise AssertionError unless the solve ``result`` (a
    ``wmmse.SolverResult``) keeps its last iterate's MSE weights positive
    and its precoder within ``p_max``, and every pattern of
    ``result.coeffs`` on the 4 pi budget, with DC at ``eta`` where
    ``dc_pinned``."""
    x = result.iterate
    if any(wk <= 0 for wk in x.w):
        raise AssertionError("MSE weights must stay positive")
    power = float(np.sum(np.abs(x.f_d) ** 2))
    if power > p_max + 1e-8:
        raise AssertionError(f"precoder power {power} exceeds budget {p_max}")
    norms = np.sum(result.coeffs**2, axis=1)
    if np.any(np.abs(norms - FULL_SPHERE) > 1e-8):
        raise AssertionError("a pattern violates the 4*pi budget")
    if dc_pinned and np.any(result.coeffs[:, 0] != eta):
        raise AssertionError("DC coefficients drifted from eta")


def initial_objective(scenario) -> float:
    """The WMMSE objective of a solve of ``scenario`` before its first
    update: at v = 0 and w = 1 every MSE is exactly 1, so the objective is
    sum_k beta_k."""
    return float(scenario.weights.sum())


def secular_shift(x_sq, shift, target, what) -> float:
    """Shift t > 0 solving sum_i x_sq_i / (shift_i + t)^2 = target, by the
    bracket, safeguard and stopping test of ``wmmse._secular_shift`` with
    every sum a numpy reduction over the terms."""
    sqrt_target = math.sqrt(target)
    lo, hi = 0.0, math.sqrt(float(x_sq.sum()) / target)
    t = hi
    for _ in range(MULTIPLIER_STEPS):
        denom = shift + t
        terms = x_sq / denom**2
        value = float(terms.sum())
        if abs(value - target) <= MULTIPLIER_TOL * target:
            return t
        if value > target:
            lo = t
        else:
            hi = t
        slope = float((terms / denom).sum())
        t += value / slope * (math.sqrt(value) - sqrt_target) / sqrt_target
        if not lo < t < hi:
            t = max(math.sqrt(lo * hi), 1e-3 * hi)
    raise RuntimeError(
        f"multiplier Newton did not converge in {MULTIPLIER_STEPS} steps: "
        f"relative {what} residual {abs(value - target) / target:.3e}"
    )


def solve_ac_subproblem(lams, vecs, dt, rho_sq, basis):
    """``wmmse.solve_ac_subproblem`` with the steps over the r <= 2K terms
    on numpy arrays: the same pole, cluster, noise test and branches, the
    range solution's squared norm as a numpy dot, and the same secular
    solver, ``wmmse._secular_shift``."""
    ball = basis.shape[0] > basis.shape[1]
    pole = min(lams[0], 0.0) if ball else lams[0]
    rounding = CLUSTER_ULPS * len(lams) * EPS
    lam_scale = float(np.abs(lams).max())
    bound = rounding * lam_scale
    shift = lams - pole
    cluster = shift <= bound
    shift[cluster] = 0.0
    rest = ~cluster
    y_range = dt[rest] / shift[rest]
    range_sq = float(y_range @ y_range)
    noise = rounding * (float(np.linalg.norm(dt)) + lam_scale * math.sqrt(range_sq))
    if range_sq <= rho_sq and np.linalg.norm(dt[cluster]) <= noise:
        if ball and -pole <= bound:
            return -0.5 * pole, -(vecs[:, rest] @ y_range)
        z = basis.T @ wmmse._cluster_direction(basis @ vecs[:, cluster])
        return -0.5 * pole, math.sqrt(rho_sq - range_sq) * z - vecs[:, rest] @ y_range
    t = wmmse._secular_shift((dt**2).tolist(), shift.tolist(), rho_sq, "norm")
    return 0.5 * (t - pole), -vecs @ (dt / (shift + t))
