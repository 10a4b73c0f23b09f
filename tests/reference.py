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
* ``alternate`` is the v/w/F_D loop with per-call ``update_v``,
  ``update_w``, ``mse_vector`` and ``sum_rate`` that each read the links
  p = H F_D themselves; ``wmmse._alternate``, which forms the links'
  statistics once per change of p, must equal it bit for bit.
"""

import math
import time

import numpy as np

from trihybrid.channel import assemble_channel
from trihybrid.harmonics import FULL_SPHERE, AngularGrid, _norm_factor, synthesize_gain
from trihybrid.projection import CandidatePattern, CandidatePatternSet, grid_power
from trihybrid.wmmse import (
    DEGENERACY_TOL,
    MULTIPLIER_STEPS,
    MULTIPLIER_TOL,
    IterationRecord,
    update_fd,
    wmmse_objective,
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
    """Weighted sum rate of the links p, from p itself."""
    noise_powers = np.asarray(noise_powers, dtype=float)
    if np.any(noise_powers <= 0):
        raise ValueError("noise powers must be positive")
    powers = np.abs(p) ** 2
    signal = np.diag(powers)
    interference = powers.sum(axis=1) - signal
    sinr = signal / (noise_powers + interference)
    return float(np.sum(np.asarray(weights) * np.log2(1.0 + sinr)))


def mse_vector(p, v, noise_powers) -> np.ndarray:
    """Per-user MSE of the links p, from p itself."""
    diag = p.diagonal()
    powers = np.abs(p) ** 2
    interference = powers.sum(axis=1) - powers.diagonal()
    return (
        np.abs(1.0 - v * diag) ** 2
        + np.abs(v) ** 2 * (interference + np.asarray(noise_powers, dtype=float))
    )


def update_v(p, noise_powers) -> np.ndarray:
    """MMSE combiners of the links p, from p itself."""
    denom = np.sum(np.abs(p) ** 2, axis=1) + np.asarray(noise_powers, dtype=float)
    return np.conj(np.diag(p)) / denom


def update_w(p, v) -> np.ndarray:
    """MSE weights of the links p, from p itself."""
    delta = 1.0 - v * np.diag(p)
    if np.any(np.abs(delta) < DEGENERACY_TOL):
        raise RuntimeError("weight update degenerate: v_k p_kk is numerically 1")
    w = np.real(1.0 / delta)
    if np.any(w <= 0):
        raise RuntimeError("weight update produced a non-positive weight")
    return w


def alternate(h, f_d, weights, noise, p_max, config, pattern_step=None):
    """The v/w/F_D loop of ``wmmse._alternate``, with the same arguments and
    returns, on per-call evaluations of the links: each objective scores its
    own MSE vector and F_D factors H^H itself."""
    w = np.ones(len(weights))
    history = []
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
        f_d = update_fd(h, w, v, weights, p_max)
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
