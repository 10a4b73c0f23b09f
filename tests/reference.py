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
"""

import math

import numpy as np

from trihybrid.channel import UpaGeometry, assemble_channel
from trihybrid.harmonics import FULL_SPHERE, AngularGrid, _norm_factor, synthesize_gain
from trihybrid.projection import CandidatePattern, CandidatePatternSet, grid_power


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


def direct_channel_oracle(paths, geom: UpaGeometry, coeffs: np.ndarray) -> np.ndarray:
    """Channel computed without the EM-domain lift, as the per-path product
    of gain, pattern value, and response; used to audit the factorization."""
    coeffs = np.asarray(coeffs, dtype=float)
    gains = [
        [synthesize_gain(coeffs[n], p.thetas[n], p.phis[n]) for n in range(geom.n_t)]
        for p in paths
    ]
    return assemble_channel(paths, geom, np.array(gains))


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
