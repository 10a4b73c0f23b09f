"""Real spherical harmonics basis and antenna gain pattern synthesis.

Radiation patterns are represented by a real coefficient vector ``c`` of
length ``T = (U + 1)**2`` over the orthonormal real spherical harmonics up
to truncation degree ``U``.  The synthesized gain at direction
``(theta, phi)`` is the inner product ``b(theta, phi) @ c`` where ``b``
stacks the basis functions in flat-index order.

Flat indexing is 1-based in the math, ``t = u**2 + u + q + 1``; stored
arrays are 0-based, so the constant (DC) harmonic sits at ``c[0]``.

Associated Legendre functions include the Condon-Shortley phase
``(-1)**q`` inside ``assoc_legendre``; a global sign flip of a basis
function only negates its coefficient, but the convention must be fixed
for reproducibility and is tested.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

FULL_SPHERE = 4.0 * math.pi


class NonPhysicalPatternWarning(UserWarning):
    """A synthesized gain pattern dips below zero somewhere on the sphere."""


def truncation_length(degree: int) -> int:
    """Number of basis functions up to ``degree``: (U+1)**2."""
    if degree < 0:
        raise ValueError(f"truncation degree must be >= 0, got {degree}")
    return (degree + 1) ** 2


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


def _norm_factor(degree: int, order: int) -> float:
    return math.sqrt(
        (2 * degree + 1)
        / FULL_SPHERE
        * math.factorial(degree - order)
        / math.factorial(degree + order)
    )


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


def basis_vector(theta, phi, degree: int):
    """Stack Y_t(theta, phi) for t = 1..(U+1)**2 along the last axis.

    Scalars give shape (T,); array angles broadcast to (*angles, T).  One
    sweep over the order q runs the upward Legendre recurrence of
    :func:`assoc_legendre` across all degrees, seeded by P_q^q updated from
    P_{q-1}^{q-1}.  Every entry takes the same floating-point operations as
    :func:`real_sph_harmonic`, so the two agree bit for bit.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast_shapes(theta.shape, phi.shape)
    out = np.empty(shape + (truncation_length(degree),))
    x = np.cos(theta)
    somx2 = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    sqrt2 = math.sqrt(2.0)
    pqq = np.ones_like(x)
    fact = 1.0
    for q in range(degree + 1):
        if q > 0:
            pqq = -pqq * fact * somx2
            fact += 2.0
        cos_q, sin_q = np.cos(q * phi), np.sin(q * phi)
        pm2 = pm1 = None
        for u in range(q, degree + 1):
            if u == q:
                p = pqq
            elif u == q + 1:
                p = x * (2 * q + 1) * pqq
            else:
                p = (x * (2 * u - 1) * pm1 - (u + q - 1) * pm2) / (u - q)
            pm2, pm1 = pm1, p
            n = _norm_factor(u, q)
            centre = u * u + u  # 0-based index of (u, 0)
            if q == 0:
                out[..., centre] = n * p
            else:
                scaled = sqrt2 * n * p
                out[..., centre + q] = scaled * cos_q
                out[..., centre - q] = scaled * sin_q
    return out


def synthesize_gain(c, theta, phi):
    """Gain b(theta, phi)^T c of the pattern with coefficients ``c``.

    The result may be negative; positivity is audited by
    :func:`min_gain_on_grid`, not enforced here.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError(f"coefficient vector must be 1-D, got shape {c.shape}")
    degree = math.isqrt(c.size) - 1
    if truncation_length(degree) != c.size:
        raise ValueError(f"coefficient length {c.size} is not a square (U+1)**2")
    return basis_vector(theta, phi, degree) @ c


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


@dataclass(frozen=True)
class AngularGrid:
    """Full-sphere quadrature grid: Gauss-Legendre in cos(theta), uniform
    in phi, with per-node weights in steradians summing to 4 pi."""

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray  # (n_theta, n_phi)

    def __post_init__(self):
        if self.weights.shape != (self.theta.size, self.phi.size):
            raise ValueError("weight matrix shape does not match node axes")
        if abs(float(self.weights.sum()) - FULL_SPHERE) > 1e-9:
            raise ValueError("grid weights do not cover the full sphere")

    @property
    def n_nodes(self) -> int:
        return self.weights.size


def gauss_legendre_grid(n_theta: int = 64, n_phi: int = 128) -> AngularGrid:
    """Build the default quadrature grid.

    Exact for spherical polynomials of degree <= 2U+1 once
    n_theta >= U+1 and n_phi >= 2U+2.
    """
    if n_theta < 1 or n_phi < 1:
        raise ValueError("node counts must be positive")
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)  # ascending theta
    theta = np.arccos(x[order])
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    weights = np.outer(wx[order], np.full(n_phi, 2.0 * math.pi / n_phi))
    return AngularGrid(theta=theta, phi=phi, weights=weights)


def sphere_quadrature(f, grid: AngularGrid) -> float:
    """Weighted sum approximating the integral of f(theta, phi) over the
    sphere; ``f`` must broadcast over array angles."""
    vals = f(grid.theta[:, None], grid.phi[None, :])
    return float(np.sum(grid.weights * vals))


def min_gain_on_grid(c, grid: AngularGrid | None = None) -> float:
    """Minimum synthesized gain over the grid nodes.

    Emits :class:`NonPhysicalPatternWarning` when the minimum is negative;
    a fixed DC term keeps the pattern positive only if it is large enough,
    so this is an audit, never an error.
    """
    if grid is None:
        grid = gauss_legendre_grid()
    gains = synthesize_gain(np.asarray(c, dtype=float), grid.theta[:, None], grid.phi[None, :])
    gmin = float(gains.min())
    if gmin < 0.0:
        warnings.warn(
            f"pattern dips negative (min gain {gmin:.4g})", NonPhysicalPatternWarning,
            stacklevel=2,
        )
    return gmin
