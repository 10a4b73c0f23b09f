"""Real spherical harmonics basis and antenna gain pattern synthesis.

Radiation patterns are represented by a real coefficient vector ``c`` of
length ``T = (U + 1)**2`` over the orthonormal real spherical harmonics up
to truncation degree ``U``.  The synthesized gain at direction
``(theta, phi)`` is the inner product ``b(theta, phi) @ c`` where ``b``
stacks the basis functions in flat-index order.

Flat indexing is 1-based in the math, ``t = u**2 + u + q + 1``; stored
arrays are 0-based, so the constant (DC) harmonic sits at ``c[0]``.

The associated Legendre functions behind the basis include the
Condon-Shortley phase ``(-1)**q``; a global sign flip of a basis function
only negates its coefficient, but the convention must be fixed for
reproducibility and is tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FULL_SPHERE = 4.0 * math.pi


def truncation_length(degree: int) -> int:
    """Number of basis functions up to ``degree``: (U+1)**2."""
    if degree < 0:
        raise ValueError(f"truncation degree must be >= 0, got {degree}")
    return (degree + 1) ** 2


def _norm_factor(degree: int, order: int) -> float:
    return math.sqrt(
        (2 * degree + 1)
        / FULL_SPHERE
        * math.factorial(degree - order)
        / math.factorial(degree + order)
    )


def basis_vector(theta, phi, degree: int):
    """Stack Y_t(theta, phi) for t = 1..(U+1)**2 along the last axis.

    Scalars give shape (T,); array angles broadcast to (*angles, T).  One
    sweep over the order q runs the upward Legendre recurrence
    (u - q) P_u^q = x (2u - 1) P_{u-1}^q - (u + q - 1) P_{u-2}^q across all
    degrees, seeded by P_q^q = -(2q - 1) sqrt(1 - x**2) P_{q-1}^{q-1}.
    Every entry takes the same floating-point operations as the
    one-harmonic-at-a-time recurrence of the test suite's reference, so the
    two agree bit for bit.
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


@dataclass(frozen=True, eq=False)
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


def min_gain_on_grid(c, grid: AngularGrid | None = None) -> float:
    """Minimum synthesized gain over the grid nodes.

    A negative minimum means the pattern is not physically realizable: a
    fixed DC term keeps it positive only if it is large enough.  This is a
    measurement; it returns the value and never warns or raises.
    """
    if grid is None:
        grid = gauss_legendre_grid()
    gains = synthesize_gain(np.asarray(c, dtype=float), grid.theta[:, None], grid.phi[None, :])
    return float(gains.min())
