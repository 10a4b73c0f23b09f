import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import (
    assoc_legendre,
    check_state,
    degree_order_of,
    index_of,
    normalize_power,
    pattern_power,
    real_sph_harmonic,
    sphere_quadrature,
)

from trihybrid import harmonics as sh
from trihybrid import wmmse

RNG = np.random.default_rng(101)
FOUR_PI = 4.0 * math.pi


def test_index_of_examples():
    assert index_of(0, 0) == 1
    assert index_of(1, -1) == 2
    assert index_of(4, 4) == 25


def test_index_of_rejects_bad_order():
    with pytest.raises(ValueError):
        index_of(1, 2)
    with pytest.raises(ValueError):
        index_of(2, -3)


@given(u=st.integers(min_value=0, max_value=12), q=st.integers(min_value=-12, max_value=12))
def test_index_bijection(u, q):
    if abs(q) > u:
        with pytest.raises(ValueError):
            index_of(u, q)
        return
    t = index_of(u, q)
    assert 1 <= t <= (u + 1) ** 2
    assert degree_order_of(t) == (u, q)


def test_flat_indices_cover_range():
    degree = 4
    ts = [index_of(u, q) for u in range(degree + 1) for q in range(-u, u + 1)]
    assert sorted(ts) == list(range(1, (degree + 1) ** 2 + 1))


def test_assoc_legendre_low_order():
    assert assoc_legendre(0, 0, 0.3) == pytest.approx(1.0)
    assert assoc_legendre(1, 0, 0.3) == pytest.approx(0.3)
    # closed form (3x^2 - 1)/2 at x = 0.5
    assert assoc_legendre(2, 0, 0.5) == pytest.approx(-0.125)


def test_assoc_legendre_condon_shortley():
    # P_1^1(0) = -1 with the Condon-Shortley phase included
    assert assoc_legendre(1, 1, 0.0) == pytest.approx(-1.0)
    # P_2^2(x) = 3 (1 - x^2)
    x = 0.3
    assert assoc_legendre(2, 2, x) == pytest.approx(3.0 * (1 - x * x))


def test_assoc_legendre_domain_errors():
    with pytest.raises(ValueError):
        assoc_legendre(2, 0, 1.5)
    with pytest.raises(ValueError):
        assoc_legendre(1, 2, 0.0)


def test_real_sph_harmonic_constant():
    for theta, phi in [(0.0, 0.0), (1.1, 2.2), (math.pi, 5.0)]:
        assert real_sph_harmonic(0, 0, theta, phi) == pytest.approx(
            1.0 / math.sqrt(FOUR_PI)
        )


def test_real_sph_harmonic_degree_one():
    # N_1^0 P_1^0(cos 0) = sqrt(3/(4 pi))
    assert real_sph_harmonic(1, 0, 0.0, 0.3) == pytest.approx(
        math.sqrt(3.0 / FOUR_PI)
    )
    # sqrt(2) N_1^1 P_1^1(0) sin(pi/2) = -sqrt(3/(4 pi)) under Condon-Shortley
    assert real_sph_harmonic(1, -1, math.pi / 2, math.pi / 2) == pytest.approx(
        -math.sqrt(3.0 / FOUR_PI)
    )


def test_basis_vector_degree_zero():
    b = sh.basis_vector(0.7, 1.3, 0)
    np.testing.assert_allclose(b, [1.0 / math.sqrt(FOUR_PI)], rtol=1e-12)


def test_basis_vector_matches_individual_harmonics():
    theta, phi = 0.9, 4.1
    b = sh.basis_vector(theta, phi, 3)
    for t in range(1, 17):
        u, q = degree_order_of(t)
        assert b[t - 1] == pytest.approx(real_sph_harmonic(u, q, theta, phi))


BASIS_ANGLES = {
    "scalar": (0.9, 4.1),
    "vector": (RNG.uniform(0.0, math.pi, 9), RNG.uniform(-7.0, 7.0, 9)),
    "broadcast": (RNG.uniform(0.0, math.pi, (5, 1)), RNG.uniform(-7.0, 7.0, (1, 7))),
    "poles": (np.array([0.0, math.pi, 0.0, math.pi]), np.array([0.0, 1.0, -2.5, 6.0])),
}


@pytest.mark.parametrize("degree", range(11))
@pytest.mark.parametrize("angles", sorted(BASIS_ANGLES))
def test_basis_vector_bit_equal_to_harmonic_stack(degree, angles):
    theta, phi = BASIS_ANGLES[angles]
    stack = np.stack(
        [
            np.broadcast_to(
                real_sph_harmonic(*degree_order_of(t), theta, phi),
                np.broadcast_shapes(np.shape(theta), np.shape(phi)),
            )
            for t in range(1, sh.truncation_length(degree) + 1)
        ],
        axis=-1,
    )
    assert np.array_equal(sh.basis_vector(theta, phi, degree), stack)


def test_basis_norm_addition_theorem():
    # ||b||^2 = (U+1)^2 / (4 pi) at any angle
    angles = RNG.uniform(size=(50, 2)) * [math.pi, 2 * math.pi]
    for degree in (1, 2, 4, 6):
        for theta, phi in angles:
            b = sh.basis_vector(theta, phi, degree)
            expected = (degree + 1) ** 2 / FOUR_PI
            assert np.dot(b, b) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("degree", [1, 2, 4, 6])
def test_gram_matrix_is_identity(degree):
    grid = sh.gauss_legendre_grid(2 * degree + 2, 4 * degree + 4)
    basis = sh.basis_vector(grid.theta[:, None], grid.phi[None, :], degree)
    flat = basis.reshape(-1, basis.shape[-1])
    w = grid.weights.reshape(-1)
    gram = flat.T @ (flat * w[:, None])
    np.testing.assert_allclose(gram, np.eye(flat.shape[-1]), atol=1e-6)


def test_synthesize_gain_isotropic():
    c = np.zeros(25)
    c[0] = math.sqrt(FOUR_PI)
    gains = sh.synthesize_gain(c, RNG.uniform(0, math.pi, 8), RNG.uniform(0, 2 * math.pi, 8))
    np.testing.assert_allclose(gains, 1.0, rtol=1e-12)


def test_synthesize_gain_single_harmonic():
    t = 7
    c = np.zeros(16)
    c[t - 1] = math.sqrt(FOUR_PI)
    u, q = degree_order_of(t)
    theta, phi = 1.0, 2.0
    assert sh.synthesize_gain(c, theta, phi) == pytest.approx(
        math.sqrt(FOUR_PI) * real_sph_harmonic(u, q, theta, phi)
    )


def test_synthesize_gain_matches_sum():
    c = RNG.standard_normal(25)
    theta, phi = 2.3, 0.4
    expected = sum(
        c[t - 1] * real_sph_harmonic(*degree_order_of(t), theta, phi)
        for t in range(1, 26)
    )
    assert sh.synthesize_gain(c, theta, phi) == pytest.approx(expected)


def test_synthesize_gain_shape_error():
    with pytest.raises(ValueError):
        sh.synthesize_gain(np.zeros(24), 0.1, 0.2)  # 24 is not a square
    with pytest.raises(ValueError, match=r"must be 1-D, got shape \(2, 9\)"):
        sh.synthesize_gain(np.zeros((2, 9)), 0.1, 0.2)


def test_negative_truncation_degree_rejected():
    with pytest.raises(ValueError, match="truncation degree must be >= 0, got -1"):
        sh.truncation_length(-1)


@pytest.mark.parametrize("n_theta, n_phi", [(0, 8), (8, 0)])
def test_grid_needs_positive_node_counts(n_theta, n_phi):
    with pytest.raises(ValueError, match="node counts must be positive"):
        sh.gauss_legendre_grid(n_theta, n_phi)


def test_pattern_power_examples():
    iso = np.zeros(25)
    iso[0] = math.sqrt(FOUR_PI)
    assert pattern_power(iso) == pytest.approx(FOUR_PI)
    assert pattern_power(np.zeros(9)) == 0.0


@pytest.mark.parametrize("degree", [1, 3, 6])
def test_parseval_identity(degree):
    c = RNG.standard_normal((degree + 1) ** 2)
    grid = sh.gauss_legendre_grid(2 * degree + 2, 4 * degree + 4)
    integral = sphere_quadrature(lambda th, ph: sh.synthesize_gain(c, th, ph) ** 2, grid)
    assert integral == pytest.approx(pattern_power(c), abs=1e-6)


def test_normalize_power_roundtrip():
    c = RNG.standard_normal(16) * 3.7
    scaled = normalize_power(c)
    assert pattern_power(scaled) == pytest.approx(FOUR_PI, abs=1e-10)
    with pytest.raises(ValueError):
        normalize_power(np.zeros(4))


def test_sphere_quadrature_orthogonality():
    grid = sh.gauss_legendre_grid(16, 32)
    assert sphere_quadrature(lambda th, ph: np.ones_like(th + ph), grid) == pytest.approx(
        FOUR_PI, abs=1e-9
    )
    assert sphere_quadrature(
        lambda th, ph: real_sph_harmonic(1, 0, th, ph) ** 2, grid
    ) == pytest.approx(1.0, abs=1e-9)
    assert sphere_quadrature(
        lambda th, ph: real_sph_harmonic(1, 0, th, ph) * real_sph_harmonic(2, 0, th, ph),
        grid,
    ) == pytest.approx(0.0, abs=1e-9)


def test_grid_weights_cover_sphere():
    grid = sh.gauss_legendre_grid()
    assert grid.weights.sum() == pytest.approx(FOUR_PI, abs=1e-9)
    assert grid.weights.shape == (64, 128)


def test_min_gain_isotropic():
    c = np.zeros(25)
    c[0] = math.sqrt(FOUR_PI)
    assert sh.min_gain_on_grid(c) == pytest.approx(1.0, rel=1e-12)


def test_min_gain_pinned_dc_only():
    eta = math.sqrt(2 * math.pi)
    c = np.zeros(25)
    c[0] = eta
    assert sh.min_gain_on_grid(c) == pytest.approx(eta / math.sqrt(FOUR_PI), rel=1e-12)


def test_min_gain_flags_negative_pattern():
    # all power on Y_1^0, which changes sign across hemispheres; the audit
    # returns the negative minimum and does not warn
    c = np.zeros(4)
    c[index_of(1, 0) - 1] = math.sqrt(FOUR_PI)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gmin = sh.min_gain_on_grid(c)
    assert gmin < 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.data())
def test_basis_norm_property(degree, data):
    theta = data.draw(st.floats(min_value=0.0, max_value=math.pi))
    phi = data.draw(st.floats(min_value=0.0, max_value=2 * math.pi))
    b = sh.basis_vector(theta, phi, degree)
    assert np.dot(b, b) == pytest.approx((degree + 1) ** 2 / FOUR_PI, abs=1e-9)


class TestPatternCoefficients:
    """A stack of patterns is an (N_T, T) array with DC in column 0, built by
    the solver's initializers and audited by ``reference.check_state``."""

    @staticmethod
    def state(coeffs):
        """A one-user iterate of the patterns ``coeffs``, at zero power."""
        n_t = coeffs.shape[0]
        return wmmse.Iterate.start(np.ones((1, n_t)), np.zeros((n_t, 1)), coeffs)

    def test_isotropic(self):
        coeffs = wmmse.isotropic_coefficients(3, 4)
        assert coeffs.shape == (3, sh.truncation_length(4))
        np.testing.assert_array_equal(coeffs[:, 0], math.sqrt(FOUR_PI))
        np.testing.assert_array_equal(coeffs[:, 1:], np.zeros((3, 24)))
        check_state(self.state(coeffs), eta=math.sqrt(FOUR_PI), p_max=1.0)

    def test_power_budget_enforced(self):
        with pytest.raises(AssertionError, match="4\\*pi budget"):
            check_state(self.state(np.ones((2, 25))), eta=1.0, p_max=1.0)

    def test_pinned_partition(self):
        eta = math.sqrt(2 * math.pi)
        rng = np.random.default_rng(3)
        coeffs = wmmse.initial_coefficients(3, 4, eta, rng)
        np.testing.assert_array_equal(coeffs[:, 0], eta)
        np.testing.assert_allclose(
            np.sum(coeffs[:, 1:] ** 2, axis=1), FOUR_PI - eta**2, atol=1e-10
        )
        check_state(self.state(coeffs), eta=eta, p_max=1.0)

    def test_pinned_rejects_bad_dc(self):
        # the eta range itself is checked by SolverConfig (test_wmmse)
        eta = math.sqrt(2 * math.pi)
        coeffs = wmmse.initial_coefficients(2, 4, eta, np.random.default_rng(4))
        with pytest.raises(AssertionError, match="DC coefficients drifted"):
            check_state(self.state(coeffs), eta=0.5 * eta, p_max=1.0)
