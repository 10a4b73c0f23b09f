"""The solve's direct LAPACK and reduction forms against numpy's wrappers.

``wmmse._eigh`` and ``wmmse._qr`` call numpy's LAPACK gufuncs as
numpy.linalg calls them, and ``channel._norm`` forms a norm as
``np.linalg.norm`` does; the per-step sums call ``np.add.reduce`` and the
far-field response ``np.multiply.outer``.  Each must equal its numpy
counterpart bit for bit on the shapes the solve uses, so these tests
compare with ``assert_array_equal``, never within a tolerance.  The
gufuncs are private to numpy: a release that renames or changes them
fails here.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from trihybrid import wmmse
from trihybrid.channel import (
    UpaGeometry,
    _norm,
    element_positions,
    far_field_arv,
    generate_scenario,
    path_aods,
    ScenarioConfig,
)
from trihybrid.decomposition import decompose

DRAWS = 8


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hermitian(rng, k):
    """A K x K Hermitian matrix formed as ``update_fd`` forms R C R^H."""
    r = complex_normal(rng, (k, k))
    return (r * rng.uniform(0.1, 3.0, k)) @ np.conj(r).T


def assert_eigh_equal(a):
    want_values, want_vectors = np.linalg.eigh(a)
    got_values, got_vectors = wmmse._eigh(a)
    assert got_values.dtype == want_values.dtype and got_vectors.dtype == want_vectors.dtype
    assert_array_equal(got_values, want_values)
    assert_array_equal(got_vectors, want_vectors)


def assert_qr_equal(a):
    want_q, want_r = np.linalg.qr(a)
    got_q, got_r = wmmse._qr(a)
    for got, want in ((got_q, want_q), (got_r, want_r)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert_array_equal(got, want)


@pytest.mark.parametrize("k", range(1, 9))
def test_eigh_of_complex_k_by_k_is_numpys(k):
    rng = np.random.default_rng(k)
    for _ in range(DRAWS):
        assert_eigh_equal(hermitian(rng, k))


@pytest.mark.parametrize("shape", [(1, 1, 1), (9, 4, 4), (16, 8, 8), (64, 16, 16)])
def test_eigh_of_real_stacks_is_numpys(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    for _ in range(DRAWS):
        g = rng.standard_normal(shape)
        assert_eigh_equal(g @ g.transpose(0, 2, 1))


@pytest.mark.parametrize("n_t, k", [(1, 1), (4, 2), (9, 2), (16, 4), (64, 8)])
def test_qr_of_a_channel_is_numpys(n_t, k):
    # ``Iterate.start`` factors the transposed conjugate (an F-order view);
    # a C-order copy must give numpy's factors too
    rng = np.random.default_rng(n_t + k)
    for _ in range(DRAWS):
        h = complex_normal(rng, (k, n_t))
        assert_qr_equal(np.conj(h).T)
        assert_qr_equal(np.ascontiguousarray(np.conj(h).T))


@pytest.mark.parametrize("n_t, k, degree", [(1, 1, 1), (9, 2, 4), (16, 4, 4), (64, 8, 10)])
def test_qr_of_stacked_ac_blocks_is_numpys(n_t, k, degree):
    rng = np.random.default_rng(n_t * degree)
    t_len = (degree + 1) ** 2
    for _ in range(DRAWS // 2):
        columns = complex_normal(rng, (k, n_t, t_len))[:, :, 1:].transpose(1, 2, 0)
        assert_qr_equal(np.concatenate((columns.real, columns.imag), axis=2))


def test_qr_r_is_upper_triangular():
    # a tall matrix: LAPACK leaves the Householder vectors below R's diagonal
    _, r = wmmse._qr(complex_normal(np.random.default_rng(3), (9, 4)))
    assert_array_equal(np.tril(r, -1), 0.0)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(9,), (9, 2), (64, 8), (3, 64, 8)])
def test_norm_is_numpys_in_memory_order(dtype, shape):
    # the transposed draws differ between C order and memory order in about
    # half of the 64 x 8 draws, so summing in the wrong order fails here
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    for _ in range(DRAWS):
        x = rng.standard_normal(shape) if dtype is float else complex_normal(rng, shape)
        for view in (x, x.T, x[..., ::2]):
            assert _norm(view) == np.linalg.norm(view)


def test_site_sums_are_numpys():
    """The sums the solve forms with ``np.add.reduce`` and the far-field
    response's outer product, against ``np.sum`` and ``np.kron``."""
    rng = np.random.default_rng(5)
    for _ in range(DRAWS):
        p = complex_normal(rng, (4, 4))
        links = wmmse.link_stats(p)
        assert links.received == np.sum(np.abs(p) ** 2, axis=1).tolist()
        h = complex_normal(rng, (4, 16)).T  # an F-order channel
        f = np.conj(h).T
        want = f * math.sqrt(1.0 / float(np.sum(np.abs(f) ** 2)))
        assert_array_equal(wmmse.matched_filter_precoder(h), want)
        f_d = complex_normal(rng, (16, 4))
        factors = decompose(f_d, 8)
        assert factors.residual == float(np.linalg.norm(f_d - factors.f_rf @ factors.f_bb))
    geom = UpaGeometry(3, 4, 0.005, 0.01)
    for theta, phi in rng.uniform(0.0, math.pi, (DRAWS, 2)):
        # the ramps as ``far_field_arv`` forms them
        ph = geom.spacing * math.sin(phi) * math.sin(theta) / geom.wavelength
        pv = geom.spacing * math.cos(theta) / geom.wavelength
        ramp_h = np.exp(-2j * math.pi * ph * np.arange(3))
        ramp_v = np.exp(-2j * math.pi * pv * np.arange(4))
        assert_array_equal(far_field_arv(theta, phi, geom), np.kron(ramp_h, ramp_v) / math.sqrt(12))
    source = np.array([30.0, -20.0, 1.5])
    _, _, dists = path_aods(geom, source, (0.0, 0.0, 10.0))
    diff = source - (element_positions(geom) + (0.0, 0.0, 10.0))
    assert_array_equal(dists, np.linalg.norm(diff, axis=1))


def test_solve_enters_no_errstate_and_no_linalg_wrapper(monkeypatch):
    """A pattern solve and the frozen baseline reach LAPACK only through the
    gufuncs: no ``np.errstate`` is entered and no numpy.linalg wrapper runs."""
    calls = []
    enter = np.errstate.__enter__
    monkeypatch.setattr(np.errstate, "__enter__", lambda self: calls.append(self) or enter(self))
    for name in ("eigh", "qr", "norm"):
        monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(a))
    scenario = generate_scenario(ScenarioConfig(), 1)
    for em_update in (True, False):
        result = wmmse.run_algorithm1(scenario, 105.0, em_update=em_update)
        assert result.iterations > 2
    decompose(result.iterate.f_d, 4)
    assert calls == []


def test_numpys_failure_text_is_the_solves():
    with pytest.raises(np.linalg.LinAlgError) as numpy_error:
        np.linalg._linalg._raise_linalgerror_eigenvalues_nonconvergence(None, None)
    assert str(numpy_error.value) == wmmse.EIGH_FAILED


def nan_first_eigenvalue(a):
    values, vectors = np.linalg.eigh(a)
    values[..., 0] = math.nan
    return values, vectors


class TestNanEigenvalueRaises:
    """numpy.linalg raises ``LinAlgError`` where LAPACK fails and leaves NaN;
    the solve raises the same error on any NaN eigenvalue."""

    def test_update_fd(self, monkeypatch):
        rng = np.random.default_rng(7)
        h = complex_normal(rng, (2, 9))
        basis = wmmse._qr(np.conj(h).T)
        wmmse.update_fd(basis, [1.0, 2.0], [0.5 + 0.1j, 0.3j], [1.0, 1.0])
        monkeypatch.setattr(wmmse, "_eigh", nan_first_eigenvalue)
        with pytest.raises(np.linalg.LinAlgError, match=wmmse.EIGH_FAILED):
            wmmse.update_fd(basis, [1.0, 2.0], [0.5 + 0.1j, 0.3j], [1.0, 1.0])

    def test_assemble_quadratic(self, monkeypatch):
        rng = np.random.default_rng(8)
        factors = wmmse.factor_ac_blocks(complex_normal(rng, (2, 9, 25)), wmmse.SolverConfig().eta)
        args = (factors, complex_normal(rng, (9, 2)), [1.0, 2.0], [0.5 + 0.1j, 0.3j], [1.0, 1.0])
        wmmse.assemble_quadratic(*args)
        monkeypatch.setattr(wmmse, "_eigh", nan_first_eigenvalue)
        with pytest.raises(np.linalg.LinAlgError, match=wmmse.EIGH_FAILED):
            wmmse.assemble_quadratic(*args)

    def test_nan_channel_fails_its_row_with_numpys_text(self):
        # a NaN input leaves LAPACK's eigenvalues NaN without a LAPACK error
        h = np.full((2, 9), math.nan + 0j)
        with pytest.raises(np.linalg.LinAlgError, match=wmmse.EIGH_FAILED):
            wmmse.update_fd(wmmse._qr(np.conj(h).T), [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
