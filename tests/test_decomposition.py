import math

import numpy as np
import pytest
from reference import sum_rate_loss

from trihybrid import decomposition as dec
from trihybrid import wmmse
from trihybrid.channel import ScenarioConfig, generate_scenario

P_MAX = 10 ** ((10.0 - 30.0) / 10.0)  # 10 dBm in watts
NOISE_DBM = -95.0  # the default noise
NOISE_W = 10 ** ((NOISE_DBM - 30.0) / 10.0)


def random_fd(rng, n_t=9, k=2, power=0.01):
    f = rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k))
    return f * math.sqrt(power / np.sum(np.abs(f) ** 2))


class TestPhaseProjection:
    def test_real_positive_input(self):
        out = dec.phase_projection(np.ones((4, 3)))
        np.testing.assert_allclose(out, np.full((4, 3), 0.5))

    def test_exact_modulus(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        out = dec.phase_projection(m)
        np.testing.assert_allclose(np.abs(out) ** 2, 1.0 / 9.0, rtol=0, atol=1e-12)

    def test_zero_entry_tiebreak(self):
        m = np.array([[0.0 + 0.0j], [1.0j]])
        out = dec.phase_projection(m)
        assert out[0, 0] == pytest.approx(1.0 / math.sqrt(2.0))

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        once = dec.phase_projection(m)
        np.testing.assert_allclose(dec.phase_projection(once), once, atol=1e-15)


class TestDecompose:
    def test_exact_when_representable(self):
        rng = np.random.default_rng(3)
        n_t, k = 9, 2
        phases = rng.uniform(0, 2 * math.pi, (n_t, k))
        f_d = np.exp(1j * phases) / math.sqrt(n_t)
        factors = dec.decompose(f_d, n_rf=4, rng=rng)
        assert factors.residual <= 1e-9

    def test_residual_history_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            f_d = random_fd(rng)
            factors = dec.decompose(f_d, n_rf=4, rng=rng)
            hist = factors.residual_history
            assert np.all(np.diff(hist) <= 1e-15)
            assert hist[-1] <= hist[0]

    def test_full_rf_rank_near_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f_d = random_fd(rng)
            factors = dec.decompose(f_d, n_rf=9, rng=rng)
            assert factors.residual <= 1e-6

    def test_unit_modulus_constraint_exact(self):
        rng = np.random.default_rng(6)
        factors = dec.decompose(random_fd(rng), n_rf=4, rng=rng)
        np.testing.assert_allclose(
            np.abs(factors.f_rf) ** 2, 1.0 / 9.0, rtol=0, atol=1e-12
        )

    def test_power_budget_after_rescale(self):
        rng = np.random.default_rng(7)
        p_max = 0.01
        for _ in range(10):
            f_d = random_fd(rng, power=p_max)
            factors = dec.decompose(f_d, n_rf=4, p_max=p_max, rng=rng)
            assert float(np.sum(np.abs(factors.f_rf @ factors.f_bb) ** 2)) <= p_max + 1e-8

    def test_rf_chain_count_validated(self):
        rng = np.random.default_rng(8)
        f_d = random_fd(rng)
        with pytest.raises(ValueError):
            dec.decompose(f_d, n_rf=1, rng=rng)  # below K
        with pytest.raises(ValueError):
            dec.decompose(f_d, n_rf=10, rng=rng)  # above N_T

    @pytest.mark.parametrize("n_rf", [3, 4], ids=["als", "exact"])
    @pytest.mark.parametrize("p_max", [math.nan, math.inf, 0.0, -1.0])
    def test_budget_not_positive_finite_rejected(self, n_rf, p_max):
        # nan and inf would skip the final rescale, and a negative budget
        # has no square root
        f_d = random_fd(np.random.default_rng(8))
        with pytest.raises(ValueError, match="p_max must be positive and finite"):
            dec.decompose(f_d, n_rf=n_rf, p_max=p_max)

    def test_deterministic_given_rng_seed(self):
        f_d = random_fd(np.random.default_rng(9))
        a = dec.decompose(f_d, n_rf=4, rng=np.random.default_rng(11))
        b = dec.decompose(f_d, n_rf=4, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(a.f_rf, b.f_rf)
        np.testing.assert_array_equal(a.f_bb, b.f_bb)


def exact_split_fds(rng, n_t, k):
    """F_D within the budget P_MAX for the exact split: random draws at and
    below it, one with a zero entry, and one whose largest modulus is held
    by several entries."""
    fds = [random_fd(rng, n_t, k, P_MAX * scale) for scale in (1.0, 0.5, 1e-6)]
    zero = random_fd(rng, n_t, k, P_MAX)
    zero[n_t // 2, k - 1] = 0.0
    tied = random_fd(rng, n_t, k)
    # moduli exactly equal to the largest one, also after the real scaling
    tied.flat[[0, 2, tied.size - 1]] = np.abs(tied).max() * np.array([-1.0, 1j, 1.0])
    tied *= math.sqrt(0.5 * P_MAX / np.sum(np.abs(tied) ** 2))
    return fds + [zero, tied]


class TestExactSplit:
    """With N_RF >= 2K every F_D splits exactly into unit-modulus chains and
    F_BB = beta [I_K; I_K] (Sohrabi & Yu 2016), with zero rows of F_BB for
    the extra chains; the final budget scaling leaves it within P_MAX."""

    N_T = 9

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("extra", ["2K", "2K+1", "N_T"])
    def test_exact_within_budget(self, k, extra):
        n_rf = {"2K": 2 * k, "2K+1": 2 * k + 1, "N_T": self.N_T}[extra]
        rng = np.random.default_rng(100 * k + n_rf)
        for f_d in exact_split_fds(rng, self.N_T, k):
            factors = dec.decompose(f_d, n_rf, p_max=P_MAX)
            assert factors.f_rf.shape == (self.N_T, n_rf) and factors.f_bb.shape == (n_rf, k)
            assert factors.residual <= 1e-12 * np.linalg.norm(f_d)
            np.testing.assert_array_equal(factors.residual_history, [factors.residual])
            np.testing.assert_allclose(
                np.abs(factors.f_rf) ** 2, 1.0 / self.N_T, rtol=0, atol=1e-12
            )
            assert float(np.sum(np.abs(factors.f_rf @ factors.f_bb) ** 2)) <= P_MAX
            assert not np.any(factors.f_bb[2 * k :])

    def test_all_zero_precoder(self):
        factors = dec.decompose(np.zeros((self.N_T, 2), dtype=complex), 4)
        assert factors.residual == 0.0
        np.testing.assert_allclose(np.abs(factors.f_rf) ** 2, 1.0 / self.N_T, atol=1e-15)

    def test_needs_no_rng(self):
        f_d = random_fd(np.random.default_rng(13))
        a = dec.decompose(f_d, 4, p_max=P_MAX, rng=np.random.default_rng(1))
        b = dec.decompose(f_d, 4, p_max=P_MAX)
        np.testing.assert_array_equal(a.f_rf, b.f_rf)
        np.testing.assert_array_equal(a.f_bb, b.f_bb)

    def test_als_below_twice_the_users(self):
        # K <= N_RF < 2K keeps alternating least squares, which starts from
        # random columns and is not exact
        f_d = random_fd(np.random.default_rng(14), k=3, power=P_MAX)
        a, b = (dec.decompose(f_d, 4, p_max=P_MAX, rng=np.random.default_rng(s))
                for s in (1, 2))
        assert min(a.residual, b.residual) > 1e-6 * math.sqrt(P_MAX)
        assert a.residual != b.residual


class TestSumRateLoss:
    def _channel_and_fd(self, seed):
        """A hybrid solve's channel and precoder, in watts: the unscaled
        channel under its coefficients and sqrt(P_MAX) times its precoder."""
        scenario = generate_scenario(ScenarioConfig(), seed=seed)
        res = wmmse.run_algorithm1(
            scenario, 10.0 - NOISE_DBM, wmmse.SolverConfig(max_iterations=15), seed=seed,
            em_update=False,
        )
        h = wmmse.effective_channels(scenario.blocks, res.coeffs)
        return scenario, h, math.sqrt(P_MAX) * res.iterate.f_d

    def test_zero_loss_for_exact_factorization(self):
        scenario, h, _ = self._channel_and_fd(1)
        rng = np.random.default_rng(1)
        phases = rng.uniform(0, 2 * math.pi, (9, 2))
        f_d = np.exp(1j * phases) * math.sqrt(P_MAX / 18.0)
        factors = dec.decompose(f_d, n_rf=4, p_max=P_MAX, rng=rng)
        loss = sum_rate_loss(f_d, factors, h, scenario.weights, NOISE_W)
        assert abs(loss) <= 1e-9

    def test_loss_small_at_full_rf_rank(self):
        scenario, h, f_d = self._channel_and_fd(2)
        factors = dec.decompose(f_d, n_rf=9, p_max=P_MAX, rng=np.random.default_rng(2))
        loss = sum_rate_loss(f_d, factors, h, scenario.weights, NOISE_W)
        assert abs(loss) <= 1e-3

    def test_loss_finite_on_default_pipeline(self):
        scenario, h, f_d = self._channel_and_fd(3)
        factors = dec.decompose(f_d, n_rf=4, p_max=P_MAX, rng=np.random.default_rng(3))
        loss = sum_rate_loss(f_d, factors, h, scenario.weights, NOISE_W)
        assert np.isfinite(loss)
