import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import direct_channel_oracle, user_rows

from trihybrid import channel as ch
from trihybrid.harmonics import basis_vector, truncation_length

FOUR_PI = 4.0 * math.pi
GEOM = ch.UpaGeometry(n_h=3, n_v=3, spacing=0.005, wavelength=0.01)
ORIGIN = np.zeros(3)  # where the array's first element sits


def make_far_path(theta, phi, geom, gain=1.0):
    """One path's per-element (thetas, phis, response)."""
    n = geom.n_t
    return (
        np.full(n, theta),
        np.full(n, phi),
        np.full(n, gain, dtype=complex) * ch.far_field_arv(theta, phi, geom),
    )


def make_near_path(geom, source, gain=1.0, extra=0.0):
    thetas, phis, dists = ch.path_aods(geom, source, ORIGIN)
    ref = float(np.linalg.norm(np.asarray(source))) + extra
    dists = dists + extra
    return (
        thetas,
        phis,
        np.full(geom.n_t, gain, dtype=complex) * ref / dists
        * ch.near_field_arv(dists, ref, geom),
    )


def make_scenario(paths, geom, degree, counts=None, **table):
    """A drop with the given (thetas, phis, response) paths, one user by
    default; ``table`` overrides the stacked arrays."""
    thetas, phis, responses = (np.stack(column) for column in zip(*paths))
    arrays = {"thetas": thetas, "phis": phis, "responses": responses, **table}
    counts = (len(paths),) if counts is None else counts
    return ch.Scenario(
        geometry=geom, path_counts=counts, weights=np.ones(len(counts)), truncation=degree,
        **arrays,
    )


class TestGeometry:
    def test_single_element(self):
        geom = ch.UpaGeometry(1, 1, 0.005, 0.01)
        np.testing.assert_array_equal(ch.element_positions(geom), [[0.0, 0.0, 0.0]])

    def test_horizontal_major_ordering(self):
        pos = ch.element_positions(GEOM)
        # n = 5 (1-based) has i_h = 1, i_v = 1
        np.testing.assert_allclose(pos[4], [0.0, GEOM.spacing, GEOM.spacing])

    def test_positions_distinct(self):
        pos = ch.element_positions(GEOM)
        assert len({tuple(p) for p in pos}) == 9

    def test_kron_order_matches_hand_expansion(self):
        # 2x2 check: element order (0,0), (0,1), (1,0), (1,1) in (i_h, i_v)
        geom = ch.UpaGeometry(2, 2, 0.005, 0.01)
        theta, phi = 1.0, 0.7
        ph = geom.spacing * math.sin(phi) * math.sin(theta) / geom.wavelength
        pv = geom.spacing * math.cos(theta) / geom.wavelength
        expected = 0.5 * np.array(
            [
                1.0,
                np.exp(-2j * math.pi * pv),
                np.exp(-2j * math.pi * ph),
                np.exp(-2j * math.pi * (ph + pv)),
            ]
        )
        np.testing.assert_allclose(ch.far_field_arv(theta, phi, geom), expected)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="^n_h: "):
            ch.UpaGeometry(0, 1, 0.005, 0.01)
        with pytest.raises(ValueError, match="^spacing: "):
            ch.UpaGeometry(1, 1, -1.0, 0.01)


class TestArv:
    def test_broadside_far_field(self):
        a = ch.far_field_arv(math.pi / 2, 0.0, GEOM)
        np.testing.assert_allclose(a, np.full(9, 1.0 / 3.0), atol=1e-15)

    def test_two_element_endfire(self):
        geom = ch.UpaGeometry(2, 1, 0.005, 0.01)
        a = ch.far_field_arv(math.pi / 2, math.pi / 2, geom)
        expected = np.array([1.0, np.exp(-1j * math.pi)]) / math.sqrt(2.0)
        np.testing.assert_allclose(a, expected, atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        theta=st.floats(min_value=0.0, max_value=math.pi),
        phi=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_far_field_unit_norm(self, theta, phi):
        a = ch.far_field_arv(theta, phi, GEOM)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_near_field_equal_distances(self):
        arv = ch.near_field_arv(np.full(9, 100.0), 100.0, GEOM)
        np.testing.assert_allclose(arv, np.full(9, 1 / 3.0))

    def test_near_field_unit_norm(self):
        source = [3.0, 1.0, -2.0]
        _, _, dists = ch.path_aods(GEOM, source, ORIGIN)
        arv = ch.near_field_arv(dists, float(np.linalg.norm(source)), GEOM)
        assert np.linalg.norm(arv) == pytest.approx(1.0, abs=1e-12)

    def test_near_field_far_limit(self):
        # source at 1e6 wavelengths: spherical and planar wavefronts agree
        distance = 1e6 * GEOM.wavelength
        direction = np.array([1.0, 0.4, 0.2])
        source = distance * direction / np.linalg.norm(direction)
        thetas, phis, dists = ch.path_aods(GEOM, source, ORIGIN)
        far = ch.far_field_arv(thetas[0], phis[0], GEOM)
        near = ch.near_field_arv(dists, distance, GEOM)
        np.testing.assert_allclose(near, far, atol=1e-3)

    def test_path_rejects_mismatched_lengths(self):
        path = make_far_path(1.0, 0.5, GEOM)
        with pytest.raises(ValueError, match="one .P, 9. shape"):
            make_scenario([path], GEOM, 2, responses=np.ones((1, 8)))
        with pytest.raises(ValueError, match="one .P, 9. shape"):
            make_scenario([path], GEOM, 2, phis=np.zeros((1, 4)))
        with pytest.raises(ValueError, match="one .P, 9. shape"):
            make_scenario([path], GEOM, 2, thetas=np.zeros(9), phis=np.zeros(9),
                          responses=np.ones(9))

    def test_path_table_rejects_bad_counts(self):
        paths = [make_far_path(1.0, 0.5, GEOM)] * 3
        for counts in ((), (1, 1), (2, 2), (3, 0), (1, -1, 3), (1.0, 2), (True, 2), ("1", 2)):
            with pytest.raises(ValueError, match="path_counts"):
                make_scenario(paths, GEOM, 2, counts=counts)
        assert make_scenario(paths, GEOM, 2, counts=[1, 2]).path_counts == (1, 2)

    @pytest.mark.parametrize("field", ["weights"])
    @pytest.mark.parametrize("shape", [(1,), (3,), (), (2, 1)])
    def test_per_user_arrays_need_one_value_per_user(self, field, shape):
        # on the default two-user drop a length-1 array broadcast silently to
        # both users, and a length-3 one failed only inside the solve
        scenario = ch.generate_scenario(ch.ScenarioConfig(), seed=1)
        with pytest.raises(ValueError, match=r"weights: need shape \(2,\)"):
            dataclasses.replace(scenario, **{field: np.ones(shape)})

    @pytest.mark.parametrize("field", ["weights"])
    def test_per_user_arrays_must_be_positive(self, field):
        scenario = ch.generate_scenario(ch.ScenarioConfig(), seed=1)
        with pytest.raises(ValueError, match="weights must be positive"):
            dataclasses.replace(scenario, **{field: np.array([1.0, 0.0])})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weights_must_be_finite(self, bad):
        # a nan or inf weight once ran every step and returned a nan rate
        scenario = ch.generate_scenario(ch.ScenarioConfig(), seed=1)
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            dataclasses.replace(scenario, weights=np.array([bad, 1.0]))

    def test_path_table_is_a_read_only_copy(self):
        # the blocks are lifted from the table once, so a write to the table
        # would leave the solve and the projection on different channels
        paths = [make_far_path(1.0, 0.5, GEOM), make_far_path(0.3, 2.0, GEOM, gain=0.5j)]
        given = dict(zip(("thetas", "phis", "responses"), map(np.stack, zip(*paths))))
        scenario = make_scenario(paths, GEOM, 2, **given)
        blocks = scenario.blocks.copy()
        for name, array in given.items():
            table = getattr(scenario, name)
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0
            assert array.flags.writeable and not np.shares_memory(table, array)
            array[:] = 0.0  # the caller's array stays the caller's
            assert np.all(table != 0.0)
        np.testing.assert_array_equal(scenario.em_channels(), blocks)


    @pytest.mark.parametrize("field", ["weights"])
    def test_per_user_arrays_are_read_only_copies(self, field):
        # a solve reads them once, as lists: a later write by the caller must
        # not reach a drop that has passed its positivity check
        scenario = ch.generate_scenario(ch.ScenarioConfig(), seed=1)
        given = np.array([2.0, 3.0])
        held = getattr(dataclasses.replace(scenario, **{field: given}), field)
        given[0] = 0.0
        np.testing.assert_array_equal(held, [2.0, 3.0])
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0.0
        assert held.dtype == float and not np.shares_memory(held, given)


class TestPathAods:
    def test_axis_cases(self):
        geom = ch.UpaGeometry(1, 1, 0.005, 0.01)
        thetas, phis, dists = ch.path_aods(geom, [5.0, 0.0, 0.0], ORIGIN)
        assert thetas[0] == pytest.approx(math.pi / 2)
        assert phis[0] == pytest.approx(0.0)
        assert dists[0] == pytest.approx(5.0)
        thetas, _, _ = ch.path_aods(geom, [0.0, 0.0, 1.0], ORIGIN)
        assert thetas[0] == pytest.approx(0.0)

    def test_far_source_angles_agree(self):
        source = 1e6 * GEOM.wavelength * np.array([0.6, 0.6, 0.52915])
        thetas, phis, _ = ch.path_aods(GEOM, source, ORIGIN)
        assert np.ptp(thetas) < 1e-4
        assert np.ptp(phis) < 1e-4

    def test_coincident_source_rejected(self):
        with pytest.raises(ValueError):
            ch.path_aods(GEOM, [0.0, 0.0, 0.0], ORIGIN)


def per_path_lift_oracle(scenario):
    """(K, N_T, T) blocks from the flat per-path lift the path sum replaced.

    Each path contributes its (T * N_T) basis stack at the per-element
    departure angles times the path's per-element response, each repeated
    across its T-block; a user's paths are summed and scaled by
    sqrt(N_T / L).
    """
    geom, degree = scenario.geometry, scenario.truncation
    t_len = truncation_length(degree)
    users = []
    for rows in user_rows(scenario.path_counts):
        acc = sum(
            basis_vector(thetas, phis, degree).reshape(-1) * np.repeat(response, t_len)
            for thetas, phis, response in zip(
                scenario.thetas[rows], scenario.phis[rows], scenario.responses[rows]
            )
        )
        users.append(math.sqrt(geom.n_t / (rows.stop - rows.start)) * acc)
    return np.stack(users).reshape(scenario.n_users, geom.n_t, t_len)


def user_block(paths, geom, degree):
    """(N_T, T) EM-domain block of one user with ``paths``."""
    return make_scenario(paths, geom, degree).em_channels()[0]


def basis_stack(monkeypatch, paths, geom, degree):
    """(L, N_T, T) per-element gains ``em_channels`` passes to the path sum."""
    seen = []
    assemble = ch.assemble_channel
    monkeypatch.setattr(
        ch, "assemble_channel",
        lambda responses, counts, gains: (
            seen.append(gains) or assemble(responses, counts, gains)
        ),
    )
    user_block(paths, geom, degree)
    return seen[0]


class TestEmChannel:
    def test_basis_stack_single_element(self, monkeypatch):
        geom = ch.UpaGeometry(1, 1, 0.005, 0.01)
        path = make_far_path(1.2, 0.3, geom)
        np.testing.assert_allclose(
            basis_stack(monkeypatch, [path], geom, 4)[0, 0], basis_vector(1.2, 0.3, 4)
        )

    def test_basis_stack_blocks_identical_far(self, monkeypatch):
        path = make_far_path(1.2, 0.3, GEOM)
        stack = basis_stack(monkeypatch, [path], GEOM, 2)[0]
        for n in range(1, 9):
            np.testing.assert_array_equal(stack[n], stack[0])

    def test_basis_stack_block_norm(self, monkeypatch):
        path = make_near_path(GEOM, [4.0, 1.0, 2.0])
        stack = basis_stack(monkeypatch, [path], GEOM, 4)[0]
        np.testing.assert_allclose(
            np.sum(stack**2, axis=1), truncation_length(4) / FOUR_PI, atol=1e-9
        )

    def test_em_path_channel_zero_gain(self):
        path = make_far_path(1.0, 1.0, GEOM, gain=0.0)
        np.testing.assert_array_equal(user_block([path], GEOM, 2), np.zeros((9, 9)))

    def test_em_path_channel_identity_case(self):
        geom = ch.UpaGeometry(1, 1, 0.005, 0.01)
        path = make_far_path(0.8, 2.0, geom)  # single element: arv == 1
        thetas, phis, _ = path
        np.testing.assert_allclose(user_block([path], geom, 4), basis_vector(thetas, phis, 4))

    def test_em_path_channel_block_structure(self):
        path = make_near_path(GEOM, [5.0, -2.0, 1.0], gain=0.7 + 0.2j)
        thetas, phis, response = path
        h = user_block([path], GEOM, 3)
        for n in (0, 4, 8):
            expected = math.sqrt(9.0) * response[n] * basis_vector(thetas[n], phis[n], 3)
            np.testing.assert_allclose(h[n], expected, atol=1e-14)

    def test_em_user_channel_prefactor(self):
        geom = ch.UpaGeometry(1, 1, 0.005, 0.01)
        path = make_far_path(1.0, 0.5, geom)
        single = user_block([path], geom, 2)
        np.testing.assert_allclose(single, basis_vector(path[0], path[1], 2))
        double = user_block([path, path], geom, 2)
        np.testing.assert_allclose(double, math.sqrt(2.0) * single)

    def test_em_user_channel_linearity(self):
        p1 = make_far_path(1.0, 0.5, GEOM, gain=0.3 - 0.1j)
        p2 = (p1[0], p1[1], p1[2] * (2.0 + 1.0j))
        h1 = user_block([p1], GEOM, 2)
        h2 = user_block([p2], GEOM, 2)
        np.testing.assert_allclose(h2, (2.0 + 1.0j) * h1)

    def test_unequal_path_counts_split_by_user(self):
        # each user's block sums its own rows of the table, and only those
        paths = [
            make_far_path(1.0, 0.5, GEOM, gain=0.3 - 0.1j),
            make_near_path(GEOM, [5.0, -2.0, 1.0], gain=0.7 + 0.2j),
            make_far_path(2.1, 4.0, GEOM, gain=-1.2j),
        ]
        scenario = make_scenario(paths, GEOM, 3, counts=(1, 2))
        assert np.array_equal(scenario.blocks[0], user_block(paths[:1], GEOM, 3))
        assert np.array_equal(scenario.blocks[1], user_block(paths[1:], GEOM, 3))
        assert np.array_equal(scenario.blocks, per_path_lift_oracle(scenario))

    def test_empty_path_list(self):
        with pytest.raises(ValueError):
            ch.assemble_channel(np.zeros((0, 9), complex), (), np.zeros((0, 9, 9)))
        with pytest.raises(ValueError):
            ch.assemble_channel(np.zeros((0, 9), complex), (0,), np.zeros((0, 9, 9)))

    @pytest.mark.parametrize("mode", ["far", "near"])
    @pytest.mark.parametrize("degree", [0, 1, 4, 10])
    def test_blocks_equal_per_path_lift(self, mode, degree):
        # one basis_vector call per user and the one path sum give the flat
        # per-path lift's blocks bit for bit
        for seed in (1, 2, 3, 17):
            config = ch.ScenarioConfig(field_mode=mode, truncation=degree, user_radius_m=50.0)
            scenario = ch.generate_scenario(config, seed)
            blocks = scenario.em_channels()
            assert blocks.shape == (2, 9, truncation_length(degree))
            assert np.array_equal(blocks, per_path_lift_oracle(scenario))


class TestFactorization:
    def test_isotropic_far_field_matches_reduced_model(self):
        rng = np.random.default_rng(5)
        draws = [
            (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
             rng.standard_normal() + 1j * rng.standard_normal())
            for _ in range(3)
        ]
        paths = [make_far_path(theta, phi, GEOM, gain=g) for theta, phi, g in draws]
        coeffs = np.zeros((9, 25))
        coeffs[:, 0] = math.sqrt(FOUR_PI)  # unit gain everywhere
        h_em = user_block(paths, GEOM, 4)
        h = ch.effective_channels(h_em[None], coeffs)[0]
        expected = math.sqrt(9 / 3) * sum(
            g * ch.far_field_arv(theta, phi, GEOM) for theta, phi, g in draws
        )
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_zero_pattern_zeroes_element(self):
        rng = np.random.default_rng(6)
        paths = [make_near_path(GEOM, [30.0, 5.0, 2.0], gain=1.0 + 0.5j)]
        coeffs = rng.standard_normal((9, 25))
        coeffs[3] = 0.0
        h_em = user_block(paths, GEOM, 4)
        h = ch.effective_channels(h_em[None], coeffs)[0]
        assert h[3] == 0.0
        assert np.all(h[np.arange(9) != 3] != 0.0)

    def test_shape_mismatch(self):
        # T = 16 coefficients per antenna against 25-harmonic blocks
        with pytest.raises(ValueError):
            ch.effective_channels(np.zeros((1, 9, 25), dtype=complex), np.zeros((9, 16)))

    @pytest.mark.parametrize("mode", ["far", "near"])
    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_identity_against_direct_oracle(self, mode, degree):
        rng = np.random.default_rng(hash((mode, degree)) % 2**32)
        for _ in range(10):
            config = ch.ScenarioConfig(
                n_users=2, n_paths=3, field_mode=mode, truncation=degree,
                user_radius_m=50.0,
            )
            scenario = ch.generate_scenario(config, seed=int(rng.integers(2**31)))
            t_len = truncation_length(degree)
            coeffs = rng.standard_normal((9, t_len))
            blocks = scenario.em_channels()
            via_em = ch.effective_channels(blocks, coeffs)
            directs = direct_channel_oracle(scenario, coeffs)
            for k in range(2):
                direct = directs[k]
                assert np.linalg.norm(via_em[k] - direct) <= 1e-10 * np.linalg.norm(direct)


class TestScenarioGeneration:
    def test_default_dimensions(self):
        scenario = ch.generate_scenario(ch.ScenarioConfig(), seed=0)
        assert scenario.geometry.n_t == 9
        assert scenario.n_users == 2
        assert scenario.path_counts == (3, 3)
        assert scenario.thetas.shape == scenario.responses.shape == (6, 9)
        assert truncation_length(scenario.truncation) == 25
        assert scenario.em_channels().shape == (2, 9, 25)

    @pytest.mark.parametrize("field_mode", ["far", "near"])
    def test_blocks_are_the_read_only_lift(self, field_mode):
        # the drop's EM-domain channel, lifted once on construction
        scenario = ch.generate_scenario(ch.ScenarioConfig(field_mode=field_mode), seed=3)
        assert not scenario.blocks.flags.writeable
        np.testing.assert_array_equal(scenario.blocks, scenario.em_channels())
        with pytest.raises(ValueError, match="read-only"):
            scenario.blocks[0, 0, 0] = 0.0

    def test_determinism(self):
        a = ch.generate_scenario(ch.ScenarioConfig(), seed=42)
        b = ch.generate_scenario(ch.ScenarioConfig(), seed=42)
        np.testing.assert_array_equal(a.responses, b.responses)
        np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_seed_changes_draw(self):
        a = ch.generate_scenario(ch.ScenarioConfig(), seed=1)
        b = ch.generate_scenario(ch.ScenarioConfig(), seed=2)
        assert not np.allclose(a.thetas, b.thetas)

    def test_single_los_path_geometry(self):
        config = ch.ScenarioConfig(n_users=1, n_paths=1, field_mode="near")
        scenario = ch.generate_scenario(config, seed=7)
        assert scenario.path_counts == (1,)
        # the user's position, from the seed's first two draws as
        # generate_scenario makes them
        rng = np.random.default_rng(7)
        radius = config.user_radius_m * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        bs = config.bs_position
        user = [bs[0] + radius * math.cos(angle), bs[1] + radius * math.sin(angle), 0.0]
        thetas, phis, dists = ch.path_aods(scenario.geometry, user, bs)
        np.testing.assert_array_equal(scenario.thetas[0], thetas)
        np.testing.assert_array_equal(scenario.phis[0], phis)
        # spherical spreading: the amplitude falls as 1 / distance per element
        spread = np.abs(scenario.responses[0]) * dists
        np.testing.assert_allclose(spread, spread[0], rtol=1e-12)
        assert np.ptp(dists) > 0

    def test_far_paths_share_one_direction(self):
        # a far path has one angle pair at every element, and its response
        # is one complex gain times the plane-wave response at that angle
        for seed in (1, 3, 17):
            scenario = ch.generate_scenario(ch.ScenarioConfig(field_mode="far"), seed)
            for thetas, phis, response in zip(
                scenario.thetas, scenario.phis, scenario.responses
            ):
                assert np.all(thetas == thetas[0])
                assert np.all(phis == phis[0])
                ratio = response / ch.far_field_arv(thetas[0], phis[0], scenario.geometry)
                np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ch.ScenarioConfig(n_users=0)
        with pytest.raises(ValueError, match="^field_mode: must be 'far' or 'near', got 'mid'$"):
            ch.ScenarioConfig(field_mode="mid")
        with pytest.raises(ValueError, match="^truncation: must be an integer >= 0, got -1$"):
            ch.ScenarioConfig(truncation=-1)
        for bad in (dict(frequency_hz=float("nan")), dict(user_radius_m=float("inf")),
                    dict(frequency_hz=-1.0), dict(user_radius_m=0.0)):
            # each check names its own field
            (name,) = bad
            with pytest.raises(ValueError, match=f"^{name}: must be a positive finite number"):
                ch.ScenarioConfig(**bad)
        for bs in ((0.0, float("nan"), 10.0), (0.0, 10.0)):
            with pytest.raises(ValueError, match="bs_position"):
                ch.ScenarioConfig(bs_position=bs)
        for weights in ((1.0,), (1.0, 2.0, 3.0), (1.0, 0.0), (1.0, float("nan")),
                        (1.0, float("inf"))):
            with pytest.raises(ValueError, match="weights"):
                ch.ScenarioConfig(weights=weights)

    def test_config_stores_list_knobs_as_tuples_of_floats(self):
        # one stored form, whatever sequence was given: array-valued knobs
        # compare equal and hash, and a list equals the tuple it holds
        arrays = dict(weights=np.array([1.0, 2.0]), bs_position=np.zeros(3))
        config = ch.ScenarioConfig(**arrays)
        assert config == ch.ScenarioConfig(**arrays)
        assert hash(config) == hash(
            ch.ScenarioConfig(weights=(1.0, 2.0), bs_position=(0.0, 0.0, 0.0))
        )
        assert ch.ScenarioConfig(weights=[1, 2]) == ch.ScenarioConfig(weights=(1.0, 2.0))
        for value in (config.weights, config.bs_position):
            assert type(value) is tuple and {type(x) for x in value} == {float}
