import base64
import copy
import dataclasses
import json
import math
import pickle
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from reference import direct_channel_oracle, sampled_pattern_set, user_rows

from trihybrid import harness as hn
from trihybrid import projection as proj
from trihybrid import wmmse
from trihybrid.channel import (
    ScenarioConfig,
    assemble_channel,
    effective_channels,
    generate_scenario,
)
from trihybrid.decomposition import decompose
from trihybrid.harmonics import FULL_SPHERE, gauss_legendre_grid, min_gain_on_grid

ETA = math.sqrt(2 * math.pi)


def write_doc(tmp_path, doc, name="patterns.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def isotropic_doc(normalize=True):
    theta = list(range(0, 181, 30))
    phi = list(range(0, 361, 45))
    return {
        "normalize": normalize,
        "patterns": [
            {
                "name": "iso",
                "theta_deg": theta,
                "phi_deg": phi,
                "gain": [[1.0] * len(phi)] * len(theta),
            }
        ],
    }


def gain_block(gain):
    """A gain in the block form: shape and base64 of little-endian float64."""
    gain = np.asarray(gain, "<f8")
    return {"shape": list(gain.shape), "base64": base64.b64encode(gain.tobytes()).decode()}


@st.composite
def sampled_gains(draw):
    """(theta_deg, phi_deg, gain) of one pattern: sorted axes and samples
    spread over many decades around a drawn 10**exponent, zeros included."""
    theta_deg = sorted(draw(st.lists(st.floats(0.0, 180.0), min_size=2, max_size=5, unique=True)))
    phi_deg = sorted(draw(st.lists(st.floats(-360.0, 360.0), min_size=2, max_size=5, unique=True)))
    exponent = draw(st.integers(-330, 308))
    n_samples = len(theta_deg) * len(phi_deg)
    samples = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=1.7e308),
                st.builds(lambda m, e: m * 10.0 ** (exponent + e),
                          st.floats(0.0, 1.0), st.integers(-20, 0)),
            ),
            min_size=n_samples, max_size=n_samples,
        )
    )
    return theta_deg, phi_deg, np.array(samples).reshape(len(theta_deg), len(phi_deg))


WRONG_VALUES = {
    "string": st.one_of(
        st.text(max_size=4), st.integers(0, 180).map(str), st.floats(0.0, 180.0).map(repr)
    ),
    "bool": st.booleans(),
    "null": st.none(),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "nested list": st.lists(st.lists(st.floats(0.0, 1.0), max_size=2), min_size=1, max_size=2),
}

# a string node and a boolean sample, which numpy converts as 90 and 1
STRING_NODE_DOC = {"patterns": [{"theta_deg": [0, "90", 180], "phi_deg": [0, 120, 240],
                                 "gain": [[1, 1, 1], [1, True, 1], [1, 1, 1]]}]}


@st.composite
def wrong_typed_docs(draw):
    """A one-pattern document from ``sampled_gains`` with one value replaced
    by a JSON value of a wrong type: the whole ``normalize``, ``patterns``,
    ``name`` or ``gain``, one axis node, one list-form sample, or one field
    of the gain in block form."""
    theta_deg, phi_deg, gain = draw(sampled_gains())
    record = {"name": "p", "theta_deg": theta_deg, "phi_deg": phi_deg, "gain": gain.tolist()}
    doc = {"normalize": True, "patterns": [record]}
    where = draw(st.sampled_from(
        ["normalize", "patterns", "name", "whole gain", "theta_deg", "phi_deg", "gain", "block"]
    ))
    valid = {"normalize": "bool", "name": "string", "whole gain": "nested list"}.get(where)
    wrong = draw(st.sampled_from([kind for kind in WRONG_VALUES if kind != valid]).flatmap(
        WRONG_VALUES.get
    ))
    if where in ("normalize", "patterns"):
        doc[where] = wrong
    elif where in ("name", "whole gain"):
        record[where.split()[-1]] = wrong
    elif where == "block":
        record["gain"] = gain_block(gain)
        record["gain"][draw(st.sampled_from(["shape", "base64"]))] = wrong
    elif where == "gain":
        row = draw(st.integers(0, len(theta_deg) - 1))
        record["gain"][row][draw(st.integers(0, len(phi_deg) - 1))] = wrong
    else:
        record[where][draw(st.integers(0, len(record[where]) - 1))] = wrong
    return doc


def list_form_doc(cset):
    """The document of a set with every gain as a nested list."""
    return {
        "normalize": cset.normalized,
        "patterns": [
            {
                "name": p.name,
                "theta_deg": np.rad2deg(p.theta).tolist(),
                "phi_deg": np.rad2deg(p.phi).tolist(),
                "gain": p.gain.tolist(),
            }
            for p in cset.patterns
        ],
    }


def path_table(rng, n_antennas, counts):
    """A path table of random angles over the sphere and random responses,
    with the fields of a ``Scenario`` that projection reads."""
    shape = (sum(counts), n_antennas)
    return types.SimpleNamespace(
        thetas=rng.uniform(0.0, math.pi, shape),
        phis=rng.uniform(-math.pi, math.pi, shape),
        responses=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        path_counts=tuple(counts),
    )


def candidate_entries(table, cset):
    """(K, N, R) channel entries of every candidate at every antenna."""
    gains = proj.candidate_gain(cset, table.thetas, table.phis)
    return assemble_channel(table.responses, table.path_counts, np.moveaxis(gains, 0, -1))


def nearest_candidates(channels, table, cset):
    """``project_antenna`` against the (K, N) ``channels`` on a path table."""
    return proj.project_antenna(candidate_entries(table, cset), np.asarray(channels))


def project_antenna_oracle(channels, table, cset):
    """Brute-force selection: for each antenna and candidate, that antenna's
    channel column from the candidate's gain at the antenna's path angles,
    kept only on a strict improvement, so ties go to the lowest index."""
    indices = []
    for n in range(table.responses.shape[1]):
        best_idx, best_cost = 0, math.inf
        for r in range(len(cset)):
            gains = np.zeros(table.responses.shape)
            gains[:, n] = candidate_gain_oracle(
                cset.patterns[r], table.thetas[:, n], table.phis[:, n]
            )
            column = assemble_channel(table.responses, table.path_counts, gains)[:, n]
            cost = sum(abs(column - channels[:, n]) ** 2)
            if cost < best_cost:
                best_idx, best_cost = r, cost
        indices.append(best_idx)
    return indices


def candidate_gain_oracle(pat, theta, phi):
    """Bilinear gain of one candidate with the wrap column appended to its
    grid, evaluated on its own."""
    ph_axis, g = pat.phi, pat.gain
    if ph_axis[-1] - ph_axis[0] < 2.0 * math.pi:
        ph_axis = np.concatenate((ph_axis, [ph_axis[0] + 2.0 * math.pi]))
        g = np.hstack([g, g[:, :1]])
    th = np.clip(np.asarray(theta, float), pat.theta[0], pat.theta[-1])
    ph = ph_axis[0] + np.mod(np.asarray(phi, float) - ph_axis[0], 2.0 * math.pi)
    ph = np.clip(ph, ph_axis[0], ph_axis[-1])
    i = np.clip(np.searchsorted(pat.theta, th, side="right") - 1, 0, pat.theta.size - 2)
    j = np.clip(np.searchsorted(ph_axis, ph, side="right") - 1, 0, ph_axis.size - 2)
    t = (th - pat.theta[i]) / (pat.theta[i + 1] - pat.theta[i])
    u = (ph - ph_axis[j]) / (ph_axis[j + 1] - ph_axis[j])
    return (
        (1 - t) * (1 - u) * g[i, j]
        + (1 - t) * u * g[i, j + 1]
        + t * (1 - u) * g[i + 1, j]
        + t * u * g[i + 1, j + 1]
    )


def projected_channels_oracle(scenario, indices, cset):
    """Channels rebuilt from one oracle gain per element per path."""
    geom = scenario.geometry
    channels = []
    for rows in user_rows(scenario.path_counts):
        h = np.zeros(geom.n_t, dtype=complex)
        for thetas, phis, response in zip(
            scenario.thetas[rows], scenario.phis[rows], scenario.responses[rows]
        ):
            g = np.array(
                [
                    candidate_gain_oracle(cset.patterns[int(indices[n])], thetas[n], phis[n])
                    for n in range(geom.n_t)
                ]
            )
            h += g * response
        channels.append(math.sqrt(geom.n_t / (rows.stop - rows.start)) * h)
    return np.stack(channels)


def random_coeffs(rng, count, t_len):
    ac = rng.standard_normal((count, t_len - 1))
    ac *= np.sqrt(FULL_SPHERE - ETA**2) / np.linalg.norm(ac, axis=1, keepdims=True)
    return np.hstack([np.full((count, 1), ETA), ac])


def mixed_grid_set(tmp_path, rng):
    """Candidates on four different grids, one of them not spanning 2 pi in
    azimuth, and one with signed samples."""
    doc = isotropic_doc()
    record = doc["patterns"][0]
    record["phi_deg"] = list(range(0, 316, 45))
    record["gain"] = rng.uniform(0.0, 2.0, (7, 8)).tolist()
    patterns = (
        proj.steered_candidate_set(count=3, n_theta=31, n_phi=61).patterns
        + proj.steered_candidate_set(count=3, n_theta=13, n_phi=25).patterns
        + proj.load_candidates(write_doc(tmp_path, doc)).patterns
        + sampled_pattern_set(random_coeffs(rng, 2, 9), n_theta=19, n_phi=37).patterns
    )
    return proj.CandidatePatternSet(patterns, normalized=False)


def duplicated_set():
    """Every candidate appears twice; the first copy must win."""
    base = proj.steered_candidate_set(count=4, n_theta=31, n_phi=61)
    return proj.CandidatePatternSet(base.patterns * 2, normalized=True)


def short_azimuth_set(tmp_path, rng):
    """Candidates on one shared grid that stops short of 2 pi in azimuth."""
    doc = isotropic_doc(normalize=False)
    record = doc["patterns"][0]
    record["phi_deg"] = list(range(0, 316, 45))
    doc["patterns"] = [
        dict(record, name=f"short-{k}", gain=rng.uniform(0.0, 2.0, (7, 8)).tolist())
        for k in range(5)
    ]
    return proj.load_candidates(write_doc(tmp_path, doc, name="short.json"))


def oracle_set(which, tmp_path, rng):
    if which == "steered":
        return proj.steered_candidate_set(count=16, n_theta=31, n_phi=61)
    if which == "short":
        return short_azimuth_set(tmp_path, rng)
    if which == "mixed":
        return mixed_grid_set(tmp_path, rng)
    return duplicated_set()


class TestProjectionOracle:
    @pytest.mark.parametrize("which", ["steered", "mixed", "duplicated"])
    def test_project_antenna_matches_oracle(self, which, tmp_path):
        rng = np.random.default_rng(11)
        cset = oracle_set(which, tmp_path, rng)
        for _ in range(20):
            table = path_table(rng, 5, (2, 4))
            channels = direct_channel_oracle(table, random_coeffs(rng, 5, 9))
            expected = project_antenna_oracle(channels, table, cset)
            entries = candidate_entries(table, cset)
            assert proj.project_antenna(entries, channels).tolist() == expected
            # each antenna is matched on its own entries alone
            assert proj.project_antenna(entries[:, :1], channels[:, :1])[0] == expected[0]
            if which == "duplicated":
                assert max(expected) < 4

    @pytest.mark.parametrize("which", ["steered", "mixed", "duplicated"])
    @pytest.mark.parametrize("field_mode", ["far", "near"])
    def test_apply_projection_matches_oracle(self, which, field_mode, tmp_path):
        rng = np.random.default_rng(12)
        cset = oracle_set(which, tmp_path, rng)
        scenario, result = solve_small(9, field_mode=field_mode)
        scale = wmmse.snr_scale(result.snr_db)  # the solve's channel is scaled by it
        for trial in range(3):
            if trial:  # the solved patterns first, then random ones
                coeffs = random_coeffs(rng, 4, 9)
                channels = effective_channels(scenario.blocks * scale, coeffs)
                iterate = wmmse.Iterate.start(channels, result.iterate.f_d)
                result = dataclasses.replace(result, iterate=iterate, coeffs=coeffs)
            projected = proj.apply_projection(result, scenario, cset, refit=False)
            # the oracles work on the unscaled blocks
            h = effective_channels(scenario.blocks, result.coeffs)
            expected = project_antenna_oracle(h, scenario, cset)
            assert projected.indices.tolist() == expected
            np.testing.assert_array_equal(
                projected.channels, scale * projected_channels_oracle(scenario, expected, cset)
            )

    @pytest.mark.parametrize(
        "which, grids", [("steered", 1), ("short", 1), ("mixed", 4), ("duplicated", 1)]
    )
    def test_candidate_gain_matches_oracle(self, which, grids, tmp_path):
        rng = np.random.default_rng(13)
        cset = oracle_set(which, tmp_path, rng)
        assert len(cset.grids) == grids
        # inclinations past both poles, azimuths over several turns
        thetas = rng.uniform(-0.2, math.pi + 0.2, (5, 6))
        phis = rng.uniform(-3 * math.pi, 3 * math.pi, (5, 6))
        gains = proj.candidate_gain(cset, thetas, phis)
        oracle = np.stack([candidate_gain_oracle(p, thetas, phis) for p in cset.patterns])
        np.testing.assert_array_equal(gains, oracle)


class TestLoader:
    def test_isotropic_pattern(self, tmp_path):
        cset = proj.load_candidates(write_doc(tmp_path, isotropic_doc()))
        assert len(cset) == 1
        assert cset.patterns[0].power == pytest.approx(FULL_SPHERE)
        np.testing.assert_allclose(cset.patterns[0].gain, 1.0, rtol=1e-9)

    def test_normalize_flag_off(self, tmp_path):
        doc = isotropic_doc(normalize=False)
        doc["patterns"][0]["gain"] = [[2.0] * 9] * 7
        cset = proj.load_candidates(write_doc(tmp_path, doc))
        assert not cset.normalized
        assert cset.patterns[0].power == pytest.approx(4 * FULL_SPHERE)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_all_zero_pattern_loads_only_unnormalized(self, normalize):
        # the docs once said an all-zero pattern never loads; unnormalized
        # its samples load as stored, with power 0
        doc = isotropic_doc(normalize)
        doc["patterns"][0]["gain"] = [[0.0] * 9] * 7
        data = json.dumps(doc).encode()
        if normalize:
            with pytest.raises(proj.PatternLoadError, match=r"patterns\[0\]\.gain: zero pattern"):
                proj.load_candidates("doc", data)
        else:
            pat = proj.load_candidates("doc", data).patterns[0]
            assert pat.power == 0.0 and not np.any(pat.gain)

    @pytest.mark.parametrize("field", ["theta_deg", "phi_deg"])
    def test_axis_with_one_node_rejected(self, field):
        doc = isotropic_doc()
        doc["patterns"][0][field] = [90]
        with pytest.raises(proj.PatternLoadError, match=rf"{field}: need .* at least 2 nodes"):
            proj.load_candidates("doc", json.dumps(doc).encode())

    def test_inclination_beyond_180_rejected(self):
        doc = isotropic_doc()
        doc["patterns"][0]["theta_deg"][-1] = 181
        with pytest.raises(proj.PatternLoadError, match=r"theta_deg: .*\[0, 180\]"):
            proj.load_candidates("doc", json.dumps(doc).encode())

    def test_empty_pattern_list_rejected(self):
        with pytest.raises(proj.PatternLoadError, match="doc: empty pattern list"):
            proj.load_candidates("doc", json.dumps({"patterns": []}).encode())

    def test_descending_theta_rejected(self, tmp_path):
        doc = isotropic_doc()
        doc["patterns"][0]["theta_deg"] = list(reversed(doc["patterns"][0]["theta_deg"]))
        with pytest.raises(proj.PatternLoadError, match=r"patterns\[0\]\.theta_deg"):
            proj.load_candidates(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "field, index, value",
        [("theta_deg", 1, float("nan")), ("phi_deg", 1, float("nan")),
         ("phi_deg", -1, float("inf"))],
        ids=["nan-theta", "nan-phi", "inf-phi"],
    )
    def test_non_finite_axis_node_rejected(self, tmp_path, field, index, value):
        # NaN compares false with everything, so the ascending check alone
        # passes it, and an inf last node is ascending
        doc = isotropic_doc()
        doc["patterns"][0][field][index] = value
        with pytest.raises(proj.PatternLoadError, match=rf"patterns\[0\]\.{field}: .*finite"):
            proj.load_candidates(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "phi_deg", [[0, 180, 360, 540], [0, 360, 720], [-180, 0, 180.001]],
        ids=["540", "720", "just-over"],
    )
    def test_azimuth_span_over_360_rejected(self, tmp_path, phi_deg):
        # lookup wraps at 360 degrees while the power quadrature integrates
        # the whole axis, so a wider axis loaded with wrong gains: a constant
        # pattern on [0, 180, 360, 540] looked up at 0.816 instead of 1
        doc = isotropic_doc()
        doc["patterns"][0]["phi_deg"] = phi_deg
        doc["patterns"][0]["gain"] = [[1.0] * len(phi_deg)] * 7
        with pytest.raises(proj.PatternLoadError, match=r"patterns\[0\]\.phi_deg: .*360"):
            proj.load_candidates(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("phi_deg", [[0, 120, 240, 360], [-180, 0, 180]])
    def test_azimuth_span_of_exactly_360_loads(self, tmp_path, phi_deg):
        doc = isotropic_doc()
        doc["patterns"][0]["phi_deg"] = phi_deg
        doc["patterns"][0]["gain"] = [[1.0] * len(phi_deg)] * 7
        cset = proj.load_candidates(write_doc(tmp_path, doc))
        phis = np.linspace(-math.pi, 3 * math.pi, 17)
        np.testing.assert_allclose(proj.candidate_gain(cset, 1.0, phis)[0], 1.0, rtol=1e-12)

    @pytest.mark.parametrize("value", ["false", 0, None], ids=["string", "zero", "null"])
    def test_normalize_must_be_a_json_boolean(self, tmp_path, value):
        doc = isotropic_doc()
        doc["normalize"] = value
        with pytest.raises(proj.PatternLoadError, match="normalize: must be true or false"):
            proj.load_candidates(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("level", [1e-160, 1e-170, 1e200, 1e300])
    def test_constant_pattern_at_any_representable_scale_loads_as_unit_gain(self, level):
        # the squared samples under- or overflow; before, 1e-160 loaded with
        # infinite gains, 1e200 as an all-zero pattern and 1e-170 not at all
        doc = isotropic_doc()
        doc["patterns"][0]["gain"] = [[level] * 9] * 7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cset = proj.load_candidates("doc", json.dumps(doc).encode())
        unit = proj.load_candidates("doc", json.dumps(isotropic_doc()).encode())
        np.testing.assert_allclose(cset.patterns[0].gain, unit.patterns[0].gain, rtol=1e-12)
        assert cset.patterns[0].power == FULL_SPHERE

    @pytest.mark.parametrize("field", ["theta_deg", "phi_deg"])
    def test_nodes_that_coincide_in_radians_rejected(self, field):
        # 5e-324 degrees is 0 radians: the weights or the lookup divided 0 by 0
        doc = isotropic_doc()
        doc["patterns"][0][field][0:2] = [0.0, 5e-324]
        with pytest.raises(proj.PatternLoadError, match=f"{field}: .*strictly ascending"):
            proj.load_candidates("doc", json.dumps(doc).encode())

    @pytest.mark.parametrize("level", [1e-310, 5e-324])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_pattern_without_a_finite_power_or_scale_rejected(self, level, normalize):
        # normalized, a subnormal maximum needs a scale above the float range
        doc = isotropic_doc(normalize)
        doc["patterns"][0]["gain"] = [[level] * 9] * 7
        if not normalize:
            doc["patterns"][0]["gain"][3][4] = 1e200  # its square overflows
        with pytest.raises(proj.PatternLoadError, match=r"patterns\[0\]\.gain: samples too"):
            proj.load_candidates("doc", json.dumps(doc).encode())

    def test_scale_in_range_is_the_power_formula(self):
        # a pattern whose squares stay in range keeps the scale it had
        gain = np.random.default_rng(4).uniform(0.0, 3.0, (7, 9))
        doc = isotropic_doc()
        doc["patterns"][0]["gain"] = gain.tolist()
        pat = proj.load_candidates("doc", json.dumps(doc).encode()).patterns[0]
        scale = math.sqrt(FULL_SPHERE / proj.grid_power(pat.theta, pat.phi, gain))
        np.testing.assert_array_equal(pat.gain, gain * scale)

    @settings(max_examples=500, deadline=None)
    @given(sampled=sampled_gains(), block=st.booleans())
    # the pole row has no quadrature weight, so the scale, about 1.4e18,
    # comes from the 1e-18 sample alone and lifts the pole's samples to
    # 1.34e154, whose squares overflow
    @example(
        sampled=(
            [0.0, 1.0353996866939073e-209],
            [0.0, 1.0],
            np.array([[0.0, 9.480751908109178e135], [0.0, 1e-18]]),
        ),
        block=False,
    )
    def test_normalized_load_is_finite_with_power_four_pi_or_rejected(self, sampled, block):
        # samples spread over many decades, zeros included, on any axes, in
        # either encoding
        theta_deg, phi_deg, gain = sampled
        doc = {"patterns": [{
            "theta_deg": theta_deg,
            "phi_deg": phi_deg,
            "gain": gain_block(gain) if block else gain.tolist(),
        }]}
        angles = np.random.default_rng(gain.size).uniform(0.0, 2.0 * math.pi, (2, 16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                cset = proj.load_candidates("doc", json.dumps(doc).encode())
            except proj.PatternLoadError:
                return
            pat = cset.patterns[0]
            power = proj.grid_power(pat.theta, pat.phi, pat.gain)
            looked_up = proj.candidate_gain(cset, 0.5 * angles[0], angles[1])
        assert np.all(np.isfinite(pat.gain)) and np.all(pat.gain >= 0)
        assert power == pytest.approx(FULL_SPHERE, rel=1e-12)
        assert np.all(np.isfinite(looked_up))

    @settings(max_examples=500, deadline=None)
    @given(doc=wrong_typed_docs())
    @example(doc=STRING_NODE_DOC)
    def test_wrong_json_types_rejected(self, doc):
        # numpy reads "90" and true as numbers: such a file once loaded
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(proj.PatternLoadError):
                proj.load_candidates("doc", json.dumps(doc).encode())

    def test_deeply_nested_document_rejected(self):
        # the parser recursed once per level and escaped as a RecursionError
        data = '{"patterns": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(proj.PatternLoadError, match="nested too deeply"):
            proj.load_candidates("doc", data.encode())

    def test_pole_samples_whose_power_overflows_rejected(self):
        # two adjacent pole samples whose scaled squares are finite but whose
        # sum in the quadrature overflows: the stored power would be nan
        doc = {"patterns": [{
            "theta_deg": [0.0, 1.0353996866939073e-209],
            "phi_deg": [0.0, 1.0, 2.0],
            "gain": [[0.0, 6.95e134, 6.95e134], [0.0, 1e-18, 0.0]],
        }]}
        with pytest.raises(proj.PatternLoadError, match=r"patterns\[0\]\.gain: samples too"):
            proj.load_candidates("doc", json.dumps(doc).encode())

    def test_negative_gain_rejected(self, tmp_path):
        doc = isotropic_doc()
        doc["patterns"][0]["gain"][2][3] = -0.1
        with pytest.raises(proj.PatternLoadError, match="negative"):
            proj.load_candidates(write_doc(tmp_path, doc))

    def test_missing_field_rejected(self, tmp_path):
        doc = isotropic_doc()
        del doc["patterns"][0]["phi_deg"]
        with pytest.raises(proj.PatternLoadError, match="phi_deg"):
            proj.load_candidates(write_doc(tmp_path, doc))

    def test_shape_mismatch_rejected(self, tmp_path):
        doc = isotropic_doc()
        doc["patterns"][0]["gain"] = [[1.0] * 3] * 2
        with pytest.raises(proj.PatternLoadError, match="shape"):
            proj.load_candidates(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "field, value",
        [("gain", [[1.0] * 9] * 6 + [[1.0] * 8]), ("theta_deg", ["a", 90]),
         ("theta_deg", [0, 30, "60", 90, 120, 150, 180]),
         ("gain", [[1.0] * 9] * 6 + [[1.0] * 8 + [True]]), ("name", {"id": 1})],
    )
    def test_non_numeric_samples_rejected(self, tmp_path, field, value):
        doc = isotropic_doc()
        doc["patterns"][0][field] = value
        with pytest.raises(proj.PatternLoadError, match=rf"patterns\[0\]\.{field}"):
            proj.load_candidates(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "patterns, where",
        [(5, "patterns"), ([5], r"patterns\[0\]"), (["x"], r"patterns\[0\]"),
         ([None], r"patterns\[0\]")],
        ids=["number", "list-of-number", "list-of-string", "list-of-null"],
    )
    def test_patterns_not_a_list_of_objects_rejected(self, tmp_path, patterns, where):
        doc = {"patterns": patterns}
        with pytest.raises(proj.PatternLoadError, match=rf"{where}: must be a"):
            proj.load_candidates(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("level", ["document", "pattern", "block"])
    def test_unknown_field_rejected_by_name(self, tmp_path, level):
        # a misspelt "normalise" once loaded with normalize's default: a
        # constant gain of 2 came back normalized to 1
        doc = isotropic_doc()
        del doc["normalize"]
        record = doc["patterns"][0]
        record["gain"] = gain_block(np.full((7, 9), 2.0))
        {"document": doc, "pattern": record, "block": record["gain"]}[level]["normalise"] = False
        with pytest.raises(proj.PatternLoadError, match="unknown field.*normalise"):
            proj.load_candidates(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "field, value, message",
        [("normalize", 3, "normalize: must be true or false"),
         ("gain", [[1.0] * 9] * 6 + [[1.0] * 8 + [-1.0]], r"patterns\[0\]\.gain: negative sample")],
        ids=["document", "record"],
    )
    def test_errors_name_the_file(self, tmp_path, field, value, message):
        # a pattern's errors once left the file out
        doc = isotropic_doc()
        (doc if field == "normalize" else doc["patterns"][0])[field] = value
        path = write_doc(tmp_path, doc)
        with pytest.raises(proj.PatternLoadError) as err:
            proj.load_candidates(path)
        assert str(err.value).startswith(f"{path}: ")
        assert re.search(message, str(err.value))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"patterns": [', encoding="utf-8")
        with pytest.raises(proj.PatternLoadError, match="line"):
            proj.load_candidates(path)

    @pytest.mark.parametrize(
        "data", [b"\xff\xfe{}", json.dumps(isotropic_doc()).encode("utf-16")]
    )
    def test_not_utf8_rejected(self, tmp_path, data):
        path = tmp_path / "utf16.json"
        path.write_bytes(data)
        with pytest.raises(proj.PatternLoadError, match="not UTF-8 text"):
            proj.load_candidates(path)

    def test_gains_stored_once_per_grid(self, tmp_path):
        rng = np.random.default_rng(14)
        cset = mixed_grid_set(tmp_path, rng)
        for grid in cset.grids:
            for k, r in enumerate(grid.members):
                pat = cset.patterns[r]
                assert pat.gain.base is grid.gains
                np.testing.assert_array_equal(pat.gain, grid.gains[k])
                assert pat.theta is grid.theta and pat.phi is grid.phi

    def test_compared_and_hashed_by_identity(self):
        # fields hold arrays, which have no single truth value to compare by
        first, second = proj.steered_candidate_set(2), proj.steered_candidate_set(2)
        for a, b in (
            (first, second),
            (first.patterns[0], second.patterns[0]),
            (first.grids[0], second.grids[0]),
        ):
            assert a == a and a != b
            assert hash(a) == hash(a)
            assert len({a, a, b}) == 2

    @pytest.mark.parametrize("builder", ["file", "steered", "sampled", "memory", "pickled"])
    def test_arrays_read_only(self, builder, tmp_path):
        rng = np.random.default_rng(15)
        if builder == "file":
            cset = proj.load_candidates(write_doc(tmp_path, isotropic_doc()))
        elif builder == "steered":
            cset = proj.steered_candidate_set(count=3, n_theta=13, n_phi=25)
        elif builder == "sampled":
            cset = sampled_pattern_set(random_coeffs(rng, 2, 9), n_theta=13, n_phi=25)
        elif builder == "memory":
            cset = mixed_grid_set(tmp_path, rng)
        else:  # as a pool worker receives it under a spawning start method
            original = mixed_grid_set(tmp_path, rng)
            cset = pickle.loads(pickle.dumps(original))
            for a, b in zip(original.grids, cset.grids, strict=True):
                np.testing.assert_array_equal(a.gains, b.gains)
        arrays = [a for g in cset.grids for a in (g.theta, g.phi, g.gains)]
        arrays += [a for p in cset.patterns for a in (p.theta, p.phi, p.gain)]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_gain_off_its_grid_rejected(self):
        # stacking must not broadcast a gain of the wrong shape over its grid
        pat = proj.steered_candidate_set(count=1, n_theta=13, n_phi=25).patterns[0]
        short = dataclasses.replace(pat, gain=pat.gain[:1])
        with pytest.raises(ValueError, match="gain shape"):
            proj.CandidatePatternSet((pat, short), normalized=True)

    def test_synthetic_eight_pattern_set(self):
        cset = proj.steered_candidate_set(count=8)
        assert len(cset) == 8
        for pat in cset.patterns:
            assert np.all(pat.gain >= 0)
            assert pat.power == pytest.approx(FULL_SPHERE)


class TestCandidateGain:
    def test_grid_node_exact(self):
        rng = np.random.default_rng(1)
        theta = np.linspace(0, math.pi, 5)
        phi = np.linspace(0, 2 * math.pi, 9, endpoint=False)
        gain = rng.uniform(0.5, 2.0, (5, 9))
        pat = proj.CandidatePattern("t", theta, phi, gain, proj.grid_power(theta, phi, gain))
        cset = proj.CandidatePatternSet((pat,), normalized=False)
        for i in (0, 2, 4):
            for j in (0, 3, 8):
                assert proj.candidate_gain(cset, theta[i], phi[j])[0] == pytest.approx(
                    gain[i, j]
                )

    def test_isotropic_everywhere(self, tmp_path):
        cset = proj.load_candidates(write_doc(tmp_path, isotropic_doc()))
        rng = np.random.default_rng(2)
        for _ in range(10):
            th, ph = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            val = proj.candidate_gain(cset, th, ph)[0]
            assert val == pytest.approx(1.0, rel=1e-9)

    def test_bilinear_midpoint(self):
        theta = np.array([math.pi / 3, 2 * math.pi / 3])
        phi = np.array([0.0, math.pi])
        gain = np.array([[1.0, 1.0], [3.0, 3.0]])  # varies along theta only
        pat = proj.CandidatePattern("m", theta, phi, gain, 1.0)
        cset = proj.CandidatePatternSet((pat,), normalized=False)
        mid = proj.candidate_gain(cset, math.pi / 2, math.pi / 2)[0]
        assert mid == pytest.approx(2.0)

    def test_azimuth_wraparound(self):
        theta = np.array([0.0, math.pi])
        phi = np.deg2rad([0.0, 90.0, 180.0, 270.0])
        gain = np.tile([1.0, 2.0, 3.0, 4.0], (2, 1))
        pat = proj.CandidatePattern("w", theta, phi, gain, 1.0)
        cset = proj.CandidatePatternSet((pat,), normalized=False)
        # 315 deg sits halfway between the 270-deg node and the wrapped 0-deg node
        assert proj.candidate_gain(cset, 1.0, np.deg2rad(315.0))[0] == pytest.approx(2.5)
        # theta clamps to the pole rows
        assert proj.candidate_gain(cset, -0.1, 0.0)[0] == pytest.approx(1.0)


class TestProjectAntenna:
    def test_exact_member_selected(self):
        rng = np.random.default_rng(3)
        coeffs = []
        for _ in range(4):
            ac = rng.standard_normal(8)
            ac *= math.sqrt(FULL_SPHERE - ETA**2) / np.linalg.norm(ac)
            coeffs.append(np.concatenate(([ETA], ac)))
        cset = sampled_pattern_set(np.stack(coeffs), n_theta=181, n_phi=361)
        table = path_table(rng, 1, (3, 3))
        for target in range(4):
            channels = direct_channel_oracle(table, [coeffs[target]])
            assert nearest_candidates(channels, table, cset)[0] == target

    def test_single_candidate(self):
        cset = proj.steered_candidate_set(count=1)
        table = path_table(np.random.default_rng(5), 1, (1,))
        assert nearest_candidates([[1.0 + 2.0j]], table, cset)[0] == 0

    def test_matches_brute_force_rescan(self):
        rng = np.random.default_rng(4)
        cset = proj.steered_candidate_set(count=5, n_theta=31, n_phi=61)
        ac = rng.standard_normal(24)
        ac *= math.sqrt(FULL_SPHERE - ETA**2) / np.linalg.norm(ac)
        c = np.concatenate(([ETA], ac))
        table = path_table(rng, 1, (2, 4))
        channels = direct_channel_oracle(table, [c])
        costs = []
        for r in range(5):
            cost = 0.0
            for k, rows in enumerate(user_rows(table.path_counts)):
                h = 0.0
                for th, ph, response in zip(
                    table.thetas[rows, 0], table.phis[rows, 0], table.responses[rows, 0]
                ):
                    h += proj.candidate_gain(cset, th, ph)[r] * response
                diff = h / math.sqrt(rows.stop - rows.start) - channels[k, 0]
                cost += abs(diff) ** 2
            costs.append(cost)
        assert nearest_candidates(channels, table, cset)[0] == int(np.argmin(costs))

    def test_tie_breaks_to_lowest_index(self):
        base = proj.steered_candidate_set(count=1)
        cset = proj.CandidatePatternSet(base.patterns * 2, normalized=True)
        table = path_table(np.random.default_rng(6), 1, (1, 1))
        assert nearest_candidates([[0.5j], [1.0]], table, cset)[0] == 0


SNR_DB = 10.0 - (-95.0)  # 10 dBm over the default noise


def solve_small(seed, **cfg):
    params = dict(n_h=2, n_v=2, n_users=2, n_paths=2, truncation=2, user_radius_m=60.0)
    params.update(cfg)
    scenario = generate_scenario(ScenarioConfig(**params), seed=seed)
    result = wmmse.run_algorithm1(
        scenario, SNR_DB, wmmse.SolverConfig(max_iterations=60), seed=seed
    )
    return scenario, result


class TestApplyProjection:
    def test_self_projection_consistency(self):
        scenario, result = solve_small(5)
        cset = sampled_pattern_set(result.coeffs, n_theta=181, n_phi=361)
        projected = proj.apply_projection(result, scenario, cset)
        rel_change = abs(projected.sum_rate - result.sum_rate) / result.sum_rate
        assert rel_change < 0.005

    def test_refit_off_isotropic_matches_fixed_channel(self, tmp_path):
        scenario, result = solve_small(6)
        cset = proj.load_candidates(write_doc(tmp_path, isotropic_doc()))
        projected = proj.apply_projection(result, scenario, cset, refit=False)
        # the projected channel is in the solve's SNR units
        blocks = scenario.em_channels() * wmmse.snr_scale(result.snr_db)
        h_iso = effective_channels(blocks, wmmse.isotropic_coefficients(4, 2))
        np.testing.assert_allclose(projected.channels, h_iso, rtol=1e-9)
        expected = wmmse.sum_rate(wmmse.link_stats(h_iso @ result.iterate.f_d), scenario.weights)
        assert projected.sum_rate == pytest.approx(expected)
        np.testing.assert_array_equal(projected.f_d, result.iterate.f_d)

    def test_selected_indices_minimize_rescan(self):
        scenario, result = solve_small(7)
        cset = proj.steered_candidate_set(count=6, n_theta=31, n_phi=61)
        projected = proj.apply_projection(result, scenario, cset)
        # the oracle's channel entries are in watts, and so is the solve's
        # channel under its coefficients on the unscaled blocks
        h = effective_channels(scenario.blocks, result.coeffs)
        assert projected.indices.tolist() == project_antenna_oracle(h, scenario, cset)

    @pytest.mark.parametrize("case", ["small-far", "small-near", "default-30dBm"])
    def test_refit_rate_is_the_refit_results_rate(self, case):
        # a projected row's rate is the one its refit reports, so the refit's
        # converged flag and iterations describe that number; seed 2 of the
        # default drop at 30 dBm spent the refit's iteration cap before the
        # fixed-channel loop extrapolated, and now settles
        if case == "default-30dBm":
            config = hn.RunConfig()
            scenario = generate_scenario(config, 2)
            result = wmmse.run_algorithm1(scenario, 30.0 - config.noise_dbm, config, 2)
            cset = proj.steered_candidate_set()
        else:
            scenario, result = solve_small(7, field_mode=case.removeprefix("small-"))
            cset = proj.steered_candidate_set(count=6, n_theta=31, n_phi=61)
        projected = proj.apply_projection(result, scenario, cset)
        refit = wmmse.refit_digital(
            projected.channels, scenario.weights, f_init=result.iterate.f_d
        )
        assert projected.sum_rate == refit.sum_rate
        np.testing.assert_array_equal(projected.f_d, refit.iterate.f_d)
        assert refit.converged

    def test_projected_channel_gain_nonnegative(self):
        scenario, result = solve_small(8)
        cset = proj.steered_candidate_set(count=8, n_theta=31, n_phi=61)
        rng = np.random.default_rng(8)
        for _ in range(40):
            r = int(rng.integers(len(cset)))
            th, ph = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            g = proj.candidate_gain(cset, th, ph)[r]
            assert g >= 0.0


    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_null_space_convention_leaves_projection_unchanged(self, seed, monkeypatch):
        # A pattern solve leaves each antenna's AC component in its channel's
        # null space free, and completes it once, at the end, along
        # _cluster_direction's convention.  The channel does not see it, so
        # neither the solve nor the selection may: with the convention's sign
        # flipped, the row is the same bit for bit, and the coefficients
        # differ exactly on the antennas with a null part; a rule reading
        # the pattern moved these rows by 2.8% and 2.4%.
        config = hn.RunConfig(mode="projected", trials=1, seed=seed, pmax_dbm=(30.0,))
        runs = []

        def spy(result, *args, **kwargs):
            runs.append((result, proj.apply_projection(result, *args, **kwargs)))
            called.append((args, kwargs))
            return runs[-1][1]

        called, cset = [], hn.load_candidate_set(config)
        monkeypatch.setattr(hn, "apply_projection", spy)
        (row,) = hn.run_drop(config, seed, cset)
        direction = wmmse._cluster_direction
        monkeypatch.setattr(wmmse, "_cluster_direction", lambda *args: -direction(*args))
        (flipped_row,) = hn.run_drop(config, seed, cset)
        (solved, projected), (solved_flipped, projected_flipped) = runs
        fields = ("sum_rate", "iterations", "projected_sum_rate")
        assert [getattr(flipped_row, f) for f in fields] == [getattr(row, f) for f in fields]
        assert projected.indices.tolist() == projected_flipped.indices.tolist()
        (scenario, *rest), kwargs = called[0]
        blocks = scenario.blocks * wmmse.snr_scale(solved.snr_db)
        q = wmmse.factor_ac_blocks(blocks, config.eta).q
        coeffs = solved.coeffs.copy()
        ac = coeffs[:, 1:]
        row_part = (q @ (ac[:, None, :] @ q).transpose(0, 2, 1))[:, :, 0]
        nulls = np.linalg.norm(ac - row_part, axis=1)
        differs = np.any(coeffs != solved_flipped.coeffs, axis=1)
        np.testing.assert_array_equal(differs, nulls > 1e-8 * math.sqrt(FULL_SPHERE))
        # The same solve with every antenna's null-space part reversed
        # projects to the same row bit for bit (seed 4 ends with antennas'
        # AC largely in the null space).
        coeffs[:, 1:] = 2.0 * row_part - ac
        h = effective_channels(blocks, coeffs)
        mirrored = dataclasses.replace(solved, iterate=solved.iterate._replace(h=h), coeffs=coeffs)
        again = proj.apply_projection(mirrored, scenario, *rest, **kwargs)
        assert again.indices.tolist() == projected.indices.tolist()
        assert again.sum_rate == projected.sum_rate
        assert again.sum_rate == row.projected_sum_rate


class TestBlockForm:
    @pytest.mark.parametrize("normalized", [True, False])
    def test_list_and_block_forms_load_identically(self, tmp_path, normalized):
        base = proj.steered_candidate_set(count=5, n_theta=13, n_phi=25)
        cset = proj.CandidatePatternSet(base.patterns, normalized=normalized)
        listed = proj.load_candidates(write_doc(tmp_path, list_form_doc(cset), "list.json"))
        proj.save_candidates(cset, tmp_path / "block.json")
        assert '"base64"' in (tmp_path / "block.json").read_text(encoding="utf-8")
        blocked = proj.load_candidates(tmp_path / "block.json")
        assert listed.normalized == blocked.normalized == normalized
        for a, b in zip(listed.patterns, blocked.patterns, strict=True):
            assert a.name == b.name and a.power == b.power
            for field in ("theta", "phi", "gain"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
                assert getattr(a, field).dtype == getattr(b, field).dtype == np.float64

    def test_unnormalized_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        doc = isotropic_doc(normalize=False)
        doc["patterns"][0]["gain"] = rng.uniform(0.0, 3.0, (7, 9)).tolist()
        cset = proj.load_candidates(write_doc(tmp_path, doc))
        proj.save_candidates(cset, tmp_path / "saved.json")
        loaded = proj.load_candidates(tmp_path / "saved.json")
        np.testing.assert_array_equal(loaded.patterns[0].gain, doc["patterns"][0]["gain"])
        assert loaded.patterns[0].power == cset.patterns[0].power

    @pytest.mark.parametrize(
        "gain, message",
        [
            ({"shape": [7, 9], "base64": "not base64!"}, "bad base64"),
            ({"shape": [7, 9], "base64": 7}, "bad base64"),
            ({"shape": [7, 9], "base64": base64.b64encode(bytes(8 * 62)).decode()}, "bytes"),
            (gain_block(np.ones((9, 7))), "expected shape"),
            (gain_block(np.where(np.eye(7, 9) > 0, np.nan, 1.0)), "non-finite"),
            (gain_block(np.where(np.eye(7, 9) > 0, -0.5, 1.0)), "negative"),
            ({"shape": [63], "base64": gain_block(np.ones(63))["base64"]}, "shape"),
            ({"shape": [-7, -9], "base64": gain_block(np.ones(63))["base64"]}, "shape"),
            ({"shape": [7.0, 9], "base64": gain_block(np.ones(63))["base64"]}, "shape"),
            ({"shape": [True, 63], "base64": gain_block(np.ones(63))["base64"]}, "shape"),
            ({"base64": gain_block(np.ones(63))["base64"]}, "shape"),
            ({"shape": [7, 9]}, "missing field 'base64'"),
        ],
    )
    def test_malformed_block_rejected(self, tmp_path, gain, message):
        doc = isotropic_doc()
        doc["patterns"].append(dict(doc["patterns"][0], gain=gain))
        doc["patterns"][0]["gain"] = gain_block(np.ones((7, 9)))
        with pytest.raises(proj.PatternLoadError, match=rf"patterns\[1\]\.gain: .*{message}"):
            proj.load_candidates(write_doc(tmp_path, doc))


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        cset = proj.steered_candidate_set(count=3, n_theta=13, n_phi=25)
        path = tmp_path / "generated.json"
        proj.save_candidates(cset, path)
        loaded = proj.load_candidates(path)
        assert len(loaded) == 3
        for a, b in zip(cset.patterns, loaded.patterns):
            np.testing.assert_allclose(a.gain, b.gain, rtol=1e-12)
            np.testing.assert_allclose(a.theta, b.theta, atol=1e-12)

    def test_generator_deterministic(self):
        a = proj.steered_candidate_set(count=4, n_theta=13, n_phi=25)
        b = proj.steered_candidate_set(count=4, n_theta=13, n_phi=25)
        for pa, pb in zip(a.patterns, b.patterns):
            np.testing.assert_array_equal(pa.gain, pb.gain)


class TestIdentityEquality:
    def test_array_holding_results_compare_and_hash_by_identity(self):
        # each holds arrays, which have no single truth value to compare by
        first, second = (generate_scenario(ScenarioConfig(), 1) for _ in range(2))
        assert (first == second) is False
        scenario, result = solve_small(3)
        objects = [
            scenario,
            result,
            decompose(result.iterate.f_d, n_rf=2),
            gauss_legendre_grid(4, 8),
            proj.apply_projection(result, scenario, proj.steered_candidate_set(4)),
        ]
        names = {type(obj).__name__ for obj in objects}
        assert names == {
            "Scenario", "SolverResult", "HybridFactors",
            "AngularGrid", "ProjectedResult",
        }
        for obj in objects:
            twin = copy.copy(obj)
            assert obj == obj and obj != twin
            assert hash(obj) == hash(obj)
            assert len({obj, obj, twin}) == 2


@pytest.fixture(scope="module")
def paper_panel():
    """(scenario, pattern solve, frozen solve) of the default drop panel:
    seeds 1..5 at 0 and 30 dBm, one scenario per seed."""
    config = hn.RunConfig()
    panel = []
    for seed in range(1, 6):
        scenario = generate_scenario(config, seed)
        for pmax_dbm in (0.0, 30.0):
            snr_db = pmax_dbm - config.noise_dbm
            panel.append((
                scenario,
                wmmse.run_algorithm1(scenario, snr_db, config, seed),
                wmmse.run_algorithm1(scenario, snr_db, config, seed, em_update=False),
            ))
    return panel


class TestPaperFindings:
    """The directions of the paper's two findings on the default drop panel,
    not today's values: the optimized patterns are not physically
    realizable, and projection keeps less of their gain the fewer
    candidates it may choose from."""

    def test_optimized_patterns_dip_below_zero_gain(self, paper_panel):
        grid = gauss_legendre_grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _, solved, _ in paper_panel:
                assert min(min_gain_on_grid(c, grid) for c in solved.coeffs) < 0.0

    def test_fewer_candidates_keep_less_of_the_gain(self, paper_panel):
        config = hn.RunConfig()

        def mean_kept_share(cset):
            shares = []
            for scenario, solved, frozen in paper_panel:
                projected = proj.apply_projection(solved, scenario, cset, refit=True, config=config)
                gain = solved.sum_rate - frozen.sum_rate
                assert gain > 0.0
                shares.append((projected.sum_rate - frozen.sum_rate) / gain)
            return np.mean(shares)

        assert mean_kept_share(proj.steered_candidate_set(4)) < mean_kept_share(
            proj.steered_candidate_set(64)
        )
