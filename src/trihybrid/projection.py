"""Projection of optimized harmonic patterns onto realizable candidate sets.

A candidate set holds R gain functions sampled on rectangular
(inclination x azimuth) grids.  Each antenna picks the candidate minimizing
the squared gain mismatch against its optimized pattern over all users' path
angles, the channel is rebuilt from the selected gains, and (optionally) the
digital precoder is refit on the projected channel.

Candidate files are UTF-8 JSON documents::

    {"normalize": true,
     "patterns": [{"name": "...",
                   "theta_deg": [...ascending...],
                   "phi_deg": [...ascending...],
                   "gain": [[...], ...]}  # len(theta) x len(phi), linear
              , ...]}

A gain is either that nested list or one block of samples,
``{"shape": [len(theta), len(phi)], "base64": "..."}``, whose base64 text
holds the little-endian float64 samples in row-major order; the loader
reads both, and :func:`save_candidates` writes blocks.  Axis nodes and
samples must be JSON numbers and a ``name`` a string; a field not named
here, in the document, a pattern or a block, is rejected; nodes must be
finite, azimuths span at most 360 degrees, gains be finite and
nonnegative, and ``normalize`` a JSON boolean; with ``normalize`` true (the
default) every pattern is rescaled on load so its quadrature power equals 4 pi.
Where the squared samples under- or overflow, that scale comes from the
power of gain / max(gain); a pattern whose power or scale is still not
finite and positive (an all-zero pattern among them), or whose stored
samples' power would overflow, does not load.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import InitVar, dataclass, field, replace
from itertools import chain

import numpy as np

from .channel import Scenario, _echo, _read_only, assemble_channel
from .harmonics import FULL_SPHERE, basis_vector
from .wmmse import SolverConfig, SolverResult, link_stats, refit_digital, sum_rate


class PatternLoadError(ValueError):
    """A candidate-set document failed validation."""


@dataclass(frozen=True, eq=False)
class CandidatePattern:
    name: str
    theta: np.ndarray  # radians, ascending
    phi: np.ndarray  # radians, ascending
    gain: np.ndarray  # (n_theta, n_phi)
    power: float  # quadrature of gain^2 over the sphere


@dataclass(frozen=True, eq=False)
class CandidateGrid:
    """The candidates of a set that share one (theta, phi) grid."""

    theta: np.ndarray
    phi: np.ndarray
    gains: np.ndarray  # (R_grid, n_theta, n_phi), row k is candidate members[k]
    members: np.ndarray  # indices into the set's patterns, ascending


@dataclass(frozen=True, eq=False)
class CandidatePatternSet:
    """Candidates in selection order.

    On construction the gains of candidates sharing a grid are stacked into
    one read-only array per grid (``grids``), and each pattern's ``theta``,
    ``phi`` and ``gain`` become read-only views of its grid, so a set can be
    shared between calls without copies.  ``scales``, one factor per
    pattern, multiplies each gain as it is stacked (the loader's
    normalization).  Sets, grids and patterns compare and hash by identity,
    since their fields hold arrays.
    """

    patterns: tuple
    normalized: bool
    grids: tuple = field(init=False, repr=False)
    scales: InitVar[tuple | None] = None

    def __post_init__(self, scales):
        groups: dict = {}
        for r, pat in enumerate(self.patterns):
            theta, phi = np.asarray(pat.theta, float), np.asarray(pat.phi, float)
            key = (theta.tobytes(), phi.tobytes())
            groups.setdefault(key, (theta, phi, []))[2].append(r)
        patterns, grids = list(self.patterns), []
        for theta, phi, members in groups.values():
            theta, phi = _read_only(theta.copy()), _read_only(phi.copy())
            gains = np.empty((len(members), theta.size, phi.size))
            for k, r in enumerate(members):
                gain = np.asarray(patterns[r].gain, float)
                if gain.shape != gains.shape[1:]:
                    raise ValueError(f"pattern {r}: gain shape {gain.shape} is not its grid's")
                np.multiply(gain, 1.0 if scales is None else scales[r], out=gains[k])
            _read_only(gains)
            for k, r in enumerate(members):
                patterns[r] = replace(patterns[r], theta=theta, phi=phi, gain=gains[k])
            grids.append(CandidateGrid(theta, phi, gains, _read_only(np.array(members))))
        object.__setattr__(self, "patterns", tuple(patterns))
        object.__setattr__(self, "grids", tuple(grids))

    def __len__(self) -> int:
        return len(self.patterns)


def _theta_weights(theta: np.ndarray) -> np.ndarray:
    """Node weights integrating a piecewise-linear function against sin(theta)
    over [0, pi] exactly, with constant extension beyond the edge nodes."""
    w = np.zeros(theta.size)
    ti, tj = theta[:-1], theta[1:]
    i0 = np.cos(ti) - np.cos(tj)
    i1 = (np.sin(tj) - tj * np.cos(tj)) - (np.sin(ti) - ti * np.cos(ti))
    dt = tj - ti
    w[:-1] += (tj * i0 - i1) / dt
    w[1:] += (i1 - ti * i0) / dt
    w[0] += 1.0 - math.cos(theta[0])  # pole clamp below the first node
    w[-1] += math.cos(theta[-1]) + 1.0  # pole clamp above the last node
    return w


def grid_power(theta: np.ndarray, phi: np.ndarray, gain: np.ndarray) -> float:
    """Quadrature of gain^2 over the sphere on a rectangular grid.

    Exact for the interpolation model used at lookup time: the squared gain
    is integrated as its piecewise-linear interpolant against sin(theta),
    clamped beyond the theta edges and wrapped periodically in phi, so a
    constant pattern integrates to exactly 4 pi times its square.
    """
    th, g = np.asarray(theta, float), np.asarray(gain, float)
    ph = np.asarray(phi, float)
    if ph[-1] - ph[0] < 2.0 * math.pi:
        ph = np.concatenate((ph, [ph[0] + 2.0 * math.pi]))
        g = np.hstack([g, g[:, :1]])
    per_theta = np.trapezoid(g**2, ph, axis=1)
    return float(np.dot(_theta_weights(th), per_theta))


def _float_array(values, name: str) -> np.ndarray:
    """``values``, a JSON number or nested lists of them, as a float array.

    numpy converts a string such as "90" and a boolean as numbers, so each
    leaf's type is checked once the nesting is known to be rectangular."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise PatternLoadError(f"{name}: not an array of numbers ({err})")
    leaves = [values]
    for _ in range(arr.ndim):
        leaves = chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {int, float}:
        raise PatternLoadError(
            f"{name}: entries must be JSON numbers, not strings, booleans or null"
        )
    return arr


def _unknown_fields(obj: dict, known: tuple) -> str:
    """The fields of ``obj`` not among ``known``, named, or "" when there
    are none: a misspelt field would otherwise load as absent."""
    unknown = sorted(set(obj) - set(known))
    return f"unknown field(s) {_echo(unknown)}" if unknown else ""


def _validate_axis(values, name: str) -> np.ndarray:
    """The axis nodes in degrees ``values`` as radians, which must ascend
    strictly: nodes a subnormal number of degrees apart coincide there."""
    arr = _float_array(values, name)
    if arr.ndim != 1 or arr.size < 2:
        raise PatternLoadError(f"{name}: need a 1-D array with at least 2 nodes")
    if not np.all(np.isfinite(arr)):
        raise PatternLoadError(f"{name}: grid nodes must be finite")
    arr = np.deg2rad(arr)
    if np.any(np.diff(arr) <= 0):
        raise PatternLoadError(f"{name}: grid nodes must be strictly ascending")
    return arr


def _build_pattern(record: dict, idx: int, normalize: bool):
    """A record's pattern with its gain as stored, and the factor that
    normalizes that gain (1.0 when the document does not normalize)."""
    ctx = f"patterns[{idx}]"
    if not isinstance(record, dict):
        raise PatternLoadError(f"{ctx}: must be an object")
    if why := _unknown_fields(record, ("name", "theta_deg", "phi_deg", "gain")):
        raise PatternLoadError(f"{ctx}: {why}")
    for key in ("theta_deg", "phi_deg", "gain"):
        if key not in record:
            raise PatternLoadError(f"{ctx}: missing field {key!r}")
    theta = _validate_axis(record["theta_deg"], f"{ctx}.theta_deg")
    phi = _validate_axis(record["phi_deg"], f"{ctx}.phi_deg")
    if theta[0] < 0 or theta[-1] > math.pi + 1e-9:
        raise PatternLoadError(f"{ctx}.theta_deg: inclinations must lie in [0, 180]")
    if phi[-1] - phi[0] > 2.0 * math.pi + 1e-9:
        raise PatternLoadError(f"{ctx}.phi_deg: azimuths must span at most 360 degrees")
    if isinstance(record["gain"], _BadBlock):
        raise PatternLoadError(f"{ctx}.gain: {record['gain']}")
    gain = record["gain"]  # an array already where the parser hook converted it
    if not isinstance(gain, np.ndarray):
        gain = _float_array(gain, f"{ctx}.gain")
    if gain.shape != (theta.size, phi.size):
        raise PatternLoadError(
            f"{ctx}.gain: expected shape {(theta.size, phi.size)}, got {gain.shape}"
        )
    if np.any(~np.isfinite(gain)):
        raise PatternLoadError(f"{ctx}.gain: non-finite sample")
    if np.any(gain < 0):
        raise PatternLoadError(f"{ctx}.gain: negative sample")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves it inf or nan
        power = grid_power(theta, phi, gain)
    scale, top = 1.0, float(gain.max())
    if normalize:
        if top == 0:
            raise PatternLoadError(f"{ctx}.gain: zero pattern cannot be normalized")
        scale = math.sqrt(FULL_SPHERE / power) if power > 0 else math.inf
        if not 0 < scale < math.inf:
            # gain^2 under- or overflowed; gain / max(gain) squares in range
            unit = grid_power(theta, phi, gain / top)
            scale = math.sqrt(FULL_SPHERE / unit) / top if unit > 0 else math.inf
        power = FULL_SPHERE
    # samples on nodes of zero weight (a pole row) do not bound the scale,
    # so the stored pattern's quadrature, whose partial sums stay below 4 pi
    # times its largest square, is checked to stay finite, with a factor 2
    # to spare for rounding
    peak = top * scale
    if not (
        0 < scale < math.inf
        and math.isfinite(power)
        and 2.0 * FULL_SPHERE * peak * peak < math.inf
    ):
        raise PatternLoadError(f"{ctx}.gain: samples too small or too large for a finite power")
    name = record.get("name", f"pattern-{idx}")
    if not isinstance(name, str):
        raise PatternLoadError(f"{ctx}.name: must be a string, got {_echo(name)}")
    return CandidatePattern(name=name, theta=theta, phi=phi, gain=gain, power=power), scale


class _BadBlock(str):
    """Why a gain block did not decode, reported once its record's index is
    known."""


def _decode_block(block: dict):
    """A gain block's samples as an (n_theta, n_phi) array over its decoded
    bytes, or the :class:`_BadBlock` reason it is malformed."""
    if why := _unknown_fields(block, ("shape", "base64")):
        return _BadBlock(f"block: {why}")
    shape = block.get("shape")
    if not (
        isinstance(shape, list)
        and len(shape) == 2
        and all(type(n) is int and n >= 0 for n in shape)
    ):
        return _BadBlock(f"block shape must be two nonnegative ints, got {_echo(shape)}")
    try:
        raw = base64.b64decode(block.get("base64"), validate=True)
    except (TypeError, ValueError) as err:  # binascii.Error is a ValueError
        return _BadBlock(f"bad base64 in block ({err})")
    if len(raw) != 8 * shape[0] * shape[1]:
        return _BadBlock(f"block of {len(raw)} bytes does not hold {shape} float64 samples")
    return np.frombuffer(raw, "<f8").reshape(shape)


def _gain_to_array(obj: dict) -> dict:
    """Parser hook: a record's gain becomes one float array as soon as the
    record is parsed, so the document never holds its samples as Python
    floats or as base64 text.  A nested list whose samples do not convert is
    left for validation, and a malformed block becomes its reason."""
    gain = obj.get("gain")
    if isinstance(gain, dict):
        obj["gain"] = _decode_block(gain)
    elif isinstance(gain, list):
        try:
            obj["gain"] = _float_array(gain, "gain")
        except PatternLoadError:
            pass
    return obj


def read_candidate_file(path, kept: bytes | None = None) -> bytes:
    """The bytes of a candidate-set file.

    A file whose bytes equal ``kept`` returns ``kept`` itself: the file is
    compared with it a MiB at a time, so equal bytes are never held twice.
    """
    try:
        with open(path, "rb") as fh:
            if kept is not None:
                pos = 0
                while chunk := fh.read(1 << 20):
                    if chunk != kept[pos : pos + len(chunk)]:
                        break
                    pos += len(chunk)
                else:
                    if pos == len(kept):
                        return kept
                fh.seek(0)
            return fh.read()
    except OSError as err:
        raise PatternLoadError(f"{path}: cannot read candidate set: {err}")


def load_candidates(path, data: bytes | None = None) -> CandidatePatternSet:
    """Load and validate a candidate-set document.

    ``data`` is the file's bytes for a caller that has read them already
    (:func:`read_candidate_file`); otherwise the file is read here.  The
    bytes must be UTF-8 text.  The text is dropped once parsed, and each
    gain is normalized as it is copied into its grid's stacked array.
    Every error names ``path`` first.
    """
    if data is None:
        data = read_candidate_file(path)
    try:
        text = data.decode("utf-8")
        del data
        doc = json.loads(text, object_hook=_gain_to_array)
        del text
        if not isinstance(doc, dict) or "patterns" not in doc:
            raise PatternLoadError("document must be an object with 'patterns'")
        if why := _unknown_fields(doc, ("normalize", "patterns")):
            raise PatternLoadError(f"document: {why}")
        normalize = doc.get("normalize", True)
        if not isinstance(normalize, bool):
            raise PatternLoadError(f"normalize: must be true or false, got {_echo(normalize)}")
        records = doc["patterns"]
        if not isinstance(records, list):
            raise PatternLoadError("patterns: must be a list of pattern objects")
        if not records:
            raise PatternLoadError("empty pattern list")
        patterns, scales = zip(
            *(_build_pattern(rec, idx, normalize) for idx, rec in enumerate(records))
        )
        return CandidatePatternSet(patterns=patterns, normalized=normalize, scales=scales)
    except UnicodeDecodeError as err:
        why = f"not UTF-8 text ({err.reason} at byte {err.start})"
    except json.JSONDecodeError as err:
        why = f"invalid JSON at line {err.lineno}: {err.msg}"
    except RecursionError:
        why = "document is nested too deeply"
    except PatternLoadError as err:
        why = str(err)
    raise PatternLoadError(f"{path}: {why}")


def save_candidates(cset: CandidatePatternSet, path) -> None:
    """Write a candidate set back to the document format (degrees, linear),
    each gain as one block of little-endian float64 samples."""
    doc = {
        "normalize": cset.normalized,
        "patterns": [
            {
                "name": p.name,
                "theta_deg": np.rad2deg(p.theta).tolist(),
                "phi_deg": np.rad2deg(p.phi).tolist(),
                "gain": {
                    "shape": list(p.gain.shape),
                    "base64": base64.b64encode(np.asarray(p.gain, "<f8").tobytes()).decode(),
                },
            }
            for p in cset.patterns
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _bilinear(grid_theta, grid_phi, gains, theta, phi) -> np.ndarray:
    """(R, *angles) bilinear gains at (theta, phi) of a stack of R gains of
    shape (R, n_theta, n_phi) sampled on one grid.

    Azimuth wraps at 2 pi (a grid short of 2 pi closes on its first column);
    inclination clamps to the grid edge toward the poles.  Grid nodes
    reproduce the stored samples exactly.
    """
    ph_axis = grid_phi
    if ph_axis[-1] - ph_axis[0] < 2.0 * math.pi:
        ph_axis = np.concatenate((ph_axis, [ph_axis[0] + 2.0 * math.pi]))

    th = np.clip(np.asarray(theta, float), grid_theta[0], grid_theta[-1])
    ph = ph_axis[0] + np.mod(np.asarray(phi, float) - ph_axis[0], 2.0 * math.pi)
    ph = np.clip(ph, ph_axis[0], ph_axis[-1])

    i = np.clip(np.searchsorted(grid_theta, th, side="right") - 1, 0, grid_theta.size - 2)
    j = np.clip(np.searchsorted(ph_axis, ph, side="right") - 1, 0, ph_axis.size - 2)
    t = (th - grid_theta[i]) / (grid_theta[i + 1] - grid_theta[i])
    u = (ph - ph_axis[j]) / (ph_axis[j + 1] - ph_axis[j])
    j1 = (j + 1) % grid_phi.size  # the wrapped column of a grid short of 2 pi
    return (
        (1 - t) * (1 - u) * gains[:, i, j]
        + (1 - t) * u * gains[:, i, j1]
        + t * (1 - u) * gains[:, i + 1, j]
        + t * u * gains[:, i + 1, j1]
    )


def candidate_gain(cset: CandidatePatternSet, r: int, theta, phi):
    """Bilinear gain of candidate ``r`` (0-based) at (theta, phi).

    Azimuth wraps at 2 pi; inclination clamps to the grid edge toward the
    poles.  Grid nodes reproduce the stored samples exactly.
    """
    if not 0 <= r < len(cset):
        raise IndexError(f"candidate index {r} out of range [0, {len(cset)})")
    pat = cset.patterns[r]
    out = _bilinear(pat.theta, pat.phi, pat.gain[None], theta, phi)[0]
    return float(out) if np.ndim(out) == 0 else out


def candidate_gains(cset: CandidatePatternSet, theta, phi) -> np.ndarray:
    """(R, *angles) gains of every candidate at the (theta, phi) angles,
    one bilinear gather per grid of the set."""
    shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))
    out = np.empty((len(cset),) + shape)
    for grid in cset.grids:
        out[grid.members] = _bilinear(grid.theta, grid.phi, grid.gains, theta, phi)
    return out


def project_antenna(coeffs, thetas, phis, gains) -> np.ndarray:
    """(N,) indices of the candidates closest to N synthesized patterns over
    their path angles (sum of squared gain mismatches; ties take the lowest
    index).

    ``coeffs`` is the (N, T) stack of patterns and ``thetas``, ``phis`` the
    (N, P) angles of each one's paths; the candidates enter only through
    ``gains``, the (R, N, P) :func:`candidate_gains` array at those angles.
    The basis is evaluated once over the whole (N, P) angle table, and
    pattern n's gains are its rows times ``coeffs[n]``, as
    ``harmonics.synthesize_gain`` forms them.
    """
    coeffs = np.asarray(coeffs, float)
    thetas, phis = np.asarray(thetas, float), np.asarray(phis, float)
    if thetas.shape[1] == 0:
        raise ValueError("need at least one path angle")
    basis = basis_vector(thetas, phis, math.isqrt(coeffs.shape[1]) - 1)  # (N, P, T)
    target = np.stack([b @ c for b, c in zip(basis, coeffs)])
    return np.argmin(np.sum((gains - target) ** 2, axis=-1), axis=0)


@dataclass(eq=False)
class ProjectedResult:
    indices: np.ndarray  # (N_T,) selected candidate per antenna
    channels: np.ndarray  # (K, N_T) rebuilt channels
    f_d: np.ndarray
    sum_rate: float


def apply_projection(
    result: SolverResult,
    scenario: Scenario,
    cset: CandidatePatternSet,
    refit: bool = True,
    config: SolverConfig | None = None,
) -> ProjectedResult:
    """Replace each optimized pattern by its closest candidate and rebuild.

    Every candidate's gain is evaluated once at all (antenna, path) angles;
    the selection reads it, and the channels are reassembled from the
    selected candidates' gains.  With ``refit`` on, the combiner/weight/
    precoder updates rerun on the projected channel starting from the
    converged precoder, under the solve's power budget ``result.p_max``.
    The harmonic coefficients play no further role.
    """
    thetas, phis = scenario.thetas.T, scenario.phis.T  # (N_T, P)
    gains = candidate_gains(cset, thetas, phis)  # (R, N_T, P)
    indices = project_antenna(result.state.coeffs, thetas, phis, gains)
    selected = gains[indices, np.arange(scenario.geometry.n_t)].T  # (P, N_T)
    channels = assemble_channel(scenario.responses, scenario.path_counts, selected)
    if refit:
        f_d, _, _, _ = refit_digital(
            channels,
            scenario.weights,
            scenario.noise_powers,
            result.p_max,
            config,
            f_init=result.state.f_d,
        )
    else:
        f_d = result.state.f_d
    rate = sum_rate(link_stats(channels @ f_d), scenario.weights, scenario.noise_powers)
    return ProjectedResult(indices=indices, channels=channels, f_d=f_d, sum_rate=rate)


def fibonacci_directions(count: int) -> np.ndarray:
    """(count, 2) quasi-uniform (theta, phi) steering directions."""
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.mod(i * math.pi * (3.0 - math.sqrt(5.0)), 2.0 * math.pi)
    return np.stack([theta, phi], axis=1)


def steered_candidate_set(
    count: int = 64,
    exponent: float = 2.0,
    n_theta: int = 61,
    n_phi: int = 121,
) -> CandidatePatternSet:
    """Synthetic stand-in set: ``count`` cosine-power lobes steered along
    quasi-uniform directions, each normalized to the 4 pi power budget.

    Deterministic (no randomness), nonnegative by construction; a
    placeholder for measured hardware patterns in the same file schema.
    """
    if count < 1:
        raise ValueError("need at least one candidate")
    theta = np.linspace(0.0, math.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi)
    th, ph = theta[:, None], phi[None, :]
    patterns = []
    for r, (th0, ph0) in enumerate(fibonacci_directions(count)):
        cos_angle = np.sin(th) * math.sin(th0) * np.cos(ph - ph0) + np.cos(th) * math.cos(th0)
        gain = np.maximum(cos_angle, 0.0) ** exponent
        gain = gain * math.sqrt(FULL_SPHERE / grid_power(theta, phi, gain))
        patterns.append(
            CandidatePattern(
                name=f"steered-{r:02d}",
                theta=theta,
                phi=phi,
                gain=gain,
                power=FULL_SPHERE,
            )
        )
    return CandidatePatternSet(patterns=tuple(patterns), normalized=True)
