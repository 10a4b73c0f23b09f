"""Projection of optimized harmonic patterns onto realizable candidate sets.

A candidate set holds R gain functions sampled on rectangular
(inclination x azimuth) grids.  Each antenna takes the candidate whose
channel entries, one path sum over the drop's paths, lie closest to the
solve's channel there; the projected channel is those entries, and
(optionally) the digital precoder is refit on it.

Candidate files are UTF-8 JSON documents::

    {"normalize": true,
     "patterns": [{"name": "...",
                   "theta_deg": [...ascending...],
                   "phi_deg": [...ascending...],
                   "gain": [[...], ...]}  # len(theta) x len(phi), linear
              , ...]}

A gain is either that nested list or one block of samples, with exactly
the fields ``{"shape": [len(theta), len(phi)], "base64": "..."}``, whose
base64 text holds the little-endian float64 samples in row-major order;
the loader reads both, and :func:`save_candidates` writes blocks.  Axis
nodes and samples must be JSON numbers and a ``name`` a string; a field not
named here, in the document, a pattern or a block, is rejected, and so is
a missing one other than ``normalize`` and ``name``; nodes must be finite,
azimuths span at most 360 degrees, gains be finite and nonnegative, and
``normalize`` a JSON boolean; with ``normalize`` true (the default) every
pattern is rescaled on load so its quadrature power equals 4 pi.  Where
the squared samples under- or overflow, that scale comes from the power of
gain / max(gain); a pattern whose power or scale is still not finite and
positive (an all-zero pattern among them), or whose stored samples' power
would overflow, does not load.  With ``normalize`` false the samples load
as stored, unless their power is not finite or would overflow: an all-zero
pattern loads, with power 0.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import InitVar, dataclass, field, replace
from itertools import chain

import numpy as np

from .channel import Scenario, _echo, _read_only, assemble_channel
from .harmonics import FULL_SPHERE
from .wmmse import SolverConfig, SolverResult, link_stats, refit_digital, snr_scale, sum_rate


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
    normalization); a set unpickles through this construction too.  Sets,
    grids and patterns compare and hash by identity, since their fields
    hold arrays.
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

    def __reduce__(self):
        return CandidatePatternSet, (self.patterns, self.normalized)

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


def _closed_azimuth(phi: np.ndarray) -> np.ndarray:
    """The azimuth nodes ``phi``, closed by a node at phi[0] + 2 pi when
    they stop short of a full turn.  Node j of the closed axis carries the
    samples of column j % phi.size, so the added node repeats the first."""
    if phi[-1] - phi[0] < 2.0 * math.pi:
        return np.concatenate((phi, [phi[0] + 2.0 * math.pi]))
    return phi


def grid_power(theta: np.ndarray, phi: np.ndarray, gain: np.ndarray) -> float:
    """Quadrature of gain^2 over the sphere on a rectangular grid.

    Exact for the interpolation model used at lookup time: the squared gain
    is integrated as its piecewise-linear interpolant against sin(theta),
    clamped beyond the theta edges and wrapped periodically in phi, so a
    constant pattern integrates to exactly 4 pi times its square.
    """
    phi = np.asarray(phi, float)
    ph = _closed_azimuth(phi)
    # np.take copies in C order; trapezoid's sums, and their rounding, follow memory order
    g = np.take(np.asarray(gain, float), np.arange(ph.size) % phi.size, axis=1)
    per_theta = np.trapezoid(g**2, ph, axis=1)
    return float(np.dot(_theta_weights(np.asarray(theta, float)), per_theta))


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


def _fields(obj, name: str, known: tuple, required: tuple = ()) -> None:
    """Reject ``obj`` unless it is a JSON object whose fields are among
    ``known`` and include ``required``: a misspelt field would otherwise
    load as absent."""
    if not isinstance(obj, dict):
        raise PatternLoadError(f"{name}: must be an object")
    if unknown := sorted(set(obj) - set(known)):
        raise PatternLoadError(f"{name}: unknown field(s) {_echo(unknown)}")
    for key in required:
        if key not in obj:
            raise PatternLoadError(f"{name}: missing field {key!r}")


def _gain_array(gain, name: str) -> np.ndarray:
    """A gain, a nested list of samples or a block, as a float array; an
    array the parser hook made already is returned as it is.  A block's
    array is an (n_theta, n_phi) view of its decoded bytes."""
    if isinstance(gain, np.ndarray):
        return gain
    if not isinstance(gain, dict):
        return _float_array(gain, name)
    _fields(gain, name, ("shape", "base64"), ("shape", "base64"))
    shape = gain["shape"]
    if not (
        isinstance(shape, list)
        and len(shape) == 2
        and all(type(n) is int and n >= 0 for n in shape)
    ):
        raise PatternLoadError(
            f"{name}: block shape must be two nonnegative ints, got {_echo(shape)}"
        )
    try:
        raw = base64.b64decode(gain["base64"], validate=True)
    except (TypeError, ValueError) as err:  # binascii.Error is a ValueError
        raise PatternLoadError(f"{name}: bad base64 in block ({err})")
    if len(raw) != 8 * shape[0] * shape[1]:
        raise PatternLoadError(
            f"{name}: block of {len(raw)} bytes does not hold {shape} float64 samples"
        )
    return np.frombuffer(raw, "<f8").reshape(shape)


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
    known = ("name", "theta_deg", "phi_deg", "gain")
    _fields(record, ctx, known, required=known[1:])
    theta = _validate_axis(record["theta_deg"], f"{ctx}.theta_deg")
    phi = _validate_axis(record["phi_deg"], f"{ctx}.phi_deg")
    if theta[0] < 0 or theta[-1] > math.pi + 1e-9:
        raise PatternLoadError(f"{ctx}.theta_deg: inclinations must lie in [0, 180]")
    if phi[-1] - phi[0] > 2.0 * math.pi + 1e-9:
        raise PatternLoadError(f"{ctx}.phi_deg: azimuths must span at most 360 degrees")
    gain = _gain_array(record["gain"], f"{ctx}.gain")
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


def _gain_to_array(obj: dict) -> dict:
    """Parser hook: a record's gain becomes one float array as soon as the
    record is parsed, so the document never holds its samples as Python
    floats or as base64 text.  A gain that does not decode is left as
    parsed, for :func:`_build_pattern` to reject with its record's index."""
    if "gain" in obj:
        try:
            obj["gain"] = _gain_array(obj["gain"], "gain")
        except PatternLoadError:
            pass
    return obj


def read_candidate_file(path) -> bytes:
    """The bytes of a candidate-set file."""
    try:
        with open(path, "rb") as fh:
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
        _fields(doc, "document", ("normalize", "patterns"), ("patterns",))
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


def candidate_gain(cset: CandidatePatternSet, theta, phi) -> np.ndarray:
    """(R, *angles) bilinear gains of every candidate at the (theta, phi)
    angles, one gather per grid of the set.

    Azimuth wraps at 2 pi (a grid short of 2 pi closes on its first column);
    inclination clamps to the grid edge toward the poles.  Grid nodes
    reproduce the stored samples exactly.
    """
    theta, phi = np.asarray(theta, float), np.asarray(phi, float)
    out = np.empty((len(cset),) + np.broadcast_shapes(theta.shape, phi.shape))
    for grid in cset.grids:
        ph_axis = _closed_azimuth(grid.phi)
        th = np.clip(theta, grid.theta[0], grid.theta[-1])
        ph = ph_axis[0] + np.mod(phi - ph_axis[0], 2.0 * math.pi)
        ph = np.clip(ph, ph_axis[0], ph_axis[-1])
        i = np.clip(np.searchsorted(grid.theta, th, side="right") - 1, 0, grid.theta.size - 2)
        j = np.clip(np.searchsorted(ph_axis, ph, side="right") - 1, 0, ph_axis.size - 2)
        t = (th - grid.theta[i]) / (grid.theta[i + 1] - grid.theta[i])
        u = (ph - ph_axis[j]) / (ph_axis[j + 1] - ph_axis[j])
        j1 = (j + 1) % grid.phi.size
        g = grid.gains
        out[grid.members] = (
            (1 - t) * (1 - u) * g[:, i, j]
            + (1 - t) * u * g[:, i, j1]
            + t * (1 - u) * g[:, i + 1, j]
            + t * u * g[:, i + 1, j1]
        )
    return out


def project_antenna(entries, channels) -> np.ndarray:
    """(N,) indices of the candidates whose channel entries lie closest to
    the solve's: antenna n takes the r minimizing
    sum_k |entries[k, n, r] - channels[k, n]|^2, ties the lowest index.

    ``entries`` is the (K, N, R) channel of every candidate at every
    antenna, and ``channels`` the (K, N) channel the solve converged to.
    The channel, not the pattern, is matched, so the AC component that
    leaves the channel unchanged does not enter the selection.
    """
    return np.argmin(np.sum(np.abs(entries - channels[..., None]) ** 2, axis=0), axis=-1)


@dataclass(eq=False)
class ProjectedResult:
    indices: np.ndarray  # (N_T,) selected candidate per antenna
    channels: np.ndarray  # (K, N_T) rebuilt channels, in the solve's SNR units
    f_d: np.ndarray  # (N_T, K) precoder of unit budget
    sum_rate: float


def apply_projection(
    result: SolverResult,
    scenario: Scenario,
    cset: CandidatePatternSet,
    refit: bool = True,
    config: SolverConfig | None = None,
) -> ProjectedResult:
    """Replace each optimized pattern by the candidate whose channel entries
    match the solve's, and rebuild.

    Every candidate's gain is evaluated once at the drop's (path, antenna)
    angles, and one path sum (``assemble_channel``) turns them into every
    candidate's channel entries, scaled into the solve's SNR units by
    ``snr_scale(result.snr_db)``; :func:`project_antenna` selects from those
    against the solve's channel ``result.iterate.h``, and the projected
    channel is the selected entries.  With ``refit`` on, the
    combiner/weight/precoder updates rerun on the projected channel
    starting from the converged precoder, in the same units.
    """
    gains = candidate_gain(cset, scenario.thetas, scenario.phis)  # (R, P, N_T)
    entries = snr_scale(result.snr_db) * assemble_channel(
        scenario.responses, scenario.path_counts, np.moveaxis(gains, 0, -1)
    )  # (K, N_T, R)
    indices = project_antenna(entries, result.iterate.h)
    channels = entries[:, np.arange(scenario.geometry.n_t), indices]
    f_d = result.iterate.f_d
    if refit:
        f_d = refit_digital(channels, scenario.weights, config, f_init=f_d).iterate.f_d
    rate = sum_rate(link_stats(channels @ f_d), scenario.weights)
    return ProjectedResult(indices=indices, channels=channels, f_d=f_d, sum_rate=rate)


def fibonacci_directions(count: int) -> np.ndarray:
    """(count, 2) quasi-uniform (theta, phi) steering directions."""
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.mod(i * math.pi * (3.0 - math.sqrt(5.0)), 2.0 * math.pi)
    return np.stack([theta, phi], axis=1)


def steered_candidate_set(
    count: int = 64, n_theta: int = 61, n_phi: int = 121
) -> CandidatePatternSet:
    """Synthetic stand-in set: ``count`` cosine-squared lobes steered along
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
        gain = np.maximum(cos_angle, 0.0) ** 2.0
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
