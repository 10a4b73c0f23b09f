"""Array geometry, response vectors, and the EM-domain channel factorization.

A uniform planar array sits on the YOZ plane with the first element at the
base-station position; element ``n`` (1-based) with ``n = i_h * N_v + i_v + 1``
is offset by ``(0, i_h * d, i_v * d)``.  That horizontal-major ordering makes
the far-field response vector the Kronecker product of the horizontal and
vertical phase ramps.

The multipath channel of user k is

    h_k = sqrt(N_T / L_k) * sum_l  alpha_{k,l} (.) g_{k,l} (.) a_{k,l}

(elementwise products of complex gains, per-element antenna gains, and the
array response).  A drop holds its paths as one table, users in order:
row p of the (P, N_T) arrays ``thetas``, ``phis`` and ``responses`` is a
path's per-element departure angles, where the antenna gains g are
evaluated, and its response alpha (.) a, formed once from the far- or
near-field array response; ``path_counts`` is (L_1, ..., L_K).  Writing
each per-element gain through the harmonic basis turns this into
h_k = F_EM^T h_k^EM with a block-diagonal pattern-coefficient stack F_EM
and the EM-domain channel h_k^EM, one (N_T, T) block per user.  One path
sum, ``assemble_channel(responses, counts, gains)``, builds all K channels
under any per-element gains: with the basis vectors as gains it gives the
blocks (``Scenario.em_channels``) that ``effective_channels`` contracts
with the patterns, and with a candidate set's gains the projected channel.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .harmonics import basis_vector


def _is_number(x) -> bool:
    """A finite number; a bool is not one."""
    try:
        return not isinstance(x, (bool, np.bool_)) and math.isfinite(x)
    except (TypeError, OverflowError):
        return False


def _is_numbers(x) -> bool:
    """A list, a tuple or a 1-D array of finite numbers."""
    listlike = isinstance(x, (list, tuple)) or isinstance(x, np.ndarray) and x.ndim == 1
    return listlike and all(map(_is_number, x))


def _int_rule(low: int) -> tuple:
    """The rule of an integer knob: an int or a numpy integer, never a bool."""
    return f"an integer >= {low}", lambda x: (
        isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= low
    )


_POSITIVE_RULE = ("a positive finite number", lambda x: _is_number(x) and x > 0)


@dataclass(frozen=True)
class UpaGeometry:
    """N_h x N_v uniform planar array on the YOZ plane."""

    n_h: int
    n_v: int
    spacing: float
    wavelength: float

    RULES = {"n_h": _int_rule(1), "n_v": _int_rule(1),
             "spacing": _POSITIVE_RULE, "wavelength": _POSITIVE_RULE}

    def __post_init__(self):
        _check_rules(UpaGeometry, self)

    @property
    def n_t(self) -> int:
        return self.n_h * self.n_v


def element_positions(geom: UpaGeometry) -> np.ndarray:
    """(N_T, 3) element offsets relative to the first element."""
    i_h = np.repeat(np.arange(geom.n_h), geom.n_v)
    i_v = np.tile(np.arange(geom.n_v), geom.n_h)
    pos = np.zeros((geom.n_t, 3))
    pos[:, 1] = i_h * geom.spacing
    pos[:, 2] = i_v * geom.spacing
    return pos


def far_field_arv(theta: float, phi: float, geom: UpaGeometry) -> np.ndarray:
    """Far-field array response, unit norm.

    Spatial angles: horizontal d sin(phi) sin(theta) / lambda and vertical
    d cos(theta) / lambda; the Kronecker order matches element ordering.
    """
    ph = geom.spacing * math.sin(phi) * math.sin(theta) / geom.wavelength
    pv = geom.spacing * math.cos(theta) / geom.wavelength
    ramp_h = np.exp(-2j * math.pi * ph * np.arange(geom.n_h))
    ramp_v = np.exp(-2j * math.pi * pv * np.arange(geom.n_v))
    return np.kron(ramp_h, ramp_v) / math.sqrt(geom.n_t)


def near_field_arv(dists: np.ndarray, reference: float, geom: UpaGeometry) -> np.ndarray:
    """Near-field array response, unit norm, from the per-element
    propagation distances ``dists`` and the path's ``reference`` length."""
    phase = -2j * math.pi / geom.wavelength * (reference - dists)
    return np.exp(phase) / math.sqrt(dists.size)


def path_aods(geom: UpaGeometry, source: np.ndarray, bs_position):
    """Per-element (theta, phi, distance) toward ``source`` from the array
    whose first element sits at ``bs_position``.

    All angles are taken in the shared body frame: theta measured from +Z,
    phi from +X in the XY plane.
    """
    source = np.asarray(source, dtype=float)
    pos = element_positions(geom) + np.asarray(bs_position, dtype=float)
    diff = source[None, :] - pos
    dists = np.linalg.norm(diff, axis=1)
    if np.any(dists == 0):
        raise ValueError("source coincides with an array element")
    thetas = np.arccos(np.clip(diff[:, 2] / dists, -1.0, 1.0))
    phis = np.arctan2(diff[:, 1], diff[:, 0])
    return thetas, phis, dists


def effective_channels(blocks: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(K, N_T) physical channels with h_k[n] = c^(n) . blocks[k, n].

    ``blocks`` holds the (K, N_T, T) EM-domain channel blocks and
    ``coeffs`` the (N_T, T) stack of pattern coefficients; the
    block-diagonal structure of F_EM is used directly.
    """
    return np.einsum("kmt,mt->km", blocks, coeffs)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _echo(value) -> str:
    """An offending value as an error message shows it: ``reprlib.repr``,
    cut to 200 characters, since it still prints nested lists in full."""
    text = reprlib.repr(value)
    return text if len(text) <= 200 else text[:197] + "..."


def _check_rules(cls, obj) -> None:
    """Raise a ValueError naming the first field of ``obj`` that fails its rule
    in ``cls.RULES``, a map of field name to (what it must be, a test of it)."""
    for name, (what, admits) in cls.RULES.items():
        value = getattr(obj, name)
        if not admits(value):
            raise ValueError(f"{name}: must be {what}, got {_echo(value)}")


def assemble_channel(responses, counts, gains) -> np.ndarray:
    """(K, N_T, ...) channels h_k = sqrt(N_T / L_k) sum_l gains[l, n, ...]
    responses[l, n] over user k's L_k = ``counts[k]`` rows of the table.

    ``gains[p, n]`` is path ``p``'s gain at element ``n``: a scalar per
    element gives the (K, N_T) channels, and trailing axes broadcast, so the
    (P, N_T, T) basis vectors give the (K, N_T, T) EM-domain blocks.  Each
    user's rows are summed in path order.
    """
    if min(counts, default=0) < 1:
        raise ValueError("a user needs at least one path")
    gains = np.asarray(gains)
    terms = gains * responses.reshape(responses.shape + (1,) * (gains.ndim - 2))
    n_t, channels, start = responses.shape[1], [], 0
    for count in counts:
        channels.append(math.sqrt(n_t / count) * sum(terms[start : start + count]))
        start += count
    return np.stack(channels)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One downlink drop: the array geometry, the path table (one row per
    path, split into the K links by ``path_counts``), one weight per link,
    the table and the weights held as read-only copies of the arrays given,
    and ``blocks``, its EM-domain channel, lifted once on construction and
    read-only.  The budget over the noise is an argument of the solve, so
    one drop serves every budget."""

    geometry: UpaGeometry
    thetas: np.ndarray  # (P, N_T) per-element departure inclinations
    phis: np.ndarray  # (P, N_T) per-element departure azimuths
    responses: np.ndarray  # (P, N_T) alpha (.) a of each path
    path_counts: tuple  # (L_1, ..., L_K), summing to P
    weights: np.ndarray  # (K,)
    truncation: int = 4
    blocks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", _read_only(np.array(self.weights, dtype=float)))
        for name in ("thetas", "phis", "responses"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name))))
        shape = self.responses.shape
        if not self.thetas.shape == self.phis.shape == shape == shape[:1] + (self.geometry.n_t,):
            raise ValueError(
                f"thetas, phis and responses: need one (P, {self.geometry.n_t}) shape, "
                f"got {self.thetas.shape}, {self.phis.shape} and {shape}"
            )
        counts = tuple(self.path_counts)
        if not counts or any(type(c) is not int or c < 1 for c in counts) or (
            sum(counts) != shape[0]
        ):
            raise ValueError(f"path_counts: need ints >= 1 summing to {shape[0]}, got {counts}")
        object.__setattr__(self, "path_counts", counts)
        if self.weights.shape != (len(counts),):
            raise ValueError(f"weights: need shape ({len(counts)},), got {self.weights.shape}")
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "blocks", _read_only(self.em_channels()))

    @property
    def n_users(self) -> int:
        return len(self.path_counts)

    def em_channels(self) -> np.ndarray:
        """(K, N_T, T) EM-domain channel blocks: the path sum with the basis
        vectors at each path's per-element departure angles as gains."""
        gains = basis_vector(self.thetas, self.phis, self.truncation)  # (P, N_T, T)
        return assemble_channel(self.responses, self.path_counts, gains)


SPACING_WAVELENGTHS = 0.5  # element spacing of a generated array
SCATTERER_HEIGHT_M = 10.0  # scatterers lie at heights uniform in [0, this]


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for random scenario generation; defaults give a 3x3 array at
    30 GHz serving two users with three paths each.  The array's spacing and
    the scatterers' heights are the module constants above."""

    n_h: int = 3
    n_v: int = 3
    n_users: int = 2
    n_paths: int = 3
    frequency_hz: float = 30e9
    bs_position: tuple = (0.0, 0.0, 10.0)
    user_radius_m: float = 200.0
    weights: tuple | None = None
    field_mode: str = "far"
    truncation: int = 4

    RULES = {
        "n_h": _int_rule(1), "n_v": _int_rule(1), "n_users": _int_rule(1), "n_paths": _int_rule(1),
        "frequency_hz": _POSITIVE_RULE,
        "bs_position": ("a list of 3 finite numbers", lambda x: _is_numbers(x) and len(x) == 3),
        "user_radius_m": _POSITIVE_RULE,
        "weights": ("null or a list of positive finite numbers",
                    lambda x: x is None or _is_numbers(x) and all(b > 0 for b in x)),
        "field_mode": ("'far' or 'near'", lambda x: isinstance(x, str) and x in ("far", "near")),
        "truncation": _int_rule(0),
    }

    def __post_init__(self):
        _check_rules(ScenarioConfig, self)
        if self.weights is not None and len(self.weights) != self.n_users:
            raise ValueError(f"weights: need {self.n_users}, got {len(self.weights)}")
        # one stored form, so that equal configs compare equal and hash
        for name in ("bs_position", "weights"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(map(float, getattr(self, name))))

    @property
    def wavelength(self) -> float:
        return 299792458.0 / self.frequency_hz


def _make_path(geom, bs_position, source, extra_length, alpha, wavelength, far):
    """Per-element (thetas, phis, response) of the path toward ``source``
    with ``extra_length`` of onward travel; the complex gain carries
    free-space loss over the full path length."""
    thetas, phis, dists = path_aods(geom, source, bs_position)
    ref = float(np.linalg.norm(np.asarray(source) - np.asarray(bs_position))) + extra_length
    loss = wavelength / (4.0 * math.pi * ref)
    if far:
        return (
            np.full(geom.n_t, thetas[0]),
            np.full(geom.n_t, phis[0]),
            np.full(geom.n_t, alpha * loss)
            * far_field_arv(float(thetas[0]), float(phis[0]), geom),
        )
    # spherical spreading: per-element amplitude scales with ref / dist
    dists = dists + extra_length
    return thetas, phis, alpha * loss * ref / dists * near_field_arv(dists, ref, geom)


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Draw a random scenario, deterministic in (config, seed).

    Users are uniform in a ground-level disc around the base station; the
    first path of each user is line-of-sight, the rest bounce off
    scatterers drawn uniformly in the same disc at a height uniform in
    [0, SCATTERER_HEIGHT_M].  Complex path gains are circularly-symmetric
    unit-variance, scaled by the free-space loss lambda / (4 pi r) of the
    full path length.
    """
    rng = np.random.default_rng(seed)
    geom = UpaGeometry(
        n_h=config.n_h,
        n_v=config.n_v,
        spacing=SPACING_WAVELENGTHS * config.wavelength,
        wavelength=config.wavelength,
    )
    bs = np.asarray(config.bs_position, dtype=float)
    far = config.field_mode == "far"

    def disc_point(height):
        radius = config.user_radius_m * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([bs[0] + radius * math.cos(angle), bs[1] + radius * math.sin(angle), height])

    users = [disc_point(0.0) for _ in range(config.n_users)]
    paths = []
    for k in range(config.n_users):
        for ell in range(config.n_paths):
            alpha = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
            if ell == 0:
                source, extra = users[k], 0.0
            else:
                source = disc_point(rng.uniform(0.0, SCATTERER_HEIGHT_M))
                extra = float(np.linalg.norm(users[k] - source))
            paths.append(
                _make_path(geom, bs, source, extra, alpha, config.wavelength, far)
            )
    thetas, phis, responses = (np.stack(column) for column in zip(*paths))

    return Scenario(
        geometry=geom,
        thetas=thetas,
        phis=phis,
        responses=responses,
        path_counts=(config.n_paths,) * config.n_users,
        weights=np.ones(config.n_users) if config.weights is None else config.weights,
        truncation=config.truncation,
    )
