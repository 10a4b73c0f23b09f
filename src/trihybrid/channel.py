"""Array geometry, response vectors, and the EM-domain channel factorization.

A uniform planar array sits on the YOZ plane with the first element at the
base-station position; element ``n`` (1-based) with ``n = i_h * N_v + i_v + 1``
is offset by ``(0, i_h * d, i_v * d)``.  That horizontal-major ordering makes
the far-field response vector the Kronecker product of the horizontal and
vertical phase ramps.

The multipath channel of user k is

    h_k = sqrt(N_T / L_k) * sum_l  alpha_{k,l} (.) g_{k,l} (.) a_{k,l}

(elementwise products of complex gains, per-element antenna gains, and the
array response).  A path (``PathGeometry``) is its per-element departure
angles, where the antenna gains g are evaluated, and its response
alpha (.) a, formed once when the path is drawn from the far- or near-field
array response.  Writing each per-element gain through the harmonic basis
turns this into h_k = F_EM^T h_k^EM with a block-diagonal pattern-coefficient
stack F_EM and the EM-domain channel h_k^EM, one (N_T, T) block per user.
One path sum, ``assemble_channel(paths, gains)``, builds the channel under
any per-element gains: with the basis vectors as gains it gives the blocks
(``Scenario.em_channels``) that ``effective_channels`` contracts with the
patterns, and with a candidate set's gains the projected channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import basis_vector


@dataclass(frozen=True)
class UpaGeometry:
    """N_h x N_v uniform planar array on the YOZ plane."""

    n_h: int
    n_v: int
    spacing: float
    wavelength: float

    def __post_init__(self):
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError("element counts must be >= 1")
        if self.spacing <= 0 or self.wavelength <= 0:
            raise ValueError("spacing and wavelength must be positive")

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


@dataclass(frozen=True)
class PathGeometry:
    """One path: per-element departure angles and response.

    ``thetas`` and ``phis`` are the departure angles at each element, where
    the pattern gains are evaluated; ``response`` is the per-element complex
    gain times the array response, alpha (.) a, which the path sum weights
    by those gains.  A far-field path has the same angles at every element.
    """

    thetas: np.ndarray
    phis: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        for name in ("thetas", "phis", "response"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if not (self.thetas.size == self.phis.size == self.response.size):
            raise ValueError("per-element arrays must share one length")


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


def path_aods(geom: UpaGeometry, source: np.ndarray, bs_position=None):
    """Per-element (theta, phi, distance) toward ``source``.

    All angles are taken in the shared body frame: theta measured from +Z,
    phi from +X in the XY plane.
    """
    source = np.asarray(source, dtype=float)
    origin = np.zeros(3) if bs_position is None else np.asarray(bs_position, dtype=float)
    pos = element_positions(geom) + origin
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


def assemble_channel(paths, gains) -> np.ndarray:
    """Multipath channel sqrt(N_T / L) sum_l gains[l, n, ...] response_l[n].

    ``gains[l, n]`` is path ``l``'s gain at element ``n``: a scalar per
    element gives the (N_T,) channel, and trailing axes broadcast, so the
    (L, N_T, T) basis vectors give the (N_T, T) EM-domain block.
    """
    if len(paths) == 0:
        raise ValueError("a user needs at least one path")
    gains = np.asarray(gains)
    tail = (1,) * (gains.ndim - 2)
    acc = sum(
        g * path.response.reshape(-1, *tail) for path, g in zip(paths, gains)
    )
    return math.sqrt(paths[0].response.size / len(paths)) * acc


@dataclass(frozen=True)
class Scenario:
    """One multi-user downlink drop: geometry, users, paths, noise and
    weights, and ``blocks``, its EM-domain channel, lifted once on
    construction and read-only.  The power budget is an argument of the
    solve, so one drop serves every budget."""

    geometry: UpaGeometry
    bs_position: np.ndarray
    user_positions: np.ndarray  # (K, 3)
    paths: tuple  # paths[k] = tuple of PathGeometry
    noise_powers: np.ndarray  # (K,) watts
    weights: np.ndarray  # (K,)
    truncation: int = 4
    blocks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("bs_position", "user_positions", "noise_powers", "weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.n_users < 1 or any(len(p) < 1 for p in self.paths):
            raise ValueError("need at least one user and one path per user")
        if np.any(self.noise_powers <= 0) or np.any(self.weights <= 0):
            raise ValueError("noise powers and weights must be positive")
        blocks = self.em_channels()
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_users(self) -> int:
        return len(self.paths)

    def em_channels(self) -> np.ndarray:
        """(K, N_T, T) EM-domain channel blocks: the path sum with the basis
        vectors at each path's per-element departure angles as gains."""
        blocks = []
        for user in self.paths:
            thetas = np.stack([p.thetas for p in user])  # (L, N_T)
            phis = np.stack([p.phis for p in user])
            gains = basis_vector(thetas, phis, self.truncation)  # (L, N_T, T)
            blocks.append(assemble_channel(user, gains))
        return np.stack(blocks)


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
    noise_power_w: float = 10 ** ((-95.0 - 30.0) / 10.0)
    weights: tuple | None = None
    field_mode: str = "far"
    truncation: int = 4

    def __post_init__(self):
        counts = (self.n_h, self.n_v, self.n_users, self.n_paths)
        if min(counts) < 1:
            raise ValueError(
                f"n_h, n_v, n_users and n_paths: need each >= 1, got {counts}"
            )
        # each check is written so that NaN and inf fail it
        radio = (self.frequency_hz, self.user_radius_m)
        if not all(math.isfinite(x) and x > 0 for x in radio):
            raise ValueError("frequency and user radius must be positive and finite")
        if not (math.isfinite(self.noise_power_w) and self.noise_power_w > 0):
            raise ValueError("noise power must be positive and finite")
        bs = self.bs_position
        if len(bs) != 3 or not all(map(math.isfinite, bs)):
            raise ValueError(f"bs_position: need 3 finite coordinates, got {bs}")
        if self.field_mode not in ("far", "near"):
            raise ValueError(f"unknown field mode {self.field_mode!r}")
        if self.truncation < 0:
            raise ValueError(f"truncation degree must be >= 0, got {self.truncation}")
        weights = (1.0,) * self.n_users if self.weights is None else tuple(self.weights)
        if len(weights) != self.n_users or not all(
            math.isfinite(b) and b > 0 for b in weights
        ):
            raise ValueError(
                f"weights: need {self.n_users} positive finite weights, got {weights}"
            )

    @property
    def wavelength(self) -> float:
        return 299792458.0 / self.frequency_hz


def _make_path(geom, bs_position, source, extra_length, alpha, wavelength, far):
    """Path toward ``source`` with ``extra_length`` of onward travel; the
    complex gain carries free-space loss over the full path length."""
    thetas, phis, dists = path_aods(geom, source, bs_position)
    ref = float(np.linalg.norm(np.asarray(source) - np.asarray(bs_position))) + extra_length
    loss = wavelength / (4.0 * math.pi * ref)
    if far:
        return PathGeometry(
            thetas=np.full(geom.n_t, thetas[0]),
            phis=np.full(geom.n_t, phis[0]),
            response=np.full(geom.n_t, alpha * loss)
            * far_field_arv(float(thetas[0]), float(phis[0]), geom),
        )
    # spherical spreading: per-element amplitude scales with ref / dist
    dists = dists + extra_length
    return PathGeometry(
        thetas=thetas,
        phis=phis,
        response=alpha * loss * ref / dists * near_field_arv(dists, ref, geom),
    )


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

    users = np.stack([disc_point(0.0) for _ in range(config.n_users)])
    all_paths = []
    for k in range(config.n_users):
        paths = []
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
        all_paths.append(tuple(paths))

    return Scenario(
        geometry=geom,
        bs_position=bs,
        user_positions=users,
        paths=tuple(all_paths),
        noise_powers=np.full(config.n_users, config.noise_power_w),
        weights=np.ones(config.n_users) if config.weights is None else config.weights,
        truncation=config.truncation,
    )
