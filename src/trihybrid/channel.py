"""Array geometry, response vectors, and the EM-domain channel factorization.

A uniform planar array sits on the YOZ plane with the first element at the
base-station position; element ``n`` (1-based) with ``n = i_h * N_v + i_v + 1``
is offset by ``(0, i_h * d, i_v * d)``.  That horizontal-major ordering makes
the far-field response vector the Kronecker product of the horizontal and
vertical phase ramps.

The multipath channel of user k is

    h_k = sqrt(N_T / L_k) * sum_l  alpha_{k,l} (.) g_{k,l} (.) a_{k,l}

(elementwise products of complex gains, per-element antenna gains, and the
array response).  Writing each per-element gain through the harmonic basis
turns this into h_k = F_EM^T h_k^EM with a block-diagonal pattern-coefficient
stack F_EM and the EM-domain channel h_k^EM, one (N_T, T) block per user.
One path sum, ``assemble_channel``, gives both routes: with the basis vectors
as per-element gains it builds the blocks (``Scenario.em_channels``) that
``effective_channels`` contracts with the patterns, and with synthesized
gains it is the channel ``direct_channel_oracle`` audits them against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import basis_vector, synthesize_gain


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
    """Per-element departure geometry and complex gain of one path.

    In far-field mode all per-element angles, distances, and gains are
    identical; near-field paths carry the element-resolved values.
    """

    thetas: np.ndarray
    phis: np.ndarray
    dists: np.ndarray
    ref_dist: float
    gains: np.ndarray
    far_field: bool = True

    def __post_init__(self):
        for name in ("thetas", "phis", "dists", "gains"):
            arr = np.asarray(getattr(self, name))
            object.__setattr__(self, name, arr)
        n = self.thetas.size
        if not (self.phis.size == self.dists.size == self.gains.size == n):
            raise ValueError("per-element arrays must share one length")
        if np.any(self.dists <= 0) or self.ref_dist <= 0:
            raise ValueError("propagation distances must be positive")
        if self.far_field:
            for name in ("thetas", "phis", "gains"):
                arr = getattr(self, name)
                if not np.allclose(arr, arr.flat[0]):
                    raise ValueError(f"far-field path requires identical {name}")

    @property
    def n_elements(self) -> int:
        return self.thetas.size


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


def near_field_arv(path: PathGeometry, geom: UpaGeometry) -> np.ndarray:
    """Near-field array response from per-element propagation distances."""
    if np.any(path.dists <= 0):
        raise ValueError("propagation distances must be positive")
    phase = -2j * math.pi / geom.wavelength * (path.ref_dist - path.dists)
    return np.exp(phase) / math.sqrt(path.n_elements)


def path_arv(path: PathGeometry, geom: UpaGeometry) -> np.ndarray:
    """Response vector of a path under its field mode."""
    if path.far_field:
        return far_field_arv(float(path.thetas[0]), float(path.phis[0]), geom)
    return near_field_arv(path, geom)


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


def assemble_channel(paths, geom: UpaGeometry, gains) -> np.ndarray:
    """Multipath channel sqrt(N_T / L) sum_l gains[l, n, ...] (alpha_l a_l)[n].

    ``gains[l, n]`` is path ``l``'s gain at element ``n``: a scalar per
    element gives the (N_T,) channel, and trailing axes broadcast, so the
    (L, N_T, T) basis vectors give the (N_T, T) EM-domain block.
    """
    if len(paths) == 0:
        raise ValueError("a user needs at least one path")
    gains = np.asarray(gains)
    tail = (1,) * (gains.ndim - 2)
    acc = sum(
        g * (path.gains * path_arv(path, geom)).reshape(-1, *tail)
        for path, g in zip(paths, gains)
    )
    return math.sqrt(geom.n_t / len(paths)) * acc


def direct_channel_oracle(paths, geom: UpaGeometry, coeffs: np.ndarray) -> np.ndarray:
    """Channel computed without the EM-domain lift, as the per-path product
    of gain, pattern value, and response; used to audit the factorization."""
    coeffs = np.asarray(coeffs, dtype=float)
    gains = [
        [synthesize_gain(coeffs[n], p.thetas[n], p.phis[n]) for n in range(geom.n_t)]
        for p in paths
    ]
    return assemble_channel(paths, geom, np.array(gains))


@dataclass(frozen=True)
class Scenario:
    """One multi-user downlink drop: geometry, users, paths, and budgets."""

    geometry: UpaGeometry
    bs_position: np.ndarray
    user_positions: np.ndarray  # (K, 3)
    paths: tuple  # paths[k] = tuple of PathGeometry
    noise_powers: np.ndarray  # (K,) watts
    weights: np.ndarray  # (K,)
    p_max: float  # watts
    field_mode: str = "far"
    truncation: int = 4

    def __post_init__(self):
        for name in ("bs_position", "user_positions", "noise_powers", "weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.n_users < 1 or any(len(p) < 1 for p in self.paths):
            raise ValueError("need at least one user and one path per user")
        if np.any(self.noise_powers <= 0) or np.any(self.weights <= 0) or self.p_max <= 0:
            raise ValueError("noise powers, weights, and power budget must be positive")
        if self.field_mode not in ("far", "near"):
            raise ValueError(f"unknown field mode {self.field_mode!r}")

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
            blocks.append(assemble_channel(user, self.geometry, gains))
        return np.stack(blocks)


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for random scenario generation; defaults give a 3x3 array at
    30 GHz serving two users with three paths each."""

    n_h: int = 3
    n_v: int = 3
    n_users: int = 2
    n_paths: int = 3
    frequency_hz: float = 30e9
    spacing_wavelengths: float = 0.5
    bs_position: tuple = (0.0, 0.0, 10.0)
    user_radius_m: float = 200.0
    scatterer_height_m: float = 10.0
    noise_power_w: float = 10 ** ((-95.0 - 30.0) / 10.0)
    p_max_w: float = 10 ** ((10.0 - 30.0) / 10.0)
    weights: tuple | None = None
    field_mode: str = "far"
    truncation: int = 4

    def __post_init__(self):
        if self.n_users < 1 or self.n_paths < 1:
            raise ValueError("need at least one user and one path")
        if self.frequency_hz <= 0 or self.user_radius_m <= 0:
            raise ValueError("frequency and user radius must be positive")
        if self.noise_power_w <= 0 or self.p_max_w <= 0:
            raise ValueError("noise power and power budget must be positive")
        if self.field_mode not in ("far", "near"):
            raise ValueError(f"unknown field mode {self.field_mode!r}")
        if self.truncation < 0:
            raise ValueError(f"truncation degree must be >= 0, got {self.truncation}")
        weights = (1.0,) * self.n_users if self.weights is None else tuple(self.weights)
        if len(weights) != self.n_users or not all(b > 0 for b in weights):
            raise ValueError(f"weights: need {self.n_users} positive weights, got {weights}")

    @property
    def wavelength(self) -> float:
        return 299792458.0 / self.frequency_hz


def _make_path(geom, bs_position, source, extra_length, alpha, wavelength, far):
    """Path toward ``source`` with ``extra_length`` of onward travel; the
    complex gain carries free-space loss over the full path length."""
    thetas, phis, dists = path_aods(geom, source, bs_position)
    dists = dists + extra_length
    ref = float(np.linalg.norm(np.asarray(source) - np.asarray(bs_position))) + extra_length
    loss = wavelength / (4.0 * math.pi * ref)
    if far:
        return PathGeometry(
            thetas=np.full(geom.n_t, thetas[0]),
            phis=np.full(geom.n_t, phis[0]),
            dists=np.full(geom.n_t, ref),
            ref_dist=ref,
            gains=np.full(geom.n_t, alpha * loss),
            far_field=True,
        )
    # spherical spreading: per-element amplitude scales with ref / dist
    return PathGeometry(
        thetas=thetas,
        phis=phis,
        dists=dists,
        ref_dist=ref,
        gains=alpha * loss * ref / dists,
        far_field=False,
    )


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Draw a random scenario, deterministic in (config, seed).

    Users are uniform in a ground-level disc around the base station; the
    first path of each user is line-of-sight, the rest bounce off
    scatterers drawn uniformly in the same disc at random height.  Complex
    path gains are circularly-symmetric unit-variance, scaled by the
    free-space loss lambda / (4 pi r) of the full path length.
    """
    rng = np.random.default_rng(seed)
    geom = UpaGeometry(
        n_h=config.n_h,
        n_v=config.n_v,
        spacing=config.spacing_wavelengths * config.wavelength,
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
                source = disc_point(rng.uniform(0.0, config.scatterer_height_m))
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
        p_max=config.p_max_w,
        field_mode=config.field_mode,
        truncation=config.truncation,
    )
