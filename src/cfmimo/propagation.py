"""Topology and large-scale fading.

Sites and users are dropped on a square area; each site/user pair gets a
large-scale power gain built from a three-slope urban path-loss curve plus
log-normal shadowing, and a matching channel-estimate quality derived from
the pilot SNR.  Everything here is per site pair: antennas on the same site
share one gain, the expansion to antennas happens in the channel module.

Distances are in km throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ConfigError, ScenarioConfig, ap_layout_seed, \
    derive_noise_power, derive_site_count


@dataclass(frozen=True)
class Topology:
    """Site and user coordinates in km, each an (n, 2) array."""

    ap_positions: np.ndarray
    ue_positions: np.ndarray

    def __post_init__(self):
        for name in ("ap_positions", "ue_positions"):
            arr = getattr(self, name)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ConfigError(f"{name} must be an (n, 2) array, "
                                  f"got shape {arr.shape}")


@dataclass(frozen=True)
class FadingProfile:
    """Large-scale state of one drop.

    ``beta`` holds the linear channel gains and ``alpha`` the variances of
    the corresponding channel estimates, both (sites, users).  The antenna
    count per site rides along so antenna-level code can expand rows.
    """

    beta: np.ndarray
    alpha: np.ndarray
    antennas_per_site: int

    def __post_init__(self):
        if self.beta.shape != self.alpha.shape or self.beta.ndim != 2:
            raise ConfigError(f"beta/alpha must share one 2-d shape, got "
                              f"{self.beta.shape} and {self.alpha.shape}")
        if self.antennas_per_site < 1:
            raise ConfigError(f"antennas_per_site must be >= 1, "
                              f"got {self.antennas_per_site}")
        if not (np.isfinite(self.beta).all() and np.isfinite(self.alpha).all()):
            raise ConfigError("beta/alpha must be finite")
        if (self.beta < 0).any() or (self.alpha < 0).any():
            raise ConfigError("beta/alpha must be non-negative")
        if (self.alpha > self.beta * (1 + 1e-12) + 1e-300).any():
            raise ConfigError("estimate variance alpha exceeds channel "
                              "gain beta")

    @property
    def num_sites(self) -> int:
        return self.beta.shape[0]

    @property
    def num_users(self) -> int:
        return self.beta.shape[1]


def l0_constant(carrier_freq_mhz: float, ap_height_m: float,
                ue_height_m: float) -> float:
    """Fixed part of the path-loss curve, in dB.

    Urban macro fit evaluated at the carrier frequency (MHz) and the two
    antenna heights (m); all three inputs must be positive.
    """
    if not (carrier_freq_mhz > 0 and ap_height_m > 0 and ue_height_m > 0):
        raise ConfigError(f"l0_constant needs positive inputs, got "
                          f"({carrier_freq_mhz}, {ap_height_m}, {ue_height_m})")
    lf = math.log10(carrier_freq_mhz)
    return (46.3 + 33.9 * lf - 13.82 * math.log10(ap_height_m)
            - (1.1 * lf - 0.7) * ue_height_m + 1.56 * lf - 0.8)


def path_loss_db(d_km, l0_db: float, d0_km: float, d1_km: float):
    """Three-slope path loss in dB (a gain, so always negative here).

    Beyond ``d1`` the loss follows a 3.5-exponent slope, between the
    breakpoints a square-law slope, and inside ``d0`` it stays flat at the
    ``d0`` value, so the curve is continuous and bounded as d -> 0.
    Returns an array shaped like ``d_km``.
    """
    if not 0 < d0_km < d1_km:
        raise ConfigError(f"need 0 < d0 < d1, got d0={d0_km}, d1={d1_km}")
    d = np.asarray(d_km, dtype=float)
    if (d < 0).any():
        raise ConfigError("distances must be >= 0")
    # clip the argument per branch so the unused branches never see log(0)
    d_far = np.maximum(d, d1_km)
    d_mid = np.maximum(d, d0_km)
    far = -l0_db - 35.0 * np.log10(d_far)
    mid = -l0_db - 10.0 * np.log10(d1_km ** 1.5 * d_mid ** 2)
    near = -l0_db - 10.0 * math.log10(d1_km ** 1.5 * d0_km ** 2)
    return np.where(d > d1_km, far, np.where(d > d0_km, mid, near))


def large_scale_gain(d_km, shadow_db, l0_db: float, cfg: ScenarioConfig):
    """Linear power gain: path loss plus shadowing, out of dB."""
    pl = path_loss_db(d_km, l0_db, cfg.breakpoint_d0_km, cfg.breakpoint_d1_km)
    return 10.0 ** ((pl + np.asarray(shadow_db, dtype=float)) / 10.0)


def mmse_alpha(p_u: float, beta, sigma_n2: float) -> np.ndarray:
    """Variance of the linear-MMSE channel estimate.

    ``alpha = p_u beta^2 / (p_u beta + sigma_n2)``; zero where the channel
    gain itself is zero.  The estimation error keeps the remaining
    ``beta - alpha``.
    """
    if p_u < 0 or sigma_n2 < 0:
        raise ConfigError("p_u and sigma_n2 must be >= 0")
    b = np.asarray(beta, dtype=float)
    denom = p_u * b + sigma_n2
    safe = np.where(denom > 0, denom, 1.0)
    return np.where(denom > 0, p_u * b * b / safe, 0.0)


def _grid_positions(n: int, side: float) -> np.ndarray:
    """First ``n`` cell centers of the smallest square lattice covering n."""
    cols = math.isqrt(n)
    if cols * cols < n:
        cols += 1
    rows = math.ceil(n / cols)
    step_x = side / cols
    step_y = side / rows
    pts = [((i % cols + 0.5) * step_x, (i // cols + 0.5) * step_y)
           for i in range(n)]
    return np.array(pts, dtype=float)


def place_topology(cfg: ScenarioConfig, rng: np.random.Generator) -> Topology:
    """Draw one topology.

    Sites first, then users, both uniform on the square, so user positions
    are reproducible regardless of the site mode.  ``ap_placement="grid"``
    swaps the random sites for a deterministic lattice; ``fixed_ap`` draws
    the sites once from a reserved seed so every drop shares one layout.
    The lattice is already shared by every drop, so the config rejects
    ``fixed_ap`` together with grid placement.
    """
    n_ap = derive_site_count(cfg)
    side = cfg.area_side_km
    if cfg.ap_placement == "grid":
        aps = _grid_positions(n_ap, side)
    elif cfg.fixed_ap:
        ap_rng = np.random.default_rng(ap_layout_seed(cfg.master_seed))
        aps = ap_rng.uniform(0.0, side, size=(n_ap, 2))
    else:
        aps = rng.uniform(0.0, side, size=(n_ap, 2))
    ues = rng.uniform(0.0, side, size=(cfg.num_users, 2))
    return Topology(ap_positions=aps, ue_positions=ues)


def fading_profile(cfg: ScenarioConfig, topology: Topology,
                   rng: np.random.Generator) -> FadingProfile:
    """Large-scale gains and estimate variances for one topology.

    Shadowing is one i.i.d. normal draw per site/user pair, taken as a
    single (sites, users) block from ``rng``.
    """
    diff = topology.ap_positions[:, None, :] - topology.ue_positions[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    l0 = l0_constant(cfg.carrier_freq_mhz, cfg.ap_height_m, cfg.ue_height_m)
    shadow = rng.normal(0.0, cfg.shadowing_sigma_db, size=dist.shape)
    beta = large_scale_gain(dist, shadow, l0, cfg)
    alpha = mmse_alpha(cfg.ue_tx_power, beta, derive_noise_power(cfg))
    return FadingProfile(beta=beta, alpha=alpha,
                         antennas_per_site=cfg.antennas_per_ap)
