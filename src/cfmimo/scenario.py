"""Scenario configuration and deterministic seeding.

One :class:`ScenarioConfig` describes a deployment: antenna/user counts, the
coverage area, radio powers, the noise budget and the propagation constants,
plus the Monte-Carlo controls (drops, sample counts, master seed).  Configs
are immutable after construction and safe to ship between worker processes.

Units are noted per field: powers in watts, distances in km unless a field
name says otherwise, spectral density in dBm/Hz.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

_U64_MASK = (1 << 64) - 1
# Odd Weyl increment; together with the finalizer below it makes the
# index -> seed map injective for any fixed master seed.
_SEED_INCREMENT = 0x9E3779B97F4A7C15

_PLACEMENTS = ("uniform", "grid")


class ConfigError(ValueError):
    """Any invalid or inconsistent configuration input."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical and simulation parameters for one deployment scenario.

    ``total_antennas`` must split evenly into sites of ``antennas_per_ap``
    antennas each; the number of sites is derived, never stored.
    """

    total_antennas: int = 300          # service antennas summed over all sites
    antennas_per_ap: int = 1           # antennas mounted on each site
    num_users: int = 16                # single-antenna user terminals
    area_side_km: float = 1.0          # side of the square coverage area, km
    ue_tx_power: float = 0.2           # uplink transmit power per user, W
    ap_per_antenna_tx_power: float = 0.2   # downlink budget per antenna, W
    noise_density_dbm_hz: float = -174.0   # thermal noise density
    noise_figure_db: float = 9.0
    bandwidth_hz: float = 5e6
    carrier_freq_mhz: float = 1900.0
    ap_height_m: float = 15.0
    ue_height_m: float = 1.65
    shadowing_sigma_db: float = 8.0
    breakpoint_d0_km: float = 0.01     # inner path-loss breakpoint
    breakpoint_d1_km: float = 0.05     # outer path-loss breakpoint
    drops: int = 200                   # Monte-Carlo topology draws
    chi_samples: int = 500             # channel draws per drop for precoder moments
    master_seed: int = 0               # root of every random stream, u64
    ap_placement: str = "uniform"      # "uniform" or "grid"
    fixed_ap: bool = False             # reuse one site layout across all drops

    def __post_init__(self):
        problems = _validate(self)
        if problems:
            raise ConfigError("; ".join(problems))


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _validate(cfg: ScenarioConfig) -> list[str]:
    """Collect every violation instead of stopping at the first."""
    p: list[str] = []

    # ZF moments need two draws for a standard error
    for name, least in (("total_antennas", 1), ("antennas_per_ap", 1),
                        ("num_users", 1), ("drops", 1), ("chi_samples", 2)):
        v = getattr(cfg, name)
        if not _is_int(v):
            p.append(f"{name} must be an integer, got {v!r}")
        elif v < least:
            p.append(f"{name} must be >= {least}, got {v}")

    if not _is_int(cfg.master_seed):
        p.append(f"master_seed must be an integer, got {cfg.master_seed!r}")
    elif not 0 <= cfg.master_seed <= _U64_MASK:
        p.append(f"master_seed must fit in 64 bits, got {cfg.master_seed}")

    for name in ("area_side_km", "ue_tx_power", "ap_per_antenna_tx_power",
                 "bandwidth_hz", "carrier_freq_mhz", "ap_height_m",
                 "ue_height_m", "breakpoint_d0_km", "breakpoint_d1_km"):
        v = getattr(cfg, name)
        if not _is_real(v):
            p.append(f"{name} must be a number, got {v!r}")
        elif not v > 0 or not math.isfinite(v):
            p.append(f"{name} must be finite and > 0, got {v}")

    for name in ("noise_density_dbm_hz", "noise_figure_db",
                 "shadowing_sigma_db"):
        v = getattr(cfg, name)
        if not _is_real(v):
            p.append(f"{name} must be a number, got {v!r}")
        elif not math.isfinite(v):
            p.append(f"{name} must be finite, got {v}")

    if _is_real(cfg.shadowing_sigma_db) and cfg.shadowing_sigma_db < 0:
        p.append(f"shadowing_sigma_db must be >= 0, got {cfg.shadowing_sigma_db}")
    if _is_real(cfg.noise_figure_db) and cfg.noise_figure_db < 0:
        p.append(f"noise_figure_db must be >= 0, got {cfg.noise_figure_db}")

    if (_is_real(cfg.breakpoint_d0_km) and _is_real(cfg.breakpoint_d1_km)
            and cfg.breakpoint_d0_km > 0
            and not cfg.breakpoint_d0_km < cfg.breakpoint_d1_km):
        p.append(f"breakpoint_d0_km ({cfg.breakpoint_d0_km}) must be smaller "
                 f"than breakpoint_d1_km ({cfg.breakpoint_d1_km})")

    if _is_int(cfg.total_antennas) and _is_int(cfg.antennas_per_ap) \
            and cfg.total_antennas >= 1 and cfg.antennas_per_ap >= 1 \
            and cfg.total_antennas % cfg.antennas_per_ap != 0:
        p.append(f"antennas_per_ap ({cfg.antennas_per_ap}) must divide "
                 f"total_antennas ({cfg.total_antennas})")

    if _is_int(cfg.total_antennas) and _is_int(cfg.num_users) \
            and not cfg.num_users < cfg.total_antennas:
        p.append(f"num_users ({cfg.num_users}) must be smaller than "
                 f"total_antennas ({cfg.total_antennas})")

    if cfg.ap_placement not in _PLACEMENTS:
        p.append(f"ap_placement must be one of {_PLACEMENTS}, "
                 f"got {cfg.ap_placement!r}")
    if not isinstance(cfg.fixed_ap, bool):
        p.append(f"fixed_ap must be a bool, got {cfg.fixed_ap!r}")
    elif cfg.fixed_ap and cfg.ap_placement == "grid":
        # a lattice is the same in every drop already, so the flag could
        # not change anything
        p.append("fixed_ap has no effect under ap_placement 'grid'; "
                 "leave it false")

    return p


def derive_site_count(cfg: ScenarioConfig) -> int:
    """Number of sites, ``total_antennas / antennas_per_ap``."""
    n_t = cfg.antennas_per_ap
    m = cfg.total_antennas
    if m % n_t != 0:
        raise ConfigError(f"antennas_per_ap ({n_t}) must divide "
                          f"total_antennas ({m})")
    return m // n_t


def derive_noise_power(cfg: ScenarioConfig) -> float:
    """Receiver noise power in watts over the configured bandwidth.

    Thermal density plus noise figure, integrated over the bandwidth and
    converted out of dBm: ``10 ** ((N0 + NF + 10 log10 B - 30) / 10)``.
    """
    total_dbm = (cfg.noise_density_dbm_hz + cfg.noise_figure_db
                 + 10.0 * math.log10(cfg.bandwidth_hz))
    return 10.0 ** ((total_dbm - 30.0) / 10.0)


def _mix64(x: int) -> int:
    # splitmix64 finalizer, a bijection on 64-bit words
    x &= _U64_MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64_MASK
    return (x ^ (x >> 31)) & _U64_MASK


def drop_seed(master_seed: int, drop_index: int) -> int:
    """Substream seed for one drop, as a 64-bit integer.

    Counter based: ``mix64(master + (index + 1) * increment)`` with an odd
    increment and the splitmix64 finalizer.  Distinct indices give distinct
    seeds for any fixed master (multiples of an odd constant are distinct
    modulo 2**64 and the finalizer is a bijection), so drops may run in any
    order, on any worker, and still see identical randomness.
    """
    if not _is_int(drop_index) or drop_index < 0:
        raise ConfigError(f"drop_index must be a non-negative integer, "
                          f"got {drop_index!r}")
    if not _is_int(master_seed) or not 0 <= master_seed <= _U64_MASK:
        raise ConfigError(f"master_seed must fit in 64 bits, got {master_seed!r}")
    counter = (master_seed + (drop_index + 1) * _SEED_INCREMENT) & _U64_MASK
    return _mix64(counter)


def ap_layout_seed(master_seed: int) -> int:
    """Seed for the shared site layout when ``fixed_ap`` is on.

    Occupies the reserved slot just below drop index 0 in the counter
    scheme of :func:`drop_seed`, so it never collides with any drop.
    """
    return _mix64(master_seed & _U64_MASK)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return asdict(cfg)


def load_config(path) -> ScenarioConfig:
    """Read a JSON config file.

    The file is one object whose keys are exactly the ScenarioConfig field
    names (all optional, defaults apply).  Unknown keys are an error, never
    silently dropped.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")

    known = {f.name for f in fields(ScenarioConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return ScenarioConfig(**raw)
