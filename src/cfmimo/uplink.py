"""Uplink maximum-ratio combining with statistics-based detection.

The receiver combines with the conjugated channel estimates but detects
using only the mean of the effective gain, so the received sample splits
into five zero-mean-orthogonal parts (Ngo et al., "Cell-free massive MIMO
versus small cells", IEEE TWC 2017): the deterministic desired part, the
fluctuation of the effective gain around its mean (channel uncertainty),
the estimation-error leakage, inter-user interference, and combined noise.
Their powers have closed forms in the large-scale state alone, all users
at once in :func:`uplink_term_variances`.  Every scheme takes its SINR
from its parts by one rule, :func:`sinr_from_parts`: the desired power
over the sum of the others, here, for user k with n_t antennas per site,

    p_u eta_k n_t^2 (sum_q alpha_qk)^2
    -----------------------------------------------------------------
    p_u n_t sum_i eta_i sum_q alpha_qk beta_qi + sigma^2 n_t sum_q alpha_qk

with the convention gamma = 0 when user k has no estimate energy at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import FadingProfile
from .scenario import ConfigError, ScenarioConfig, derive_noise_power


@dataclass(frozen=True)
class UplinkPowerControl:
    """Per-user transmit power fractions eta in [0, 1], shape (users,)."""

    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim != 1:
            raise ConfigError(f"eta must be 1-d, got shape {eta.shape}")
        if not np.isfinite(eta).all() or (eta < 0).any() or (eta > 1).any():
            raise ConfigError("uplink power fractions must lie in [0, 1]")
        object.__setattr__(self, "eta", eta)

    @classmethod
    def full_power(cls, num_users: int) -> "UplinkPowerControl":
        return cls(eta=np.ones(num_users))


def uplink_term_variances(profile: FadingProfile, pc: UplinkPowerControl,
                          cfg: ScenarioConfig) -> dict:
    """Closed-form powers of the five received-sample parts of every user.

    Keyed desired, uncertainty, est_error, inter_user and noise, each of
    shape (users,).
    """
    alpha, beta = profile.alpha, profile.beta
    sites, users = alpha.shape
    eta = pc.eta
    if eta.shape[0] != users:
        raise ConfigError(f"eta has {eta.shape[0]} entries for {users} users")
    n_t = profile.antennas_per_site

    # own[k, i] = sum_q alpha_qk alpha_qi and spill the same with beta_qi -
    # alpha_qi; off the diagonal, own + spill is user i's gain at k's combiner
    own = alpha.T @ alpha
    spill = alpha.T @ (beta - alpha)
    cross = own + spill
    cross.flat[::users + 1] = 0.0
    a = np.ones(sites) @ alpha                 # sum_q alpha_qk
    scaled = n_t * cfg.ue_tx_power * eta       # p_u eta_k n_t
    return {
        "desired": scaled * n_t * a ** 2,
        "uncertainty": scaled * own.diagonal(),
        "est_error": scaled * spill.diagonal(),
        "inter_user": cross @ scaled,
        "noise": derive_noise_power(cfg) * n_t * a,
    }


def uplink_sinr_all(profile: FadingProfile, pc: UplinkPowerControl,
                    cfg: ScenarioConfig) -> np.ndarray:
    """Effective SINR of every user at once, shape (users,)."""
    return sinr_from_parts(uplink_term_variances(profile, pc, cfg))


def sinr_from_parts(parts: dict) -> np.ndarray:
    """Per-user SINR: the first part's power over the sum of the others'.

    ``parts`` is a ``*_term_variances`` dict, the desired part first; a
    user whose other parts sum to 0 gets SINR 0.
    """
    desired, first, *more = parts.values()
    rest = sum(more, first)
    # where the other parts sum to 0, dividing by inf gives the SINR 0
    return desired / np.where(rest != 0, rest, np.inf)


def per_user_rate(gamma) -> np.ndarray:
    """Spectral efficiency log2(1 + gamma), elementwise, bit/s/Hz."""
    g = np.asarray(gamma, dtype=float)
    if (g < 0).any():
        raise ValueError("SINR must be >= 0")
    return np.log2(1.0 + g)
