"""Uplink maximum-ratio combining with statistics-based detection.

The receiver combines with the conjugated channel estimates but detects
using only the mean of the effective gain, so the received sample splits
into five zero-mean-orthogonal parts: the deterministic desired part, the
fluctuation of the effective gain around its mean (channel uncertainty),
the estimation-error leakage, inter-user interference, and combined noise.
Their powers have closed forms in the large-scale state alone
(:func:`uplink_term_variances`, keyed like the CBF parts of
:func:`downlink.cbf_term_variances`), and the effective SINR for user k
with n_t antennas per site is

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


def _eta_vector(pc: UplinkPowerControl, num_users: int) -> np.ndarray:
    if pc.eta.shape[0] != num_users:
        raise ConfigError(f"eta has {pc.eta.shape[0]} entries for "
                          f"{num_users} users")
    return pc.eta


def uplink_term_variances(profile: FadingProfile, pc: UplinkPowerControl,
                          k: int, cfg: ScenarioConfig) -> dict:
    """Closed-form powers of the five received-sample parts of user ``k``.

    Keyed desired, uncertainty, est_error, inter_user and noise, as
    :func:`downlink.cbf_term_variances` keys the CBF parts; the desired
    power over the sum of the other four is :func:`uplink_sinr_all`'s
    entry k.
    """
    alpha, beta = profile.alpha, profile.beta
    n_t = profile.antennas_per_site
    eta_vec = _eta_vector(pc, profile.num_users)
    if not 0 <= k < profile.num_users:
        raise ConfigError(f"user index {k} out of range")
    p_u = cfg.ue_tx_power
    sigma_n2 = derive_noise_power(cfg)

    a = alpha[:, k]
    a_k = float(a.sum())
    power = p_u * eta_vec[k]                   # user k's transmit power
    others = np.delete(np.arange(profile.num_users), k)
    return {
        "desired": power * (n_t * a_k) ** 2,
        "uncertainty": power * (n_t * float((a ** 2).sum())),
        "est_error": power * n_t * float((a * (beta[:, k] - a)).sum()),
        "inter_user": p_u * n_t * float(
            (eta_vec[others] * (a[:, None] * beta[:, others]).sum(axis=0)).sum()),
        "noise": sigma_n2 * n_t * a_k,
    }


def uplink_sinr_all(profile: FadingProfile, pc: UplinkPowerControl,
                    cfg: ScenarioConfig) -> np.ndarray:
    """Effective SINR of every user at once, shape (users,)."""
    alpha, beta = profile.alpha, profile.beta
    n_t = profile.antennas_per_site
    eta_vec = _eta_vector(pc, profile.num_users)
    p_u = cfg.ue_tx_power
    sigma_n2 = derive_noise_power(cfg)

    a = alpha.sum(axis=0)                      # (users,)
    site_load = beta @ eta_vec                 # sum_i eta_i beta_qi, (sites,)
    interference = alpha.T @ site_load         # (users,)
    num = p_u * eta_vec * (n_t * a) ** 2
    den = p_u * n_t * interference + sigma_n2 * n_t * a
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def per_user_rate(gamma) -> np.ndarray:
    """Spectral efficiency log2(1 + gamma), elementwise, bit/s/Hz."""
    g = np.asarray(gamma, dtype=float)
    if (g < 0).any():
        raise ValueError("SINR must be >= 0")
    out = np.log2(1.0 + g)
    if np.ndim(gamma) == 0:
        return float(out)
    return out
