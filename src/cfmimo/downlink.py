"""Downlink precoding: conjugate beamforming and zero-forcing.

Conjugate beamforming (CBF) admits a fully closed-form treatment: with the
statistics-aware per-site power normalization every antenna radiates its
power budget exactly in expectation, and the per-user SINR is

    p_d n_t^2 (sum_q sqrt(eta_q) alpha_qk)^2
    ------------------------------------------------------------
    sigma^2 + p_d n_t sum_q beta_qk eta_q sum_i alpha_qi

Zero-forcing (ZFP) inverts the estimated channel, so its interference
statistics depend on the inverse Gram matrix and have no closed form.  The
two second moments the SINR needs, the per-antenna precoder load and the
estimation-error leakage through the pseudo-inverse, are estimated by
Monte-Carlo over channel estimates; with those numbers the SINR for user k
under a common power scale eta is

    p_d eta / (sigma^2 + p_d eta sum_i chi[k, i])

where chi[k, i] is the mean leaked power of user k's estimation error into
the stream of user i.

The Monte-Carlo pass runs in cache-sized blocks of estimate draws that
together consume the generator's stream exactly as one batch of all draws
would, and it adds every draw into its sums in draw order, so its output is
bit-for-bit independent of the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BLOCK_ELEMENTS, NumericalError, batch_sizes, \
    conditioned_grams, expand_site_to_antennas, sample_estimates
from .propagation import FadingProfile
from .scenario import ConfigError, ScenarioConfig, derive_noise_power


@dataclass(frozen=True)
class CbfPowerControl:
    """Per-site CBF power scales, shape (sites,)."""

    eta_site: np.ndarray


@dataclass(frozen=True)
class ZfpPowerControl:
    """Common ZFP power scale with the audit trail of its estimation.

    ``antenna_load`` is the estimated mean precoder energy per antenna
    (summed over users) that the scale was normalized against, with its
    per-antenna standard error in ``load_stderr``.
    """

    eta_common: float
    antenna_load: np.ndarray
    load_stderr: np.ndarray
    n_samples: int
    n_resampled: int


@dataclass(frozen=True)
class ChiMatrix:
    """Estimation-error leakage moments chi[k, i] with standard errors."""

    chi: np.ndarray
    stderr: np.ndarray
    n_samples: int
    n_resampled: int


def cbf_power(profile: FadingProfile) -> CbfPowerControl:
    """Full-power per-site scales, eta_q = 1 / sum_k alpha_qk.

    Chosen so each antenna's expected radiated power equals its budget
    exactly; a site with zero total estimate energy cannot be normalized.
    """
    load = profile.alpha.sum(axis=1)
    dead = np.flatnonzero(load <= 0)
    if dead.size:
        raise ConfigError(f"site {dead[0]} has zero total estimate energy, "
                          "cannot normalize CBF power")
    return CbfPowerControl(eta_site=1.0 / load)


def cbf_sinr_all(profile: FadingProfile, pc: CbfPowerControl,
                 cfg: ScenarioConfig) -> np.ndarray:
    """Closed-form CBF SINR of every user, shape (users,)."""
    alpha, beta = profile.alpha, profile.beta
    n_t = profile.antennas_per_site
    eta = np.asarray(pc.eta_site, dtype=float)
    if eta.shape != (profile.num_sites,):
        raise ConfigError(f"eta_site has shape {eta.shape} for "
                          f"{profile.num_sites} sites")
    if (eta < 0).any():
        raise ConfigError("eta_site must be >= 0")
    p_d = cfg.ap_per_antenna_tx_power
    sigma_n2 = derive_noise_power(cfg)

    coherent = alpha.T @ np.sqrt(eta)          # sum_q sqrt(eta_q) alpha_qk
    site_energy = eta * alpha.sum(axis=1)      # eta_q sum_i alpha_qi
    den = sigma_n2 + p_d * n_t * (beta.T @ site_energy)
    num = p_d * (n_t * coherent) ** 2
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def cbf_term_variances(profile: FadingProfile, pc: CbfPowerControl, k: int,
                       cfg: ScenarioConfig) -> dict:
    """Closed-form powers of the five CBF received-sample parts of user ``k``.

    Keyed desired, uncertainty, est_error, inter_user and noise; the desired
    power over the sum of the other four is :func:`cbf_sinr_all`'s entry k.
    """
    if not 0 <= k < profile.num_users:
        raise ConfigError(f"user index {k} out of range")
    beta_mk, alpha_mk = expand_site_to_antennas(profile)
    eta_m = np.repeat(np.asarray(pc.eta_site, dtype=float),
                      profile.antennas_per_site)
    p_d = cfg.ap_per_antenna_tx_power
    a_k, b_k = alpha_mk[:, k], beta_mk[:, k]
    inter = 0.0
    for i in range(profile.num_users):
        if i != k:
            inter += float((eta_m * b_k * alpha_mk[:, i]).sum())
    return {
        "desired": p_d * float((np.sqrt(eta_m) * a_k).sum()) ** 2,
        "uncertainty": p_d * float((eta_m * a_k ** 2).sum()),
        "est_error": p_d * float((eta_m * a_k * (b_k - a_k)).sum()),
        "inter_user": p_d * inter,
        "noise": derive_noise_power(cfg),
    }


def _add_in_order(total: np.ndarray, block: np.ndarray) -> np.ndarray:
    # total + block[0] + block[1] + ..., left to right: the additions of one
    # running sum over all draws, so the result is independent of blocking
    stack = np.empty((len(block) + 1,) + total.shape)
    stack[0] = total
    stack[1:] = block
    return stack.sum(axis=0)


def zfp_moments(profile: FadingProfile, cfg: ScenarioConfig,
                rng: np.random.Generator,
                n_samples: int | None = None) -> tuple[ChiMatrix, ZfpPowerControl]:
    """Both ZFP moment estimates from one Monte-Carlo pass over estimate draws.

    ``chi[k, i]`` is the mean of ``sum_m (beta_mk - alpha_mk) |W_mi|^2``
    over estimate draws, with W the unscaled pseudo-inverse precoder: the
    power of user k's estimation error leaking into stream i.  Perfect
    estimates give an exactly zero matrix.  The common power scale
    normalizes against the most loaded antenna, eta = 1 / max_m sum_i
    E|W_mi|^2, so that antenna radiates its per-antenna budget exactly in
    expectation and no antenna exceeds it.  ``n_samples`` defaults to the
    config's ``chi_samples``.

    The pass streams over blocks of about :data:`channel.BLOCK_ELEMENTS`
    estimate entries, so each block's intermediates stay in cache.  The
    blocks draw in turn from ``rng`` and together consume exactly the stream
    of one ``n_samples`` batch; every draw's precoder is computed by the same
    per-matrix products as in one batch, and the sums run draw by draw in
    draw order, so the result does not depend on the block size.  A draw
    whose Gram matrix is singular (see :func:`channel.invert_grams`) is
    redrawn from the same stream right after its block's draws; more than
    one percent of such draws aborts with :class:`NumericalError`.
    """
    n = cfg.chi_samples if n_samples is None else n_samples
    if n < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n}")
    beta_mk, alpha_mk = expand_site_to_antennas(profile)
    m, k = beta_mk.shape
    if m < k:
        raise ConfigError(f"zero-forcing needs at least as many antennas as "
                          f"users, got {m} antennas for {k} users")
    err_var_t = np.ascontiguousarray((beta_mk - alpha_mk).T)  # (users, antennas)

    chi_sum = np.zeros((k, k))
    chi_sq_sum = np.zeros((k, k))
    delta_sum = np.zeros((m, k))
    load_sq_sum = np.zeros(m)
    resampled = 0

    sizes = batch_sizes(n, max(1, BLOCK_ELEMENTS // (m * k)))

    def draw(b):
        return (sample_estimates(profile, rng, b),)

    for batch in conditioned_grams(draw, sizes):
        w = batch.g_conj @ batch.inv                    # (block, antennas, users)
        # |W|^2 is written under the running delta sum, as _add_in_order
        # would stack it, without copying the block
        stack = np.empty((len(w) + 1, m, k))
        stack[0] = delta_sum
        w2 = stack[1:]
        np.square(w.real, out=w2)
        w2 += w.imag ** 2
        delta_sum = stack.sum(axis=0)
        load_sq_sum = _add_in_order(load_sq_sum, w2.sum(axis=2) ** 2)
        chi_block = err_var_t @ w2                      # (block, users, users)
        chi_sum = _add_in_order(chi_sum, chi_block)
        chi_sq_sum = _add_in_order(chi_sq_sum, chi_block ** 2)
        resampled = batch.redrawn

    chi = chi_sum / n
    # delta[m, i] = E|W_mi|^2, the per-antenna per-stream precoder energy
    load = (delta_sum / n).sum(axis=1)
    if n > 1:
        var = np.maximum(chi_sq_sum - n * chi ** 2, 0.0) / (n - 1)
        stderr = np.sqrt(var / n)
        load_var = np.maximum(load_sq_sum - n * load ** 2, 0.0) / (n - 1)
        load_se = np.sqrt(load_var / n)
    else:
        stderr = np.full((k, k), np.nan)
        load_se = np.full(m, np.nan)
    peak = float(load.max())
    if not peak > 0:
        raise NumericalError("estimated precoder load is zero everywhere")
    return (ChiMatrix(chi=chi, stderr=stderr, n_samples=n,
                      n_resampled=resampled),
            ZfpPowerControl(eta_common=1.0 / peak, antenna_load=load,
                            load_stderr=load_se, n_samples=n,
                            n_resampled=resampled))


def zfp_sinr_all(profile: FadingProfile, pc: ZfpPowerControl, chi: ChiMatrix,
                 cfg: ScenarioConfig) -> np.ndarray:
    """ZFP SINR of every user under the common power scale, shape (users,)."""
    eta = float(pc.eta_common)
    if eta < 0:
        raise ConfigError(f"eta_common must be >= 0, got {eta}")
    if chi.chi.shape != (profile.num_users, profile.num_users):
        raise ConfigError(f"chi has shape {chi.chi.shape} for "
                          f"{profile.num_users} users")
    p_d = cfg.ap_per_antenna_tx_power
    sigma_n2 = derive_noise_power(cfg)
    leakage = chi.chi.sum(axis=1)              # sum_i chi[k, i]
    return p_d * eta / (sigma_n2 + p_d * eta * leakage)
