"""Downlink precoding: conjugate beamforming and zero-forcing.

Conjugate beamforming (CBF) admits a fully closed-form treatment: with the
statistics-aware per-site power normalization every antenna radiates its
power budget exactly in expectation, and the per-user SINR is

    p_d n_t^2 (sum_q sqrt(eta_q) alpha_qk)^2
    ------------------------------------------------------------
    sigma^2 + p_d n_t sum_q beta_qk eta_q sum_i alpha_qi

Zero-forcing (ZFP) inverts the estimated channel, so its interference
statistics depend on the inverse Gram matrix.  With G the M x K estimates,
G_q the n_t x K estimates of site q, S_q = G_q^T conj(G_q), A = sum_q S_q
and X = A^-1, the precoder is W = conj(G) X and site q's load of stream i
is sum_{m in q} |W_mi|^2 = [X^H S_q X]_ii.  The SINR needs two moments of
it: the load of the busiest site, which sets the common power scale eta =
1 / max_q (E[site load of q] / n_t), and the leakage

    chi[k, i] = E sum_q (beta_qk - alpha_qk) [X^H S_q X]_ii,

the mean power of user k's estimation error in the stream of user i.  The
SINR of user k is then

    p_d eta / (sigma^2 + p_d eta sum_i chi[k, i]).

Where many antennas share each user, both moments come from the
deterministic equivalent of the inverse Gram (:func:`zfp_equivalent`): the
variance-profile fixed point of Hachem, Loubaton and Najim (Ann. Appl.
Probab. 2007) at z = 0, per site,

    t_k = 1 / sum_q n_t alpha_qk / (1 + delta_q),
    delta_q = sum_k alpha_qk t_k,

with the second-order load term of Wagner, Couillet, Debbah and Slock
(IEEE Trans. IT 2012): with C = sum_q n_t alpha_q alpha_q^T / (1 +
delta_q)^2 and T = diag(t), site q's mean load of stream i is

    L_qi = n_t [(I - T^2 C)^-1 T^2 alpha_q]_i / (1 + delta_q)^2,

and chi = (beta - alpha)^T L.  The loads of a stream sum over the sites to
t_i exactly, as E[X^H A X]_ii = E[X_ii] does.  The equivalent holds while
no single antenna carries a large part of a user's inverse: the share
max_mk alpha_mk t_k measures that.  A site's shares of user k sum to at
most 1 + delta_q, so for n_t > K the share is at most 1 / (n_t - K).

The drop runner takes the equivalent when the share is below
:data:`EQUIVALENT_SHARE_LIMIT` and otherwise, or when the fixed point does
not converge, estimates both moments by Monte-Carlo over antenna-level
estimate draws (:func:`zfp_moments`).  Antennas of one site share one
expected load, so the sampled pass pools them before the maximum, which
avoids the upward bias of a maximum over M noisy per-antenna loads.  It
runs in cache-sized blocks of draws that together consume the generator's
stream exactly as one batch of all draws would, and it adds every draw into
its sums in draw order, so its output is bit-for-bit independent of the
block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BLOCK_ELEMENTS, GramPass, NumericalError, \
    batch_sizes, expand_site_to_antennas, sample_estimates
from .propagation import FadingProfile
from .scenario import ConfigError, ScenarioConfig, derive_noise_power

# largest single-antenna share max_mk alpha_mk t_k below which the drop
# runner takes the deterministic equivalent instead of sampling: against
# 20k-draw moments its eta error stays near 0.5% below 0.5 and doubles
# above it; on the full-scale grid (M = 300, K = 16) n_t <= 2 (median
# shares 0.98 and 3.4) stays sampled and n_t = 4 (median 0.33) does not
EQUIVALENT_SHARE_LIMIT = 0.5
# the fixed point climbs to t monotonically from below; it has converged
# when no t_k moves by more than this fraction of itself, and is abandoned
# after FIXED_POINT_ITERATIONS steps
FIXED_POINT_TOLERANCE = 1e-14
FIXED_POINT_ITERATIONS = 1000


@dataclass(frozen=True)
class CbfPowerControl:
    """Per-site CBF power scales, shape (sites,)."""

    eta_site: np.ndarray


@dataclass(frozen=True)
class ZfpPowerControl:
    """Common ZFP power scale with the audit trail of its estimation.

    ``antenna_load`` (antennas,) is the estimated mean precoder energy per
    antenna (summed over users) that the scale was normalized against:
    each antenna holds its site's pooled load over n_t.  ``load_stderr``
    is the standard error of that per-draw site mean.  ``n_samples`` is 0
    for moments from the deterministic equivalent, which carry no
    Monte-Carlo error (zero standard errors).
    """

    eta_common: float
    antenna_load: np.ndarray
    load_stderr: np.ndarray
    n_samples: int
    n_resampled: int

    @property
    def peak_load_rel_se(self) -> float:
        """Relative standard error of the peak load, which sets the scale."""
        hot = int(np.argmax(self.antenna_load))
        return float(self.load_stderr[hot] / self.antenna_load[hot])


@dataclass(frozen=True)
class ChiMatrix:
    """Estimation-error leakage moments chi[k, i] with standard errors.

    As for :class:`ZfpPowerControl`, ``n_samples`` 0 marks the
    deterministic equivalent.
    """

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


def _check_zf_antennas(profile: FadingProfile) -> None:
    q, k = profile.beta.shape
    m = q * profile.antennas_per_site
    if m < k:
        raise ConfigError(f"zero-forcing needs at least as many antennas as "
                          f"users, got {m} antennas for {k} users")


def zfp_equivalent(profile: FadingProfile
                   ) -> tuple[ChiMatrix, ZfpPowerControl, float] | None:
    """Both ZFP moments from the deterministic equivalent, and its share.

    Solves the per-site fixed point for t (see the module docstring) by
    plain iteration from t_k = 1 / sum_q n_t alpha_qk, which climbs to the
    solution monotonically, then forms the site loads L (sites, users) in
    one K x K solve.  ``chi`` is (beta - alpha)^T L and the common scale is
    eta = 1 / max_q (sum_i L_qi / n_t), as in :func:`zfp_moments`; both
    come with zero standard errors and ``n_samples`` 0.  The third value
    is the largest single-antenna share max_mk alpha_mk t_k, which says
    whether the equivalent holds (:data:`EQUIVALENT_SHARE_LIMIT`).  Returns
    None when the fixed point does not converge to
    :data:`FIXED_POINT_TOLERANCE` within :data:`FIXED_POINT_ITERATIONS`
    steps or leaves the finite numbers.
    """
    _check_zf_antennas(profile)
    alpha, n_t = profile.alpha, profile.antennas_per_site
    q, k = alpha.shape
    heard = alpha.sum(axis=0)
    if not (heard > 0).all():
        return None                 # a user no antenna hears: t_k is infinite
    t = 1.0 / (n_t * heard)
    for _ in range(FIXED_POINT_ITERATIONS):
        t_next = 1.0 / (n_t * (alpha.T @ (1.0 / (1.0 + alpha @ t))))
        if not np.isfinite(t_next).all():
            return None
        converged = (np.abs(t_next - t)
                     <= FIXED_POINT_TOLERANCE * t_next).all()
        t = t_next
        if converged:
            break
    else:
        return None
    weight = n_t / (1.0 + alpha @ t) ** 2          # n_t / (1 + delta_q)^2
    # column q is T^2 alpha_q n_t / (1 + delta_q)^2, so times alpha it is
    # T^2 C, and the solve gives site q's loads in column q
    rhs = (t ** 2)[:, None] * (alpha.T * weight)
    load = np.linalg.solve(np.eye(k) - rhs @ alpha, rhs).T
    chi = (profile.beta - alpha).T @ load
    # every stream's loads sum to t_i > 0, so the peak is positive
    site_load = load.sum(axis=1) / n_t
    return (ChiMatrix(chi=chi, stderr=np.zeros((k, k)), n_samples=0,
                      n_resampled=0),
            ZfpPowerControl(eta_common=1.0 / site_load.max(),
                            antenna_load=np.repeat(site_load, n_t),
                            load_stderr=np.zeros(q * n_t), n_samples=0,
                            n_resampled=0),
            float((alpha * t).max()))


def zfp_moments(profile: FadingProfile, cfg: ScenarioConfig,
                rng: np.random.Generator,
                n_samples: int | None = None) -> tuple[ChiMatrix, ZfpPowerControl]:
    """Both ZFP moment estimates from one Monte-Carlo pass over estimate draws.

    ``chi[k, i]`` is the mean over draws of sum_q (beta_qk - alpha_qk)
    [X^H S_q X]_ii, site q's load of stream i weighted by user k's
    estimation-error variance there (see the module docstring): the power
    of user k's estimation error leaking into stream i.  Perfect estimates
    give an exactly zero matrix.  The pass draws antenna-level estimates
    (:func:`channel.sample_estimates`).  The common power scale normalizes
    against the most loaded site, eta = 1 / max_q (E[site load] / n_t): its
    antennas share one expected load, so each radiates its per-antenna
    budget exactly in expectation and no antenna exceeds it.  Each
    antenna's ``antenna_load`` is its site's mean load per antenna, and
    ``load_stderr`` that mean's standard error.  ``n_samples`` defaults to
    the config's ``chi_samples``.

    The pass streams over blocks of about :data:`channel.BLOCK_ELEMENTS`
    estimate entries, so each block's intermediates stay in cache, and
    every block reuses one set of buffers (draw, conjugate, Gram, W, |W|^2
    and the sum stack), so no block faults in fresh pages.  The blocks draw
    in turn from ``rng`` and together consume exactly the stream of one
    ``n_samples`` batch; every draw's precoder is computed by the same
    per-matrix products as in one batch, and the sums run draw by draw in
    draw order, so the result does not depend on the block size.  Each
    block is pushed to one :class:`channel.GramPass`: a draw whose Gram
    matrix is singular (see :func:`channel.invert_grams`) is redrawn whole,
    from the same stream, right after its block's draws, and more than one
    percent of such draws over the pass aborts with :class:`NumericalError`.
    """
    n = cfg.chi_samples if n_samples is None else n_samples
    if n < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n}")
    _check_zf_antennas(profile)
    n_t = profile.antennas_per_site
    q, k = profile.beta.shape
    err_var_t = np.ascontiguousarray((profile.beta - profile.alpha).T)

    chi_sum = np.zeros((k, k))
    chi_sq_sum = np.zeros((k, k))
    site_sum = np.zeros((q, k))
    load_sq_sum = np.zeros(q)

    sizes = batch_sizes(n, max(1, BLOCK_ELEMENTS // (q * n_t * k)))
    # one set of block buffers for the whole pass
    g_buf = np.empty((sizes[0], q * n_t, k), dtype=complex)
    w_buf = np.empty_like(g_buf)
    w2_buf = np.empty((2,) + g_buf.shape)
    stack_buf = np.empty((sizes[0] + 1, q, k))
    grams = GramPass(n, lambda b: (sample_estimates(profile, rng, b),))

    for b in sizes:
        batch = grams.invert(
            (sample_estimates(profile, rng, b, out=g_buf[:b]),))
        w = np.matmul(batch.g_conj, batch.inv, out=w_buf[:b])
        w2, imag2 = w2_buf[:, :b]
        np.square(w.real, out=w2)
        w2 += np.square(w.imag, out=imag2)
        # |W|^2 summed over each site's antennas, written under the running
        # sum as _add_in_order would stack it
        stack = stack_buf[:b + 1]
        stack[0] = site_sum
        np.sum(w2.reshape(b, q, n_t, k), axis=2, out=stack[1:])
        site_sum = stack.sum(axis=0)
        site_block = stack[1:]
        load_sq_sum = _add_in_order(load_sq_sum,
                                    (site_block.sum(axis=2) / n_t) ** 2)
        chi_block = err_var_t @ site_block              # (block, users, users)
        chi_sum = _add_in_order(chi_sum, chi_block)
        chi_sq_sum = _add_in_order(chi_sq_sum, chi_block ** 2)

    chi = chi_sum / n
    # per-antenna mean load of each site: sum_i E[site load of stream i] / n_t
    load = (site_sum / n).sum(axis=1) / n_t
    if n > 1:
        var = np.maximum(chi_sq_sum - n * chi ** 2, 0.0) / (n - 1)
        stderr = np.sqrt(var / n)
        load_var = np.maximum(load_sq_sum - n * load ** 2, 0.0) / (n - 1)
        load_se = np.sqrt(load_var / n)
    else:
        stderr = np.full((k, k), np.nan)
        load_se = np.full(q, np.nan)
    peak = float(load.max())
    if not peak > 0:
        raise NumericalError("estimated precoder load is zero everywhere")
    return (ChiMatrix(chi=chi, stderr=stderr, n_samples=n,
                      n_resampled=grams.redrawn),
            ZfpPowerControl(eta_common=1.0 / peak,
                            antenna_load=np.repeat(load, n_t),
                            load_stderr=np.repeat(load_se, n_t), n_samples=n,
                            n_resampled=grams.redrawn))


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
