"""Downlink precoding: conjugate beamforming and zero-forcing.

Conjugate beamforming (CBF) admits a fully closed-form treatment: with the
statistics-aware per-site power normalization every antenna radiates its
power budget exactly in expectation, and the per-user SINR, the one rule
:func:`uplink.sinr_from_parts` applied to the five parts of
:func:`cbf_term_variances`, is

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

the mean power of user k's estimation error in the stream of user i.
User k's three parts (:func:`zfp_term_variances`) are its own stream,
p_d eta, the residual leakage, p_d eta sum_i chi[k, i], and the noise,
sigma^2, so the same rule gives the SINR

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
estimate draws (:func:`zfp_moments`).  Either way the moments come as one
:class:`ZfpMoments` record, which holds the rule for eta and which the
ZFP parts take whole.  Antennas of one site share one expected load, so
the sampled pass pools them before the maximum, which avoids the upward
bias of a maximum over M noisy per-antenna loads.

The sampled pass runs in the blocks :func:`channel.block_sizes` plans and
stops at a precision target rather than a fixed count, a fixed-width
sequential interval in the sense of Chow and Robbins (Ann. Math. Stat.
1965).  After each block, once :data:`MIN_MOMENT_DRAWS` draws are in, it
stops when two relative standard errors are both at most the config's
``chi_rel_se``: that of the peak site load, which sets eta, and the worst
over users of chi's row sums, which the SINR reads.  ``chi_samples`` caps
the draws, and a target of 0 draws the whole cap.  The stop falls on a
block boundary, so the draws used depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GramPass, NumericalError, block_sizes, sample_estimates
from .propagation import FadingProfile
from .scenario import ConfigError, ScenarioConfig, derive_noise_power
from .uplink import sinr_from_parts

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
# draws a sampled moment pass takes before its precision target may stop it
MIN_MOMENT_DRAWS = 50


@dataclass(frozen=True)
class CbfPowerControl:
    """Per-site CBF power scales, shape (sites,), each finite and >= 0."""

    eta_site: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta_site, dtype=float)
        if eta.ndim != 1:
            raise ConfigError(f"eta_site must be 1-d, got shape {eta.shape}")
        if not (np.isfinite(eta).all() and (eta >= 0).all()):
            raise ConfigError("eta_site must be finite and >= 0")
        object.__setattr__(self, "eta_site", eta)


@dataclass(frozen=True)
class ZfpMoments:
    """Both ZFP moments of one drop, with their standard errors.

    ``chi`` (users, users) is the leakage chi[k, i] and ``chi_stderr``
    (users,) the standard error of its row sums, sum_i chi[k, i].
    ``site_load`` (sites,) is each site's mean precoder energy per antenna,
    summed over the streams, and ``load_stderr`` its standard error; the
    common power scale :attr:`eta` normalizes against the largest.
    ``n_samples`` counts the draws used, 0 for moments from the
    deterministic equivalent, which carry no Monte-Carlo error (zero
    standard errors); ``n_resampled`` counts the singular draws redrawn.
    """

    chi: np.ndarray
    chi_stderr: np.ndarray
    site_load: np.ndarray
    load_stderr: np.ndarray
    n_samples: int
    n_resampled: int

    @property
    def eta(self) -> float:
        """Common power scale, 1 / max_q site load.

        The antennas of a site share one expected load, so each antenna of
        the busiest site radiates its budget in expectation and none
        exceeds it.
        """
        return 1.0 / float(self.site_load.max())

    @property
    def peak_load_rel_se(self) -> float:
        """Relative standard error of the peak site load, which sets eta."""
        hot = int(np.argmax(self.site_load))
        return float(self.load_stderr[hot] / self.site_load[hot])

    @property
    def chi_rel_se(self) -> float:
        """Worst relative standard error of chi's row sums over the users.

        A zero row, a user without estimation error, has none.
        """
        rows = self.chi.sum(axis=1)
        rel = np.divide(self.chi_stderr, rows, out=np.zeros_like(rows),
                        where=rows > 0)
        return float(rel.max())


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


def cbf_term_variances(profile: FadingProfile, pc: CbfPowerControl,
                       cfg: ScenarioConfig) -> dict:
    """Closed-form powers of the five CBF received-sample parts of every user.

    Keyed as :func:`uplink.uplink_term_variances` keys the uplink parts,
    each value of shape (users,).
    """
    alpha, beta = profile.alpha, profile.beta
    sites, users = alpha.shape
    eta = pc.eta_site
    if eta.shape != (sites,):
        raise ConfigError(f"eta_site has shape {eta.shape} for {sites} sites")
    n_t, p_d = profile.antennas_per_site, cfg.ap_per_antenna_tx_power

    # own[i, k] = p_d n_t sum_q eta_q alpha_qi alpha_qk and spill the same
    # with beta_qk - alpha_qk; off the diagonal, own + spill is stream i at k
    weighted_t = (alpha * (p_d * n_t * eta)[:, None]).T
    own = weighted_t @ alpha
    spill = weighted_t @ (beta - alpha)
    cross = own + spill
    cross.flat[::users + 1] = 0.0
    return {
        "desired": p_d * (n_t * (alpha.T @ np.sqrt(eta))) ** 2,
        "uncertainty": own.diagonal(),
        "est_error": spill.diagonal(),
        "inter_user": cross.sum(axis=0),
        "noise": np.full(users, derive_noise_power(cfg)),
    }


def cbf_sinr_all(profile: FadingProfile, pc: CbfPowerControl,
                 cfg: ScenarioConfig) -> np.ndarray:
    """Closed-form CBF SINR of every user, shape (users,)."""
    return sinr_from_parts(cbf_term_variances(profile, pc, cfg))


def _check_zf_antennas(profile: FadingProfile) -> None:
    q, k = profile.beta.shape
    m = q * profile.antennas_per_site
    if m < k:
        raise ConfigError(f"zero-forcing needs at least as many antennas as "
                          f"users, got {m} antennas for {k} users")


def zfp_equivalent(profile: FadingProfile
                   ) -> tuple[ZfpMoments, float] | None:
    """Both ZFP moments from the deterministic equivalent, and its share.

    Solves the per-site fixed point for t (see the module docstring) by
    plain iteration from t_k = 1 / sum_q n_t alpha_qk, which climbs to the
    solution monotonically, then forms the site loads L (sites, users) in
    one K x K solve.  ``chi`` is (beta - alpha)^T L and each site's load
    per antenna is sum_i L_qi / n_t, as in :func:`zfp_moments`; both come
    with zero standard errors and ``n_samples`` 0.  The second value is
    the largest single-antenna share max_mk alpha_mk t_k, which says
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
    # every stream's loads sum to t_i > 0, so the peak is positive
    return (ZfpMoments(chi=(profile.beta - alpha).T @ load,
                       chi_stderr=np.zeros(k),
                       site_load=load.sum(axis=1) / n_t,
                       load_stderr=np.zeros(q), n_samples=0, n_resampled=0),
            float((alpha * t).max()))


def _stderr(sq_sum: np.ndarray, mean: np.ndarray, n: int) -> np.ndarray:
    # standard error of a mean of n draws from their sum of squares; NaN
    # for one draw, which has none
    if n < 2:
        return np.full(mean.shape, np.nan)
    return np.sqrt(np.maximum(sq_sum - n * mean ** 2, 0.0) / ((n - 1) * n))


def zfp_moments(profile: FadingProfile, cfg: ScenarioConfig,
                rng: np.random.Generator,
                n_samples: int | None = None) -> ZfpMoments:
    """Both ZFP moment estimates from one Monte-Carlo pass over estimate draws.

    ``chi[k, i]`` is the mean over draws of sum_q (beta_qk - alpha_qk)
    [X^H S_q X]_ii, site q's load of stream i weighted by user k's
    estimation-error variance there (see the module docstring): the power
    of user k's estimation error leaking into stream i.  Perfect estimates
    give an exactly zero matrix.  The pass draws antenna-level estimates
    (:func:`channel.sample_estimates`).  ``site_load`` is each site's mean
    load per antenna, E[site load] / n_t, which sets the common power scale
    (:attr:`ZfpMoments.eta`), and ``load_stderr`` that mean's standard
    error; ``chi_stderr`` is the standard error of chi's row sums, the
    only form the SINR reads.

    The pass draws at most ``n_samples`` estimates, by default the config's
    ``chi_samples``, in the blocks :func:`channel.block_sizes` plans, which
    reuse one set of buffers, so each block's intermediates stay in cache.
    After each block, once :data:`MIN_MOMENT_DRAWS` draws are in, it stops
    when the relative standard errors of the peak site load
    (:attr:`ZfpMoments.peak_load_rel_se`) and of the worst row sum
    (:attr:`ZfpMoments.chi_rel_se`) are both at most the config's
    ``chi_rel_se``; a target of 0 draws all of them.  ``n_samples`` on the
    result counts the draws used.  Each block is pushed to one
    :class:`channel.GramPass`: a draw whose Gram matrix is singular (see
    :func:`channel.invert_grams`) is redrawn whole, from the same stream,
    right after its block's draws, and more than one percent of the draws
    used aborts with :class:`NumericalError`.
    """
    cap = cfg.chi_samples if n_samples is None else n_samples
    if cap < 1:
        raise ConfigError(f"n_samples must be >= 1, got {cap}")
    _check_zf_antennas(profile)
    n_t = profile.antennas_per_site
    q, k = profile.beta.shape
    err_var = profile.beta - profile.alpha

    antenna_sum = np.zeros((q * n_t, k))      # sum over draws of |W|^2
    load_sq_sum = np.zeros(q)
    row_sum = np.zeros(k)             # sums over draws of chi's row sums
    row_sq_sum = np.zeros(k)
    ones = np.ones(k)

    def moments(n: int) -> ZfpMoments:
        site_sum = antenna_sum.reshape(q, n_t, k).sum(axis=1)
        load = site_sum.sum(axis=1) / (n * n_t)
        rows = row_sum / n
        return ZfpMoments(chi=err_var.T @ site_sum / n,
                          chi_stderr=_stderr(row_sq_sum, rows, n),
                          site_load=load,
                          load_stderr=_stderr(load_sq_sum, load, n),
                          n_samples=n, n_resampled=grams.redrawn)

    sizes = block_sizes(cap, q * n_t * k)
    # one set of block buffers for the whole pass
    g_buf = np.empty((sizes[0], q * n_t, k), dtype=complex)
    w_buf = np.empty_like(g_buf)
    w2_buf = np.empty((2,) + g_buf.shape)
    grams = GramPass(cap, lambda b: (sample_estimates(profile, rng, b),))

    used = 0
    for b in sizes:
        batch = grams.invert(
            (sample_estimates(profile, rng, b, out=g_buf[:b]),))
        w = np.matmul(batch.g_conj, batch.inv, out=w_buf[:b])
        w2, imag2 = w2_buf[:, :b]
        np.square(w.real, out=w2)
        w2 += np.square(w.imag, out=imag2)
        antenna_sum += w2.sum(axis=0)
        # each draw's site loads over all streams (a product with ones: numpy
        # reduces short rows slowly), and the row sums of its chi,
        # sum_q (beta_qk - alpha_qk) times that load
        total = (w2 @ ones).reshape(b, q, n_t).sum(axis=2)
        load_sq_sum += np.square(total / n_t).sum(axis=0)
        rows = total @ err_var
        row_sum += rows.sum(axis=0)
        row_sq_sum += np.square(rows).sum(axis=0)
        used += b
        zf = moments(used)
        if cfg.chi_rel_se > 0 and used >= MIN_MOMENT_DRAWS \
                and zf.peak_load_rel_se <= cfg.chi_rel_se \
                and zf.chi_rel_se <= cfg.chi_rel_se:
            break

    grams.settle(used)
    if not zf.site_load.max() > 0:
        raise NumericalError("estimated precoder load is zero everywhere")
    return zf


def zfp_term_variances(profile: FadingProfile, zf: ZfpMoments,
                       cfg: ScenarioConfig) -> dict:
    """Closed-form powers of the three ZFP received-sample parts of every user.

    Keyed desired, residual and noise, each of shape (users,).
    """
    users = profile.num_users
    if zf.chi.shape != (users, users):
        raise ConfigError(f"chi has shape {zf.chi.shape} for {users} users")
    power = cfg.ap_per_antenna_tx_power * zf.eta
    return {"desired": np.full(users, power),
            "residual": power * zf.chi.sum(axis=1),
            "noise": np.full(users, derive_noise_power(cfg))}


def zfp_sinr_all(profile: FadingProfile, zf: ZfpMoments,
                 cfg: ScenarioConfig) -> np.ndarray:
    """ZFP SINR of every user under the common power scale, shape (users,)."""
    return sinr_from_parts(zfp_term_variances(profile, zf, cfg))
