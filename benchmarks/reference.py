"""Closed-form SINRs written apart from the package, for output checks.

The formulas are the ones stated in the docstrings of ``cfmimo.uplink``
(maximum-ratio combining with statistics-only detection) and
``cfmimo.downlink`` (conjugate beamforming with full-power per-site
scaling), evaluated here with per-user loops in plain numpy.  Nothing is
imported from the package: the inputs are the site-level gains ``beta``
and estimate variances ``alpha`` of one drop, both (sites, users), plus the
handful of scalars the formulas name.  The benchmark compares the
program's outputs against these values, so a fault in either closed form
shows as a mismatch instead of being reproduced.
"""

from __future__ import annotations

import math

import numpy as np


def noise_power_w(noise_density_dbm_hz: float, noise_figure_db: float,
                  bandwidth_hz: float) -> float:
    """Receiver noise power in watts: N0 + NF + 10 log10 B, out of dBm."""
    dbm = noise_density_dbm_hz + noise_figure_db + 10.0 * math.log10(bandwidth_hz)
    return 10.0 ** (dbm / 10.0) / 1000.0


def mrc_sinr(alpha, beta, n_t: int, p_u: float, sigma2: float,
             eta=None) -> np.ndarray:
    """Uplink MRC SINR of every user.

    gamma_k = p_u eta_k n_t^2 (sum_q a_qk)^2
              / (p_u n_t sum_i eta_i sum_q a_qk b_qi + sigma^2 n_t sum_q a_qk),
    and gamma_k = 0 when user k has no estimate energy.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    users = alpha.shape[1]
    eta = np.ones(users) if eta is None else np.asarray(eta, dtype=float)
    out = np.zeros(users)
    for k in range(users):
        a_k = alpha[:, k].sum()
        if a_k == 0.0:
            continue
        interference = sum(eta[i] * float(np.dot(alpha[:, k], beta[:, i]))
                           for i in range(users))
        out[k] = (p_u * eta[k] * (n_t * a_k) ** 2
                  / (p_u * n_t * interference + sigma2 * n_t * a_k))
    return out


def cbf_site_scale(alpha) -> np.ndarray:
    """Full-power CBF scale per site, eta_q = 1 / sum_k a_qk."""
    return 1.0 / np.asarray(alpha, dtype=float).sum(axis=1)


def cbf_sinr(alpha, beta, n_t: int, p_d: float, sigma2: float) -> np.ndarray:
    """Downlink CBF SINR of every user under the full-power site scales.

    gamma_k = p_d n_t^2 (sum_q sqrt(eta_q) a_qk)^2
              / (sigma^2 + p_d n_t sum_q b_qk eta_q sum_i a_qi).
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    eta = cbf_site_scale(alpha)
    site_power = eta * alpha.sum(axis=1)
    out = np.zeros(alpha.shape[1])
    for k in range(alpha.shape[1]):
        coherent = float(np.dot(np.sqrt(eta), alpha[:, k]))
        leak = float(np.dot(beta[:, k], site_power))
        out[k] = p_d * (n_t * coherent) ** 2 / (sigma2 + p_d * n_t * leak)
    return out


def rate(sinr) -> np.ndarray:
    """Spectral efficiency log2(1 + SINR), bit/s/Hz."""
    return np.log2(1.0 + np.asarray(sinr, dtype=float))


def quantile(values, p: float) -> float:
    """Linear-interpolation quantile between order statistics."""
    xs = sorted(float(v) for v in np.ravel(values))
    h = (len(xs) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def summarize(per_drop_rates) -> dict:
    """Mean sum rate and pooled per-user p05/p50 over a list of drops."""
    sums = [float(np.sum(r)) for r in per_drop_rates]
    pooled = np.concatenate([np.ravel(r) for r in per_drop_rates])
    return {"sum_rate_mean": math.fsum(sums) / len(sums),
            "se_p05": quantile(pooled, 0.05),
            "se_p50": quantile(pooled, 0.50)}
