"""Link-level reference simulations.

Everything here recomputes, by brute force over joint channel draws, the
quantities the closed-form path predicts: the five uplink received-sample
parts, the CBF downlink parts, and the ZF downlink SINR with a fresh
precoder per draw.  No closed form is reused on this side, so agreement
between the two paths is evidence, not circularity.

All estimators are plain sample means with standard errors; the validation
report pairs them with their closed-form counterparts and flags relative
errors beyond tolerance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import downlink, uplink
from .channel import BLOCK_ELEMENTS, GramPass, batch_sizes, \
    complex_normal, expand_site_to_antennas, sample_channel_batch
from .propagation import FadingProfile, fading_profile, place_topology
from .scenario import ConfigError, ScenarioConfig, derive_noise_power, \
    drop_seed

# the five received-sample parts of uplink MRC and of CBF, keyed as the
# closed forms' part powers key them
TERMS = ("desired", "uncertainty", "est_error", "inter_user", "noise")

# relative tolerances of the validation report, calibrated at the reference
# sample count; smaller runs widen them by the usual 1/sqrt(n) factor
REFERENCE_SAMPLES = 100_000
TERM_TOL = 0.03
SINR_TOL = 0.03
ZFP_SINR_TOL = 0.05
ZFP_IUI_ABS_TOL = 1e-9

# channel entries per oracle chunk: 4M complex values, 64 MB per array.  Each
# pass draws a chunk whole, all its estimates, then all its errors, then its
# symbols and noise, so this size fixes the draw order, and with it every bit
# of the report; the ZF pass's GramPass redraws a singular estimate draw
# (estimate and error) right after its block, before the chunk's next block.
# The size does not set the working set, since every pass works through a
# chunk in blocks of channel.BLOCK_ELEMENTS entries
_CHUNK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class TermEstimate:
    """Empirical powers of the received-sample parts for one user.

    ``powers``/``stderrs`` are keyed by term label; ``correlations`` holds
    the normalized cross moments |E t_a conj(t_b)| / sqrt(P_a P_b) keyed
    "a/b" (orthogonal parts should sit at zero within Monte-Carlo noise).
    ``empirical_sinr`` is desired power over the power of everything else,
    with the non-desired parts summed per draw before squaring.
    """

    powers: dict
    stderrs: dict
    correlations: dict
    empirical_sinr: float
    n_samples: int


@dataclass(frozen=True)
class ZfpEstimate:
    """Empirical ZFP link statistics over per-draw precoders."""

    empirical_sinr: float
    desired_power: float
    residual_power: float
    residual_stderr: float
    noise_power: float
    max_est_iui: float
    n_samples: int
    n_resampled: int


def _chunk_sizes(n: int, m: int, k: int) -> list[int]:
    return batch_sizes(n, max(1, _CHUNK_ELEMENTS // max(1, m * k)))


def _blocks(chunk: int, m: int, k: int) -> list[slice]:
    # one chunk's draws in blocks of about BLOCK_ELEMENTS channel entries;
    # per-draw results are the same bits whatever the block
    per = max(1, BLOCK_ELEMENTS // max(1, m * k))
    return [slice(start, min(start + per, chunk))
            for start in range(0, chunk, per)]


def _term_estimate(labels, chunk_terms, chunks: list[int],
                   n: int) -> TermEstimate:
    # chunk_terms(c) draws a chunk of c draws and returns its per-draw parts
    # keyed by label; the sums are taken once per chunk, in draw order
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    sums = dict.fromkeys(labels, 0.0)
    sq_sums = dict.fromkeys(labels, 0.0)
    cross = dict.fromkeys(pairs, 0j)
    resid_sq = 0.0
    for chunk in chunks:
        terms = chunk_terms(chunk)
        combined = sum(terms[t] for t in labels if t != "desired")
        resid_sq += float((combined.real ** 2 + combined.imag ** 2).sum())
        for a in labels:
            t = terms[a]
            p = t.real ** 2 + t.imag ** 2
            sums[a] += float(p.sum())
            sq_sums[a] += float((p ** 2).sum())
        for a, b in pairs:
            cross[a, b] += complex((terms[a] * terms[b].conj()).sum())
    powers = {a: s / n for a, s in sums.items()}
    stderrs = {a: math.sqrt(max(s / n - powers[a] ** 2, 0.0) / n)
               for a, s in sq_sums.items()}
    correlations = {}
    for (a, b), c in cross.items():
        denom = math.sqrt(powers[a] * powers[b])
        correlations[f"{a}/{b}"] = abs(c / n) / denom if denom > 0 else 0.0
    resid_power = resid_sq / n
    sinr = powers["desired"] / resid_power if resid_power > 0 else math.inf
    return TermEstimate(powers=powers, stderrs=stderrs,
                        correlations=correlations, empirical_sinr=sinr,
                        n_samples=n)


def simulate_uplink_terms(profile: FadingProfile,
                          pc: uplink.UplinkPowerControl, k: int,
                          cfg: ScenarioConfig, n_samples: int,
                          rng: np.random.Generator) -> TermEstimate:
    """Brute-force the five uplink parts for user ``k``.

    Per draw: joint channels, unit-power symbols and receiver noise, then
    the combined sample is split exactly as the closed-form derivation
    splits it.  The parts sum to the combiner output by construction, which
    the batch asserts on every draw.

    Draws come in chunks of :data:`_CHUNK_ELEMENTS` channel entries, which
    fix the random stream; each chunk's per-draw parts are worked out in
    cache-sized blocks, and the true channel is formed one block at a time.
    """
    if not 0 <= k < profile.num_users:
        raise ConfigError(f"user index {k} out of range")
    _, alpha_mk = expand_site_to_antennas(profile)
    m, n_users = alpha_mk.shape
    eta_vec = pc.eta
    if eta_vec.shape[0] != n_users:
        raise ConfigError(f"eta has {eta_vec.shape[0]} entries for "
                          f"{n_users} users")
    p_u = cfg.ue_tx_power
    sigma_n2 = derive_noise_power(cfg)
    a_k = float(alpha_mk[:, k].sum())
    scale_k = math.sqrt(p_u * eta_vec[k])
    amp = np.sqrt(p_u * eta_vec)
    others = np.delete(np.arange(n_users), k)

    def chunk_terms(chunk):
        # only chunk-length per-draw vectors outlive this call
        g_hat, g_err = sample_channel_batch(profile, rng, chunk)
        x = complex_normal(rng, 1.0, (chunk, n_users))
        w = complex_normal(rng, sigma_n2, (chunk, m))
        gain = np.empty(chunk)
        err_k = np.empty(chunk, dtype=complex)
        noise = np.empty(chunk, dtype=complex)
        proj = np.empty((chunk, n_users), dtype=complex)
        for sl in _blocks(chunk, m, n_users):
            hat = g_hat[sl]
            comb = hat[:, :, k].conj()                     # (block, antennas)
            gain[sl] = (comb * hat[:, :, k]).sum(axis=1).real  # |g_hat_k|^2
            proj[sl] = np.einsum("cm,cmi->ci", comb, hat + g_err[sl])
            err_k[sl] = (comb * g_err[sl, :, k]).sum(axis=1)
            noise[sl] = (comb * w[sl]).sum(axis=1)
        return {
            "desired": scale_k * a_k * x[:, k],
            "uncertainty": scale_k * (gain - a_k) * x[:, k],
            "est_error": scale_k * err_k * x[:, k],
            "inter_user": (amp[others] * proj[:, others] * x[:, others]).sum(axis=1),
            "noise": noise,
        }

    return _term_estimate(TERMS, chunk_terms,
                          _chunk_sizes(n_samples, m, n_users), n_samples)


def simulate_downlink_cbf(profile: FadingProfile, pc: downlink.CbfPowerControl,
                          k: int, cfg: ScenarioConfig, n_samples: int,
                          rng: np.random.Generator) -> TermEstimate:
    """Brute-force the CBF downlink parts for user ``k``.

    Chunked and blocked like :func:`simulate_uplink_terms`; only user k's
    column of the true channel is formed.
    """
    if not 0 <= k < profile.num_users:
        raise ConfigError(f"user index {k} out of range")
    _, alpha_mk = expand_site_to_antennas(profile)
    m, n_users = alpha_mk.shape
    sqrt_eta_m = np.sqrt(np.repeat(np.asarray(pc.eta_site, dtype=float),
                                   profile.antennas_per_site))
    p_d = cfg.ap_per_antenna_tx_power
    sigma_n2 = derive_noise_power(cfg)
    sp = math.sqrt(p_d)
    coherent = float((sqrt_eta_m * alpha_mk[:, k]).sum())
    others = np.delete(np.arange(n_users), k)

    def chunk_terms(chunk):
        # only chunk-length per-draw vectors outlive this call
        g_hat, g_err = sample_channel_batch(profile, rng, chunk)
        u = complex_normal(rng, 1.0, (chunk, n_users))
        w = complex_normal(rng, sigma_n2, (chunk,))
        gain = np.empty(chunk)
        err_k = np.empty(chunk, dtype=complex)
        proj = np.empty((chunk, n_users), dtype=complex)
        for sl in _blocks(chunk, m, n_users):
            hat = g_hat[sl]
            hat_k = hat[:, :, k]
            gain[sl] = ((hat_k.real ** 2 + hat_k.imag ** 2)
                        * sqrt_eta_m).sum(axis=1)
            weighted = hat.conj() * sqrt_eta_m[None, :, None]
            true_k = hat_k + g_err[sl, :, k]
            proj[sl] = np.einsum("cm,cmi->ci", true_k, weighted)
            # conj(g_hat) * g_err, in this operand order: a complex
            # product's rounding depends on it under fused multiply-add
            err_k[sl] = (hat_k.conj() * g_err[sl, :, k]
                         * sqrt_eta_m).sum(axis=1)
        return {
            "desired": sp * coherent * u[:, k],
            "uncertainty": sp * (gain - coherent) * u[:, k],
            "est_error": sp * err_k * u[:, k],
            "inter_user": sp * (proj[:, others] * u[:, others]).sum(axis=1),
            "noise": w,
        }

    return _term_estimate(TERMS, chunk_terms,
                          _chunk_sizes(n_samples, m, n_users), n_samples)


def simulate_downlink_zfp(profile: FadingProfile, eta_common: float, k: int,
                          cfg: ScenarioConfig, n_samples: int,
                          rng: np.random.Generator) -> ZfpEstimate:
    """Brute-force the ZFP link for user ``k`` with a fresh precoder per draw.

    Through the estimated channels the precoder is exactly diagonal, so the
    only interference is the estimation error leaking through the
    pseudo-inverse; ``max_est_iui`` reports the worst off-diagonal of the
    estimated-channel response as a numerical audit.  Singular estimate
    draws are redrawn like the moment estimators do.

    Chunked and blocked like :func:`simulate_uplink_terms`: each chunk of
    :data:`_CHUNK_ELEMENTS` channel entries is drawn whole (estimates,
    errors, symbols, noise), then its blocks are pushed in turn to one
    :class:`channel.GramPass` over all ``n_samples`` draws, so a singular
    draw is redrawn (estimate and error, in place in the chunk) right after
    its block and the redraw budget covers the whole pass.  Each block's
    precoder is its conjugate estimates times its inverse Gram, so the
    precoder exists one block at a time and the true channel is never
    formed.
    """
    if not 0 <= k < profile.num_users:
        raise ConfigError(f"user index {k} out of range")
    if eta_common < 0:
        raise ConfigError(f"eta_common must be >= 0, got {eta_common}")
    beta_mk, alpha_mk = expand_site_to_antennas(profile)
    m, n_users = beta_mk.shape
    if m < n_users:
        raise ConfigError(f"zero-forcing needs at least as many antennas as "
                          f"users, got {m} x {n_users}")
    p_d = cfg.ap_per_antenna_tx_power
    sigma_n2 = derive_noise_power(cfg)
    eye = np.eye(n_users)
    sqrt_pe = math.sqrt(p_d * eta_common)
    grams = GramPass(n_samples,
                     lambda b: sample_channel_batch(profile, rng, b))
    max_iui = 0.0

    def chunk_terms(chunk):
        # only chunk-length per-draw vectors outlive this call
        nonlocal max_iui
        g_hat, g_err = sample_channel_batch(profile, rng, chunk)
        u = complex_normal(rng, 1.0, (chunk, n_users))
        noise = complex_normal(rng, sigma_n2, (chunk,))
        leak = np.empty((chunk, n_users), dtype=complex)
        iui = np.empty(chunk)
        for sl in _blocks(chunk, m, n_users):
            batch = grams.invert((g_hat[sl], g_err[sl]))
            w_mat = batch.g_conj @ batch.inv           # unscaled precoder
            leak[sl] = np.einsum("cm,cmi->ci", g_err[sl, :, k], w_mat)
            response = batch.gram @ batch.inv - eye    # estimated-channel IUI
            iui[sl] = np.abs(response).max(axis=(1, 2))
        max_iui = max(max_iui, float(iui.max()) * math.sqrt(eta_common))
        return {
            "desired": sqrt_pe * u[:, k],
            "residual": math.sqrt(p_d) * math.sqrt(eta_common)
            * (leak * u).sum(axis=1),
            "noise": noise,
        }

    est = _term_estimate(("desired", "residual", "noise"), chunk_terms,
                         _chunk_sizes(n_samples, m, n_users), n_samples)
    powers = est.powers
    denom = powers["residual"] + powers["noise"]
    sinr = powers["desired"] / denom if denom > 0 else math.inf
    return ZfpEstimate(empirical_sinr=sinr, desired_power=powers["desired"],
                       residual_power=powers["residual"],
                       residual_stderr=est.stderrs["residual"],
                       noise_power=powers["noise"], max_est_iui=max_iui,
                       n_samples=n_samples, n_resampled=grams.redrawn)


# ---------------------------------------------------------------------------
# validation report


@dataclass(frozen=True)
class ValidationRow:
    """One line of the closed-form versus brute-force comparison."""

    name: str
    closed_form: float
    empirical: float
    rel_error: float
    tolerance: float
    n_samples: int
    passed: bool


def _row(name, closed, empirical, tol, n) -> ValidationRow:
    if closed == 0.0:
        # absolute comparison for quantities that must vanish
        err = abs(empirical)
    else:
        err = abs(empirical - closed) / abs(closed)
    return ValidationRow(name=name, closed_form=closed, empirical=empirical,
                         rel_error=err, tolerance=tol, n_samples=n,
                         passed=bool(err <= tol))


def reference_config(master_seed: int = 0) -> ScenarioConfig:
    """Small instance used by the stock validation run."""
    return ScenarioConfig(total_antennas=40, antennas_per_ap=2, num_users=4,
                          chi_samples=20000, master_seed=master_seed)


def validate_instance(cfg: ScenarioConfig,
                      n_samples: int) -> list[ValidationRow]:
    """Run the full closed-form versus brute-force comparison on one drop.

    The drop topology comes from the config's master seed (drop 0 stream),
    user 0 is inspected.  Returns one row per compared quantity; the ZFP
    closed form takes its moments from ``cfg.chi_samples`` estimate draws,
    which the reference config sets high (20000) so the comparison noise
    is dominated by the link-level side.  Relative tolerances hold as
    stated at the reference sample count and widen like 1/sqrt(n) below
    it, so quick runs stay meaningful without being vacuous.
    """
    widen = max(1.0, math.sqrt(REFERENCE_SAMPLES / n_samples))
    term_tol = TERM_TOL * widen
    sinr_tol = SINR_TOL * widen
    zfp_tol = ZFP_SINR_TOL * widen
    rng = np.random.default_rng(drop_seed(cfg.master_seed, 0))
    topo = place_topology(cfg, rng)
    profile = fading_profile(cfg, topo, rng)
    rows: list[ValidationRow] = []

    # uplink MRC, then CBF: the five part powers and the SINR of each
    for prefix, pc, term_powers, sinr_all, simulate in (
            ("ul", uplink.UplinkPowerControl.full_power(cfg.num_users),
             uplink.uplink_term_variances, uplink.uplink_sinr_all,
             simulate_uplink_terms),
            ("cbf", downlink.cbf_power(profile), downlink.cbf_term_variances,
             downlink.cbf_sinr_all, simulate_downlink_cbf)):
        closed = term_powers(profile, pc, 0, cfg)
        est = simulate(profile, pc, 0, cfg, n_samples, rng)
        for label in TERMS:
            rows.append(_row(f"{prefix}_{label}", closed[label],
                             est.powers[label], term_tol, n_samples))
        rows.append(_row(f"{prefix}_sinr",
                         float(sinr_all(profile, pc, cfg)[0]),
                         est.empirical_sinr, sinr_tol, n_samples))

    # ZFP SINR and the estimated-channel interference audit
    zf = downlink.zfp_moments(profile, cfg, rng)
    closed_zfp = float(downlink.zfp_sinr_all(profile, zf, cfg)[0])
    est_zfp = simulate_downlink_zfp(profile, zf.eta, 0, cfg, n_samples, rng)
    rows.append(_row("zfp_sinr", closed_zfp, est_zfp.empirical_sinr,
                     zfp_tol, n_samples))
    rows.append(_row("zfp_est_iui", 0.0, est_zfp.max_est_iui,
                     ZFP_IUI_ABS_TOL, n_samples))
    return rows


def rows_to_text(rows: list[ValidationRow]) -> str:
    lines = [f"{'term':<16} {'closed-form':>13} {'empirical':>13} "
             f"{'rel.err':>9} {'tol':>6} {'samples':>8}  result"]
    for r in rows:
        lines.append(f"{r.name:<16} {r.closed_form:>13.6g} "
                     f"{r.empirical:>13.6g} {r.rel_error:>9.2%} "
                     f"{r.tolerance:>6.0%} {r.n_samples:>8d}  "
                     f"{'pass' if r.passed else 'FAIL'}")
    ok = all(r.passed for r in rows)
    lines.append(f"{'all checks pass' if ok else 'SOME CHECKS FAILED'}")
    return "\n".join(lines)


def rows_to_csv(rows: list[ValidationRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "closed_form", "empirical", "rel_error",
                         "tolerance", "samples", "passed"])
        for r in rows:
            writer.writerow([r.name, f"{r.closed_form:.6g}",
                             f"{r.empirical:.6g}", f"{r.rel_error:.6g}",
                             f"{r.tolerance:.6g}", r.n_samples,
                             "yes" if r.passed else "no"])
