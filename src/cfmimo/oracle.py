"""Link-level reference simulations.

Everything here recomputes, by brute force over joint channel draws, the
quantities the closed-form path predicts: the five uplink received-sample
parts, the CBF downlink parts, and the ZF downlink parts with a fresh
precoder per draw.  No closed form is reused on this side, so agreement
between the two paths is evidence, not circularity.

Every pass is one loop over blocks of about :data:`channel.BLOCK_ELEMENTS`
channel entries (409 draws at 40 antennas and 4 users).  A block draws its
estimates, then its errors, then its symbols, then its noise, and its
per-draw parts are reduced before the next block is drawn; the ZF pass
redraws a singular draw right after its block's noise.  The block size
therefore fixes the draw order, and with it every bit of the report, while
a pass holds only one block's draws.

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


@dataclass(frozen=True)
class TermEstimate:
    """Empirical powers of the received-sample parts of one link, one user.

    ``powers``/``stderrs`` are keyed by part label, the desired part first;
    ``correlations`` holds the normalized cross moments
    |E t_a conj(t_b)| / sqrt(P_a P_b) keyed "a/b" (orthogonal parts should
    sit at zero within Monte-Carlo noise).  ``empirical_sinr`` is the
    desired power over the power of the other parts summed per draw.
    ``n_resampled`` counts the singular estimate draws redrawn (0 where
    nothing is redrawn); ``max_est_iui`` is the worst interference through
    the estimated channels, None for passes with no precoder.
    """

    powers: dict
    stderrs: dict
    correlations: dict
    empirical_sinr: float
    n_samples: int
    n_resampled: int = 0
    max_est_iui: float | None = None


class _OraclePass:
    """One pass of ``n`` joint draws for user ``k``: draw, reduce, estimate.

    ``labels`` name the per-draw parts, the desired part first.  The
    constructor checks the user index and the sample count and sets the
    antenna-level estimate gains ``alpha`` (antennas, users), their shape
    ``m`` x ``users``, the noise power and the block size.
    :meth:`blocks` draws block after block into two channel buffers reused
    for the whole pass; :meth:`add` reduces a block's per-draw parts, keyed
    by ``labels``, before the next block is drawn; :meth:`estimate` applies
    the one SINR rule.
    """

    def __init__(self, profile: FadingProfile, k: int, cfg: ScenarioConfig,
                 n: int, rng: np.random.Generator, labels: tuple):
        if not 0 <= k < profile.num_users:
            raise ConfigError(f"user index {k} out of range")
        if n < 1:
            raise ConfigError(f"oracle needs at least 1 sample, got {n}")
        self.profile, self.n, self.rng, self.labels = profile, n, rng, labels
        _, self.alpha = expand_site_to_antennas(profile)
        self.m, self.users = self.alpha.shape
        self.sigma_n2 = derive_noise_power(cfg)
        self.per = min(n, max(1, BLOCK_ELEMENTS // (self.m * self.users)))
        size = len(labels)
        self._sums, self._sq_sums = np.zeros(size), np.zeros(size)
        self._cross = np.zeros((size, size), dtype=complex)
        self._rest_sq = 0.0

    def blocks(self, noise_dims: tuple):
        """Yield each block's (g_hat, g_err, symbols, noise), drawn in order.

        Symbols are unit-power, (b, users); noise is (b,) + ``noise_dims``.
        The channel arrays are views of the pass's buffers, which the next
        block overwrites.
        """
        hat_buf, err_buf = (np.empty((self.per, self.m, self.users),
                                     dtype=complex) for _ in range(2))
        for b in batch_sizes(self.n, self.per):
            g_hat, g_err = sample_channel_batch(self.profile, self.rng, b,
                                                out=(hat_buf[:b], err_buf[:b]))
            x = complex_normal(self.rng, 1.0, (b, self.users))
            w = complex_normal(self.rng, self.sigma_n2, (b,) + noise_dims)
            yield g_hat, g_err, x, w

    def add(self, parts: dict) -> None:
        """Fold one block's per-draw parts into the pass's sums."""
        t = np.stack([parts[a] for a in self.labels])        # (labels, b)
        p = t.real ** 2 + t.imag ** 2
        self._sums += p.sum(axis=1)
        self._sq_sums += (p ** 2).sum(axis=1)
        self._cross += t @ t.conj().T
        rest = t[1:].sum(axis=0)
        self._rest_sq += float((rest.real ** 2 + rest.imag ** 2).sum())

    def estimate(self, **audit) -> TermEstimate:
        """The pass's estimate; ``audit`` sets the ZF pass's own fields."""
        n, labels = self.n, self.labels
        powers = self._sums / n
        stderrs = np.sqrt(np.maximum(self._sq_sums / n - powers ** 2, 0.0) / n)
        correlations = {}
        for i, a in enumerate(labels):
            for j in range(i + 1, len(labels)):
                denom = math.sqrt(powers[i] * powers[j])
                correlations[f"{a}/{labels[j]}"] = \
                    abs(self._cross[i, j] / n) / denom if denom > 0 else 0.0
        rest = self._rest_sq / n
        sinr = float(powers[0]) / rest if rest > 0 else math.inf
        return TermEstimate(powers=dict(zip(labels, powers.tolist())),
                            stderrs=dict(zip(labels, stderrs.tolist())),
                            correlations=correlations, empirical_sinr=sinr,
                            n_samples=n, **audit)


def simulate_uplink_terms(profile: FadingProfile,
                          pc: uplink.UplinkPowerControl, k: int,
                          cfg: ScenarioConfig, n_samples: int,
                          rng: np.random.Generator) -> TermEstimate:
    """Brute-force the five uplink parts for user ``k``.

    Per draw: joint channels, unit-power symbols and receiver noise at
    every antenna, then the combined sample is split exactly as the
    closed-form derivation splits it, so the parts sum to the combiner
    output.  Draws come block by block (see the module docstring), and the
    true channel is formed one block at a time.
    """
    run = _OraclePass(profile, k, cfg, n_samples, rng, TERMS)
    eta = pc.eta
    if eta.shape[0] != run.users:
        raise ConfigError(f"eta has {eta.shape[0]} entries for "
                          f"{run.users} users")
    p_u = cfg.ue_tx_power
    a_k = float(run.alpha[:, k].sum())
    scale_k = math.sqrt(p_u * eta[k])
    amp = np.sqrt(p_u * eta)
    others = np.delete(np.arange(run.users), k)
    for g_hat, g_err, x, w in run.blocks((run.m,)):
        comb = g_hat[:, :, k].conj()                       # (b, antennas)
        gain = (comb * g_hat[:, :, k]).sum(axis=1).real    # |g_hat_k|^2
        proj = np.einsum("cm,cmi->ci", comb, g_hat + g_err)
        run.add({
            "desired": scale_k * a_k * x[:, k],
            "uncertainty": scale_k * (gain - a_k) * x[:, k],
            "est_error": scale_k * (comb * g_err[:, :, k]).sum(axis=1)
            * x[:, k],
            "inter_user": (amp[others] * proj[:, others]
                           * x[:, others]).sum(axis=1),
            "noise": (comb * w).sum(axis=1),
        })
    return run.estimate()


def simulate_downlink_cbf(profile: FadingProfile, pc: downlink.CbfPowerControl,
                          k: int, cfg: ScenarioConfig, n_samples: int,
                          rng: np.random.Generator) -> TermEstimate:
    """Brute-force the CBF downlink parts for user ``k``.

    Drawn block by block like :func:`simulate_uplink_terms`, with one noise
    sample per draw at the user; only user k's column of the true channel
    is formed.
    """
    run = _OraclePass(profile, k, cfg, n_samples, rng, TERMS)
    eta = np.asarray(pc.eta_site, dtype=float)
    if eta.shape != (profile.num_sites,):
        raise ConfigError(f"eta_site has shape {eta.shape} for "
                          f"{profile.num_sites} sites")
    if not (np.isfinite(eta).all() and (eta >= 0).all()):
        raise ConfigError("eta_site must be finite and >= 0")
    sqrt_eta_m = np.sqrt(np.repeat(eta, profile.antennas_per_site))
    sp = math.sqrt(cfg.ap_per_antenna_tx_power)
    coherent = float((sqrt_eta_m * run.alpha[:, k]).sum())
    others = np.delete(np.arange(run.users), k)
    for g_hat, g_err, u, w in run.blocks(()):
        hat_k, err_k = g_hat[:, :, k], g_err[:, :, k]
        gain = ((hat_k.real ** 2 + hat_k.imag ** 2) * sqrt_eta_m).sum(axis=1)
        weighted = g_hat.conj() * sqrt_eta_m[None, :, None]
        proj = np.einsum("cm,cmi->ci", hat_k + err_k, weighted)
        run.add({
            "desired": sp * coherent * u[:, k],
            "uncertainty": sp * (gain - coherent) * u[:, k],
            "est_error": sp * (hat_k.conj() * err_k * sqrt_eta_m).sum(axis=1)
            * u[:, k],
            "inter_user": sp * (proj[:, others] * u[:, others]).sum(axis=1),
            "noise": w,
        })
    return run.estimate()


def simulate_downlink_zfp(profile: FadingProfile, eta_common: float, k: int,
                          cfg: ScenarioConfig, n_samples: int,
                          rng: np.random.Generator) -> TermEstimate:
    """Brute-force the ZFP link for user ``k`` with a fresh precoder per draw.

    The parts are ``desired``, ``residual`` and ``noise``.  Through the
    estimated channels the precoder is exactly diagonal, so the only
    interference is the estimation error leaking through the
    pseudo-inverse; ``max_est_iui`` reports the worst off-diagonal of the
    estimated-channel response as a numerical audit.

    Drawn block by block like :func:`simulate_uplink_terms`; each block is
    pushed to one :class:`channel.GramPass` over all ``n_samples`` draws,
    so a singular draw is redrawn (estimate and error, in place) right
    after its block's noise, ``n_resampled`` counts the redraws, and one
    redraw budget covers the whole pass.  Each block's precoder is its
    conjugate estimates times its inverse Gram, so the precoder exists one
    block at a time and the true channel is never formed.
    """
    run = _OraclePass(profile, k, cfg, n_samples, rng,
                      ("desired", "residual", "noise"))
    if not (math.isfinite(eta_common) and eta_common >= 0):
        raise ConfigError(f"eta_common must be finite and >= 0, "
                          f"got {eta_common}")
    if run.m < run.users:
        raise ConfigError(f"zero-forcing needs at least as many antennas as "
                          f"users, got {run.m} x {run.users}")
    sqrt_pe = math.sqrt(cfg.ap_per_antenna_tx_power * eta_common)
    grams = GramPass(n_samples,
                     lambda b: sample_channel_batch(profile, rng, b))
    eye = np.eye(run.users)
    max_iui = 0.0
    for g_hat, g_err, u, noise in run.blocks(()):
        batch = grams.invert((g_hat, g_err))
        w_mat = batch.g_conj @ batch.inv               # unscaled precoder
        leak = np.einsum("cm,cmi->ci", g_err[:, :, k], w_mat)
        response = batch.gram @ batch.inv - eye        # estimated-channel IUI
        max_iui = max(max_iui, float(np.abs(response).max()))
        run.add({"desired": sqrt_pe * u[:, k],
                 "residual": sqrt_pe * (leak * u).sum(axis=1),
                 "noise": noise})
    return run.estimate(n_resampled=grams.redrawn,
                        max_est_iui=max_iui * math.sqrt(eta_common))


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
