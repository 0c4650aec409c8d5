"""Link-level reference simulations.

Everything here recomputes, by brute force over joint channel draws, the
quantities the closed-form path predicts: the five uplink received-sample
parts, the CBF downlink parts, and the ZF downlink parts with a fresh
precoder per draw.  No closed form is reused on this side, so agreement
between the two paths is evidence, not circularity.

Every pass is one loop over the blocks :func:`channel.block_sizes` plans
(409 draws at 40 antennas and 4 users), and one pass serves every link it
is asked for (:func:`simulate_links`).  A block draws, in this order:

- the estimates, then the errors (:func:`channel.sample_channel_batch`);
- one unit-power symbol per user, (b, users), which every link reads;
- receiver noise at every antenna, (b, antennas), if the uplink is asked
  for;
- one noise sample at the user, (b,), which CBF and ZF share, if either is
  asked for.

With ZF asked for, a singular draw is then redrawn in place, estimate and
error, before any link reads the block.  Each link then reduces the block
into its own sums before the next block is drawn, so a pass holds one
block's draws however many links it serves.  The block size fixes the draw
order, and with it every bit of the report; a pass of one link draws
exactly what that link's own function draws.

Sharing the draws is the common-random-numbers device (Glasserman, *Monte
Carlo Methods in Financial Engineering*, 2003, sec. 4.2).  Each link reads
joint channels, symbols and noise of exactly the law it reads when it runs
alone, independent from draw to draw, so every row of the report keeps its
law and its standard error; only the estimates of different links become
correlated with each other.  A redraw conditions on a singular Gram matrix
not occurring, an event of probability zero, so it changes no link's law.

All estimators are plain sample means with standard errors; the validation
report pairs them with their closed-form counterparts and flags relative
errors beyond tolerance.  Its drop comes from :func:`experiment.draw_drop`,
so its ZF closed form takes the route the sweep takes on that drop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import downlink, uplink
from .channel import GramBatch, GramPass, block_sizes, complex_normal, \
    expand_site_to_antennas, sample_channel_batch
from .experiment import draw_drop
from .propagation import FadingProfile
from .scenario import ConfigError, ScenarioConfig, derive_noise_power

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
    ``n_resampled`` counts the singular estimate draws the ZF link redrew
    (0 on the other links, which read the same redrawn blocks in a joint
    pass); ``max_est_iui`` is the worst interference through the estimated
    channels, None for links with no precoder.
    """

    powers: dict
    stderrs: dict
    correlations: dict
    empirical_sinr: float
    n_resampled: int = 0
    max_est_iui: float | None = None


class _Block(NamedTuple):
    """One block of joint draws, as every link of a pass reads it.

    The channel arrays are views of the pass's buffers, which the next
    block overwrites, and ``scratch`` is one more such buffer that each
    link in turn may overwrite with a product of the block's shape.  A
    noise array is None when no requested link reads it, and so is ``zf``
    when zero-forcing is not requested.
    """

    g_hat: np.ndarray          # (b, antennas, users)
    g_err: np.ndarray          # (b, antennas, users)
    scratch: np.ndarray        # (b, antennas, users), any link's to fill
    x: np.ndarray              # unit-power symbols, (b, users)
    w_ul: np.ndarray | None    # receiver noise at every antenna, (b, antennas)
    w_dl: np.ndarray | None    # receiver noise at the user, (b,)
    zf: GramBatch | None       # the estimates' conjugate, Gram and inverse


class _Link:
    """One link's estimator for user ``k``: per-draw parts, folded into sums.

    A subclass checks its power scale and precomputes what every block
    shares in its constructor, and splits a block into per-draw parts,
    keyed by ``labels`` with the desired part first, in :meth:`parts`.
    :meth:`add` reduces a block before the next is drawn; :meth:`estimate`
    applies the one SINR rule, and ZF extends it with its audit.
    """

    labels = TERMS

    def __init__(self, alpha: np.ndarray, k: int):
        self.k = k
        self.m, self.users = alpha.shape
        self.others = np.delete(np.arange(self.users), k)
        size = len(self.labels)
        self._sums, self._sq_sums = np.zeros(size), np.zeros(size)
        self._cross = np.zeros((size, size), dtype=complex)
        self._rest_sq = 0.0

    def add(self, block: _Block) -> None:
        """Fold one block's per-draw parts into the link's sums."""
        parts = self.parts(block)
        t = np.stack([parts[a] for a in self.labels])        # (labels, b)
        p = t.real ** 2 + t.imag ** 2
        self._sums += p.sum(axis=1)
        self._sq_sums += (p ** 2).sum(axis=1)
        self._cross += t @ t.conj().T
        rest = t[1:].sum(axis=0)
        self._rest_sq += float((rest.real ** 2 + rest.imag ** 2).sum())

    def estimate(self, n: int) -> TermEstimate:
        """The link's estimate over its ``n`` draws."""
        labels = self.labels
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
                            correlations=correlations, empirical_sinr=sinr)


class _Uplink(_Link):
    """Uplink MRC: the combined sample split as the closed form splits it."""

    def __init__(self, alpha, k, cfg, pc: uplink.UplinkPowerControl):
        super().__init__(alpha, k)
        eta = pc.eta
        if eta.shape[0] != self.users:
            raise ConfigError(f"eta has {eta.shape[0]} entries for "
                              f"{self.users} users")
        p_u = cfg.ue_tx_power
        self.a_k = float(alpha[:, k].sum())
        self.scale_k = math.sqrt(p_u * eta[k])
        self.amp = np.sqrt(p_u * eta)

    def parts(self, block):
        k, others, x = self.k, self.others, block.x
        g_hat, g_err = block.g_hat, block.g_err
        comb = g_hat[:, :, k].conj()                       # (b, antennas)
        gain = (comb * g_hat[:, :, k]).sum(axis=1).real    # |g_hat_k|^2
        g_true = np.add(g_hat, g_err, out=block.scratch)
        proj = np.einsum("cm,cmi->ci", comb, g_true)
        return {
            "desired": self.scale_k * self.a_k * x[:, k],
            "uncertainty": self.scale_k * (gain - self.a_k) * x[:, k],
            "est_error": self.scale_k * (comb * g_err[:, :, k]).sum(axis=1)
            * x[:, k],
            "inter_user": (self.amp[others] * proj[:, others]
                           * x[:, others]).sum(axis=1),
            "noise": (comb * block.w_ul).sum(axis=1),
        }


class _Cbf(_Link):
    """Downlink CBF at user k; only user k's true channel column is formed."""

    def __init__(self, alpha, k, cfg, pc: downlink.CbfPowerControl,
                 profile: FadingProfile):
        super().__init__(alpha, k)
        if pc.eta_site.shape != (profile.num_sites,):
            raise ConfigError(f"eta_site has shape {pc.eta_site.shape} for "
                              f"{profile.num_sites} sites")
        self.sqrt_eta_m = np.sqrt(np.repeat(pc.eta_site,
                                            profile.antennas_per_site))
        self.sp = math.sqrt(cfg.ap_per_antenna_tx_power)
        self.coherent = float((self.sqrt_eta_m * alpha[:, k]).sum())

    def parts(self, block):
        k, sp, u, sqrt_eta_m = self.k, self.sp, block.x, self.sqrt_eta_m
        hat_k, err_k = block.g_hat[:, :, k], block.g_err[:, :, k]
        gain = ((hat_k.real ** 2 + hat_k.imag ** 2) * sqrt_eta_m).sum(axis=1)
        weighted = np.conjugate(block.g_hat, out=block.scratch)
        weighted *= sqrt_eta_m[None, :, None]
        proj = np.einsum("cm,cmi->ci", hat_k + err_k, weighted)
        return {
            "desired": sp * self.coherent * u[:, k],
            "uncertainty": sp * (gain - self.coherent) * u[:, k],
            "est_error": sp * (hat_k.conj() * err_k * sqrt_eta_m).sum(axis=1)
            * u[:, k],
            "inter_user": sp * (proj[:, self.others]
                                * u[:, self.others]).sum(axis=1),
            "noise": block.w_dl,
        }


class _Zfp(_Link):
    """Downlink ZFP at user k with a fresh precoder per draw.

    ``grams`` is the pass's :class:`channel.GramPass`, whose redraws and
    one budget this link reports.
    """

    labels = ("desired", "residual", "noise")

    def __init__(self, alpha, k, cfg, eta_common: float, grams: GramPass):
        super().__init__(alpha, k)
        if not (math.isfinite(eta_common) and eta_common >= 0):
            raise ConfigError(f"eta_common must be finite and >= 0, "
                              f"got {eta_common}")
        if self.m < self.users:
            raise ConfigError(f"zero-forcing needs at least as many antennas "
                              f"as users, got {self.m} x {self.users}")
        self.eta, self.grams = eta_common, grams
        self.sqrt_pe = math.sqrt(cfg.ap_per_antenna_tx_power * eta_common)
        self.eye = np.eye(self.users)
        self.max_iui = 0.0

    def parts(self, block):
        batch, u = block.zf, block.x
        # the unscaled precoder
        w_mat = np.matmul(batch.g_conj, batch.inv, out=block.scratch)
        leak = np.einsum("cm,cmi->ci", block.g_err[:, :, self.k], w_mat)
        response = batch.gram @ batch.inv - self.eye   # estimated-channel IUI
        self.max_iui = max(self.max_iui, float(np.abs(response).max()))
        return {"desired": self.sqrt_pe * u[:, self.k],
                "residual": self.sqrt_pe * (leak * u).sum(axis=1),
                "noise": block.w_dl}

    def estimate(self, n):
        return replace(super().estimate(n), n_resampled=self.grams.redrawn,
                       max_est_iui=self.max_iui * math.sqrt(self.eta))


def simulate_links(profile: FadingProfile, k: int, cfg: ScenarioConfig,
                   n_samples: int, rng: np.random.Generator, *,
                   uplink_pc: uplink.UplinkPowerControl | None = None,
                   cbf_pc: downlink.CbfPowerControl | None = None,
                   zf_eta: float | None = None) -> dict[str, TermEstimate]:
    """Brute-force every requested link of user ``k`` from one set of draws.

    A link is requested by its power scale: ``uplink_pc`` for uplink MRC
    (key ``ul``), ``cbf_pc`` for downlink CBF (``cbf``) and the common ZF
    scale ``zf_eta`` for downlink ZFP (``zfp``).  Each block is drawn once,
    in the order the module docstring gives, and every requested link
    reduces it before the next block is drawn, so ``n_samples`` joint
    draws serve all of them.  Returns one :class:`TermEstimate` per
    requested link, keyed in that order.
    """
    if not 0 <= k < profile.num_users:
        raise ConfigError(f"user index {k} out of range")
    if n_samples < 1:
        raise ConfigError(f"oracle needs at least 1 sample, got {n_samples}")
    alpha = expand_site_to_antennas(profile)
    links: dict[str, _Link] = {}
    if uplink_pc is not None:
        links["ul"] = _Uplink(alpha, k, cfg, uplink_pc)
    if cbf_pc is not None:
        links["cbf"] = _Cbf(alpha, k, cfg, cbf_pc, profile)
    grams = None
    if zf_eta is not None:
        grams = GramPass(n_samples,
                         lambda b: sample_channel_batch(profile, rng, b))
        links["zfp"] = _Zfp(alpha, k, cfg, zf_eta, grams)
    if not links:
        raise ConfigError("no link requested")
    m, users = alpha.shape
    sigma_n2 = derive_noise_power(cfg)
    sizes = block_sizes(n_samples, m * users)
    hat_buf, err_buf, scratch = (np.empty((sizes[0], m, users), dtype=complex)
                                 for _ in range(3))
    for b in sizes:
        g_hat, g_err = sample_channel_batch(profile, rng, b,
                                            out=(hat_buf[:b], err_buf[:b]))
        x = complex_normal(rng, 1.0, (b, users))
        w_ul = complex_normal(rng, sigma_n2, (b, m)) \
            if "ul" in links else None
        w_dl = complex_normal(rng, sigma_n2, (b,)) \
            if "cbf" in links or "zfp" in links else None
        zf = grams.invert((g_hat, g_err)) if grams is not None else None
        block = _Block(g_hat, g_err, scratch[:b], x, w_ul, w_dl, zf)
        for link in links.values():
            link.add(block)
    return {name: link.estimate(n_samples) for name, link in links.items()}


def simulate_uplink_terms(profile: FadingProfile,
                          pc: uplink.UplinkPowerControl, k: int,
                          cfg: ScenarioConfig, n_samples: int,
                          rng: np.random.Generator) -> TermEstimate:
    """Brute-force the five uplink parts for user ``k``.

    Per draw: joint channels, unit-power symbols and receiver noise at
    every antenna, then the combined sample is split exactly as the
    closed-form derivation splits it, so the parts sum to the combiner
    output.  The true channel is formed one block at a time.  This is
    :func:`simulate_links` with the uplink alone.
    """
    return simulate_links(profile, k, cfg, n_samples, rng,
                          uplink_pc=pc)["ul"]


def simulate_downlink_cbf(profile: FadingProfile, pc: downlink.CbfPowerControl,
                          k: int, cfg: ScenarioConfig, n_samples: int,
                          rng: np.random.Generator) -> TermEstimate:
    """Brute-force the CBF downlink parts for user ``k``.

    Per draw: joint channels, unit-power symbols and one noise sample at
    the user; only user k's column of the true channel is formed.  This is
    :func:`simulate_links` with CBF alone.
    """
    return simulate_links(profile, k, cfg, n_samples, rng, cbf_pc=pc)["cbf"]


def simulate_downlink_zfp(profile: FadingProfile, eta_common: float, k: int,
                          cfg: ScenarioConfig, n_samples: int,
                          rng: np.random.Generator) -> TermEstimate:
    """Brute-force the ZFP link for user ``k`` with a fresh precoder per draw.

    The parts are ``desired``, ``residual`` and ``noise``.  Through the
    estimated channels the precoder is exactly diagonal, so the only
    interference is the estimation error leaking through the
    pseudo-inverse; ``max_est_iui`` reports the worst off-diagonal of the
    estimated-channel response as a numerical audit.

    Each block is pushed to one :class:`channel.GramPass` over all
    ``n_samples`` draws, so a singular draw is redrawn (estimate and
    error, in place) right after its block's noise, ``n_resampled`` counts
    the redraws, and one redraw budget covers the whole pass.  Each
    block's precoder is its conjugate estimates times its inverse Gram, so
    the precoder exists one block at a time and the true channel is never
    formed.  This is :func:`simulate_links` with ZFP alone.
    """
    return simulate_links(profile, k, cfg, n_samples, rng,
                          zf_eta=eta_common)["zfp"]


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
    """Small instance used by the stock validation run.

    Where drop 0 samples its ZF moments, as the stock seed's does (share
    0.60), they take a fixed 20000 draws (``chi_rel_se`` 0), so the
    comparison noise is dominated by the link-level side; other seeds,
    such as 5 (share 0.35), take the deterministic equivalent.
    """
    return ScenarioConfig(total_antennas=40, antennas_per_ap=2, num_users=4,
                          chi_samples=20000, chi_rel_se=0.0,
                          master_seed=master_seed)


def validate_instance(cfg: ScenarioConfig,
                      n_samples: int) -> list[ValidationRow]:
    """Run the full closed-form versus brute-force comparison on one drop.

    Drop 0 comes from :func:`experiment.draw_drop`, as every sweep drop
    does, so the ZFP closed form takes the moments the sweep would take;
    the drop's stream, after any moment draws, then serves one
    :func:`simulate_links` pass of ``n_samples`` joint draws for all three
    links.  User 0 is inspected, and one row is returned per compared
    quantity.  Relative tolerances hold as stated at the reference sample
    count and widen like 1/sqrt(n) below it; at 250 samples or fewer the
    widest would reach 100% and pass anything, so such counts are rejected.
    """
    floor = REFERENCE_SAMPLES * max(TERM_TOL, SINR_TOL, ZFP_SINR_TOL) ** 2
    if not n_samples > floor:
        raise ConfigError(f"validate needs more than {floor:.0f} samples "
                          f"(a tolerance reaches 100% there), got {n_samples}")
    widen = max(1.0, math.sqrt(REFERENCE_SAMPLES / n_samples))
    term_tol = TERM_TOL * widen
    sinr_tol = SINR_TOL * widen
    rng, profile, zf, _ = draw_drop(cfg, 0)
    ul_pc = uplink.UplinkPowerControl.full_power(cfg.num_users)
    cbf_pc = downlink.cbf_power(profile)
    est = simulate_links(profile, 0, cfg, n_samples, rng, uplink_pc=ul_pc,
                         cbf_pc=cbf_pc, zf_eta=zf.eta)
    rows: list[ValidationRow] = []

    # uplink MRC, then CBF: the five part powers and the SINR of each
    for prefix, pc, term_powers, sinr_all in (
            ("ul", ul_pc, uplink.uplink_term_variances,
             uplink.uplink_sinr_all),
            ("cbf", cbf_pc, downlink.cbf_term_variances,
             downlink.cbf_sinr_all)):
        closed = term_powers(profile, pc, cfg)
        for label in TERMS:
            rows.append(_row(f"{prefix}_{label}", float(closed[label][0]),
                             est[prefix].powers[label], term_tol, n_samples))
        rows.append(_row(f"{prefix}_sinr",
                         float(sinr_all(profile, pc, cfg)[0]),
                         est[prefix].empirical_sinr, sinr_tol, n_samples))

    # ZFP SINR and the estimated-channel interference audit
    closed_zfp = float(downlink.zfp_sinr_all(profile, zf, cfg)[0])
    rows.append(_row("zfp_sinr", closed_zfp, est["zfp"].empirical_sinr,
                     ZFP_SINR_TOL * widen, n_samples))
    rows.append(_row("zfp_est_iui", 0.0, est["zfp"].max_est_iui,
                     ZFP_IUI_ABS_TOL, n_samples))
    return rows


def rows_to_text(rows: list[ValidationRow]) -> str:
    lines = [f"{'term':<16} {'closed-form':>13} {'empirical':>13} "
             f"{'rel.err':>9} {'tol':>6} {'samples':>8}  result"]
    for r in rows:
        # a quantity that must vanish is judged by its absolute error
        err, tol = (".2%", ".0%") if r.closed_form else (".2g", ".2g")
        lines.append(f"{r.name:<16} {r.closed_form:>13.6g} "
                     f"{r.empirical:>13.6g} {r.rel_error:>9{err}} "
                     f"{r.tolerance:>6{tol}} {r.n_samples:>8d}  "
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
