"""Link-level reference simulations.

Everything here recomputes, by brute force over joint channel draws, the
quantities the closed-form path predicts: the five uplink received-sample
parts, the CBF downlink parts, and the ZF downlink parts with a fresh
precoder per draw.  No closed form is reused on this side, so agreement
between the two paths is evidence, not circularity.

Every pass is one loop over the blocks :func:`channel.block_sizes` plans
(409 draws at 40 antennas and 4 users), and one pass serves every link it
is asked for (:func:`simulate_links`) and every user of each link.  A
block draws, in this order:

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
correlated with each other.  So it is between the users of a link, who all
read the one uplink noise draw per antenna, or the one noise sample at the
user that CBF and ZF share: each user's noise part keeps its law
CN(0, sigma^2).  A redraw conditions on a singular Gram matrix not
occurring, an event of probability zero, so it changes no link's law.

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
    """Empirical powers of the received-sample parts of one link.

    Each value but the last two is a (users,) array, or a dict of them.
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
    empirical_sinr: np.ndarray
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
    """One link's estimator for every user: per-draw parts, folded into sums.

    A subclass checks its power scale and precomputes what every block
    shares in its constructor, and splits a block into per-draw parts in
    :meth:`parts`: one (b, users) array per label, the desired part first,
    or (b, 1) for a part every user reads alike.  :meth:`add` reduces a
    block before the next is drawn; :meth:`estimate` applies the one SINR
    rule, and ZF extends it with its audit.
    """

    labels = TERMS

    def __init__(self, alpha: np.ndarray):
        self.m, self.users = alpha.shape
        self.diag = np.arange(self.users)
        size = len(self.labels)
        self._sq_sums = np.zeros((self.users, size))
        # per user, the sum over draws of t t^H, t the draw's parts
        self._moments = np.zeros((self.users, size, size), dtype=complex)

    def matched(self, mean, own, err, sent) -> dict:
        """The four signal parts of a filter matched to the estimates.

        Entry [k, i] of ``own`` (overwritten) and ``err``, (b, users, users),
        carries stream i to user k through the estimates and the errors;
        ``mean`` (users,) is the mean of ``own``'s diagonal and ``sent``
        (b, users) the symbols times their amplitudes.
        """
        gain = own.diagonal(axis1=1, axis2=2).real
        uncertainty = (gain - mean) * sent
        own += err
        own[:, self.diag, self.diag] = 0.0
        return {"desired": mean * sent, "uncertainty": uncertainty,
                "est_error": err.diagonal(axis1=1, axis2=2) * sent,
                "inter_user": np.matmul(own, sent[:, :, None])[:, :, 0]}

    def add(self, block: _Block) -> None:
        """Fold one block's per-draw parts into the link's sums."""
        parts = self.parts(block)
        t = np.empty((self.users, len(self.labels), len(block.x)), complex)
        for i, label in enumerate(self.labels):
            t[:, i] = parts[label].T
        self._moments += t @ t.conj().transpose(0, 2, 1)
        p = t.real ** 2 + t.imag ** 2
        self._sq_sums += (p ** 2).sum(axis=2)

    def estimate(self, n: int) -> TermEstimate:
        """The link's estimate over its ``n`` draws."""
        labels, moments = self.labels, self._moments / n
        powers = moments.diagonal(axis1=1, axis2=2).real
        stderrs = np.sqrt(np.maximum(self._sq_sums / n - powers ** 2, 0) / n)
        correlations = {}
        for i, a in enumerate(labels):
            for j in range(i + 1, len(labels)):
                denom = np.sqrt(powers[:, i] * powers[:, j])
                correlations[f"{a}/{labels[j]}"] = np.divide(
                    np.abs(moments[:, i, j]), denom,
                    out=np.zeros(self.users), where=denom > 0)
        rest = moments[:, 1:, 1:].sum(axis=(1, 2)).real
        sinr = np.divide(powers[:, 0], rest,
                         out=np.full(self.users, math.inf), where=rest > 0)
        return TermEstimate(powers=dict(zip(labels, powers.T.copy())),
                            stderrs=dict(zip(labels, stderrs.T.copy())),
                            correlations=correlations, empirical_sinr=sinr)


class _Uplink(_Link):
    """Uplink MRC: each combined sample split as the closed form splits it."""

    def __init__(self, alpha, cfg, pc: uplink.UplinkPowerControl):
        super().__init__(alpha)
        eta = pc.eta
        if eta.shape[0] != self.users:
            raise ConfigError(f"eta has {eta.shape[0]} entries for "
                              f"{self.users} users")
        self.a = alpha.sum(axis=0)
        self.amp = np.sqrt(cfg.ue_tx_power * eta)

    def parts(self, block):
        comb = np.conjugate(block.g_hat, out=block.scratch).transpose(0, 2, 1)
        return {**self.matched(self.a, comb @ block.g_hat,
                               comb @ block.g_err, self.amp * block.x),
                "noise": np.matmul(comb, block.w_ul[:, :, None])[:, :, 0]}


class _Cbf(_Link):
    """Downlink CBF at every user."""

    def __init__(self, alpha, cfg, pc: downlink.CbfPowerControl,
                 profile: FadingProfile):
        super().__init__(alpha)
        if pc.eta_site.shape != (profile.num_sites,):
            raise ConfigError(f"eta_site has shape {pc.eta_site.shape} for "
                              f"{profile.num_sites} sites")
        self.sqrt_eta_m = np.sqrt(np.repeat(
            pc.eta_site, profile.antennas_per_site))[:, None]
        self.sp = math.sqrt(cfg.ap_per_antenna_tx_power)
        self.coherent = (self.sqrt_eta_m * alpha).sum(axis=0)

    def parts(self, block):
        weighted = np.conjugate(block.g_hat, out=block.scratch)
        weighted *= self.sqrt_eta_m                     # every user's beam
        return {**self.matched(self.coherent,
                               block.g_hat.transpose(0, 2, 1) @ weighted,
                               block.g_err.transpose(0, 2, 1) @ weighted,
                               self.sp * block.x),
                "noise": block.w_dl[:, None]}


class _Zfp(_Link):
    """Downlink ZFP with a fresh precoder per draw; ``grams`` is the pass's
    :class:`channel.GramPass`, whose redraws and one budget it reports."""

    labels = ("desired", "residual", "noise")

    def __init__(self, alpha, cfg, eta_common: float, grams: GramPass):
        super().__init__(alpha)
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
        # the unscaled precoder, the signal it sends from every antenna, and
        # what each user receives of that through its error
        w_mat = np.matmul(batch.g_conj, batch.inv, out=block.scratch)
        leak = (u[:, None, :] @ w_mat.transpose(0, 2, 1) @ block.g_err)[:, 0]
        response = batch.gram @ batch.inv - self.eye   # estimated-channel IUI
        self.max_iui = max(self.max_iui, float(np.abs(response).max()))
        return {"desired": self.sqrt_pe * u,
                "residual": self.sqrt_pe * leak,
                "noise": block.w_dl[:, None]}

    def estimate(self, n):
        return replace(super().estimate(n), n_resampled=self.grams.redrawn,
                       max_est_iui=self.max_iui * math.sqrt(self.eta))


def simulate_links(profile: FadingProfile, cfg: ScenarioConfig,
                   n_samples: int, rng: np.random.Generator, *,
                   uplink_pc: uplink.UplinkPowerControl | None = None,
                   cbf_pc: downlink.CbfPowerControl | None = None,
                   zf_eta: float | None = None) -> dict[str, TermEstimate]:
    """Brute-force every requested link of every user from one set of draws.

    A link is requested by its power scale: ``uplink_pc`` for uplink MRC
    (key ``ul``), ``cbf_pc`` for downlink CBF (``cbf``) and the common ZF
    scale ``zf_eta`` for downlink ZFP (``zfp``).  Each block is drawn once,
    in the order the module docstring gives, and every requested link
    reduces it for all users before the next block is drawn, so
    ``n_samples`` joint draws serve all of them.  Returns one
    :class:`TermEstimate` per requested link, keyed in that order.
    """
    if n_samples < 1:
        raise ConfigError(f"oracle needs at least 1 sample, got {n_samples}")
    alpha = expand_site_to_antennas(profile)
    links: dict[str, _Link] = {}
    if uplink_pc is not None:
        links["ul"] = _Uplink(alpha, cfg, uplink_pc)
    if cbf_pc is not None:
        links["cbf"] = _Cbf(alpha, cfg, cbf_pc, profile)
    grams = None
    if zf_eta is not None:
        grams = GramPass(n_samples,
                         lambda b: sample_channel_batch(profile, rng, b))
        links["zfp"] = _Zfp(alpha, cfg, zf_eta, grams)
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
                          pc: uplink.UplinkPowerControl,
                          cfg: ScenarioConfig, n_samples: int,
                          rng: np.random.Generator) -> TermEstimate:
    """Brute-force the five uplink parts of every user, split as the
    closed-form derivation splits the combiner output: :func:`simulate_links`
    with the uplink alone."""
    return simulate_links(profile, cfg, n_samples, rng, uplink_pc=pc)["ul"]


def simulate_downlink_cbf(profile: FadingProfile, pc: downlink.CbfPowerControl,
                          cfg: ScenarioConfig, n_samples: int,
                          rng: np.random.Generator) -> TermEstimate:
    """Brute-force the CBF downlink parts of every user:
    :func:`simulate_links` with CBF alone."""
    return simulate_links(profile, cfg, n_samples, rng, cbf_pc=pc)["cbf"]


def simulate_downlink_zfp(profile: FadingProfile, eta_common: float,
                          cfg: ScenarioConfig, n_samples: int,
                          rng: np.random.Generator) -> TermEstimate:
    """Brute-force the ZFP link of every user: :func:`simulate_links` with
    ZFP alone.

    The parts are ``desired``, ``residual`` and ``noise``.  Through the
    estimated channels the precoder is exactly diagonal, so the only
    interference is the estimation error leaking through the
    pseudo-inverse, the user's own stream included; ``max_est_iui``
    audits the estimated-channel response.
    """
    return simulate_links(profile, cfg, n_samples, rng,
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
    links and every user.  User 0's estimates are reported, and one row is
    returned per compared quantity.  Relative tolerances hold as stated at
    the reference sample count and widen like 1/sqrt(n) below it; at 250
    samples or fewer the widest would reach 100% and pass anything, so such
    counts are rejected.  A drop count other than the field default is
    rejected too, since only drop 0 is inspected.
    """
    if cfg.drops != ScenarioConfig.drops:
        raise ConfigError(f"validate inspects drop 0 only, so drops must "
                          f"be {ScenarioConfig.drops}, got {cfg.drops}")
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
    est = simulate_links(profile, cfg, n_samples, rng, uplink_pc=ul_pc,
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
                             est[prefix].powers[label][0], term_tol,
                             n_samples))
        rows.append(_row(f"{prefix}_sinr",
                         float(sinr_all(profile, pc, cfg)[0]),
                         est[prefix].empirical_sinr[0], sinr_tol, n_samples))

    # ZFP SINR and the estimated-channel interference audit
    closed_zfp = float(downlink.zfp_sinr_all(profile, zf, cfg)[0])
    rows.append(_row("zfp_sinr", closed_zfp, est["zfp"].empirical_sinr[0],
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
