"""Monte-Carlo experiments over topology drops.

A drop is one topology plus its large-scale fading; the three schemes
(uplink MRC, downlink CBF, downlink ZFP) are evaluated on the same drop so
their comparison is paired.  Drops are seeded individually from the master
seed, reduced in index order, and therefore reproduce byte-for-byte for
any worker count.

The sweep varies antennas per site at a fixed antenna total, crosses the
resulting rates with per-antenna/per-site cost ratios, and writes one CSV
row per (scheme, antenna count, cost ratio) plus a JSON sidecar recording
exactly how the run was produced.

Costs are counted in units of the cost of one site, so a cost ratio is the
price of one antenna in those units.  Splitting the antennas into ``n_ap``
sites of ``n_t`` each costs ``n_ap * (1 + n_t * ratio)``, and the
cost-effectiveness ``gamma_ce`` is the sum rate in bit/s/Hz per cost unit.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import __version__
from .downlink import EQUIVALENT_SHARE_LIMIT, cbf_power, cbf_sinr_all, \
    zfp_equivalent, zfp_moments, zfp_sinr_all
from .propagation import fading_profile, place_topology
from .scenario import ConfigError, ScenarioConfig, config_to_dict, \
    derive_site_count, drop_seed
from .uplink import UplinkPowerControl, per_user_rate, uplink_sinr_all

SCHEMES = ("mrc-ul", "cbf-dl", "zfp-dl")

CSV_HEADER = ("scheme,n_t,n_ap,k,drops,sum_rate_mean,se_p05,se_p50,"
              "cv_cf_ratio,cost_total,gamma_ce,master_seed")

DEFAULT_NT_SWEEP = (1, 2, 4, 10, 12, 15, 20, 25, 30, 50)
DEFAULT_COST_RATIOS = (0.05, 0.1, 0.25, 0.5)


@dataclass(frozen=True)
class RateReport:
    """Per-user spectral efficiencies of one scheme on one drop.

    A zero-forcing report also carries the diagnostics of its moments: the
    largest single-antenna share of the deterministic equivalent (None when
    its fixed point did not converge) and, for sampled moments, the singular
    draws redrawn and the relative standard error of the peak site's load,
    which sets the power scale.  Moments from the equivalent have no
    Monte-Carlo error, so their ``peak_load_rel_se`` is None and their
    ``n_resampled`` 0.  Other schemes leave all three None.
    """

    scheme: str
    drop_index: int
    per_user_se: np.ndarray      # bit/s/Hz, shape (users,)
    n_resampled: int | None = None
    peak_load_rel_se: float | None = None
    antenna_share: float | None = None

    @property
    def sampled(self) -> bool:
        """True for a zero-forcing report whose moments were sampled."""
        return self.peak_load_rel_se is not None

    @property
    def sum_rate(self) -> float:
        return float(self.per_user_se.sum())


@dataclass(frozen=True)
class SweepRecord:
    """One output row: a scheme at one antenna split and one cost ratio."""

    scheme: str
    n_t: int
    n_ap: int
    k: int
    drops: int
    sum_rate_mean: float
    sum_rate_stderr: float
    se_p05: float
    se_p50: float
    cv_cf_ratio: float
    cost_total: float
    gamma_ce: float
    master_seed: int
    # ZF only, else None: singular draws redrawn over all drops, drops
    # whose moments were sampled, the worst peak-load relative standard
    # error over those (None when every drop took the deterministic
    # equivalent) and the worst single-antenna share over the drops
    redraws: int | None = None
    sampled_drops: int | None = None
    peak_load_rel_se: float | None = None
    antenna_share: float | None = None


def deployment_cost(n_ap: int, n_t: int, ratio: float) -> float:
    """Cost of ``n_ap`` sites of ``n_t`` antennas, in units of one site.

    Each site costs 1 unit plus ``ratio`` per antenna it carries.
    """
    return n_ap * (1.0 + n_t * ratio)


def run_drop(cfg: ScenarioConfig, drop_index: int) -> tuple[RateReport, ...]:
    """Evaluate all three schemes on drop ``drop_index``.

    Randomness comes only from the drop's own substream; the draw order is
    topology, shadowing, then, where the ZFP moments are sampled, their
    batch, so results depend on nothing outside (cfg, drop_index).  The
    ZFP moments come from :func:`downlink.zfp_equivalent` when its
    single-antenna share is below :data:`downlink.EQUIVALENT_SHARE_LIMIT`,
    and from the sampled :func:`downlink.zfp_moments` otherwise.
    """
    try:
        rng = np.random.default_rng(drop_seed(cfg.master_seed, drop_index))
        topo = place_topology(cfg, rng)
        profile = fading_profile(cfg, topo, rng)

        eta_ul = UplinkPowerControl.full_power(cfg.num_users)
        se_ul = per_user_rate(uplink_sinr_all(profile, eta_ul, cfg))

        pc_cbf = cbf_power(profile)
        se_cbf = per_user_rate(cbf_sinr_all(profile, pc_cbf, cfg))

        equivalent = zfp_equivalent(profile)
        share = None if equivalent is None else equivalent[2]
        if share is not None and share < EQUIVALENT_SHARE_LIMIT:
            chi, pc_zfp, _ = equivalent
        else:
            chi, pc_zfp = zfp_moments(profile, cfg, rng)
        se_zfp = per_user_rate(zfp_sinr_all(profile, pc_zfp, chi, cfg))
    except (ValueError, RuntimeError) as exc:
        # tag the failing drop but keep the error class for exit codes
        raise type(exc)(f"drop {drop_index}: {exc}") from exc

    return (RateReport("mrc-ul", drop_index, se_ul),
            RateReport("cbf-dl", drop_index, se_cbf),
            RateReport("zfp-dl", drop_index, se_zfp,
                       n_resampled=pc_zfp.n_resampled,
                       peak_load_rel_se=pc_zfp.peak_load_rel_se
                       if pc_zfp.n_samples else None,
                       antenna_share=share))


def percentile(values, p: float) -> float:
    """p-quantile with linear interpolation between order statistics."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p < 1.0:
        raise ValueError(f"percentile level must lie in (0, 1), got {p}")
    return float(np.quantile(arr, p, method="linear"))


def _run_drop_star(args) -> tuple[RateReport, ...]:
    return run_drop(*args)


def _collect_drops(pairs: list, jobs: int, progress=None) -> list:
    """``run_drop`` over (config, drop index) pairs, in the pairs' order.

    One pool serves every pair, so a worker that finishes cheap drops takes
    the next pair whatever its config; it opens no more workers than there
    are pairs, and none for one.  ``progress(n_t, done, drops)`` is called
    as each result arrives in order.
    """
    workers = min(jobs, len(pairs))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():
        triples = (pool.map if pool else map)(_run_drop_star, pairs)
        results = []
        for (sub, index), triple in zip(pairs, triples):
            results.append(triple)
            if progress:
                progress(sub.antennas_per_ap, index + 1, sub.drops)
    return results


def sweep(cfg: ScenarioConfig, nt_list=None, cv_ratios=None, jobs: int = 1,
          progress=None) -> list[SweepRecord]:
    """Antenna-split sweep at a fixed antenna budget.

    Every entry of ``nt_list`` must divide the config's antenna total; that
    is checked up front so a bad grid fails before any computation.  Each
    cost ratio prices the split through :func:`deployment_cost`.
    """
    nt_list = list(DEFAULT_NT_SWEEP if nt_list is None else nt_list)
    cv_ratios = list(DEFAULT_COST_RATIOS if cv_ratios is None else cv_ratios)
    if not nt_list:
        raise ConfigError("empty antenna sweep")
    if not cv_ratios:
        raise ConfigError("empty cost-ratio list")
    bad = [n for n in nt_list
           if not isinstance(n, int) or n < 1 or cfg.total_antennas % n != 0]
    if bad:
        raise ConfigError(f"antenna counts {bad} do not divide "
                          f"total_antennas ({cfg.total_antennas})")
    bad_r = [r for r in cv_ratios if not r > 0]
    if bad_r:
        raise ConfigError(f"cost ratios must be > 0, got {bad_r}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    subs = [dataclasses.replace(cfg, antennas_per_ap=n_t) for n_t in nt_list]
    reports = _collect_drops([(sub, i) for sub in subs
                              for i in range(cfg.drops)], jobs, progress)
    records: list[SweepRecord] = []
    for j, (n_t, sub) in enumerate(zip(nt_list, subs)):
        n_ap = derive_site_count(sub)
        triples = reports[j * cfg.drops:(j + 1) * cfg.drops]
        for s, scheme in enumerate(SCHEMES):
            sums = np.array([t[s].sum_rate for t in triples])
            pooled = np.concatenate([t[s].per_user_se for t in triples])
            mean = float(sums.mean())
            stderr = float(sums.std(ddof=1) / np.sqrt(len(sums))) \
                if len(sums) > 1 else 0.0
            p05 = percentile(pooled, 0.05)
            p50 = percentile(pooled, 0.50)
            diagnostics = {}
            if scheme == "zfp-dl":
                zf = [t[s] for t in triples]
                rel_se = [r.peak_load_rel_se for r in zf if r.sampled]
                diagnostics = {
                    "redraws": sum(r.n_resampled for r in zf),
                    "sampled_drops": len(rel_se),
                    "peak_load_rel_se": max(rel_se, default=None),
                    "antenna_share": max((r.antenna_share for r in zf
                                          if r.antenna_share is not None),
                                         default=None)}
            for ratio in cv_ratios:
                cost = deployment_cost(n_ap, n_t, ratio)
                records.append(SweepRecord(
                    scheme=scheme, n_t=n_t, n_ap=n_ap, k=sub.num_users,
                    drops=sub.drops, sum_rate_mean=mean,
                    sum_rate_stderr=stderr, se_p05=p05, se_p50=p50,
                    cv_cf_ratio=ratio, cost_total=cost,
                    gamma_ce=mean / cost,
                    master_seed=sub.master_seed, **diagnostics))
    return records


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def write_records_csv(records: list[SweepRecord], path) -> None:
    """Write sweep rows with six-significant-digit floats."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            r.scheme, str(r.n_t), str(r.n_ap), str(r.k), str(r.drops),
            _fmt(r.sum_rate_mean), _fmt(r.se_p05), _fmt(r.se_p50),
            _fmt(r.cv_cf_ratio), _fmt(r.cost_total), _fmt(r.gamma_ce),
            str(r.master_seed)]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def metadata_path(csv_path) -> str:
    return str(csv_path) + ".meta.json"


def write_metadata(csv_path, cfg: ScenarioConfig, nt_list, cv_ratios,
                   records: list[SweepRecord], quick: bool = False,
                   jobs: int = 1) -> None:
    """JSON sidecar: config, grids, seeds, sample sizes and run statistics.

    Per antenna count it records the sum-rate standard error of each scheme
    and the ZF moment diagnostics: ``zf_equivalent_drops`` and
    ``zf_sampled_drops``, how many drops took their moments from the
    deterministic equivalent and how many sampled them;
    ``zf_max_antenna_share``, the worst single-antenna share of the
    equivalent seen (null if its fixed point never converged);
    ``zf_redraws``, the singular draws redrawn over the sampled drops; and
    ``zf_peak_load_rel_se``, the worst relative standard error of a sampled
    drop's peak site load, null when no drop sampled.  Content is a pure
    function of the run inputs and outputs (no timestamps), so reruns of
    the same experiment produce identical files.
    """
    stderr, zf = {}, {}
    for r in records:
        stderr.setdefault(r.scheme, {})[str(r.n_t)] = float(r.sum_rate_stderr)
        if r.redraws is not None:
            for key, value in (
                    ("zf_redraws", r.redraws),
                    ("zf_equivalent_drops", r.drops - r.sampled_drops),
                    ("zf_sampled_drops", r.sampled_drops),
                    ("zf_max_antenna_share", r.antenna_share),
                    ("zf_peak_load_rel_se", r.peak_load_rel_se)):
                zf.setdefault(key, {})[str(r.n_t)] = value
    meta = {
        "version": __version__,
        "config": config_to_dict(cfg),
        "nt_list": list(nt_list),
        "cv_cf_ratios": [float(x) for x in cv_ratios],
        "master_seed": cfg.master_seed,
        "drops": cfg.drops,
        "chi_samples": cfg.chi_samples,
        "percentile_pool_size": cfg.drops * cfg.num_users,
        "quick": bool(quick),
        "jobs": int(jobs),
        "sum_rate_stderr": stderr,
        **zf,
    }
    with open(metadata_path(csv_path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
