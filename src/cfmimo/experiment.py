"""Monte-Carlo experiments over topology drops.

A drop is one topology plus its large-scale fading; the three schemes
(uplink MRC, downlink CBF, downlink ZFP) are evaluated on the same drop so
their comparison is paired.  Drops are seeded individually from the master
seed, reduced in index order, and therefore reproduce byte-for-byte for
any worker count.  :func:`draw_drop` is the one pipeline from seed to ZF
moments: the sweep's :func:`run_drop` and the oracle's validation both
call it, so the validation checks the ZF route the sweep takes.

The sweep varies antennas per site at a fixed antenna total, crosses the
resulting rates with per-antenna/per-site cost ratios, and writes one CSV
row per (scheme, antenna count, cost ratio) plus a JSON sidecar of the
config, grids and per-split statistics, byte-identical for any worker count.

Costs are counted in units of the cost of one site, so a cost ratio is the
price of one antenna in those units.  Splitting the antennas into ``n_ap``
sites of ``n_t`` each costs ``n_ap * (1 + n_t * ratio)``, and the
cost-effectiveness ``gamma_ce`` is the sum rate in bit/s/Hz per cost unit.

Zero-forcing moment diagnostics keep one name from drop to sidecar: a ZF
:class:`RateReport` carries its drop's share in a ``zf`` dict, a ZF
:class:`SweepRecord` that dict reduced over its split's drops, and the
sidecar each key per antenna count.  The counts ``zf_sampled_drops`` and
``zf_equivalent_drops`` (drops that sampled their moments or took the
deterministic equivalent), ``zf_redraws`` (singular draws redrawn) and
``zf_draws`` (moment draws used) add up.  The rest keep the worst value
seen, or None when no drop had one: ``zf_max_antenna_share``, the
equivalent's largest single-antenna share (None where its fixed point did
not converge), and ``zf_peak_load_rel_se`` and ``zf_chi_rel_se``, the
relative standard errors of the peak site's load, which sets the power
scale, and of the worst leakage row sum (None on the equivalent).
"""

from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import __version__
from .downlink import EQUIVALENT_SHARE_LIMIT, cbf_power, cbf_sinr_all, \
    zfp_equivalent, zfp_moments, zfp_sinr_all
from .propagation import fading_profile, place_topology
from .scenario import ConfigError, ScenarioConfig, derive_site_count, \
    drop_seed
from .uplink import UplinkPowerControl, per_user_rate, uplink_sinr_all

SCHEMES = ("mrc-ul", "cbf-dl", "zfp-dl")

# the CSV's columns, each a SweepRecord field of the same name
CSV_COLUMNS = ("scheme", "n_t", "n_ap", "k", "drops", "sum_rate_mean",
               "se_p05", "se_p50", "cv_cf_ratio", "cost_total", "gamma_ce",
               "master_seed")

DEFAULT_NT_SWEEP = (1, 2, 4, 10, 12, 15, 20, 25, 30, 50)
DEFAULT_COST_RATIOS = (0.05, 0.1, 0.25, 0.5)


_ZF_COUNTS = ("zf_sampled_drops", "zf_equivalent_drops", "zf_redraws",
              "zf_draws")


@dataclass(frozen=True)
class RateReport:
    """Per-user spectral efficiencies of one scheme on one drop.

    ``zf`` holds a zero-forcing drop's moment diagnostics, keyed as in the
    module docstring; other schemes leave it None.
    """

    scheme: str
    per_user_se: np.ndarray      # bit/s/Hz, shape (users,)
    zf: dict | None = None

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
    zf: dict | None = None       # ZF only: the split's reduced diagnostics


def deployment_cost(n_ap: int, n_t: int, ratio: float) -> float:
    """Cost of ``n_ap`` sites of ``n_t`` antennas, in units of one site.

    Each site costs 1 unit plus ``ratio`` per antenna it carries.
    """
    return n_ap * (1.0 + n_t * ratio)


def draw_drop(cfg: ScenarioConfig, drop_index: int):
    """Drop ``drop_index`` from its own substream: (rng, profile, zf, share).

    The stream draws the topology, the shadowing and, where the ZFP
    moments are sampled, their batch, in that order, so the drop depends
    on nothing outside (cfg, drop_index); ``rng`` is left after them, for
    the oracle to read on.  ``zf`` comes from :func:`downlink.zfp_equivalent`
    when its single-antenna ``share`` is below
    :data:`downlink.EQUIVALENT_SHARE_LIMIT`, and otherwise from
    :func:`downlink.zfp_moments` under the config's ``chi_rel_se`` and
    ``chi_samples``; ``share`` is None where the fixed point failed.
    """
    rng = np.random.default_rng(drop_seed(cfg.master_seed, drop_index))
    profile = fading_profile(cfg, place_topology(cfg, rng), rng)
    zf, share = zfp_equivalent(profile) or (None, None)
    if share is None or not share < EQUIVALENT_SHARE_LIMIT:
        zf = zfp_moments(profile, cfg, rng)
    return rng, profile, zf, share


def run_drop(cfg: ScenarioConfig, drop_index: int) -> tuple[RateReport, ...]:
    """Evaluate all three schemes on the drop :func:`draw_drop` draws."""
    try:
        _, profile, zf, share = draw_drop(cfg, drop_index)
        eta_ul = UplinkPowerControl.full_power(cfg.num_users)
        se_ul = per_user_rate(uplink_sinr_all(profile, eta_ul, cfg))
        se_cbf = per_user_rate(cbf_sinr_all(profile, cbf_power(profile), cfg))
        se_zfp = per_user_rate(zfp_sinr_all(profile, zf, cfg))
    except (ValueError, RuntimeError) as exc:
        # tag the failing drop but keep the error class for exit codes
        raise type(exc)(f"drop {drop_index}: {exc}") from exc

    sampled = zf.n_samples > 0
    diagnostics = {
        "zf_sampled_drops": int(sampled),
        "zf_equivalent_drops": int(not sampled),
        "zf_redraws": zf.n_resampled,
        "zf_draws": zf.n_samples,
        "zf_max_antenna_share": share,
        "zf_peak_load_rel_se": zf.peak_load_rel_se if sampled else None,
        "zf_chi_rel_se": zf.chi_rel_se if sampled else None}
    return (RateReport("mrc-ul", se_ul), RateReport("cbf-dl", se_cbf),
            RateReport("zfp-dl", se_zfp, zf=diagnostics))


def percentile(values, p: float) -> float:
    """p-quantile with linear interpolation between order statistics."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p < 1.0:
        raise ValueError(f"percentile level must lie in (0, 1), got {p}")
    return float(np.quantile(arr, p, method="linear"))


def _reduce_zf(drops: list[dict]) -> dict:
    """A split's ZF diagnostics: counts add, the rest keep the worst."""
    return {key: sum(d[key] for d in drops) if key in _ZF_COUNTS
            else max((d[key] for d in drops if d[key] is not None),
                     default=None)
            for key in drops[0]}


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
        triples = (pool.map if pool else map)(run_drop, *zip(*pairs))
        results = []
        for (sub, index), triple in zip(pairs, triples):
            results.append(triple)
            if progress:
                progress(sub.antennas_per_ap, index + 1, sub.drops)
    return results


def sweep(cfg: ScenarioConfig, nt_list=None, cv_ratios=None, jobs: int = 1,
          progress=None) -> list[SweepRecord]:
    """Antenna-split sweep at a fixed antenna budget.

    Each ``nt_list`` entry replaces ``cfg.antennas_per_ap``, which must be
    1, and must be an integer >= 1 dividing the antenna total; neither grid
    may repeat an entry.  All is checked before any drop runs.  Each cost
    ratio prices the split through :func:`deployment_cost`.
    """
    nt_list = list(DEFAULT_NT_SWEEP if nt_list is None else nt_list)
    cv_ratios = list(DEFAULT_COST_RATIOS if cv_ratios is None else cv_ratios)
    if cfg.antennas_per_ap != 1:
        raise ConfigError(f"antennas_per_ap must be 1 under sweep, which "
                          f"takes it from --nt, got {cfg.antennas_per_ap}")
    if not nt_list:
        raise ConfigError("empty antenna sweep")
    if not cv_ratios:
        raise ConfigError("empty cost-ratio list")
    subs = [dataclasses.replace(cfg, antennas_per_ap=n_t) for n_t in nt_list]
    bad = [r for r in cv_ratios if not (r > 0 and math.isfinite(r))]
    if bad:
        raise ConfigError(f"cost ratios must be finite and > 0, got {bad}")
    for name, grid in (("antenna counts", nt_list),
                       ("cost ratios", cv_ratios)):
        if len(set(grid)) < len(grid):
            raise ConfigError(f"repeated {name} in {grid}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

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
            zf = _reduce_zf([t[s].zf for t in triples]) \
                if triples[0][s].zf else None
            for ratio in cv_ratios:
                cost = deployment_cost(n_ap, n_t, ratio)
                records.append(SweepRecord(
                    scheme=scheme, n_t=n_t, n_ap=n_ap, k=sub.num_users,
                    drops=sub.drops, sum_rate_mean=mean,
                    sum_rate_stderr=stderr, se_p05=p05, se_p50=p50,
                    cv_cf_ratio=float(ratio), cost_total=cost,
                    gamma_ce=mean / cost,
                    master_seed=sub.master_seed, zf=zf))
    return records


def write_records_csv(records: list[SweepRecord], path) -> None:
    """Write sweep rows in :data:`CSV_COLUMNS`, floats to six digits."""
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        values = (getattr(r, column) for column in CSV_COLUMNS)
        lines.append(",".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                              for v in values))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def metadata_path(csv_path) -> str:
    return str(csv_path) + ".meta.json"


def write_metadata(csv_path, cfg: ScenarioConfig,
                   records: list[SweepRecord]) -> None:
    """JSON sidecar: each fact that fixes the CSV, once.

    The keys are ``version``; ``config``, which holds the seed, drops and
    ZF draw controls; ``nt_list`` and ``cv_cf_ratios``, read off
    ``records`` in their order, which :func:`sweep` makes exact by
    rejecting repeated entries; ``sum_rate_stderr`` per scheme and antenna
    count; and each key of the ZF records' ``zf`` dicts per antenna count
    (see the module docstring).  With no timestamp or worker count, a rerun
    at any ``jobs`` writes the same bytes.
    """
    stderr, zf = {}, {}
    for r in records:
        stderr.setdefault(r.scheme, {})[str(r.n_t)] = float(r.sum_rate_stderr)
        for key, value in (r.zf or {}).items():
            zf.setdefault(key, {})[str(r.n_t)] = value
    meta = {
        "version": __version__,
        "config": dataclasses.asdict(cfg),
        "nt_list": list(dict.fromkeys(r.n_t for r in records)),
        "cv_cf_ratios": list(dict.fromkeys(r.cv_cf_ratio for r in records)),
        "sum_rate_stderr": stderr,
        **zf,
    }
    with open(metadata_path(csv_path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
