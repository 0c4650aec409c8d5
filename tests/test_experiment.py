import dataclasses
import json

import numpy as np
import pytest

from cfmimo import experiment
from cfmimo.downlink import EQUIVALENT_SHARE_LIMIT
from cfmimo.experiment import (CSV_COLUMNS, DEFAULT_COST_RATIOS,
                               DEFAULT_NT_SWEEP, RateReport, metadata_path,
                               percentile, run_drop, sweep,
                               write_metadata, write_records_csv)
from cfmimo.scenario import ConfigError, ScenarioConfig

SMALL = ScenarioConfig(total_antennas=30, num_users=4, drops=6,
                       chi_samples=60, master_seed=77)


def test_run_drop_shapes_and_determinism():
    a = run_drop(SMALL, 0)
    b = run_drop(SMALL, 0)
    assert [r.scheme for r in a] == ["mrc-ul", "cbf-dl", "zfp-dl"]
    for ra, rb in zip(a, b):
        assert ra.per_user_se.shape == (4,)
        assert (ra.per_user_se >= 0).all()
        assert np.array_equal(ra.per_user_se, rb.per_user_se)
        assert ra.sum_rate == pytest.approx(ra.per_user_se.sum())


def test_run_drop_differs_across_indices_and_seeds():
    a = run_drop(SMALL, 0)
    b = run_drop(SMALL, 1)
    assert not np.array_equal(a[0].per_user_se, b[0].per_user_se)
    c = run_drop(dataclasses.replace(SMALL, master_seed=78), 0)
    assert not np.array_equal(a[0].per_user_se, c[0].per_user_se)


def test_run_drop_single_user_sum_equals_user_rate():
    cfg = dataclasses.replace(SMALL, num_users=1)
    for rep in run_drop(cfg, 2):
        assert rep.sum_rate == pytest.approx(float(rep.per_user_se[0]))


def test_run_drop_error_carries_drop_index(monkeypatch):
    import cfmimo.experiment as exp
    from cfmimo.downlink import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    # drop 3 of SMALL at n_t = 2 has share 1.09, so it samples its moments
    two = dataclasses.replace(SMALL, antennas_per_ap=2)
    assert run_drop(two, 3)[2].zf["zf_sampled_drops"] == 1
    monkeypatch.setattr(exp, "zfp_moments", boom)
    with pytest.raises(NumericalError) as err:
        run_drop(two, 3)
    assert str(err.value).startswith("drop 3:")
    # the equivalent runs first on every drop, so its failure is tagged too
    monkeypatch.setattr(exp, "zfp_equivalent", boom)
    with pytest.raises(NumericalError) as err:
        run_drop(dataclasses.replace(SMALL, antennas_per_ap=3), 0)
    assert str(err.value).startswith("drop 0:")


def test_zfp_beats_cbf_per_user_on_average_at_single_antenna_sites():
    # dense deployment at the full user population, modest drop count
    cfg = ScenarioConfig(total_antennas=300, antennas_per_ap=1, num_users=16,
                         drops=100, chi_samples=300, master_seed=5)
    zfp_mean = 0.0
    cbf_mean = 0.0
    for i in range(cfg.drops):
        _, cbf, zfp = run_drop(cfg, i)
        cbf_mean += cbf.per_user_se.mean()
        zfp_mean += zfp.per_user_se.mean()
    assert zfp_mean / cfg.drops > cbf_mean / cfg.drops


def test_fixed_ap_site_layout_is_stable_across_drops():
    from cfmimo.propagation import place_topology
    from cfmimo.scenario import drop_seed
    cfg = dataclasses.replace(SMALL, fixed_ap=True)
    t0 = place_topology(cfg, np.random.default_rng(drop_seed(77, 0)))
    t1 = place_topology(cfg, np.random.default_rng(drop_seed(77, 5)))
    assert np.array_equal(t0.ap_positions, t1.ap_positions)


def test_percentile_reference_values():
    assert percentile([1, 2, 3, 4, 5], 0.5) == 3.0
    assert percentile(np.arange(100), 0.05) == pytest.approx(4.95)
    assert percentile([7.0, 7.0, 7.0], 0.05) == 7.0
    assert percentile([2.0, 1.0], 0.5) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_sweep_record_grid_and_invariants():
    records = sweep(SMALL, nt_list=[1, 2, 5], cv_ratios=[0.1, 0.5])
    # 3 schemes x 3 splits x 2 ratios
    assert len(records) == 18
    for r in records:
        assert r.n_t * r.n_ap == SMALL.total_antennas
        assert r.k == 4
        assert r.drops == 6
        assert r.master_seed == 77
        assert r.se_p05 <= r.se_p50
        assert r.cost_total == pytest.approx(
            r.n_ap * (1.0 + r.n_t * r.cv_cf_ratio))
        assert r.gamma_ce == pytest.approx(r.sum_rate_mean / r.cost_total)
    # per-(scheme, n_t) rate stats identical across cost ratios
    by_key = {}
    for r in records:
        by_key.setdefault((r.scheme, r.n_t), set()).add(
            (r.sum_rate_mean, r.se_p05, r.se_p50))
    assert all(len(v) == 1 for v in by_key.values())


def test_sweep_defaults_shape():
    cfg = dataclasses.replace(SMALL, total_antennas=300, num_users=4,
                              drops=1, chi_samples=30)
    records = sweep(cfg)
    assert len(records) == 3 * len(DEFAULT_NT_SWEEP) * len(DEFAULT_COST_RATIOS)
    assert {r.n_t for r in records} == set(DEFAULT_NT_SWEEP)


def test_sweep_rejects_bad_grids_before_running():
    with pytest.raises(ConfigError) as err:
        sweep(SMALL, nt_list=[1, 7], cv_ratios=[0.1])
    assert "7" in str(err.value)
    # an infinite ratio would price every split at inf and write inf into
    # the CSV and Infinity into the sidecar
    for ratio in (-0.1, float("inf")):
        with pytest.raises(ConfigError) as err:
            sweep(SMALL, nt_list=[2], cv_ratios=[0.1, ratio])
        assert "cost ratios must be finite and > 0" in str(err.value)
    # a repeated entry would run its drops twice and write its rows twice
    with pytest.raises(ConfigError, match=r"repeated antenna counts"):
        sweep(SMALL, nt_list=[2, 5, 2], cv_ratios=[0.1])
    with pytest.raises(ConfigError, match=r"repeated cost ratios"):
        sweep(SMALL, nt_list=[2], cv_ratios=[0.1, 0.25, 0.1])
    with pytest.raises(ConfigError):
        sweep(SMALL, nt_list=[], cv_ratios=[0.1])
    with pytest.raises(ConfigError):
        sweep(SMALL, nt_list=[2], cv_ratios=[0.1], jobs=0)


def test_sweep_parallel_results_are_identical():
    serial = sweep(SMALL, nt_list=[1, 3], cv_ratios=[0.05], jobs=1)
    parallel = sweep(SMALL, nt_list=[1, 3], cv_ratios=[0.05], jobs=2)
    assert serial == parallel


class SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in turn."""

    sizes: list = []

    def __init__(self, max_workers):
        SerialPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("nt_list, drops, jobs, opened", [
    ([2], 1, 8, []),               # one drop: no pool at all
    ([1, 3], 1, 8, [2]),           # two drops: two workers, not eight
    ([2], 3, 2, [2]),              # more drops than jobs: jobs workers
])
def test_sweep_opens_no_more_workers_than_drops(monkeypatch, nt_list, drops,
                                                jobs, opened):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    cfg = dataclasses.replace(SMALL, drops=drops)
    records = sweep(cfg, nt_list=nt_list, cv_ratios=[0.05], jobs=jobs)
    assert SerialPool.sizes == opened
    assert records == sweep(cfg, nt_list=nt_list, cv_ratios=[0.05], jobs=1)


def test_csv_and_metadata_outputs(tmp_path):
    records = sweep(SMALL, nt_list=[2], cv_ratios=[0.1, 0.25])
    out = tmp_path / "out.csv"
    write_records_csv(records, out)
    write_metadata(out, SMALL, records)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert first[0] == "mrc-ul"
    assert first[1] == "2" and first[2] == "15"
    assert first[11] == "77"
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    # each fact once: seeds, drops and draw controls live in the config
    assert set(meta) == {"version", "config", "nt_list", "cv_cf_ratios",
                         "sum_rate_stderr", *records[-1].zf}
    assert meta["config"]["total_antennas"] == 30
    assert meta["config"]["drops"] == 6
    assert meta["config"]["master_seed"] == 77
    assert meta["nt_list"] == [2]
    assert meta["cv_cf_ratios"] == [0.1, 0.25]
    assert metadata_path(out) == str(out) + ".meta.json"


def test_csv_floats_have_six_significant_digits(tmp_path):
    records = sweep(SMALL, nt_list=[2], cv_ratios=[1.0 / 3.0])
    out = tmp_path / "out.csv"
    write_records_csv(records, out)
    row = out.read_text().splitlines()[1].split(",")
    assert row[8] == "0.333333"
    for cell in (row[5], row[6], row[7]):
        mantissa = cell.replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa.split("e")[0]) <= 6


def test_zf_report_carries_its_moment_diagnostics():
    # n_t = 3 of SMALL has drops on both sides of the limit
    three = dataclasses.replace(SMALL, antennas_per_ap=3)
    reports = [run_drop(three, d) for d in range(SMALL.drops)]
    assert all(mrc.zf is None and cbf.zf is None
               for mrc, cbf, _ in reports)
    zf = [zfp.zf for _, _, zfp in reports]
    sampled = [d["zf_sampled_drops"] for d in zf]
    assert sampled == [int(d["zf_max_antenna_share"]
                           >= EQUIVALENT_SHARE_LIMIT) for d in zf]
    assert set(sampled) == {0, 1}
    for d in zf:
        # scalars only, so the pool ships no moment arrays
        assert all(v is None or isinstance(v, (int, float))
                   for v in d.values())
        assert d["zf_equivalent_drops"] == 1 - d["zf_sampled_drops"]
        assert d["zf_redraws"] == 0
        if d["zf_sampled_drops"]:
            assert 50 <= d["zf_draws"] <= SMALL.chi_samples
            assert 0 < d["zf_peak_load_rel_se"] < 0.5
            assert 0 < d["zf_chi_rel_se"] < 0.5
        else:
            assert d["zf_draws"] == 0
            assert d["zf_peak_load_rel_se"] is None
            assert d["zf_chi_rel_se"] is None
    # the split sums the counts and keeps the worst of the rest
    want = {
        "zf_sampled_drops": sum(sampled),
        "zf_equivalent_drops": len(zf) - sum(sampled),
        "zf_redraws": 0,
        "zf_draws": sum(d["zf_draws"] for d in zf),
        "zf_max_antenna_share": max(d["zf_max_antenna_share"] for d in zf),
        "zf_peak_load_rel_se": max(d["zf_peak_load_rel_se"] for d in zf
                                   if d["zf_sampled_drops"]),
        "zf_chi_rel_se": max(d["zf_chi_rel_se"] for d in zf
                             if d["zf_sampled_drops"])}
    records = sweep(SMALL, nt_list=[3], cv_ratios=[0.1, 0.25])
    assert [r.zf for r in records if r.scheme == "zfp-dl"] == [want, want]
    assert all(r.zf is None for r in records if r.scheme != "zfp-dl")


# A small area puts user-site distances on both sides of both path-loss
# breakpoints, so every propagation constant reaches the rates.  The ZF
# moments draw their whole cap, which spans blocks of 910 draws, so both
# the cap and a precision target that stops at a block boundary act.
FIELD_BASE = ScenarioConfig(total_antennas=24, num_users=3,
                            area_side_km=0.1, drops=2, chi_samples=2000,
                            chi_rel_se=0.0, master_seed=4)

# one alternative value per ScenarioConfig field
FIELD_ALTERNATIVES = {
    "total_antennas": 30,
    "antennas_per_ap": 4,
    "num_users": 4,
    "area_side_km": 0.2,
    "ue_tx_power": 0.1,
    "ap_per_antenna_tx_power": 0.1,
    "noise_density_dbm_hz": -170.0,
    "noise_figure_db": 6.0,
    "bandwidth_hz": 20e6,
    "carrier_freq_mhz": 2600.0,
    "ap_height_m": 10.0,
    "ue_height_m": 2.0,
    "shadowing_sigma_db": 4.0,
    "breakpoint_d0_km": 0.02,
    "breakpoint_d1_km": 0.08,
    "drops": 3,
    "chi_samples": 30,
    "chi_rel_se": 0.05,
    "master_seed": 5,
    "ap_placement": "grid",
    "fixed_ap": True,
}


def test_every_config_field_has_an_alternative():
    assert set(FIELD_ALTERNATIVES) == {
        f.name for f in dataclasses.fields(ScenarioConfig)}


def _output(cfg: ScenarioConfig, path) -> str:
    # the CSV, not the sidecar: the sidecar echoes the config
    write_records_csv(sweep(cfg, nt_list=[2], cv_ratios=[0.1]), path)
    return path.read_text()


@pytest.mark.parametrize("field,value", sorted(FIELD_ALTERNATIVES.items()))
def test_every_config_field_changes_the_output(field, value, tmp_path):
    changed = dataclasses.replace(FIELD_BASE, **{field: value})
    if field == "antennas_per_ap":
        # the sweep takes antennas per site from its n_t grid and rejects
        # the field; it acts where one split is run
        with pytest.raises(ConfigError, match="antennas_per_ap must be 1"):
            _output(changed, tmp_path / "alt.csv")
        base, alt = run_drop(FIELD_BASE, 0), run_drop(changed, 0)
        assert not np.array_equal(base[0].per_user_se, alt[0].per_user_se)
        return
    assert _output(changed, tmp_path / "alt.csv") \
        != _output(FIELD_BASE, tmp_path / "base.csv")


def test_rate_report_sum():
    rep = RateReport("mrc-ul", np.array([1.0, 2.5]))
    assert rep.sum_rate == 3.5
