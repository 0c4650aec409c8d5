"""End-to-end acceptance suite.

One test per shipping criterion, each computing every sub-check first and
reporting a single ``ACCEPTANCE <n> PASS/FAIL`` line (echoed again in the
terminal summary) before asserting.  The full-scale antenna-split sweeps
are module-scoped fixtures shared by the criteria that read them.
"""

import json
import math
import time

import numpy as np
import pytest

from cfmimo.cli import main as cli_main
from cfmimo.downlink import cbf_power, cbf_sinr_all, zfp_moments, zfp_sinr_all
from cfmimo.experiment import DEFAULT_COST_RATIOS, DEFAULT_NT_SWEEP, \
    percentile, sweep
from cfmimo.oracle import reference_config, simulate_downlink_cbf, \
    simulate_downlink_zfp, simulate_uplink_terms
from cfmimo.propagation import fading_profile, l0_constant, large_scale_gain, \
    path_loss_db, place_topology
from cfmimo.scenario import ScenarioConfig, derive_noise_power, drop_seed
from cfmimo.uplink import UplinkPowerControl, per_user_rate, \
    uplink_term_variances, uplink_sinr_all

ORACLE_SAMPLES = 100_000
CHI_REF_SAMPLES = 20_000
FULL_SCALE_SEED = 0
FULL_SCALE_DROPS = 300
MEDIAN_DROPS = 2_000      # medians only need the closed forms, so go large


def _relerr(closed: float, empirical: float) -> float:
    return abs(empirical - closed) / abs(closed)


@pytest.fixture(scope="module")
def reference_instance():
    """One drop of the 40-antenna reference scenario (criteria 1-3, 5)."""
    cfg = reference_config(0)
    rng = np.random.default_rng(drop_seed(cfg.master_seed, 0))
    topo = place_topology(cfg, rng)
    profile = fading_profile(cfg, topo, rng)
    return cfg, profile


@pytest.fixture(scope="module")
def full_scale_sweep():
    """Full-scale sweep over the default antenna grid, timed."""
    cfg = ScenarioConfig(total_antennas=300, num_users=16,
                         drops=FULL_SCALE_DROPS, chi_samples=500,
                         master_seed=FULL_SCALE_SEED)
    t0 = time.perf_counter()
    records = sweep(cfg)
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def quick_scale_sweep():
    """Reduced-scale sweep used by the --quick ordering checks."""
    cfg = ScenarioConfig(total_antennas=120, num_users=8,
                         drops=FULL_SCALE_DROPS, chi_samples=500,
                         master_seed=FULL_SCALE_SEED)
    return sweep(cfg, nt_list=[1, 2, 4, 10, 12, 15, 20, 30],
                 cv_ratios=[0.05])


def _sum_rate_stats(records, scheme):
    """{n_t: (mean, stderr)} at the first cost ratio, grid order."""
    ratio = min(r.cv_cf_ratio for r in records)
    out = {}
    for r in records:
        if r.scheme == scheme and r.cv_cf_ratio == ratio:
            out[r.n_t] = (r.sum_rate_mean, r.sum_rate_stderr)
    return out


def _monotone_violations(stats):
    """Adjacent increases of the sum-rate curve: (n_t_a, n_t_b, excess, se)."""
    nts = sorted(stats)
    bad = []
    for a, b in zip(nts, nts[1:]):
        if stats[b][0] > stats[a][0]:
            se = math.hypot(stats[a][1], stats[b][1])
            bad.append((a, b, stats[b][0] - stats[a][0], se))
    return bad


def test_criterion_1_uplink_oracle(reference_instance, acceptance_record):
    cfg, profile = reference_instance
    eta = UplinkPowerControl.full_power(cfg.num_users)
    p_u = cfg.ue_tx_power

    t0 = time.perf_counter()
    est = simulate_uplink_terms(profile, eta, 0, cfg, ORACLE_SAMPLES,
                                np.random.default_rng(11))
    elapsed = time.perf_counter() - t0

    terms = uplink_term_variances(profile, eta, 0, cfg)
    closed = {
        "desired": terms.desired,
        "uncertainty": p_u * eta.eta[0] * terms.uncertainty,
        "est_error": terms.estimation_error,
        "inter_user": terms.inter_user,
        "noise": terms.noise,
    }
    term_errs = {lbl: _relerr(closed[lbl], est.powers[lbl]) for lbl in closed}
    worst = max(term_errs, key=term_errs.get)
    sinr_err = _relerr(uplink_sinr_all(profile, eta, cfg)[0],
                       est.empirical_sinr)

    ok = (max(term_errs.values()) <= 0.03 and sinr_err <= 0.03
          and elapsed < 60.0)
    detail = (f"five term powers within 3% (worst {term_errs[worst]:.2%} on "
              f"{worst}), SINR within 3% ({sinr_err:.2%}), "
              f"{ORACLE_SAMPLES} samples in {elapsed:.1f} s (< 60 s)")
    acceptance_record(1, ok, detail)
    assert ok, detail


def test_criterion_2_cbf_oracle(reference_instance, acceptance_record):
    cfg, profile = reference_instance
    pc = cbf_power(profile)

    t0 = time.perf_counter()
    est = simulate_downlink_cbf(profile, pc, 0, cfg, ORACLE_SAMPLES,
                                np.random.default_rng(21))
    elapsed = time.perf_counter() - t0
    sinr_err = _relerr(cbf_sinr_all(profile, pc, cfg)[0], est.empirical_sinr)

    ok = sinr_err <= 0.03 and elapsed < 60.0
    detail = (f"closed-form SINR within 3% of link level ({sinr_err:.2%}), "
              f"{ORACLE_SAMPLES} samples in {elapsed:.1f} s (< 60 s)")
    acceptance_record(2, ok, detail)
    assert ok, detail


def test_criterion_3_zfp_oracle(reference_instance, acceptance_record):
    cfg, profile = reference_instance
    chi, pc = zfp_moments(profile, cfg, np.random.default_rng(31),
                          CHI_REF_SAMPLES)
    closed = zfp_sinr_all(profile, pc, chi, cfg)[0]
    est = simulate_downlink_zfp(profile, pc.eta_common, 0, cfg,
                                ORACLE_SAMPLES, np.random.default_rng(33))
    sinr_err = _relerr(closed, est.empirical_sinr)

    ok = sinr_err <= 0.05 and est.max_est_iui < 1e-9
    detail = (f"closed form with sampled leakage moments within 5% of link "
              f"level ({sinr_err:.2%}), worst estimated-channel residual "
              f"interference {est.max_est_iui:.2e} (< 1e-9)")
    acceptance_record(3, ok, detail)
    assert ok, detail


def test_criterion_4_propagation_constants(acceptance_record):
    cfg = ScenarioConfig()
    l0 = l0_constant(1900.0, 15.0, 1.65)
    d0, d1 = cfg.breakpoint_d0_km, cfg.breakpoint_d1_km

    l0_ok = abs(l0 - 140.72) <= 0.01

    jumps = []
    for edge in (d0, d1):
        below = path_loss_db(np.nextafter(edge, 0.0), l0, d0, d1)
        above = path_loss_db(np.nextafter(edge, np.inf), l0, d0, d1)
        jumps.append(abs(above - below))
    cont_ok = max(jumps) <= 1e-9

    gain = large_scale_gain(1.0, 0.0, l0, cfg)
    beta_ok = gain == 10.0 ** (-l0 / 10.0) \
        and abs(10.0 * math.log10(gain) + 140.72) <= 0.01

    ok = l0_ok and cont_ok and beta_ok
    detail = (f"fixed offset {l0:.5f} dB = 140.72 +- 0.01; branch seams "
              f"continuous to {max(jumps):.1e} dB (<= 1e-9); gain at 1 km "
              f"without shadowing is exactly -{l0:.5f} dB")
    acceptance_record(4, ok, detail)
    assert ok, detail


def test_criterion_5_power_budgets(reference_instance, acceptance_record):
    cfg, profile = reference_instance
    p_d = cfg.ap_per_antenna_tx_power

    # conjugate precoder: the per-site scale makes every antenna's expected
    # radiated power equal its budget identically
    pc = cbf_power(profile)
    cbf_dev = float(np.abs(pc.eta_site * profile.alpha.sum(axis=1) - 1).max())
    cbf_ok = cbf_dev < 1e-12

    # zero-forcing: the common scale is estimated, so audit it against an
    # independently seeded load measurement
    _, pc_z = zfp_moments(profile, cfg, np.random.default_rng(51),
                          CHI_REF_SAMPLES)
    _, audit = zfp_moments(profile, cfg, np.random.default_rng(53),
                           CHI_REF_SAMPLES)
    eta = pc_z.eta_common
    measured = p_d * eta * audit.antenna_load
    peak = float(measured.max())
    peak_ok = abs(peak - p_d) <= 0.02 * p_d

    hot = int(np.argmax(pc_z.antenna_load))
    eta_rel_se = pc_z.load_stderr[hot] / pc_z.antenna_load[hot]
    se = p_d * eta * np.hypot(audit.load_stderr,
                              audit.antenna_load * eta_rel_se)
    excess = measured - (p_d + 3.0 * se)
    noise_ok = bool((excess <= 0).all())

    ok = cbf_ok and peak_ok and noise_ok
    detail = (f"conjugate per-antenna power exact to {cbf_dev:.1e}; "
              f"zero-forcing peak antenna power {peak / p_d:.4f} p_d "
              f"(within 2%), no antenna above budget beyond 3 sigma of the "
              f"sampling noise (worst margin {float(excess.max()):.2e} W)")
    acceptance_record(5, ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_6_sum_rate_shape(full_scale_sweep, quick_scale_sweep,
                                    acceptance_record):
    records, elapsed = full_scale_sweep
    mrc = _sum_rate_stats(records, "mrc-ul")
    cbf = _sum_rate_stats(records, "cbf-dl")
    zfp = _sum_rate_stats(records, "zfp-dl")

    a_ok = zfp[1][0] > cbf[1][0] > mrc[1][0]

    bad = _monotone_violations(zfp)
    b_ok = not bad or (len(bad) == 1 and bad[0][2] <= bad[0][3])

    small = [1, 2, 4, 10]
    cbf_arg = max(small, key=lambda n: cbf[n][0])
    mrc_arg = max(small, key=lambda n: mrc[n][0])
    c_ok = cbf_arg == 4 and mrc_arg == 4

    q_mrc = _sum_rate_stats(quick_scale_sweep, "mrc-ul")
    q_cbf = _sum_rate_stats(quick_scale_sweep, "cbf-dl")
    q_zfp = _sum_rate_stats(quick_scale_sweep, "zfp-dl")
    qa_ok = q_zfp[1][0] > q_cbf[1][0] > q_mrc[1][0]
    q_bad = _monotone_violations(q_zfp)
    qb_ok = not q_bad or (len(q_bad) == 1 and q_bad[0][2] <= q_bad[0][3])

    time_ok = elapsed < 1800.0
    ok = a_ok and b_ok and c_ok and qa_ok and qb_ok and time_ok
    detail = (f"(a) {'pass' if a_ok else 'FAIL'} single-antenna sites rank "
              f"zf {zfp[1][0]:.1f} > conj {cbf[1][0]:.1f} > "
              f"combining {mrc[1][0]:.1f}; "
              f"(b) {'pass' if b_ok else 'FAIL'} zf sum rate non-increasing "
              f"({len(bad)} adjacent increases); "
              f"(c) {'pass' if c_ok else 'FAIL'} best antennas-per-site over "
              f"{small} is conj={cbf_arg}, combining={mrc_arg} (need 4); "
              f"quick variant (a) {'pass' if qa_ok else 'FAIL'} "
              f"(b) {'pass' if qb_ok else 'FAIL'}; "
              f"runtime {elapsed:.0f} s (< 1800 s)")
    acceptance_record(6, ok, detail)
    assert ok, detail


def test_criterion_7_median_peak(acceptance_record):
    # only the combining/conjugate closed forms are needed, so the medians
    # can afford a much larger drop count than the full sweep
    grid = list(DEFAULT_NT_SWEEP)
    k = 16
    eta = UplinkPowerControl.full_power(k)
    med_mrc, med_cbf = {}, {}
    for n_t in grid:
        cfg = ScenarioConfig(total_antennas=300, antennas_per_ap=n_t,
                             num_users=k, drops=MEDIAN_DROPS,
                             master_seed=FULL_SCALE_SEED)
        rows_m, rows_c = [], []
        for i in range(MEDIAN_DROPS):
            rng = np.random.default_rng(drop_seed(cfg.master_seed, i))
            topo = place_topology(cfg, rng)
            prof = fading_profile(cfg, topo, rng)
            rows_m.append(per_user_rate(uplink_sinr_all(prof, eta, cfg)))
            rows_c.append(per_user_rate(cbf_sinr_all(prof, cbf_power(prof),
                                                     cfg)))
        med_mrc[n_t] = percentile(np.concatenate(rows_m), 0.5)
        med_cbf[n_t] = percentile(np.concatenate(rows_c), 0.5)

    mrc_arg = max(grid, key=lambda n: med_mrc[n])
    cbf_arg = max(grid, key=lambda n: med_cbf[n])
    ok = mrc_arg in {4, 10, 12} and cbf_arg in {4, 10, 12}
    detail = (f"median per-user rate peaks at combining={mrc_arg}, "
              f"conj={cbf_arg} antennas per site (accepted: 4, 10 or 12; "
              f"{MEDIAN_DROPS} drops)")
    acceptance_record(7, ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_8_cost_effectiveness_decreases(full_scale_sweep,
                                                  acceptance_record):
    records, _ = full_scale_sweep
    ratios = sorted(DEFAULT_COST_RATIOS)
    curves = {}
    for r in records:
        curves.setdefault((r.scheme, r.n_t), {})[r.cv_cf_ratio] = r.gamma_ce
    bad = []
    for key, gam in curves.items():
        vals = [gam[x] for x in ratios]
        if not all(a > b for a, b in zip(vals, vals[1:])):
            bad.append(key)
    ok = not bad
    detail = (f"rate per cost unit strictly decreases through ratios "
              f"{ratios} for all {len(curves)} scheme/antenna-count curves"
              + ("" if ok else f"; violations: {bad}"))
    acceptance_record(8, ok, detail)
    assert ok, detail


def test_criterion_9_worker_count_determinism(tmp_path, acceptance_record):
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(
        {"total_antennas": 24, "antennas_per_ap": 2, "num_users": 3,
         "drops": 6, "chi_samples": 50, "master_seed": 9}))
    outputs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        code = cli_main(["sweep", "--config", str(cfg_path), "--nt", "1,2",
                         "--ratios", "0.1,0.5", "--jobs", jobs,
                         "--output", str(out)])
        assert code == 0
        outputs[jobs] = out.read_bytes()
    ok = outputs["1"] == outputs["2"]
    detail = (f"same seed with 1 and 2 workers wrote byte-identical result "
              f"files ({len(outputs['1'])} bytes)")
    acceptance_record(9, ok, detail)
    assert ok, detail
