"""Every output check passes on real output and catches a perturbed one."""

import csv
import io
import json
import types

import numpy as np
import pytest

import workloads as wl
from cfmimo import downlink, scenario, uplink

SEED = 11


def _edit(text: str, scheme, n_t, column, fn, ratio=None) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    for r in rows:
        if r["scheme"] == scheme and int(r["n_t"]) == n_t and (
                ratio is None or float(r["cv_cf_ratio"]) == ratio):
            r[column] = fn(r[column])
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]),
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    work = wl.SweepWorkload("small", SEED, tmp_path_factory.mktemp("sweep"),
                            total_antennas=40, users=4, drops=2, jobs=2,
                            nt_list=(1, 2, 4))
    work.run_round()
    return work, work.output()


def test_sweep_output_passes(small_sweep):
    work, text = small_sweep
    assert work.check(text) == []


def _scale(factor):
    return lambda v: f"{float(v) * factor:.6g}"


@pytest.mark.parametrize("scheme,n_t,column,fn,ratio", [
    ("mrc-ul", 2, "sum_rate_mean", _scale(1.0001), None),
    ("cbf-dl", 4, "se_p05", _scale(0.999), None),
    ("cbf-dl", 1, "se_p50", _scale(1.0001), None),
    ("zfp-dl", 2, "cost_total", _scale(1.01), 0.25),
    ("zfp-dl", 4, "gamma_ce", _scale(10.0), 0.5),
    ("zfp-dl", 1, "sum_rate_mean", lambda v: "1", None),
    ("mrc-ul", 4, "se_p05", lambda v: "nan", 0.1),
    ("cbf-dl", 2, "se_p50", lambda v: "-1", 0.05),
    ("mrc-ul", 1, "n_ap", lambda v: "7", 0.05),
])
def test_sweep_check_catches_perturbation(small_sweep, scheme, n_t, column,
                                          fn, ratio):
    work, text = small_sweep
    bad = _edit(text, scheme, n_t, column, fn, ratio)
    assert bad != text
    assert wl.check_sweep_csv(bad, work.base, work.nt_list, work.ratios)


def test_sweep_check_catches_missing_row(small_sweep):
    work, text = small_sweep
    bad = "\n".join(text.splitlines()[:-1]) + "\n"
    assert wl.check_sweep_csv(bad, work.base, work.nt_list, work.ratios)


def test_worker_count_check_catches_a_changed_byte(small_sweep):
    work, text = small_sweep
    assert work.check_one_worker(text) == []
    assert work.check_one_worker(text.replace("\n", "\r\n", 1))


@pytest.fixture(scope="module")
def grid_drop():
    cfg = scenario.ScenarioConfig(total_antennas=40, antennas_per_ap=2,
                                  num_users=4, master_seed=SEED)
    profile = wl.drop_profile(cfg, 0)
    pc = downlink.cbf_power(profile)
    rates = {"mrc-ul": uplink.per_user_rate(uplink.uplink_sinr_all(
                 profile, uplink.UplinkPowerControl.full_power(4), cfg)),
             "cbf-dl": uplink.per_user_rate(
                 downlink.cbf_sinr_all(profile, pc, cfg))}
    return cfg, profile, pc, rates


def test_grid_drop_passes(grid_drop):
    assert wl.check_grid_drop(*grid_drop) == []


def test_grid_drop_catches_alpha_above_beta(grid_drop):
    cfg, profile, pc, rates = grid_drop
    alpha = profile.alpha.copy()
    alpha[1, 2] = profile.beta[1, 2] * (1 + 1e-9)
    fake = types.SimpleNamespace(alpha=alpha, beta=profile.beta)
    assert any("alpha" in p for p in wl.check_grid_drop(cfg, fake, pc, rates))


def test_grid_drop_catches_cbf_power_off_budget(grid_drop):
    cfg, profile, pc, rates = grid_drop
    eta = np.array(pc.eta_site, copy=True)
    eta[0] *= 1 + 1e-10
    bad = downlink.CbfPowerControl(eta_site=eta)
    assert any("power" in p for p in wl.check_grid_drop(cfg, profile, bad,
                                                        rates))


@pytest.mark.parametrize("scheme", ["mrc-ul", "cbf-dl"])
def test_grid_drop_catches_rate_change(grid_drop, scheme):
    cfg, profile, pc, rates = grid_drop
    bad = dict(rates)
    bad[scheme] = rates[scheme] * (1 + 1e-7)
    assert wl.check_grid_drop(cfg, profile, pc, bad)


def test_grid_round_passes_and_summary_catches_change(tmp_path):
    grid = wl.ClosedFormGrid(SEED, tmp_path, drops=2)
    grid.run_round()
    result = grid.output()
    assert grid.check(result) == []
    bad = json.loads(json.dumps(result))
    bad = {int(k): v for k, v in bad.items()}
    bad[4]["cbf-dl"]["se_p50"] *= 1 + 1e-8
    assert grid.check(bad)


@pytest.fixture(scope="module")
def validate_report():
    code, text = wl.run_cli(["validate", "--samples", "4000"])
    assert code == 0
    cfg = scenario.ScenarioConfig(total_antennas=40, antennas_per_ap=2,
                                  num_users=4, master_seed=0)
    return text, cfg


def test_validate_report_passes(validate_report):
    text, cfg = validate_report
    assert wl.check_validate_report(text, cfg, 4000) == []


def _replace_field(text, row, index, value):
    lines = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == row:
            parts[index] = value
            line = " ".join(parts)
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_validate_check_catches_perturbations(validate_report):
    text, cfg = validate_report
    ul = next(line.split()[1] for line in text.splitlines()
              if line.startswith("ul_sinr"))
    cases = [
        _replace_field(text, "cbf_noise", 6, "FAIL"),
        _replace_field(text, "ul_sinr", 1, f"{float(ul) * 1.0001:.6g}"),
        _replace_field(text, "cbf_sinr", 1, "1"),
        _replace_field(text, "zfp_sinr", 5, "400"),
        text.replace("all checks pass", "SOME CHECKS FAILED"),
        "\n".join(line for line in text.splitlines()
                  if not line.startswith("zfp_est_iui")) + "\n",
    ]
    for bad in cases:
        assert bad != text
        assert wl.check_validate_report(bad, cfg, 4000), bad
    # a report of another instance fails the reference comparison
    other = scenario.ScenarioConfig(total_antennas=40, antennas_per_ap=2,
                                    num_users=4, master_seed=1)
    assert wl.check_validate_report(text, other, 4000)
