import dataclasses
import json
import subprocess
import sys

import pytest

from cfmimo.scenario import (ConfigError, ScenarioConfig, ap_layout_seed,
                             derive_noise_power, derive_site_count,
                             drop_seed, load_config)


def test_defaults_are_valid():
    cfg = ScenarioConfig()
    assert cfg.total_antennas == 300
    assert cfg.num_users == 16
    assert derive_site_count(cfg) == 300


def test_noise_power_reference_value():
    # -174 dBm/Hz + 9 dB NF over 5 MHz, computed independently in dB:
    # 10 ** ((-174 + 9 + 10*log10(5e6) - 30) / 10) = 1.58114e-13 W
    cfg = ScenarioConfig()
    assert derive_noise_power(cfg) == pytest.approx(1.5811388300841893e-13,
                                                    rel=1e-12, abs=0)
    # quoted-to-4-digit figure for the same setup
    assert derive_noise_power(cfg) == pytest.approx(1.584e-13, rel=2e-3,
                                                    abs=0)


def test_noise_power_one_hz_and_nf_factor():
    base = ScenarioConfig(noise_density_dbm_hz=-174.0, noise_figure_db=0.0,
                          bandwidth_hz=1.0)
    assert derive_noise_power(base) == pytest.approx(10 ** -20.4, rel=1e-12,
                                                     abs=0)
    with_nf = ScenarioConfig(noise_density_dbm_hz=-174.0, noise_figure_db=9.0,
                             bandwidth_hz=1.0)
    assert with_nf != base
    assert derive_noise_power(with_nf) / derive_noise_power(base) \
        == pytest.approx(10 ** 0.9, rel=1e-12)


def test_noise_power_monotone_in_each_input():
    prev = None
    for bw in (1e5, 1e6, 5e6, 2e7):
        v = derive_noise_power(ScenarioConfig(bandwidth_hz=bw))
        if prev is not None:
            assert v > prev
        prev = v
    prev = None
    for nf in (0.0, 3.0, 9.0, 12.0):
        v = derive_noise_power(ScenarioConfig(noise_figure_db=nf))
        if prev is not None:
            assert v > prev
        prev = v


@pytest.mark.parametrize("m,n_t,expect", [(300, 1, 300), (300, 50, 6),
                                          (300, 12, 25), (40, 2, 20)])
def test_site_count(m, n_t, expect):
    cfg = ScenarioConfig(total_antennas=m, antennas_per_ap=n_t,
                         num_users=min(4, m - 1))
    assert derive_site_count(cfg) == expect


def test_site_count_rejects_non_divisor():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(total_antennas=300, antennas_per_ap=7)
    assert "7" in str(err.value) and "300" in str(err.value)


@pytest.mark.parametrize("kwargs", [
    {"num_users": 300},                       # k must stay below m
    {"num_users": 400},
    {"total_antennas": 0},
    {"antennas_per_ap": 0},
    {"num_users": 0},
    {"drops": 0},
    {"chi_samples": -5},
    {"chi_samples": 1},                       # no standard error from one draw
    {"ue_tx_power": 0.0},
    {"ue_tx_power": -0.1},
    {"ap_per_antenna_tx_power": 0.0},
    {"bandwidth_hz": 0.0},
    {"carrier_freq_mhz": -1900.0},
    {"area_side_km": 0.0},
    {"ap_height_m": 0.0},
    {"ue_height_m": -1.0},
    {"shadowing_sigma_db": -1.0},
    {"noise_figure_db": -2.0},
    {"breakpoint_d0_km": 0.05, "breakpoint_d1_km": 0.01},
    {"breakpoint_d0_km": 0.05, "breakpoint_d1_km": 0.05},
    {"breakpoint_d0_km": 0.0},
    {"master_seed": -1},
    {"master_seed": 2 ** 64},
    {"ap_placement": "hexagonal"},
    {"fixed_ap": "yes"},
    {"ap_placement": "grid", "fixed_ap": True},  # a lattice is fixed already
    {"total_antennas": 7.5},
    {"ue_tx_power": "strong"},
    {"master_seed": "7"},
    {"noise_figure_db": "high"},
    {"shadowing_sigma_db": float("nan")},
])
def test_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        ScenarioConfig(**kwargs)


def test_validation_reports_every_problem_at_once():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(ue_tx_power=-1.0, bandwidth_hz=0.0, drops=0)
    msg = str(err.value)
    assert "ue_tx_power" in msg
    assert "bandwidth_hz" in msg
    assert "drops" in msg


def test_config_is_immutable():
    cfg = ScenarioConfig()
    with pytest.raises(Exception):
        cfg.drops = 5


def test_drop_seed_distinct_and_stable():
    for master in (0, 1, 42, 2 ** 64 - 1):
        assert drop_seed(master, 0) != drop_seed(master, 1)
        assert drop_seed(master, 0) == drop_seed(master, 0)
        assert 0 <= drop_seed(master, 0) < 2 ** 64


def test_drop_seed_no_collisions_over_many_indices():
    seeds = {drop_seed(123, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    # the reserved layout seed stays clear of the drop range too
    assert ap_layout_seed(123) not in seeds


def test_drop_seed_stable_across_processes():
    expected = drop_seed(987654321, 17)
    out = subprocess.run(
        [sys.executable, "-c",
         "from cfmimo.scenario import drop_seed; print(drop_seed(987654321, 17))"],
        capture_output=True, text=True, check=True)
    assert int(out.stdout.strip()) == expected


def test_drop_seed_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        drop_seed(0, -1)
    with pytest.raises(ConfigError):
        drop_seed(2 ** 64, 0)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"total_antennas": 60, "antennas_per_ap": 3,
                                "num_users": 5, "master_seed": 9,
                                "drops": 12}))
    cfg = load_config(path)
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.total_antennas == 60
    assert cfg.antennas_per_ap == 3
    assert cfg.master_seed == 9
    assert cfg.bandwidth_hz == 5e6          # untouched default
    assert dataclasses.asdict(cfg)["drops"] == 12


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"total_antennas": 60, "antenna_count": 60}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "antenna_count" in str(err.value)


def test_load_config_invalid_value_is_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"total_antennas": 10, "num_users": 10}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "nope.json")
    assert "nope.json" in str(err.value)


def test_load_config_bad_json(tmp_path):
    # not JSON at all, or JSON that is not one object
    path = tmp_path / "cfg.json"
    for text in ("{not json", "[1, 2]"):
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)


def test_load_config_with_cost_section(tmp_path):
    # there is one cost formula and no cost section: it is an unknown key
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "total_antennas": 60, "num_users": 5,
        "cost": {"fixed_per_site": 2.0, "per_antenna": 0.5}}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == "unknown config keys: cost"
