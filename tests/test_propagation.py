import math

import numpy as np
import pytest

from cfmimo.propagation import (FadingProfile, Topology, fading_profile,
                                l0_constant, large_scale_gain, mmse_alpha,
                                path_loss_db, place_topology)
from cfmimo.scenario import ConfigError, ScenarioConfig, derive_noise_power, \
    drop_seed

D0, D1 = 0.01, 0.05


def default_l0():
    return l0_constant(1900.0, 15.0, 1.65)


def test_l0_reference_values():
    # stock configuration, against an independent evaluation of the fit
    assert default_l0() == pytest.approx(140.72, abs=0.01)
    assert default_l0() == pytest.approx(140.715083, abs=1e-5)
    # second point evaluated by hand: f=100 MHz, h_ap=15 m, h_ue=1.65 m
    # 46.3 + 33.9*2 - 13.82*log10(15) - (1.1*2 - 0.7)*1.65 + 1.56*2 - 0.8
    assert l0_constant(100.0, 15.0, 1.65) == pytest.approx(97.691418, abs=1e-5)


def test_l0_height_dependence():
    # doubling the site height lowers the constant by 13.82*log10(2)
    drop = l0_constant(1900.0, 15.0, 1.65) - l0_constant(1900.0, 30.0, 1.65)
    assert drop == pytest.approx(13.82 * math.log10(2.0), rel=1e-12)


@pytest.mark.parametrize("f,hap,hue", [(0, 15, 1.65), (1900, 0, 1.65),
                                       (1900, 15, -1)])
def test_l0_rejects_nonpositive(f, hap, hue):
    with pytest.raises(ConfigError):
        l0_constant(f, hap, hue)


def test_path_loss_at_one_km_is_minus_l0():
    l0 = default_l0()
    assert path_loss_db(1.0, l0, D0, D1) == pytest.approx(-l0, abs=1e-12)
    assert path_loss_db(1.0, l0, D0, D1) == pytest.approx(-140.72, abs=0.01)


def test_path_loss_continuous_at_breakpoints():
    l0 = default_l0()
    for d in (D0, D1):
        below = path_loss_db(d * (1 - 1e-9), l0, D0, D1)
        above = path_loss_db(d * (1 + 1e-9), l0, D0, D1)
        assert abs(above - below) < 1e-6
    # the two analytic forms agree exactly at d1
    far = -l0 - 35 * math.log10(D1)
    mid = -l0 - 10 * math.log10(D1 ** 1.5 * D1 ** 2)
    assert far == pytest.approx(mid, abs=1e-9)


def test_path_loss_flat_inside_d0():
    l0 = default_l0()
    v_inner = path_loss_db(0.001, l0, D0, D1)
    assert v_inner == path_loss_db(0.01, l0, D0, D1)
    assert v_inner == path_loss_db(0.0, l0, D0, D1)     # bounded at zero
    # frozen: -l0 - 10*log10(0.05**1.5 * 0.01**2) evaluated by hand
    assert v_inner == pytest.approx(-81.1996, abs=1e-3)


def test_path_loss_monotone_non_increasing():
    l0 = default_l0()
    d = np.linspace(0.0, 2.0, 4001)
    pl = path_loss_db(d, l0, D0, D1)
    assert (np.diff(pl) <= 1e-12).all()


def test_path_loss_vectorized_matches_scalar():
    l0 = default_l0()
    d = np.array([0.0, 0.005, 0.01, 0.02, 0.05, 0.3, 1.0])
    vec = path_loss_db(d, l0, D0, D1)
    assert vec.shape == d.shape
    for i, di in enumerate(d):
        assert vec[i] == path_loss_db(float(di), l0, D0, D1)


def test_path_loss_rejects_bad_breakpoints_and_distances():
    l0 = default_l0()
    with pytest.raises(ConfigError):
        path_loss_db(1.0, l0, 0.05, 0.01)
    with pytest.raises(ConfigError):
        path_loss_db(-0.5, l0, D0, D1)


def test_large_scale_gain_without_shadowing():
    cfg = ScenarioConfig()
    l0 = default_l0()
    g = large_scale_gain(1.0, 0.0, l0, cfg)
    assert g == pytest.approx(10 ** (-l0 / 10), rel=1e-12, abs=0)
    assert 10 * math.log10(g) == pytest.approx(-140.72, abs=0.01)


def test_large_scale_gain_shadowing_offset():
    cfg = ScenarioConfig()
    l0 = default_l0()
    base = large_scale_gain(0.3, 0.0, l0, cfg)
    up = large_scale_gain(0.3, 8.0, l0, cfg)
    assert up / base == pytest.approx(10 ** 0.8, rel=1e-12)


def test_shadowing_statistics():
    cfg = ScenarioConfig(total_antennas=4, antennas_per_ap=1, num_users=2)
    rng = np.random.default_rng(7)
    draws = rng.normal(0.0, cfg.shadowing_sigma_db, size=100_000)
    assert draws.var() == pytest.approx(64.0, abs=2.0)
    assert abs(draws.mean()) < 0.1


def test_mmse_alpha_reference_and_limits():
    # frozen: 0.2 * (1e-10)^2 / (0.2 * 1e-10 + 1.584e-13)
    assert mmse_alpha(0.2, 1e-10, 1.584e-13) == pytest.approx(9.92142e-11,
                                                              rel=1e-5)
    assert mmse_alpha(0.2, 1e-10, 1.584e-13) == pytest.approx(9.92e-11,
                                                              rel=1e-3)
    assert mmse_alpha(0.2, 0.0, 1e-13) == 0.0
    assert mmse_alpha(0.2, 1e-10, 0.0) == pytest.approx(1e-10, rel=1e-12)
    # alpha -> beta as the pilot SNR grows
    vals = [mmse_alpha(p, 1e-10, 1e-13) for p in (0.01, 0.1, 1.0, 10.0, 1e4)]
    assert all(v < 1e-10 for v in vals)
    assert vals == sorted(vals)
    assert vals[-1] == pytest.approx(1e-10, rel=1e-3)
    with pytest.raises(ConfigError, match="p_u and sigma_n2"):
        mmse_alpha(-0.2, 1e-10, 1e-13)


def test_mmse_alpha_never_exceeds_beta():
    rng = np.random.default_rng(3)
    beta = 10 ** rng.uniform(-16, -6, size=1000)
    alpha = mmse_alpha(0.2, beta, 1.58e-13)
    assert (alpha <= beta).all()
    assert (alpha >= 0).all()


def test_place_topology_uniform():
    cfg = ScenarioConfig(total_antennas=40, antennas_per_ap=2, num_users=8)
    rng = np.random.default_rng(11)
    topo = place_topology(cfg, rng)
    assert topo.ap_positions.shape == (20, 2)
    assert topo.ue_positions.shape == (8, 2)
    for arr in (topo.ap_positions, topo.ue_positions):
        assert (arr >= 0).all() and (arr <= cfg.area_side_km).all()
    # same seed, same layout
    topo2 = place_topology(cfg, np.random.default_rng(11))
    assert np.array_equal(topo.ap_positions, topo2.ap_positions)
    assert np.array_equal(topo.ue_positions, topo2.ue_positions)


def test_place_topology_uniform_statistics():
    cfg = ScenarioConfig(total_antennas=30_000, antennas_per_ap=1,
                         num_users=4)
    topo = place_topology(cfg, np.random.default_rng(5))
    assert topo.ap_positions.mean(axis=0) == pytest.approx([0.5, 0.5],
                                                           abs=0.01)


def test_place_topology_grid():
    cfg = ScenarioConfig(total_antennas=25, antennas_per_ap=1, num_users=4,
                         ap_placement="grid")
    topo = place_topology(cfg, np.random.default_rng(0))
    assert topo.ap_positions.shape == (25, 2)
    # 5x5 lattice of cell centers on the unit square
    xs = np.unique(np.round(topo.ap_positions[:, 0], 9))
    assert np.allclose(xs, [0.1, 0.3, 0.5, 0.7, 0.9])
    topo2 = place_topology(cfg, np.random.default_rng(1234))
    assert np.array_equal(topo.ap_positions, topo2.ap_positions)


def test_place_topology_grid_partial_row():
    cfg = ScenarioConfig(total_antennas=7, antennas_per_ap=1, num_users=3,
                         ap_placement="grid")
    topo = place_topology(cfg, np.random.default_rng(0))
    assert topo.ap_positions.shape == (7, 2)
    assert (topo.ap_positions >= 0).all()
    assert (topo.ap_positions <= 1.0).all()


def test_fixed_ap_layout_shared_across_drops():
    cfg = ScenarioConfig(total_antennas=12, antennas_per_ap=2, num_users=3,
                         fixed_ap=True, master_seed=99)
    rng_a = np.random.default_rng(drop_seed(cfg.master_seed, 0))
    rng_b = np.random.default_rng(drop_seed(cfg.master_seed, 1))
    topo_a = place_topology(cfg, rng_a)
    topo_b = place_topology(cfg, rng_b)
    assert np.array_equal(topo_a.ap_positions, topo_b.ap_positions)
    assert not np.array_equal(topo_a.ue_positions, topo_b.ue_positions)


def test_fading_profile_shapes_and_ranges():
    cfg = ScenarioConfig(total_antennas=40, antennas_per_ap=4, num_users=6)
    rng = np.random.default_rng(2)
    profile = fading_profile(cfg, place_topology(cfg, rng), rng)
    assert profile.beta.shape == (10, 6)
    assert profile.alpha.shape == (10, 6)
    assert profile.antennas_per_site == 4
    assert (profile.beta > 0).all()
    assert (profile.alpha > 0).all()
    assert (profile.alpha <= profile.beta).all()


def test_fading_profile_deterministic():
    cfg = ScenarioConfig(total_antennas=20, antennas_per_ap=2, num_users=3,
                         master_seed=5)
    seeds = [drop_seed(5, 3), drop_seed(5, 3)]
    profs = []
    for s in seeds:
        rng = np.random.default_rng(s)
        profs.append(fading_profile(cfg, place_topology(cfg, rng), rng))
    assert np.array_equal(profs[0].beta, profs[1].beta)
    assert np.array_equal(profs[0].alpha, profs[1].alpha)


def test_fading_profile_alpha_consistent_with_formula():
    cfg = ScenarioConfig(total_antennas=10, antennas_per_ap=1, num_users=2)
    rng = np.random.default_rng(8)
    profile = fading_profile(cfg, place_topology(cfg, rng), rng)
    expected = mmse_alpha(cfg.ue_tx_power, profile.beta,
                          derive_noise_power(cfg))
    assert np.allclose(profile.alpha, expected, rtol=1e-12)


def test_profile_invariants_enforced():
    with pytest.raises(ConfigError):
        FadingProfile(beta=np.array([[1.0]]), alpha=np.array([[2.0]]),
                      antennas_per_site=1)
    with pytest.raises(ConfigError):
        FadingProfile(beta=np.array([[-1.0]]), alpha=np.array([[0.0]]),
                      antennas_per_site=1)
    with pytest.raises(ConfigError):
        FadingProfile(beta=np.ones((2, 2)), alpha=np.ones((2, 3)),
                      antennas_per_site=1)
    with pytest.raises(ConfigError, match="antennas_per_site must be >= 1"):
        FadingProfile(beta=np.ones((2, 2)), alpha=np.ones((2, 2)),
                      antennas_per_site=0)
    with pytest.raises(ConfigError, match="must be finite"):
        FadingProfile(beta=np.array([[np.nan]]), alpha=np.array([[0.0]]),
                      antennas_per_site=1)


@pytest.mark.parametrize("shape", [(3,), (3, 3), (3, 2, 1)])
def test_topology_needs_n_by_2_coordinates(shape):
    with pytest.raises(ConfigError, match=r"must be an \(n, 2\) array"):
        Topology(ap_positions=np.zeros(shape), ue_positions=np.zeros((4, 2)))

