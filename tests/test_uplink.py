import dataclasses

import numpy as np
import pytest

from cfmimo.propagation import FadingProfile, fading_profile, place_topology
from cfmimo.scenario import ConfigError, ScenarioConfig, derive_noise_power, \
    drop_seed
from cfmimo.uplink import (UplinkPowerControl, per_user_rate, uplink_sinr_all,
                           uplink_term_variances)


def make_profile(beta, alpha, n_t=1):
    return FadingProfile(beta=np.asarray(beta, dtype=float),
                         alpha=np.asarray(alpha, dtype=float),
                         antennas_per_site=n_t)


def random_profile(seed, m=40, n_t=2, k=6):
    cfg = ScenarioConfig(total_antennas=m, antennas_per_ap=n_t, num_users=k,
                         master_seed=seed)
    rng = np.random.default_rng(drop_seed(seed, 0))
    return cfg, fading_profile(cfg, place_topology(cfg, rng), rng)


def test_power_control_validation():
    pc = UplinkPowerControl.full_power(4)
    assert np.array_equal(pc.eta, np.ones(4))
    with pytest.raises(ConfigError):
        UplinkPowerControl(eta=np.array([0.5, 1.2]))
    with pytest.raises(ConfigError):
        UplinkPowerControl(eta=np.array([-0.1, 0.5]))
    with pytest.raises(ConfigError):
        UplinkPowerControl(eta=np.ones((2, 2)))


def test_single_link_reduces_to_hand_formula():
    # one site, one antenna, one user: gamma = p_u * alpha / (p_u*beta + s2)
    beta, alpha = 2e-11, 1.2e-11
    cfg = ScenarioConfig(total_antennas=2, antennas_per_ap=1, num_users=1)
    profile = make_profile([[beta], [0.0]], [[alpha], [0.0]], n_t=1)
    # second site is dead so only site 0 contributes
    s2 = derive_noise_power(cfg)
    p_u = cfg.ue_tx_power
    expected = (p_u * alpha ** 2) / (p_u * alpha * beta + s2 * alpha)
    got = uplink_sinr_all(profile, UplinkPowerControl(eta=[1.0]), cfg)[0]
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(p_u * alpha / (p_u * beta + s2), rel=1e-12)


def test_all_zero_alpha_gives_zero_sinr_and_terms():
    cfg = ScenarioConfig(total_antennas=3, antennas_per_ap=1, num_users=2)
    profile = make_profile(np.zeros((3, 2)), np.zeros((3, 2)), n_t=1)
    eta = UplinkPowerControl(eta=[1.0, 1.0])
    terms = uplink_term_variances(profile, eta, cfg)
    assert list(terms) == ["desired", "uncertainty", "est_error",
                           "inter_user", "noise"]
    for power in terms.values():
        assert np.array_equal(power, np.zeros(2))
    assert np.array_equal(uplink_sinr_all(profile, eta, cfg), np.zeros(2))


def test_term_variances_closed_forms():
    # small instance checked against per-term hand sums
    cfg = ScenarioConfig(total_antennas=3, antennas_per_ap=1, num_users=2)
    beta = np.array([[4e-11, 1e-11], [2e-11, 3e-11]])
    alpha = np.array([[3e-11, 0.5e-11], [1e-11, 2e-11]])
    profile = make_profile(beta, alpha, n_t=1)
    eta = UplinkPowerControl(eta=[1.0, 0.5])
    p_u = cfg.ue_tx_power
    s2 = derive_noise_power(cfg)
    terms = {label: power[0] for label, power
             in uplink_term_variances(profile, eta, cfg).items()}
    a0 = 3e-11 + 1e-11
    assert terms["desired"] == pytest.approx(p_u * 1.0 * a0 ** 2, rel=1e-12,
                                             abs=0)
    assert terms["uncertainty"] == pytest.approx(
        p_u * 1.0 * ((3e-11) ** 2 + (1e-11) ** 2), rel=1e-12, abs=0)
    assert terms["est_error"] == pytest.approx(
        p_u * (3e-11 * 1e-11 + 1e-11 * 1e-11), rel=1e-12, abs=0)
    assert terms["inter_user"] == pytest.approx(
        p_u * 0.5 * (3e-11 * 1e-11 + 1e-11 * 3e-11), rel=1e-12, abs=0)
    assert terms["noise"] == pytest.approx(s2 * a0, rel=1e-12, abs=0)


def test_antenna_count_scaling_is_exact():
    # doubling antennas per site at fixed sites doubles every user's SINR
    cfg1, profile1 = random_profile(3, m=40, n_t=2, k=6)
    cfg2 = dataclasses.replace(cfg1, total_antennas=80, antennas_per_ap=4)
    profile2 = FadingProfile(beta=profile1.beta, alpha=profile1.alpha,
                             antennas_per_site=4)
    eta = UplinkPowerControl.full_power(6)
    g1 = uplink_sinr_all(profile1, eta, cfg1)
    g2 = uplink_sinr_all(profile2, eta, cfg2)
    assert np.allclose(g2, 2.0 * g1, rtol=1e-12)


def test_sinr_ceiling():
    # the noise-free, lone-user bound: keeping only the i=k interference
    # term gives gamma <= n_t (sum_q alpha_qk)^2 / sum_q alpha_qk beta_qk
    for seed in range(8):
        cfg, profile = random_profile(seed, m=60, n_t=3, k=5)
        eta = UplinkPowerControl.full_power(5)
        gam = uplink_sinr_all(profile, eta, cfg)
        n_t = profile.antennas_per_site
        for k in range(5):
            bound = (n_t * profile.alpha[:, k].sum() ** 2
                     / (profile.alpha[:, k] * profile.beta[:, k]).sum())
            assert gam[k] <= bound * (1 + 1e-12)


def test_uniform_estimate_scaling_is_linear():
    # scaling user k's whole estimate column by c scales gamma_k by c
    cfg, profile = random_profile(11, m=30, n_t=1, k=4)
    eta = UplinkPowerControl.full_power(4)
    base = uplink_sinr_all(profile, eta, cfg)[2]
    for c in (0.5, 0.9, 1.0):
        alpha2 = profile.alpha.copy()
        alpha2[:, 2] *= c
        prof2 = make_profile(profile.beta, alpha2, n_t=1)
        assert uplink_sinr_all(prof2, eta, cfg)[2] == pytest.approx(
            c * base, rel=1e-12)


def test_monotone_in_interference_and_noise():
    cfg, profile = random_profile(7, m=30, n_t=1, k=4)
    eta = np.array([1.0, 0.8, 0.6, 0.9])

    def sinr(prof, fractions, config):
        return uplink_sinr_all(prof, UplinkPowerControl(eta=fractions),
                               config)[0]

    base = sinr(profile, eta, cfg)
    # stronger interferer gain can only hurt
    beta2 = profile.beta.copy()
    beta2[:, 1] *= 2.0
    prof2 = make_profile(beta2, profile.alpha, n_t=1)
    assert sinr(prof2, eta, cfg) < base
    # higher interferer power fraction can only hurt
    eta2 = eta.copy()
    eta2[1] = 1.0
    assert sinr(profile, eta2, cfg) < base
    # higher own power fraction can only help
    eta3 = eta.copy()
    eta3[0] = 0.5
    assert sinr(profile, eta3, cfg) < base
    # more noise can only hurt
    cfg2 = dataclasses.replace(cfg, noise_figure_db=cfg.noise_figure_db + 6)
    assert sinr(profile, eta, cfg2) < base


def test_eta_length_checked():
    cfg, profile = random_profile(0)
    with pytest.raises(ConfigError):
        uplink_sinr_all(profile, UplinkPowerControl(eta=[1.0, 1.0]), cfg)
    with pytest.raises(ConfigError):
        uplink_term_variances(profile, UplinkPowerControl(eta=[1.0]), cfg)


def test_per_user_rate():
    assert per_user_rate(0.0) == 0.0
    assert per_user_rate(1.0) == pytest.approx(1.0, rel=1e-12)
    assert per_user_rate(3.0) == pytest.approx(2.0, rel=1e-12)
    out = per_user_rate(np.array([0.0, 1.0, 7.0]))
    assert out == pytest.approx([0.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        per_user_rate(-0.5)
