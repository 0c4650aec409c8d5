import dataclasses
import tracemalloc

import numpy as np
import pytest

from cfmimo import channel, downlink, experiment, oracle, uplink
from cfmimo.oracle import (REFERENCE_SAMPLES, TERMS, reference_config, rows_to_csv, rows_to_text,
                           simulate_downlink_cbf,
                           simulate_downlink_zfp, simulate_links,
                           simulate_uplink_terms, validate_instance)
from cfmimo.propagation import FadingProfile, fading_profile, place_topology
from cfmimo.scenario import ConfigError, ScenarioConfig, derive_noise_power, \
    drop_seed

N_FAST = 40_000


def reference_profile(seed=0):
    cfg = reference_config(seed)
    rng = np.random.default_rng(drop_seed(cfg.master_seed, 0))
    profile = fading_profile(cfg, place_topology(cfg, rng), rng)
    return cfg, profile, rng


def test_uplink_terms_match_closed_forms():
    cfg, profile, rng = reference_profile(1)
    eta = uplink.UplinkPowerControl.full_power(cfg.num_users)
    est = simulate_uplink_terms(profile, eta, cfg, N_FAST, rng)
    closed = uplink.uplink_term_variances(profile, eta, cfg)
    for label in TERMS:
        assert est.powers[label][0] == pytest.approx(closed[label][0],
                                                     rel=0.03, abs=0), label
    # and the composed empirical SINR against the closed form
    gamma = uplink.uplink_sinr_all(profile, eta, cfg)[0]
    assert est.empirical_sinr[0] == pytest.approx(gamma, rel=0.03)


def test_uplink_terms_uncorrelated():
    cfg, profile, rng = reference_profile(2)
    eta = uplink.UplinkPowerControl.full_power(cfg.num_users)
    est = simulate_uplink_terms(profile, eta, cfg, N_FAST, rng)
    # orthogonal parts: normalized cross moments vanish within MC noise,
    # for every user
    bound = 4.0 / np.sqrt(N_FAST)
    for pair, corr in est.correlations.items():
        assert corr.shape == (cfg.num_users,), pair
        assert (corr < bound).all(), (pair, corr)


def test_uplink_desired_power_is_deterministic_amplitude():
    cfg, profile, rng = reference_profile(3)
    eta = uplink.UplinkPowerControl.full_power(cfg.num_users)
    est = simulate_uplink_terms(profile, eta, cfg, 5000, rng)
    # the desired part has constant amplitude, so even few samples nail it
    terms = uplink.uplink_term_variances(profile, eta, cfg)
    assert est.powers["desired"][0] == pytest.approx(terms["desired"][0],
                                                     rel=0.05, abs=0)
    assert est.stderrs["desired"][0] < 0.05 * est.powers["desired"][0]


def test_uplink_degenerate_perfect_csi_low_noise():
    # perfect estimates kill the estimation-error part exactly; a vanishing
    # bandwidth makes the noise part negligible against the signal terms
    cfg = ScenarioConfig(total_antennas=6, antennas_per_ap=2, num_users=1,
                         bandwidth_hz=1e-20)
    rng = np.random.default_rng(4)
    beta = np.full((3, 1), 1e-10)
    profile = FadingProfile(beta=beta, alpha=beta.copy(), antennas_per_site=2)
    est = simulate_uplink_terms(profile, uplink.UplinkPowerControl(eta=[1.0]),
                                cfg, 2000, rng)
    assert est.powers["est_error"][0] == 0.0
    assert est.powers["inter_user"][0] == 0.0
    assert est.powers["noise"][0] < 1e-12 * est.powers["desired"][0]
    # remaining fluctuation: p_u * Var(|g_hat_k|^2) = p_u * n_t sum alpha^2
    expected = cfg.ue_tx_power * 2 * (beta ** 2).sum()
    assert est.powers["uncertainty"][0] == pytest.approx(expected, rel=0.1,
                                                         abs=0)


def test_oracle_convergence_rate():
    cfg, profile, _ = reference_profile(5)
    eta = uplink.UplinkPowerControl.full_power(cfg.num_users)
    est_small = simulate_uplink_terms(profile, eta, cfg, 10_000,
                                      np.random.default_rng(20))
    est_big = simulate_uplink_terms(profile, eta, cfg, 40_000,
                                    np.random.default_rng(21))
    for label in ("inter_user", "noise"):
        ratio = est_big.stderrs[label][0] / est_small.stderrs[label][0]
        assert ratio == pytest.approx(0.5, abs=0.1)


def test_cbf_terms_and_sinr_match_closed_forms():
    cfg, profile, rng = reference_profile(6)
    pc = downlink.cbf_power(profile)
    est = simulate_downlink_cbf(profile, pc, cfg, N_FAST, rng)
    gamma = downlink.cbf_sinr_all(profile, pc, cfg)[0]
    assert est.empirical_sinr[0] == pytest.approx(gamma, rel=0.03)
    # parts are nonzero and sum to the closed denominator (times noise)
    s2 = derive_noise_power(cfg)
    num = est.powers["desired"][0]
    den = sum(est.powers[t][0] for t in TERMS if t != "desired")
    assert est.powers["noise"][0] == pytest.approx(s2, rel=0.03, abs=0)
    assert num / den == pytest.approx(gamma, rel=0.05)


def test_cbf_single_site_single_user_hand_form():
    n_t = 3
    cfg = ScenarioConfig(total_antennas=3, antennas_per_ap=3, num_users=1)
    beta = np.array([[5e-11]])
    alpha = np.array([[3e-11]])
    profile = FadingProfile(beta=beta, alpha=alpha, antennas_per_site=n_t)
    pc = downlink.cbf_power(profile)
    rng = np.random.default_rng(7)
    est = simulate_downlink_cbf(profile, pc, cfg, N_FAST, rng)
    p_d = cfg.ap_per_antenna_tx_power
    s2 = derive_noise_power(cfg)
    eta = 1.0 / 3e-11
    expected = (p_d * n_t ** 2 * eta * (3e-11) ** 2
                / (s2 + p_d * n_t * 5e-11 * eta * 3e-11))
    assert est.empirical_sinr[0] == pytest.approx(expected, rel=0.03)
    assert downlink.cbf_sinr_all(profile, pc, cfg)[0] == pytest.approx(
        expected, rel=1e-12)


def test_cbf_near_zero_power_leaves_only_noise():
    cfg, profile, rng = reference_profile(8)
    cfg = dataclasses.replace(cfg, ap_per_antenna_tx_power=1e-30)
    pc = downlink.cbf_power(profile)
    est = simulate_downlink_cbf(profile, pc, cfg, 4000, rng)
    s2 = derive_noise_power(cfg)
    for label in ("desired", "uncertainty", "est_error", "inter_user"):
        assert est.powers[label][0] < 1e-12 * s2
    assert est.powers["noise"][0] == pytest.approx(s2, rel=0.1, abs=0)


def test_zfp_oracle_matches_pipeline():
    cfg, profile, rng = reference_profile(9)
    zf = downlink.zfp_moments(profile, cfg, rng, 20_000)
    closed = downlink.zfp_sinr_all(profile, zf, cfg)[0]
    est = simulate_downlink_zfp(profile, zf.eta, cfg, N_FAST, rng)
    assert est.empirical_sinr[0] == pytest.approx(closed, rel=0.05)
    # interference through the estimated channels is numerically nil
    assert est.max_est_iui < 1e-9
    residual = est.powers["residual"][0]
    assert residual < 1e-15 or est.max_est_iui ** 2 < 1e-9 * residual


def test_reference_moments_take_a_fixed_20000_draws():
    # the stock validate and criteria 3 and 5 compare against moments from
    # a fixed draw count, not a precision target
    cfg, profile, rng = reference_profile(0)
    assert cfg.chi_rel_se == 0.0
    assert downlink.zfp_moments(profile, cfg, rng).n_samples == 20_000


def closed_and_joint(cfg, profile, zf, n, rng):
    # every link's closed-form part powers, and one joint pass of n draws
    ul_pc = uplink.UplinkPowerControl.full_power(cfg.num_users)
    cbf_pc = downlink.cbf_power(profile)
    closed = {"ul": uplink.uplink_term_variances(profile, ul_pc, cfg),
              "cbf": downlink.cbf_term_variances(profile, cbf_pc, cfg),
              "zfp": downlink.zfp_term_variances(profile, zf, cfg)}
    return closed, simulate_links(profile, cfg, n, rng, uplink_pc=ul_pc,
                                  cbf_pc=cbf_pc, zf_eta=zf.eta)


def test_closed_forms_and_oracle_name_the_same_parts():
    # one key set, in one order, on both sides of every link
    cfg, profile, rng = reference_profile(0)
    zf = downlink.zfp_moments(profile, cfg, rng, 200)
    closed, est = closed_and_joint(cfg, profile, zf, 200, rng)
    for link, parts in closed.items():
        assert list(parts) == list(est[link].powers), link
        for power in parts.values():
            assert power.shape == (cfg.num_users,), link

    # the ZF parts are the SINR's own terms, bit for bit
    p_d, s2 = cfg.ap_per_antenna_tx_power, derive_noise_power(cfg)
    zfp = closed["zfp"]
    assert np.array_equal(zfp["desired"], np.full(cfg.num_users, p_d * zf.eta))
    assert np.array_equal(zfp["residual"], p_d * zf.eta * zf.chi.sum(1))
    assert np.array_equal(zfp["noise"], np.full(cfg.num_users, s2))
    assert np.array_equal(
        downlink.zfp_sinr_all(profile, zf, cfg),
        p_d * zf.eta / (s2 + p_d * zf.eta * zf.chi.sum(axis=1)))


def test_zfp_oracle_matches_the_equivalent_where_it_runs():
    # drop 0 of the reference config at n_t = 4 (M = 40, K = 4) has share
    # 0.351, so the drop runner takes the deterministic equivalent; at the
    # equivalent's own eta its closed-form SINR must hold criterion 3's 5%
    # bound against the link level
    cfg = dataclasses.replace(reference_config(0), antennas_per_ap=4)
    assert experiment.run_drop(cfg, 0)[2].zf["zf_sampled_drops"] == 0
    rng = np.random.default_rng(drop_seed(cfg.master_seed, 0))
    profile = fading_profile(cfg, place_topology(cfg, rng), rng)
    zf, share = downlink.zfp_equivalent(profile)
    assert share == pytest.approx(0.351, abs=1e-3)
    closed = downlink.zfp_sinr_all(profile, zf, cfg)[0]
    est = simulate_downlink_zfp(profile, zf.eta, cfg,
                                REFERENCE_SAMPLES, np.random.default_rng(33))
    assert est.empirical_sinr[0] == pytest.approx(closed, rel=0.05)
    assert est.max_est_iui < 1e-9


def test_validate_checks_the_zf_route_the_sweep_takes():
    # drop 0 of seed 5 has share 0.35, so the sweep takes the deterministic
    # equivalent there, and validate must check that closed form, not one
    # from sampled moments
    cfg, profile, _ = reference_profile(5)
    zf, share = downlink.zfp_equivalent(profile)
    assert share < downlink.EQUIVALENT_SHARE_LIMIT
    rows = {r.name: r for r in validate_instance(cfg, 2000)}
    assert rows["zfp_sinr"].closed_form == \
        downlink.zfp_sinr_all(profile, zf, cfg)[0]
    assert all(r.passed for r in rows.values())


@pytest.mark.parametrize("seed, sampled", [(0, True), (5, False)],
                         ids=["sampled-zf", "equivalent-zf"])
def test_every_user_meets_the_closed_forms(seed, sampled):
    # drop 0 of the reference config as validate draws it, on both ZF
    # routes; one joint pass of 20 000 draws puts every user's every part
    # within 4 of its own standard errors of the closed form
    cfg = reference_config(seed)
    rng, profile, zf, _ = experiment.draw_drop(cfg, 0)
    assert (zf.n_samples > 0) == sampled
    closed, est = closed_and_joint(cfg, profile, zf, 20_000, rng)
    for link, parts in closed.items():
        for label, power in parts.items():
            z = (est[link].powers[label] - power) / est[link].stderrs[label]
            assert (np.abs(z) <= 4.0).all(), (link, label, z)


def test_zfp_oracle_perfect_csi():
    cfg = reference_config(10)
    rng = np.random.default_rng(drop_seed(cfg.master_seed, 0))
    profile = fading_profile(cfg, place_topology(cfg, rng), rng)
    perfect = FadingProfile(beta=profile.beta, alpha=profile.beta.copy(),
                            antennas_per_site=profile.antennas_per_site)
    zf = downlink.zfp_moments(perfect, cfg, rng, 2000)
    est = simulate_downlink_zfp(perfect, zf.eta, cfg, N_FAST, rng)
    s2 = derive_noise_power(cfg)
    expected = cfg.ap_per_antenna_tx_power * zf.eta / s2
    assert (est.powers["residual"] == 0.0).all()
    assert est.n_resampled == 0
    assert est.empirical_sinr[0] == pytest.approx(expected, rel=0.02)


def test_validation_report_passes_and_serializes(tmp_path):
    cfg = reference_config(0)
    rows = validate_instance(cfg, 30_000)
    names = [r.name for r in rows]
    assert "ul_sinr" in names and "cbf_sinr" in names and "zfp_sinr" in names
    assert all(r.passed for r in rows), [
        (r.name, r.rel_error) for r in rows if not r.passed]
    text = rows_to_text(rows)
    assert "all checks pass" in text
    # the vanishing audit row prints its absolute error and tolerance
    iui = text.splitlines()[names.index("zfp_est_iui") + 1].split()
    assert len(iui) == 7
    assert float(iui[3]) == pytest.approx(rows[-1].rel_error, rel=0.05)
    assert iui[4] == "1e-09"
    out = tmp_path / "report.csv"
    rows_to_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("term,closed_form,empirical,rel_error,tolerance,"
                       "samples,passed")
    assert len(lines) == 1 + len(rows)


# --- the three passes: inputs, blocks and memory ---------------------------

PASSES = ("uplink", "cbf", "zfp")
# any common ZF scale: these tests look at memory and bits, not at the SINR
ZF_ETA = 3e10
# with 1700 samples: blocks of 700, 700 and 300 draws
BLOCK_DRAWS = 700
N_BLOCKED = 1700


def run_pass(which, cfg, profile, n, rng):
    if which == "uplink":
        eta = uplink.UplinkPowerControl.full_power(cfg.num_users)
        return simulate_uplink_terms(profile, eta, cfg, n, rng)
    if which == "cbf":
        return simulate_downlink_cbf(profile, downlink.cbf_power(profile),
                                     cfg, n, rng)
    return simulate_downlink_zfp(profile, ZF_ETA, cfg, n, rng)


@pytest.mark.parametrize("call, message", [
    (lambda cfg, profile, rng: simulate_downlink_zfp(
        profile, float("nan"), cfg, 100, rng), "eta_common must be finite"),
    (lambda cfg, profile, rng: simulate_downlink_cbf(
        profile, downlink.CbfPowerControl(np.ones(profile.num_sites + 1)),
        cfg, 100, rng), "eta_site has shape"),
    (lambda cfg, profile, rng: simulate_downlink_cbf(
        profile, downlink.CbfPowerControl(np.full(profile.num_sites, np.nan)),
        cfg, 100, rng), "eta_site must be finite"),
    (lambda cfg, profile, rng: run_pass("cbf", cfg, profile, 0, rng),
     "at least 1 sample"),
    (lambda cfg, profile, rng: simulate_links(profile, cfg, 100, rng),
     "no link requested"),
    (lambda cfg, profile, rng: simulate_uplink_terms(
        profile, uplink.UplinkPowerControl.full_power(profile.num_users + 1),
        cfg, 100, rng), "eta has 5 entries for 4 users"),
    (lambda cfg, profile, rng: simulate_downlink_zfp(
        FadingProfile(beta=profile.beta[:1], alpha=profile.alpha[:1],
                      antennas_per_site=2), ZF_ETA, cfg, 100, rng),
     "at least as many antennas as users, got 2 x 4"),
], ids=["zfp-nan-eta", "cbf-eta-shape", "cbf-nan-eta", "no-samples",
        "no-link", "ul-eta-length", "zf-few-antennas"])
def test_passes_reject_bad_inputs(call, message):
    # config errors, not an SINR of inf or a bare numpy broadcast error
    cfg, profile, rng = reference_profile(0)
    with pytest.raises(ConfigError, match=message):
        call(cfg, profile, rng)


def test_only_the_zf_pass_carries_an_audit():
    cfg, profile, rng = reference_profile(0)
    for which in PASSES:
        est = run_pass(which, cfg, profile, 500, rng)
        assert list(est.powers)[0] == "desired"
        assert est.n_resampled == 0
        assert (est.max_est_iui is None) == (which != "zfp")


@pytest.mark.parametrize("which", PASSES)
def test_oracle_pass_holds_about_one_chunk_of_channels(which):
    # 100k reference samples in blocks of 409 draws: a pass holds its two
    # reused 1 MB channel buffers and one block's products, a few MB
    cfg, profile, rng = reference_profile(0)
    tracemalloc.start()
    try:
        run_pass(which, cfg, profile, REFERENCE_SAMPLES, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6, f"{peak / 1e6:.1f} MB"


@pytest.mark.parametrize("which", PASSES)
def test_passes_draw_exactly_their_block_plan(monkeypatch, which):
    # estimates, errors, symbols, noise: block by block, nothing else
    cfg, profile, _ = reference_profile(12)
    m, k = cfg.total_antennas, cfg.num_users
    monkeypatch.setattr(channel, "BLOCK_ELEMENTS", BLOCK_DRAWS * m * k)
    rng = np.random.default_rng(6)
    run_pass(which, cfg, profile, N_BLOCKED, rng)
    direct = np.random.default_rng(6)
    for b in (BLOCK_DRAWS, BLOCK_DRAWS, N_BLOCKED - 2 * BLOCK_DRAWS):
        direct.standard_normal((b, m, k, 2))
        direct.standard_normal((b, m, k, 2))
        direct.standard_normal((b, k, 2))
        direct.standard_normal((b, m, 2) if which == "uplink" else (b, 2))
    assert rng.bit_generator.state == direct.bit_generator.state


def singular_zf_pass(monkeypatch, zeroed):
    # a ZF pass in blocks of 700, 700 and 300 draws whose block b draws zero
    # estimates at the indices zeroed[b]; returns the estimate (or the error
    # raised), each block's parts as the pass used them, the redraws and a
    # log of the draws and of the Gram inversions, in call order
    cfg, profile, _ = reference_profile(12)
    entries = cfg.total_antennas * cfg.num_users
    monkeypatch.setattr(channel, "BLOCK_ELEMENTS", BLOCK_DRAWS * entries)
    real_draw, real_invert = oracle.sample_channel_batch, channel.invert_grams
    used, redraws, log = [], [], []

    def draw(profile, rng, b, out=None):
        g_hat, g_err = real_draw(profile, rng, b, out)
        if b in (BLOCK_DRAWS, N_BLOCKED % BLOCK_DRAWS):
            g_hat[zeroed.get(sum(e[0] == "block" for e in log), [])] = 0.0
            log.append(("block", b))
        else:
            redraws.append((g_hat, g_err))
            log.append(("redraw", b))
        return g_hat, g_err

    def invert(gram):
        log.append(("invert", len(gram)))
        return real_invert(gram)

    class KeptGramPass(channel.GramPass):
        # the next block overwrites the channel buffers: keep a copy
        def invert(self, parts):
            batch = super().invert(parts)
            used.append(tuple(p.copy() for p in parts))
            return batch

    monkeypatch.setattr(oracle, "sample_channel_batch", draw)
    monkeypatch.setattr(channel, "invert_grams", invert)
    monkeypatch.setattr(oracle, "GramPass", KeptGramPass)
    try:
        est = run_pass("zfp", cfg, profile, N_BLOCKED,
                       np.random.default_rng(6))
    except channel.NumericalError as exc:
        est = exc
    return est, used, redraws, log, cfg, profile


def test_zf_pass_redraws_a_singular_draw_right_after_its_block(monkeypatch):
    # one singular draw in block 0, one in block 2
    est, used, redraws, log, cfg, profile = singular_zf_pass(
        monkeypatch, {0: [1], 2: [100]})
    assert est.n_resampled == 2
    # each block, its inversion, then its redraw and the block's inversion
    assert log == [("block", 700), ("invert", 700), ("redraw", 1),
                   ("invert", 700), ("block", 700), ("invert", 700),
                   ("block", 300), ("invert", 300), ("redraw", 1),
                   ("invert", 300)]
    # both parts of each singular draw are replaced in place by the redraw
    for (hat, err), index, (new_hat, new_err) in zip(
            [used[0], used[2]], [1, 100], redraws):
        assert np.array_equal(hat[index], new_hat[0])
        assert np.array_equal(err[index], new_err[0])
        assert np.abs(new_hat[0]).min() > 0
    # in the stream, the first redraw follows block 0's symbols and noise
    direct = np.random.default_rng(6)
    m, k = cfg.total_antennas, cfg.num_users
    for shape in ((700, m, k), (700, m, k), (700, k), (700,)):
        direct.standard_normal(shape + (2,))
    new_hat, new_err = oracle.sample_channel_batch(profile, direct, 1)
    assert np.array_equal(new_hat, redraws[0][0])
    assert np.array_equal(new_err, redraws[0][1])


@pytest.mark.parametrize("extra, fails", [([], False), ([0], True)])
def test_zf_redraw_budget_covers_the_whole_pass(monkeypatch, extra, fails):
    # 1700 draws allow 17 redraws; block 0 alone takes 10, more than 1% of
    # its 700 draws, and one redraw beyond 17 aborts the pass
    zeroed = {0: list(range(0, 700, 70)), 1: list(range(0, 700, 100)),
              2: extra}
    est, *_ = singular_zf_pass(monkeypatch, zeroed)
    if fails:
        assert isinstance(est, channel.NumericalError)
        assert "18 of 1700" in str(est)
    else:
        assert est.n_resampled == 17


# --- one joint pass for every link -----------------------------------------

LINK_ARGS = {"ul": "uplink_pc", "cbf": "cbf_pc", "zfp": "zf_eta"}


def run_links(links, cfg, profile, n, rng, zf_eta=ZF_ETA):
    scales = {"ul": uplink.UplinkPowerControl.full_power(cfg.num_users),
              "cbf": downlink.cbf_power(profile), "zfp": zf_eta}
    return simulate_links(profile, cfg, n, rng,
                          **{LINK_ARGS[name]: scales[name] for name in links})


def test_joint_pass_matches_each_closed_form():
    # one call, one set of draws: every link still meets its closed form
    cfg, profile, rng = reference_profile(13)
    zf = downlink.zfp_moments(profile, cfg, rng, 20_000)
    est = run_links(("ul", "cbf", "zfp"), cfg, profile, N_FAST, rng,
                    zf_eta=zf.eta)
    assert list(est) == ["ul", "cbf", "zfp"]
    ul_pc = uplink.UplinkPowerControl.full_power(cfg.num_users)
    cbf_pc = downlink.cbf_power(profile)
    for name, closed, gamma in (
            ("ul", uplink.uplink_term_variances(profile, ul_pc, cfg),
             uplink.uplink_sinr_all(profile, ul_pc, cfg)[0]),
            ("cbf", downlink.cbf_term_variances(profile, cbf_pc, cfg),
             downlink.cbf_sinr_all(profile, cbf_pc, cfg)[0])):
        for label in TERMS:
            assert est[name].powers[label][0] == pytest.approx(
                closed[label][0], rel=0.03, abs=0), (name, label)
        assert est[name].empirical_sinr[0] == pytest.approx(gamma, rel=0.03)
        assert est[name].max_est_iui is None
    assert est["zfp"].empirical_sinr[0] == pytest.approx(
        downlink.zfp_sinr_all(profile, zf, cfg)[0], rel=0.05)
    assert est["zfp"].max_est_iui < 1e-9


@pytest.mark.parametrize("links", [("ul", "cbf", "zfp"), ("ul", "cbf"),
                                   ("cbf", "zfp"), ("ul", "zfp")],
                         ids="+".join)
def test_joint_pass_draws_exactly_its_block_plan(monkeypatch, links):
    # per block: estimates, errors, one symbol draw, the uplink's noise at
    # every antenna if asked for, one noise draw at the user shared by CBF
    # and ZF if either is asked for, and nothing else
    cfg, profile, _ = reference_profile(12)
    m, k = cfg.total_antennas, cfg.num_users
    monkeypatch.setattr(channel, "BLOCK_ELEMENTS", BLOCK_DRAWS * m * k)
    rng = np.random.default_rng(6)
    run_links(links, cfg, profile, N_BLOCKED, rng)
    direct = np.random.default_rng(6)
    for b in (BLOCK_DRAWS, BLOCK_DRAWS, N_BLOCKED - 2 * BLOCK_DRAWS):
        direct.standard_normal((b, m, k, 2))
        direct.standard_normal((b, m, k, 2))
        direct.standard_normal((b, k, 2))
        if "ul" in links:
            direct.standard_normal((b, m, 2))
        if "cbf" in links or "zfp" in links:
            direct.standard_normal((b, 2))
    assert rng.bit_generator.state == direct.bit_generator.state


def test_validate_draws_each_joint_channel_once(monkeypatch):
    # three links, one pass: n_samples joint draws in all, not one set per
    # link (the ZF moments draw estimates alone, through another function)
    drawn = []
    real_draw = oracle.sample_channel_batch

    def draw(profile, rng, n, out=None):
        drawn.append(n)
        return real_draw(profile, rng, n, out)

    monkeypatch.setattr(oracle, "sample_channel_batch", draw)
    validate_instance(reference_config(0), 3000)
    assert sum(drawn) == 3000


def test_joint_pass_holds_about_one_block_of_channels():
    # all three links on 100k reference samples share one block's draws
    cfg, profile, rng = reference_profile(0)
    tracemalloc.start()
    try:
        run_links(("ul", "cbf", "zfp"), cfg, profile, REFERENCE_SAMPLES, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6, f"{peak / 1e6:.1f} MB"
