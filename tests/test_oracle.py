import dataclasses
import tracemalloc

import numpy as np
import pytest

from cfmimo import channel, downlink, oracle, uplink
from cfmimo.oracle import (CBF_TERMS, REFERENCE_SAMPLES, UPLINK_TERMS,
                           reference_config, rows_to_csv, rows_to_text,
                           simulate_downlink_cbf,
                           simulate_downlink_zfp, simulate_uplink_terms,
                           validate_instance)
from cfmimo.propagation import FadingProfile, fading_profile, place_topology
from cfmimo.scenario import ScenarioConfig, derive_noise_power, drop_seed

N_FAST = 40_000


def reference_profile(seed=0):
    cfg = reference_config(seed)
    rng = np.random.default_rng(drop_seed(cfg.master_seed, 0))
    profile = fading_profile(cfg, place_topology(cfg, rng), rng)
    return cfg, profile, rng


def test_uplink_terms_match_closed_forms():
    cfg, profile, rng = reference_profile(1)
    eta = uplink.UplinkPowerControl.full_power(cfg.num_users)
    est = simulate_uplink_terms(profile, eta, 0, cfg, N_FAST, rng)
    terms = uplink.uplink_term_variances(profile, eta, 0, cfg)
    p_u = cfg.ue_tx_power
    closed = {
        "desired": terms.desired,
        "uncertainty": p_u * eta.eta[0] * terms.uncertainty,
        "est_error": terms.estimation_error,
        "inter_user": terms.inter_user,
        "noise": terms.noise,
    }
    for label in UPLINK_TERMS:
        assert est.powers[label] == pytest.approx(closed[label], rel=0.03), label
    # and the composed empirical SINR against the closed form
    gamma = uplink.uplink_sinr_all(profile, eta, cfg)[0]
    assert est.empirical_sinr == pytest.approx(gamma, rel=0.03)


def test_uplink_terms_uncorrelated():
    cfg, profile, rng = reference_profile(2)
    eta = uplink.UplinkPowerControl.full_power(cfg.num_users)
    est = simulate_uplink_terms(profile, eta, 0, cfg, N_FAST, rng)
    # orthogonal parts: normalized cross moments vanish within MC noise
    bound = 4.0 / np.sqrt(N_FAST)
    for pair, corr in est.correlations.items():
        assert corr < bound, (pair, corr)


def test_uplink_desired_power_is_deterministic_amplitude():
    cfg, profile, rng = reference_profile(3)
    eta = uplink.UplinkPowerControl.full_power(cfg.num_users)
    est = simulate_uplink_terms(profile, eta, 0, cfg, 5000, rng)
    # the desired part has constant amplitude, so even few samples nail it
    terms = uplink.uplink_term_variances(profile, eta, 0, cfg)
    assert est.powers["desired"] == pytest.approx(terms.desired, rel=0.05)
    assert est.stderrs["desired"] < 0.05 * est.powers["desired"]


def test_uplink_degenerate_perfect_csi_low_noise():
    # perfect estimates kill the estimation-error part exactly; a vanishing
    # bandwidth makes the noise part negligible against the signal terms
    cfg = ScenarioConfig(total_antennas=6, antennas_per_ap=2, num_users=1,
                         bandwidth_hz=1e-20)
    rng = np.random.default_rng(4)
    beta = np.full((3, 1), 1e-10)
    profile = FadingProfile(beta=beta, alpha=beta.copy(), antennas_per_site=2)
    est = simulate_uplink_terms(profile, uplink.UplinkPowerControl(eta=[1.0]),
                                0, cfg, 2000, rng)
    assert est.powers["est_error"] == 0.0
    assert est.powers["inter_user"] == 0.0
    assert est.powers["noise"] < 1e-12 * est.powers["desired"]
    # remaining fluctuation: p_u * Var(|g_hat_k|^2) = p_u * n_t sum alpha^2
    expected = cfg.ue_tx_power * 2 * (beta ** 2).sum()
    assert est.powers["uncertainty"] == pytest.approx(expected, rel=0.1)


def test_oracle_convergence_rate():
    cfg, profile, _ = reference_profile(5)
    eta = uplink.UplinkPowerControl.full_power(cfg.num_users)
    est_small = simulate_uplink_terms(profile, eta, 0, cfg, 10_000,
                                      np.random.default_rng(20))
    est_big = simulate_uplink_terms(profile, eta, 0, cfg, 40_000,
                                    np.random.default_rng(21))
    for label in ("inter_user", "noise"):
        ratio = est_big.stderrs[label] / est_small.stderrs[label]
        assert ratio == pytest.approx(0.5, abs=0.1)


def test_cbf_terms_and_sinr_match_closed_forms():
    cfg, profile, rng = reference_profile(6)
    pc = downlink.cbf_power(profile)
    est = simulate_downlink_cbf(profile, pc, 0, cfg, N_FAST, rng)
    gamma = downlink.cbf_sinr_all(profile, pc, cfg)[0]
    assert est.empirical_sinr == pytest.approx(gamma, rel=0.03)
    # parts are nonzero and sum to the closed denominator (times noise)
    s2 = derive_noise_power(cfg)
    num = est.powers["desired"]
    den = sum(est.powers[t] for t in CBF_TERMS if t != "desired")
    assert est.powers["noise"] == pytest.approx(s2, rel=0.03)
    assert num / den == pytest.approx(gamma, rel=0.05)


def test_cbf_single_site_single_user_hand_form():
    n_t = 3
    cfg = ScenarioConfig(total_antennas=3, antennas_per_ap=3, num_users=1)
    beta = np.array([[5e-11]])
    alpha = np.array([[3e-11]])
    profile = FadingProfile(beta=beta, alpha=alpha, antennas_per_site=n_t)
    pc = downlink.cbf_power(profile)
    rng = np.random.default_rng(7)
    est = simulate_downlink_cbf(profile, pc, 0, cfg, N_FAST, rng)
    p_d = cfg.ap_per_antenna_tx_power
    s2 = derive_noise_power(cfg)
    eta = 1.0 / 3e-11
    expected = (p_d * n_t ** 2 * eta * (3e-11) ** 2
                / (s2 + p_d * n_t * 5e-11 * eta * 3e-11))
    assert est.empirical_sinr == pytest.approx(expected, rel=0.03)
    assert downlink.cbf_sinr_all(profile, pc, cfg)[0] == pytest.approx(
        expected, rel=1e-12)


def test_cbf_near_zero_power_leaves_only_noise():
    cfg, profile, rng = reference_profile(8)
    cfg = dataclasses.replace(cfg, ap_per_antenna_tx_power=1e-30)
    pc = downlink.cbf_power(profile)
    est = simulate_downlink_cbf(profile, pc, 0, cfg, 4000, rng)
    s2 = derive_noise_power(cfg)
    for label in ("desired", "uncertainty", "est_error", "inter_user"):
        assert est.powers[label] < 1e-12 * s2
    assert est.powers["noise"] == pytest.approx(s2, rel=0.1)


def test_zfp_oracle_matches_pipeline():
    cfg, profile, rng = reference_profile(9)
    chi, pc = downlink.zfp_moments(profile, cfg, rng, 20_000)
    closed = downlink.zfp_sinr_all(profile, pc, chi, cfg)[0]
    est = simulate_downlink_zfp(profile, pc.eta_common, 0, cfg, N_FAST, rng)
    assert est.empirical_sinr == pytest.approx(closed, rel=0.05)
    # interference through the estimated channels is numerically nil
    assert est.max_est_iui < 1e-9
    assert est.residual_power < 1e-15 or est.max_est_iui ** 2 \
        < 1e-9 * est.residual_power


def test_zfp_oracle_perfect_csi():
    cfg = reference_config(10)
    rng = np.random.default_rng(drop_seed(cfg.master_seed, 0))
    profile = fading_profile(cfg, place_topology(cfg, rng), rng)
    perfect = FadingProfile(beta=profile.beta, alpha=profile.beta.copy(),
                            antennas_per_site=profile.antennas_per_site)
    _, pc = downlink.zfp_moments(perfect, cfg, rng, 2000)
    est = simulate_downlink_zfp(perfect, pc.eta_common, 0, cfg, N_FAST, rng)
    s2 = derive_noise_power(cfg)
    expected = cfg.ap_per_antenna_tx_power * pc.eta_common / s2
    assert est.residual_power == 0.0
    assert est.empirical_sinr == pytest.approx(expected, rel=0.02)


def test_validation_report_passes_and_serializes(tmp_path):
    cfg = reference_config(0)
    rows = validate_instance(cfg, 30_000)
    names = [r.name for r in rows]
    assert "ul_sinr" in names and "cbf_sinr" in names and "zfp_sinr" in names
    assert all(r.passed for r in rows), [
        (r.name, r.rel_error) for r in rows if not r.passed]
    text = rows_to_text(rows)
    assert "all checks pass" in text
    out = tmp_path / "report.csv"
    rows_to_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("term,closed_form,empirical,rel_error,tolerance,"
                       "samples,passed")
    assert len(lines) == 1 + len(rows)


# --- chunks, blocks and memory ----------------------------------------------

PASSES = ("uplink", "cbf", "zfp")
# any common ZF scale: these tests look at memory and bits, not at the SINR
ZF_ETA = 3e10
# with 1700 samples: chunks of 700, 700 and 300 draws
CHUNK_DRAWS = 700
N_CHUNKED = 1700


def run_pass(which, cfg, profile, n, rng):
    if which == "uplink":
        eta = uplink.UplinkPowerControl.full_power(cfg.num_users)
        return simulate_uplink_terms(profile, eta, 0, cfg, n, rng)
    if which == "cbf":
        return simulate_downlink_cbf(profile, downlink.cbf_power(profile), 0,
                                     cfg, n, rng)
    return simulate_downlink_zfp(profile, ZF_ETA, 0, cfg, n, rng)


@pytest.mark.parametrize("which", PASSES)
def test_oracle_pass_holds_about_one_chunk_of_channels(which):
    # 100k reference samples are four chunks of 25 000 draws; one chunk's
    # estimates and errors take 128 MB, and the pass may add half of that
    cfg, profile, rng = reference_profile(0)
    entries = cfg.total_antennas * cfg.num_users
    chunk_bytes = 2 * 16 * (oracle._CHUNK_ELEMENTS // entries) * entries
    tracemalloc.start()
    try:
        run_pass(which, cfg, profile, REFERENCE_SAMPLES, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * chunk_bytes, f"{peak / 1e6:.0f} MB"


@pytest.mark.parametrize("which", PASSES)
def test_blocks_do_not_change_a_bit(monkeypatch, which):
    # the default blocks, blocks of a few draws and of one draw, and one
    # block per chunk (no blocking) give the same estimate, bit for bit
    cfg, profile, _ = reference_profile(11)
    entries = cfg.total_antennas * cfg.num_users
    monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", CHUNK_DRAWS * entries)
    seen = set()
    for draws in (None, 3, 1, CHUNK_DRAWS):
        if draws is not None:
            monkeypatch.setattr(oracle, "BLOCK_ELEMENTS", draws * entries)
        est = run_pass(which, cfg, profile, N_CHUNKED,
                       np.random.default_rng(5))
        seen.add(repr(est))            # repr tells every float bit apart
    assert len(seen) == 1


@pytest.mark.parametrize("which", PASSES)
def test_passes_draw_exactly_their_chunk_plan(monkeypatch, which):
    # estimates, errors, symbols, noise: chunk by chunk, nothing else
    cfg, profile, _ = reference_profile(12)
    m, k = cfg.total_antennas, cfg.num_users
    monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", CHUNK_DRAWS * m * k)
    monkeypatch.setattr(oracle, "BLOCK_ELEMENTS", 64 * m * k)
    rng = np.random.default_rng(6)
    run_pass(which, cfg, profile, N_CHUNKED, rng)
    direct = np.random.default_rng(6)
    for c in (CHUNK_DRAWS, CHUNK_DRAWS, N_CHUNKED - 2 * CHUNK_DRAWS):
        direct.standard_normal((c, m, k, 2))
        direct.standard_normal((c, m, k, 2))
        direct.standard_normal((c, k, 2))
        direct.standard_normal((c, m, 2) if which == "uplink" else (c, 2))
    assert rng.bit_generator.state == direct.bit_generator.state


def singular_zf_pass(monkeypatch, zeroed):
    # a chunked ZF pass whose chunk c draws zero estimates at the indices
    # zeroed[c]; returns the estimate (or the error raised), every channel
    # draw and a log of the draws and of the Gram inversions, in call order
    cfg, profile, _ = reference_profile(12)
    entries = cfg.total_antennas * cfg.num_users
    monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", CHUNK_DRAWS * entries)
    monkeypatch.setattr(oracle, "BLOCK_ELEMENTS", 64 * entries)
    real_draw, real_invert = oracle.sample_channel_batch, channel.invert_grams
    draws, log = {}, []

    def draw(profile, rng, b):
        g_hat, g_err = real_draw(profile, rng, b)
        kind = "chunk" if b in (CHUNK_DRAWS, N_CHUNKED % CHUNK_DRAWS) \
            else "redraw"
        if kind == "chunk":
            g_hat[zeroed.get(sum(e[0] == "chunk" for e in log), [])] = 0.0
        draws.setdefault(kind, []).append((g_hat, g_err))
        log.append((kind, b))
        return g_hat, g_err

    def invert(gram):
        log.append(("invert", len(gram)))
        return real_invert(gram)

    monkeypatch.setattr(oracle, "sample_channel_batch", draw)
    monkeypatch.setattr(channel, "invert_grams", invert)
    try:
        est = run_pass("zfp", cfg, profile, N_CHUNKED,
                       np.random.default_rng(6))
    except channel.NumericalError as exc:
        est = exc
    return est, draws, log, cfg, profile


def test_zf_pass_redraws_a_singular_draw_right_after_its_block(monkeypatch):
    # one singular draw in chunk 0's first block, one in chunk 2's second
    est, draws, log, cfg, profile = singular_zf_pass(monkeypatch,
                                                     {0: [1], 2: [100]})
    assert est.n_resampled == 2
    chunk_at = [i for i, e in enumerate(log) if e[0] == "chunk"]
    assert [log[i] for i in chunk_at] == [("chunk", 700), ("chunk", 700),
                                          ("chunk", 300)]
    first, last = chunk_at[0], chunk_at[2]
    # chunk, its first block's inversion, the redraw, then its inversion
    assert log[first + 1:first + 4] == [("invert", 64), ("redraw", 1),
                                        ("invert", 1)]
    assert log[first + 4] == ("invert", 64)
    assert log[last + 1:last + 5] == [("invert", 64), ("invert", 64),
                                      ("redraw", 1), ("invert", 1)]
    # both parts of each singular draw are replaced in place by the redraw
    chunks, redraws = draws["chunk"], draws["redraw"]
    for (hat, err), index, (new_hat, new_err) in zip(
            [chunks[0], chunks[2]], [1, 100], redraws):
        assert np.array_equal(hat[index], new_hat[0])
        assert np.array_equal(err[index], new_err[0])
        assert np.abs(new_hat[0]).min() > 0
    # in the stream, the first redraw follows chunk 0's symbols and noise
    direct = np.random.default_rng(6)
    m, k = cfg.total_antennas, cfg.num_users
    for shape in ((700, m, k), (700, m, k), (700, k), (700,)):
        direct.standard_normal(shape + (2,))
    new_hat, new_err = oracle.sample_channel_batch(profile, direct, 1)
    assert np.array_equal(new_hat, redraws[0][0])
    assert np.array_equal(new_err, redraws[0][1])


@pytest.mark.parametrize("extra, fails", [([], False), ([0], True)])
def test_zf_redraw_budget_covers_the_whole_pass(monkeypatch, extra, fails):
    # 1700 draws allow 17 redraws; chunk 0 alone takes 10, more than 1% of
    # its 700 draws, and one redraw beyond 17 aborts the pass
    zeroed = {0: list(range(0, 700, 70)), 1: list(range(0, 700, 100)),
              2: extra}
    est, *_ = singular_zf_pass(monkeypatch, zeroed)
    if fails:
        assert isinstance(est, channel.NumericalError)
        assert "18 of 1700" in str(est)
    else:
        assert est.n_resampled == 17
