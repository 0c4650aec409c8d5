"""Properties checked over generated inputs (skipped without hypothesis)."""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cfmimo import channel, downlink, experiment, uplink  # noqa: E402
from cfmimo.propagation import FadingProfile, fading_profile, \
    path_loss_db, place_topology  # noqa: E402
from cfmimo.scenario import ScenarioConfig, derive_noise_power, \
    drop_seed  # noqa: E402
from test_channel import svd_rule  # noqa: E402

# few examples each: the whole file stays within a few seconds
FEW = settings(max_examples=40, deadline=None)

# far beyond any config: 2**32 master seeds, 2**20 drops
masters = st.integers(0, 2 ** 32 - 1)
indices = st.integers(0, 2 ** 20 - 1)


@FEW
@given(st.lists(st.tuples(masters, indices), min_size=2, max_size=40,
                unique=True))
def test_drop_seed_is_injective(pairs):
    seeds = [drop_seed(m, i) for m, i in pairs]
    assert len(set(seeds)) == len(pairs)


@FEW
@given(masters, indices, st.integers(1, 2 ** 20 - 1))
def test_drop_seeds_of_one_master_differ(master, index, step):
    assert drop_seed(master, index) != drop_seed(master, index + step)


breakpoints = st.tuples(st.floats(1e-3, 0.5), st.floats(1.01, 20.0)).map(
    lambda t: (t[0], t[0] * t[1]))
l0s = st.floats(100.0, 160.0)


@FEW
@given(l0s, breakpoints)
def test_path_loss_is_continuous_at_both_breakpoints(l0, bp):
    d0, d1 = bp
    for d in (d0, d1):
        below = path_loss_db(np.nextafter(d, 0.0), l0, d0, d1)
        above = path_loss_db(np.nextafter(d, math.inf), l0, d0, d1)
        assert above == pytest.approx(below, rel=1e-12, abs=1e-9)


@FEW
@given(l0s, breakpoints,
       st.lists(st.floats(0.0, 5.0), min_size=2, max_size=30))
def test_path_loss_never_falls_with_distance(l0, bp, distances):
    d0, d1 = bp
    d = np.sort(np.asarray(distances + [d0, d1]))
    gain_db = path_loss_db(d, l0, d0, d1)      # the loss is -gain_db
    # up to rounding where two slopes meet (a few ulps of ~150 dB)
    assert (np.diff(gain_db) <= 1e-12).all()


@st.composite
def small_configs(draw):
    n_t = draw(st.integers(1, 4))
    m = n_t * draw(st.integers(2 if n_t == 1 else 1, 6))
    return ScenarioConfig(
        total_antennas=m, antennas_per_ap=n_t,
        num_users=draw(st.integers(1, min(6, m - 1))),
        area_side_km=draw(st.floats(0.05, 3.0)),
        ue_tx_power=draw(st.floats(1e-4, 10.0)),
        bandwidth_hz=draw(st.floats(1e3, 1e8)),
        shadowing_sigma_db=draw(st.floats(0.0, 12.0)),
        master_seed=draw(masters))


def drawn_profile(cfg, index):
    rng = np.random.default_rng(drop_seed(cfg.master_seed, index))
    return fading_profile(cfg, place_topology(cfg, rng), rng)


@FEW
@given(small_configs(), indices)
def test_estimate_variance_never_exceeds_the_gain(cfg, index):
    profile = drawn_profile(cfg, index)
    assert (profile.alpha >= 0).all()
    assert (profile.alpha <= profile.beta).all()


@FEW
@given(small_configs(), indices)
def test_cbf_spends_each_antenna_budget_exactly(cfg, index):
    profile = drawn_profile(cfg, index)
    if not (profile.alpha.sum(axis=1) > 0).all():
        return                       # a dead site is rejected, not scaled
    pc = downlink.cbf_power(profile)
    # expected radiated power of any antenna on site q over its budget
    ratio = pc.eta_site * profile.alpha.sum(axis=1)
    assert np.abs(ratio - 1.0).max() <= 1e-12


def closed_form_sinrs(profile, cfg, zf):
    """Uplink MRC, CBF and ZFP SINRs of every user."""
    eta_ul = uplink.UplinkPowerControl.full_power(profile.num_users)
    return {"mrc": uplink.uplink_sinr_all(profile, eta_ul, cfg),
            "cbf": downlink.cbf_sinr_all(profile, downlink.cbf_power(profile),
                                         cfg),
            "zfp": downlink.zfp_sinr_all(profile, zf, cfg)}


def leakage(profile, seed):
    """ZF moments with random leakage and every site's load at 1e-9."""
    k, q = profile.num_users, profile.num_sites
    chi = np.random.default_rng(seed).uniform(0.0, 1e-9, size=(k, k))
    return downlink.ZfpMoments(chi=chi, chi_stderr=np.zeros((k, k)),
                               site_load=np.full(q, 1e-9),
                               load_stderr=np.zeros(q), n_samples=1,
                               n_resampled=0)


@FEW
@given(small_configs(), indices, st.floats(0.0, 20.0),
       st.floats(0.0, 3.0), st.integers(0, 2 ** 32 - 1))
def test_sinr_never_rises_with_noise_or_interference(cfg, index, extra_db,
                                                     extra_gain, seed):
    profile = drawn_profile(cfg, index)
    if not (profile.alpha.sum(axis=1) > 0).all():
        return                       # a dead site is rejected, not scaled
    zf = leakage(profile, seed)
    base = closed_form_sinrs(profile, cfg, zf)
    # more receiver noise
    noisy = closed_form_sinrs(profile, dataclasses.replace(
        cfg, noise_figure_db=cfg.noise_figure_db + extra_db), zf)
    # more interference: every gain beta grows with the estimates fixed
    # (MRC and CBF), and every leakage moment grows (ZFP)
    rng = np.random.default_rng(seed)
    louder = FadingProfile(
        beta=profile.beta * (1 + extra_gain * rng.uniform(size=profile.beta.shape)),
        alpha=profile.alpha, antennas_per_site=profile.antennas_per_site)
    more = dataclasses.replace(zf, chi=zf.chi * (1 + extra_gain))
    interfered = closed_form_sinrs(louder, cfg, more)
    for scheme, sinr in base.items():
        slack = 1e-12 * sinr
        assert (noisy[scheme] <= sinr + slack).all(), scheme
        assert (interfered[scheme] <= sinr + slack).all(), scheme


def uplink_parts_of_user(profile, eta, k, cfg):
    """Uplink MRC part powers of user ``k`` alone, one sum per part."""
    alpha, beta = profile.alpha, profile.beta
    n_t = profile.antennas_per_site
    p_u = cfg.ue_tx_power
    a = alpha[:, k]
    a_k = float(a.sum())
    power = p_u * eta[k]
    others = np.delete(np.arange(profile.num_users), k)
    return {
        "desired": power * (n_t * a_k) ** 2,
        "uncertainty": power * (n_t * float((a ** 2).sum())),
        "est_error": power * n_t * float((a * (beta[:, k] - a)).sum()),
        "inter_user": p_u * n_t * float(
            (eta[others] * (a[:, None] * beta[:, others]).sum(axis=0)).sum()),
        "noise": derive_noise_power(cfg) * n_t * a_k,
    }


def cbf_parts_of_user(profile, eta_site, k, cfg):
    """CBF part powers of user ``k`` alone, summed antenna by antenna."""
    beta_mk = np.repeat(profile.beta, profile.antennas_per_site, axis=0)
    alpha_mk = channel.expand_site_to_antennas(profile)
    eta_m = np.repeat(eta_site, profile.antennas_per_site)
    p_d = cfg.ap_per_antenna_tx_power
    a_k, b_k = alpha_mk[:, k], beta_mk[:, k]
    inter = 0.0
    for i in range(profile.num_users):
        if i != k:
            inter += float((eta_m * b_k * alpha_mk[:, i]).sum())
    return {
        "desired": p_d * float((np.sqrt(eta_m) * a_k).sum()) ** 2,
        "uncertainty": p_d * float((eta_m * a_k ** 2).sum()),
        "est_error": p_d * float((eta_m * a_k * (b_k - a_k)).sum()),
        "inter_user": p_d * inter,
        "noise": derive_noise_power(cfg),
    }


@st.composite
def part_instances(draw):
    """A small profile with one unheard user, power scales and a config.

    Gains span eight decades and every other estimate keeps a free share
    of its gain, from a millionth to all of it; uplink power fractions are
    0 or at least a millionth too.  Smaller shares and fractions only add
    subnormal products.
    """
    sites, users = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = sites * users
    log_beta = draw(st.lists(st.floats(-14.0, -6.0), min_size=n, max_size=n))
    share = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    beta = 10.0 ** np.reshape(log_beta, (sites, users))
    alpha = beta * np.reshape(share, (sites, users))
    alpha[:, draw(st.integers(0, users - 1))] = 0.0
    profile = FadingProfile(beta=beta, alpha=alpha,
                            antennas_per_site=draw(st.integers(1, 4)))
    fractions = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    eta_ul = np.array(draw(st.lists(fractions, min_size=users,
                                    max_size=users)))
    eta_site = 10.0 ** np.array(draw(st.lists(
        st.floats(6.0, 14.0), min_size=sites, max_size=sites)))
    cfg = ScenarioConfig(ue_tx_power=draw(st.floats(1e-4, 10.0)),
                         ap_per_antenna_tx_power=draw(st.floats(1e-4, 10.0)),
                         bandwidth_hz=draw(st.floats(1e3, 1e8)))
    return profile, eta_ul, eta_site, cfg


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@FEW
@given(part_instances())
def test_part_powers_and_sinrs_match_their_written_forms(instance):
    # every user's parts against the per-user references above, and the
    # one SINR rule against the ratios the module docstrings state
    profile, eta_ul, eta_site, cfg = instance
    alpha, beta = profile.alpha, profile.beta
    n_t, users = profile.antennas_per_site, profile.num_users
    s2 = derive_noise_power(cfg)
    ul_pc = uplink.UplinkPowerControl(eta=eta_ul)
    cbf_pc = downlink.CbfPowerControl(eta_site=eta_site)
    for parts, sinr_all, reference, scale in (
            (uplink.uplink_term_variances(profile, ul_pc, cfg),
             uplink.uplink_sinr_all(profile, ul_pc, cfg),
             uplink_parts_of_user, eta_ul),
            (downlink.cbf_term_variances(profile, cbf_pc, cfg),
             downlink.cbf_sinr_all(profile, cbf_pc, cfg),
             cbf_parts_of_user, eta_site)):
        for k in range(users):
            want = reference(profile, scale, k, cfg)
            assert list(parts) == list(want)
            assert_close([p[k] for p in parts.values()], list(want.values()))
        assert np.array_equal(uplink.sinr_from_parts(parts), sinr_all)

    p_u = cfg.ue_tx_power
    a = alpha.sum(axis=0)
    den = p_u * n_t * (alpha.T @ (beta @ eta_ul)) + s2 * n_t * a
    mrc = np.zeros(users)
    heard = a > 0
    mrc[heard] = (p_u * eta_ul * (n_t * a) ** 2)[heard] / den[heard]
    assert_close(uplink.uplink_sinr_all(profile, ul_pc, cfg), mrc)

    p_d = cfg.ap_per_antenna_tx_power
    cbf = (p_d * n_t ** 2 * (alpha.T @ np.sqrt(eta_site)) ** 2
           / (s2 + p_d * n_t * (beta.T @ (eta_site * alpha.sum(axis=1)))))
    assert_close(downlink.cbf_sinr_all(profile, cbf_pc, cfg), cbf)


@FEW
@given(st.integers(1, 5), st.integers(1, 8), st.integers(1, 6),
       st.data())
def test_equivalent_share_is_at_most_one_over_n_t_minus_k(k, extra, sites,
                                                         data):
    # a site's shares of user k sum to at most 1 + delta_q, which bounds
    # every share by 1 / (n_t - K) once n_t > K: why no n_t >= K + 2 drop
    # samples its ZF moments
    n_t = k + extra
    log_alpha = data.draw(st.lists(st.floats(-12.0, 2.0), min_size=sites * k,
                                   max_size=sites * k))
    alpha = 10.0 ** np.reshape(log_alpha, (sites, k))
    profile = FadingProfile(beta=2 * alpha, alpha=alpha, antennas_per_site=n_t)
    equivalent = downlink.zfp_equivalent(profile)
    assert equivalent is not None
    assert equivalent[1] <= (1.0 + 1e-12) / (n_t - k)


@FEW
@given(st.integers(1, 6), st.lists(st.floats(0.0, 17.0), min_size=1,
                                   max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_invert_grams_screen_flags_what_the_svd_rule_flags(k, log_conds,
                                                           seed):
    # Hermitian Grams U diag(s) U^H with condition numbers 1 to 1e17,
    # across the 1e13 floor, screened in one batch
    rng = np.random.default_rng(seed)
    grams = []
    for log_cond in log_conds:
        z = channel.complex_normal(rng, 1.0, (k, k))
        u, _ = np.linalg.qr(z)
        s = np.logspace(0.0, -log_cond, k) if k > 1 else np.ones(1)
        grams.append((u * s) @ u.conj().T)
    grams = np.stack(grams)
    _, bad = channel.invert_grams(grams)
    assert bad.tolist() == [svd_rule(a) for a in grams]


@settings(max_examples=5, deadline=None)
@given(small_configs(), st.integers(1, 3), st.integers(8, 40))
def test_sweep_records_do_not_depend_on_the_worker_count(cfg, drops,
                                                         chi_samples):
    nt_list = sorted({1, cfg.antennas_per_ap})
    cfg = dataclasses.replace(cfg, antennas_per_ap=1, drops=drops,
                              chi_samples=chi_samples)
    assert experiment.sweep(cfg, nt_list, [0.1], jobs=1) \
        == experiment.sweep(cfg, nt_list, [0.1], jobs=2)
