import dataclasses

import numpy as np
import pytest

from cfmimo import channel, downlink
from cfmimo.channel import (complex_normal, expand_site_to_antennas,
                            sample_estimates)
from cfmimo.downlink import (CbfPowerControl, NumericalError, cbf_power,
                             cbf_sinr_all, cbf_term_variances, zfp_equivalent,
                             zfp_moments, zfp_sinr_all)
from cfmimo.oracle import reference_config
from cfmimo.propagation import FadingProfile, fading_profile, place_topology
from cfmimo.scenario import ConfigError, ScenarioConfig, derive_noise_power, \
    drop_seed


def make_profile(beta, alpha, n_t=1):
    return FadingProfile(beta=np.asarray(beta, dtype=float),
                         alpha=np.asarray(alpha, dtype=float),
                         antennas_per_site=n_t)


def random_profile(seed, m=40, n_t=2, k=4):
    # chi_rel_se 0: a moment pass draws exactly the count it is given
    cfg = ScenarioConfig(total_antennas=m, antennas_per_ap=n_t, num_users=k,
                         chi_rel_se=0.0, master_seed=seed)
    rng = np.random.default_rng(drop_seed(seed, 0))
    return cfg, fading_profile(cfg, place_topology(cfg, rng), rng)


# --- conjugate beamforming -------------------------------------------------

def test_cbf_power_single_user():
    profile = make_profile([[1.0]], [[0.5]], n_t=1)
    pc = cbf_power(profile)
    assert pc.eta_site == pytest.approx([2.0])


def test_cbf_power_normalizes_each_site():
    cfg, profile = random_profile(1)
    pc = cbf_power(profile)
    # closed-form expected antenna power: sum_k eta_q alpha_qk = 1 per site
    assert profile.alpha.sum(axis=1) * pc.eta_site == pytest.approx(
        np.ones(profile.num_sites), rel=1e-12)


def test_cbf_power_rejects_dead_site():
    profile = make_profile([[1.0, 1.0], [1.0, 1.0]],
                           [[0.5, 0.5], [0.0, 0.0]], n_t=1)
    with pytest.raises(ConfigError) as err:
        cbf_power(profile)
    assert "site 1" in str(err.value)


def test_cbf_antenna_power_monte_carlo():
    # E |sqrt(p_d) sum_k sqrt(eta_q) conj(g_hat_mk) u_k|^2 == p_d per antenna
    cfg, profile = random_profile(2, m=6, n_t=2, k=3)
    pc = cbf_power(profile)
    rng = np.random.default_rng(10)
    n = 200_000
    g_hat = sample_estimates(profile, rng, n)
    u = complex_normal(rng, 1.0, (n, 3))
    sqrt_eta_m = np.sqrt(np.repeat(pc.eta_site, 2))
    tx = np.einsum("m,cmk,ck->cm", sqrt_eta_m, g_hat.conj(), u)
    p_d = cfg.ap_per_antenna_tx_power
    power = p_d * (np.abs(tx) ** 2).mean(axis=0)
    assert power == pytest.approx(np.full(6, p_d), rel=0.02)


def test_cbf_sinr_matches_independent_antenna_level_form():
    # re-derive the SINR at antenna level with an independent expression
    cfg, profile = random_profile(3, m=30, n_t=3, k=5)
    pc = cbf_power(profile)
    beta_mk = np.repeat(profile.beta, 3, axis=0)
    alpha_mk = expand_site_to_antennas(profile)
    eta_m = np.repeat(pc.eta_site, 3)
    p_d = cfg.ap_per_antenna_tx_power
    s2 = derive_noise_power(cfg)
    got = cbf_sinr_all(profile, pc, cfg)
    for k in range(5):
        num = p_d * (np.sqrt(eta_m) * alpha_mk[:, k]).sum() ** 2
        den = s2 + p_d * (beta_mk[:, k] * eta_m
                          * alpha_mk.sum(axis=1)).sum()
        assert got[k] == pytest.approx(num / den, rel=1e-12)


def test_cbf_single_site_single_user_hand_value():
    beta, alpha, n_t = 3e-11, 2e-11, 4
    cfg = ScenarioConfig(total_antennas=4, antennas_per_ap=4, num_users=1)
    profile = make_profile([[beta]], [[alpha]], n_t=n_t)
    pc = cbf_power(profile)
    p_d = cfg.ap_per_antenna_tx_power
    s2 = derive_noise_power(cfg)
    eta = 1.0 / alpha
    expected = (p_d * n_t ** 2 * eta * alpha ** 2
                / (s2 + p_d * n_t * beta * eta * alpha))
    assert cbf_sinr_all(profile, pc, cfg)[0] == pytest.approx(
        expected, rel=1e-12)


def test_cbf_sinr_zero_alpha_user():
    profile = make_profile([[1e-11, 2e-11]], [[0.0, 1e-11]], n_t=1)
    cfg = ScenarioConfig(total_antennas=2, antennas_per_ap=1, num_users=1)
    pc = CbfPowerControl(eta_site=np.array([1e11]))
    assert cbf_sinr_all(profile, pc, cfg)[0] == 0.0


def test_cbf_sinr_validates_inputs():
    cfg, profile = random_profile(4)
    pc = cbf_power(profile)
    with pytest.raises(ConfigError):
        cbf_sinr_all(profile, CbfPowerControl(eta_site=-pc.eta_site), cfg)
    with pytest.raises(ConfigError):
        cbf_sinr_all(profile, CbfPowerControl(eta_site=np.ones(3)), cfg)


@pytest.mark.parametrize("sites", [19, 21])
def test_cbf_scales_must_match_the_sites(sites):
    # the stock reference instance has 20 sites; both CBF closed forms
    # reject one scale too few or too many as a config error
    cfg = reference_config(0)
    rng = np.random.default_rng(drop_seed(cfg.master_seed, 0))
    profile = fading_profile(cfg, place_topology(cfg, rng), rng)
    assert profile.num_sites == 20
    pc = CbfPowerControl(eta_site=np.ones(sites))
    for closed_form in (cbf_term_variances, cbf_sinr_all):
        with pytest.raises(ConfigError, match="eta_site has shape"):
            closed_form(profile, pc, cfg)


@pytest.mark.parametrize("eta_site, message", [
    ([1.0, np.nan], "finite and >= 0"),
    ([1.0, np.inf], "finite and >= 0"),
    ([1.0, -1.0], "finite and >= 0"),
    ([[1.0, 2.0]], "1-d"),
], ids=["nan", "inf", "negative", "2-d"])
def test_cbf_power_control_rejects_bad_scales_at_construction(eta_site,
                                                              message):
    # a NaN scale used to reach cbf_sinr_all and come out as an SINR of 0
    with pytest.raises(ConfigError, match=message):
        CbfPowerControl(eta_site=np.array(eta_site))


# --- zero-forcing moments --------------------------------------------------

def test_chi_zero_under_perfect_estimates():
    beta = np.full((6, 2), 1e-10)
    profile = make_profile(beta, beta, n_t=1)
    cfg = ScenarioConfig(total_antennas=6, antennas_per_ap=1, num_users=2)
    zf = zfp_moments(profile, cfg, np.random.default_rng(0), 200)
    assert np.abs(zf.chi).max() == 0.0


def test_chi_matches_direct_interference_variance():
    # two estimators on shared precoder samples: the closed conditional
    # expectation against a fresh error draw per sample; four two-antenna
    # sites written as eight single-antenna ones (the same antenna-level
    # law), so the pass draws the antennas themselves
    rng0 = np.random.default_rng(123)
    beta = np.repeat(10 ** rng0.uniform(-1, 1, size=(4, 2)), 2, axis=0)
    alpha = beta * np.repeat(rng0.uniform(0.3, 0.9, size=(4, 2)), 2, axis=0)
    profile = make_profile(beta, alpha, n_t=1)
    cfg = ScenarioConfig(total_antennas=8, antennas_per_ap=1, num_users=2,
                         chi_rel_se=0.0)
    n = 60_000
    zf = zfp_moments(profile, cfg, np.random.default_rng(77), n)

    rng = np.random.default_rng(77)          # same precoder samples
    g = sample_estimates(profile, rng, n)
    w = g.conj() @ np.linalg.solve(g.transpose(0, 2, 1) @ g.conj(), np.eye(2))
    g_err = complex_normal(np.random.default_rng(999), beta - alpha,
                           (n, 8, 2))
    for k in range(2):
        leak = np.einsum("cm,cmi->ci", g_err[:, :, k], w)
        direct = (np.abs(leak) ** 2).mean(axis=0)
        assert direct == pytest.approx(zf.chi[k], rel=0.01)


def test_chi_symmetric_scenario():
    # identical gains everywhere: all chi entries estimate the same number
    beta = np.full((8, 2), 2.0)
    alpha = np.full((8, 2), 1.5)
    profile = make_profile(beta, alpha, n_t=1)
    cfg = ScenarioConfig(total_antennas=8, antennas_per_ap=1, num_users=2,
                         chi_rel_se=0.0)
    zf = zfp_moments(profile, cfg, np.random.default_rng(8), 10_000)
    assert zf.chi.max() / zf.chi.min() == pytest.approx(1.0, abs=0.05)


def test_chi_stderr_shrinks_with_samples():
    cfg, profile = random_profile(5, m=12, n_t=2, k=3)
    small = zfp_moments(profile, cfg, np.random.default_rng(1), 500)
    big = zfp_moments(profile, cfg, np.random.default_rng(2), 8000)
    assert big.chi_stderr.mean() < small.chi_stderr.mean() / 2


def test_moments_scale_exactly_with_profile():
    # scaling every variance by c scales the load by 1/c, eta by c, chi by 1
    # (same generator state makes the comparison exact, not statistical)
    rng0 = np.random.default_rng(31)
    beta = 10 ** rng0.uniform(-12, -10, size=(5, 3))
    alpha = beta * rng0.uniform(0.2, 0.95, size=beta.shape)
    prof1 = make_profile(beta, alpha, n_t=2)
    prof2 = make_profile(4.0 * beta, 4.0 * alpha, n_t=2)
    cfg = ScenarioConfig(total_antennas=10, antennas_per_ap=2, num_users=3,
                         chi_rel_se=0.0)
    zf1 = zfp_moments(prof1, cfg, np.random.default_rng(6), 2000)
    zf2 = zfp_moments(prof2, cfg, np.random.default_rng(6), 2000)
    assert zf2.eta == pytest.approx(4.0 * zf1.eta, rel=1e-12)
    assert np.allclose(zf2.site_load, zf1.site_load / 4.0, rtol=1e-12)
    assert np.allclose(zf2.chi, zf1.chi, rtol=1e-12)


def test_zfp_power_scalar_case_is_reciprocal_load():
    # one antenna, one user: eta is the reciprocal of the sampled mean of
    # 1 / |g_hat|^2, structurally
    beta = np.array([[2.0]])
    profile = make_profile(beta, beta, n_t=1)
    cfg = ScenarioConfig(total_antennas=2, antennas_per_ap=1, num_users=1)
    n = 50
    zf = zfp_moments(profile, cfg, np.random.default_rng(12), n)
    g = sample_estimates(profile, np.random.default_rng(12), n)[:, :1, :]
    manual = (1.0 / np.abs(g[:, 0, 0]) ** 2).mean()
    assert zf.eta == pytest.approx(1.0 / manual, rel=1e-12)


def test_zfp_power_respects_budget_on_fresh_samples():
    cfg, profile = random_profile(7, m=24, n_t=2, k=4)
    zf = zfp_moments(profile, cfg, np.random.default_rng(3), 4000)
    fresh = zfp_moments(profile, cfg, np.random.default_rng(4), 4000)
    p_d = cfg.ap_per_antenna_tx_power
    audit = p_d * zf.eta * fresh.site_load
    # the antennas of the most loaded site radiate their budget, nobody
    # exceeds it beyond the sampling noise of the audit
    assert audit.max() == pytest.approx(p_d, rel=0.05)
    noise = 3 * p_d * zf.eta * fresh.load_stderr
    assert (audit <= p_d + noise).all()


def test_zfp_sinr_closed_cases():
    cfg, profile = random_profile(8, m=20, n_t=1, k=4)
    s2 = derive_noise_power(cfg)
    p_d = cfg.ap_per_antenna_tx_power
    zf = zfp_moments(profile, cfg, np.random.default_rng(9), 500)
    # perfect estimates: gamma = p_d eta / sigma^2 for every user
    perfect = make_profile(profile.beta, profile.beta, n_t=1)
    zf0 = zfp_moments(perfect, cfg, np.random.default_rng(10), 200)
    got = zfp_sinr_all(perfect, dataclasses.replace(zf, chi=zf0.chi), cfg)
    assert got == pytest.approx(np.full(4, p_d * zf.eta / s2), rel=1e-12)
    # an unbounded load scales the power to zero: zero SINR
    unbounded = dataclasses.replace(zf, site_load=np.full_like(zf.site_load, np.inf))
    assert unbounded.eta == 0.0
    assert zfp_sinr_all(profile, unbounded, cfg) == pytest.approx(np.zeros(4))
    # more leakage can only hurt
    base = zfp_sinr_all(profile, zf, cfg)
    worse = dataclasses.replace(zf, chi=zf.chi * 1.5)
    assert (zfp_sinr_all(profile, worse, cfg) < base).all()


def test_zfp_sinr_validates_inputs():
    cfg, profile = random_profile(9)
    # moments of a two-user drop do not fit this four-user one
    other = zfp_moments(
        make_profile(np.ones((5, 2)), np.ones((5, 2)) * 0.5),
        ScenarioConfig(total_antennas=5, antennas_per_ap=1, num_users=2),
        np.random.default_rng(0), 50)
    with pytest.raises(ConfigError):
        zfp_sinr_all(profile, other, cfg)


def test_moment_pass_needs_one_draw():
    cfg, profile = random_profile(5)
    with pytest.raises(ConfigError, match="n_samples must be >= 1, got 0"):
        zfp_moments(profile, cfg, np.random.default_rng(0), 0)


def test_moment_estimation_needs_enough_antennas():
    profile = make_profile(np.ones((2, 3)), np.full((2, 3), 0.5), n_t=1)
    cfg = ScenarioConfig(total_antennas=4, antennas_per_ap=1, num_users=3)
    with pytest.raises(ConfigError):
        zfp_moments(profile, cfg, np.random.default_rng(0), 50)
    with pytest.raises(ConfigError):
        zfp_equivalent(profile)


# --- the deterministic equivalent ------------------------------------------

def full_scale_profile(n_t, drop=0):
    cfg = ScenarioConfig(total_antennas=300, antennas_per_ap=n_t,
                         num_users=16, chi_rel_se=0.0, master_seed=0)
    rng = np.random.default_rng(drop_seed(0, drop))
    return cfg, fading_profile(cfg, place_topology(cfg, rng), rng)


@pytest.mark.parametrize("n_t", [1, 4, 20])
def test_equivalent_loads_of_a_stream_sum_to_its_fixed_point(n_t):
    # with beta - alpha = 1 everywhere, chi[k, i] = sum_q L_qi, which must
    # equal t_i exactly; so chi's rows are t, and t solves the fixed point
    _, drawn = full_scale_profile(n_t)
    alpha = drawn.alpha
    profile = make_profile(alpha + 1.0, alpha, n_t=n_t)
    zf, share = zfp_equivalent(profile)
    t = zf.chi[0]
    assert np.allclose(zf.chi, t, rtol=1e-12, atol=0)
    delta = alpha @ t
    fixed = 1.0 / (n_t * (alpha.T @ (1.0 / (1.0 + delta))))
    assert np.allclose(t, fixed, rtol=1e-12, atol=0)
    assert share == pytest.approx((alpha * t).max(), rel=1e-12)
    # no Monte-Carlo error, and n_samples 0 says so
    assert zf.n_samples == 0
    assert not zf.chi_stderr.any() and not zf.load_stderr.any()


def test_equivalent_is_exact_for_identical_gains():
    # alpha = a everywhere: the Gram is a complex Wishart W_K(M, a I), so
    # E[X_ii] = 1 / (a (M - K)) and each antenna carries 1 / M of it
    m, k, n_t, a, b = 60, 5, 3, 0.4, 0.7
    profile = make_profile(np.full((m // n_t, k), b),
                           np.full((m // n_t, k), a), n_t=n_t)
    zf, share = zfp_equivalent(profile)
    assert np.allclose(zf.chi, (b - a) / (a * (m - k)), rtol=1e-12, atol=0)
    assert np.allclose(zf.site_load, k / (a * m * (m - k)), rtol=1e-12,
                       atol=0)
    assert zf.eta == pytest.approx(a * m * (m - k) / k, rel=1e-12)
    assert share == pytest.approx(1.0 / (m - k), rel=1e-12)


def entry_stderr_row_sums(profile, rng, n, per=250):
    """sum_i of the standard errors of chi[k, i] over ``n`` estimate draws.

    A bound on the row sum's standard error, as the entries' errors are
    correlated; drawn from ``rng`` in the order a moment pass draws.
    """
    q, k = profile.beta.shape
    n_t = profile.antennas_per_site
    err_t = (profile.beta - profile.alpha).T
    total, squares = np.zeros((k, k)), np.zeros((k, k))
    for start in range(0, n, per):
        g = sample_estimates(profile, rng, min(per, n - start))
        w = g.conj() @ np.linalg.inv(g.transpose(0, 2, 1) @ g.conj())
        chi_d = err_t @ (np.abs(w) ** 2).reshape(len(g), q, n_t, k).sum(2)
        total += chi_d.sum(axis=0)
        squares += (chi_d ** 2).sum(axis=0)
    var = (squares - total ** 2 / n) / (n - 1)
    return np.sqrt(var / n).sum(axis=1)


@pytest.mark.parametrize("n_t", [4, 10, 20])
def test_equivalent_matches_sampled_moments_at_full_scale(n_t):
    cfg, profile = full_scale_profile(n_t)
    zf, share = zfp_equivalent(profile)
    assert share < downlink.EQUIVALENT_SHARE_LIMIT
    n = 20_000
    ref = zfp_moments(profile, cfg, np.random.default_rng(61), n)
    rows, ref_rows = zf.chi.sum(axis=1), ref.chi.sum(axis=1)
    bound = entry_stderr_row_sums(profile, np.random.default_rng(61), n)
    assert (np.abs(rows - ref_rows) <= 4 * bound).all()
    # the equivalent's finite-size bias grows with the share: at n_t = 4
    # its eta is 0.6% (about 4 standard errors of this reference) above
    # the sampled one.  It must stay within one standard error of the
    # default chi_samples pass it stands in for.
    default_rel_se = ref.peak_load_rel_se * np.sqrt(n / cfg.chi_samples)
    assert zf.eta == pytest.approx(ref.eta, rel=default_rel_se)


def test_equivalent_gives_up_without_a_converged_fixed_point(monkeypatch):
    _, profile = random_profile(22, m=40, n_t=4, k=4)
    assert zfp_equivalent(profile) is not None
    # a user no antenna hears has t = inf
    alpha = profile.alpha.copy()
    alpha[:, 1] = 0.0
    assert zfp_equivalent(make_profile(profile.beta, alpha, n_t=4)) is None
    monkeypatch.setattr(downlink, "FIXED_POINT_ITERATIONS", 2)
    assert zfp_equivalent(profile) is None


@pytest.mark.parametrize("n_t", [2, 4])
def test_moments_hold_one_load_per_site_and_eta_from_the_peak(n_t):
    # the drop runner samples this drop's moments at n_t = 2 (share 1.06)
    # and takes the equivalent at n_t = 4 (share 0.20); either record has
    # one load per site, and eta is the reciprocal of the largest
    cfg, profile = random_profile(22, m=40, n_t=n_t, k=4)
    equivalent, share = zfp_equivalent(profile)
    assert (share < downlink.EQUIVALENT_SHARE_LIMIT) == (n_t == 4)
    sampled = zfp_moments(profile, cfg, np.random.default_rng(0), 200)
    for zf in (equivalent, sampled):
        assert zf.site_load.shape == zf.load_stderr.shape == (40 // n_t,)
        assert zf.eta == 1.0 / zf.site_load.max()


# --- the block pass --------------------------------------------------------

def block_draws(m, k):
    return channel.BLOCK_ELEMENTS // (m * k)


def site_loads(w2, n_t):
    """Per-draw load of each site per antenna: (draws, sites)."""
    n, m, _ = w2.shape
    return w2.sum(axis=2).reshape(n, m // n_t, n_t).sum(axis=2) / n_t


def test_zfp_moments_match_per_draw_pseudo_inverse():
    # plain per-draw numpy on an identically seeded generator, over three
    # blocks and a remainder
    cfg, profile = random_profile(13, m=40, n_t=2, k=4)
    n = 3 * block_draws(40, 4) + 57
    zf = zfp_moments(profile, cfg, np.random.default_rng(4), n)

    beta_mk = np.repeat(profile.beta, 2, axis=0)
    alpha_mk = expand_site_to_antennas(profile)
    g = sample_estimates(profile, np.random.default_rng(4), n)
    chi_d = np.empty((n, 4, 4))
    w2 = np.empty((n, 40, 4))
    for d in range(n):
        w2[d] = np.abs(np.linalg.pinv(g[d].T)) ** 2     # (antennas, users)
        chi_d[d] = (beta_mk - alpha_mk).T @ w2[d]
    load_d = site_loads(w2, 2)
    load = load_d.mean(axis=0)
    rows_d = chi_d.sum(axis=2)
    assert zf.n_samples == n
    assert np.allclose(zf.chi, chi_d.mean(axis=0), rtol=1e-12, atol=0)
    assert np.allclose(zf.chi_stderr, rows_d.std(axis=0, ddof=1) / np.sqrt(n),
                       rtol=1e-12, atol=0)
    assert np.allclose(zf.site_load, load, rtol=1e-12, atol=0)
    assert np.allclose(zf.load_stderr, load_d.std(axis=0, ddof=1) / np.sqrt(n),
                       rtol=1e-12, atol=0)
    assert zf.eta == pytest.approx(1.0 / load.max(), rel=1e-12)
    assert zf.n_resampled == 0


def one_batch_moments(profile, g):
    """The pass's arithmetic on all draws ``g`` at once."""
    n, rows, k = g.shape
    q, n_t = profile.num_sites, profile.antennas_per_site
    gram = g.transpose(0, 2, 1) @ g.conj()
    w = g.conj() @ np.linalg.solve(gram, np.eye(k))
    w2 = w.real ** 2 + w.imag ** 2
    site = w2.reshape(n, q, rows // q, k).sum(axis=2)
    chi_d = (profile.beta - profile.alpha).T @ site
    rows_d = chi_d.sum(axis=2)
    load_d = site.sum(axis=2) / n_t
    return (chi_d.mean(axis=0), rows_d.std(axis=0, ddof=1) / np.sqrt(n),
            load_d.mean(axis=0), load_d.std(axis=0, ddof=1) / np.sqrt(n))


def assert_pass_matches(zf, want):
    got = (zf.chi, zf.chi_stderr, zf.site_load, zf.load_stderr)
    for name, a, b in zip(("chi", "chi stderr", "load", "load stderr"),
                          got, want):
        assert np.allclose(a, b, rtol=1e-12, atol=0), name


@pytest.mark.parametrize("elements", [None, 1, 3 * 48 * 4, 10 ** 6])
def test_pass_equals_one_batch_at_any_block_size(monkeypatch, elements):
    # n_t >= users draws antennas too: blocks of one draw, of three draws,
    # the default and one block all match one batch to rounding, and the
    # pass leaves the generator where the batch does
    cfg, profile = random_profile(17, m=48, n_t=6, k=4)
    if elements is not None:
        monkeypatch.setattr(channel, "BLOCK_ELEMENTS", elements)
    n = 301
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    zf = zfp_moments(profile, cfg, rng, n)
    g = sample_estimates(profile, ref, n)
    assert g.shape == (n, 48, 4)
    assert_pass_matches(zf, one_batch_moments(profile, g))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_pass_below_the_user_count_draws_the_antenna_stream():
    # n_t < users keeps the antenna-level draw: the pass consumes exactly
    # one complex_normal batch over the expanded estimate variances
    cfg, profile = random_profile(18, m=40, n_t=2, k=4)
    n = 2 * block_draws(40, 4) + 5
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    zfp_moments(profile, cfg, rng, n)
    alpha_mk = expand_site_to_antennas(profile)
    complex_normal(ref, alpha_mk, (n, 40, 4))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n_t", [1, 2, 4, 6])
def test_site_loads_are_antenna_loads_summed_per_site(monkeypatch, n_t):
    # one draw: the pass's site loads and chi equal the per-antenna |W|^2
    # summed over each site, below the user count and from it on
    cfg, profile = random_profile(19, m=24, n_t=n_t, k=4)
    g = complex_normal(np.random.default_rng(2),
                       expand_site_to_antennas(profile), (1, 24, 4))
    monkeypatch.setattr(downlink, "sample_estimates",
                        lambda profile, rng, n, out=None: g.copy())
    zf = zfp_moments(profile, cfg, np.random.default_rng(0), 1)

    w = np.linalg.pinv(g[0].T)                          # (antennas, users)
    w2 = np.abs(w) ** 2
    beta_mk = np.repeat(profile.beta, n_t, axis=0)
    alpha_mk = expand_site_to_antennas(profile)
    assert np.allclose(zf.chi, (beta_mk - alpha_mk).T @ w2, rtol=1e-12,
                       atol=0)
    per_site = site_loads(w2[None], n_t)[0]
    assert np.allclose(zf.site_load, per_site, rtol=1e-12, atol=0)
    assert zf.eta == pytest.approx(1 / per_site.max(), rel=1e-12, abs=0)


def inject_singular(monkeypatch, at):
    """Zero the estimate draws numbered ``at`` in the pass's draw sequence."""
    seen = [0]

    def patched(profile, rng, n, out=None):
        g = sample_estimates(profile, rng, n, out)
        for i in range(n):
            if seen[0] + i in at:
                g[i] = 0.0
        seen[0] += n
        return g

    monkeypatch.setattr(downlink, "sample_estimates", patched)
    return seen


def test_singular_draws_on_both_sides_of_a_block_boundary(monkeypatch):
    cfg, profile = random_profile(14, m=40, n_t=2, k=4)
    b = block_draws(40, 4)
    n = 2 * b + 30
    clean = zfp_moments(profile, cfg, np.random.default_rng(5), n)
    # the last draw of block 0 and the first of block 1; block 0's redraw
    # comes right after block 0, so block 1 starts one draw later
    seen = inject_singular(monkeypatch, {b - 1, b + 1})
    zf = zfp_moments(profile, cfg, np.random.default_rng(5), n)
    assert zf.n_resampled == 2
    assert seen[0] == n + 2
    assert np.isfinite(zf.chi).all() and np.isfinite(zf.site_load).all()
    assert not np.array_equal(zf.chi, clean.chi)
    assert zf.eta == pytest.approx(clean.eta, rel=0.05)


def test_singular_draws_beyond_the_budget_raise(monkeypatch):
    cfg, profile = random_profile(15, m=40, n_t=2, k=4)
    n = block_draws(40, 4) + 100          # 1% of it allows 6 redraws
    inject_singular(monkeypatch, set(range(0, 14, 2)))
    with pytest.raises(NumericalError) as err:
        zfp_moments(profile, cfg, np.random.default_rng(6), n)
    assert "7 of" in str(err.value)


# --- the precision target --------------------------------------------------

def small_blocks(monkeypatch, m=40, k=4, draws=20):
    """Blocks of ``draws`` draws, so a target can stop the pass finely."""
    monkeypatch.setattr(channel, "BLOCK_ELEMENTS", draws * m * k)
    return draws


def stop_errors(zf):
    return max(zf.peak_load_rel_se, zf.chi_rel_se)


def test_zero_target_draws_the_whole_cap(monkeypatch):
    small_blocks(monkeypatch)
    cfg, profile = random_profile(20)
    assert cfg.chi_rel_se == 0.0
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    zf = zfp_moments(profile, cfg, rng, 300)
    sample_estimates(profile, ref, 300)
    assert zf.n_samples == 300
    assert rng.bit_generator.state == ref.bit_generator.state
    # a target this loose is met after two blocks, but stops the pass only
    # at the first block past MIN_MOMENT_DRAWS
    two = zfp_moments(profile, cfg, np.random.default_rng(1), 40)
    assert stop_errors(two) <= 10.0
    loose = dataclasses.replace(cfg, chi_rel_se=10.0)
    assert zfp_moments(profile, loose, np.random.default_rng(1),
                       300).n_samples == 60


def test_target_stops_at_the_first_block_that_meets_it(monkeypatch):
    per = small_blocks(monkeypatch)
    cfg, profile = random_profile(20)
    # a fixed pass of n draws is the target pass's state after n draws
    bounds = range(per, 300 + 1, per)
    fixed = {n: zfp_moments(profile, cfg, np.random.default_rng(2), n)
             for n in bounds}
    target = stop_errors(fixed[200])
    first = min(n for n in bounds
                if n >= downlink.MIN_MOMENT_DRAWS
                and stop_errors(fixed[n]) <= target)
    assert first <= 200
    zf = zfp_moments(profile, dataclasses.replace(cfg, chi_rel_se=target),
                     np.random.default_rng(2), 300)
    assert zf.n_samples == first
    for name in ("chi", "chi_stderr", "site_load", "load_stderr"):
        assert np.array_equal(getattr(zf, name), getattr(fixed[first], name))
    # a target it never meets runs to the cap, the last block short
    tight = dataclasses.replace(cfg, chi_rel_se=1e-9)
    assert zfp_moments(profile, tight, np.random.default_rng(2),
                       290).n_samples == 290


def test_target_pass_advances_the_generator_by_draws_used_and_redrawn(
        monkeypatch):
    small_blocks(monkeypatch)
    cfg, profile = random_profile(20)
    cfg = dataclasses.replace(cfg, chi_rel_se=10.0)
    seen = inject_singular(monkeypatch, {25})
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    zf = zfp_moments(profile, cfg, rng, 1000)
    assert (zf.n_samples, zf.n_resampled) == (60, 1)
    assert seen[0] == 61
    sample_estimates(profile, ref, 61)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_redraw_budget_counts_the_draws_used(monkeypatch):
    # two redraws fit 1% of a 300-draw cap, but not of the 60 draws a loose
    # target stops at
    small_blocks(monkeypatch)
    cfg, profile = random_profile(20)
    inject_singular(monkeypatch, {3, 25})
    assert zfp_moments(profile, cfg, np.random.default_rng(4),
                       300).n_resampled == 2
    inject_singular(monkeypatch, {3, 25})
    loose = dataclasses.replace(cfg, chi_rel_se=10.0)
    with pytest.raises(NumericalError) as err:
        zfp_moments(profile, loose, np.random.default_rng(4), 300)
    assert "2 of 60 used" in str(err.value)


def test_chi_rel_se_is_the_worst_row_sum_error():
    chi = np.array([[1.0, 3.0], [0.0, 0.0]])
    zf = downlink.ZfpMoments(chi=chi, chi_stderr=np.array([0.2, 0.0]),
                             site_load=np.ones(1), load_stderr=np.zeros(1),
                             n_samples=2, n_resampled=0)
    # row 0 sums to 4; the zero row has no error to weigh
    assert zf.chi_rel_se == 0.05
