import numpy as np
import pytest

from cfmimo.channel import (RCOND_FLOOR, NumericalError, bartlett_diagonal,
                            batch_sizes, complex_normal, conditioned_grams,
                            expand_site_to_antennas, invert_grams,
                            sample_channel_batch, sample_estimates)
from cfmimo.propagation import FadingProfile
from cfmimo.scenario import ConfigError


def make_profile(beta, alpha, n_t=1):
    return FadingProfile(beta=np.asarray(beta, dtype=float),
                         alpha=np.asarray(alpha, dtype=float),
                         antennas_per_site=n_t)


def test_expand_identity_for_single_antenna_sites():
    profile = make_profile([[1.0, 2.0], [3.0, 4.0]],
                           [[0.5, 1.0], [1.5, 2.0]], n_t=1)
    beta, alpha = expand_site_to_antennas(profile)
    assert np.array_equal(beta, profile.beta)
    assert np.array_equal(alpha, profile.alpha)


def test_expand_replicates_site_rows_in_order():
    profile = make_profile([[1.0], [2.0]], [[0.5], [1.0]], n_t=3)
    beta, alpha = expand_site_to_antennas(profile)
    assert beta.shape == (6, 1)
    # antennas of site 0 first, then site 1
    assert np.array_equal(beta[:, 0], [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    assert np.array_equal(alpha[:, 0], [0.5, 0.5, 0.5, 1.0, 1.0, 1.0])
    # column sums scale by the antenna count
    assert beta.sum(axis=0) == pytest.approx(3 * profile.beta.sum(axis=0))


def test_sample_decomposition_is_exact():
    profile = make_profile(np.full((4, 3), 2.0), np.full((4, 3), 1.5), n_t=2)
    g_hat, g_err = sample_channel_batch(profile, np.random.default_rng(0), 5)
    assert g_hat.shape == g_err.shape == (5, 8, 3)
    # the estimate is drawn first, one block each, from CN(0, alpha) and
    # CN(0, beta - alpha): the true channel g_hat + g_err has variance beta
    rng = np.random.default_rng(0)
    assert np.array_equal(g_hat, complex_normal(rng, 1.5, (5, 8, 3)))
    assert np.array_equal(g_err, complex_normal(rng, 0.5, (5, 8, 3)))


def test_sample_reproducible():
    profile = make_profile(np.full((2, 2), 1.0), np.full((2, 2), 0.25), n_t=3)
    a = sample_channel_batch(profile, np.random.default_rng(42), 3)
    b = sample_channel_batch(profile, np.random.default_rng(42), 3)
    for part_a, part_b in zip(a, b):
        assert np.array_equal(part_a, part_b)


def test_perfect_estimates_leave_no_error():
    beta = np.array([[1.0, 2.0]] * 4)
    profile = make_profile(beta, beta, n_t=1)
    g_hat, g_err = sample_channel_batch(profile, np.random.default_rng(1), 3)
    assert np.abs(g_err).max() == 0.0
    assert np.array_equal(g_hat + g_err, g_hat)


def test_moments_match_profile():
    n = 100_000
    beta = np.array([[3.0, 0.8], [1.5, 2.0]])
    alpha = np.array([[2.0, 0.5], [1.0, 1.2]])
    profile = make_profile(beta, alpha, n_t=2)
    g_hat, g_err = sample_channel_batch(profile, np.random.default_rng(9), n)
    g_true = g_hat + g_err
    beta_mk, alpha_mk = expand_site_to_antennas(profile)
    assert np.allclose((np.abs(g_hat) ** 2).mean(axis=0), alpha_mk, rtol=0.02)
    assert np.allclose((np.abs(g_true) ** 2).mean(axis=0), beta_mk, rtol=0.02)
    assert np.allclose((np.abs(g_err) ** 2).mean(axis=0),
                       beta_mk - alpha_mk, rtol=0.02)
    # real and imaginary parts split the variance evenly
    assert np.allclose((g_hat.real ** 2).mean(axis=0), alpha_mk / 2,
                       rtol=0.03)


def test_estimate_and_error_uncorrelated():
    n = 100_000
    profile = make_profile([[2.0]], [[0.7]], n_t=1)
    g_hat, g_err = sample_channel_batch(profile, np.random.default_rng(3), n)
    cross = (g_hat[:, 0, 0] * g_err[:, 0, 0].conj()).mean()
    norm = np.sqrt((np.abs(g_hat) ** 2).mean() * (np.abs(g_err) ** 2).mean())
    assert abs(cross) / norm < 0.01


def test_sample_estimates_statistics_and_determinism():
    # below the user count the rows are the antennas: CN(0, alpha) entries
    profile = make_profile([[1.0, 4.0, 2.0]], [[0.5, 3.0, 1.0]], n_t=2)
    a = sample_estimates(profile, np.random.default_rng(5), 50_000)
    assert a.shape == (50_000, 2, 3)
    _, alpha_mk = expand_site_to_antennas(profile)
    assert np.allclose((np.abs(a) ** 2).mean(axis=0), alpha_mk, rtol=0.03)
    b = sample_estimates(profile, np.random.default_rng(5), 50_000)
    assert np.array_equal(a, b)
    # from the user count on, each site gives users rows of an upper
    # triangular Bartlett factor F_q whose Gram has mean n_t D_q
    profile = make_profile([[1.0, 4.0]] * 2, [[0.5, 3.0], [0.25, 1.0]],
                           n_t=5)
    a = sample_estimates(profile, np.random.default_rng(5), 50_000)
    assert a.shape == (50_000, 4, 2)
    assert (a[:, 1::2, 0] == 0).all()
    for q in range(2):
        f = a[:, 2 * q:2 * q + 2]
        gram = (f.transpose(0, 2, 1) @ f.conj()).mean(axis=0)
        assert np.allclose(gram, 5 * np.diag(profile.alpha[q]), rtol=0.03,
                           atol=0.03 * profile.alpha[q].max())
    b = sample_estimates(profile, np.random.default_rng(5), 50_000)
    assert np.array_equal(a, b)


def test_antenna_rows_are_the_antenna_level_stream():
    # n_t < users: one complex_normal block over the expanded alpha, so the
    # draws and the generator state match the antenna-level batch exactly
    profile = make_profile([[1.0, 2.0, 3.0]] * 4, [[0.5, 1.0, 2.5]] * 4,
                           n_t=2)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    _, alpha_mk = expand_site_to_antennas(profile)
    assert np.array_equal(sample_estimates(profile, rng, 9),
                          complex_normal(ref, alpha_mk, (9, 8, 3)))
    # into a caller's buffer: the same bits
    out = np.full((9, 8, 3), np.nan, dtype=complex)
    assert sample_estimates(profile, rng, 9, out=out) is out
    assert np.array_equal(out, complex_normal(ref, alpha_mk, (9, 8, 3)))
    assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ValueError):
        sample_estimates(profile, rng, 2, np.ones((2, 4, 3)))
    with pytest.raises(ValueError):
        bartlett_diagonal(profile, rng, 2)


def test_bartlett_rows_share_one_up_front_diagonal_across_blocks():
    profile = make_profile([[1.0, 2.0, 3.0]] * 4, [[0.5, 1.0, 2.5]] * 4,
                           n_t=3)
    rng, ref = np.random.default_rng(6), np.random.default_rng(6)
    whole = sample_estimates(profile, ref, 17)
    diagonal = bartlett_diagonal(profile, rng, 17)
    buf = np.full((7, 12, 3), np.nan, dtype=complex)    # reused, dirty
    blocks = [sample_estimates(profile, rng, b, diagonal[s:s + b],
                               buf[:b]).copy()
              for s, b in ((0, 7), (7, 7), (14, 3))]
    assert np.array_equal(np.concatenate(blocks), whole)
    assert rng.bit_generator.state == ref.bit_generator.state
    # the factor of site q, draw d: F = L^T D^(1/2), L_jj^2 ~ Gamma(n_t - j)
    rng = np.random.default_rng(6)
    diag = np.sqrt(rng.standard_gamma([3.0, 2.0, 1.0], size=(17, 4, 3)))
    f = whole.reshape(17, 4, 3, 3)
    assert np.array_equal(np.diagonal(f, axis1=2, axis2=3),
                          diag * np.sqrt(profile.alpha))
    assert (np.tril(f, -1) == 0).all()


def test_bartlett_gram_has_the_wishart_moments():
    # S = F^T conj(F) ~ D^(1/2) W_K(n_t, I) D^(1/2): E S = n_t D,
    # Var S_jj = n_t a_j^2 and E|S_ij|^2 = n_t a_i a_j off the diagonal
    alpha = np.array([[0.5, 2.0, 1.0]])
    profile = make_profile(2 * alpha, alpha, n_t=4)
    n = 40_000
    f = sample_estimates(profile, np.random.default_rng(12), n)
    s = f.transpose(0, 2, 1) @ f.conj()
    a = alpha[0]
    want = {"mean": 4 * np.diag(a), "second": 4 * np.outer(a, a)
            + np.diag(16 * a ** 2)}   # E|S_ij|^2, with (E S_jj)^2 added
    for name, sample in (("mean", s), ("second", np.abs(s) ** 2)):
        se = sample.std(axis=0) / np.sqrt(n)
        z = (sample.mean(axis=0) - want[name]) / np.where(se > 0, se, 1)
        assert np.abs(z).max() <= 4, name


def test_complex_normal_basics():
    rng = np.random.default_rng(2)
    z = complex_normal(rng, 4.0, (200_000,))
    assert z.dtype == np.complex128
    assert (np.abs(z) ** 2).mean() == pytest.approx(4.0, rel=0.02)
    assert abs(z.mean()) < 0.02
    zero = complex_normal(rng, 0.0, (100,))
    assert np.abs(zero).max() == 0.0
    with pytest.raises(ValueError):
        complex_normal(rng, -1.0, (10,))


def test_invalid_variance_ordering_rejected():
    # alpha above beta cannot even be constructed as a profile
    with pytest.raises(ConfigError):
        make_profile([[1.0]], [[1.5]])


# --- well-conditioned Gram batches -----------------------------------------

def svd_rule(gram):
    """The singularity rule on one matrix, straight from its definition."""
    if not np.isfinite(gram).all():
        return True
    sv = np.linalg.svd(gram, compute_uv=False)
    return bool(sv[-1] <= sv[0] * RCOND_FLOOR)


def gram_with_condition(rng, cond, k=4):
    # U diag(1, ..., 1, 1/cond) U^H with a random unitary U
    q, _ = np.linalg.qr(complex_normal(rng, 1.0, (k, k)))
    s = np.ones(k)
    s[-1] = 1.0 / cond
    return (q * s) @ q.conj().T


def regular_grams(rng, n, k=4):
    g = complex_normal(rng, 1.0, (n, 12, k))
    return g.transpose(0, 2, 1) @ g.conj()


def test_batch_sizes_split_with_remainder_last():
    assert batch_sizes(10, 4) == [4, 4, 2]
    assert batch_sizes(8, 4) == [4, 4]
    assert batch_sizes(3, 4) == [3]


def test_screen_flags_exactly_what_the_svd_rule_flags():
    rng = np.random.default_rng(21)
    dup = complex_normal(rng, 1.0, (12, 4))
    dup[:, 1] = dup[:, 0]                  # two identical rows and columns
    special = {f"cond {c:.0e}": gram_with_condition(rng, c)
               for c in (1e11, 1e13, 1e15)}
    special["exactly singular"] = np.diag([2.0, 1.0, 1.0, 0.0]) + 0j
    special["dependent columns"] = dup.T @ dup.conj()
    special["nan"] = np.where(np.eye(4) > 0, np.nan, 0.5) + 0j
    assert not svd_rule(special["cond 1e+11"])
    assert svd_rule(special["cond 1e+15"])
    assert svd_rule(special["exactly singular"]) and svd_rule(special["nan"])
    for name, gram in special.items():
        batch = regular_grams(rng, 5)
        batch[2] = gram
        inv, bad = invert_grams(batch)
        assert bad.tolist() == [svd_rule(a) for a in batch], name
        if inv is not None:                # the regular draws are inverted
            rest = [0, 1, 3, 4]
            assert np.allclose(batch[rest] @ inv[rest], np.eye(4), atol=1e-9)
    # all of them in one batch: the solve fails and the SVD rule decides
    batch = np.concatenate([regular_grams(rng, 3),
                            np.stack(list(special.values()))])
    inv, bad = invert_grams(batch)
    assert inv is None
    assert bad.tolist() == [svd_rule(a) for a in batch]


def test_conditioned_grams_keep_the_stream_without_redraws():
    profile = make_profile([[1.0, 2.0, 0.5]] * 4, [[0.5, 1.0, 0.25]] * 4,
                           n_t=2)
    rng = np.random.default_rng(8)
    # the next batch overwrites a batch's conj and Gram buffers: keep copies
    batches = [b._replace(g_conj=b.g_conj.copy(), gram=b.gram.copy())
               for b in conditioned_grams(
                   lambda b: (sample_estimates(profile, rng, b),), [7, 7, 3])]
    whole = sample_estimates(profile, np.random.default_rng(8), 17)
    g = np.concatenate([b.parts[0] for b in batches])
    assert np.array_equal(g, whole)
    assert np.array_equal(np.concatenate([b.g_conj for b in batches]),
                          np.conj(whole))
    gram = np.concatenate([b.gram for b in batches])
    assert np.array_equal(gram, whole.transpose(0, 2, 1) @ whole.conj())
    assert np.array_equal(np.concatenate([b.inv for b in batches]),
                          np.linalg.solve(gram, np.eye(3)))
    assert [b.redrawn for b in batches] == [0, 0, 0]


def test_conditioned_grams_redraw_every_part_and_respect_the_budget():
    rng = np.random.default_rng(3)
    calls = []

    def draw(b):
        g = complex_normal(rng, 1.0, (b, 6, 2))
        if not calls:
            g[1] = 0.0                     # one singular draw in the first batch
        calls.append(b)
        return g, np.arange(b) + 100 * len(calls)

    batches = [b._replace(g_conj=b.g_conj.copy(), gram=b.gram.copy())
               for b in conditioned_grams(draw, [4, 4] + [4] * 23)]
    assert calls[:2] == [4, 1]             # the redraw follows its batch
    assert batches[0].redrawn == batches[-1].redrawn == 1
    assert batches[0].parts[1].tolist() == [100, 200, 102, 103]
    assert np.abs(batches[0].parts[0][1]).min() > 0
    for b in batches:                      # the redrawn draw's conj included
        assert np.array_equal(b.g_conj, np.conj(b.parts[0]))
        assert np.array_equal(b.gram, b.parts[0].transpose(0, 2, 1)
                              @ b.parts[0].conj())

    def singular(b):
        return (np.zeros((b, 6, 2), dtype=complex),)

    # 100 requested draws allow one redraw; the second is over budget
    with pytest.raises(NumericalError) as err:
        list(conditioned_grams(singular, [50, 50]))
    assert "more than 1%" in str(err.value)
