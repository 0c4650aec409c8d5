import numpy as np
import pytest

from cfmimo import channel
from cfmimo.channel import (RCOND_FLOOR, GramBatch, GramPass, NumericalError,
                            block_sizes, complex_normal,
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
    assert np.array_equal(expand_site_to_antennas(profile), profile.alpha)


def test_expand_replicates_site_rows_in_order():
    profile = make_profile([[1.0], [2.0]], [[0.5], [1.0]], n_t=3)
    alpha = expand_site_to_antennas(profile)
    assert alpha.shape == (6, 1)
    # antennas of site 0 first, then site 1
    assert np.array_equal(alpha[:, 0], [0.5, 0.5, 0.5, 1.0, 1.0, 1.0])
    # column sums scale by the antenna count
    assert alpha.sum(axis=0) == pytest.approx(3 * profile.alpha.sum(axis=0))


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


def test_joint_draws_into_buffers_are_the_same_bits():
    profile = make_profile(np.full((2, 2), 1.0), np.full((2, 2), 0.25), n_t=3)
    out = tuple(np.full((4, 6, 2), np.nan, dtype=complex) for _ in range(2))
    drawn = sample_channel_batch(profile, np.random.default_rng(8), 4, out)
    assert all(part is buf for part, buf in zip(drawn, out))
    fresh = sample_channel_batch(profile, np.random.default_rng(8), 4)
    for part, ref in zip(drawn, fresh):
        assert np.array_equal(part, ref)


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
    alpha_mk = expand_site_to_antennas(profile)
    beta_mk = np.repeat(beta, 2, axis=0)
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
    # the rows are the antennas, below the user count and from it on:
    # CN(0, alpha) entries
    for beta, alpha, n_t in (([[1.0, 4.0, 2.0]], [[0.5, 3.0, 1.0]], 2),
                             ([[1.0, 4.0]] * 2, [[0.5, 3.0], [0.25, 1.0]], 5)):
        profile = make_profile(beta, alpha, n_t=n_t)
        a = sample_estimates(profile, np.random.default_rng(5), 50_000)
        alpha_mk = expand_site_to_antennas(profile)
        assert a.shape == (50_000,) + alpha_mk.shape
        assert np.allclose((np.abs(a) ** 2).mean(axis=0), alpha_mk,
                           rtol=0.03)
        b = sample_estimates(profile, np.random.default_rng(5), 50_000)
        assert np.array_equal(a, b)


def test_antenna_rows_are_the_antenna_level_stream():
    # one complex_normal block over the expanded alpha, so the draws and
    # the generator state match the antenna-level batch exactly
    profile = make_profile([[1.0, 2.0, 3.0]] * 4, [[0.5, 1.0, 2.5]] * 4,
                           n_t=2)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    alpha_mk = expand_site_to_antennas(profile)
    assert np.array_equal(sample_estimates(profile, rng, 9),
                          complex_normal(ref, alpha_mk, (9, 8, 3)))
    # into a caller's buffer: the same bits
    out = np.full((9, 8, 3), np.nan, dtype=complex)
    assert sample_estimates(profile, rng, 9, out=out) is out
    assert np.array_equal(out, complex_normal(ref, alpha_mk, (9, 8, 3)))
    assert rng.bit_generator.state == ref.bit_generator.state


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


def test_block_sizes_split_with_remainder_last(monkeypatch):
    monkeypatch.setattr(channel, "BLOCK_ELEMENTS", 8)
    assert block_sizes(10, 2) == [4, 4, 2]
    assert block_sizes(8, 2) == [4, 4]
    assert block_sizes(3, 2) == [3]
    assert block_sizes(3, 9) == [1, 1, 1]     # at least one draw per block


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


def test_invert_grams_raises_when_the_solve_fails_on_regular_matrices(
        monkeypatch):
    # the SVD rule flags nothing, so no redraw could mend the block and a
    # pass must not go on without an inverse
    rng = np.random.default_rng(4)

    def failing_solve(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(channel.np.linalg, "solve", failing_solve)
    with pytest.raises(NumericalError, match="solve failed on regular"):
        invert_grams(regular_grams(rng, 3))
    g = complex_normal(rng, 1.0, (3, 12, 4))
    with pytest.raises(NumericalError, match="solve failed on regular"):
        GramPass(3, lambda b: (complex_normal(rng, 1.0, (b, 12, 4)),)
                 ).invert((g,))


def test_gram_pass_keeps_the_stream_without_redraws():
    profile = make_profile([[1.0, 2.0, 0.5]] * 4, [[0.5, 1.0, 0.25]] * 4,
                           n_t=2)
    rng = np.random.default_rng(8)
    grams = GramPass(17, lambda b: (sample_estimates(profile, rng, b),))
    blocks, batches = [], []
    for b in (7, 7, 3):
        g = sample_estimates(profile, rng, b)
        batch = grams.invert((g,))
        blocks.append(g)
        # the next block overwrites a block's conj and Gram buffers
        batches.append(batch._replace(g_conj=batch.g_conj.copy(),
                                      gram=batch.gram.copy()))
    whole = sample_estimates(profile, np.random.default_rng(8), 17)
    assert np.array_equal(np.concatenate(blocks), whole)
    assert np.array_equal(np.concatenate([b.g_conj for b in batches]),
                          np.conj(whole))
    gram = np.concatenate([b.gram for b in batches])
    assert np.array_equal(gram, whole.transpose(0, 2, 1) @ whole.conj())
    assert np.array_equal(np.concatenate([b.inv for b in batches]),
                          np.linalg.solve(gram, np.eye(3)))
    assert grams.redrawn == 0
    assert GramBatch._fields == ("g_conj", "gram", "inv")


def test_gram_pass_redraws_every_part_in_place_and_keeps_one_budget():
    rng = np.random.default_rng(3)
    log = []

    def redraw(b):
        log.append(("redraw", b))
        return complex_normal(rng, 1.0, (b, 6, 2)), np.full(b, -1)

    grams = GramPass(100, redraw)
    blocks = []
    for start in (0, 4):
        g = complex_normal(rng, 1.0, (4, 6, 2))
        if start == 0:
            g[1] = 0.0                 # one singular draw in the first block
        labels = np.arange(start, start + 4)
        log.append(("block", 4))
        batch = grams.invert((g, labels))
        # conj and Gram match the block as redrawn, before the next reuses them
        assert np.array_equal(batch.g_conj, np.conj(g))
        assert np.array_equal(batch.gram, g.transpose(0, 2, 1) @ g.conj())
        assert np.allclose(batch.gram @ batch.inv, np.eye(2), atol=1e-9)
        blocks.append((g, labels))
    assert log == [("block", 4), ("redraw", 1), ("block", 4)]
    assert grams.redrawn == 1
    assert blocks[0][1].tolist() == [0, -1, 2, 3]   # every part, in place
    assert blocks[1][1].tolist() == [4, 5, 6, 7]
    # in the stream, the redraw comes right after its block
    direct = np.random.default_rng(3)
    first = complex_normal(direct, 1.0, (4, 6, 2))
    first[1] = complex_normal(direct, 1.0, (1, 6, 2))[0]
    assert np.array_equal(blocks[0][0], first)
    assert np.array_equal(blocks[1][0], complex_normal(direct, 1.0, (4, 6, 2)))

    def block(singular):
        g = complex_normal(rng, 1.0, (50, 6, 2))
        g[singular] = 0.0
        return (g,)

    # 100 requested draws allow one redraw over all calls: the second
    # block's singular draw is over budget
    grams = GramPass(100, lambda b: (complex_normal(rng, 1.0, (b, 6, 2)),))
    grams.invert(block(3))
    with pytest.raises(NumericalError) as err:
        grams.invert(block(7))
    assert "more than 1%" in str(err.value)
    assert "2 of 100 requested" in str(err.value)


def test_gram_pass_inverse_after_a_redraw_is_the_plain_solve():
    # a draw with two nearly equal columns: LU solves its Gram matrix, but
    # the SVD rule flags it, so the block keeps an inverse through the redraw
    rng = np.random.default_rng(5)
    g = complex_normal(rng, 1.0, (5, 12, 4))
    g[2, :, 3] = g[2, :, 2] + 1e-10 * complex_normal(rng, 1.0, (12,))
    inv, bad = invert_grams(g.transpose(0, 2, 1) @ g.conj())
    assert inv is not None
    assert bad.tolist() == [False, False, True, False, False]
    redraws = []

    def redraw(b):
        redraws.append(b)
        return (complex_normal(rng, 1.0, (b, 12, 4)),)

    grams = GramPass(100, redraw)
    batch = grams.invert((g,))
    assert redraws == [1] and grams.redrawn == 1
    assert not invert_grams(batch.gram)[1].any()
    for i in range(5):
        assert np.array_equal(batch.inv[i],
                              np.linalg.solve(batch.gram[i], np.eye(4)))
