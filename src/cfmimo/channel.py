"""Small-scale channel sampling.

Antenna-level channels are circularly-symmetric complex Gaussians whose
variances come from the large-scale profile: antennas on the same site
share one gain row.  A joint draw returns the channel estimate g_hat ~
CN(0, alpha) and the independent estimation error g_err ~ CN(0, beta -
alpha); the true channel is the law they satisfy,

    g_true = g_hat + g_err,

which a caller forms only where it needs it.  That joint construction is
what the closed forms downstream assume, and the link-level oracle draws it
whole.  The zero-forcing moment pass reads the estimates only through each
site's Gram matrix, so :func:`sample_estimates` draws rows with that Gram's
law: the antennas themselves, or each site's Bartlett factor when a site
has at least as many antennas as there are users.

Zero-forcing needs the inverse of each estimate's Gram matrix, so the
well-conditioned Gram batches it draws (the singularity rule, its cheap
screen and the redraw budget) live here too, shared by the moment pass and
the link-level oracle.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .propagation import FadingProfile


def expand_site_to_antennas(profile: FadingProfile) -> tuple[np.ndarray, np.ndarray]:
    """Antenna-level (beta, alpha), each (sites * antennas_per_site, users).

    Row ``(q * n_t + j)`` repeats site row ``q``: co-located antennas share
    their site's large-scale state.
    """
    n_t = profile.antennas_per_site
    beta = np.repeat(profile.beta, n_t, axis=0)
    alpha = np.repeat(profile.alpha, n_t, axis=0)
    return beta, alpha


def _error_variance(profile: FadingProfile) -> np.ndarray:
    beta, alpha = expand_site_to_antennas(profile)
    err = beta - alpha
    if (err < -1e-12 * beta - 1e-300).any():
        raise ValueError("estimate variance exceeds channel gain")
    return np.maximum(err, 0.0)


def complex_normal(rng: np.random.Generator, variance, size,
                   out: np.ndarray | None = None) -> np.ndarray:
    """CN(0, variance) draws of the given shape.

    ``variance`` broadcasts against ``size``; real and imaginary parts each
    carry half of it.  ``out``, a C-contiguous complex array of shape
    ``size``, receives the draws in place of a new array, the same bits.
    """
    v = np.asarray(variance, dtype=float)
    if (v < 0).any():
        raise ValueError("variance must be >= 0")
    if out is None:
        z = rng.standard_normal(size=tuple(size) + (2,))
        z = z.view(np.complex128)[..., 0]
    else:
        rng.standard_normal(out=out.view(float).reshape(tuple(size) + (2,)))
        z = out
    z *= np.sqrt(v / 2.0)                  # in place: no second array
    return z


def bartlett_diagonal(profile: FadingProfile, rng: np.random.Generator,
                      n: int) -> np.ndarray:
    """Diagonals of ``n`` draws of every site's Bartlett factor, (n, sites, users).

    Entry j is sqrt(Gamma(n_t - j, 1)), the j-th diagonal entry of the
    lower-triangular factor L of a complex Wishart W_K(n_t, I) = L L^H.
    Needs n_t >= users.
    """
    n_t, k = profile.antennas_per_site, profile.num_users
    if n_t < k:
        raise ValueError(f"a Bartlett factor needs n_t >= users, got "
                         f"n_t={n_t} for {k} users")
    shape = n_t - np.arange(k, dtype=float)
    return np.sqrt(rng.standard_gamma(shape, size=(n, profile.num_sites, k)))


def sample_estimates(profile: FadingProfile, rng: np.random.Generator,
                     n: int, diagonal: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Batch of estimate rows whose site Grams have the estimates' law.

    Returns (n, sites * r, users) with r = min(n_t, users); rows
    ``q * r`` to ``q * r + r - 1`` belong to site q.  Zero-forcing moments
    depend on a draw only through the site Grams S_q = F_q^T conj(F_q) of
    these rows, and each S_q has the law of site q's estimate Gram
    G_q^T conj(G_q), with G_q the n_t x users estimates of its antennas:

    * n_t < users: F_q = G_q, the antenna-level estimates themselves, each
      entry CN(0, alpha_qk), drawn as one ``complex_normal`` block.
    * n_t >= users: F_q = L_q^T D_q^(1/2), the users x users Bartlett
      factor, with D_q = diag(alpha_q.) and L_q lower-triangular: L_jj =
      sqrt(Gamma(n_t - j, 1)) and L_ij ~ CN(0, 1) for i > j.  So the rows
      of F_q are not antennas.  The diagonals of all n draws come first in
      the stream (:func:`bartlett_diagonal`, unless ``diagonal`` passes
      them in), then the strictly triangular entries, draw by draw, so a
      batch split into blocks that share one up-front ``diagonal`` draws
      the same bits.

    ``out``, a C-contiguous complex array of the result's shape, receives
    the rows in place of a new array.
    """
    n_t, k = profile.antennas_per_site, profile.num_users
    if n_t < k:
        if diagonal is not None:
            raise ValueError("antenna-level estimates take no diagonal")
        _, alpha = expand_site_to_antennas(profile)
        return complex_normal(rng, alpha, (n,) + alpha.shape, out)
    if diagonal is None:
        diagonal = bartlett_diagonal(profile, rng, n)
    q = profile.num_sites
    row, col = np.triu_indices(k, 1)
    strict = complex_normal(rng, profile.alpha[:, col], (n, q, row.size))
    if out is None:
        out = np.empty((n, q * k, k), dtype=complex)
    out.fill(0.0)
    f = out.reshape(n, q, k, k)
    start = 0
    for a in range(k - 1):                 # row a: columns a + 1 to k - 1
        f[:, :, a, a + 1:] = strict[:, :, start:start + k - 1 - a]
        start += k - 1 - a
    f.reshape(n, q, k * k)[:, :, ::k + 1] = diagonal * np.sqrt(profile.alpha)
    return out


def sample_channel_batch(profile: FadingProfile, rng: np.random.Generator,
                         n: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch of joint draws: (g_hat, g_err), each (n, antennas, users).

    The estimate is drawn before the error, one block each, so a given
    generator state always yields the same channels.  The true channel is
    their sum, left to the caller.
    """
    _, alpha = expand_site_to_antennas(profile)
    err_var = _error_variance(profile)
    g_hat = complex_normal(rng, alpha, (n,) + alpha.shape)
    g_err = complex_normal(rng, err_var, (n,) + err_var.shape)
    return g_hat, g_err


# channel entries per block of a blocked pass: 64k complex values (1 MB), so
# a block's draws and the products formed from them stay within a 4 MiB L2
BLOCK_ELEMENTS = 1 << 16
# relative reciprocal-condition floor: a Gram matrix whose smallest singular
# value is at most this fraction of its largest counts as singular
RCOND_FLOOR = 1e-13
# fraction of singular draws beyond which an estimate is abandoned
SINGULAR_FRACTION = 0.01


class NumericalError(RuntimeError):
    """Degenerate linear algebra beyond the tolerated rate."""


def batch_sizes(n: int, per: int) -> list[int]:
    """``n`` draws split into batches of ``per``, the remainder last."""
    return [per] * (n // per) + ([n % per] if n % per else [])


def _svd_singular(gram: np.ndarray) -> np.ndarray:
    # the rule itself: non-finite, or sigma_min <= RCOND_FLOOR * sigma_max
    bad = ~np.isfinite(gram).all(axis=(1, 2))
    finite = np.flatnonzero(~bad)
    if finite.size:
        sv = np.linalg.svd(gram[finite], compute_uv=False)
        bad[finite] = ~np.isfinite(sv).all(axis=1) \
            | (sv[:, -1] <= sv[:, 0] * RCOND_FLOOR)
    return bad


def invert_grams(gram: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Inverses of Gram matrices (n, k, k) and the mask of singular ones.

    A matrix is singular when it is not finite or its smallest singular
    value is at most :data:`RCOND_FLOOR` times its largest.  Most draws are
    cleared without an SVD: cond_2(A) <= ||A||_F ||A^-1||_F, so a Frobenius
    product under half of 1 / RCOND_FLOOR (the half absorbs the rounding of
    the computed inverse) proves the matrix regular.  Only the draws that
    screen cannot clear, or the whole batch when the solve itself fails,
    get the SVD, so the mask is the SVD rule's.  The inverse is None when
    the solve failed.
    """
    try:
        inv = np.linalg.solve(gram, np.eye(gram.shape[-1]))
    except np.linalg.LinAlgError:
        return None, _svd_singular(gram)
    product = np.linalg.norm(gram, axis=(1, 2)) \
        * np.linalg.norm(inv, axis=(1, 2))
    unclear = np.flatnonzero(~(product * RCOND_FLOOR < 0.5))
    bad = np.zeros(len(gram), dtype=bool)
    if unclear.size:
        bad[unclear] = _svd_singular(gram[unclear])
    return inv, bad


class GramBatch(NamedTuple):
    """One batch of draws whose estimate Gram matrices are all regular."""

    parts: tuple          # the draw's arrays; parts[0] holds the estimates
    g_conj: np.ndarray | None   # conj(estimates) if formed whole, else None
    gram: np.ndarray      # estimates^T conj(estimates), (b, users, users)
    inv: np.ndarray       # gram^-1
    redrawn: int          # singular draws replaced so far, all batches


def _gram(g: np.ndarray, g_conj: np.ndarray) -> np.ndarray:
    return g.transpose(0, 2, 1) @ g_conj


def _regular_batch(draw, redraw, size: int, block: int | None, redrawn: int,
                   budget: int, n: int, buffers: dict) -> GramBatch:
    parts = draw(size)
    g = parts[0]
    if block is None:
        if len(buffers.get("gram", ())) < size:
            buffers["g_conj"] = np.empty_like(g)
            buffers["gram"] = np.empty((size,) + g.shape[2:] * 2, g.dtype)
        g_conj = np.conjugate(g, out=buffers["g_conj"][:size])
        gram = np.matmul(g.transpose(0, 2, 1), g_conj,
                         out=buffers["gram"][:size])
    else:
        g_conj = None
        gram = np.empty((size,) + g.shape[2:] * 2, dtype=g.dtype)
        for start in range(0, size, block):
            sub = g[start:start + block]
            gram[start:start + block] = _gram(sub, sub.conj())
    inv, bad = invert_grams(gram)
    while bad.any():
        redrawn += int(bad.sum())
        if redrawn > budget:
            raise NumericalError(
                f"more than {SINGULAR_FRACTION:.0%} of estimate draws "
                f"gave singular Gram matrices ({redrawn} of {n} requested)")
        idx = np.flatnonzero(bad)
        fresh = redraw(idx.size)
        for part, new in zip(parts, fresh):
            part[idx] = new
        fresh_conj = fresh[0].conj()
        if g_conj is not None:
            g_conj[idx] = fresh_conj
        gram[idx] = _gram(fresh[0], fresh_conj)
        sub_inv, still = invert_grams(gram[idx])
        if inv is not None and sub_inv is not None:
            inv[idx] = sub_inv
        else:
            inv = None
        bad = np.zeros_like(bad)
        bad[idx[still]] = True
    if inv is None:
        inv = np.linalg.solve(gram, np.eye(gram.shape[-1]))
    return GramBatch(parts, g_conj, gram, inv, redrawn)


def conditioned_grams(draw: Callable[[int], tuple], sizes: Iterable[int],
                      block: int | None = None,
                      redraw: Callable[[int], tuple] | None = None
                      ) -> Iterator[GramBatch]:
    """Draw batches of the given sizes, redrawing singular estimates.

    ``draw(b)`` returns a tuple of arrays with ``b`` draws on axis 0, the
    channel estimates (b, rows, users) first.  A draw whose Gram matrix
    :func:`invert_grams` flags is replaced, in every part, by a fresh draw
    from ``redraw`` (by default ``draw``) before the batch is yielded, so
    without redraws the batches consume exactly the stream of one
    ``draw(sum(sizes))``.
    More than :data:`SINGULAR_FRACTION` of the requested draws redrawn
    raises :class:`NumericalError`.

    With ``block`` set, each batch's Gram matrices are formed ``block``
    draws at a time, so no conjugate copy of a whole batch is held, and
    ``g_conj`` is None; the matrices are the same bits either way, and the
    generator holds no reference to a batch while it draws the next one.
    Without it, ``g_conj`` and ``gram`` live in buffers that the next
    batch overwrites, so no fresh pages are faulted in per batch.
    """
    sizes = list(sizes)
    n = sum(sizes)
    budget = max(1, math.ceil(SINGULAR_FRACTION * n))
    redrawn = 0
    buffers: dict = {}
    for size in sizes:
        batch = _regular_batch(draw, redraw or draw, size, block, redrawn,
                               budget, n, buffers)
        redrawn = batch.redrawn
        yield batch
        del batch
