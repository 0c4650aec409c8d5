"""Small-scale channel sampling.

Antenna-level channels are circularly-symmetric complex Gaussians whose
variances come from the large-scale profile: antennas on the same site
share one gain row.  A joint draw returns the channel estimate g_hat ~
CN(0, alpha) and the independent estimation error g_err ~ CN(0, beta -
alpha); the true channel is the law they satisfy,

    g_true = g_hat + g_err,

which a caller forms only where it needs it.  That joint construction is
what the closed forms downstream assume, and the link-level oracle draws it
whole.  The zero-forcing moment pass, which runs only on drops where the
deterministic equivalent of :mod:`downlink` does not hold, reads the
estimates alone.  :func:`sample_estimates` is the one rule that draws
them, for that pass and for the estimate half of every joint draw.

Zero-forcing needs the inverse of each estimate's Gram matrix, so the
singularity rule, its cheap screen and the redraw budget live here too.
The moment pass and the link-level oracle draw the blocks :func:`block_sizes`
plans and push each to one :class:`GramPass`, which forms the block's
conjugate, Gram matrix and inverse once, redraws singular draws in place
right after their block, and counts the redraws against one budget.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .propagation import FadingProfile


def expand_site_to_antennas(profile: FadingProfile) -> np.ndarray:
    """Antenna-level alpha, (sites * antennas_per_site, users).

    Row ``(q * n_t + j)`` repeats site row ``q``: co-located antennas share
    their site's large-scale state.
    """
    return np.repeat(profile.alpha, profile.antennas_per_site, axis=0)


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


def sample_estimates(profile: FadingProfile, rng: np.random.Generator,
                     n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Batch of antenna-level channel estimates, (n, antennas, users).

    Entry (m, k) is CN(0, alpha_mk), drawn as one ``complex_normal`` block
    over the expanded estimate variances, so a batch split into blocks
    draws the same bits.  ``out``, a C-contiguous complex array of the
    result's shape, receives the draws in place of a new array.
    """
    alpha = expand_site_to_antennas(profile)
    return complex_normal(rng, alpha, (n,) + alpha.shape, out)


def sample_channel_batch(profile: FadingProfile, rng: np.random.Generator,
                         n: int, out: tuple | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Batch of joint draws: (g_hat, g_err), each (n, antennas, users).

    The estimate is drawn first, by :func:`sample_estimates`, then the
    error, one block each, so a given generator state always yields the
    same channels.  The error variance beta - alpha is clipped at zero,
    where rounding leaves alpha a hair above beta.  The true channel is
    their sum, left to the caller.
    ``out``, a pair of C-contiguous complex arrays of the result's shape,
    receives the draws in place of new arrays, the same bits.
    """
    hat_out, err_out = (None, None) if out is None else out
    g_hat = sample_estimates(profile, rng, n, hat_out)
    err_var = np.repeat(np.maximum(profile.beta - profile.alpha, 0.0),
                        profile.antennas_per_site, axis=0)
    g_err = complex_normal(rng, err_var, (n,) + err_var.shape, err_out)
    return g_hat, g_err


# channel entries per block of a blocked pass: 64k complex values (1 MB), so
# a block's draws and the products formed from them stay within a 4 MiB L2.
# The link-level oracle draws each block whole before the next, so this size
# also fixes the oracle's draw order and every bit of its report
BLOCK_ELEMENTS = 1 << 16
# relative reciprocal-condition floor: a Gram matrix whose smallest singular
# value is at most this fraction of its largest counts as singular
RCOND_FLOOR = 1e-13
# fraction of singular draws beyond which an estimate is abandoned
SINGULAR_FRACTION = 0.01


class NumericalError(RuntimeError):
    """Degenerate linear algebra beyond the tolerated rate."""


def block_sizes(n: int, entries: int) -> list[int]:
    """``n`` draws of ``entries`` channel entries each, in blocks of
    ``BLOCK_ELEMENTS // entries`` draws (at least one), the remainder last."""
    per = max(1, BLOCK_ELEMENTS // entries)
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
    """One block of draws whose estimate Gram matrices are all regular."""

    g_conj: np.ndarray    # conj(estimates)
    gram: np.ndarray      # estimates^T conj(estimates), (b, users, users)
    inv: np.ndarray       # gram^-1


class GramPass:
    """Inverse Gram matrices of a pass of ``n`` draws, one block at a time.

    :meth:`invert` takes a block the caller has drawn.  A draw whose Gram
    matrix :func:`invert_grams` flags is replaced in place, in every part
    of the block, by a fresh draw from ``redraw(count)``, right after the
    block, so a pass without redraws consumes only the caller's own draws.
    A block with redraws is solved again whole once they are all regular.
    ``redrawn`` counts the replaced draws over the whole pass; more than
    :data:`SINGULAR_FRACTION` of the ``n`` requested raises
    :class:`NumericalError`.  A pass that stops short of ``n`` holds its
    redraws to the budget of the draws it used with :meth:`settle`.
    """

    def __init__(self, n: int, redraw: Callable[[int], tuple]):
        self.n = n
        self.redraw = redraw
        self.redrawn = 0
        self._conj = self._gram = np.empty((0, 0, 0))

    def settle(self, used: int) -> None:
        """Raise unless the redraws fit the budget of ``used`` draws."""
        self._hold(used, "used")

    def _hold(self, n: int, label: str) -> None:
        if self.redrawn > max(1, math.ceil(SINGULAR_FRACTION * n)):
            raise NumericalError(
                f"more than {SINGULAR_FRACTION:.0%} of estimate draws "
                f"gave singular Gram matrices "
                f"({self.redrawn} of {n} {label})")

    def invert(self, parts: tuple) -> GramBatch:
        """Conjugate, Gram matrix and inverse of one block of draws.

        ``parts`` is a tuple of arrays with the block's draws on axis 0, the
        channel estimates (b, rows, users) first.  The conjugate and Gram
        matrix live in buffers, sized by the largest block so far, that the
        next block overwrites, so no fresh pages are faulted in per block.
        """
        g = parts[0]
        b = len(g)
        if len(self._gram) < b:
            self._conj = np.empty(g.shape, g.dtype)
            self._gram = np.empty((b,) + g.shape[2:] * 2, g.dtype)
        g_conj = np.conjugate(g, out=self._conj[:b])
        gram = np.matmul(g.transpose(0, 2, 1), g_conj, out=self._gram[:b])
        inv, bad = invert_grams(gram)
        while bad.any():
            self.redrawn += int(bad.sum())
            self._hold(self.n, "requested")
            idx = np.flatnonzero(bad)
            fresh = self.redraw(idx.size)
            for part, new in zip(parts, fresh):
                part[idx] = new
            fresh_conj = fresh[0].conj()
            g_conj[idx] = fresh_conj
            gram[idx] = fresh[0].transpose(0, 2, 1) @ fresh_conj
            bad[idx] = invert_grams(gram[idx])[1]
            inv = None
        if inv is None:
            inv = np.linalg.solve(gram, np.eye(gram.shape[-1]))
        return GramBatch(g_conj, gram, inv)
