"""Dense linear algebra over the prime field F_p, vectorized with numpy.

Graded computations reduce every question to finite dimensional slices, and
those slices land here.  Matrices hold entries in [0, p).  Pivoting is
deterministic (first nonzero in column order), so kernels, solutions and
quotient bases are reproducible.

Arithmetic runs in int64 while every intermediate value fits: a sum of
``width`` products of two residues is below width (p-1)^2, so int64 is used
while that stays below 2^63 and Python integers (``dtype=object``) above
it.  The elimination steps work on whole rows and blocks, never one vector
at a time.
"""

from __future__ import annotations

import numpy as np

_INT64_LIMIT = 2 ** 63


def _dtype(p: int, width: int = 1):
    """int64 when ``width`` products of residues mod p sum below 2^63."""
    return np.int64 if width * (p - 1) ** 2 < _INT64_LIMIT else object


def _reduced(a, p: int, width: int = 1) -> np.ndarray:
    """A copy of ``a`` with entries in [0, p), in the dtype ``width`` needs."""
    m = np.array(a, dtype=_dtype(p, width))
    if m.ndim != 2:
        raise ValueError("expected a 2d array")
    return m % p


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=np.int64)


def mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The product A B mod p, exact for every p."""
    width = a.shape[1]
    return (_reduced(a, p, width) @ _reduced(b, p, width)) % p


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    m = _reduced(a, p)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        below = m[r:, c].nonzero()[0]
        if not below.size:
            continue
        i = r + int(below[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        # the pivot row is zero left of c, so only columns >= c change,
        # and only in the rows that are nonzero in column c
        lead = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        m[r, c:] = lead
        hit = m[:, c].nonzero()[0]
        hit = hit[hit != r]
        if hit.size:
            m[hit, c:] = (m[hit, c:] - m[hit, c, None] * lead) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """Particular solution X of A X = B with free variables pinned to 0."""
    m, n = a.shape
    if b.shape[0] != m:
        raise ValueError("shape mismatch")
    red, pivots = rref(np.concatenate([a, b], axis=1), p)
    if pivots and pivots[-1] >= n:
        return None
    x = np.zeros((n, b.shape[1]), dtype=red.dtype)
    x[pivots] = red[:len(pivots), n:]
    return x


def kernel(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of the right kernel."""
    n = a.shape[1]
    if n == 0:
        return zeros(0, 0)
    red, pivots = rref(a, p)
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    free_cols = np.flatnonzero(free)
    basis = np.zeros((n, free_cols.size), dtype=red.dtype)
    basis[free_cols, np.arange(free_cols.size)] = 1
    basis[pivots] = -red[:len(pivots), free_cols] % p
    return basis


def extend_independent(span: np.ndarray | None, cand: np.ndarray, p: int) -> list[int]:
    """Indices of candidate columns that enlarge the span, greedily.

    ``span`` may be None or empty.  Candidate j is picked when it lies
    outside the span of ``span`` and the candidates before it.  The
    candidates are projected along the reduced basis B of the span (with
    pivot rows ``piv``) by v -> v - B^T v[piv], a map whose kernel is
    exactly the span; the picked columns are then the pivot columns of the
    projected candidates.
    """
    cand = np.asarray(cand)
    if span is not None and span.size:
        red, piv = rref(span.T, p)
        if piv:
            cand = (cand - mul(red[:len(piv)].T, cand[piv], p)) % p
    return rref(cand, p)[1]
