"""Linear algebra over the prime field F_p.

Graded computations reduce every question to finite dimensional slices, and
those slices land here.  Matrices hold entries in [0, p).  Pivoting is
deterministic (the reduced row echelon form is unique), so kernels,
solutions and quotient bases are reproducible.

The slices are sparse: a column of ``mult_matrix(e)`` has at most as many
nonzero entries as e has terms, and a pivot step rarely clears more than a
few rows.  So every question starts from one forward pass, ``_echelon``,
over the nonzero entries, with rows held as ``{column: residue}`` dicts of
Python integers: exact for every p, and costing time in the entries the
elimination touches rather than in the matrix's area.  ``rank``,
``extend_independent`` and ``kernel``'s picks need only its leading
columns, which are the RREF's pivots; ``kernel`` and ``solve``
back-substitute on the sparse rows, and only ``rref`` writes a dense
reduced matrix.

Arrays hold int64 while every intermediate value fits: a sum of ``width``
products of two residues is below width (p-1)^2, so ``mul`` computes in
int64 while that stays below 2^63 and in Python integers (``dtype=object``)
above it.  ``rref``, ``kernel`` and ``solve`` return arrays in the dtype of
``_reduced(a, p)``.
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


def _subtract(row: dict, f: int, other: dict, p: int) -> None:
    """row -= f * other in place, dropping the entries that become 0."""
    for c, v in other.items():
        v = (row.get(c, 0) - f * v) % p
        if v:
            row[c] = v
        else:
            del row[c]


def _echelon(a: np.ndarray, p: int) -> dict[int, dict[int, int]]:
    """Echelon rows of ``a`` mod p with leading 1s, keyed by leading column."""
    rows_at, cols_at = a.nonzero()
    vals = a[rows_at, cols_at] % p
    kept = vals.nonzero()[0]
    rows_at = rows_at[kept]
    cols_at = cols_at[kept].tolist()
    vals = vals[kept].tolist()
    # the nonzero entries come row by row; cut them where the row changes
    cuts = ((rows_at[1:] != rows_at[:-1]).nonzero()[0] + 1).tolist()
    basis: dict[int, dict[int, int]] = {}
    for start, stop in zip([0] + cuts, cuts + [len(vals)]):
        # one entry: a new leading 1, or 0 against a leading 1 alone
        if stop - start == 1 and len(basis.setdefault(
                cols_at[start], {cols_at[start]: 1})) == 1:
            continue
        row = dict(zip(cols_at[start:stop], vals[start:stop]))
        while row:
            lead = min(row)
            if lead not in basis:
                f = row[lead]
                if f != 1:
                    inv = pow(f, -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                basis[lead] = row
                break
            _subtract(row, row[lead], basis[lead], p)
    return basis


def _back_substitute(basis: dict[int, dict[int, int]], p: int) -> list[int]:
    """Reduce ``basis`` to the RREF's rows in place; the sorted pivots."""
    pivots = sorted(basis)
    for lead in reversed(pivots):
        row = basis[lead]
        for c in [c for c in row if c != lead and c in basis]:
            _subtract(row, row[c], basis[c], p)
    return pivots


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    basis = _echelon(a, p)
    pivots = _back_substitute(basis, p)
    red = np.zeros(a.shape, dtype=_dtype(p))
    at_r, at_c, at_v = [], [], []
    for i, lead in enumerate(pivots):
        row = basis[lead]
        at_r += [i] * len(row)
        at_c += row
        at_v += row.values()
    red[at_r, at_c] = at_v
    return red, pivots


def rank(a: np.ndarray, p: int) -> int:
    return len(_echelon(a, p))


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """Particular solution X of A X = B with free variables pinned to 0."""
    m, n = a.shape
    if b.shape[0] != m:
        raise ValueError("shape mismatch")
    basis = _echelon(np.concatenate([a, b], axis=1), p)
    if basis and max(basis) >= n:
        return None
    x = np.zeros((n, b.shape[1]), dtype=_dtype(p))
    for lead in _back_substitute(basis, p):
        x[lead] = [basis[lead].get(c, 0) for c in range(n, n + b.shape[1])]
    return x


def kernel(a: np.ndarray, p: int, span: np.ndarray | None = None) -> np.ndarray:
    """A right-kernel basis: the identity on free columns, -RREF on pivots.

    With ``span``, whose columns must lie in the kernel, only the basis
    vectors that enlarge it are returned: ``extend_independent``'s picks
    among them.  Basis vector j is the kernel vector that is 1 at the j-th
    free column and 0 at the others, so ``span`` has kernel coordinates
    ``span[free]``.  Vector j enlarges the span exactly when no vector in
    the span of those coordinates ends at j, and those last positions are
    the pivots of ``span[free]^T`` with its columns reversed.  The picks
    need only the forward pass, so back-substitution runs for the picked
    vectors alone, pivot rows from the last up.
    """
    basis = _echelon(a, p)
    free = [c for c in range(a.shape[1]) if c not in basis]
    picked = range(len(free))
    if span is not None and span.size and free:
        ends = {len(free) - 1 - c
                for c in _echelon(span[free].T[:, ::-1], p)}
        picked = [j for j in picked if j not in ends]
    out = np.zeros((a.shape[1], len(picked)), dtype=_dtype(p))
    if not picked:
        return out
    # at[c] = {output column: entry in row c} of the picked vectors
    at = {free[j]: {k: 1} for k, j in enumerate(picked)}
    for lead in sorted(basis, reverse=True):
        acc: dict[int, int] = {}
        for c, v in basis[lead].items():
            for k, w in at.get(c, {}).items():
                acc[k] = acc.get(k, 0) - v * w
        acc = {k: w % p for k, w in acc.items() if w % p}
        if acc:
            at[lead] = acc
    at_r = [c for c, row in at.items() for _ in row]
    at_c = [k for row in at.values() for k in row]
    at_v = [w for row in at.values() for w in row.values()]
    out[at_r, at_c] = at_v
    return out


def extend_independent(span: np.ndarray | None, cand: np.ndarray, p: int) -> list[int]:
    """Indices of candidate columns that enlarge the span, greedily.

    ``span`` may be None or empty.  Candidate j is picked when it lies
    outside the span of ``span`` and the candidates before it, that is
    when the rank grows at its column of ``[span | cand]``: exactly the
    pivot columns of that matrix at or past the span's width.
    """
    cand = np.asarray(cand)
    held = span.shape[1] if span is not None and span.size else 0
    if held:
        cand = np.concatenate([span, cand], axis=1)
    return [c - held for c in sorted(_echelon(cand, p)) if c >= held]
