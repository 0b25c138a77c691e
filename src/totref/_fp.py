"""Linear algebra over the prime field F_p, on sparse rows.

Graded computations reduce every question to finite dimensional slices, and
those slices land here.  A matrix is a list of rows and a vector is one
row: a ``{column: residue}`` dict that holds only the nonzero entries.
Entries are Python integers, read mod p, so the arithmetic is exact for
every p; results hold residues in [1, p).  Pivoting is deterministic (the
reduced row echelon form is unique), so kernels, solutions and quotient
bases are reproducible.

The slices are sparse: a column of a multiplication block has at most as
many nonzero entries as the acting element has terms, and a pivot step
rarely clears more than a few rows.  So every question starts from one
forward pass, ``_echelon``, whose cost is in the entries the elimination
touches rather than in the matrix's area.  ``rank``, ``extend_independent``
and ``kernel``'s picks need only its leading columns, which are the RREF's
pivots; ``kernel``, ``solve`` and ``rref`` back-substitute on the same
rows.
"""

from __future__ import annotations


def _subtract(row: dict, f: int, other: dict, p: int) -> None:
    """row -= f * other in place, dropping the entries that become 0."""
    for c, v in other.items():
        v = (row.get(c, 0) - f * v) % p
        if v:
            row[c] = v
        else:
            del row[c]


def _echelon(rows, p: int) -> dict[int, dict[int, int]]:
    """Echelon rows of ``rows`` mod p with leading 1s, keyed by leading column.

    The input rows are never changed.  A lone leading 1 enters the echelon
    form as it is, since nothing ever subtracts from it; every other row is
    copied before it is reduced.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(row) == 1:
            # a new leading 1, or 0 against a leading 1 alone
            (c, v), = row.items()
            v %= p
            if not v:
                continue
            held = basis.get(c)
            if held is None:
                basis[c] = row if row[c] == 1 else {c: 1}
                continue
            if len(held) == 1:
                continue
            row = {c: v}
        elif row:
            row = {c: r for c, v in row.items() if (r := v % p)}
        else:
            continue
        while row:
            lead = min(row)
            held = basis.get(lead)
            if held is None:
                f = row[lead]
                if f != 1:
                    inv = pow(f, -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                basis[lead] = row
                break
            _subtract(row, row[lead], held, p)
    return basis


def _back_substitute(basis: dict[int, dict[int, int]], p: int) -> list[int]:
    """Reduce ``basis`` to the RREF's rows in place; the sorted pivots."""
    pivots = sorted(basis)
    for lead in reversed(pivots):
        row = basis[lead]
        for c in [c for c in row if c != lead and c in basis]:
            _subtract(row, row[c], basis[c], p)
    return pivots


def rref(rows, p: int) -> tuple[list[dict[int, int]], list[int]]:
    """The nonzero rows of the reduced row echelon form, and its pivots."""
    basis = _echelon(rows, p)
    pivots = _back_substitute(basis, p)
    return [basis[lead] for lead in pivots], pivots


def rank(rows, p: int) -> int:
    return len(_echelon(rows, p))


def solve(rows, width: int, b: dict[int, int],
          p: int) -> dict[int, int] | None:
    """A solution x of A x = b with free variables pinned to 0, or None.

    A is ``rows`` with ``width`` columns; b, indexed by row, and x are
    vectors.  b rides along as column ``width`` of A.
    """
    system = list(rows)
    for i, v in b.items():
        system[i] = {**system[i], width: v}
    basis = _echelon(system, p)
    if width in basis:
        return None
    return {lead: basis[lead][width] for lead in _back_substitute(basis, p)
            if width in basis[lead]}


def kernel(rows, width: int, p: int,
           span=None) -> tuple[list[dict[int, int]], int]:
    """A right-kernel basis of the ``width``-column matrix ``rows``, as
    vectors: the identity on free columns, -RREF on pivots; and the rank
    of ``rows``, which the same forward pass gives.

    With ``span``, only the basis vectors that enlarge the span of some
    kernel vectors are returned: ``extend_independent``'s picks among
    them.  Basis vector j is the kernel vector that is 1 at the j-th free
    column and 0 at the others, so a kernel vector is fixed by its entries
    at the free columns ``free``.  ``span(free)``, called once ``free`` is
    known and not empty, gives the spanning vectors by those entries alone,
    free[j] at position len(free) - 1 - j.  Vector j enlarges the span
    exactly when no vector in it ends at j: the leading columns of its
    echelon form, read back from the last.  The picks need only the
    forward pass, so back-substitution runs for the picked vectors alone.
    """
    basis = _echelon(rows, p)
    free = [c for c in range(width) if c not in basis]
    picked = range(len(free))
    if span and free:
        last = len(free) - 1
        ends = {last - c for c in _echelon(span(free), p)}
        picked = [j for j in picked if j not in ends]
    if not picked:
        return [], len(basis)
    # at[c] = {output vector: its entry c} of the picked vectors
    at = {free[j]: {k: 1} for k, j in enumerate(picked)}
    for lead in sorted(basis, reverse=True):
        acc: dict[int, int] = {}
        for c, v in basis[lead].items():
            for k, w in at.get(c, {}).items():
                acc[k] = acc.get(k, 0) - v * w
        acc = {k: w % p for k, w in acc.items() if w % p}
        if acc:
            at[lead] = acc
    out: list[dict[int, int]] = [{} for _ in picked]
    for c, entries in at.items():
        for k, w in entries.items():
            out[k][c] = w
    return out, len(basis)


def extend_independent(rows, held: int, p: int) -> list[int]:
    """Indices of candidate columns that enlarge the span, greedily.

    ``rows`` is ``[span | cand]``, the span in its first ``held`` columns.
    Candidate j is picked when it lies outside the span of the span's
    columns and the candidates before it, that is when the rank grows at
    its column: exactly the pivot columns at or past ``held``.
    """
    return [c - held for c in sorted(_echelon(rows, p)) if c >= held]
