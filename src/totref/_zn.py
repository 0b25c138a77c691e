"""Row algebra over Z/n for prime-power n.

Everything here works with plain python ints reduced into [0, n).  The
central routine is the Howell normal form, which fixes what echelon forms
lose over rings with zero divisors: the row span of the output determines
membership by successive pivot reduction, and appended annihilator rows make
the span closed under "leading zeros" truncation.

Solving A*x = b and computing right kernels both go through one augmented
Howell computation on [A^T | I].
"""

from __future__ import annotations

from math import gcd


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def unit_factor(a: int, n: int) -> int:
    """Unit u with (u*a) % n == gcd(a, n)."""
    a %= n
    if a == 0:
        return 1
    d = gcd(a, n)
    c = a // d
    # lift c to a representative coprime to n; terminates because c + j*(n/d)
    # runs over all residues of c modulo n/d and one of them is coprime to n
    step = n // d
    while gcd(c, n) != 1:
        c += step
    return pow(c, -1, n)


def _gcdex2(a: int, b: int, n: int) -> tuple[int, int, int, int, int]:
    """(g, s, t, u, v) with s*a+t*b = g, u*a+v*b = 0 and unit determinant."""
    g, s, t = _xgcd(a, b)
    if g == 0:
        return 0, 1, 0, 0, 1
    return g % n, s % n, t % n, (-(b // g)) % n, (a // g) % n


def howell(mat: list[list[int]], n: int) -> list[list[int]]:
    """Howell normal form of the row span of ``mat``.

    Rows come back sorted by pivot column, pivots are divisors of n, the
    entries above each pivot are reduced below it.  The form is the unique
    canonical basis of the row span, so equal spans give equal output.
    """
    rows = [[x % n for x in r] for r in mat if any(x % n for x in r)]
    if not rows:
        return []
    ncol = len(rows[0])
    r = 0
    for c in range(ncol):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                g, s, t, u, v = _gcdex2(rows[r][c], rows[i][c], n)
                rr, ri = rows[r], rows[i]
                for j in range(c, ncol):
                    a_, b_ = rr[j], ri[j]
                    rr[j] = (s * a_ + t * b_) % n
                    ri[j] = (u * a_ + v * b_) % n
        u = unit_factor(rows[r][c], n)
        if u != 1:
            rows[r] = [(u * x) % n for x in rows[r]]
        piv_val = rows[r][c]
        for i in range(r):
            q = rows[i][c] // piv_val
            if q:
                rows[i] = [(x - q * y) % n for x, y in zip(rows[i], rows[r])]
        ann = n // piv_val
        if ann % n:
            extra = [(ann * x) % n for x in rows[r]]
            if any(extra):
                rows.append(extra)
        r += 1
    return rows[:r]


def _pivot(row: list[int]) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    return len(row)


class SpanSolver:
    """Membership and solving against the column span of an integer matrix.

    Built from the augmented Howell form of [A^T | I], so one construction
    answers three questions exactly: is b in the column span of A (with a
    witness x such that A*x = b), what generates the right kernel of A, and
    how many elements the column span has.
    """

    def __init__(self, a_columns: list[list[int]], n: int, height: int):
        # a_columns: the columns of A, each of length ``height``
        self.n = n
        self.height = height
        self.width = len(a_columns)
        aug = []
        for j, col in enumerate(a_columns):
            row = list(col) + [0] * self.width
            row[height + j] = 1
            aug.append(row)
        h = howell(aug, n) if aug else []
        self.value_rows = []
        self.kernel_rows = []
        for row in h:
            if any(row[:height]):
                self.value_rows.append(row)
            else:
                self.kernel_rows.append(row[height:])
        # (pivot column, pivot, row from the pivot on) of each value row
        pivots = [_pivot(row) for row in self.value_rows]
        self._steps = [(j, row[j], row[j:height])
                       for j, row in zip(pivots, self.value_rows)]

    def solve(self, b: list[int]) -> list[int] | None:
        """x with A*x = b, or None; free choices are pinned to zero."""
        n = self.n
        v = [x % n for x in b] + [0] * self.width
        for row, (j, piv, _) in zip(self.value_rows, self._steps):
            if v[j] == 0:
                continue
            if v[j] % piv:
                return None
            q = v[j] // piv
            v = [(x - q * y) % n for x, y in zip(v, row)]
        if any(v[:self.height]):
            return None
        return [(-x) % n for x in v[self.height:]]

    def reduce(self, vectors) -> list[list[int]]:
        """Canonical representatives of ``vectors`` modulo the column span
        of A: two vectors reduce to the same list exactly when their
        difference lies in the span, as the value rows are in Howell form.
        """
        n = self.n
        out = []
        for vec in vectors:
            v = [x % n for x in vec]
            for j, piv, row in self._steps:
                q = v[j] // piv
                if q:
                    v[j:] = [(x - q * y) % n for x, y in zip(v[j:], row)]
            out.append(v)
        return out

    def reduced_bounds(self) -> list[int]:
        """Entry bounds of the reduced vectors (the pivot in a pivot column,
        n elsewhere): the reduced vectors are exactly their product, and
        each is the lexicographically first of its coset, since another
        vector of the coset first differs from it by a multiple of a pivot.
        """
        bounds = [self.n] * self.height
        for j, piv, _ in self._steps:
            bounds[j] = piv
        return bounds

    def span_size(self) -> int:
        return _pivot_product(self.value_rows, self.n)


def span_size(rows: list[list[int]], n: int) -> int:
    """Number of elements in the row span of ``rows`` over Z/n."""
    return _pivot_product(howell(rows, n), n)


def _pivot_product(howell_rows: list[list[int]], n: int) -> int:
    # a Howell row with pivot p contributes the n/p multiples of itself
    size = 1
    for row in howell_rows:
        size *= n // row[_pivot(row)]
    return size
