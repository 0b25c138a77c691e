"""Exact matrix algebra over the two ring backends.

Matrices are immutable.  Over the graded backend a matrix may carry row and
column degrees describing it as a map of twisted free modules

    sum_j A(-col_degs[j])  ->  sum_i A(-row_degs[i]),

in which case entry (i, j) must be homogeneous of degree
col_degs[j] - row_degs[i].  All solving is exact, and one ``Factored``
per matrix answers its solves, its kernel and the first column outside its
image: the finite backend flattens the matrix to an integer block matrix
in Howell normal form, the graded backend slices it degree by degree over
F_p.  Graded data must be homogeneous: a graded matrix is factored under a
degree layout, and data that admits none is refused with NonHomogeneous.
Degree-bounded answers say so in their scope.

Ideal questions are matrix questions over the same core: A/I is presented
by the row of I's generators, e lies in I when the row solves against e,
and Ann(e) is the kernel of [e].  Hom and Ext are too: ``kron`` builds
every lifting and cochain matrix as a Kronecker product.  Exactness is
every kernel generator of the outgoing map solving into the image of the
incoming one; ``homology`` counts cycles and boundaries for Ext only, by
rank-nullity on both backends: span sizes over Z/n, slice ranks over F_p.
"""

from __future__ import annotations

import bisect
import functools
import itertools

from . import _fp, _zn
from .errors import (DimensionMismatch, NonHomogeneous, NotAComplex,
                     TotrefError)
from .report import FAIL, PASS, VerificationReport
from .rings import (FiniteElement, FiniteLocalRing, GradedMonomialRing,
                    degree_bound, scope_of)


class Matrix:
    __slots__ = ("ring", "entries", "nrows", "ncols", "row_degs", "col_degs")

    def __init__(self, ring, rows, row_degs=None, col_degs=None):
        entries = tuple(map(tuple, rows))
        if not entries or not entries[0]:
            raise DimensionMismatch("matrices must have at least one row and "
                                    "one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise DimensionMismatch("ragged rows")
        for row in entries:
            for e in row:
                owner = getattr(e, "ring", None)
                if owner is not ring and (owner is None
                                          or owner.key != ring.key):
                    raise TotrefError("entry from a different ring")
        self.ring = ring
        self.entries = entries
        self.nrows = len(entries)
        self.ncols = width
        if row_degs is not None:
            row_degs = tuple(int(d) for d in row_degs)
            if len(row_degs) != self.nrows:
                raise DimensionMismatch("row degree list has wrong length")
        if col_degs is not None:
            col_degs = tuple(int(d) for d in col_degs)
            if len(col_degs) != self.ncols:
                raise DimensionMismatch("column degree list has wrong length")
        self.row_degs = row_degs
        self.col_degs = col_degs
        if (row_degs is not None and col_degs is not None
                and isinstance(ring, GradedMonomialRing)):
            for i, row in enumerate(entries):
                for j, e in enumerate(row):
                    if e.is_zero:
                        continue
                    if not e.is_homogeneous() or e.degree() != col_degs[j] - row_degs[i]:
                        raise NonHomogeneous(
                            f"entry ({i}, {j}) = {e!r} is not homogeneous of "
                            f"degree {col_degs[j] - row_degs[i]}")

    # -- construction -------------------------------------------------------

    @classmethod
    def _trusted(cls, ring, rows, row_degs=None, col_degs=None) -> "Matrix":
        """A matrix without ``__init__``'s checks, for builders whose entries
        come from ring operations on valid matrices and fit the layout."""
        mat = cls.__new__(cls)
        mat.ring = ring
        mat.entries = tuple(map(tuple, rows))
        mat.nrows, mat.ncols = len(mat.entries), len(mat.entries[0])
        mat.row_degs = None if row_degs is None else tuple(row_degs)
        mat.col_degs = None if col_degs is None else tuple(col_degs)
        return mat

    @classmethod
    def identity(cls, ring, n: int, degs=None) -> "Matrix":
        one, zero = ring.one(), ring.zero()
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return cls(ring, rows, degs, degs)

    @classmethod
    def zeros(cls, ring, m: int, n: int, row_degs=None, col_degs=None) -> "Matrix":
        zero = ring.zero()
        return cls(ring, [[zero] * n for _ in range(m)], row_degs, col_degs)

    def with_degrees(self, row_degs, col_degs) -> "Matrix":
        return Matrix(self.ring, self.entries, row_degs, col_degs)

    def without_degrees(self) -> "Matrix":
        return Matrix._trusted(self.ring, self.entries)

    # -- basic access -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and other.ring.key == self.ring.key
                and other.entries == self.entries)

    def __hash__(self):
        return hash((self.ring.key, self.entries))

    def __repr__(self):
        rows = ["[" + ", ".join(self.ring.format(e) for e in row) + "]"
                for row in self.entries]
        return "[" + "; ".join(rows) + "]"

    # -- arithmetic ---------------------------------------------------------

    def _same_shape(self, other: "Matrix"):
        if not isinstance(other, Matrix) or other.ring.key != self.ring.key:
            raise TotrefError("matrix from a different ring")
        if other.shape != self.shape:
            raise DimensionMismatch(f"{self.shape} vs {other.shape}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        rows = [[a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)]
        row_degs = self.row_degs if self.row_degs == other.row_degs else None
        col_degs = self.col_degs if self.col_degs == other.col_degs else None
        return Matrix._trusted(self.ring, rows, row_degs, col_degs)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        rows = [[-e for e in row] for row in self.entries]
        return Matrix._trusted(self.ring, rows, self.row_degs, self.col_degs)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if other.ring.key != self.ring.key:
                raise TotrefError("matrix from a different ring")
            if self.ncols != other.nrows:
                raise DimensionMismatch(
                    f"cannot compose {self.shape} with {other.shape}")
            # form a product only where a nonzero left entry meets a
            # nonzero right entry; zero terms add nothing
            zero = self.ring.zero()
            cols = range(other.ncols)
            rows = []
            for left in self.entries:
                terms = [(a, right) for a, right in zip(left, other.entries)
                         if a]
                row = []
                for k in cols:
                    acc = zero
                    for a, right in terms:
                        if b := right[k]:
                            acc = acc + a * b
                    row.append(acc)
                rows.append(row)
            row_degs = col_degs = None
            if (self.col_degs is not None and other.row_degs is not None
                    and self.col_degs == other.row_degs):
                row_degs, col_degs = self.row_degs, other.col_degs
            return Matrix._trusted(self.ring, rows, row_degs, col_degs)
        return self._scale(other)

    def __rmul__(self, other):
        return self._scale(other)

    def _scale(self, scalar) -> "Matrix":
        if isinstance(scalar, int):
            scalar = self.ring.from_int(scalar)
        rows = [[scalar * e for e in row] for row in self.entries]
        row_degs, col_degs = self.row_degs, self.col_degs
        if isinstance(self.ring, GradedMonomialRing) and col_degs is not None:
            t = scalar.degree()
            if t is None:
                t = 0  # zero scalar keeps any degree layout
            elif not scalar.is_homogeneous():
                row_degs = col_degs = None
                t = None
            if t is not None:
                col_degs = tuple(c + t for c in col_degs)
        return Matrix(self.ring, rows, row_degs, col_degs)

    def transpose(self) -> "Matrix":
        rows = [[self.entries[i][j] for i in range(self.nrows)]
                for j in range(self.ncols)]
        row_degs = (tuple(-c for c in self.col_degs)
                    if self.col_degs is not None else None)
        col_degs = (tuple(-r for r in self.row_degs)
                    if self.row_degs is not None else None)
        return Matrix._trusted(self.ring, rows, row_degs, col_degs)

    # -- determinants -------------------------------------------------------

    def minors(self, size: int) -> list:
        """All size-by-size minors, in row-set then column-set order."""
        out = []
        for rows in itertools.combinations(range(self.nrows), size):
            for cols in itertools.combinations(range(self.ncols), size):
                sub = tuple(tuple(self.entries[i][j] for j in cols)
                            for i in rows)
                out.append(_det(self.ring, sub))
        return out


def _det(ring, entries):
    n = len(entries)
    if n == 1:
        return entries[0][0]
    acc = ring.zero()
    sign = 1
    for j in range(n):
        if not entries[0][j].is_zero:
            minor = tuple(tuple(row[k] for k in range(n) if k != j)
                          for row in entries[1:])
            term = entries[0][j] * _det(ring, minor)
            acc = acc + term if sign > 0 else acc - term
        sign = -sign
    return acc


def hstack(mats: list[Matrix]) -> Matrix:
    first = mats[0]
    if any(m.ring.key != first.ring.key for m in mats):
        raise TotrefError("matrix from a different ring")
    if any(m.nrows != first.nrows for m in mats):
        raise DimensionMismatch("row counts differ")
    rows = [[e for m in mats for e in m.entries[i]]
            for i in range(first.nrows)]
    row_degs = first.row_degs
    if any(m.row_degs != row_degs for m in mats):
        row_degs = None
    col_degs = None
    if all(m.col_degs is not None for m in mats) and row_degs is not None:
        col_degs = sum((list(m.col_degs) for m in mats), [])
    return Matrix._trusted(first.ring, rows, row_degs, col_degs)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product: entry ((i, k), (j, l)) is a[i][j] * b[k][l].

    Twists add, so two degree layouts give a layout.  Products with a
    zero factor are not formed, and a factor one gives the other factor.
    """
    zero, one = a.ring.zero(), a.ring.one()
    rows = [[(y if x == one else x if y == one else x * y) if x and y
             else zero for x in row_a for y in row_b]
            for row_a in a.entries for row_b in b.entries]

    def summed(da, db):
        return None if da is None or db is None else \
            [s + t for s in da for t in db]

    return Matrix._trusted(a.ring, rows, summed(a.row_degs, b.row_degs),
                           summed(a.col_degs, b.col_degs))


# ---------------------------------------------------------------------------
# degree inference

def infer_degrees(mat: Matrix) -> Matrix:
    """Attach a consistent twist layout to a graded matrix.

    Solves col_degs[j] - row_degs[i] = deg(entry) over the bipartite
    constraint graph of nonzero entries; each connected component is
    anchored at its first node, which gets degree 0.  Raises NonHomogeneous
    when an entry is inhomogeneous or the constraints conflict.
    """
    if not isinstance(mat.ring, GradedMonomialRing):
        return mat
    if mat.row_degs is not None and mat.col_degs is not None:
        return mat
    m, n = mat.shape
    adjacency: dict[tuple, list] = {}
    for i in range(m):
        for j in range(n):
            e = mat.entries[i][j]
            if e.is_zero:
                continue
            if not e.is_homogeneous():
                raise NonHomogeneous(
                    f"entry ({i}, {j}) = {e!r} is not homogeneous")
            d = e.degree()
            adjacency.setdefault(("r", i), []).append((("c", j), d))
            adjacency.setdefault(("c", j), []).append((("r", i), -d))
    assignment: dict[tuple, int] = {}
    order = [("r", i) for i in range(m)] + [("c", j) for j in range(n)]
    for start in order:
        if start in assignment:
            continue
        assignment[start] = 0
        queue = [start]
        while queue:
            node = queue.pop(0)
            for neighbor, delta in adjacency.get(node, ()):
                want = assignment[node] + delta
                if neighbor in assignment:
                    if assignment[neighbor] != want:
                        raise NonHomogeneous(
                            "no consistent degree layout for this matrix")
                else:
                    assignment[neighbor] = want
                    queue.append(neighbor)
    row_degs = tuple(assignment[("r", i)] for i in range(m))
    col_degs = tuple(assignment[("c", j)] for j in range(n))
    return Matrix._trusted(mat.ring, mat.entries, row_degs, col_degs)


# ---------------------------------------------------------------------------
# finite flattening

def _flatten_columns(mat: Matrix) -> tuple[list[list[int]], int]:
    """Integer columns of the coordinate matrix of x -> mat * x."""
    ring = mat.ring
    d = ring.ext_degree
    height = mat.nrows * d
    if d == 1:  # over Z/p^k each entry is its own 1 x 1 block
        return [[row[j].coords[0] for row in mat.entries]
                for j in range(mat.ncols)], height
    cols = []
    for j in range(mat.ncols):
        blocks = [ring.mult_columns(mat.entries[i][j]) for i in range(mat.nrows)]
        for t in range(d):
            col = []
            for block in blocks:
                col.extend(block[t])
            cols.append(col)
    return cols, height


def _flatten_vector(ring, elements) -> list[int]:
    out: list[int] = []
    for e in elements:
        out.extend(e.coords)
    return out


def _unflatten_vector(ring, vec: list[int], count: int):
    """Elements from a flat vector of residues, Python ints in [0, n)."""
    d = ring.ext_degree
    return [FiniteElement(ring, tuple(vec[i * d:(i + 1) * d]))
            for i in range(count)]


# ---------------------------------------------------------------------------
# graded slices

def _twist_layout(ring, degs: tuple, d: int):
    """Offsets and widths of the degree-d slice of sum_j A(-degs[j]).

    Kept on the ring per (degs, d): a run asks for the same few layouts
    tens of thousands of times.
    """
    hit = ring._layout_cache.get((degs, d))
    if hit is None:
        widths = tuple(ring.dim(d - s) for s in degs)
        offsets = tuple(itertools.accumulate(widths, initial=0))
        hit = ring._layout_cache[degs, d] = offsets[:-1], widths, offsets[-1]
    return hit


def _slice_blocks(mat: Matrix, d: int):
    """The degree-d slice of the twisted map described by ``mat``, block by
    block: its height and width, and per nonzero entry of mat its block's
    row offset, column offset and nonzero entries (dst, src, coeff)."""
    ring = mat.ring
    if mat.row_degs is None or mat.col_degs is None:
        raise NonHomogeneous("matrix has no degree layout; call "
                             "infer_degrees first")
    row_off, row_w, height = _twist_layout(ring, mat.row_degs, d)
    col_off, col_w, width = _twist_layout(ring, mat.col_degs, d)
    blocks = [(row_off[i], col_off[j],
               ring.mult_matrix(e, d - mat.col_degs[j]))
              for i, entries in enumerate(mat.entries) if row_w[i]
              for j, e in enumerate(entries) if col_w[j] and not e.is_zero]
    return height, width, blocks


def slice_matrix(mat: Matrix, d: int) -> tuple[list[dict[int, int]], int]:
    """Degree-d slice of the twisted map described by ``mat``: its rows as
    ``{column: residue}`` dicts, and its width."""
    height, width, blocks = _slice_blocks(mat, d)
    rows: list[dict[int, int]] = [{} for _ in range(height)]
    for r0, c0, block in blocks:
        for dst, src, coeff in block:
            rows[r0 + dst][c0 + src] = coeff
    return rows, width


def _free_span(mat: Matrix, d: int, free: list[int]):
    """The columns of ``mat``'s degree-d slice on the rows ``free`` alone,
    as ``_fp.kernel``'s span: row free[j] becomes entry len(free) - 1 - j."""
    last = len(free) - 1
    at = {r: last - j for j, r in enumerate(free)}
    cols: dict[int, dict[int, int]] = {}
    for r0, c0, block in _slice_blocks(mat, d)[2]:
        for dst, src, coeff in block:
            k = at.get(r0 + dst)
            if k is not None:
                cols.setdefault(c0 + src, {})[k] = coeff
    return cols.values()


def slice_vector_to_matrix(ring, vec: dict[int, int], degs, d: int) -> Matrix:
    """Element column of degree d from stacked slice coordinates
    ``{index: residue}``."""
    offsets, _, _ = _twist_layout(ring, degs, d)
    parts: list[dict[int, int]] = [{} for _ in degs]
    for index, c in vec.items():
        # zero-width summands share their offset with the next summand, so
        # the last offset at or below the index is the summand holding it
        i = bisect.bisect_right(offsets, index) - 1
        parts[i][index - offsets[i]] = c
    col = [[ring.element_of_vector(part, d - s) if part else ring.zero()]
           for s, part in zip(degs, parts)]
    return Matrix._trusted(ring, col, degs, (d,))


def matrix_column_to_slice(ring, column, degs, d: int) -> dict[int, int]:
    """Stacked slice coordinates ``{index: residue}`` of the homogeneous
    element column ``column`` of degree d over sum_i A(-degs[i])."""
    offsets, widths, _ = _twist_layout(ring, degs, d)
    vec: dict[int, int] = {}
    for e, s, off, w in zip(column, degs, offsets, widths):
        if w and not e.is_zero:
            vec.update((off + i, c)
                       for i, c in ring.vector_of(e, d - s).items())
    return vec


# ---------------------------------------------------------------------------
# solving and kernels

class Factored:
    """One factorization of ``rho``, asked any number of questions.

    The finite backend flattens rho once into ``span``, a ``SpanSolver``;
    the graded backend slices rho once per degree that a question asks
    for.  ``solve``, ``kernel`` and ``outside`` all read that one
    factorization, ``transpose`` holds one of rho^T, and ``_ranks`` holds
    the rank of each slice a kernel eliminated, by degree.  A graded rho
    gets its degree layout here, and raises NonHomogeneous when it admits
    none.  No bound is held: a graded kernel takes its degree window as an
    argument, so one factorization serves every window.
    """

    def __init__(self, rho: Matrix):
        ring = rho.ring
        self.ring = ring
        self.span = None
        self._transpose = None
        self._slices: dict[int, tuple] = {}
        self._ranks: dict[int, int] = {}
        if isinstance(ring, FiniteLocalRing):
            cols, height = _flatten_columns(rho)
            self.span = _zn.SpanSolver(cols, ring.n, height)
        else:
            rho = infer_degrees(rho)
        self.rho = rho

    def _slice(self, d: int) -> tuple[list[dict[int, int]], int]:
        if d not in self._slices:
            self._slices[d] = slice_matrix(self.rho, d)
        return self._slices[d]

    def solve(self, rhs: Matrix) -> Matrix | None:
        """Exact solution X of rho * X = rhs, or None when none exists.

        Every answer is exact, on both backends.  A graded rhs column must
        be homogeneous against rho's row layout, else NonHomogeneous.
        """
        rho, ring = self.rho, self.ring
        if rhs.ring.key != ring.key:
            raise TotrefError("matrix from a different ring")
        if rho.nrows != rhs.nrows:
            raise DimensionMismatch("right hand side has wrong height")
        if self.span is not None:
            out_cols = []
            for k in range(rhs.ncols):
                x = self.span.solve(_flatten_vector(
                    ring, [rhs.entries[i][k] for i in range(rhs.nrows)]))
                if x is None:
                    return None
                out_cols.append(_unflatten_vector(ring, x, rho.ncols))
            return Matrix._trusted(ring, list(zip(*out_cols)))
        return self._solve_graded(rhs)

    def _solve_graded(self, rhs: Matrix) -> Matrix | None:
        """Solve degree by degree, on rho's slice of each column's degree."""
        rho, ring = self.rho, self.ring
        if rhs.row_degs is not None and rhs.row_degs != rho.row_degs:
            raise DimensionMismatch("right hand side lives in a different "
                                    "twist of the codomain")
        out_columns = []
        out_degs = []
        for k in range(rhs.ncols):
            column = [row[k] for row in rhs.entries]
            u = _column_degree(rho.row_degs, column, k)
            if u is None:
                out_columns.append([ring.zero()] * rho.ncols)
                out_degs.append(rho.col_degs[0])
                continue
            target = matrix_column_to_slice(ring, column, rho.row_degs, u)
            sol = _fp.solve(*self._slice(u), target, ring.p)
            if sol is None:
                return None
            col = slice_vector_to_matrix(ring, sol, rho.col_degs, u)
            out_columns.append([row[0] for row in col.entries])
            out_degs.append(u)
        rows = [[out_columns[k][j] for k in range(rhs.ncols)]
                for j in range(rho.ncols)]
        return Matrix._trusted(ring, rows, rho.col_degs, out_degs)

    def kernel(self, bound: int | None = None) -> list[Matrix]:
        """Generators of ker(rho) as element columns.

        Finite backend: a complete generating set, computed exhaustively.
        Graded backend: homogeneous generators of all kernel elements in
        twisted degrees up to ``bound``, starting from the smallest column
        twist.  Each slice is kept for the questions that follow.
        """
        return self._kernel(bound, keep=True)

    def _kernel(self, bound: int | None, keep: bool) -> list[Matrix]:
        ring, rho = self.ring, self.rho
        if self.span is not None:
            return [Matrix._trusted(ring, [[e] for e in _unflatten_vector(
                ring, vec, rho.ncols)])
                for vec in self.span.kernel_rows]
        gens: list[Matrix] = []
        for d in range(min(rho.col_degs), degree_bound(bound) + 1):
            if not _twist_layout(ring, rho.col_degs, d)[2]:
                continue
            # the degree-d multiples of the earlier generators, held side by
            # side as rho.col_degs -> their degrees, lie in K_d; only the
            # kernel basis vectors off their span are built
            span = functools.partial(_free_span, held, d) if gens else None
            rows, width = self._slice(d) if keep else slice_matrix(rho, d)
            kern, self._ranks[d] = _fp.kernel(rows, width, ring.p, span)
            if kern:
                gens += [slice_vector_to_matrix(ring, vec, rho.col_degs, d)
                         for vec in kern]
                held = hstack(gens)
        return gens

    def outside(self, columns) -> Matrix | None:
        """The first of ``columns`` that does not solve, or None."""
        return next((col for col in columns if self.solve(col) is None),
                    None)

    def transpose(self) -> "Factored":
        """rho^T, factored when first asked and held for later questions."""
        if self._transpose is None:
            self._transpose = Factored(self.rho.transpose())
        return self._transpose


def solve_right(rho: Matrix, rhs: Matrix) -> Matrix | None:
    """``Factored(rho).solve(rhs)``, for a matrix solved once."""
    return Factored(rho).solve(rhs)


def kernel_gens(rho: Matrix, bound: int | None = None) -> list[Matrix]:
    """``Factored(rho).kernel(bound)``, for a matrix asked nothing else:
    no slice is kept past its degree, so memory holds one at a time."""
    return Factored(rho)._kernel(bound, keep=False)


def _column_degree(row_degs, column, k: int) -> int | None:
    """Twist of column k against the row layout row_degs; None if zero."""
    deg = None
    for i, e in enumerate(column):
        if e.is_zero:
            continue
        if not e.is_homogeneous():
            raise NonHomogeneous(f"column {k} of the right hand side is "
                                 "not homogeneous")
        want = e.degree() + row_degs[i]
        if deg is None:
            deg = want
        elif deg != want:
            raise NonHomogeneous(f"column {k} of the right hand side has "
                                 "inconsistent degrees")
    return deg


def column_span_size(mat: Matrix) -> int:
    """Cardinality of the column span, finite backend only."""
    return _zn.span_size(_flatten_columns(mat)[0], mat.ring.n)


def slice_rank(mat: Matrix, d: int) -> int:
    """Rank over F_p of the degree-d slice of ``mat``."""
    return _fp.rank(slice_matrix(mat, d)[0], mat.ring.p)


# ---------------------------------------------------------------------------
# ideals

def ideal_membership(row: Factored, e):
    """Decide e in I, for ``row`` the factored 1 x g row of I's generators;
    on success also return the witness coefficients, one per generator.

    Every answer is exact.  On the graded backend e is solved for one
    homogeneous component per column.
    """
    ring = row.ring
    rhs = Matrix(ring, [[e]])
    if row.span is None:
        parts = list(e.homogeneous_components().values()) or [e]
        rhs = Matrix(ring, [parts])
    solution = row.solve(rhs)
    if solution is None:
        return False, None
    witnesses = [sum(entries, ring.zero()) for entries in solution.entries]
    _check_witnesses(ring, e, witnesses, row.rho.entries[0])
    return True, witnesses


def _check_witnesses(ring, e, witnesses, gens) -> None:
    """Raise unless sum witnesses[i] * gens[i] reproduces e."""
    total = ring.zero()
    for c, g in zip(witnesses, gens):
        total = total + c * g
    if total != e:
        raise TotrefError("ideal membership witnesses do not reproduce "
                          f"{ring.format(e)}")


# ---------------------------------------------------------------------------
# homology and exactness

def _with_middle(incoming: Matrix, outgoing: Matrix):
    """Both maps with degree layouts that agree on the middle module."""
    incoming, outgoing = infer_degrees(incoming), infer_degrees(outgoing)
    if outgoing.col_degs != incoming.row_degs:
        raise DimensionMismatch("middle twists disagree; supply explicit "
                                "degree layouts")
    return incoming, outgoing


def homology(incoming: Matrix, outgoing: Matrix, rel_mid: Matrix,
             rel_out: Matrix, bound: int | None = None):
    """Sizes of the cycles Z and boundaries B at the shared middle module.

    Z is the v with outgoing * v in span(rel_out) and B is im(incoming),
    and both include span(rel_mid); Z does so because outgoing must carry
    span(rel_mid) into span(rel_out), as a map of presented modules does.
    Both backends count Z by rank-nullity: it is ker[outgoing | rel_out]
    cut to the middle coordinates, with fibres ker(rel_out).  Finite
    backend: (|Z|, |B|).  Graded backend: [d, dim Z_d, dim B_d] for each
    degree d from the lowest middle twist up to ``bound`` at which the
    middle slice is nonzero.  Raises NotAComplex where B cannot lie in Z.
    """
    incoming, outgoing = _with_middle(incoming, outgoing)
    ring = incoming.ring
    up = hstack([outgoing, rel_out])
    down = hstack([rel_mid, incoming])
    if isinstance(ring, FiniteLocalRing):
        held, spans, boundaries = map(column_span_size, (rel_out, up, down))
        cycles = ring.n ** (outgoing.ncols * ring.ext_degree) * held // spans
        if cycles % boundaries:
            raise NotAComplex(f"{boundaries} boundaries do not divide "
                              f"{cycles} cycles")
        return cycles, boundaries
    dims = []
    for d in range(min(outgoing.col_degs), degree_bound(bound) + 1):
        width = _twist_layout(ring, outgoing.col_degs, d)[2]
        if width:
            dims.append([d, width - slice_rank(up, d)
                         + slice_rank(rel_out, d), slice_rank(down, d)])
    if any(b > z for _, z, b in dims):
        raise NotAComplex("more boundaries than cycles in some degree")
    return dims


def check_exact_at(incoming, outgoing, bound: int | None = None,
                   name: str = "exactness") -> VerificationReport:
    """Certify ker(outgoing) = im(incoming) at the shared middle module.

    Either map may come as a ``Factored`` that the caller holds for other
    positions of a complex; a matrix is factored here.  Raises NotAComplex
    when the composite is nonzero.  Once it vanishes the image lies in the
    kernel, so the maps are exact when every generator of ker(outgoing)
    solves into im(incoming); the first one that does not is the witness.
    The finite backend's generators are complete; the graded backend's
    span the kernel in every twisted degree up to ``bound``, whether
    outgoing comes factored or not.
    """
    held_in, held_out = (m if isinstance(m, Factored) else None
                         for m in (incoming, outgoing))
    incoming, outgoing = (getattr(m, "rho", m) for m in (incoming, outgoing))
    if outgoing.ncols != incoming.nrows:
        raise DimensionMismatch("maps do not share a middle module")
    composite = outgoing * incoming
    if not composite.is_zero:
        raise NotAComplex(f"{name}: composite of consecutive maps is nonzero")
    incoming, outgoing = _with_middle(incoming, outgoing)
    gens = held_out.kernel(bound) if held_out \
        else kernel_gens(outgoing, bound)
    details = {"kernel_generators": len(gens)}
    witness = (held_in or Factored(incoming)).outside(gens) if gens else None
    if witness is not None:
        details["witness_in_kernel_not_image"] = repr(witness)
    return VerificationReport(name, FAIL if witness is not None else PASS,
                              scope_of(incoming.ring, bound), details)
