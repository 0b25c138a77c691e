"""Independent reference computations used to freeze expected values.

Everything here is written from scratch over plain Python integers, with
no imports from the package under test; only ``hom_count`` uses numpy, to
enumerate every candidate matrix at once.  Slow is fine, the inputs are
tiny.  Polynomials are dicts mapping exponent tuples to coefficients,
matrices are lists of rows.
"""

from __future__ import annotations

import itertools

import numpy as np


# ---------------------------------------------------------------------------
# Z/m side

def span_closure(columns, modulus: int) -> set:
    """All Z-linear combinations of the given integer vectors mod m."""
    height = len(columns[0]) if columns else 0
    zero = (0,) * height
    seen = {zero}
    frontier = [zero]
    gens = [tuple(int(c) % modulus for c in col) for col in columns]
    while frontier:
        base = frontier.pop()
        for gen in gens:
            nxt = tuple((b + c) % modulus for b, c in zip(base, gen))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def matrix_columns(rows) -> list:
    return [tuple(row[j] for row in rows) for j in range(len(rows[0]))]


def coker_size(modulus: int, rows) -> int:
    """|Z/m^g / colspan(rho)| for rho given as a list of g rows."""
    ngens = len(rows)
    return modulus ** ngens // len(span_closure(matrix_columns(rows),
                                                modulus))


def annihilator(modulus: int, x: int) -> list:
    return [a for a in range(modulus) if (a * x) % modulus == 0]


# ---------------------------------------------------------------------------
# A = (Z/m)[t]/(t^d - sum_i reduction[i] t^i), elements as coefficient
# tuples (c_0 .. c_(d-1)); d = 1 with an empty reduction is Z/m itself

def ext_mul(modulus: int, reduction, a, b) -> tuple:
    d = len(a)
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):  # t^k = t^(k-d) * t^d
        for i, r in enumerate(reduction):
            prod[k - d + i] += prod[k] * r
    return tuple(v % modulus for v in prod[:d])


def module_kernel(modulus: int, reduction, rows) -> set:
    """ker of the matrix ``rows`` of coefficient tuples over A, by trying
    every vector of A^n; each vector is its flattened coefficients."""
    d = len(rows[0][0])
    carrier = list(itertools.product(range(modulus), repeat=d))
    kernel = set()
    for vec in itertools.product(carrier, repeat=len(rows[0])):
        if all(not any(sum(ext_mul(modulus, reduction, e, v)[c]
                           for e, v in zip(row, vec)) % modulus
                       for c in range(d)) for row in rows):
            kernel.add(tuple(x for v in vec for x in v))
    return kernel


def module_image(modulus: int, reduction, rows) -> set:
    """im of the matrix ``rows`` over A: the Z-span of t^j times each
    column, flattened like module_kernel's vectors."""
    d = len(rows[0][0])
    powers = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    columns = [tuple(x for row in rows
                     for x in ext_mul(modulus, reduction, t_j, row[k]))
               for k in range(len(rows[0])) for t_j in powers]
    return span_closure(columns, modulus)


def hom_count(modulus: int, rho1, rho2) -> int:
    """|Hom(Coker rho1, Coker rho2)| by direct enumeration.

    A homomorphism is a class of q2 x q1 matrices psi with every column
    of psi rho1 landing in colspan(rho2); two classes agree when they
    differ by a matrix with all columns in colspan(rho2).  All m^(q2 q1)
    matrices psi are enumerated at once as a numpy array, and a column
    is looked up in colspan(rho2) by its base-m code.
    """
    q1, q2 = len(rho1), len(rho2)
    span2 = span_closure(matrix_columns(rho2), modulus)
    in_span = np.zeros(modulus ** q2, dtype=bool)
    for col in span2:
        in_span[sum(c * modulus ** i for i, c in enumerate(col))] = True
    psi = np.indices((modulus,) * (q2 * q1)).reshape(q2, q1, -1)
    # images[i, j, t] = (psi_t rho1)[i, j]
    images = np.einsum("ikt,kj->ijt", psi, np.array(rho1)) % modulus
    codes = np.einsum("ijt,i->jt", images, modulus ** np.arange(q2))
    lifting = int(np.count_nonzero(in_span[codes].all(axis=0)))
    return lifting // (len(span2) ** q1)


# ---------------------------------------------------------------------------
# graded side: F_p[vars] modulo a monomial ideal

def exponents(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in exponents(total - head, parts - 1):
            yield (head,) + tail


class MonomialQuotientOracle:
    """F_p[x_1..x_n]/(monomials), dense by degree."""

    def __init__(self, p: int, nvars: int, forbidden):
        self.p = p
        self.nvars = nvars
        self.forbidden = [tuple(f) for f in forbidden]

    def allowed(self, exp) -> bool:
        return not any(all(e >= f for e, f in zip(exp, mono))
                       for mono in self.forbidden)

    def basis(self, degree: int) -> list:
        if degree < 0:
            return []
        return sorted(exp for exp in exponents(degree, self.nvars)
                      if self.allowed(exp))

    def mul(self, poly1: dict, poly2: dict) -> dict:
        out: dict = {}
        for e1, c1 in poly1.items():
            for e2, c2 in poly2.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                if self.allowed(exp):
                    out[exp] = (out.get(exp, 0) + c1 * c2) % self.p
        return {e: c for e, c in out.items() if c}

    def add(self, poly1: dict, poly2: dict) -> dict:
        out = dict(poly1)
        for exp, c in poly2.items():
            out[exp] = (out.get(exp, 0) + c) % self.p
        return {e: c for e, c in out.items() if c}

    def ring_dimension(self, degree: int) -> int:
        return len(self.basis(degree))


def parse_poly(text: str, variables) -> dict:
    """The polynomial of a canonically printed graded element, such as
    ``2*x*y^2 + z``."""
    poly: dict = {}
    if text == "0":
        return poly
    for term in text.split(" + "):
        coeff, exp = 1, [0] * len(variables)
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            if name.isdigit():
                coeff = int(name)
            else:
                exp[variables.index(name)] += int(power or 1)
        poly[tuple(exp)] = coeff
    return poly


def poly_text(poly: dict, variables) -> str:
    """The polynomial written as a sum of ``c*x^k`` terms."""
    terms = [f"{c}" + "".join(f"*{v}^{k}" for v, k in zip(variables, exp)
                               if k)
             for exp, c in sorted(poly.items())]
    return " + ".join(terms) or "0"


def sparse_rows(matrix) -> list:
    """The rows of a dense matrix as ``{column: entry}`` dicts of Python
    integers, holding every entry that is not 0 as it is, unreduced."""
    return [{j: int(v) for j, v in enumerate(row) if v} for row in matrix]


def dense_rows(rows, height: int, width: int) -> list:
    """The dense ``height`` x ``width`` matrix with the given
    ``{column: entry}`` rows on top and zero rows below them."""
    out = [[0] * width for _ in range(height)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[i][j] = v
    return out


def rank_mod_p(rows, p: int) -> int:
    """Gaussian elimination over F_p on a list-of-rows integer matrix."""
    mat = [[val % p for val in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(v - factor * w) % p
                          for v, w in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def slice_rows(oracle: MonomialQuotientOracle, rho, row_degs, col_degs,
               degree: int) -> list:
    """Degree-``degree`` slice of a matrix of dict-polynomials, as rows.

    Row i of the free target sits in degree row_degs[i], column j of the
    free source in degree col_degs[j].  Slice rows are the pairs (i,
    monomial) and slice columns the pairs (j, monomial), each in
    oracle.basis order.
    """
    target = [(i, mono) for i, rdeg in enumerate(row_degs)
              for mono in oracle.basis(degree - rdeg)]
    source = [(j, mono) for j, cdeg in enumerate(col_degs)
              for mono in oracle.basis(degree - cdeg)]
    index = {key: pos for pos, key in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for pos, (j, mono) in enumerate(source):
        shift = {mono: 1}
        for i in range(len(row_degs)):
            image = oracle.mul(rho[i][j], shift)
            for exp, coeff in image.items():
                rows[index[(i, exp)]][pos] = coeff
    return rows


def coker_dimension(oracle: MonomialQuotientOracle, rho, row_degs,
                    col_degs, degree: int) -> int:
    """dim_Fp of (coker rho)_degree for a matrix of dict-polynomials."""
    rows = slice_rows(oracle, rho, row_degs, col_degs, degree)
    return len(rows) - rank_mod_p(rows, oracle.p)


def coker_hilbert(oracle: MonomialQuotientOracle, rho, row_degs, col_degs,
                  top: int) -> list:
    return [coker_dimension(oracle, rho, row_degs, col_degs, d)
            for d in range(top + 1)]


def ext_size(modulus: int, diffs, rho_n, i: int) -> int:
    """|Ext^i(Coker d_1, Coker rho_n)| over Z/m from a free resolution.

    ``diffs`` lists d_1, d_2, ... as integer rows, d_j mapping F_j to
    F_(j-1), and must reach d_(i+1).  Ext^i is the cohomology of
    Hom(F_., N) at F_i.  Its cycles are the maps F_i -> N that kill the
    image of d_(i+1), that is Hom(Coker d_(i+1), N).  Its boundaries are
    the classes of v d_i modulo the columns of rho_n, for v running over
    the matrices F_(i-1) -> A^g; they are counted as the span of the
    products E_rc d_i with the matrix units E_rc, beside the relation
    block of F_i copies of the columns of rho_n.
    """
    cycles = hom_count(modulus, diffs[i], rho_n)
    d_i = diffs[i - 1]
    g, rank = len(rho_n), len(d_i[0])

    def flat(matrix):
        return tuple(v for row in matrix for v in row)

    products = [flat([d_i[c] if s == r else [0] * rank for s in range(g)])
                for r in range(g) for c in range(len(d_i))]
    relations = [flat([[col[s] if k == t else 0 for t in range(rank)]
                       for s in range(g)])
                 for col in matrix_columns(rho_n) for k in range(rank)]
    held = len(span_closure(relations, modulus))
    boundaries = len(span_closure(products + relations, modulus)) // held
    return cycles // boundaries
