"""F_p elimination against the independent Gaussian elimination oracle.

The primes include 2^31 - 1 and 4294967311, where a product of two
residues, or a sum of a few, no longer fits in int64.  The cases are drawn
as dense arrays and handed to ``_fp`` as ``{column: entry}`` rows; vectors
come back as such dicts and are compared as dense columns.
"""

import numpy as np
from hypothesis import given, strategies as st

from oracles import dense_rows, rank_mod_p, sparse_rows
from totref import _fp

PRIMES = (2, 3, 5, 101, 2 ** 31 - 1, 4294967311)


def _matrix(columns, rows: int) -> np.ndarray:
    return np.array([[col[i] for col in columns] for i in range(rows)],
                    dtype=np.int64).reshape(rows, len(columns))


def _vector(column: np.ndarray) -> dict:
    """A one-column array as a ``{row: entry}`` vector."""
    return sparse_rows(column.T)[0]


def _dense(rows, shape) -> np.ndarray:
    return np.array(dense_rows(rows, *shape),
                    dtype=np.int64).reshape(shape)


def _columns(vectors, height: int) -> np.ndarray:
    """Vectors as the columns of a dense height x len(vectors) array."""
    return _dense(vectors, (len(vectors), height)).T


def _residues(rows, p: int) -> bool:
    """Every entry is a Python int in [0, p)."""
    return all(type(v) is int and 0 <= v < p
               for row in rows for v in row.values())


@st.composite
def span_and_candidates(draw):
    """(p, span, candidates) with columns mostly drawn from a low-rank span.

    Dependent columns are where wrapped arithmetic shows: a wrong residue
    makes a dependent column look independent.
    """
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, 6))
    held = draw(st.integers(0, 4))
    count = draw(st.integers(0, 6))
    rank = draw(st.integers(0, 4))
    rng = draw(st.randoms(use_true_random=False))
    basis = [[rng.randrange(p) for _ in range(rows)] for _ in range(rank)]

    def column():
        if not basis or rng.random() < 0.2:
            return [rng.randrange(p) for _ in range(rows)]
        coeffs = [rng.randrange(p) for _ in basis]
        return [sum(c * vec[i] for c, vec in zip(coeffs, basis)) % p
                for i in range(rows)]

    columns = [column() for _ in range(held + count)]
    return (p, _matrix(columns[:held], rows),
            _matrix(columns[held:], rows))


@given(span_and_candidates())
def test_extend_independent_picks_where_the_rank_grows(case):
    p, span, cand = case
    full = np.concatenate([span, cand], axis=1)
    held = span.shape[1]
    ranks = [rank_mod_p(full[:, :held + j].tolist(), p)
             for j in range(cand.shape[1] + 1)]
    expected = [j for j in range(cand.shape[1]) if ranks[j + 1] > ranks[j]]
    picked = _fp.extend_independent(sparse_rows(full), held, p)
    assert picked == expected
    # kernel's picks: with a span inside the kernel, exactly the basis
    # vectors that extend_independent picks after it; checked on a kernel
    # and on the identity basis of a zero-row matrix
    kern = _columns(_fp.kernel(sparse_rows(span.T), span.shape[0], p)[0],
                    span.shape[0])
    k = kern.shape[1]
    inside = np.array(kern, dtype=object) @ np.array(cand[:k], dtype=object)
    inside = (inside % p).astype(np.int64)
    for a, basis in ((span.T, kern),
                     (np.zeros((0, kern.shape[0]), dtype=np.int64),
                      np.eye(kern.shape[0], dtype=np.int64))):
        full = np.concatenate([inside, basis], axis=1)
        ranks = [rank_mod_p(full[:, :inside.shape[1] + j].tolist(), p)
                 for j in range(basis.shape[1] + 1)]
        expected = [j for j in range(basis.shape[1])
                    if ranks[j + 1] > ranks[j]]
        vectors, _ = _fp.kernel(sparse_rows(a), a.shape[1], p,
                                lambda free: sparse_rows(inside[free[::-1]].T))
        assert _residues(vectors, p)
        picked = _columns(vectors, a.shape[1])
        assert np.array_equal(picked, basis[:, expected])


@st.composite
def sparse_matrices(draw):
    """(p, a): up to 12 x 12, from one nonzero per row to dense."""
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 12))
    density = draw(st.sampled_from((0.0, 0.05, 0.2, 0.5, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    a = [[rng.randrange(1, p) if rng.random() < density else 0
          for _ in range(cols)] for _ in range(rows)]
    if density == 0.0:
        # monomial-sparse: at most one nonzero entry per row
        for row in a:
            if cols and rng.random() < 0.8:
                row[rng.randrange(cols)] = rng.randrange(1, p)
    return p, np.array(a, dtype=np.int64).reshape(rows, cols)


@given(sparse_matrices())
def test_rref_is_the_reduced_row_echelon_form(case):
    p, a = case
    reduced, pivots = _fp.rref(sparse_rows(a), p)
    red = _dense(reduced, a.shape)
    assert red.shape == a.shape
    rank = len(pivots)
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert not np.any(red[i, :c])
        assert red[i, c] == 1
        column = [int(v) for v in red[:, c]]
        assert column == [int(r == i) for r in range(a.shape[0])]
    assert not np.any(red[rank:])
    assert np.all((red >= 0) & (red < p))
    rows = a.tolist()
    assert rank_mod_p(rows, p) == rank
    assert rank_mod_p(red.tolist(), p) == rank
    assert rank_mod_p(rows + red.tolist(), p) == rank


@given(span_and_candidates())
def test_kernel_columns_are_a_kernel_basis(case):
    p, _, a = case
    vectors, eliminated = _fp.kernel(sparse_rows(a), a.shape[1], p)
    basis = _columns(vectors, a.shape[1])
    rank = rank_mod_p(a.tolist(), p)
    assert eliminated == rank
    assert basis.shape == (a.shape[1], a.shape[1] - rank)
    product = np.array(a, dtype=object) @ np.array(basis, dtype=object)
    assert not np.any(product % p)
    assert rank_mod_p(basis.tolist(), p) == basis.shape[1]
    assert _fp.rank(sparse_rows(a), p) == rank


@given(span_and_candidates())
def test_solve_agrees_with_the_rank_test(case):
    p, b, a = case
    if not b.shape[1]:
        return
    x = _fp.solve(sparse_rows(a), a.shape[1], _vector(b[:, :1]), p)
    solvable = rank_mod_p(np.concatenate([a, b[:, :1]], axis=1).tolist(),
                          p) == rank_mod_p(a.tolist(), p)
    assert (x is not None) == solvable
    if x is not None:
        x = _columns([x], a.shape[1])
        residual = np.array(a, dtype=object) @ np.array(x, dtype=object)
        assert not np.any((residual - b[:, :1]) % p)


# the exact forms below are what kernel_gens picks generators from, and the
# run_family JSON prints those generators

@given(sparse_matrices())
def test_kernel_and_solve_are_read_off_the_rref(case):
    p, a = case
    reduced, pivots = _fp.rref(sparse_rows(a), p)
    assert _residues(reduced, p)
    red = _dense(reduced, a.shape)
    rows, n = a.shape
    free = [c for c in range(n) if c not in pivots]
    if n:
        expected = np.zeros((n, len(free)), dtype=red.dtype)
        expected[free, range(len(free))] = 1
        expected[pivots] = -red[:len(pivots)][:, free] % p
        vectors, _ = _fp.kernel(sparse_rows(a), n, p)
        assert _residues(vectors, p)
        basis = _columns(vectors, n)
        assert np.array_equal(basis, expected)
        # a = [a' | b]: solve(a', b) reads x off the same RREF
        x = _fp.solve(sparse_rows(a[:, :-1]), n - 1, _vector(a[:, -1:]), p)
        if pivots and pivots[-1] == n - 1:
            assert x is None
        else:
            expected = np.zeros((n - 1, 1), dtype=red.dtype)
            expected[pivots] = red[:len(pivots), n - 1:]
            assert _residues([x], p)
            assert np.array_equal(_columns([x], n - 1), expected)


def _answers(a, p):
    """What every entry point answers on a, split as [a' | b] for the pairs."""
    n = a.shape[1]
    rows = sparse_rows(a)
    out = [_fp.rref(rows, p), _fp.rank(rows, p), _fp.kernel(rows, n, p),
           _fp.extend_independent(rows, n // 2, p)]
    if n:
        out.append(_fp.solve(sparse_rows(a[:, :-1]), n - 1,
                             _vector(a[:, -1:]), p))
    return out


def _same(x, y):
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, dict):
        return x == y and all(type(v) is int for v in x.values())
    return x == y


@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_entries_are_read_mod_p(case, rng):
    """a + p k answers as a does, with negative and vanishing entries."""
    p, a = case
    k = np.array([[rng.randrange(-3, 4) for _ in range(a.shape[1])]
                  for _ in range(a.shape[0])], dtype=np.int64)
    k = k.reshape(a.shape)
    shifted = a + p * k
    assert _same(_answers(shifted, p), _answers(a, p))
