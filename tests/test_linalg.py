"""Matrices over both backends: solving, kernels, span sizes, exactness."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import span_closure
from totref import linalg
from totref.errors import DimensionMismatch, NotAComplex, TotrefError
from totref.family import eta, gamma
from totref.linalg import (Matrix, check_exact_at, column_span_size,
                           hstack, ideal_membership, kernel_gens, kron,
                           solve_right)
from totref.rings import FiniteLocalRing


def mat_z9(z9, rows):
    return Matrix(z9, [[z9.from_int(v) for v in row] for row in rows])


def test_matrix_basic_algebra(z9):
    a = mat_z9(z9, [[1, 2], [3, 4]])
    b = mat_z9(z9, [[0, 1], [1, 0]])
    assert (a * b).entries == mat_z9(z9, [[2, 1], [4, 3]]).entries
    assert (a + b).entries == mat_z9(z9, [[1, 3], [4, 4]]).entries
    assert (a - a).is_zero
    assert a.transpose().entries == mat_z9(z9, [[1, 3], [2, 4]]).entries
    ident = Matrix.identity(z9, 2)
    assert (a * ident).entries == a.entries


def test_matrix_shape_errors(z9):
    a = mat_z9(z9, [[1, 2]])
    b = mat_z9(z9, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        a * b


def test_matrix_entries_must_come_from_the_ring(z9):
    # an equal ring built again is the same ring; a plain int is no entry
    assert Matrix(FiniteLocalRing(3, 2), [[z9.one()]]).entries == \
        ((z9.one(),),)
    for rows in ([[1]], [[z9.one(), 3]], [[FiniteLocalRing(2, 3).one()]]):
        with pytest.raises(TotrefError, match="entry from a different ring"):
            Matrix(z9, rows)


def test_hstack(z9):
    a = mat_z9(z9, [[1], [2]])
    b = mat_z9(z9, [[3], [4]])
    assert hstack([a, b]).entries == mat_z9(z9, [[1, 3], [2, 4]]).entries


@given(st.sampled_from((FiniteLocalRing(3, 2),
                        FiniteLocalRing(2, 2, "t", (0, 0)))), st.data())
def test_kron_entries_and_mixed_product(ring, data):
    carrier = list(ring.enumerate_carrier())
    m, n, k, l, r, s = (data.draw(st.integers(1, 3)) for _ in range(6))

    def matrix(rows, cols):
        return Matrix(ring, [[data.draw(st.sampled_from(carrier))
                              for _ in range(cols)] for _ in range(rows)])

    a, b, c, d = matrix(m, n), matrix(k, l), matrix(n, r), matrix(l, s)
    ab = kron(a, b)
    assert ab.shape == (m * k, n * l)
    for i, i2, j, j2 in itertools.product(range(m), range(k), range(n),
                                          range(l)):
        assert ab.entries[i * k + i2][j * l + j2] == \
            a.entries[i][j] * b.entries[i2][j2]
    # (A (x) B)(C (x) D) = AC (x) BD
    assert ab * kron(c, d) == kron(a * c, b * d)


def test_kron_adds_twist_layouts(pair_f5):
    ring = pair_f5.ring
    rho1 = gamma(pair_f5, ring.parse("z^2"))
    s2 = eta(pair_f5, ring.parse("z^3")).row_degs
    assert rho1.row_degs == (0, 1) and s2 == (0, 2)
    # the Hom lifting block: twists s2[i] - col_degs[j] by s2[i] - s1[k]
    block = kron(Matrix.identity(ring, 2, s2), rho1.transpose())
    assert block.row_degs == (-1, -2, 1, 0)
    assert block.col_degs == (0, -1, 2, 1)
    assert kron(Matrix.identity(ring, 2), rho1).row_degs is None


def test_column_span_size_matches_closure_oracle(z9):
    cases = [[[3, 1], [0, 3]], [[3, 0], [0, 3]], [[1, 0], [0, 1]],
             [[3, 6], [3, 3]], [[0, 0], [0, 0]]]
    for rows in cases:
        mat = mat_z9(z9, rows)
        cols = [tuple(row[j] for row in rows) for j in range(2)]
        assert column_span_size(mat) == len(span_closure(cols, 9)), rows


def test_solve_right_finite_known_instance(z9):
    rho = mat_z9(z9, [[3, 1], [0, 3]])
    rhs = mat_z9(z9, [[4], [3]])  # rho * (1, 1)
    sol = solve_right(rho, rhs)
    assert sol is not None
    assert (rho * sol - rhs).is_zero


def test_solve_right_reports_unsolvable(z9):
    rho = mat_z9(z9, [[3, 0], [0, 3]])
    rhs = mat_z9(z9, [[1], [0]])
    assert solve_right(rho, rhs) is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=4, max_size=4),
       st.lists(st.integers(0, 8), min_size=4, max_size=4))
def test_solve_right_finds_constructed_solutions(avals, xvals):
    z9 = FiniteLocalRing(3, 2)
    a = mat_z9(z9, [avals[:2], avals[2:]])
    x = mat_z9(z9, [xvals[:2], xvals[2:]])
    rhs = a * x
    sol = solve_right(a, rhs)
    assert sol is not None
    assert (a * sol - rhs).is_zero


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=6, max_size=6))
def test_kernel_gens_annihilate_and_are_complete(vals):
    z9 = FiniteLocalRing(3, 2)
    a = mat_z9(z9, [vals[:3], vals[3:]])
    gens = kernel_gens(a)
    for g in gens:
        assert (a * g).is_zero
    # completeness: count kernel vectors two ways
    brute = 0
    for v0 in range(9):
        for v1 in range(9):
            for v2 in range(9):
                img = [(vals[0] * v0 + vals[1] * v1 + vals[2] * v2) % 9,
                       (vals[3] * v0 + vals[4] * v1 + vals[5] * v2) % 9]
                if img == [0, 0]:
                    brute += 1
    if gens:
        assert column_span_size(hstack(gens)) == brute
    else:
        assert brute == 1


# Z/27, Z/8, Z/4[t]/(t^2) and Z/3[t]/(t^2)
FLATTEN_RINGS = (FiniteLocalRing(3, 3), FiniteLocalRing(2, 3),
                 FiniteLocalRing(2, 2, "t", (0, 0)),
                 FiniteLocalRing(3, 1, "t", (0, 0)))


@settings(max_examples=40)
@given(st.sampled_from(FLATTEN_RINGS), st.integers(1, 3), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_flatten_columns_are_the_multiplication_blocks(ring, m, n, rng):
    """Each entry flattens to its block of mult_columns, down the column."""
    d = ring.ext_degree
    mat = Matrix(ring, [[ring.element([rng.randrange(ring.n)
                                       for _ in range(d)])
                         for _ in range(n)] for _ in range(m)])
    expected = []
    for j in range(n):
        blocks = [ring.mult_columns(mat.entries[i][j]) for i in range(m)]
        expected += [[v for block in blocks for v in block[t]]
                     for t in range(d)]
    assert linalg._flatten_columns(mat) == (expected, m * d)


def test_check_exact_at_accepts_periodic_pair(pair_z9):
    g = gamma(pair_z9, pair_z9.ring.from_int(1))
    e = eta(pair_z9, pair_z9.ring.from_int(1))
    rep = check_exact_at(e, g)
    assert rep.passed
    assert rep.details["kernel_size"] == rep.details["image_size"]


def test_check_exact_at_rejects_nonzero_composite(z9):
    a = mat_z9(z9, [[3]])
    b = mat_z9(z9, [[1]])
    with pytest.raises(NotAComplex):
        check_exact_at(b, a)


def test_check_exact_at_detects_inexactness(z9):
    # 3*3 = 0 but ker(0) is everything while im(3) is not
    zero = mat_z9(z9, [[0]])
    three = mat_z9(z9, [[3]])
    rep = check_exact_at(three, zero)
    assert not rep.passed


# -- graded layouts ---------------------------------------------------------

def test_graded_solve_right_round_trip(pair_f5):
    ring = pair_f5.ring
    g = gamma(pair_f5, ring.parse("z"))
    x = Matrix(ring, [[ring.parse("z")], [ring.parse("x")]],
               row_degs=g.col_degs, col_degs=(2,))
    rhs = g * x
    sol = solve_right(g, rhs, 8)
    assert sol is not None
    assert (g * sol - rhs).is_zero


def test_graded_kernel_gens_annihilate(pair_f5):
    ring = pair_f5.ring
    g = gamma(pair_f5, ring.parse("z"))
    gens = kernel_gens(g, 8)
    assert gens, "periodic presentations have nontrivial kernels"
    for k in gens:
        assert (g * k).is_zero


def test_graded_exactness_certificate(pair_f5):
    from totref.family import periodic_resolution
    diffs = periodic_resolution(pair_f5, pair_f5.ring.parse("z"), 2)
    rep = check_exact_at(diffs[1], diffs[0], 8)
    assert rep.passed
    assert rep.scope["mode"] == "degree"


def test_graded_membership_branches(f5, monkeypatch):
    windowed = []
    window = linalg._solve_right_window
    monkeypatch.setattr(linalg, "_solve_right_window",
                        lambda *args: windowed.append(args) or window(*args))
    # a homogeneous row is solved one component of e at a time, so the
    # window does not cap the witness degree; zero generators stay exact
    z = f5.parse("z")
    ok, wit = ideal_membership(f5, f5.parse("z^9 + z"), [z], 3)
    assert ok and [f5.format(w) for w in wit] == ["z^8 + 1"]
    ok, wit = ideal_membership(f5, f5.parse("z^9"), [f5.zero(), z], 3)
    assert ok and [f5.format(w) for w in wit] == ["0", "z^8"]
    assert not windowed
    # an inhomogeneous generator has no layout: the windowed search runs
    g = f5.parse("x + y^2")
    assert ideal_membership(f5, g, [g], 3) == (True, [f5.one()])
    assert windowed
