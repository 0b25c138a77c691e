"""Matrices over both backends: solving, kernels, span sizes, exactness."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (MonomialQuotientOracle, ext_mul, module_image,
                     module_kernel, parse_poly, rank_mod_p, slice_rows,
                     span_closure)
from totref import homcalc, linalg
from totref.errors import (DimensionMismatch, NonHomogeneous, NotAComplex,
                           TotrefError)
from totref.family import eta, gamma, periodic_resolution
from totref.linalg import (Matrix, check_exact_at, column_span_size,
                           hstack, ideal_membership, infer_degrees,
                           kernel_gens, kron, slice_vector_to_matrix,
                           solve_right)
from totref.modules import PresentedModule
from totref.rings import (FiniteElement, FiniteLocalRing, GradedElement,
                          GradedMonomialRing)
from totref.zerodiv import exact_pair


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
                        FiniteLocalRing(2, 2, "t", 2))), st.data())
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


def test_solve_right_refuses_a_foreign_right_hand_side(z9, z8):
    # a Z/8 entry's coordinates are no Z/9 residues
    with pytest.raises(TotrefError, match="matrix from a different ring"):
        solve_right(mat_z9(z9, [[3]]), Matrix(z8, [[z8.from_int(6)]]))


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
                 FiniteLocalRing(2, 2, "t", 2),
                 FiniteLocalRing(3, 1, "t", 2))


@settings(max_examples=40)
@given(st.sampled_from(FLATTEN_RINGS), st.integers(1, 3), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_flatten_columns_are_the_multiplication_blocks(ring, m, n, rng):
    """Each entry flattens to its block of mult_columns, down the column."""
    d = ring.ext_degree
    mat = Matrix(ring, [[FiniteElement(ring, tuple(rng.randrange(ring.n)
                                                   for _ in range(d)))
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
    # ker(gamma_1) over Z/9 is the cyclic module on one generator
    assert rep.details == {"kernel_generators": 1}


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


def test_failing_finite_exactness_factors_each_map_once(factorizations):
    # Z/27 with the pair (9, 9) and a = 0: ker(0) has 81 elements and
    # im(9) only 9, at both interior positions of the G resolution; one
    # solver on outgoing gives the kernel generators, and the first of
    # them is already off the image, so one solve on incoming decides
    ring = FiniteLocalRing(3, 3)
    pair = exact_pair(ring, ring.parse("9"), ring.parse("9"))
    diffs = periodic_resolution(pair, ring.zero(), 3, "G")
    for i in (1, 2):
        built, _, rep = factorizations(
            lambda: check_exact_at(diffs[i], diffs[i - 1]))
        assert not rep.passed
        assert rep.details == {"kernel_generators": 2,
                               "witness_in_kernel_not_image": "[[3]; [0]]"}
        assert built == 2


def test_passing_finite_exactness_factors_each_map_once(factorizations):
    # Z/27 with the pair (3, 9) and a = 0: both kernel generators of the
    # outgoing map solve into the image, over one solver of the incoming map
    ring = FiniteLocalRing(3, 3)
    pair = exact_pair(ring, ring.parse("3"), ring.parse("9"))
    diffs = periodic_resolution(pair, ring.zero(), 3, "G")
    for i in (1, 2):
        built, _, rep = factorizations(
            lambda: check_exact_at(diffs[i], diffs[i - 1]))
        assert rep.passed
        assert rep.details == {"kernel_generators": 2}
        assert built == 2


# -- graded layouts ---------------------------------------------------------

def test_graded_solve_right_round_trip(pair_f5):
    ring = pair_f5.ring
    g = gamma(pair_f5, ring.parse("z"))
    x = Matrix(ring, [[ring.parse("z")], [ring.parse("x")]],
               row_degs=g.col_degs, col_degs=(2,))
    rhs = g * x
    sol = solve_right(g, rhs)
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


def test_graded_membership_branches(f5):
    # a homogeneous row is solved one component of e at a time, so no
    # window caps the witness degree; zero generators stay exact
    def member(e, gens):
        return ideal_membership(PresentedModule.quotient(f5, gens).relations,
                                e)

    z = f5.parse("z")
    ok, wit = member(f5.parse("z^9 + z"), [z])
    assert ok and [f5.format(w) for w in wit] == ["z^8 + 1"]
    ok, wit = member(f5.parse("z^9"), [f5.zero(), z])
    assert ok and [f5.format(w) for w in wit] == ["0", "z^8"]
    # an inhomogeneous generator has no layout: it is refused
    g = f5.parse("x + y^2")
    with pytest.raises(NonHomogeneous):
        member(g, [g])


def test_graded_data_without_a_layout_is_refused_even_with_a_bound(f5):
    # a bound used to send such data to a truncated search; an
    # inhomogeneous entry and homogeneous entries whose twists conflict
    # are both refused, whether a bound is given or not
    x, y, z = (f5.parse(v) for v in "xyz")
    rhs = Matrix(f5, [[x], [y]])
    for rho in (Matrix(f5, [[f5.parse("x + y^2"), z], [y, x]]),
                Matrix(f5, [[x, y * y], [y, x]])):
        for bound in (None, 3):
            with pytest.raises(NonHomogeneous):
                linalg.Factored(rho).kernel(bound)
            with pytest.raises(NonHomogeneous):
                kernel_gens(rho, bound)
        with pytest.raises(NonHomogeneous):
            solve_right(rho, rhs)


# F_5[x,y,z]/(xy) and F_3[x,y]/(x^2, y^2), each beside its oracle
GRADED_CASES = ((GradedMonomialRing(5, ("x", "y", "z"), ((1, 1, 0),)),
                 MonomialQuotientOracle(5, 3, [(1, 1, 0)])),
                (GradedMonomialRing(3, ("x", "y"), ((2, 0), (0, 2))),
                 MonomialQuotientOracle(3, 2, [(2, 0), (0, 2)])))


def _graded_entry(ring, oracle, degree, rng):
    """A random element of the given degree, as (element, oracle dict)."""
    poly = {exp: rng.randrange(oracle.p) for exp in oracle.basis(degree)
            if rng.random() < 0.5}
    poly = {exp: c for exp, c in poly.items() if c}
    element = ring.zero()
    for exp, c in poly.items():
        element = element + ring.monomial_element(exp, c)
    return element, poly


def _graded_matrix(ring, oracle, row_degs, col_degs, rng):
    """A random homogeneous matrix, as (Matrix, rows of oracle dicts)."""
    m, n = len(row_degs), len(col_degs)
    polys = [[{} for _ in range(n)] for _ in range(m)]
    rows = [[ring.zero()] * n for _ in range(m)]
    for i, j in itertools.product(range(m), range(n)):
        if rng.random() < 0.8:
            rows[i][j], polys[i][j] = _graded_entry(
                ring, oracle, col_degs[j] - row_degs[i], rng)
    return Matrix(ring, rows, row_degs, col_degs), polys


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(GRADED_CASES), st.integers(1, 2), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_graded_kernel_gens_match_the_oracle(case, m, n, rng):
    ring, oracle = case
    bound = 4
    row_degs = [rng.randrange(2) for _ in range(m)]
    col_degs = [rng.randrange(3) for _ in range(n)]
    rho, polys = _graded_matrix(ring, oracle, row_degs, col_degs, rng)
    gens = [([dict(g.entries[j][0].terms) for j in range(n)], g.col_degs[0])
            for g in kernel_gens(rho, bound)]

    def source(d):
        return [(j, mono) for j in range(n)
                for mono in oracle.basis(d - col_degs[j])]

    def multiples(d, chosen):
        """Coordinates of the degree-d multiples of the chosen generators."""
        index = {key: pos for pos, key in enumerate(source(d))}
        out = []
        for vec, e in chosen:
            for mono in oracle.basis(d - e):
                row = [0] * len(index)
                for j, poly in enumerate(vec):
                    for exp, c in oracle.mul({mono: 1}, poly).items():
                        row[index[(j, exp)]] = c
                out.append(row)
        return out

    for vec, _ in gens:
        for i in range(m):
            image = {}
            for j in range(n):
                image = oracle.add(image, oracle.mul(polys[i][j], vec[j]))
            assert not image
    for d in range(min(col_degs), bound + 1):
        system = slice_rows(oracle, polys, row_degs, col_degs, d)
        kernel_dim = len(source(d)) - rank_mod_p(system, oracle.p)
        assert rank_mod_p(multiples(d, gens), oracle.p) == kernel_dim
    # no generator is a combination of the others' multiples in its degree
    for k, (vec, e) in enumerate(gens):
        others = multiples(e, gens[:k] + gens[k + 1:])
        assert rank_mod_p(others + multiples(e, [(vec, e)]), oracle.p) \
            == rank_mod_p(others, oracle.p) + 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GRADED_CASES), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 5), st.randoms(use_true_random=False))
def test_slice_matrix_rows_match_the_oracle(case, m, n, d, rng):
    """slice_matrix's rows are oracles.slice_rows, once each twisted
    summand's monomials are put in the oracle's order."""
    ring, oracle = case
    row_degs = [rng.randrange(2) for _ in range(m)]
    col_degs = [rng.randrange(3) for _ in range(n)]
    rho, polys = _graded_matrix(ring, oracle, row_degs, col_degs, rng)
    rows, width = linalg.slice_matrix(rho, d)
    assert all(type(v) is int and 0 < v < ring.p
               for row in rows for v in row.values())

    def oracle_positions(degs):
        """The oracle's index of each slice coordinate of the ring."""
        index = {key: pos for pos, key in enumerate(
            (i, mono) for i, s in enumerate(degs)
            for mono in oracle.basis(d - s))}
        return [index[i, mono] for i, s in enumerate(degs)
                for mono in ring.basis(d - s)]

    row_at, col_at = oracle_positions(row_degs), oracle_positions(col_degs)
    assert (len(rows), width) == (len(row_at), len(col_at))
    permuted = [[0] * width for _ in rows]
    for r, row in enumerate(rows):
        for c, v in row.items():
            permuted[row_at[r]][col_at[c]] = v
    assert permuted == slice_rows(oracle, polys, row_degs, col_degs, d)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GRADED_CASES), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 5), st.randoms(use_true_random=False))
def test_free_span_is_the_sliced_span_on_the_free_rows(case, m, n, d, rng):
    """The span columns kernel picks against are the columns of
    slice_matrix(held, d) on the free rows, row free[j] at entry
    len(free) - 1 - j, with the columns that vanish there left out."""
    ring, oracle = case
    row_degs = [rng.randrange(3) for _ in range(m)]
    col_degs = [rng.randrange(3) for _ in range(n)]
    held, _ = _graded_matrix(ring, oracle, row_degs, col_degs, rng)
    rows, width = linalg.slice_matrix(held, d)
    free = sorted(rng.sample(range(len(rows)), rng.randint(0, len(rows))))
    last = len(free) - 1
    columns = [{last - j: rows[r][c] for j, r in enumerate(free)
                if c in rows[r]} for c in range(width)]
    expected = sorted(sorted(col.items()) for col in columns if col)
    got = sorted(sorted(col.items())
                 for col in linalg._free_span(held, d, free))
    assert got == expected


def test_graded_slices_beyond_int64():
    """Over F_p[x,y]/(xy) with p = 2^64 - 59, where residues pass int64,
    slice ranks and kernel generators match the oracle's ranks."""
    p = 2 ** 64 - 59
    ring = GradedMonomialRing(p, ("x", "y"), ((1, 1),))
    oracle = MonomialQuotientOracle(p, 2, [(1, 1)])
    rng = random.Random(64)
    row_degs, col_degs = [0, 1], [1, 2, 2]
    rho, polys = _graded_matrix(ring, oracle, row_degs, col_degs, rng)
    assert any(c >= 2 ** 63 for row in polys for poly in row
               for c in poly.values())
    bound = 5
    gens = kernel_gens(rho, bound)
    assert gens
    for gen in gens:
        assert (rho * gen).is_zero
    for d in range(bound + 1):
        system = slice_rows(oracle, polys, row_degs, col_degs, d)
        rank = rank_mod_p(system, p)
        assert linalg.slice_rank(rho, d) == rank
        # the degree-d multiples of the generators span the kernel slice
        held = [gen * ring.monomial_element(mono)
                for gen in gens for mono in ring.basis(d - gen.col_degs[0])]
        span = linalg.slice_rank(hstack(held), d) if held else 0
        width = linalg._twist_layout(ring, rho.col_degs, d)[2]
        assert span == width - rank


# the incoming map of an exactness check: all kernel generators of the
# outgoing map, all of them times a nonunit, or all but the one at an index
VARIANTS = st.sampled_from(("all", "times")) | st.integers(0, 5)


def _incoming(gens, variant, scale, zero_column):
    if variant == "times":
        gens = [g * scale for g in gens]
    elif variant != "all" and gens:
        gens = gens[:variant % len(gens)] + gens[variant % len(gens) + 1:]
    return hstack(gens) if gens else zero_column


def _column_of(ring, text: str) -> list:
    """The entries of a column from its repr, e.g. "[[3*x]; [x]; [0]]"."""
    return [ring.parse(part.strip("[] ")) for part in text.split(";")]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((FiniteLocalRing(3, 2), FiniteLocalRing(2, 3),
                        FiniteLocalRing(2, 2, "t", 2))),
       st.integers(1, 2), st.integers(1, 3),
       VARIANTS, st.data())
def test_finite_exactness_matches_the_oracle(ring, m, n, variant, data):
    carrier = list(ring.enumerate_carrier())
    outgoing = Matrix(ring, [[data.draw(st.sampled_from(carrier))
                              for _ in range(n)] for _ in range(m)])
    scale = ring.parse(ring.ext_var or str(ring.p))
    incoming = _incoming(kernel_gens(outgoing), variant, scale,
                         Matrix.zeros(ring, n, 1))
    rep = check_exact_at(incoming, outgoing)

    def coords(mat):
        return [[e.coords for e in row] for row in mat.entries]

    kernel = module_kernel(ring.n, (0,) * ring.ext_degree, coords(outgoing))
    image = module_image(ring.n, (0,) * ring.ext_degree, coords(incoming))
    assert image <= kernel
    assert rep.passed == (image == kernel)
    if not rep.passed:
        witness = tuple(x for e in _column_of(
            ring, rep.details["witness_in_kernel_not_image"]) for x in e.coords)
        assert witness in kernel and witness not in image


# (ring, scales of incoming and outgoing): the scales multiply to zero, so
# the scaled maps form a complex; Z/4[t]/(t^2) flattens to twice the width
HOMOLOGY_CASES = ((FiniteLocalRing(2, 3), ("2", "4")),
                  (FiniteLocalRing(3, 2), ("3", "3")),
                  (FiniteLocalRing(2, 2, "t", 2), ("t", "t")))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("ring, scales", HOMOLOGY_CASES)
def test_finite_homology_matches_brute_force(ring, scales, seed):
    """(|Z|, |B|) against cycles and boundaries enumerated element by
    element: on complexes at even seeds, on arbitrary maps at odd ones,
    where homology must refuse when |B| does not divide |Z|."""
    rng = random.Random(seed)
    s_in, s_out = map(ring.parse, scales if seed % 2 == 0 else ("1", "1"))

    def draw(rows, cols, scale=ring.one()):
        return Matrix(ring, [[scale * FiniteElement(ring, tuple(
            rng.randrange(ring.n) for _ in range(ring.ext_degree)))
            for _ in range(cols)] for _ in range(rows)])

    k = rng.randint(1, 2)  # the middle module's rank
    outgoing = draw(rng.randint(1, 2), k, s_out)
    rel_out = draw(outgoing.nrows, 3 - k)
    incoming, rel_mid = draw(k, rng.randint(1, 2), s_in), draw(k, 1, s_in)

    def coords(mat):
        return [[e.coords for e in row] for row in mat.entries]

    width = k * ring.ext_degree
    cycles = {v[:width] for v in module_kernel(
        ring.n, (0,) * ring.ext_degree, coords(hstack([outgoing, rel_out])))}
    boundaries = module_image(ring.n, (0,) * ring.ext_degree,
                              coords(hstack([rel_mid, incoming])))
    if seed % 2 == 0:
        assert boundaries <= cycles
    if len(cycles) % len(boundaries):
        with pytest.raises(NotAComplex):
            linalg.homology(incoming, outgoing, rel_mid, rel_out)
    else:
        assert linalg.homology(incoming, outgoing, rel_mid, rel_out) == \
            (len(cycles), len(boundaries))


def test_homology_refuses_maps_that_are_not_a_complex(z9, f5):
    # the identity after the identity: no cycles, and every element of the
    # middle module a boundary
    for ring, degs, bound in ((z9, None, None), (f5, (0,), 2)):
        one = Matrix.identity(ring, 1, degs)
        zero = Matrix.zeros(ring, 1, 1, degs, degs)
        with pytest.raises(NotAComplex):
            linalg.homology(one, one, zero, zero, bound)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(GRADED_CASES), st.integers(1, 2), st.integers(1, 3),
       VARIANTS, st.randoms(use_true_random=False))
def test_graded_exactness_matches_the_oracle(case, m, n, variant, rng):
    ring, oracle = case
    bound = 4
    row_degs = [rng.randrange(2) for _ in range(m)]
    col_degs = [rng.randrange(3) for _ in range(n)]
    outgoing, out_polys = _graded_matrix(ring, oracle, row_degs, col_degs,
                                         rng)
    scale = ring.parse(rng.choice(ring.variables))
    incoming = _incoming(kernel_gens(outgoing, bound), variant, scale,
                         Matrix.zeros(ring, n, 1, col_degs, (0,)))
    rep = check_exact_at(incoming, outgoing, bound)
    in_polys = [[dict(e.terms) for e in row] for row in incoming.entries]

    def ranks(d, extra=None):
        """dim Z_d and dim B_d, B_d with the slice column ``extra``."""
        out = slice_rows(oracle, out_polys, row_degs, col_degs, d)
        inc = slice_rows(oracle, in_polys, col_degs, incoming.col_degs, d)
        if extra is not None:
            inc = [row + [c] for row, c in zip(inc, extra)]
        return len(inc) - rank_mod_p(out, oracle.p), rank_mod_p(inc, oracle.p)

    assert rep.passed == all(z == b for z, b in map(
        ranks, range(min(col_degs), bound + 1)))
    if not rep.passed:
        witness = _column_of(ring, rep.details["witness_in_kernel_not_image"])
        d = next(e.degree() + s for e, s in zip(witness, col_degs)
                 if not e.is_zero)
        for i in range(m):
            image = {}
            for j in range(n):
                image = oracle.add(image, oracle.mul(
                    out_polys[i][j], dict(witness[j].terms)))
            assert not image
        coords = [dict(witness[j].terms).get(mono, 0) for j in range(n)
                  for mono in oracle.basis(d - col_degs[j])]
        assert ranks(d, coords)[1] == ranks(d)[1] + 1


LAYOUT_RINGS = (FiniteLocalRing(3, 2), FiniteLocalRing(2, 2, "t", 2),
                GRADED_CASES[0][0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LAYOUT_RINGS), st.data())
def test_unchecked_builders_pass_the_checks(ring, data):
    """What every builder without the constructor's checks returns, the
    checked constructor accepts with the same entries and layout."""
    graded = isinstance(ring, GradedMonomialRing)
    rng = data.draw(st.randoms(use_true_random=False))
    oracle = GRADED_CASES[0][1]
    m, n, k = (data.draw(st.integers(1, 3)) for _ in range(3))

    def element(degree):
        if not graded:
            return FiniteElement(ring, tuple(rng.randrange(ring.n)
                                             for _ in range(ring.ext_degree)))
        return _graded_entry(ring, oracle, degree, rng)[0]

    def degs(count):
        return [rng.randrange(3) for _ in range(count)]

    def matrix(row_degs, col_degs):
        return Matrix(ring, [[element(c - r) for c in col_degs]
                             for r in row_degs], row_degs, col_degs)

    def checked(mat):
        again = Matrix(ring, mat.entries, mat.row_degs, mat.col_degs)
        assert (again.entries, again.row_degs, again.col_degs, again.shape) \
            == (mat.entries, mat.row_degs, mat.col_degs, mat.shape)

    a = matrix(degs(m), degs(n))
    b = matrix(a.row_degs, a.col_degs)
    c = matrix(a.col_degs, degs(k))
    beside = matrix(a.row_degs, degs(k))
    for out in (a + b, a - b, -a, a * c, a.transpose(), a.without_degrees(),
                infer_degrees(a.without_degrees()), hstack([a, beside]),
                kron(a, c), solve_right(a, a * c)):
        checked(out)
    if graded:
        d = max(a.col_degs) + rng.randrange(3)
        width = linalg._twist_layout(ring, a.col_degs, d)[2]
        checked(slice_vector_to_matrix(
            ring, {i: rng.randrange(ring.p) for i in range(width)},
            a.col_degs, d))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((FiniteLocalRing(3, 2), FiniteLocalRing(2, 3),
                        FiniteLocalRing(2, 2, "t", 2))), st.data())
def test_trusted_finite_builders_hold_residues(ring, data):
    """Elements built from solver residues without ring.element, and the
    solution, kernel and Hom matrices built from them without the
    constructor's checks, are what the checked constructors build."""
    carrier = list(ring.enumerate_carrier())
    m, n = (data.draw(st.integers(1, 2)) for _ in range(2))

    def matrix(rows, cols):
        return Matrix(ring, [[data.draw(st.sampled_from(carrier))
                              for _ in range(cols)] for _ in range(rows)])

    def checked(mat):
        again = Matrix(ring, mat.entries)
        assert (again.entries, again.shape) == (mat.entries, mat.shape)

    unflatten, from_flat = linalg._unflatten_vector, homcalc._matrix_from_flat
    made, flat = [], []

    def recorded(ring_, vec, count):
        made.append((vec, count, unflatten(ring_, vec, count)))
        return made[-1][2]

    def recorded_flat(*args):
        flat.append(from_flat(*args))
        return flat[-1]

    a, c, b = matrix(m, n), matrix(n, 1), matrix(data.draw(
        st.integers(1, 2)), data.draw(st.integers(1, 2)))
    with pytest.MonkeyPatch.context() as mp:
        for module in (linalg, homcalc):
            mp.setattr(module, "_unflatten_vector", recorded)
        mp.setattr(homcalc, "_matrix_from_flat", recorded_flat)
        solved = solve_right(a, a * c)  # SpanSolver.solve residues
        gens = kernel_gens(a)  # Howell kernel rows
        homcalc._TargetTables(PresentedModule(ring, a))  # table keys
        # a failing check's witness is one of the kernel generators
        check_exact_at(Matrix.zeros(ring, n, 1), a)
        homcalc.hom_presentation(PresentedModule(ring, a),
                                 PresentedModule(ring, b))
    assert made and flat
    for gen in gens + flat + [solved]:
        checked(gen)
    for vec, count, elements in made:
        assert [x for e in elements for x in e.coords] == \
            list(vec[:count * ring.ext_degree])
        for e in elements:
            assert all(type(x) is int and 0 <= x < ring.n for x in e.coords)


# -- products -----------------------------------------------------------------

def _sparse_factors(ring, data, element):
    """Two composable matrices, most entries zero, with some rows of the
    left factor, some columns of the right one, or a whole factor zero."""
    rng = data.draw(st.randoms(use_true_random=False))
    m, n, k = (data.draw(st.integers(1, 4)) for _ in range(3))
    zero = ring.zero()

    def entries(rows, cols):
        return [[element(rng) if rng.random() < 0.4 else zero
                 for _ in range(cols)] for _ in range(rows)]

    left, right = entries(m, n), entries(n, k)
    for i in data.draw(st.sets(st.integers(0, m - 1))):
        left[i] = [zero] * n
    for j in data.draw(st.sets(st.integers(0, k - 1))):
        for row in right:
            row[j] = zero
    for row in data.draw(st.sampled_from(((), left, right))):
        row[:] = [zero] * len(row)
    return Matrix(ring, left), Matrix(ring, right)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GRADED_CASES), st.data())
def test_graded_products_match_the_oracle(case, data):
    ring, oracle = case

    def element(rng):  # inhomogeneous: two degrees up to 3
        return (_graded_entry(ring, oracle, rng.randrange(4), rng)[0]
                + _graded_entry(ring, oracle, rng.randrange(4), rng)[0])

    def poly(e):
        return parse_poly(ring.format(e), ring.variables)

    a, b = _sparse_factors(ring, data, element)
    product = a * b
    assert product.shape == (a.nrows, b.ncols)
    for i, k in itertools.product(range(a.nrows), range(b.ncols)):
        expected = {}
        for j in range(a.ncols):
            expected = oracle.add(expected, oracle.mul(
                poly(a.entries[i][j]), poly(b.entries[j][k])))
        assert poly(product.entries[i][k]) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((FiniteLocalRing(3, 3), FiniteLocalRing(2, 2, "t", 2),
                        FiniteLocalRing(3, 1, "t", 3))), st.data())
def test_finite_products_match_the_oracle(ring, data):
    d, n = ring.ext_degree, ring.n

    def element(rng):
        return FiniteElement(ring, tuple(rng.randrange(n) for _ in range(d)))

    a, b = _sparse_factors(ring, data, element)
    product = a * b
    assert product.shape == (a.nrows, b.ncols)
    for i, k in itertools.product(range(a.nrows), range(b.ncols)):
        expected = [0] * d
        for j in range(a.ncols):
            # t^d = 0: the reduction of t^d is the zero polynomial
            term = ext_mul(n, (0,) * d, a.entries[i][j].coords,
                           b.entries[j][k].coords)
            expected = [x + y for x, y in zip(expected, term)]
        assert product.entries[i][k].coords == tuple(v % n for v in expected)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LAYOUT_RINGS), st.data())
def test_products_keep_the_layout_only_when_the_middle_degrees_agree(ring,
                                                                     data):
    rng = data.draw(st.randoms(use_true_random=False))
    oracle = GRADED_CASES[0][1]
    m, n, k = (data.draw(st.integers(1, 3)) for _ in range(3))
    degs = [[rng.randrange(3) for _ in range(count)] for count in (m, n, k)]

    def matrix(row_degs, col_degs):
        if isinstance(ring, GradedMonomialRing):
            return _graded_matrix(ring, oracle, row_degs, col_degs, rng)[0]
        return Matrix(ring, [[FiniteElement(ring, tuple(
            rng.randrange(ring.n) for _ in range(ring.ext_degree)))
            for _ in col_degs] for _ in row_degs], row_degs, col_degs)

    a, b = matrix(degs[0], degs[1]), matrix(degs[1], degs[2])
    product = a * b
    assert (product.row_degs, product.col_degs) == (a.row_degs, b.col_degs)
    # the checked constructor accepts the product's layout
    Matrix(ring, product.entries, product.row_degs, product.col_degs)
    shifted = b.with_degrees([r + 1 for r in degs[1]],
                             [c + 1 for c in degs[2]])
    for left, right in ((a.without_degrees(), b), (a, b.without_degrees()),
                        (a, shifted)):
        other = left * right
        assert other.entries == product.entries
        assert (other.row_degs, other.col_degs) == (None, None)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_product_multiplies_each_pair_of_meeting_entries_once(data):
    ring = GRADED_CASES[0][0]
    # x * y = 0 in this ring: a product that vanishes still counts
    nonzero = [ring.parse(t) for t in ("x", "y", "z", "x + z", "2*y^2 + 3")]
    m, n, k = (data.draw(st.integers(1, 4)) for _ in range(3))

    def pattern(rows, cols):
        return [[data.draw(st.booleans()) for _ in range(cols)]
                for _ in range(rows)]

    def matrix(marks):
        return Matrix(ring, [[data.draw(st.sampled_from(nonzero)) if mark
                              else ring.zero() for mark in row]
                             for row in marks])

    left, right = pattern(m, n), pattern(n, k)
    a, b = matrix(left), matrix(right)
    meeting = sum(left[i][j] and right[j][c] for i in range(m)
                  for j in range(n) for c in range(k))
    calls = []
    mul = GradedElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GradedElement, "__mul__", counted)
        a * b
    assert len(calls) == meeting


def test_zero_operands_give_the_long_paths_results(f5):
    zero, again = f5.zero(), GradedMonomialRing(5, ("x", "y", "z"),
                                                ((1, 1, 0),))
    for text in ("0", "3", "x + 2*z^2", "y^3 + 4*z + 1"):
        e = f5.parse(text)
        # the long path rebuilds e's terms, and a product from no terms
        same, none = f5._from_dict(dict(e.terms)), f5._from_dict({})
        for result in (e + zero, zero + e, e + 0, 0 + e, e + again.zero()):
            assert result == same and result.terms == e.terms
        for result in (e * zero, zero * e, e * 0, 0 * e, e * again.zero()):
            assert result == none and result.is_zero
