"""Hom presentations, the generator lemmas, End rings, Ext comparisons.

Finite hom module sizes are frozen from the matrix-enumeration oracle in
oracles.py (hom_count); the tests re-run that oracle beside the library.
"""

import dataclasses
import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ext_size, hom_count, matrix_columns, span_closure
from totref import _zn, family, homcalc, linalg, modules
from totref.errors import (InconclusiveStrategy, NonHomogeneous,
                           PreconditionFailed, TooLarge)
from totref.family import module_g, module_h, phi_matrix
from totref.linalg import Factored, Matrix
from totref.modules import PresentedModule
from totref.rings import FiniteLocalRing, GradedMonomialRing
from totref.zerodiv import ExactZeroDivisorPair, exact_pair
from totref.homcalc import (_express, _vec_span, brute_force_hom_oracle,
                            hom_presentation, hom_maps_from_presentation,
                            noniso_certificate, run_family,
                            special_generators_gg, special_generators_hg,
                            verify_end_ring, verify_ext_swap,
                            verify_hom_g_ab_a, verify_hom_hg,
                            verify_hom_transpose)

GAMMA = {a: [[3, a], [0, 3]] for a in range(9)}
ETA = {a: [[3, (-a) % 9], [0, 3]] for a in range(9)}


# -- presentation vs oracle -------------------------------------------------

def test_hom_sizes_match_enumeration_oracle(pair_z9):
    ring = pair_z9.ring
    # frozen: |Hom(G_0, G_0)| = 81, |End(G_1)| = 9, |Hom(G_1, G_2)| = 9
    cases = [(0, 0, 81), (1, 1, 9), (1, 2, 9)]
    for a, b, expected in cases:
        assert hom_count(9, GAMMA[a], GAMMA[b]) == expected
        hp = hom_presentation(module_g(pair_z9, ring.from_int(a)),
                              module_g(pair_z9, ring.from_int(b)))
        assert hp.module.size() == expected


@given(st.data())
@settings(max_examples=40)
def test_oracle_counts_match_the_matrix_enumeration(data):
    # one, two and three source generators, one or two relation columns
    # each: the last generator's images are looked up, not enumerated
    p, k = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    ring, m = FiniteLocalRing(p, k), p ** k
    q1, q2 = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2),
                                        (3, 1)]))

    def presented(rows, label):
        cols = data.draw(st.integers(1, 2))
        entries = [[data.draw(st.integers(0, m - 1)) for _ in range(cols)]
                   for _ in range(rows)]
        return entries, PresentedModule(ring, Matrix(ring, [
            [ring.from_int(x) for x in row] for row in entries]), label)

    rho1, src = presented(q1, "M1")
    rho2, tgt = presented(q2, "M2")
    maps = brute_force_hom_oracle(src, tgt)
    assert len(maps) == hom_count(m, rho1, rho2)
    assert all(len(f) == q1 for f in maps)


def test_hom_maps_agree_with_oracle_spot_checks(pair_z9):
    ring = pair_z9.ring
    picks = [(module_g, 0, module_g, 0), (module_g, 1, module_h, 2),
             (module_h, 3, module_g, 6), (module_h, 4, module_h, 4)]
    for mk1, a, mk2, b in picks:
        src = mk1(pair_z9, ring.from_int(a))
        tgt = mk2(pair_z9, ring.from_int(b))
        oracle = brute_force_hom_oracle(src, tgt)
        hp = hom_presentation(src, tgt)
        closed = hom_maps_from_presentation(hp)
        assert closed == oracle


def test_hom_presentation_of_zero_hom_module(pair_z9):
    # Hom(A/3, A) over Z/9 embeds as (3)/9: size 3, not zero; use a case
    # with genuinely trivial maps instead: Hom(G_1, G_1) has size 9 and
    # its presentation still certifies containment of the identity
    ring = pair_z9.ring
    g1 = module_g(pair_z9, ring.from_int(1))
    hp = hom_presentation(g1, g1)
    ident = Matrix.identity(ring, 2)
    span = _vec_span(hp.source, hp.target, hp.generators, hp.gen_degrees)
    assert _express(Factored(span), ident) is not None


def test_graded_hom_carrier_degrees(pair_f5):
    ring = pair_f5.ring
    src = module_h(pair_f5, ring.parse("z"))
    tgt = module_g(pair_f5, ring.parse("z^2"))
    hp = hom_presentation(src, tgt, 8)
    assert hp.gen_count > 0
    assert all(isinstance(t, int) for t in hp.gen_degrees)
    # every generator followed by source relations lands in target relations
    span = _vec_span(src, tgt, hp.generators, hp.gen_degrees)
    for psi in hp.generators:
        assert _express(Factored(span), psi.without_degrees()) is not None


def test_hom_budget_guard(pair_z9):
    # each refusal names the count and the caller's own budget: |G_0| = 9
    # over Z/9 gives 9 (9 + 9) table cells, and three generators of a
    # free source 9^3 assignments
    ring = pair_z9.ring
    g0 = module_g(pair_z9, ring.from_int(0))
    with pytest.raises(TooLarge, match="^coset table of 162 cells exceeds "
                                       "the budget of 10$"):
        brute_force_hom_oracle(g0, g0, budget=10)
    free = PresentedModule.free(ring, 3)
    with pytest.raises(TooLarge, match="^assignment enumeration of 729 maps "
                                       "exceeds the budget of 500$"):
        brute_force_hom_oracle(free, g0, budget=500)


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (2, 2, 2), (2, 1, 3), (2, 2, 3)],
                         ids=["3-1", "2-2", "2-1-t^3", "2-2-t^3"])
def test_map_closure_over_dual_numbers_matches_oracle(p, k, d):
    # over (Z/p^k)[t]/(t^d) multiplying by t is not an integer multiple,
    # so the closure steps by t^j g for every generator g and j < d
    ring = FiniteLocalRing(p, k, ext_var="t", ext_degree=d)
    nonunits = [c for c in ring.enumerate_carrier() if not ring.is_unit(c)]
    rng = random.Random(400 + p)

    def presented(label):
        return PresentedModule(ring, Matrix(ring, [
            [rng.choice(nonunits) for _ in range(2)] for _ in range(2)]),
            label)

    for _ in range(24):
        src, tgt = presented("M1"), presented("M2")
        hp = hom_presentation(src, tgt)
        maps = hom_maps_from_presentation(hp)
        assert maps == brute_force_hom_oracle(src, tgt)
        assert len(maps) == hp.module.size()
    # the identity alone generates End(A) = A, of size p^(dk)
    free = PresentedModule(ring, Matrix(ring, [[ring.zero()]]), "A")
    hp = dataclasses.replace(hom_presentation(free, free),
                             generators=(Matrix.identity(ring, 1),))
    maps = hom_maps_from_presentation(hp)
    assert len(maps) == p ** (d * k)
    assert maps == brute_force_hom_oracle(free, free)


def test_map_closure_cap_boundary(pair_z9):
    ring = pair_z9.ring
    g0 = module_g(pair_z9, ring.from_int(0))
    hp = hom_presentation(g0, g0)
    size = hom_count(9, GAMMA[0], GAMMA[0])
    assert size == 81
    _, found = homcalc._map_closure(hp, size)
    assert len(found) == size
    with pytest.raises(TooLarge, match=f"^generated map set exceeds the "
                                       f"budget of {size - 1} maps$"):
        homcalc._map_closure(hp, size - 1)


@pytest.fixture
def table_builds(monkeypatch):
    """The modules whose coset tables get built while the test runs."""
    builds = []

    class Counted(homcalc._TargetTables):
        def __init__(self, module):
            builds.append(module)
            super().__init__(module)

    monkeypatch.setattr(homcalc, "_TargetTables", Counted)
    return builds


def test_coset_table_refusal_precedes_enumeration(z9, monkeypatch):
    # carrier^ngens = 9 fits the budget, the 9 x 9 sum table does not
    module = PresentedModule(z9, Matrix(z9, [[z9.zero()]]), "free")

    def enumerated(vectors):
        pytest.fail("the refusal ran the coset enumeration first")

    monkeypatch.setattr(module.relations.span, "reduce", enumerated)
    with pytest.raises(TooLarge, match="^coset table of 162 cells exceeds "
                                       "the budget of 80$"):
        homcalc._target_tables(module, 80)


def test_coset_table_budget_counts_the_cells_held():
    # |M| = 9 over Z/27: the tables hold 9 (9 + 27) = 324 cells, within a
    # budget of 500 though carrier^ngens = 729 is not
    ring = FiniteLocalRing(3, 3)
    three, zero = ring.from_int(3), ring.zero()
    module = PresentedModule(ring, Matrix(ring, [[three, zero],
                                                 [zero, three]]), "M")
    maps = brute_force_hom_oracle(module, module, budget=500)
    assert len(maps) == hom_count(27, [[3, 0], [0, 3]], [[3, 0], [0, 3]])
    assert len(maps) == 81
    with pytest.raises(TooLarge, match="^coset table of 324 cells exceeds "
                                       "the budget of 300$"):
        brute_force_hom_oracle(module, module, budget=300)


def test_table_cache_does_not_bypass_the_budget(z9, table_builds):
    # tables built under a large budget must not answer a smaller one
    module = PresentedModule(z9, Matrix(z9, [[z9.zero()]]), "free")
    homcalc._target_tables(module, 10 ** 6)
    homcalc._target_tables(module, 10 ** 6)
    assert table_builds == [module]
    with pytest.raises(TooLarge, match="^coset table of 162 cells exceeds "
                                       "the budget of 80$"):
        homcalc._target_tables(module, 80)


def test_end_scan_refuses_before_building_coset_tables(table_builds):
    # over Z/729 with the pair (27, 27), |End(G_9)| = 3^10 > 4096
    ring = FiniteLocalRing(3, 6)
    pair = exact_pair(ring, ring.from_int(27), ring.from_int(27))
    with pytest.raises(TooLarge, match="^generated map set exceeds the "
                                       "budget of 4096 maps$"):
        verify_end_ring(pair, ring.from_int(9), strict=False)
    assert table_builds == []


def test_end_scan_refusal_factors_no_hom_relations(monkeypatch):
    # |End| is read off the Hom relations' column span alone: the refusal
    # builds no SpanSolver over them, which nothing on the scan would read
    ring = FiniteLocalRing(3, 6)
    pair = exact_pair(ring, ring.from_int(27), ring.from_int(27))
    scanned, solved = [], []
    scan, solver = homcalc._idempotent_scan, _zn.SpanSolver

    class Recorded(solver):
        def __init__(self, columns, n, height):
            solved.append(columns)
            super().__init__(columns, n, height)

    monkeypatch.setattr(homcalc, "_idempotent_scan", lambda hp, *args:
                        scanned.append(hp) or scan(hp, *args))
    monkeypatch.setattr(_zn, "SpanSolver", Recorded)
    with pytest.raises(TooLarge, match="^generated map set exceeds the "
                                       "budget of 4096 maps$"):
        verify_end_ring(pair, ring.from_int(9), strict=False)
    assert len(scanned) == 1 and solved
    assert linalg._flatten_columns(scanned[0].module.rho)[0] not in solved


def _reference_tables(module):
    """The coset tables cell by cell, from the A-span of the relations.

    Combinations are visited in lexicographic order, so the first vector
    of each coset is its key and its representative.
    """
    ring, g, rho = module.ring, module.ngens, module.rho
    n = ring.n
    carrier = list(ring.enumerate_carrier())

    def flat(elements):
        return tuple(x for e in elements for x in e.coords)

    def plus(u, v):
        return tuple((x + y) % n for x, y in zip(u, v))

    span = {flat([ring.zero()] * g)}
    for j in range(rho.ncols):
        column = [rho.entries[i][j] for i in range(g)]
        multiples = {flat([c * e for e in column]) for c in carrier}
        span = {plus(s, m) for s in span for m in multiples}
    key_of, keys, reps = {}, [], []
    for combo in itertools.product(carrier, repeat=g):
        v = flat(combo)
        if v not in key_of:
            keys.append(v)
            reps.append(combo)
            key_of.update((plus(v, s), v) for s in span)
    index = {key: i for i, key in enumerate(keys)}
    add = [[index[key_of[plus(u, v)]] for v in keys] for u in keys]
    mul = {c.coords: [index[key_of[flat([c * e for e in rep])]]
                      for rep in reps] for c in carrier}
    return keys, reps, add, mul, index[key_of[flat([ring.zero()] * g)]]


# Z/p^k for p^k <= 27, Z/4[t]/(t^2) and Z/3[t]/(t^2)
TABLE_RINGS = [FiniteLocalRing(p, k) for p, k in
               [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                (5, 1), (5, 2), (7, 1), (11, 1), (13, 1), (23, 1)]] + \
    [FiniteLocalRing(2, 2, "t", 2), FiniteLocalRing(3, 1, "t", 2)]


@given(st.data())
def test_coset_tables_match_cell_by_cell_reference(data):
    ring = data.draw(st.sampled_from(TABLE_RINGS))
    size = ring.carrier_size()
    g = data.draw(st.integers(1, max(k for k in (1, 2, 3)
                                     if size ** k <= 256)))
    carrier = list(ring.enumerate_carrier())
    # mostly nonzero nonunits, so the quotient is neither 0 nor free
    nonunits = [c for c in carrier[1:] if not ring.is_unit(c)]
    entry = st.one_of(st.sampled_from(nonunits or carrier),
                      st.sampled_from(carrier))
    ncols = data.draw(st.integers(1, 3))
    rho = Matrix(ring, [[data.draw(entry) for _ in range(ncols)]
                        for _ in range(g)])
    module = PresentedModule(ring, rho, "M")
    tables = homcalc._target_tables(module, 10 ** 6)
    keys, reps, add, mul, zero_idx = _reference_tables(module)
    assert tables.keys == keys
    assert tables.reps == reps
    assert tables.add == add
    assert tables.mul == mul
    assert list(tables.mul) == list(mul)
    assert tables.zero_idx == zero_idx


def test_table_build_reduces_once_per_row(monkeypatch):
    # only the unit sums k + e_u and the products t^s e_u are reduced,
    # g d (r + d) vectors, never one per cell
    ring = FiniteLocalRing(3, 4)
    pair = exact_pair(ring, ring.from_int(9), ring.from_int(9))
    module = module_g(pair, ring.from_int(3))
    calls = []
    reduce = _zn.SpanSolver.reduce

    def counted(self, vectors):
        calls.append(len(vectors))
        return reduce(self, vectors)

    monkeypatch.setattr(_zn.SpanSolver, "reduce", counted)
    tables = homcalc._target_tables(module, 10 ** 6)
    r = len(tables.keys)
    assert r == module.size() > 1
    g, d = module.ngens, ring.ext_degree
    assert sum(calls) <= g * d * (r + d) < r * r


# -- special generators -----------------------------------------------------

def test_special_generator_matrices_lift(pair_f5):
    ring = pair_f5.ring
    a, b = ring.parse("z"), ring.parse("z^2")
    from totref.family import eta, gamma
    rho_src = eta(pair_f5, b).without_degrees()
    rho_tgt = gamma(pair_f5, a).without_degrees()
    for psi, xi in zip(*special_generators_hg(pair_f5, a, b)):
        prod = psi * rho_src
        lifted = rho_tgt * xi
        assert prod.entries == lifted.entries
    rho_src2 = gamma(pair_f5, a * b).without_degrees()
    for psi, xi in zip(*special_generators_gg(pair_f5, a, b)):
        assert (psi * rho_src2).entries == (rho_tgt * xi).entries


@pytest.mark.parametrize("atext,btext", [("z", "z"), ("z^2", "z"),
                                         ("z", "1"), ("z", "0")])
@pytest.mark.parametrize("kind", ["hg", "gg"])
def test_five_generators_span(pair_f5, atext, btext, kind):
    verify = verify_hom_hg if kind == "hg" else verify_hom_g_ab_a
    ring = pair_f5.ring
    rep = verify(pair_f5, ring.parse(atext), ring.parse(btext), 8)
    assert rep.passed, rep.first_failure()
    # both inclusions: psi1 and psi2 lift and psi3..psi5 reduce to them, so
    # the five maps lift, and psi1, psi2 already span everything
    homs = [sub for sub in rep.subreports if ")-is-" in sub.name]
    assert homs
    for hom in homs:
        checks = {sub.name: sub.passed for sub in hom.subreports}
        for name in ("claimed-generators-lift", "extra-generators-reduce",
                     "computed-generators-covered"):
            assert checks[name], (hom.name, name)


def test_five_generators_strict_gate(pair_z9):
    ring = pair_z9.ring
    with pytest.raises(PreconditionFailed):
        verify_hom_hg(pair_z9, ring.from_int(3), ring.from_int(3))
    probe = verify_hom_hg(pair_z9, ring.from_int(2), ring.from_int(3),
                          strict=False)
    assert probe.details["hypotheses"]["pair_regular"] is False


@pytest.mark.parametrize("atext,btext", [("z", "0"), ("z^2", "0")])
@pytest.mark.parametrize("kind", ["hg", "gg"])
def test_hom_identity_hilbert_profiles_with_a_zero_product(pair_f5, atext,
                                                           btext, kind):
    # with ab = 0 the family layout puts both generators of G(0) and H(0)
    # in one degree, while the claimed generators psi1 and psi2 of Hom
    # differ in hom degree; the profile compares at the latter
    verify = verify_hom_hg if kind == "hg" else verify_hom_g_ab_a
    ring = pair_f5.ring
    rep = verify(pair_f5, ring.parse(atext), ring.parse(btext), 8)
    assert rep.passed, rep.first_failure()
    profiles = [sub for hom in rep.subreports for sub in hom.subreports
                if sub.name == "hilbert-matches"]
    assert profiles
    assert all(sub.details["mismatches"] == [] for sub in profiles)


def test_hom_into_g_with_a_zero_product_has_oracle_dimensions(pair_f5):
    # Hom(H(0), G(z)) = A/(x) + A/(y) on generators of degrees 0 and 1:
    # F_5[y, z] and F_5[x, z] have d + 1 and d monomials there in degree d
    ring = pair_f5.ring
    hp = hom_presentation(module_h(pair_f5, ring.zero()),
                          module_g(pair_f5, ring.parse("z")), 8)
    assert [hp.module.slice_dim(d) for d in range(9)] == \
        [2 * d + 1 for d in range(9)]


# -- the two hom identities --------------------------------------------------

def test_hom_hg_identity(pair_f5):
    ring = pair_f5.ring
    rep = verify_hom_hg(pair_f5, ring.parse("z"), ring.parse("z^2"), 8)
    assert rep.passed, rep.first_failure()
    assert [s.name for s in rep.subreports] == [
        "hom(H(z^2),G(z))-is-G(z^3)", "hom(H(z),G(z^2))-is-G(z^3)",
        "swapped-pair-realizations",
        "hom(G(z),H(z^2))-is-H(z^3)", "swapped-image-matches-H(z^3)",
        "hom(G(z^2),H(z))-is-H(z^3)", "swapped-image-matches-H(z^3)"]


def test_hom_g_ab_a_identity(pair_f5):
    ring = pair_f5.ring
    rep = verify_hom_g_ab_a(pair_f5, ring.parse("z"), ring.parse("z"), 8)
    assert rep.passed, rep.first_failure()
    assert [s.name for s in rep.subreports] == [
        "hom(G(z^2),G(z))-is-H(z)", "swapped-pair-realizations",
        "hom(G(z),G(z^2))-matches-hom(H(z^2),H(z))",
        "hom(H(z^2),H(z))-is-G(z)", "swapped-image-matches-G(z)",
        "hom(H(z),H(z^2))-matches-hom(G(z^2),G(z))"]


def test_hom_identities_probe_on_degenerate_data(pair_z9):
    ring = pair_z9.ring
    with pytest.raises(PreconditionFailed):
        verify_hom_hg(pair_z9, ring.from_int(3), ring.from_int(3))
    probe = verify_hom_hg(pair_z9, ring.from_int(2), ring.from_int(3),
                          strict=False)
    assert probe.passed, probe.first_failure()


def test_hom_transpose_bijection(pair_f5):
    ring = pair_f5.ring
    rep = verify_hom_transpose(pair_f5, ("G", ring.parse("z")),
                               ("G", ring.parse("z^2")), 8)
    assert rep.passed, rep.first_failure()


# F_3[x,y,z]/(xy^2) with deg x = 1 and deg y^2 = 2: at a = 0 the family
# layout of H(0) puts its generators in different degrees, which the
# layout inferred from its entries alone does not
XY2 = GradedMonomialRing(3, ("x", "y", "z"), ((1, 2, 0),))
XY2_MODULES = [f + e for f in "GH" for e in ("0", "z")]


@functools.lru_cache(maxsize=None)
def _xy2_pair(x: str, y: str):
    return exact_pair(XY2, XY2.parse(x), XY2.parse(y), 8)


@pytest.mark.parametrize("x, y", [("x", "y^2"), ("y^2", "x")])
@pytest.mark.parametrize("src, tgt",
                         list(itertools.product(XY2_MODULES, repeat=2)))
def test_hom_transpose_bijection_with_unequal_degrees(x, y, src, tgt):
    pair = _xy2_pair(x, y)
    rep = verify_hom_transpose(pair, (src[0], XY2.parse(src[1:])),
                               (tgt[0], XY2.parse(tgt[1:])), 8)
    assert rep.passed, rep.first_failure()


def _z27_pair(x: int, y: int):
    ring = FiniteLocalRing(3, 3)
    return exact_pair(ring, ring.from_int(x), ring.from_int(y))


def _transpose(pair, src, tgt):
    ring = pair.ring
    return verify_hom_transpose(pair, (src[0], ring.from_int(src[1])),
                                (tgt[0], ring.from_int(tgt[1])))


@pytest.mark.parametrize("src, tgt, sizes", [
    (("G", 3), ("G", 9), [243, 243]),
    (("H", 1), ("H", 3), [27, 27]),
])
def test_finite_transpose_factors_four_matrices_once(factorizations, src,
                                                     tgt, sizes):
    # Z/27 with the pair (3, 9): besides the Hom presentations, every solve
    # and kernel goes through F_x^T of each direction or the relations of
    # M* and N, so the solver count does not grow with the generators
    pair = _z27_pair(3, 9)
    built, _, rep = factorizations(lambda: _transpose(pair, src, tgt))
    assert rep.passed, rep.first_failure()
    assert rep.details == {"route": "transpose", "sizes": sizes}
    assert built == 10


def _verdicts(rep):
    return [(sub.name, sub.passed) for sub in rep.subreports]


def test_finite_transpose_failures_on_a_non_exact_pair():
    # Z/27 with the non-exact pair (9, 9): G_0 and H_1 are not dual, and
    # the transpose of the free G_0's Hom is not determined
    pair = _z27_pair(9, 9)
    rep = _transpose(pair, ("G", 0), ("H", 1))
    assert _verdicts(rep) == [("transpose-determined-mod-relations", False),
                              ("forward-transposes-exist", False)]
    assert rep.details == {"route": "transpose"}
    rep = _transpose(pair, ("H", 1), ("G", 0))
    assert _verdicts(rep) == [("transpose-determined-mod-relations", False),
                              ("forward-transposes-exist", True),
                              ("forward-kills-relations", True),
                              ("backward-transposes-exist", False)]
    assert rep.details == {"route": "transpose"}
    rep = _transpose(pair, ("G", 0), ("G", 0))
    assert not rep.passed
    assert _verdicts(rep) == [("transpose-determined-mod-relations", False),
                              ("forward-transposes-exist", True),
                              ("forward-kills-relations", True),
                              ("backward-transposes-exist", True),
                              ("backward-kills-relations", True),
                              ("round-trip-fixes-source-generators", False),
                              ("round-trip-fixes-target-generators", False)]
    assert rep.details == {"route": "transpose", "sizes": [6561, 6561]}


def test_transpose_builds_the_backward_hom_only_after_the_forward_pass(
        monkeypatch):
    # Z/27 with the pair (9, 9): a forward transpose of G_0 -> H_1 fails,
    # so the backward Hom presentation would never be read
    pair = _z27_pair(9, 9)
    calls = []
    hom = homcalc.hom_presentation
    monkeypatch.setattr(homcalc, "hom_presentation",
                        lambda *args: calls.append(args) or hom(*args))
    rep = _transpose(pair, ("G", 0), ("H", 1))
    assert _verdicts(rep) == [("transpose-determined-mod-relations", False),
                              ("forward-transposes-exist", False)]
    assert len(calls) == 1


def _half_turned_entries(pair, flavor, elem):
    """The entries of F_x^T = phi^T rho_x for the family module x."""
    rho = homcalc._flavor_module(pair, flavor, elem).rho
    return (phi_matrix(pair.ring).transpose() * rho.without_degrees()).entries


def test_graded_transpose_slices_each_functional_matrix_once_per_degree(
        pair_f5, monkeypatch):
    # F_5[x,y,z]/(xy) at D = 6: the transposes and the uniqueness kernel of
    # each direction read one factorization of its F_x^T
    ring = pair_f5.ring
    src, tgt = ("G", ring.parse("z")), ("G", ring.parse("z^2"))
    watched = {_half_turned_entries(pair_f5, *x)
               for x in (src, ("H", tgt[1]))}
    sliced = []
    slice_matrix = linalg.slice_matrix

    def recorded(mat, d):
        if mat.entries in watched:
            sliced.append((mat.entries, d))
        return slice_matrix(mat, d)

    monkeypatch.setattr(linalg, "slice_matrix", recorded)
    rep = verify_hom_transpose(pair_f5, src, tgt, 6)
    assert rep.passed, rep.first_failure()
    assert {entries for entries, _ in sliced} == watched
    assert len(set(sliced)) == len(sliced)


# -- End rings ----------------------------------------------------------------

def test_end_ring_is_the_base_ring(pair_f5):
    ring = pair_f5.ring
    rep = verify_end_ring(pair_f5, ring.parse("z"), 8)
    assert rep.passed, rep.first_failure()
    names = [s.name for s in rep.subreports]
    assert any(n.startswith("identity-generates") for n in names)
    assert any(n.startswith("identity-faithful") for n in names)
    assert any(n.startswith("no-nontrivial-idempotent") for n in names)


def test_end_ring_finds_idempotents_in_decomposable_case(pair_f5):
    ring = pair_f5.ring
    probe = verify_end_ring(pair_f5, ring.parse("z*x"), 8, strict=False)
    assert not probe.passed
    scan = [s for s in probe.subreports
            if s.name.startswith("no-nontrivial-idempotent")][0]
    assert scan.details["nontrivial_idempotents"]


def _parse_witness(text: str) -> list:
    """Rows of ints from a witness printed as [[a, b]; [c, d]]."""
    return [[int(cell) for cell in row.strip("[]").split(", ")]
            for row in text[1:-1].split("; ")]


@pytest.mark.parametrize("a", [3, 9, 0])
def test_finite_end_scan_matches_oracles(a):
    # Z/27 with the exact pair (3, 9): G_a = Coker [[x, a], [0, y]] and
    # H_a = Coker [[y, -a], [0, x]]
    ring = FiniteLocalRing(3, 3)
    pair = exact_pair(ring, ring.from_int(3), ring.from_int(9))
    rep = verify_end_ring(pair, ring.from_int(a), strict=False)
    scans = [s for s in rep.subreports
             if s.name.startswith("no-nontrivial-idempotent")]
    rhos = ([[3, a], [0, 9]], [[9, (-a) % 27], [0, 3]])
    assert len(scans) == len(rhos)
    for scan, rho in zip(scans, rhos):
        assert scan.details["classes"] == hom_count(27, rho, rho)
        relations = span_closure(matrix_columns(rho), 27)
        witnesses = [_parse_witness(w)
                     for w in scan.details["nontrivial_idempotents"]]
        assert witnesses and not scan.passed
        for w in witnesses:
            minus_id = [[w[i][k] - (i == k) for k in range(2)]
                        for i in range(2)]
            square = [[sum(w[i][j] * w[j][k] for j in range(2)) - w[i][k]
                       for k in range(2)] for i in range(2)]
            assert not set(matrix_columns(w)) <= relations
            assert not {tuple(c % 27 for c in col)
                        for col in matrix_columns(minus_id)} <= relations
            assert {tuple(c % 27 for c in col)
                    for col in matrix_columns(square)} <= relations


@pytest.mark.parametrize("k, x, y", [(3, 3, 9), (8, 81, 81)])
def test_end_ring_certificate_settles_idempotents(k, x, y, table_builds):
    # once End = A is certified, A local gives the verdict: no coset
    # tables, no budget (|End| = 3^8 exceeds the default 4096)
    ring = FiniteLocalRing(3, k)
    pair = exact_pair(ring, ring.from_int(x), ring.from_int(y))
    rep = verify_end_ring(pair, ring.one(), strict=False)
    assert rep.passed, rep.first_failure()
    scans = [s for s in rep.subreports
             if s.name.startswith("no-nontrivial-idempotent")]
    assert [s.details["classes"] for s in scans] == [3 ** k, 3 ** k]
    names = [s.name for s in rep.subreports]
    for scan in scans:
        at = names.index(scan.name)
        assert scan.details["derived_from"] == names[at - 2:at]
        assert scan.details["nontrivial_idempotents"] == []
    assert table_builds == []


def test_end_ring_strict_gate_on_z9(pair_z9):
    with pytest.raises(PreconditionFailed):
        verify_end_ring(pair_z9, pair_z9.ring.from_int(3))


def test_end_op_iso(pair_f5):
    # End(G_z) = A is commutative, so the transpose bijection onto
    # End(H_z) is the whole op-isomorphism
    z = pair_f5.ring.parse("z")
    assert verify_end_ring(pair_f5, z, 8).passed
    rep = verify_hom_transpose(pair_f5, ("G", z), ("G", z), 8)
    assert rep.passed, rep.first_failure()


# -- Ext ----------------------------------------------------------------------

def test_ext_swap_graded(pair_f5):
    ring = pair_f5.ring
    rep = verify_ext_swap(pair_f5, ring.parse("z^2"), ring.parse("z"),
                          i_max=2, bound=6)
    assert rep.passed, rep.first_failure()
    sub = rep.subreports[0]
    assert sub.details["mismatches"] == []
    # non-vacuity: the compared Ext modules are not all zero
    profile = homcalc._ext_profile(pair_f5, "H", ring.parse("z"),
                                   module_g(pair_f5, ring.parse("z^2")), 2, 6)
    assert profile == [{0: 1}, {-2: 1}]


@functools.lru_cache(maxsize=None)
def _cached_ext_size(n, d_i, d_next, rho_n):
    # Ext^i reads d_i and d_(i+1) alone, so i and i + 2 of a periodic
    # window ask the oracle the same question
    return ext_size(n, [list(map(list, d)) for d in (d_i, d_next)],
                    [list(row) for row in rho_n], 1)


@pytest.mark.parametrize("pair_name", ["pair_z9", "pair_z8", "pair_z27"])
def test_ext_sizes_match_cochain_oracle(pair_name, request):
    # Ext^i(G_a or H_a, G_b or H_b) for i = 1..4, one period past Ext^2,
    # against cycles and boundaries counted over plain integer rows: every
    # a and every b in {0, 1, y} over Z/9 and Z/8, and over Z/27 with
    # (3, 9) one a of each valuation and a = 0, each with b the next one,
    # as in the end-finite benchmark
    if pair_name == "pair_z27":
        pair = _z27_pair(3, 9)
        cases = [(1, 3), (3, 9), (9, 0), (0, 1)]
    else:
        pair = request.getfixturevalue(pair_name)
        y = pair.y.coords[0]
        cases = list(itertools.product(range(pair.ring.n), (0, 1, y)))
    ring = pair.ring
    n, x, y = ring.n, pair.x.coords[0], pair.y.coords[0]

    def gamma_rows(a):
        return ((x, a), (0, y))

    def eta_rows(a):
        return ((y, (-a) % n), (0, x))

    rows_of = {"G": gamma_rows, "H": eta_rows}
    modules = {"G": module_g, "H": module_h}
    for (a, b), phase, flavor in itertools.product(cases, "GH", "GH"):
        first, second = rows_of[phase], rows_of["H" if phase == "G" else "G"]
        diffs = (first(a), second(a)) * 2 + (first(a),)
        target = modules[flavor](pair, ring.from_int(b))
        want = [_cached_ext_size(n, diffs[i - 1], diffs[i],
                                 rows_of[flavor](b)) for i in range(1, 5)]
        got = homcalc._ext_profile(pair, phase, ring.from_int(a), target, 4,
                                   None)
        assert got == want, (a, phase, flavor, b)


def test_ext_swap_finite(pair_z9):
    ring = pair_z9.ring
    rep = verify_ext_swap(pair_z9, ring.from_int(3), ring.from_int(6),
                          i_max=3)
    assert rep.passed, rep.first_failure()


def test_ext_swap_needs_homogeneous_graded_inputs(pair_f5):
    ring = pair_f5.ring
    with pytest.raises(NonHomogeneous):
        verify_ext_swap(pair_f5, ring.parse("1+z"), ring.parse("z"), 1, 6)


# -- non-isomorphism -----------------------------------------------------------

def test_noniso_hom_freeness(pair_f5):
    ring = pair_f5.ring
    g1 = module_g(pair_f5, ring.parse("z"))
    g2 = module_g(pair_f5, ring.parse("z^2"))
    rep = noniso_certificate(g1, g2, "hom-freeness", 8)
    assert rep.passed, rep.first_failure()


def test_noniso_fitting(pair_f5):
    ring = pair_f5.ring
    g1 = module_g(pair_f5, ring.parse("z"))
    g2 = module_g(pair_f5, ring.parse("z^2"))
    rep = noniso_certificate(g1, g2, "fitting", 8)
    assert rep.passed, rep.first_failure()


def test_noniso_inconclusive_between_g_and_h(pair_f5):
    ring = pair_f5.ring
    g1 = module_g(pair_f5, ring.parse("z"))
    h1 = module_h(pair_f5, ring.parse("z"))
    with pytest.raises(InconclusiveStrategy):
        noniso_certificate(g1, h1, "fitting", 8)


# -- the family runner ---------------------------------------------------------

def test_run_family_small(pair_f5):
    fam = run_family(pair_f5, ["z"], n_max=2, bound=6)
    assert fam.passed
    assert len(fam.modules) == 4
    assert len(fam.pairwise) == 6
    assert len(fam.hom_table) == 16
    for entry in fam.modules:
        assert entry["mu"] == 2
        assert "x" in entry["fitting_1"]
    cert_names = [s.name for s in fam.certificates.subreports]
    assert cert_names.count("total-reflexivity") == 2
    payload = fam.to_dict()
    assert payload["schema"] == 1
    assert payload["kind"] == "family-report"


def test_run_family_hom_table_follows_the_paper(pair_f5):
    # Hom(H_m, G_n) = G(a_m a_n), Hom(G_n, H_m) = H(a_m a_n),
    # Hom(G_m, G_n) = H(a_m / a_n), A or G(a_n / a_m), and
    # Hom(H_m, H_n) = Hom(G_n, G_m), with a_n = z^n
    ring = pair_f5.ring
    fam = run_family(pair_f5, ["z"], n_max=3, bound=8)
    a = {n: ring.parse(f"z^{n}") for n in range(1, 4)}

    def label(flavor, elem):
        return f"{flavor}({ring.format(elem)})"

    def hom_gg(m, n):
        if m > n:
            return label("H", ring.parse(f"z^{m - n}")), "direct"
        if m == n:
            return "A", "direct"
        return label("G", ring.parse(f"z^{n - m}")), \
            "transpose+swapped-pair"

    pairs = list(itertools.product(range(1, 4), repeat=2))
    expected = []
    for m, n in pairs:
        g_m, g_n, h_m = label("G", a[m]), label("G", a[n]), label("H", a[m])
        expected += [(h_m, g_n, label("G", a[m] * a[n]), "direct"),
                     (g_n, h_m, label("H", a[m] * a[n]), "swapped-pair"),
                     (g_m, g_n, *hom_gg(m, n))]
    expected += [(label("H", a[m]), label("H", a[n]), hom_gg(n, m)[0],
                  "transpose") for m, n in pairs]
    assert [(row["source"], row["target"], row["claimed"], row["route"])
            for row in fam.hom_table] == expected
    assert all(row["verdict"] == "pass" for row in fam.hom_table)


def test_run_family_over_a_large_residue_field():
    # the degree-zero idempotent scan would need 101^k candidates; the
    # End = A certificate settles the verdict instead
    ring = GradedMonomialRing(101, ("x", "y", "z"), ((1, 1, 0),))
    pair = exact_pair(ring, ring.parse("x"), ring.parse("y"), 8)
    fam = run_family(pair, ["z"], n_max=3, bound=8)
    assert fam.passed, fam.certificates.first_failure()


def test_run_family_rejects_unit_multiplier(pair_f5):
    with pytest.raises(PreconditionFailed):
        run_family(pair_f5, ["1"], n_max=2, bound=6)


def test_run_family_is_deterministic(pair_f5):
    one = run_family(pair_f5, ["z"], n_max=2, bound=6).to_json()
    two = run_family(pair_f5, ["z"], n_max=2, bound=6).to_json()
    assert one == two


def test_run_family_mixed_sequence(pair_f5):
    ring = pair_f5.ring
    fam = run_family(pair_f5, [ring.parse("z"), ring.parse("z^2")],
                     bound=6)
    assert fam.passed
    assert fam.a_elements == ["z", "z^3"]


def test_hom_memo_answers_repeats_and_keeps_labels_apart(pair_z9):
    ring = pair_z9.ring
    module = module_g(pair_z9, ring.parse("3"))
    twin = PresentedModule(ring, module.rho, "twin")
    assert hom_presentation(module, module) is not \
        hom_presentation(module, module)
    with modules.hom_memo():
        first = hom_presentation(module, module)
        again = hom_presentation(module, module)
        other = hom_presentation(twin, twin)
    assert again is first
    assert other is not first
    # the twin's Hom is the same computation under other labels
    assert other.generators is first.generators
    assert (other.source, other.target) == (twin, twin)
    assert first.module.label == f"Hom({module.label},{module.label})"
    assert other.module.label == "Hom(twin,twin)"
    assert other.module.rho.entries == first.module.rho.entries


def test_run_family_computes_each_distinct_hom_once(pair_f5, monkeypatch):
    # of the 45 Hom inputs of the run, 9 repeat the presentations of
    # another under other labels, e.g. Hom(G(3z), H(3z)) of the
    # non-isomorphism battery and Hom(H(2z), G(2z)) of the swapped pair
    calls = []
    compute = homcalc._hom_presentation

    def counted(src, tgt, bound):
        calls.append((src.label, tgt.label))
        return compute(src, tgt, bound)

    monkeypatch.setattr(homcalc, "_hom_presentation", counted)
    fam = run_family(pair_f5, ["z"], n_max=3, bound=8)
    assert fam.passed
    assert len(calls) == 36


def test_run_family_builds_one_g_a_and_one_h_a(pair_f5, monkeypatch):
    # total reflexivity, End, non-isomorphism, the Hom entries and the
    # transposes of a run all read one G_a and one H_a per element a; the
    # modules over the swapped pair (y, x) are others, and their
    # presentations start with the other member of the pair
    built = []

    class Recorded(PresentedModule):
        def __init__(self, ring, rho, label="M"):
            built.append((label, rho.entries))
            super().__init__(ring, rho, label)

    monkeypatch.setattr(family, "PresentedModule", Recorded)
    fam = run_family(pair_f5, ["z"], n_max=2, bound=6)
    assert fam.passed
    first = {"G": pair_f5.x, "H": pair_f5.y}
    over_pair = [label for label, entries in built
                 if entries[0][0] == first[label[0]]]
    assert {"G(z)", "G(z^2)", "H(z)", "H(z^2)"} <= set(over_pair)
    assert len(over_pair) == len(set(over_pair))


def test_run_family_factors_each_functional_matrix_once(pair_f5,
                                                        monkeypatch):
    # every module's F_x^T is factored by the first transpose certificate
    # that asks for it, as the relations of a module held for the run
    ring = pair_f5.ring
    watched = {_half_turned_entries(pair_f5, flavor, ring.parse(elem))
               for flavor in "GH" for elem in ("z", "z^2")}
    factored = []
    build = modules.Factored

    def counted(rho):
        if rho.entries in watched:
            factored.append(rho.entries)
        return build(rho)

    monkeypatch.setattr(modules, "Factored", counted)
    fam = run_family(pair_f5, ["z"], n_max=2, bound=6)
    assert fam.passed
    assert len(factored) == len(set(factored))
    assert set(factored) == watched


# graded rings with an exact pair, and homogeneous elements for G and H
RECORD_CASES = (
    (GradedMonomialRing(5, ("x", "y", "z"), ((1, 1, 0),)), "x", "y",
     ("0", "z", "z^2", "x*z", "x", "y^2")),
    (GradedMonomialRing(3, ("x", "y", "z"), ((1, 2, 0),)), "x", "y^2",
     ("0", "z", "y", "x*z", "z^2")),
    (GradedMonomialRing(2, ("x", "y"), ((2, 0), (0, 2))), "x", "x",
     ("0", "x", "y", "x*y")))


@functools.lru_cache(maxsize=None)
def _record_pair(index: int):
    ring, x, y, _ = RECORD_CASES[index]
    return exact_pair(ring, ring.parse(x), ring.parse(y), 8)


@settings(max_examples=40)
@given(st.integers(0, len(RECORD_CASES) - 1), st.sampled_from("GH"),
       st.sampled_from("GH"), st.integers(3, 7), st.data())
def test_recorded_hom_dimensions_match_the_relation_slices(index, fa, fb,
                                                           bound, data):
    # dim Hom_d recorded as the Hom is built, against the slice of its
    # relation matrix, in every degree of the window that has generators
    pair = _record_pair(index)
    ring, elems = pair.ring, RECORD_CASES[index][3]
    a, b = (ring.parse(data.draw(st.sampled_from(elems))) for _ in "ab")
    flavor = {"G": module_g, "H": module_h}
    source = flavor[fa](pair, a)
    target = flavor[fb](pair, b)
    with modules.hom_memo():
        hp = hom_presentation(source, target, bound)
        recorded = dict(hp.module._dims)
        relabelled = hom_presentation(
            PresentedModule(ring, source.rho, "S"),
            PresentedModule(ring, target.rho, "T"), bound)
    assert relabelled.module.label == "Hom(S,T)"
    assert relabelled.module._dims == recorded
    sliced = PresentedModule(ring, hp.module.rho)
    window = [d for d in range(min(sliced.gen_degs), bound + 1)
              if linalg._twist_layout(ring, sliced.gen_degs, d)[2]]
    if hp.generators:
        assert set(window) <= set(recorded)
    assert recorded == {d: sliced.slice_dim(d) for d in recorded}


def test_run_family_closes_its_memo_on_a_failed_precondition(pair_f5,
                                                             monkeypatch):
    seen = []

    def not_regular(pair, bound):
        seen.append(modules._HOM_MEMO.get())
        return False

    monkeypatch.setattr(ExactZeroDivisorPair, "is_regular", not_regular)
    with pytest.raises(PreconditionFailed):
        run_family(pair_f5, ["z"], n_max=2, bound=6)
    assert seen == [{}]
    assert modules._HOM_MEMO.get() is None


@pytest.mark.parametrize("p, k, var, d, x, y", [
    (3, 2, None, 1, "3", "3"), (3, 3, None, 1, "3", "9"),
    (2, 3, None, 1, "2", "4"), (2, 2, "t", 2, "t", "t"),
    (2, 1, "t", 3, "t", "t^2")])
def test_a_finite_family_run_stops_at_its_hypotheses(p, k, var, d, x, y):
    # a finite ring is Artinian local: a non-unit b is nilpotent, so it
    # cannot act injectively on A/(x, y) != 0, and no run reaches a module
    ring = FiniteLocalRing(p, k, var, d)
    pair = exact_pair(ring, ring.parse(x), ring.parse(y))
    assert pair.is_exact and not pair.is_regular(None)
    non_units = [e for e in ring.enumerate_carrier() if not ring.is_unit(e)]
    assert not any(pair.weakly_regular(e, None) for e in non_units)
    for b in non_units:
        with pytest.raises(PreconditionFailed):
            run_family(pair, [b])


def test_hom_out_of_the_zero_module_is_zero(z9, f5):
    # 0 = Coker [1]: no nonzero map lifts, so Hom(0, A) has no generator
    def hom_from_zero(ring):
        zero = PresentedModule(ring, Matrix(ring, [[ring.one()]]), "0")
        return hom_presentation(zero, PresentedModule.free(ring), 4)

    finite, graded = hom_from_zero(z9), hom_from_zero(f5)
    assert finite.generators == () == graded.generators
    assert finite.module.size() == 1
    assert graded.module.slice_dim(0) == 0
