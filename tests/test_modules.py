"""Presented modules: sizes, Hilbert functions, invariants, witnesses.

Expected numbers were frozen from the independent oracles (additive
closure counting over Z/9, monomial linear algebra over F5); each test
re-runs the oracle next to the library call.
"""

import pytest

from oracles import MonomialQuotientOracle, coker_hilbert, coker_size
from totref.errors import InvalidResolution, NotAComplex, WrongBackend
from totref.family import eta, gamma, module_g, module_h, periodic_resolution
from totref.homcalc import _target_tables
from totref.linalg import Matrix, ideal_membership
from totref.modules import (PresentedModule, dual_presentation, ext_vanishing,
                            fitting_ideal, hilbert_function, ideals_equal,
                            minimal_generator_count, validate_resolution,
                            verify_iso_witness)

ORACLE = MonomialQuotientOracle(5, 3, [(1, 1, 0)])
X, Y, Z = {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}
ZERO = {}

# [oracle] dim_d of G(z^k), H(z^k) over F5[x,y,z]/(xy), degrees 0..8
G_DIMS = {
    1: [2, 4, 6, 8, 10, 12, 14, 16, 18],
    2: [1, 3, 5, 7, 9, 11, 13, 15, 17],
    3: [1, 2, 4, 6, 8, 10, 12, 14, 16],
}


def test_finite_module_sizes_match_closure_oracle(pair_z9):
    ring = pair_z9.ring
    for a in range(9):
        module = module_g(pair_z9, ring.from_int(a))
        assert module.size() == coker_size(9, [[3, a], [0, 3]]) == 9


def test_finite_free_module_size(z9):
    free = PresentedModule.free(z9, 2)
    assert free.size() == 81
    assert minimal_generator_count(free) == 2


def test_coset_index_is_stable_under_relations(pair_z9):
    ring = pair_z9.ring
    module = module_g(pair_z9, ring.from_int(1))
    vec = [ring.from_int(4), ring.from_int(7)]
    rel = [ring.from_int(3), ring.from_int(0)]
    tables = _target_tables(module, 10 ** 6)
    first, second, third = tables.indices_of_columns(
        [vec, [v + r for v, r in zip(vec, rel)],
         [vec[0] + ring.one(), vec[1]]])
    assert first == second != third


def test_graded_hilbert_functions_match_oracle(pair_f5):
    ring = pair_f5.ring
    z = ring.parse("z")
    for k, expected in G_DIMS.items():
        a = z
        for _ in range(k - 1):
            a = a * z
        zk = {(0, 0, k): 1}
        g = module_g(pair_f5, a)
        h = module_h(pair_f5, a)
        rows, cols = (0, k - 1), (1, k)
        assert hilbert_function(g, 0, 8) == expected
        assert hilbert_function(h, 0, 8) == expected
        assert coker_hilbert(ORACLE, [[X, zk], [ZERO, Y]],
                             rows, cols, 8) == expected
        neg = {(0, 0, k): 4}
        assert coker_hilbert(ORACLE, [[Y, neg], [ZERO, X]],
                             rows, cols, 8) == expected


def test_graded_a_zero_module_is_the_cyclic_sum(pair_f5):
    module = module_g(pair_f5, pair_f5.ring.zero())
    expected = [2, 4, 6, 8, 10, 12, 14, 16, 18]
    assert hilbert_function(module, 0, 8) == expected
    assert coker_hilbert(ORACLE, [[X, ZERO], [ZERO, Y]],
                         (0, 0), (1, 1), 8) == expected


def test_minimal_generator_counts(pair_f5, pair_z9):
    ring = pair_f5.ring
    assert minimal_generator_count(module_g(pair_f5, ring.parse("z"))) == 2
    # a unit multiplier collapses one generator
    assert minimal_generator_count(module_g(pair_f5, ring.parse("1"))) == 1
    z9 = pair_z9.ring
    assert minimal_generator_count(module_g(pair_z9, z9.from_int(1))) == 1
    assert minimal_generator_count(module_g(pair_z9, z9.from_int(3))) == 2


def test_size_refuses_graded_backend(pair_f5):
    module = module_g(pair_f5, pair_f5.ring.parse("z"))
    with pytest.raises(WrongBackend):
        module.size()


def test_fitting_ideals_distinguish_the_family(pair_f5):
    ring = pair_f5.ring
    g1 = module_g(pair_f5, ring.parse("z"))
    g2 = module_g(pair_f5, ring.parse("z^2"))
    fit1_g1 = fitting_ideal(g1, 1)
    fit1_g2 = fitting_ideal(g2, 1)
    assert ideals_equal(ring, fit1_g1,
                        [ring.parse("x"), ring.parse("y"), ring.parse("z")])
    assert not ideals_equal(ring, fit1_g1, fit1_g2)
    # Fitt_0 is the determinant ideal; det gamma_a = xy = 0 here
    assert all(e.is_zero for e in fitting_ideal(g1, 0))


@pytest.mark.parametrize("ring_name, nonzero", [("z9", "3"), ("f5", "z")])
def test_the_zero_ideal_is_one_zero_column(request, ring_name, nonzero):
    # A/() and A/(0) are both presented by one zero column: only 0 lies in
    # the ideal, and the empty list and [0] generate the same ideal
    ring = request.getfixturevalue(ring_name)
    nonzero, zero = ring.parse(nonzero), ring.zero()
    for gens in ([], [zero]):
        quotient = PresentedModule.quotient(ring, gens)
        assert quotient.rho.shape == (1, 1) and quotient.rho.is_zero
        assert ideal_membership(quotient.relations, zero)[0]
        assert ideal_membership(quotient.relations, nonzero) == (False, None)
    assert ideals_equal(ring, [], [])
    assert ideals_equal(ring, [], [zero])
    assert not ideals_equal(ring, [], [nonzero])


def test_fitting_ideal_is_presentation_invariant(pair_z9):
    ring = pair_z9.ring
    g = module_g(pair_z9, ring.from_int(3))
    padded = PresentedModule(
        ring, Matrix(ring, [[ring.from_int(3), ring.from_int(3),
                             ring.zero()],
                            [ring.zero(), ring.from_int(3),
                             ring.from_int(3)]]))
    assert ideals_equal(ring, fitting_ideal(g, 1), fitting_ideal(padded, 1))


def test_iso_witness_accepts_identity(pair_z9):
    module = module_g(pair_z9, pair_z9.ring.from_int(1))
    ident = Matrix.identity(pair_z9.ring, 2)
    rep = verify_iso_witness(module, module, ident, ident)
    assert rep.passed


def test_iso_witness_rejects_wrong_map(pair_z9):
    ring = pair_z9.ring
    g0 = module_g(pair_z9, ring.from_int(0))
    h0 = module_h(pair_z9, ring.from_int(0))
    bad = Matrix(ring, [[ring.zero(), ring.zero()],
                        [ring.zero(), ring.zero()]])
    rep = verify_iso_witness(g0, h0, bad, bad)
    assert not rep.passed


def test_iso_witness_handles_rectangular_projection(pair_z9):
    # G(1) over Z/9 is free of rank one: e1 = -3 e2, so [-3, 1] is an
    # isomorphism onto A
    ring = pair_z9.ring
    g1 = module_g(pair_z9, ring.from_int(1))
    free = PresentedModule.free(ring, 1)
    proj = Matrix(ring, [[ring.from_int(-3), ring.from_int(1)]])
    rep = verify_iso_witness(g1, free, proj, None)
    assert rep.passed


def test_dual_presentation_requires_a_complex(pair_z9):
    ring = pair_z9.ring
    module = module_g(pair_z9, ring.from_int(1))
    with pytest.raises(NotAComplex):
        dual_presentation(module, Matrix.identity(ring, 2))
    good = dual_presentation(module, eta(pair_z9, ring.from_int(1)))
    assert good.rho.entries == gamma(pair_z9,
                                     ring.from_int(1)).transpose().entries


def test_validate_resolution_rejects_wrong_head(pair_z9):
    ring = pair_z9.ring
    module = module_g(pair_z9, ring.from_int(1))
    with pytest.raises(InvalidResolution):
        validate_resolution(module, [eta(pair_z9, ring.from_int(1))])


def test_ext_vanishing_needs_enough_differentials(pair_z9):
    ring = pair_z9.ring
    module = module_g(pair_z9, ring.from_int(1))
    diffs = periodic_resolution(pair_z9, ring.from_int(1), 2)
    with pytest.raises(InvalidResolution):
        ext_vanishing(module, diffs, 3)
    rep = ext_vanishing(module, diffs, 1)
    assert rep.passed
