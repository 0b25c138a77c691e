"""Exact pairs of zero divisors and the regularity trichotomy."""

import itertools

import pytest
from hypothesis import given, strategies as st

from oracles import (MonomialQuotientOracle, annihilator as naive_ann,
                     parse_poly, poly_text, rank_mod_p, span_closure)
from totref import zerodiv
from totref.errors import (EquivalenceViolation, ParseError,
                           PreconditionFailed, UnitInput)
from totref.linalg import ideal_membership
from totref.modules import PresentedModule
from totref.rings import FiniteLocalRing, GradedMonomialRing
from totref.zerodiv import (ExactZeroDivisorPair, check_window, exact_pair,
                            verify_exact_pair, verify_regular_pair,
                            weakly_regular_on_quotient)


def test_z9_three_three_is_exact(pair_z9):
    assert pair_z9.is_exact
    rep = pair_z9.exact_report
    assert rep.details["ann_x_generators"] == ["3"]
    assert rep.details["ann_y_generators"] == ["3"]
    # cross-check the annihilator against direct enumeration
    assert sorted(naive_ann(9, 3)) == [0, 3, 6]


def test_z8_two_four_is_exact(pair_z8):
    assert pair_z8.is_exact
    assert naive_ann(8, 2) == [0, 4]
    assert naive_ann(8, 4) == [0, 2, 4, 6]


def test_z8_two_two_is_not_exact(z8):
    pair = exact_pair(z8, z8.from_int(2), z8.from_int(2))
    assert not pair.is_exact
    # Ann(2) = (4), and (2) strictly contains it
    assert 2 not in naive_ann(8, 2)


def test_unit_members_are_refused(z9):
    with pytest.raises(UnitInput):
        verify_exact_pair(ExactZeroDivisorPair(z9, z9.from_int(1),
                                               z9.from_int(3)))
    with pytest.raises(UnitInput):
        exact_pair(z9, z9.from_int(3), z9.from_int(2))


def test_zero_member_fails_exactness(z9):
    pair = exact_pair(z9, z9.from_int(3), z9.from_int(0))
    assert not pair.is_exact


def test_f5_x_y_is_exact_and_regular(pair_f5):
    assert pair_f5.is_exact
    rep = verify_regular_pair(pair_f5, 8)
    assert rep.passed
    assert pair_f5.regular == "true"
    conds = (rep.details["x_injective_mod_y"],
             rep.details["y_injective_mod_x"],
             rep.details["intersection_trivial"])
    assert conds == (True, True, True)


def test_z9_pair_is_not_regular(pair_z9):
    rep = verify_regular_pair(pair_z9)
    assert not rep.passed
    assert pair_z9.regular == "false"
    # all three equivalent conditions must agree on the failure
    assert rep.details["x_injective_mod_y"] is False
    assert rep.details["y_injective_mod_x"] is False
    assert rep.details["intersection_trivial"] is False
    assert rep.details["common_nonzero_element"] == "3"


def test_z8_pair_is_not_regular(pair_z8):
    rep = verify_regular_pair(pair_z8)
    assert not rep.passed
    # 4 lies in (2) and in (4)
    assert rep.details["intersection_trivial"] is False


def _intersection(pair, bound=None):
    """(x) intersect (y) = 0 as verify_regular_pair decides it, with its
    witness: the first nonzero common element, or None."""
    details = verify_regular_pair(pair, bound).details
    witness = details.get("common_nonzero_element")
    return (details["intersection_trivial"],
            None if witness is None else pair.ring.parse(witness))


def test_regularity_pieces_directly(z9, f5):
    mod_3 = PresentedModule.quotient(z9, [z9.from_int(3)])
    # multiplication by 3 on Z/9 / (3) = Z/3 kills everything, not injective
    assert not weakly_regular_on_quotient(z9.from_int(3), mod_3, None)
    # multiplication by a unit is always injective
    assert weakly_regular_on_quotient(z9.from_int(2), mod_3, None)
    trivial, witness = _intersection(
        exact_pair(f5, f5.parse("x"), f5.parse("y"), 8), 8)
    assert trivial and witness is None
    nontrivial, witness = _intersection(
        exact_pair(z9, z9.from_int(3), z9.from_int(3)))
    assert not nontrivial and witness is not None


def test_intersection_never_enumerates_the_carrier(monkeypatch):
    def refuse(self):
        pytest.fail("intersection_trivial enumerated the carrier")

    monkeypatch.setattr(FiniteLocalRing, "enumerate_carrier", refuse)
    ring = FiniteLocalRing(2, 40)
    x, y = ring.from_int(2), ring.from_int(2 ** 39)
    assert _intersection(ExactZeroDivisorPair(ring, x, y)) == (False, y)


PRIME_POWERS = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
                for k in (1, 2, 3, 4) if p ** k <= 27]


@st.composite
def ideal_cases(draw):
    p, k = draw(st.sampled_from(PRIME_POWERS))
    value = st.integers(0, p ** k - 1)
    return (FiniteLocalRing(p, k), draw(value), draw(value),
            draw(st.lists(value, max_size=3)))


@given(ideal_cases())
def test_ideal_layer_matches_oracles_over_z_pk(case):
    ring, x, y, gen_values = case
    n = ring.n

    def ideal(values):
        return {v for (v,) in span_closure([(v,) for v in values] or [(0,)],
                                           n)}

    def value(e):
        return e.coords[0]

    gens = [ring.from_int(g) for g in gen_values]
    # an unverified pair, so units and zero are allowed as x and y
    pair = ExactZeroDivisorPair(ring, ring.from_int(x), ring.from_int(y))
    ann = [g.entries[0][0] for g in pair.quotient_x.relations.kernel()]
    assert ideal([value(g) for g in ann]) == set(naive_ann(n, x))
    given_ideal = PresentedModule.quotient(ring, gens)
    inside, witnesses = ideal_membership(given_ideal.relations,
                                         ring.from_int(x))
    assert inside == (x in ideal(gen_values))
    if inside:
        assert sum(value(w) * g for w, g in zip(witnesses, gen_values)) \
            % n == x
    trivial, witness = _intersection(pair)
    common = (ideal([x]) & ideal([y])) - {0}
    assert trivial == (not common)
    assert witness is None if trivial else value(witness) in common
    quotient = ideal(gen_values)
    injective = all(a in quotient for a in range(n) if x * a % n in quotient)
    assert weakly_regular_on_quotient(ring.from_int(x), given_ideal,
                                      None) == injective


# Artinian graded rings, as (p, variables, relations, top degree, pairs)
ARTINIAN = [(3, ("x", "y"), ((2, 0), (0, 2)), 2, pair)
            for pair in (("x", "x"), ("x+y", "x-y"))] + \
    [(2, ("x", "y", "z"), ((2, 0, 0), (0, 2, 0), (0, 0, 2)), 3, ("x", "x"))]


@pytest.mark.parametrize("case", ARTINIAN, ids=lambda c: "-".join(
    (str(c[0]), str(len(c[1])), *c[4])))
def test_graded_ideal_layer_matches_the_oracle(case):
    # Ann(x) and Ann(y) in every window from deg x + deg y (below it
    # exactness is refused), the three regularity answers in every window
    # from 0 to the top degree, and membership with witnesses in (x), (y) and
    # (x, y) of every element, against linear algebra over the oracle ring;
    # the library's answers are read from their strings
    p, variables, relations, top, (x_text, y_text) = case
    ring = GradedMonomialRing(p, variables, relations)
    oracle = MonomialQuotientOracle(p, len(variables), relations)

    def poly(e):
        return parse_poly(ring.format(e), variables)

    def degree(f):
        return sum(next(iter(f)))

    def vector(f, d):
        return [f.get(m, 0) for m in oracle.basis(d)]

    def ideal(gens, d):
        """Rows spanning the degree-d part of the ideal of gens."""
        return [vector(oracle.mul({m: 1}, g), d)
                for g in gens for m in oracle.basis(d - degree(g))]

    def inside(f, gens, d):
        rows = ideal(gens, d)
        return rank_mod_p(rows + [vector(f, d)], p) == rank_mod_p(rows, p)

    def elements(monomials):
        for coeffs in itertools.product(range(p), repeat=len(monomials)):
            yield {m: c for m, c in zip(monomials, coeffs) if c}

    def colon_inside(e, gens, window):
        # (gens : e) is inside (gens) in the degrees <= window
        return all(inside(a, gens, d) for d in range(window + 1)
                   for a in elements(oracle.basis(d))
                   if inside(oracle.mul(a, e), gens, d + degree(e)))

    x, y = ring.parse(x_text), ring.parse(y_text)
    fx, fy = poly(x), poly(y)
    for window in range(top + 1):
        if window < degree(fx) + degree(fy):
            with pytest.raises(ParseError):  # exactness is refused below
                exact_pair(ring, x, y, window)
            labelled = ()
        else:
            details = exact_pair(ring, x, y, window).exact_report.details
            labelled = (("x", fx), ("y", fy))
        for label, f in labelled:
            gens = [parse_poly(g, variables)
                    for g in details[f"ann_{label}_generators"]]
            assert all(g and degree(g) <= window and not oracle.mul(g, f)
                       for g in gens)
            for d in range(window + 1):
                image = [vector(oracle.mul({m: 1}, f), d + degree(f))
                         for m in oracle.basis(d)]
                ann_dim = len(oracle.basis(d)) - rank_mod_p(image, p)
                assert rank_mod_p(ideal(gens, d), p) == ann_dim
        # an unchecked pair: the three answers are compared with the
        # oracle one by one, not with each other
        reg = verify_regular_pair(ExactZeroDivisorPair(ring, x, y),
                                  window).details
        assert reg["x_injective_mod_y"] == colon_inside(fx, [fy], window)
        assert reg["y_injective_mod_x"] == colon_inside(fy, [fx], window)
        common = [rank_mod_p(ideal([fx], t) + ideal([fy], t), p)
                  < rank_mod_p(ideal([fx], t), p)
                  + rank_mod_p(ideal([fy], t), p)
                  for t in range(window + 1)]
        assert reg["intersection_trivial"] == (not any(common))
        if not reg["intersection_trivial"]:
            w = parse_poly(reg["common_nonzero_element"], variables)
            assert w and inside(w, [fx], degree(w)) \
                and inside(w, [fy], degree(w))
    pair = ExactZeroDivisorPair(ring, x, y)
    every = [m for d in range(top + 1) for m in oracle.basis(d)]
    for quotient, gens in ((pair.quotient_x, [fx]), (pair.quotient_y, [fy]),
                           (pair.quotient_xy, [fx, fy])):
        for f in elements(every):
            ok, wit = ideal_membership(quotient.relations,
                                       ring.parse(poly_text(f, variables)))
            by_degree = {}
            for m, c in f.items():
                by_degree.setdefault(sum(m), {})[m] = c
            assert ok == all(inside(part, gens, d)
                             for d, part in by_degree.items())
            if ok:
                total = {}
                for w, g in zip(wit, gens):
                    total = oracle.add(total, oracle.mul(poly(w), g))
                assert total == f


@pytest.mark.parametrize("k, x, y, builds", [(3, 3, 9, 2), (4, 9, 9, 1)])
def test_each_quotient_of_the_pair_is_factored_once(factorizations, k, x, y,
                                                    builds):
    # Z/27 with (3, 9) and Z/81 with (9, 9): exactness factors A/(x) and
    # A/(y), one module when x = y; regularity adds A/(x, y); after that a
    # weak-regularity check factors only its colon row [e | x | y]
    ring = FiniteLocalRing(3, k)
    made, _, pair = factorizations(
        lambda: exact_pair(ring, ring.from_int(x), ring.from_int(y)))
    assert made == builds
    assert factorizations(lambda: verify_regular_pair(pair))[0] == 1
    for e in (3, 9):
        assert factorizations(
            lambda: pair.weakly_regular(ring.from_int(e), None))[0] == 1


def test_swapped_pair_stays_exact(pair_f5):
    swapped = pair_f5.swapped(8)
    assert swapped.is_exact
    assert swapped.ring.format(swapped.x) == "y"


def test_strict_consumers_reject_unverified_pairs(z8):
    from totref.family import verify_complex
    bad = exact_pair(z8, z8.from_int(2), z8.from_int(2))
    with pytest.raises(PreconditionFailed):
        verify_complex(bad, z8.from_int(1))


CONDITIONS = ("x_injective_mod_y", "y_injective_mod_x", "intersection_trivial")


@pytest.mark.parametrize("x_text, y_text", [("x", "x"), ("x+y", "x-y")])
def test_a_window_below_the_floor_is_refused(x_text, y_text):
    # on F_3[x,y]/(x^2, y^2) both pairs are exact and not regular, for xy
    # lies in (x) and in (y); below deg x + deg y = 2 the three conditions
    # bound the degrees of different elements, and once disagreed (window
    # 1) or passed (window 0, (x+y, x-y)), and exactness passed vacuously,
    # Ann(x) having no generator in degree 0
    ring = GradedMonomialRing(3, ("x", "y"), ((2, 0), (0, 2)))
    x, y = ring.parse(x_text), ring.parse(y_text)
    pair = exact_pair(ring, x, y, 2)
    assert pair.is_exact
    for window in (0, 1):
        below = f"^window {window} is below deg x \\+ deg y = 2; "
        with pytest.raises(ParseError, match=below):
            exact_pair(ring, x, y, window)
        with pytest.raises(ParseError, match=below):
            verify_regular_pair(pair, window)
        assert pair.regular == "unknown"
        # an unchecked pair still gets each condition's answer
        details = verify_regular_pair(ExactZeroDivisorPair(ring, x, y),
                                      window).details
        assert all(key in details for key in CONDITIONS)
    for window in (2, 3, 4):
        pair = exact_pair(ring, x, y, window)
        rep = verify_regular_pair(pair, window)
        assert not rep.passed and pair.regular == "false"
        assert not any(rep.details[key] for key in CONDITIONS)


def test_the_cross_check_fires_at_the_floor(monkeypatch, f5):
    # flip the answers of both colon conditions: at deg x + deg y the
    # trivial intersection no longer agrees with them
    inside = zerodiv._inside
    monkeypatch.setattr(zerodiv, "_inside",
                        lambda quotient, elements: not inside(quotient,
                                                              elements))
    pair = exact_pair(f5, f5.parse("x"), f5.parse("y"), 2)
    with pytest.raises(EquivalenceViolation):
        verify_regular_pair(pair, 2)


def test_the_window_floor_is_zero_when_a_member_is(f5):
    y = f5.parse("y")
    check_window(f5.zero(), y, 0, "window")
    check_window(y, f5.zero(), 0, "window")
    check_window(f5.parse("x"), y, 2, "window")
    with pytest.raises(ParseError, match="^--degree 1 is below"):
        check_window(f5.parse("x"), y, 1, "--degree")
