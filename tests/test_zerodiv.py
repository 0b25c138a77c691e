"""Exact pairs of zero divisors and the regularity trichotomy."""

import pytest
from hypothesis import given, strategies as st

from oracles import annihilator as naive_ann, span_closure
from totref.errors import PreconditionFailed, UnitInput
from totref.linalg import annihilator, ideal_membership
from totref.rings import FiniteLocalRing
from totref.zerodiv import (exact_pair, intersection_trivial,
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
        verify_exact_pair(z9, z9.from_int(1), z9.from_int(3))
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


def test_regularity_pieces_directly(z9, pair_f5):
    # multiplication by 3 on Z/9 / (3) = Z/3 kills everything, not injective
    assert not weakly_regular_on_quotient(z9, z9.from_int(3),
                                          [z9.from_int(3)])
    # multiplication by a unit is always injective
    assert weakly_regular_on_quotient(z9, z9.from_int(2), [z9.from_int(3)])
    ring = pair_f5.ring
    trivial, witness = intersection_trivial(ring, ring.parse("x"),
                                            ring.parse("y"), 8)
    assert trivial and witness is None
    nontrivial, witness = intersection_trivial(z9, z9.from_int(3),
                                               z9.from_int(3))
    assert not nontrivial and witness is not None


def test_intersection_never_enumerates_the_carrier(monkeypatch):
    def refuse(self):
        pytest.fail("intersection_trivial enumerated the carrier")

    monkeypatch.setattr(FiniteLocalRing, "enumerate_carrier", refuse)
    ring = FiniteLocalRing(2, 40)
    x, y = ring.from_int(2), ring.from_int(2 ** 39)
    assert intersection_trivial(ring, x, y) == (False, y)


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
    ann = annihilator(ring, ring.from_int(x))
    assert ideal([value(g) for g in ann]) == set(naive_ann(n, x))
    inside, witnesses = ideal_membership(ring, ring.from_int(x), gens)
    assert inside == (x in ideal(gen_values))
    if inside:
        assert sum(value(w) * g for w, g in zip(witnesses, gen_values)) \
            % n == x
    trivial, witness = intersection_trivial(ring, ring.from_int(x),
                                            ring.from_int(y))
    common = (ideal([x]) & ideal([y])) - {0}
    assert trivial == (not common)
    assert witness is None if trivial else value(witness) in common
    quotient = ideal(gen_values)
    injective = all(a in quotient for a in range(n) if x * a % n in quotient)
    assert weakly_regular_on_quotient(ring, ring.from_int(x), gens) == \
        injective


def test_swapped_pair_stays_exact(pair_f5):
    swapped = pair_f5.swapped(8)
    assert swapped.is_exact
    assert swapped.ring.format(swapped.x) == "y"


def test_strict_consumers_reject_unverified_pairs(z8):
    from totref.family import verify_complex
    bad = exact_pair(z8, z8.from_int(2), z8.from_int(2))
    with pytest.raises(PreconditionFailed):
        verify_complex(bad, z8.from_int(1))
