"""Ring backends: arithmetic, parsing, units, descriptors.

Graded multiplication is cross-checked against the dict-based oracle in
oracles.py; expected constants below were frozen from that oracle.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from oracles import MonomialQuotientOracle, annihilator as naive_ann, ext_mul
from totref import rings
from totref.errors import ParseError, TotrefError, UnknownVariable
from totref.linalg import ideal_membership
from totref.modules import PresentedModule
from totref.rings import (FiniteLocalRing, GradedMonomialRing,
                          ring_from_descriptor)

ORACLE = MonomialQuotientOracle(5, 3, [(1, 1, 0)])


def _as_dict(e):
    return {exp: c for exp, c in e.terms}


def _from_dict(ring, data):
    acc = ring.zero()
    for exp, c in data.items():
        acc = acc + ring.monomial_element(exp, c)
    return acc


# -- finite backend ---------------------------------------------------------

def test_z9_carrier_and_units(z9):
    elems = list(z9.enumerate_carrier())
    assert len(elems) == 9 == z9.carrier_size()
    units = [e for e in elems if z9.is_unit(e)]
    assert len(units) == 6
    assert not z9.is_unit(z9.parse("3"))


def test_z9_parse_format_round_trip(z9):
    for text in ["0", "1", "3", "8", "2+2", "3*3"]:
        e = z9.parse(text)
        assert z9.parse(z9.format(e)) == e
    assert z9.format(z9.parse("3*3")) == "0"
    assert z9.format(z9.parse("-1")) == "8"


def test_z9_annihilators_match_naive_enumeration(z9):
    for x in range(1, 9):
        expected = set(naive_ann(9, x))
        # Ann(x) is the kernel of A/(x)'s row [x]
        gens = [g.entries[0][0] for g in PresentedModule.quotient(
            z9, [z9.from_int(x)]).relations.kernel()]
        ann = PresentedModule.quotient(z9, gens).relations
        got = set()
        for e in z9.enumerate_carrier():
            inside, _ = ideal_membership(ann, e)
            if inside:
                got.add(int(z9.format(e)))
        assert got == expected, f"x={x}"


def test_finite_ring_rejects_nonsense():
    with pytest.raises(TotrefError):
        FiniteLocalRing(6, 2)
    z9 = FiniteLocalRing(3, 2)
    with pytest.raises(ParseError):
        z9.parse("3 +")
    with pytest.raises(UnknownVariable):
        z9.parse("w")
    with pytest.raises(TotrefError):
        FiniteLocalRing(3, 2, ext_var="t", ext_degree=0)
    with pytest.raises(TotrefError):
        FiniteLocalRing(3, 2, ext_degree=2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_z9_ring_axioms(a, b, c):
    ring = FiniteLocalRing(3, 2)
    ea, eb, ec = ring.from_int(a), ring.from_int(b), ring.from_int(c)
    assert (ea + eb) * ec == ea * ec + eb * ec
    assert ea * (eb * ec) == (ea * eb) * ec
    assert ea + (-ea) == ring.zero()


def test_finite_extension_ring_basics():
    # Z/4[t]/(t^2): 16 elements, t a zero divisor, 1+t a unit
    ring = FiniteLocalRing(2, 2, ext_var="t", ext_degree=2)
    assert ring.carrier_size() == 16
    t = ring.parse("t")
    assert (t * t).is_zero
    assert ring.is_unit(ring.parse("1+t"))
    assert not ring.is_unit(t)


@pytest.mark.parametrize("p, k, d", [(2, 2, 2), (3, 2, 2), (2, 1, 3)],
                         ids=["4-t^2", "9-t^2", "2-t^3"])
def test_extension_products_match_the_oracle(p, k, d):
    # every product of Z/p^k[t]/(t^d), and every column of mult_columns,
    # against the oracle's convolution with the zero rewrite t^d = 0
    ring = FiniteLocalRing(p, k, ext_var="t", ext_degree=d)
    zero = (0,) * d
    elems = list(ring.enumerate_carrier())
    for a in elems:
        for b in elems:
            assert (a * b).coords == ext_mul(ring.n, zero, a.coords, b.coords)
        for j, col in enumerate(ring.mult_columns(a)):
            t_j = tuple(int(i == j) for i in range(d))
            assert tuple(col) == ext_mul(ring.n, zero, a.coords, t_j)


# -- graded backend ---------------------------------------------------------

def test_f5_defining_relation(f5):
    x, y = f5.parse("x"), f5.parse("y")
    assert (x * y).is_zero
    assert not (x * f5.parse("z")).is_zero


def test_f5_basis_dimensions_match_oracle(f5):
    # frozen from the monomial-counting oracle: dim A_d = 2d + 1
    expected = [1, 3, 5, 7, 9, 11, 13, 15, 17]
    assert [len(f5.basis(d)) for d in range(9)] == expected
    assert [ORACLE.ring_dimension(d) for d in range(9)] == expected


def test_f5_parse_format_round_trip(f5):
    for text in ["0", "1", "z", "x^2", "2*z^3+x", "x+y+z", "-z",
                 "(x+z)*(y+z)", "z*(z+1)"]:
        e = f5.parse(text)
        assert f5.parse(f5.format(e)) == e
    assert f5.format(f5.parse("x*y")) == "0"
    assert f5.format(f5.parse("x * y + z")) == "z"


def test_f5_format_is_deg_lex_descending(f5):
    e = f5.parse("1+z+x^2+3*z^2")
    assert f5.format(e) == "x^2 + 3*z^2 + z + 1"
    assert f5.format(f5.parse("z+x")) == "x + z"


def test_f5_units_have_nonzero_constant_term(f5):
    # the backend models the local ring at (x, y, z)
    assert f5.is_unit(f5.parse("2"))
    assert f5.is_unit(f5.parse("1+z"))
    assert not f5.is_unit(f5.parse("z"))
    assert not f5.is_unit(f5.zero())


def test_f5_degrees(f5):
    assert f5.parse("z^3").degree() == 3
    assert f5.parse("x+y").degree() == 1
    assert f5.parse("1+z").is_homogeneous() is False
    assert f5.zero().is_homogeneous() is True


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(0, 2), st.integers(0, 4)),
                max_size=4),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(0, 2), st.integers(0, 4)),
                max_size=4))
def test_f5_products_match_oracle(terms1, terms2):
    ring = GradedMonomialRing(5, ("x", "y", "z"), ((1, 1, 0),))
    d1 = {}
    for i, j, k, c in terms1:
        d1[(i, j, k)] = (d1.get((i, j, k), 0) + c) % 5
    d2 = {}
    for i, j, k, c in terms2:
        d2[(i, j, k)] = (d2.get((i, j, k), 0) + c) % 5
    d1 = {e: c for e, c in d1.items() if c and ORACLE.allowed(e)}
    d2 = {e: c for e, c in d2.items() if c and ORACLE.allowed(e)}
    e1, e2 = _from_dict(ring, d1), _from_dict(ring, d2)
    assert _as_dict(e1 * e2) == ORACLE.mul(d1, d2)
    assert _as_dict(e1 + e2) == ORACLE.add(d1, d2)


TERM_RINGS = (GradedMonomialRing(5, ("x", "y", "z"), ((1, 1, 0),)),
              GradedMonomialRing(3, ("x", "y"), ((2, 0), (0, 2))))


def _canonical(ring, data):
    """The reduced nonzero terms of ``data``, sorted by the canonical key."""
    return tuple(sorted(((exp, c % ring.p) for exp, c in data.items()
                         if c % ring.p),
                        key=lambda term: rings._monomial_sort_key(term[0])))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TERM_RINGS), st.data())
def test_from_dict_orders_the_reduced_terms_canonically(ring, data):
    # terms of several degrees, summed unreduced, so coefficients run past
    # p and some cancel to a multiple of p
    nvars = len(ring.variables)
    terms = data.draw(st.lists(st.tuples(
        st.tuples(*[st.integers(0, 3)] * nvars), st.integers(-12, 12)),
        max_size=10))
    summed = {}
    for exp, c in terms:
        summed[exp] = summed.get(exp, 0) + c
    assert ring._from_dict(summed).terms == _canonical(ring, summed)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TERM_RINGS), st.integers(0, 5), st.data())
def test_element_of_vector_is_from_dict_of_its_monomials(ring, d, data):
    basis = ring.basis(d)
    indices = st.sampled_from(range(len(basis))) if basis else st.nothing()
    vec = data.draw(st.dictionaries(indices, st.integers(-12, 12)))
    monomials = {basis[i]: c for i, c in vec.items()}
    e = ring.element_of_vector(vec, d)
    assert e.terms == ring._from_dict(monomials).terms
    assert e.terms == _canonical(ring, monomials)


POWER_BASES = (TERM_RINGS[0].parse("x + 2*z"), TERM_RINGS[1].parse("1 + x"),
               FiniteLocalRing(3, 3).from_int(2),
               FiniteLocalRing(2, 2, "t", 3).parse("1 + t"))


# square-and-multiply: one product per set bit, and one squaring per bit
# below the top one
@pytest.mark.parametrize("k, products", [(0, 0), (1, 1), (2, 2), (16, 5),
                                         (33, 7), (64, 7)])
@pytest.mark.parametrize("base", POWER_BASES, ids=repr)
def test_powers_form_no_squaring_past_the_top_bit(base, k, products):
    calls = []
    cls = type(base)
    mul = cls.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "__mul__", counted)
        power = base ** k
    assert len(calls) == products
    repeated = base.ring.one()
    for _ in range(k):
        repeated = repeated * base
    assert power == repeated


def test_graded_annihilator_of_x_is_y(pair_f5):
    # Ann(x) in degrees <= 8, as the exact pair (x, y) asks it
    assert pair_f5.exact_report.details["ann_x_generators"] == ["y"]


# -- descriptors ------------------------------------------------------------

def test_descriptor_round_trips(z9, z8, f5):
    z4t2 = FiniteLocalRing(2, 2, ext_var="t", ext_degree=2)
    for ring in (z9, z8, f5, z4t2):
        clone = ring_from_descriptor(json.loads(json.dumps(
            ring.descriptor())))
        assert clone.key == ring.key
        assert clone.descriptor() == ring.descriptor()


def test_descriptor_rejects_bad_input():
    with pytest.raises(TotrefError):
        ring_from_descriptor({"kind": "mystery"})
    with pytest.raises(TotrefError):
        ring_from_descriptor({"kind": "graded", "p": 5, "vars": []})


def test_descriptor_field_errors_are_parse_errors():
    for desc in ({"kind": "finite"}, {"kind": "finite", "p": "a", "k": 2},
                 {"kind": "finite", "p": 3, "k": 2.5},
                 {"kind": "graded", "p": 5, "vars": "xyz"}, ["finite"]):
        with pytest.raises(ParseError):
            ring_from_descriptor(desc)
    assert ring_from_descriptor({"kind": "finite", "p": "3", "k": 2}).n == 9


def test_primality_is_decided_by_miller_rabin():
    small = [n for n in range(2, 2000)
             if all(n % q for q in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(2, 2000) if rings._is_prime(n)] == small
    assert FiniteLocalRing(10 ** 18 + 9, 1).n == 10 ** 18 + 9
    # a strong pseudoprime to every prime base up to 37
    with pytest.raises(TotrefError, match="not prime"):
        FiniteLocalRing(318665857834031151167461, 1)
    with pytest.raises(TotrefError, match="not prime"):
        GradedMonomialRing(561, ("x",), ())
    with pytest.raises(ParseError):
        FiniteLocalRing(rings.PRIME_LIMIT, 1)
