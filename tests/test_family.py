"""The two-by-two family: presentations, periodic complexes, dualities."""

import pytest

from totref import homcalc
from totref.errors import NonHomogeneous, PreconditionFailed, TotrefError
from totref.family import (eta, gamma, module_g, module_h,
                           periodic_resolution, phi_matrix, verify_complex,
                           verify_g_description, verify_total_reflexivity)
from totref.homcalc import verify_hom_hg
from totref.linalg import Factored, check_exact_at
from totref.rings import FiniteLocalRing
from totref.zerodiv import exact_pair


def fmt_entries(mat):
    ring = mat.ring
    return [[ring.format(e) for e in row] for row in mat.entries]


def test_gamma_eta_shapes(pair_z9):
    ring = pair_z9.ring
    a = ring.from_int(2)
    g = gamma(pair_z9, a)
    e = eta(pair_z9, a)
    assert fmt_entries(g) == [["3", "2"], ["0", "3"]]
    assert fmt_entries(e) == [["3", "7"], ["0", "3"]]


def test_graded_layouts(pair_f5):
    ring = pair_f5.ring
    g = gamma(pair_f5, ring.parse("z^2"))
    assert g.row_degs == (0, 1)
    assert g.col_degs == (1, 2)
    e = eta(pair_f5, ring.parse("z^2"))
    assert e.row_degs == (0, 1)
    assert e.col_degs == (1, 2)
    g0 = gamma(pair_f5, ring.zero())
    assert g0.row_degs == (0, 0)
    assert g0.col_degs == (1, 1)


def test_gamma_strict_needs_homogeneous_data(pair_f5):
    with pytest.raises(NonHomogeneous):
        gamma(pair_f5, pair_f5.ring.parse("1+z"))


def test_composites_vanish_for_every_a(pair_z9):
    ring = pair_z9.ring
    for a in range(9):
        g = gamma(pair_z9, ring.from_int(a))
        e = eta(pair_z9, ring.from_int(a))
        assert (g * e).is_zero
        assert (e * g).is_zero


def test_half_turn_identities(pair_f5):
    ring = pair_f5.ring
    phi = phi_matrix(ring)
    for text in ("z", "z^2", "1", "0"):
        a = ring.parse(text)
        g = gamma(pair_f5, a).without_degrees()
        e = eta(pair_f5, a).without_degrees()
        assert (phi * g.transpose()).entries == (e * phi).entries
        assert (phi * e.transpose()).entries == (g * phi).entries


def test_periodic_resolution_chains(pair_f5):
    ring = pair_f5.ring
    diffs = periodic_resolution(pair_f5, ring.parse("z"), 5)
    assert len(diffs) == 5
    for first, second in zip(diffs, diffs[1:]):
        assert first.col_degs == second.row_degs
        assert (first.without_degrees() * second.without_degrees()).is_zero
    with pytest.raises(TotrefError):
        periodic_resolution(pair_f5, ring.parse("z"), 2, phase="X")


def test_verify_complex_exhaustively_z9(pair_z9):
    ring = pair_z9.ring
    for a in range(4):
        rep = verify_complex(pair_z9, ring.from_int(a))
        assert rep.passed, f"a={a}: {rep.first_failure()}"
        assert rep.scope["mode"] == "exhaustive"


def test_verify_complex_graded(pair_f5):
    rep = verify_complex(pair_f5, pair_f5.ring.parse("z"), bound=8)
    assert rep.passed
    names = [sub.name for sub in rep.subreports]
    assert "composites-vanish" in names
    assert "half-turn-identities" in names
    assert "exact-G-position-1" in names
    assert "exact-H-position-3" in names


def test_verify_complex_refuses_fewer_than_two_differentials(pair_f5):
    z = pair_f5.ring.parse("z")
    for length in (1, 0, -3):
        with pytest.raises(TotrefError, match="at least 2"):
            verify_complex(pair_f5, z, length, 8)
    rep = verify_complex(pair_f5, z, 2, 8)
    assert rep.passed
    assert "exact-G-position-1" in [sub.name for sub in rep.subreports]


def test_verify_complex_strict_rejects_broken_pair(z8):
    from totref.zerodiv import exact_pair
    bad = exact_pair(z8, z8.from_int(2), z8.from_int(2))
    with pytest.raises(PreconditionFailed):
        verify_complex(bad, z8.from_int(1))
    probe = verify_complex(bad, z8.from_int(1), strict=False)
    # gamma eta = [[2,1],[0,2]][[2,-1],[0,2]] has a 4 in the corner
    assert not probe.passed
    assert not probe.details["pair_exact"]


def test_total_reflexivity_both_backends(pair_z9, pair_f5):
    rep = verify_total_reflexivity(pair_z9, pair_z9.ring.from_int(2))
    assert rep.passed
    rep = verify_total_reflexivity(pair_f5, pair_f5.ring.parse("z"),
                                   bound=8)
    assert rep.passed
    names = [sub.name for sub in rep.subreports]
    assert "ext-vanishing-G(z)" in names
    assert "dual-of-G(z)-is-H(z)" in names
    assert "dual-of-H(z)-is-G(z)" in names


def test_total_reflexivity_deeper_ext_range(pair_z9):
    rep = verify_total_reflexivity(pair_z9, pair_z9.ring.from_int(1),
                                   i_max=4)
    assert rep.passed


@pytest.mark.parametrize("verb", ["tr", "complex", "ext"])
def test_one_period_is_factored_once(factorizations, verb):
    # Z/27 with (3, 9) and a = 3: d_(i+2) = d_i, so every position of both
    # phases, and every Ext^i, reads factorizations made for one period;
    # the count is the same at the smallest window and at the CLI's cap
    ring = FiniteLocalRing(3, 3)
    pair = exact_pair(ring, ring.from_int(3), ring.from_int(9))
    a = ring.from_int(3)
    target = module_h(pair, ring.from_int(9))
    calls = {
        "tr": lambda n: verify_total_reflexivity(pair, a, n),
        "complex": lambda n: verify_complex(pair, a, n),
        "ext": lambda n: homcalc._ext_profile(pair, "G", a, target, n, None),
    }[verb]
    small = factorizations(lambda: calls(2))[:2]
    assert small == factorizations(lambda: calls(64))[:2]
    assert small == {"tr": (6, 6), "complex": (2, 2), "ext": (0, 3)}[verb]


@pytest.mark.parametrize("bound", [1, 2, 8])
def test_factored_maps_are_asked_in_the_checks_window(pair_f5, bound):
    # position 1 of the G resolution of G_z: a map passed in factored has
    # its kernel taken up to the check's bound, as a matrix has
    d1, d2 = periodic_resolution(pair_f5, pair_f5.ring.parse("z"), 2)
    plain = check_exact_at(d2, d1, bound)
    held = check_exact_at(Factored(d2), Factored(d1), bound)
    assert held.details == plain.details
    assert (held.verdict, held.scope) == (plain.verdict, plain.scope)
    assert plain.passed


def test_ideal_iso(pair_f5, pair_z9):
    # G_a for a in (x) degenerates; generic a identifies G_a with an ideal
    rep = verify_g_description(pair_f5, pair_f5.ring.parse("z"), 8)
    assert rep.name == "ideal-description"
    assert rep.passed
    rep = verify_g_description(pair_z9, pair_z9.ring.from_int(1))
    assert rep.name == "ideal-description"
    assert rep.passed


def test_decomposable_case(pair_f5):
    ring = pair_f5.ring
    rep = verify_g_description(pair_f5, ring.parse("z*x"), 8)
    assert rep.name == "decomposable-case"
    assert rep.passed
    sub = {s.name for s in rep.subreports}
    assert "column-operation-witness" in sub
    # y is neither in (x) nor injective on A/(y): no description applies
    with pytest.raises(PreconditionFailed):
        verify_g_description(pair_f5, ring.parse("y"), 8)
    probe = verify_g_description(pair_f5, ring.parse("y"), 8,
                                 strict=False)
    assert probe.name == "ideal-description"
    assert not probe.passed


def test_swap_symmetry(pair_f5, pair_z9):
    # swapping x and y turns gamma into eta up to the sign of a, and
    # G'_a = H_a through diag(1, -1); Z/9 is not a regular pair
    for pair, text, strict in ((pair_f5, "z", True), (pair_z9, "2", False)):
        a = pair.ring.parse(text)
        rep = verify_hom_hg(pair, a, pair.ring.one(), 8, strict=strict)
        nodes = {s.name: s for s in rep.subreports}
        for name in ("swapped-pair-realizations",
                     f"swapped-image-matches-H({text})"):
            assert nodes[name].passed, (text, name)


def test_module_labels(pair_f5):
    ring = pair_f5.ring
    assert module_g(pair_f5, ring.parse("z")).label == "G(z)"
    assert module_h(pair_f5, ring.parse("z^2")).label == "H(z^2)"
