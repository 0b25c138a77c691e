"""Exact pairs of zero divisors and the regularity conditions on them.

A pair (x, y) of non-units is exact when Ann(x) = (y) and Ann(y) = (x).
Such a pair is regular when additionally (x) intersect (y) = 0; given
exactness this is equivalent to x acting injectively on A/(y) and to y
acting injectively on A/(x), and the checker verifies all three conditions
independently, raising EquivalenceViolation if they ever disagree.

Each question reads the row presenting A/(x), A/(y) or A/(x, y), held by
the pair.  Ann(x) is the kernel of [x]; the kernel of [x | y] holds the
(a, b) with a x + b y = 0, whose a generate (y : x), whose b generate
(x : y), and whose a x generate (x) intersect (y).  A graded row puts
column j at twist deg g_j, so a kernel bounding the degree of the j-th
entry by D is asked up to D + deg g_j.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import EquivalenceViolation, ParseError, UnitInput
from .linalg import ideal_membership
from .modules import PresentedModule
from .report import FAIL, PASS, VerificationReport
from .rings import degree_bound, scope_of


@dataclass
class ExactZeroDivisorPair:
    """(x, y), its exactness report (None until checked), and A/(x), A/(y)
    and A/(x, y), built when first used; A/(x) is A/(y) when x = y."""
    ring: object
    x: object
    y: object
    exact_report: VerificationReport | None = None
    regular: str = "unknown"            # "true", "false" or "unknown"

    @property
    def is_exact(self) -> bool:
        return self.exact_report is not None and self.exact_report.passed

    @functools.cached_property
    def quotient_x(self) -> PresentedModule:
        return PresentedModule.quotient(self.ring, [self.x])

    @functools.cached_property
    def quotient_y(self) -> PresentedModule:
        return self.quotient_x if self.y == self.x else \
            PresentedModule.quotient(self.ring, [self.y])

    @functools.cached_property
    def quotient_xy(self) -> PresentedModule:
        return PresentedModule.quotient(self.ring, [self.x, self.y])

    def swapped(self, bound=None) -> "ExactZeroDivisorPair":
        """The pair (y, x), re-verified on the same A/(y) and A/(x);
        exactness is symmetric."""
        pair = ExactZeroDivisorPair(self.ring, self.y, self.x)
        pair.quotient_x, pair.quotient_y = self.quotient_y, self.quotient_x
        pair.exact_report = verify_exact_pair(pair, bound)
        return pair

    def is_regular(self, bound) -> bool:
        """Whether the pair is regular, verified when first asked."""
        if self.regular == "unknown":
            verify_regular_pair(self, bound)
        return self.regular == "true"

    def weakly_regular(self, e, bound) -> bool:
        """Whether e is nonzero and acts injectively on A/(x, y)."""
        return not e.is_zero and \
            weakly_regular_on_quotient(e, self.quotient_xy, bound)

    def describe(self) -> dict:
        return {"x": repr(self.x), "y": repr(self.y),
                "exact": self.is_exact, "regular": self.regular}


def _syzygies(quotient: PresentedModule, bound, column) -> list:
    """Kernel generators of quotient's row, as tuples, in the window bounding
    the degree of entry ``column``, or for None the twisted degree.  No
    slice is kept: a pair, and so its rows, lives for a whole run."""
    twists = quotient.rho.col_degs
    if twists is not None and column is not None:
        bound = degree_bound(bound) + twists[column]
    return [tuple(row[0] for row in gen.entries)
            for gen in quotient.relations._kernel(bound, keep=False)]


def _inside(quotient: PresentedModule, elements) -> bool:
    """Whether every element lies in I, for quotient = A/I."""
    return all(e.is_zero or ideal_membership(quotient.relations, e)[0]
               for e in elements)


def verify_exact_pair(pair: ExactZeroDivisorPair,
                      bound=None) -> VerificationReport:
    """Certify Ann(x) = (y), Ann(y) = (x) and x y = 0."""
    ring, x, y = pair.ring, pair.x, pair.y
    if ring.is_unit(x) or ring.is_unit(y):
        raise UnitInput("members of an exact pair must be non-units")
    scope = scope_of(ring, bound)
    if scope["mode"] == "degree":
        check_window(x, y, scope["bound"], "window")
    details: dict = {"x": repr(x), "y": repr(y)}
    rep = VerificationReport("exact-pair", PASS, scope, details)
    details["x_nonzero"] = not x.is_zero
    details["y_nonzero"] = not y.is_zero
    product = x * y
    details["xy_zero"] = product.is_zero
    if not product.is_zero:
        rep.verdict = FAIL
        return rep
    for label, own, other in (("x", pair.quotient_x, pair.quotient_y),
                              ("y", pair.quotient_y, pair.quotient_x)):
        gens = [g for g, in _syzygies(own, bound, 0)]
        details[f"ann_{label}_generators"] = [repr(g) for g in gens]
        witnesses = []
        for g in gens:
            ok, wit = ideal_membership(other.relations, g)
            if not ok:
                details[f"ann_{label}_escape"] = repr(g)
                break
            witnesses.append(repr(wit[0]))
        contained = len(witnesses) == len(gens)
        details[f"ann_{label}_contained"] = contained
        if contained:
            details[f"ann_{label}_witnesses"] = witnesses
        else:
            rep.verdict = FAIL
    if not (details["x_nonzero"] and details["y_nonzero"]):
        rep.verdict = FAIL
    return rep


def exact_pair(ring, x, y, bound=None) -> ExactZeroDivisorPair:
    pair = ExactZeroDivisorPair(ring, x, y)
    pair.exact_report = verify_exact_pair(pair, bound)
    return pair


# ---------------------------------------------------------------------------
# regularity

def weakly_regular_on_quotient(e, quotient: PresentedModule, bound) -> bool:
    """Whether multiplication by e is injective on quotient = A/I.

    The first entries a of the kernel of [e | I's generators], the row of
    A/(e, I), generate (I : e), so e acts injectively exactly when each of
    them lies in I.  The window bounds the degree of a.
    """
    colon = PresentedModule.quotient(quotient.ring,
                                     [e, *quotient.rho.entries[0]])
    return _inside(quotient, [a for a, *_ in _syzygies(colon, bound, 0)])


def check_window(x, y, window: int, name: str, a=None) -> None:
    """Refuse a window below deg x + deg y (0 if x or y is zero): there the
    regularity conditions may disagree, and a pass would be vacuous.  Given
    a family's largest a_n, refuse one below deg a_n too: there a_n reads
    as 0, and the certificates cannot separate the family's modules."""
    floor = 0 if x.is_zero or y.is_zero else x.degree() + y.degree()
    if window < floor:
        raise ParseError(f"{name} {window} is below deg x + deg y = "
                         f"{floor}; the window would show nothing")
    if a is not None and not a.is_zero and window < a.degree():
        raise ParseError(f"{name} {window} is below deg a_n = "
                         f"{a.degree()} for the largest a_n; the window "
                         "cannot tell a_n from 0")


def verify_regular_pair(pair: ExactZeroDivisorPair, bound=None) -> VerificationReport:
    """Run the three equivalent regularity conditions and compare them.

    For a verified exact pair the three answers must agree; a disagreement
    would contradict the equivalence and raises EquivalenceViolation.  The
    returned report passes only when the pair is regular.
    """
    scope = scope_of(pair.ring, bound)
    if pair.is_exact and scope["mode"] == "degree":
        check_window(pair.x, pair.y, scope["bound"], "window")
    rep = VerificationReport("regular-pair", PASS, scope,
                             {"x": repr(pair.x), "y": repr(pair.y)})
    xy = pair.quotient_xy
    cond1 = _inside(pair.quotient_y, [a for a, _ in _syzygies(xy, bound, 0)])
    cond2 = _inside(pair.quotient_x, [b for _, b in _syzygies(xy, bound, 1)])
    common = (a * pair.x for a, _ in _syzygies(xy, bound, None))
    witness = next((w for w in common if not w.is_zero), None)
    cond3 = witness is None
    rep.details["x_injective_mod_y"] = cond1
    rep.details["y_injective_mod_x"] = cond2
    rep.details["intersection_trivial"] = cond3
    if witness is not None:
        rep.details["common_nonzero_element"] = repr(witness)
    if pair.is_exact and len({cond1, cond2, cond3}) > 1:
        raise EquivalenceViolation(
            "the three regularity conditions disagree on a verified exact "
            f"pair: {cond1}, {cond2}, {cond3}")
    if not (cond1 and cond2 and cond3):
        rep.verdict = FAIL
    pair.regular = "true" if rep.verdict == PASS else "false"
    return rep
