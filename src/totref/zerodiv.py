"""Exact pairs of zero divisors and the regularity conditions on them.

A pair (x, y) of non-units is exact when Ann(x) = (y) and Ann(y) = (x).
Such a pair is regular when additionally (x) intersect (y) = 0; given
exactness this is equivalent to x acting injectively on A/(y) and to y
acting injectively on A/(x), and the checker verifies all three conditions
independently, raising EquivalenceViolation if they ever disagree.  Each
condition is one kernel computation over the linalg core: of [x, y] for
the intersection, and of [x | y] and [y | x], each followed by membership
tests, for the injectivity conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (EquivalenceViolation, NonHomogeneous, UnitInput,
                     UnsupportedQuotient)
from .linalg import Matrix, annihilator, ideal_membership, kernel_gens
from .modules import PresentedModule
from .report import FAIL, PASS, VerificationReport
from .rings import GradedMonomialRing, scope_of


@dataclass
class ExactZeroDivisorPair:
    ring: object
    x: object
    y: object
    exact_report: VerificationReport
    regular: str = "unknown"            # "true", "false" or "unknown"
    regular_report: VerificationReport | None = None

    @property
    def is_exact(self) -> bool:
        return self.exact_report.passed

    def swapped(self, bound=None) -> "ExactZeroDivisorPair":
        """The pair (y, x), re-verified; exactness is symmetric."""
        return exact_pair(self.ring, self.y, self.x, bound)

    def describe(self) -> dict:
        return {"x": repr(self.x), "y": repr(self.y),
                "exact": self.is_exact, "regular": self.regular}


def verify_exact_pair(ring, x, y, bound=None) -> VerificationReport:
    """Certify Ann(x) = (y), Ann(y) = (x) and x y = 0."""
    if ring.is_unit(x) or ring.is_unit(y):
        raise UnitInput("members of an exact pair must be non-units")
    scope = scope_of(ring, bound)
    details: dict = {"x": repr(x), "y": repr(y)}
    rep = VerificationReport("exact-pair", PASS, scope, details)
    details["x_nonzero"] = not x.is_zero
    details["y_nonzero"] = not y.is_zero
    product = x * y
    details["xy_zero"] = product.is_zero
    if not product.is_zero:
        rep.verdict = FAIL
        return rep
    for label, element, other in (("x", x, y), ("y", y, x)):
        gens = annihilator(ring, element, bound)
        shown = [repr(g) for g in gens]
        details[f"ann_{label}_generators"] = shown
        contained = True
        witnesses = []
        for g in gens:
            ok, wit = ideal_membership(ring, g, [other], bound)
            if not ok:
                contained = False
                details[f"ann_{label}_escape"] = repr(g)
                break
            witnesses.append(repr(wit[0]))
        details[f"ann_{label}_contained"] = contained
        if contained:
            details[f"ann_{label}_witnesses"] = witnesses
        if not contained:
            rep.verdict = FAIL
    if not (details["x_nonzero"] and details["y_nonzero"]):
        rep.verdict = FAIL
    return rep


def exact_pair(ring, x, y, bound=None) -> ExactZeroDivisorPair:
    return ExactZeroDivisorPair(ring, x, y, verify_exact_pair(ring, x, y, bound))


# ---------------------------------------------------------------------------
# regularity

def quotient_module(ring, gens) -> PresentedModule:
    """A/(gens) as a one-generator presented module."""
    if not gens:
        return PresentedModule.free(ring, 1, label="A")
    if isinstance(ring, GradedMonomialRing):
        for g in gens:
            if not g.is_homogeneous():
                raise NonHomogeneous("quotient ideal generators must be "
                                     "homogeneous on the graded backend")
        col_degs = tuple(g.degree() if not g.is_zero else 0 for g in gens)
        rho = Matrix(ring, [list(gens)], (0,), col_degs)
    else:
        rho = Matrix(ring, [list(gens)])
    return PresentedModule(ring, rho, "A/ideal")


def weakly_regular_on_quotient(ring, e, ideal_gens, bound=None) -> bool:
    """Whether multiplication by e is injective on A/(ideal_gens).

    The a-parts of the kernel of [e | gens] generate (I : e), so e acts
    injectively exactly when each of them lies in I = (gens).  On the
    graded backend the row sits in degree -deg(e) and the a-column in
    degree 0, so the window bounds the degree of a.
    """
    gens = [g for g in ideal_gens if not g.is_zero]
    row = Matrix(ring, [[e] + gens])
    if isinstance(ring, GradedMonomialRing):
        t = e.degree() or 0
        row = row.with_degrees((-t,), [0] + [g.degree() - t for g in gens])
    for gen in kernel_gens(row, bound):
        a = gen.entries[0][0]
        if not a.is_zero and not ideal_membership(ring, a, gens, bound)[0]:
            return False
    return True


def intersection_trivial(ring, x, y, bound=None) -> tuple[bool, object]:
    """Decide (x) intersect (y) = 0; returns (verdict, witness_or_None).

    (x) intersect (y) is generated by the a*x over the generators (a, b) of
    the kernel of [x, y], so it is zero exactly when every a*x is; the
    witness is the first nonzero one.
    """
    row = Matrix(ring, [[x, y]])
    if isinstance(ring, GradedMonomialRing):
        row = row.with_degrees((0,), (x.degree() or 0, y.degree() or 0))
    for gen in kernel_gens(row, bound):
        w = gen.entries[0][0] * x
        if not w.is_zero:
            return False, w
    return True, None


def verify_regular_pair(pair: ExactZeroDivisorPair, bound=None) -> VerificationReport:
    """Run the three equivalent regularity conditions and compare them.

    For a verified exact pair the three answers must agree; a disagreement
    would contradict the equivalence and raises EquivalenceViolation.  The
    returned report passes only when the pair is regular.
    """
    ring = pair.ring
    scope = scope_of(ring, bound)
    rep = VerificationReport("regular-pair", PASS, scope,
                             {"x": repr(pair.x), "y": repr(pair.y)})
    cond1 = weakly_regular_on_quotient(ring, pair.x, [pair.y], bound)
    cond2 = weakly_regular_on_quotient(ring, pair.y, [pair.x], bound)
    cond3, witness = intersection_trivial(ring, pair.x, pair.y, bound)
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
    pair.regular_report = rep
    return rep


# ---------------------------------------------------------------------------
# pairs from a factored monomial relation

def pair_from_factorization(ring, f, g, bound=None) -> ExactZeroDivisorPair:
    """Adjoin the relation f*g = 0 and return the verified pair (f, g).

    Only available on the graded backend and only when f and g are single
    terms, so that the new relation is again a pure monomial.
    """
    if not isinstance(ring, GradedMonomialRing):
        raise UnsupportedQuotient("factored relations need the graded backend")
    for name, e in (("f", f), ("g", g)):
        if len(e.terms) != 1:
            raise UnsupportedQuotient(
                f"{name} must be a single term so that f*g is a monomial")
    exp_f, coeff_f = f.terms[0]
    exp_g, coeff_g = g.terms[0]
    relation = tuple(a + b for a, b in zip(exp_f, exp_g))
    quotient = GradedMonomialRing(ring.p, ring.variables,
                                  ring.relations + (relation,))
    fq = quotient.monomial_element(exp_f, coeff_f)
    gq = quotient.monomial_element(exp_g, coeff_g)
    return exact_pair(quotient, fq, gq, bound)
