"""Exact pairs of zero divisors and the regularity conditions on them.

A pair (x, y) of non-units is exact when Ann(x) = (y) and Ann(y) = (x).
Such a pair is regular when additionally (x) intersect (y) = 0; given
exactness this is equivalent to x acting injectively on A/(y) and to y
acting injectively on A/(x), and the checker verifies all three conditions
independently, raising EquivalenceViolation if they ever disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fp, _zn
from .errors import (EquivalenceViolation, NonHomogeneous, TotrefError,
                     UnitInput, UnsupportedQuotient)
from .linalg import Matrix
from .modules import ModuleMap, PresentedModule
from .report import FAIL, PASS, VerificationReport
from .rings import (DEFAULT_DEGREE_BOUND, FiniteLocalRing,
                    GradedMonomialRing, annihilator, ideal_membership,
                    scope_of)


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
    """Whether multiplication by e is injective on A/(ideal_gens)."""
    if e.is_zero:
        # zero acts injectively only on the zero module
        one = ring.one()
        return ideal_membership(ring, one, list(ideal_gens), bound)[0]
    if isinstance(ring, GradedMonomialRing):
        if not e.is_homogeneous():
            raise NonHomogeneous("the acting element must be homogeneous")
        return _graded_mult_injective(ring, e, ideal_gens,
                                      bound if bound is not None
                                      else DEFAULT_DEGREE_BOUND)
    module = quotient_module(ring, list(ideal_gens))
    mult = ModuleMap(module, module, Matrix(ring, [[e]]))
    return mult.is_injective()


def _graded_mult_injective(ring, e, ideal_gens, bound: int) -> bool:
    """Slicewise: a in A_d with e*a in I_(d+t) forces a in I_d."""
    t = e.degree()
    gens = [g for g in ideal_gens if not g.is_zero]
    for d in range(bound + 1):
        dim_d = ring.dim(d)
        if dim_d == 0:
            continue
        ideal_d = _ideal_slice(ring, gens, d)
        ideal_up = _ideal_slice(ring, gens, d + t)
        mult = ring.mult_matrix(e, d)
        # kernel of (mult into A_(d+t) / I_(d+t))
        if ideal_up is None:
            kern = _fp.kernel(mult, ring.p)
        else:
            stacked = np.concatenate([mult, ideal_up], axis=1)
            kern_full = _fp.kernel(stacked, ring.p)
            kern = kern_full[:dim_d, :] if kern_full.size else kern_full
        if kern.size == 0:
            continue
        # each kernel vector must already lie in I_d
        extra = _fp.extend_independent(ideal_d, kern, ring.p)
        if extra:
            return False
    return True


def _ideal_slice(ring, gens, d: int):
    blocks = []
    for g in gens:
        dg = g.degree()
        if dg is not None and d - dg >= 0 and ring.dim(d - dg) > 0:
            blocks.append(ring.mult_matrix(g, d - dg))
    if not blocks:
        return None
    return np.concatenate(blocks, axis=1)


def intersection_trivial(ring, x, y, bound=None) -> tuple[bool, object]:
    """Decide (x) intersect (y) = 0; returns (verdict, witness_or_None)."""
    if isinstance(ring, FiniteLocalRing):
        cols_x = ring.mult_columns(x)
        cols_y = ring.mult_columns(y)
        d = ring.ext_degree
        size_x = _zn.SpanSolver(cols_x, ring.n, d).span_size()
        size_y = _zn.SpanSolver(cols_y, ring.n, d).span_size()
        size_sum = _zn.SpanSolver(cols_x + cols_y, ring.n, d).span_size()
        if size_x * size_y == size_sum:
            return True, None
        # |(x)| |(y)| = |(x)+(y)| |(x) cap (y)|, so a nonzero common
        # element exists; find one by scanning multiples of x
        solver_y = _zn.SpanSolver(cols_y, ring.n, d)
        for a in ring.enumerate_carrier():
            w = x * a
            if not w.is_zero and solver_y.solve(list(w.coords)) is not None:
                return False, w
        raise TotrefError("size arithmetic and scan disagree")
    if not (x.is_homogeneous() and y.is_homogeneous()):
        raise NonHomogeneous("intersection check needs homogeneous elements")
    if bound is None:
        bound = DEFAULT_DEGREE_BOUND
    tx, ty = x.degree(), y.degree()
    for d in range(bound + 1):
        mx = _ideal_slice(ring, [x], d)
        my = _ideal_slice(ring, [y], d)
        if mx is None or my is None:
            continue
        rank_x = _fp.rank(mx, ring.p)
        rank_y = _fp.rank(my, ring.p)
        both = np.concatenate([mx, my], axis=1)
        rank_sum = _fp.rank(both, ring.p)
        if rank_x + rank_y != rank_sum:
            # a rank deficit means a nonzero common element; read one off
            # the kernel of [mx | my], whose x-part cannot always vanish
            kern = _fp.kernel(both, ring.p)
            for j in range(kern.shape[1]):
                coeffs = kern[:mx.shape[1], j:j + 1]
                w = ring.element_of_vector(
                    _fp.mul(ring.mult_matrix(x, d - tx), coeffs,
                            ring.p)[:, 0], d)
                if not w.is_zero:
                    return False, w
            return False, None
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
