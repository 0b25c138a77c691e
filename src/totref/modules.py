"""Finitely presented modules and certified module-level checks.

A module is a cokernel presentation: M = A^g / (column span of rho).  On the
graded backend rho carries a twist layout, so M inherits generator degrees
and finite dimensional graded slices.  The checks in this file are exact at
a declared scope: exhaustive on the finite backend, degree bounded on the
graded one.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools

from . import _fp
from .errors import (DimensionMismatch, InvalidResolution, NotAComplex,
                     TotrefError, WrongBackend)
from .linalg import (Factored, Matrix, _twist_layout, check_exact_at,
                     hstack, ideal_membership, infer_degrees, slice_rank,
                     solve_right)
from .report import FAIL, PASS, VerificationReport
from .rings import FiniteLocalRing, GradedMonomialRing, scope_of


# the run memo of the enclosing hom_memo() block, None outside one
_HOM_MEMO: contextvars.ContextVar = contextvars.ContextVar("hom_memo",
                                                          default=None)


@contextlib.contextmanager
def hom_memo():
    """Hold what a run builds while the block runs: the family modules,
    their half-turned presentations and every distinct Hom, each built once
    (see _held).  The memo is dropped when the block exits, so nothing
    outlives the run that opened it."""
    token = _HOM_MEMO.set({})
    try:
        yield
    finally:
        _HOM_MEMO.reset(token)


def _held(key, build):
    """``build()``, built once per ``key`` inside a hom_memo() block and
    handed to every later caller with that key; outside one, built anew."""
    memo = _HOM_MEMO.get()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


class PresentedModule:
    """M = Coker(rho), with rho's rows indexing the generators of M.
    ``relations``, the one ``Factored`` of rho, is built when first used."""

    def __init__(self, ring, rho: Matrix, label: str = "M"):
        if rho.ring.key != ring.key:
            raise TotrefError("presentation over a different ring")
        if isinstance(ring, GradedMonomialRing):
            rho = infer_degrees(rho)
        self.ring = ring
        self.rho = rho
        self.label = label
        self.ngens = rho.nrows
        self.gen_degs = rho.row_degs
        self._tables = None  # coset tables, built by homcalc._target_tables
        self._dims: dict[int, int] = {}  # the Hilbert function, by degree

    @classmethod
    def free(cls, ring, n: int = 1, degs=None, label: str = "A") -> "PresentedModule":
        degs = tuple(degs) if degs is not None else \
            ((0,) * n if isinstance(ring, GradedMonomialRing) else None)
        col_degs = (degs[0],) if degs is not None else None
        rho = Matrix.zeros(ring, n, 1, degs, col_degs)
        return cls(ring, rho, label)

    @classmethod
    def quotient(cls, ring, gens) -> "PresentedModule":
        """A/I for the ideal I of ``gens``, presented by the 1 x g row of
        them, or by one zero column when there are none.  Its ``relations``
        answer every question about I: e lies in I when the row solves
        against e, and the row's kernel holds the generators' syzygies."""
        return cls(ring, Matrix(ring, [list(gens) or [ring.zero()]]), "A/I")

    def __repr__(self):
        return f"<module {self.label}: {self.ngens} generators>"

    @functools.cached_property
    def relations(self) -> Factored:
        return Factored(self.rho)

    def size(self) -> int:
        """Cardinality of M, finite backend only."""
        if not isinstance(self.ring, FiniteLocalRing):
            raise WrongBackend("cardinality needs the finite backend")
        total = self.ring.carrier_size() ** self.ngens
        return total // self.relations.span.span_size()

    def slice_dim(self, d: int) -> int:
        """dim M_d, held once known: a Hom module's are recorded as it is
        built, and the others are read off a slice of rho when asked."""
        if not isinstance(self.ring, GradedMonomialRing):
            raise WrongBackend("graded slices need the graded backend")
        if d not in self._dims:
            free_dim = _twist_layout(self.ring, self.gen_degs, d)[2]
            self._dims[d] = free_dim and free_dim - slice_rank(self.rho, d)
        return self._dims[d]


def hilbert_function(module: PresentedModule, lo: int, hi: int) -> list[int]:
    return [module.slice_dim(d) for d in range(lo, hi + 1)]


def minimal_generator_count(module: PresentedModule) -> int:
    """mu(M) over the local ring: generators minus residue rank of rho."""
    ring = module.ring
    rho = module.rho
    residues = [{j: r for j, e in enumerate(row) if (r := ring.residue(e))}
                for row in rho.entries]
    return rho.nrows - _fp.rank(residues, ring.p)


def fitting_ideal(module: PresentedModule, j: int) -> list:
    """Generators of the j-th Fitting ideal of M (minors of size g - j)."""
    size = module.ngens - j
    if size <= 0:
        return [module.ring.one()]
    rho = module.rho
    if size > rho.nrows or size > rho.ncols:
        return []
    seen = []
    for minor in rho.minors(size):
        if not minor.is_zero and minor not in seen:
            seen.append(minor)
    return seen


def ideals_equal(ring, gens1, gens2) -> bool:
    """Whether (gens1) = (gens2): each side is factored once, as A/I, and
    every generator of the other side must solve against it."""
    first, second = (PresentedModule.quotient(ring, gens)
                     for gens in (gens1, gens2))
    return all(ideal_membership(second.relations, e)[0] for e in gens1) \
        and all(ideal_membership(first.relations, e)[0] for e in gens2)


# ---------------------------------------------------------------------------
# isomorphism by explicit witness

def verify_iso_witness(source: PresentedModule, target: PresentedModule,
                       p_matrix: Matrix, s_matrix: Matrix | None = None,
                       bound=None,
                       name: str = "isomorphism-witness") -> VerificationReport:
    """Certify source = target via a generator change P invertible on cosets.

    Checks P rho_src = rho_tgt S (S solved for when not supplied), then
    finds V with P V = I modulo the target relations and checks that V
    descends and that V P = I modulo the source relations, so the two
    induced maps are mutually inverse module isomorphisms.  P need not be
    square: a presentation with redundant generators admits a rectangular
    change of generators.
    """
    ring = source.ring
    scope = scope_of(ring, bound)
    # witnesses stay layout-free
    p_matrix = p_matrix.without_degrees()
    rho_src, rho_tgt = source.rho, target.rho
    details: dict = {"P": repr(p_matrix)}
    if s_matrix is None:
        s_matrix = target.relations.solve(p_matrix * rho_src)
        if s_matrix is None:
            details["failure"] = "P does not carry relations into relations"
            return VerificationReport(name, FAIL, scope, details)
    else:
        s_matrix = s_matrix.without_degrees()
    details["S"] = repr(s_matrix)
    if (p_matrix * rho_src).entries != (rho_tgt * s_matrix).entries:
        details["failure"] = "P rho != rho' S"
        return VerificationReport(name, FAIL, scope, details)
    stacked = hstack([p_matrix, rho_tgt])
    solution = solve_right(stacked, Matrix.identity(ring, target.ngens))
    if solution is None:
        details["failure"] = "P has no right inverse modulo the target " \
                             "relations"
        return VerificationReport(name, FAIL, scope, details)
    p_inv = Matrix(ring,
                   [solution.entries[i] for i in range(source.ngens)])
    details["P_inverse"] = repr(p_inv)
    src = source.relations
    if src.solve(p_inv * rho_tgt) is None:
        details["failure"] = "P^-1 does not carry relations into relations"
        return VerificationReport(name, FAIL, scope, details)
    residual = p_inv * p_matrix - Matrix.identity(ring, source.ngens)
    if not residual.is_zero and src.solve(residual) is None:
        details["failure"] = "P^-1 P is not the identity on cosets"
        return VerificationReport(name, FAIL, scope, details)
    return VerificationReport(name, PASS, scope, details)


# ---------------------------------------------------------------------------
# duals and resolutions

def dual_presentation(module: PresentedModule,
                      next_matrix: Matrix) -> PresentedModule:
    """Presentation of Hom(M, A) for M with a periodic complete resolution.

    For M = Coker(rho) sitting in an exact two-periodic complex whose next
    differential is ``next_matrix``, dualizing the complex exhibits
    Hom(M, A) as Coker(rho transposed).  The composite rho * next must
    vanish; exactness of the ambient complex is the caller's certificate.
    The dual's relations are ``module.relations.transpose()``, the one
    factorization of rho^T that the dualized complex also reads.
    """
    if module.rho.ncols != next_matrix.nrows:
        raise DimensionMismatch("next differential has the wrong shape")
    if not (module.rho * next_matrix).is_zero:
        raise NotAComplex("rho composed with the next differential is nonzero")
    relations = module.relations.transpose()
    dual = PresentedModule(module.ring, relations.rho,
                           f"dual({module.label})")
    dual.relations = relations
    return dual


def validate_resolution(module: PresentedModule, differentials: list,
                        bound=None) -> VerificationReport:
    """Check that d_1, d_2, ... resolve M: d_1 = rho and exact at each F_i;
    a map held as a ``Factored`` is factored once for all its positions."""
    head = getattr(differentials[0], "rho", differentials[0]) \
        if differentials else None
    if head is None or head.entries != module.rho.entries:
        raise InvalidResolution("first differential must be the presentation")
    rep = VerificationReport("resolution-valid", PASS,
                             scope_of(module.ring, bound))
    for i in range(len(differentials) - 1):
        try:
            sub = check_exact_at(differentials[i + 1], differentials[i],
                                 bound, name=f"exact-at-step-{i + 1}")
        except NotAComplex as ex:
            raise InvalidResolution(str(ex)) from ex
        rep.add(sub)
    if not rep.passed:
        raise InvalidResolution(
            f"claimed resolution is not exact: {rep.first_failure()}")
    return rep


def ext_vanishing(module: PresentedModule, differentials: list,
                  i_max: int, bound=None,
                  name: str = "ext-vanishing") -> VerificationReport:
    """Certify Ext^i(M, A) = 0 for 1 <= i <= i_max from a free resolution.

    ``differentials`` must contain d_1 .. d_(i_max+1); the resolution is
    validated first and a failing validation raises InvalidResolution.
    Each vanishing claim is the exactness of the dualized complex at F_i*;
    a ``Factored`` differential holds its transpose for every position.
    """
    if len(differentials) < i_max + 1:
        raise InvalidResolution(
            f"need {i_max + 1} differentials to reach Ext^{i_max}")
    rep = VerificationReport(name, PASS, scope_of(module.ring, bound))
    rep.add(validate_resolution(module, differentials, bound))
    for i in range(1, i_max + 1):
        rep.add(check_exact_at(differentials[i - 1].transpose(),
                               differentials[i].transpose(), bound,
                               name=f"ext-{i}-vanishes"))
    return rep
