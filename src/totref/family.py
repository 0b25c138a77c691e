"""The two module families attached to an exact pair of zero divisors.

For a pair (x, y) and a ring element a the presentations are

    gamma_a = [[x, a], [0, y]]      G_a = Coker(gamma_a)
    eta_a   = [[y, -a], [0, x]]     H_a = Coker(eta_a)

and gamma_a, eta_a compose to zero in both orders, giving a doubly infinite
periodic complex.  This file builds those matrices with their twist layouts,
produces finite windows of the periodic resolution, and certifies the
structural statements: exactness of the complex, total reflexivity via dual
exactness and the duality pairing, and what G_a is: A/(x) + A/(y) when a
lies in (x), the ideal (y, a) when a is injective on A/(y).
"""

from __future__ import annotations

from .errors import NonHomogeneous, PreconditionFailed, TotrefError
from .linalg import Matrix, check_exact_at, ideal_membership, kernel_gens
from .modules import (PresentedModule, _held, dual_presentation,
                      ext_vanishing, verify_iso_witness)
from .report import FAIL, PASS, VerificationReport
from .rings import FiniteLocalRing, GradedMonomialRing, scope_of
from .zerodiv import ExactZeroDivisorPair, weakly_regular_on_quotient


def _family_layout(pair, a, flavor: str):
    """Twist layout (row_degs, col_degs) for gamma_a or eta_a: none on the
    finite backend, NonHomogeneous on graded data that has none."""
    ring = pair.ring
    if not isinstance(ring, GradedMonomialRing):
        return None, None
    if not (pair.x.is_homogeneous() and pair.y.is_homogeneous()
            and a.is_homogeneous()):
        raise NonHomogeneous(
            f"{flavor}_a needs homogeneous x, y and a, got "
            + ", ".join(f"{name} = {ring.format(e)}"
                        for name, e in zip("xya", (pair.x, pair.y, a))))
    wx = pair.x.degree() or 0
    wy = pair.y.degree() or 0
    first, second = (wx, wy) if flavor == "gamma" else (wy, wx)
    # wy for both flavors at a = 0, so eta_0 chains under gamma_0
    alpha = a.degree() if not a.is_zero else wy
    return (0, alpha - second), (first, alpha)


def gamma(pair: ExactZeroDivisorPair, a) -> Matrix:
    """The presentation [[x, a], [0, y]] of G_a, with twists when graded."""
    ring = pair.ring
    return Matrix(ring, [[pair.x, a], [ring.zero(), pair.y]],
                  *_family_layout(pair, a, "gamma"))


def eta(pair: ExactZeroDivisorPair, a) -> Matrix:
    """The presentation [[y, -a], [0, x]] of H_a, with twists when graded."""
    ring = pair.ring
    return Matrix(ring, [[pair.y, -a], [ring.zero(), pair.x]],
                  *_family_layout(pair, a, "eta"))


def phi_matrix(ring) -> Matrix:
    """The half-turn [[0, 1], [-1, 0]] used by every duality witness."""
    one, zero = ring.one(), ring.zero()
    return Matrix(ring, [[zero, one], [-one, zero]])


def module_g(pair: ExactZeroDivisorPair, a, strict: bool = True) -> PresentedModule:
    """G_a = Coker(gamma_a), one per pair and a inside a hom_memo() block.
    ``strict`` is ignored: it is kept only because perfbench/workloads.py
    passes ``strict=False``."""
    return _held(("G", pair.x, pair.y, a),
                 lambda: PresentedModule(pair.ring, gamma(pair, a),
                                         f"G({pair.ring.format(a)})"))


def module_h(pair: ExactZeroDivisorPair, a, strict: bool = True) -> PresentedModule:
    """H_a = Coker(eta_a), one per pair and a inside a hom_memo() block.
    ``strict`` is ignored: it is kept only because perfbench/workloads.py
    passes ``strict=False``."""
    return _held(("H", pair.x, pair.y, a),
                 lambda: PresentedModule(pair.ring, eta(pair, a),
                                         f"H({pair.ring.format(a)})"))


def _shift_degs(mat: Matrix, offset: int) -> Matrix:
    return mat.with_degrees(tuple(d + offset for d in mat.row_degs),
                            tuple(d + offset for d in mat.col_degs))


def periodic_resolution(pair: ExactZeroDivisorPair, a, length: int,
                        phase: str = "G") -> list[Matrix]:
    """Differentials d_1 .. d_length of the periodic free resolution.

    Phase "G" resolves G_a (d_1 = gamma_a, d_2 = eta_a shifted, ...);
    phase "H" starts with eta_a.  Twist layouts are chained so consecutive
    maps compose, which pins each copy at the correct shift.
    """
    if phase not in ("G", "H"):
        raise TotrefError("phase must be 'G' or 'H'")
    base = [gamma(pair, a), eta(pair, a)]
    if phase == "H":
        base.reverse()
    out = []
    prev_cols = None
    for i in range(length):
        mat = base[i % 2]
        if prev_cols is not None and mat.row_degs is not None:
            offset = prev_cols[0] - mat.row_degs[0]
            mat = _shift_degs(mat, offset)
            if mat.row_degs != prev_cols:
                raise TotrefError("periodic layouts failed to chain")
        out.append(mat)
        prev_cols = mat.col_degs
    return out


def _resolutions(pair: ExactZeroDivisorPair, a, modules: dict,
                 length: int) -> dict:
    """d_1 .. d_length of both phases for one certificate, whose G_a and
    H_a are ``modules["G"]`` and ``modules["H"]``.  On the finite backend
    d_(i+2) = d_i and phase H is phase G one step on, so every position of
    both is one of the two modules' ``relations``, and their transposes
    are the ones their duals hold; a graded d_(i+2) has its twists raised
    by deg x + deg y."""
    if not isinstance(pair.ring, FiniteLocalRing):
        return {phase: periodic_resolution(pair, a, length, phase)
                for phase in "GH"}
    held = [modules[phase].relations for phase in "GH"]
    return {phase: [held[(i + shift) % 2] for i in range(length)]
            for shift, phase in enumerate("GH")}


def verify_complex(pair: ExactZeroDivisorPair, a, length: int = 4,
                   bound=None, strict: bool = True) -> VerificationReport:
    """Certify the periodic complex for G_a and the half-turn identities.

    Checks the composites gamma eta = eta gamma = 0, exactness at every
    interior position of a length-``length`` window, and the transpose
    identities phi gamma_a^t = eta_a phi, phi eta_a^t = gamma_a phi that
    drive all duality statements.
    """
    if length < 2:  # exactness needs two consecutive differentials
        raise TotrefError(f"length must be at least 2, got {length}")
    if strict and not pair.is_exact:
        raise PreconditionFailed("the pair is not a verified exact pair")
    ring = pair.ring
    rep = VerificationReport("periodic-complex", PASS, scope_of(ring, bound),
                             {"a": repr(a), "pair_exact": pair.is_exact})
    modules = {"G": module_g(pair, a), "H": module_h(pair, a)}
    g, e = modules["G"].rho, modules["H"].rho
    ge = (g * e).is_zero
    eg = (e * g).is_zero
    rep.add(VerificationReport("composites-vanish",
                               PASS if ge and eg else FAIL,
                               scope_of(pair.ring, bound),
                               {"gamma_eta_zero": ge, "eta_gamma_zero": eg}))
    phi = phi_matrix(ring)
    id1 = (phi * g.transpose()).entries == (e * phi).entries
    id2 = (phi * e.transpose()).entries == (g * phi).entries
    rep.add(VerificationReport("half-turn-identities",
                               PASS if id1 and id2 else FAIL,
                               scope_of(pair.ring, bound),
                               {"phi_gamma_t_eq_eta_phi": id1,
                                "phi_eta_t_eq_gamma_phi": id2}))
    if ge and eg:
        for phase, diffs in _resolutions(pair, a, modules, length).items():
            for i in range(len(diffs) - 1):
                rep.add(check_exact_at(
                    diffs[i + 1], diffs[i], bound,
                    name=f"exact-{phase}-position-{i + 1}"))
    else:
        rep.verdict = FAIL
    return rep


# ---------------------------------------------------------------------------
# total reflexivity

def verify_total_reflexivity(pair: ExactZeroDivisorPair, a, i_max: int = 2,
                             bound=None, strict: bool = True) -> VerificationReport:
    """Structural total reflexivity of G_a and H_a.

    Certifies: the periodic resolutions of G_a and H_a are exact, all
    Ext^i(-, A) vanish for 1 <= i <= i_max, the dualized complexes are
    exact in the same range (via the transposed periodic resolutions), and
    the duality pairing identifies H_a with the dual of G_a and G_a with
    the dual of H_a through the half-turn witness.
    """
    if i_max < 1:  # the duality check needs d_2 of the resolution
        raise TotrefError(f"i_max must be at least 1, got {i_max}")
    if strict and not pair.is_exact:
        raise PreconditionFailed("the pair is not a verified exact pair")
    rep = VerificationReport("total-reflexivity", PASS,
                             scope_of(pair.ring, bound), {"a": repr(a)})
    phi = phi_matrix(pair.ring)
    modules = {"G": module_g(pair, a), "H": module_h(pair, a)}
    resolutions = _resolutions(pair, a, modules, i_max + 1)
    for phase, other in (("G", "H"), ("H", "G")):
        module = modules[phase]
        rep.add(ext_vanishing(module, resolutions[phase], i_max, bound,
                              name=f"ext-vanishing-{module.label}"))
        # d_2 is the other presentation: Coker(gamma^t) is H_a via phi and
        # Coker(eta^t) is G_a via phi
        target = modules[other]
        rep.add(verify_iso_witness(
            dual_presentation(module, target.rho), target, phi, phi, bound,
            name=f"dual-of-{module.label}-is-{target.label}"))
    return rep


# ---------------------------------------------------------------------------
# what G_a is

def verify_g_description(pair: ExactZeroDivisorPair, a, bound=None,
                         strict: bool = True) -> VerificationReport:
    """Certify what G_a is, under whichever of two hypotheses a meets.

    When a = q x lies in (x), G_a = A/(x) + A/(y), the a = 0 module: the
    witness adds q times the x-column to the a-column (node
    "decomposable-case").  Otherwise, when the pair is exact and a acts
    injectively on A/(y), G_a = (y, a) as submodules of A via the row
    (y, -a) (node "ideal-description"): the row kills both relation
    columns, its image is the ideal (y, a) by construction, and
    injectivity is the inclusion ker(row) into the column span of
    gamma_a, checked on kernel generators.
    """
    ring = pair.ring
    scope = scope_of(ring, bound)
    in_x, wit = ideal_membership(pair.quotient_x.relations, a)
    if in_x:
        q = wit[0]
        one, zero = ring.one(), ring.zero()
        src = module_g(pair, a)
        tgt = module_g(pair, zero)
        rep = VerificationReport("decomposable-case", PASS, scope,
                                 {"a": repr(a), "q": repr(q)})
        rep.add(verify_iso_witness(
            src, tgt, Matrix.identity(ring, 2),
            Matrix(ring, [[one, q], [zero, one]]),
            bound, name="column-operation-witness"))
        return rep
    hypothesis = weakly_regular_on_quotient(a, pair.quotient_y, bound)
    if strict and not (pair.is_exact and hypothesis):
        raise PreconditionFailed("a is not in (x), and G_a = (y, a) needs "
                                 "a verified exact pair and a injective "
                                 "on A/(y)")
    rep = VerificationReport("ideal-description", PASS, scope,
                             {"a": repr(a),
                              "a_injective_mod_y": hypothesis})
    module = module_g(pair, a)
    row = Matrix(ring, [[pair.y, -a]])
    composite = row * module.rho
    rep.details["row_kills_relations"] = composite.is_zero
    if not composite.is_zero:
        rep.verdict = FAIL
        return rep
    if module.gen_degs is not None:
        row = row.with_degrees((-(pair.y.degree() or 0),), module.gen_degs)
    gens = kernel_gens(row, bound)
    escaping = module.relations.outside(gens)
    rep.details["kernel_generators"] = len(gens)
    rep.details["kernel_inside_image"] = escaping is None
    if escaping is not None:
        rep.details["escaping_kernel_generator"] = repr(escaping)
        rep.verdict = FAIL
    return rep
