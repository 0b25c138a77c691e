"""Hom modules between presented modules, and the certified identity battery.

Hom(Coker r1, Coker r2) is computed from the lifting condition psi r1 =
r2 xi: one kernel computation over the ring yields generating pairs
(psi, xi), a second one yields the relations among the cosets [psi], and
the result is again a presented module.  On top of that sit the verifiers:
two-generator exact-sequence descriptions of Hom between family modules
(whose subchecks also certify the five-element generating sets),
endomorphism rings, transpose duality, Ext symmetry, and the
non-isomorphism and family batteries.  Every verdict names its scope:
exhaustive on the finite backend, degree bounded on the graded one.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import operator
from dataclasses import dataclass, replace

from . import _fp
from .errors import (LIMITS, EquivalenceViolation, InconclusiveStrategy,
                     NonHomogeneous, PreconditionFailed, TotrefError,
                     WrongBackend, check_size)
from .family import (eta, gamma, module_g, module_h, periodic_resolution,
                     phi_matrix, verify_total_reflexivity)
from .linalg import (Factored, Matrix, _column_degree, _flatten_vector,
                     _twist_layout, _unflatten_vector, homology, hstack,
                     kernel_gens, kron)
from .modules import (PresentedModule, _held, fitting_ideal,
                      hilbert_function, hom_memo, ideals_equal,
                      minimal_generator_count, verify_iso_witness)
from .report import FAIL, PASS, SCHEMA_VERSION, VerificationReport, report
from .rings import (FiniteLocalRing, GradedMonomialRing, degree_bound,
                    scope_of)
from .zerodiv import ExactZeroDivisorPair, check_window

_MAP_CAP = "generated map set exceeds the budget of {cap} maps"


# ---------------------------------------------------------------------------
# vectorised matrix spaces
#
# A map psi: A^n1 -> A^n2 is stored as the column of its entries in row
# major order, index (i, k) -> i * n1 + k.  With source generator degrees
# s1 and target degrees s2, the carrier row (i, k) gets degree
# s2[i] - s1[k], so a homogeneous psi of hom degree t becomes a column of
# column degree t.

def _carrier_degs(s1, s2):
    if s1 is None or s2 is None:
        return None
    return tuple(s2[i] - s1[k] for i in range(len(s2)) for k in range(len(s1)))


def _matrix_from_flat(ring, elements, nrows: int, ncols: int) -> Matrix:
    return Matrix._trusted(ring, [elements[i * ncols:(i + 1) * ncols]
                                  for i in range(nrows)])


def _vec_span(source: PresentedModule, target: PresentedModule, maps,
              degs=None) -> Matrix:
    """Columns vec(psi_t), then the relation columns kron(rho_2, I).

    Relation column (u, v) places column u of rho_2 in column v of the map
    matrix, so these span (rho_2 M) vectorised.  degs are the hom degrees
    of maps, read off their entries when omitted.  The span carries
    degrees only when every column degree is known.
    """
    ring = target.ring
    s1, s2 = source.gen_degs, target.gen_degs
    carrier = _carrier_degs(s1, s2)
    columns = [[e for row in psi.entries for e in row] for psi in maps]
    col_degs = None
    if carrier is not None:
        try:
            col_degs = list(degs) if degs is not None else \
                [_column_degree(carrier, vec, 0) or 0 for vec in columns]
        except NonHomogeneous:
            pass
    if col_degs is None or None in col_degs:
        carrier = col_degs = None
    return hstack([Matrix(ring, list(zip(*columns)), carrier, col_degs),
                   kron(target.rho, _dual_identity(ring, source.ngens, s1))])


def _dual_identity(ring, n: int, degs) -> Matrix:
    """The identity on sum_k A(degs[k]); layout-free when degs is None."""
    return Matrix.identity(ring, n,
                           None if degs is None else [-s for s in degs])


def _express(span: Factored, psi: Matrix):
    """Coefficients writing vec(psi) over the columns of span, or None."""
    vec = [[e] for row in psi.entries for e in row]
    return span.solve(Matrix(span.ring, vec, span.rho.row_degs, None))


# ---------------------------------------------------------------------------
# the Hom presentation

@dataclass
class HomPresentation:
    """Hom(source, target) as a presented module.

    generators[t] is an (target.ngens x source.ngens) map matrix; module
    presents the cosets [generators[t]] with the computed relation matrix.
    """

    source: PresentedModule
    target: PresentedModule
    generators: tuple
    gen_degrees: tuple
    module: PresentedModule
    scope: dict

    @property
    def ring(self):
        return self.source.ring

    @property
    def gen_count(self) -> int:
        return len(self.generators)


def _module_key(module: PresentedModule):
    rho = module.rho
    return (rho.entries, rho.row_degs, rho.col_degs)


def hom_presentation(source: PresentedModule, target: PresentedModule,
                     bound=None) -> HomPresentation:
    """Compute Hom(source, target) as a presented module.

    The generating map matrices come from the kernel of the combined
    lifting system in the unknowns (psi, xi); the relations among their
    cosets come from a second kernel over the generator coefficients.
    Inside a hom_memo() block a repeated input is answered from the memo,
    under the caller's labels: the same ring, bound, presentation entries
    and degree layouts name one computation, whatever the labels.
    """
    hp = _held(("Hom", source.ring.key, _module_key(source),
                _module_key(target), bound),
               lambda: _hom_presentation(source, target, bound))
    if (hp.source.label, hp.target.label) != (source.label, target.label):
        module = copy.copy(hp.module)  # shares the recorded dimensions
        module.label = f"Hom({source.label},{target.label})"
        hp = replace(hp, source=source, target=target, module=module)
    return hp


def _hom_presentation(src: PresentedModule, tgt: PresentedModule,
                      bound) -> HomPresentation:
    if src.ring.key != tgt.ring.key:
        raise TotrefError("source and target live over different rings")
    ring = src.ring
    scope = scope_of(ring, bound)
    rho1, rho2 = src.rho, tgt.rho
    n1, q1 = rho1.nrows, rho1.ncols
    n2 = rho2.nrows
    s1, s2 = src.gen_degs, tgt.gen_degs
    graded = isinstance(ring, GradedMonomialRing)

    # lifting system psi rho1 = rho2 xi: rows (i, j), unknowns psi then xi
    system = hstack([kron(Matrix.identity(ring, n2, s2), rho1.transpose()),
                     kron(-rho2, _dual_identity(ring, q1, rho1.col_degs))])

    generators = []
    gen_degrees = []
    for gen in kernel_gens(system, bound):
        flat = [gen.entries[r][0] for r in range(n2 * n1)]
        psi = _matrix_from_flat(ring, flat, n2, n1)
        if psi.is_zero:
            continue
        t = gen.col_degs[0] if gen.col_degs is not None else None
        if graded and t is not None:
            psi = psi.with_degrees(s2, tuple(s1[k] + t for k in range(n1)))
        generators.append(psi)
        gen_degrees.append(t)

    label = f"Hom({src.label},{tgt.label})"
    if not generators:
        one = Matrix(ring, [[ring.one()]],
                     (0,) if graded else None, (0,) if graded else None)
        module = PresentedModule(ring, one, label)
        return HomPresentation(src, tgt, (), (), module, scope)

    # the relations: the heads of the kernel of coeff = [vec psi |
    # kron(rho_2, I)], whose eliminations also give Hom's Hilbert function
    k = len(generators)
    relations = Factored(_vec_span(src, tgt, generators, gen_degrees))
    rel_gens = [gen for gen in relations._kernel(bound, keep=False)
                if not all(row[0].is_zero for row in gen.entries[:k])]
    row_degs = tuple(gen_degrees) if graded else None
    if rel_gens:
        rel = Matrix(ring, [[gen.entries[r][0] for gen in rel_gens]
                            for r in range(k)], row_degs,
                     [gen.col_degs[0] for gen in rel_gens] if graded else None)
    else:
        rel = Matrix.zeros(ring, k, 1, row_degs,
                           row_degs[:1] if graded else None)
    module = PresentedModule(ring, rel, label)
    if graded:
        # dim Hom_d = rank(coeff_d) - dim T_d, T the image of the relation
        # columns kron(rho_2, I): rho_2 once per source generator k, in
        # degree d + s1[k], and rank rho_2 is the free rank less dim N
        def rho2_rank(e: int) -> int:
            return _twist_layout(ring, s2, e)[2] - tgt.slice_dim(e)
        module._dims.update(
            (d, r - sum(rho2_rank(d + s) for s in s1))
            for d, r in relations._ranks.items())
    return HomPresentation(src, tgt, tuple(generators), tuple(gen_degrees),
                           module, scope)


# ---------------------------------------------------------------------------
# the brute force oracle (finite backend)

class _TargetTables:
    """Indexed coset arithmetic for a finite presented module.

    Cosets are numbered 0..r-1 by their canonical keys in lexicographic
    order; reps[i] is the lexicographically first generator-coefficient
    tuple of coset i, add is the r x r sum table and mul maps each ring
    element (by coordinate key) to the r-list of scalar multiples.  The
    keys are the product of the solver's reduced bounds, each the first
    vector of its coset and indexed by its mixed-radix rank.

    Key j is key j - strides[u] plus the unit vector e_u (key strides[u])
    when u is the first nonzero coordinate of key j.  So, coordinates taken
    from the last, add[j][i] = plus_u[add[j - strides[u]][i]] with plus_u[i]
    the index of key i + e_u, the scalar row of t^s follows the same way
    from the products t^s e_u, and the row of a ring element c is the
    entrywise sum of the rows of c - t^s and t^s, for the last nonzero
    coordinate s of c.  Only the sums key i + e_u and the products t^s e_u
    are reduced: g d (r + d) vectors at most.
    """

    def __init__(self, module: PresentedModule):
        ring = module.ring
        g, d = module.ngens, ring.ext_degree
        self.ring = ring
        self.solver = module.relations.span
        bounds = self.solver.reduced_bounds()
        self.keys = list(itertools.product(*map(range, bounds)))
        self.reps = [tuple(_unflatten_vector(ring, key, g))
                     for key in self.keys]
        r = len(self.keys)
        self._strides = strides = [math.prod(bounds[u + 1:])
                                   for u in range(g * d)]
        # the zero vector is the lexicographically first key
        self.zero_idx = 0
        # the coordinates u whose e_u is a key, the last (stride 1) first
        units = [u for u in reversed(range(g * d)) if bounds[u] > 1]
        self.add = [list(range(r))]
        for u in units:
            shift = self._lookup([key[:u] + (key[u] + 1,) + key[u + 1:]
                                  for key in self.keys]).__getitem__
            for j in range(strides[u], strides[u] * bounds[u]):
                self.add.append(list(map(shift, self.add[j - strides[u]])))
        powers = []  # the scalar rows of 1, t, ..., t^(d-1)
        for s in range(d):
            # t^s e_u is t^(s + u mod d) in e_u's generator block
            products = self._lookup(
                [[0] * (u - u % d) + list(ring.power_coords(s + u % d))
                 + [0] * (g * d - d - u + u % d) for u in units])
            row = [self.zero_idx]
            for u, product in zip(units, products):
                shift = self.add[product].__getitem__
                for j in range(strides[u], strides[u] * bounds[u]):
                    row.append(shift(row[j - strides[u]]))
            powers.append(row)
        # enumerate_carrier lists the coordinates lexicographically
        rows = [[self.zero_idx] * r]
        for s in reversed(range(d)):
            shifted = [self.add[x] for x in powers[s]]
            stride = ring.n ** (d - 1 - s)
            for i in range(stride, stride * ring.n):
                rows.append(list(map(list.__getitem__, shifted,
                                     rows[i - stride])))
        self.mul = {c.coords: row
                    for c, row in zip(ring.enumerate_carrier(), rows)}

    def _lookup(self, vectors) -> list[int]:
        return [sum(map(operator.mul, vec, self._strides))
                for vec in self.solver.reduce(vectors)]

    def indices_of_columns(self, columns) -> list[int]:
        """Coset indices of ``columns``, each a list of ring elements."""
        return self._lookup([_flatten_vector(self.ring, col)
                             for col in columns])


def _target_tables(module: PresentedModule, budget: int) -> _TargetTables:
    """The coset tables of ``module``, refused past ``budget`` held or not.

    The tables hold r (r + |A|) cells: r rows of add and |A| of mul.
    """
    r = module.size()
    check_size(r * (r + module.ring.carrier_size()), budget,
               "coset table of {value} cells exceeds the budget of {cap}")
    if module._tables is None:
        module._tables = _TargetTables(module)
    return module._tables


def brute_force_hom_oracle(source: PresentedModule, target: PresentedModule,
                           budget=None):
    """All module maps Coker rho_1 -> Coker rho_2, by exhaustive search.

    Every assignment of target cosets to the source generators but the
    last is tried, and the last one's images that make every relation
    column vanish are looked up.  Returns the set of maps, each encoded
    as the tuple of canonical target representatives of the generator
    images.  Finite backend only; raises TooLarge when the assignment
    count would exceed ``budget``, by default the carrier budget of
    errors.LIMITS.
    """
    if not isinstance(source.ring, FiniteLocalRing):
        raise WrongBackend("the exhaustive oracle needs the finite backend")
    budget = LIMITS["carrier"] if budget is None else budget
    tables = _target_tables(target, budget)
    n1 = source.ngens
    check_size(len(tables.keys) ** n1, budget,
               "assignment enumeration of {value} maps exceeds the budget "
               "of {cap}")
    add, keys, rho = tables.add, tables.keys, source.rho
    neg = [row.index(tables.zero_idx) for row in add]
    *heads, last = [
        [tables.mul[rho.entries[k][j].coords] for j in range(rho.ncols)]
        for k in range(n1)]
    preimages = {}
    for v, terms in enumerate(zip(*last)):
        preimages.setdefault(terms, []).append(keys[v])
    # per column, minus the sum of the other generators' terms, over all
    # their images in product order
    needs = []
    for j in range(rho.ncols):
        acc = [tables.zero_idx]
        for rows in heads:
            acc = [add[s][w] for s in acc for w in rows[j]]
        needs.append(map(neg.__getitem__, acc))
    maps = set()
    for head, need in zip(itertools.product(keys, repeat=n1 - 1),
                          zip(*needs)):
        maps.update(head + (image,) for image in preimages.get(need, ()))
    return maps


def _map_closure(hp: HomPresentation, cap: int):
    """Coset tables of hp's target and the maps hp's generators reach.

    A map is the tuple of coset indices of the images of the source
    generators.  A is spanned over Z/n by 1, t, ..., t^(d-1), so the A-span
    of the generators g is the subgroup generated by the steps t^j g.  Each
    step s not yet reached appends the cosets H + s, H + 2s, ... of the
    maps H reached so far, up to the first multiple of s already reached.
    Raises TooLarge past the carrier budget's table cells or ``cap`` maps.
    """
    ring = hp.ring
    if not isinstance(ring, FiniteLocalRing):
        raise WrongBackend("map enumeration needs the finite backend")
    n1 = hp.source.ngens
    tables = _target_tables(hp.target, LIMITS["carrier"])
    scalars = [tables.mul[ring.power_coords(j)]
               for j in range(ring.ext_degree)]
    add = tables.add
    reached = [(tables.zero_idx,) * n1]
    found = set(reached)
    images = tables.indices_of_columns(
        [col for psi in hp.generators for col in psi.transpose().entries])
    for start in range(0, len(images), n1):
        base = images[start:start + n1]
        for mul in scalars:
            step = tuple(mul[b] for b in base)
            multiple = step
            cosets = [reached]
            while multiple not in found:
                check_size(len(found) + len(reached), cap, _MAP_CAP)
                # add is symmetric: state + multiple reads multiple's rows
                rows = [add[m] for m in multiple]
                coset = [tuple(map(list.__getitem__, rows, state))
                         for state in reached]
                found.update(coset)
                cosets.append(coset)
                multiple = tuple(map(list.__getitem__, rows, step))
            if len(cosets) > 1:
                reached = [state for coset in cosets for state in coset]
    return tables, found


def hom_maps_from_presentation(hp: HomPresentation):
    """The map set hp's generators span, closed coset by coset under the
    steps t^j g for the generators g and j below the extension degree.

    The result is comparable with brute_force_hom_oracle output.
    """
    tables, found = _map_closure(hp, LIMITS["carrier"])
    key = tables.keys.__getitem__
    return {tuple(map(key, state)) for state in found}


# ---------------------------------------------------------------------------
# the special five-element generating sets

def special_generators_hg(pair: ExactZeroDivisorPair, a, b):
    """Generating maps Coker(eta_b) -> Coker(gamma_a) with their lifts."""
    ring = pair.ring
    x, y = pair.x, pair.y
    z, o = ring.zero(), ring.one()
    psis = [Matrix(ring, [[z, o], [z, z]]),
            Matrix(ring, [[z, z], [x, b]]),
            Matrix(ring, [[z, z], [z, y]]),
            Matrix(ring, [[x, z], [z, z]]),
            Matrix(ring, [[a, z], [y, z]])]
    xis = [Matrix(ring, [[z, o], [z, z]]),
           Matrix.zeros(ring, 2, 2),
           Matrix.zeros(ring, 2, 2),
           Matrix(ring, [[z, -b], [z, z]]),
           Matrix(ring, [[z, z], [y, -b]])]
    return psis, xis


def special_generators_gg(pair: ExactZeroDivisorPair, a, b):
    """Generating maps Coker(gamma_{ab}) -> Coker(gamma_a) with lifts."""
    ring = pair.ring
    x, y = pair.x, pair.y
    z, o = ring.zero(), ring.one()
    ab = a * b
    psis = [Matrix(ring, [[z, z], [z, x]]),
            Matrix(ring, [[o, z], [z, b]]),
            Matrix(ring, [[z, x], [z, z]]),
            Matrix(ring, [[a, z], [y, z]]),
            Matrix(ring, [[z, a], [z, y]])]
    xis = [Matrix.zeros(ring, 2, 2),
           Matrix(ring, [[o, z], [z, b]]),
           Matrix.zeros(ring, 2, 2),
           Matrix(ring, [[a, z], [z, ab]]),
           Matrix(ring, [[z, z], [z, y]])]
    return psis, xis


def _hypotheses(pair, bound, strict: bool, checked: str, *, a=None,
                b=None, need: str) -> dict:
    """Hypothesis record for the Hom identities.

    need is "either" (a or b weakly regular on A/(x, y)) or "a" (a weakly
    regular, b unconstrained).  Unmet hypotheses raise PreconditionFailed
    when strict.
    """
    regular = pair.is_regular(bound)
    info = {"pair_regular": regular}
    ok = regular
    wr_a = pair.weakly_regular(a, bound) if a is not None else None
    wr_b = pair.weakly_regular(b, bound) if b is not None else None
    if a is not None:
        info["a_weakly_regular_mod_xy"] = wr_a
    if b is not None:
        info["b_weakly_regular_mod_xy"] = wr_b
    if need == "either":
        ok = ok and bool(wr_a or wr_b)
    elif need == "a":
        ok = ok and bool(wr_a)
    info["satisfied"] = ok
    if not ok:
        violated = []
        if not regular:
            violated.append("pair-regular")
        if need == "either" and not (wr_a or wr_b):
            violated.append("a-or-b-weakly-regular-mod-(x,y)")
        if need == "a" and not wr_a:
            violated.append("a-weakly-regular-mod-(x,y)")
        info["violated"] = violated
        if strict:
            raise PreconditionFailed(f"{checked} hypotheses unmet: "
                                     + ", ".join(violated))
    return info


def _generators_covered(hp: HomPresentation, span: Factored, scope,
                        name: str) -> VerificationReport:
    """Every computed generator of hp lies in the column span of span."""
    escaped = [repr(psi) for psi in hp.generators
               if _express(span, psi) is None]
    return report(name, not escaped, scope,
                  {"computed_generators": hp.gen_count,
                   "escaping": escaped[:3]})


# ---------------------------------------------------------------------------
# exact two-generator descriptions of the family Hom modules

def _core_hom_sequence(pair: ExactZeroDivisorPair, kind: str, a, b, bound,
                       name: str, route: str) -> VerificationReport:
    """Certify A^2 -> A^2 -> Hom -> 0 for one family Hom module.

    kind "hg": Hom(Coker eta_b, Coker gamma_a) presented by gamma_{ab}.
    kind "gg": Hom(Coker gamma_{ab}, Coker gamma_a) presented by eta_b.
    The two claimed generators are checked to lift, the claimed relation
    columns vanish with explicit witnesses, the other three special maps
    reduce to the claimed generators, every computed generator of the Hom
    module lies in their span, and the kernel of the induced surjection
    is inside the claimed presentation's column span.
    """
    ring = pair.ring
    scope = scope_of(ring, bound)
    ab = a * b
    ends = (("H", b), ("G", ab)) if kind == "hg" else (("G", ab), ("H", b))
    source, claimed = (_flavor_module(pair, *end) for end in ends)
    target = module_g(pair, a)
    rho1_plain, rho2, claim_plain = (m.rho.without_degrees() for m in (
        source, target, claimed))
    z, o = ring.zero(), ring.one()
    if kind == "hg":
        psis, xis = special_generators_hg(pair, a, b)
        witnesses = [Matrix(ring, [[z, o], [z, z]]),
                     Matrix(ring, [[z, z], [z, b]])]
        reductions = [
            (psis[2] + psis[0] * a, Matrix(ring, [[z, z], [z, o]])),
            (psis[3], Matrix(ring, [[o, z], [z, z]])),
            (psis[4], Matrix(ring, [[z, z], [o, z]])),
        ]
    else:
        psis, xis = special_generators_gg(pair, a, b)
        witnesses = [Matrix.zeros(ring, 2, 2),
                     Matrix(ring, [[o, z], [z, z]])]
        reductions = [
            (psis[2], Matrix(ring, [[z, o], [z, z]])),
            (psis[3], Matrix(ring, [[z, z], [o, z]])),
            (psis[4], Matrix(ring, [[z, z], [z, o]])),
        ]
    rep = VerificationReport(name, PASS, scope,
                             {"a": ring.format(a), "b": ring.format(b),
                              "route": route,
                              "presentation": repr(claim_plain)})

    gen_ok = all((psis[t] * rho1_plain).entries
                 == (rho2 * xis[t]).entries for t in (0, 1))
    rep.add(report("claimed-generators-lift", gen_ok, scope,
                   {"psi1": repr(psis[0]), "psi2": repr(psis[1])}))

    vanish_ok = True
    vanish_details = {}
    for j, w in enumerate(witnesses):
        s_c, t_c = claim_plain.entries[0][j], claim_plain.entries[1][j]
        combo = psis[0] * s_c + psis[1] * t_c
        good = combo.entries == (rho2 * w).entries
        vanish_ok = vanish_ok and good
        vanish_details[f"column_{j + 1}_witness"] = repr(w)
    rep.add(report("relation-columns-vanish", vanish_ok, scope,
                   vanish_details))

    red_ok = True
    for t, (combo, w) in enumerate(reductions, start=3):
        if combo.entries != (rho2 * w).entries:
            red_ok = False
            rep.details[f"reduction_psi{t}"] = "failed"
    rep.add(report("extra-generators-reduce", red_ok, scope,
                   {"witnesses": [repr(w) for _, w in reductions]}))

    hp = hom_presentation(source, target, bound)
    span = Factored(_vec_span(source, target, psis[:2]))
    rep.add(_generators_covered(hp, span, scope,
                                "computed-generators-covered"))

    claim = claimed.relations
    kernel_ok = True
    kernel_count = 0
    for gen in span.kernel(bound):
        head = [gen.entries[0][0], gen.entries[1][0]]
        if all(e.is_zero for e in head):
            continue
        kernel_count += 1
        col = Matrix(ring, [[head[0]], [head[1]]])
        if claim.solve(col) is None:
            kernel_ok = False
            rep.details["escaping_kernel_element"] = repr(col)
            break
    rep.add(report("kernel-inside-presentation", kernel_ok, scope,
                   {"kernel_generators": kernel_count}))

    rep.add(_profile_match(hp, claimed, psis[:2], source.gen_degs,
                           target.gen_degs, bound, scope))
    return rep


def _profile_match(hp: HomPresentation, claimed: PresentedModule, psis,
                   s1, s2, bound, scope) -> VerificationReport:
    """Cardinality or degreewise dimension agreement of Hom and its model.

    On the graded backend the generators of the claimed presentation sit
    at the hom degrees of the claimed generators psis of Hom.  That is the
    family layout shifted by the degree of psis[0], except when the entry
    off the diagonal is zero: the family layout then puts both generators
    in one degree, which psis[0] and psis[1] need not share.
    """
    ring = hp.ring
    if isinstance(ring, FiniteLocalRing):
        got, want = hp.module.size(), claimed.size()
        return report("size-matches", got == want, scope,
                      {"hom_size": got, "claimed_size": want})
    top = degree_bound(bound)
    rho = claimed.rho
    carrier = _carrier_degs(s1, s2)
    try:
        degs = [_column_degree(carrier, [e for r in psi.entries for e in r],
                               0) for psi in psis]
    except NonHomogeneous:
        degs = [None]
    if None in degs or rho.row_degs is None or hp.module.gen_degs is None:
        return report("profile-match-skipped", True, scope,
                      {"reason": "no degree layout"})
    # each diagonal entry fixes the degree of its relation over its row
    laid = PresentedModule(ring, rho.with_degrees(degs, [
        d + c - r for d, c, r in zip(degs, rho.col_degs, rho.row_degs)]),
        claimed.label)
    lo = min(list(hp.module.gen_degs) + degs)
    mismatches = []
    for d in range(lo, top + 1):
        got = hp.module.slice_dim(d)
        want = laid.slice_dim(d)
        if got != want:
            mismatches.append((d, got, want))
    return report("hilbert-matches", not mismatches, scope,
                  {"shift": degs[0] - claimed.gen_degs[0],
                   "window": [lo, top], "mismatches": mismatches[:3]})


def _hom_entry(pair: ExactZeroDivisorPair, sp: ExactZeroDivisorPair,
               source, target, bound, c=None):
    """(claimed label, route, reports) certifying one family Hom module.

    source and target are (flavor, element) descriptions and sp is the
    swapped pair (y, x), whose family matrices coincide with the originals
    up to sign.  H(s) -> G(t) is presented by gamma_{st} directly;
    G(s) -> H(t) runs over sp and lands in H(st) after the diag(1, -1)
    twist.  Between flavor-G modules c is the quotient: G(tc) -> G(t) is
    presented by eta_c directly, and is free of rank one when c = 1;
    G(s) -> G(sc) is the transpose of H(sc) -> H(s), which runs over sp
    and lands in G(c) after the twist.
    """
    ring = pair.ring
    (src_fl, s), (tgt_fl, t) = source, target
    over, hom_of, reports = sp, (source, target), []
    if src_fl == "H":
        over, route, claimed, core = pair, "direct", ("G", s * t), (t, s)
    elif tgt_fl == "H":
        route, claimed, core = "swapped-pair", ("H", s * t), (-t, -s)
    elif s == t * c:
        over, route, claimed, core = pair, "direct", ("H", c), (t, c)
    else:
        route, claimed, core = "transpose+swapped-pair", ("G", c), (-s, c)
        reports.append(verify_hom_transpose(pair, source, target, bound))
        hom_of = (("H", t), ("H", s))
    m_src, m_tgt, m_claimed = (_flavor_module(pair, *desc)
                               for desc in (*hom_of, claimed))
    reports.append(_core_hom_sequence(
        over, "hg" if src_fl != tgt_fl else "gg", *core, bound,
        name=f"hom({m_src.label},{m_tgt.label})-is-{m_claimed.label}",
        route="direct" if over is pair else "swapped-pair"))
    if over is sp:
        # the swapped pair presents the claimed module in the other flavor
        z, o = ring.zero(), ring.one()
        twist = Matrix(ring, [[o, z], [z, -o]])
        reports.append(verify_iso_witness(
            _flavor_module(sp, _PARTNER[claimed[0]], claimed[1]), m_claimed,
            twist, twist, bound,
            name=f"swapped-image-matches-{m_claimed.label}"))
    elif src_fl == "G" and c == ring.one():
        free_degs = None
        if isinstance(ring, GradedMonomialRing) and pair.x.is_homogeneous():
            # the surviving generator of Coker(eta_1) is e2, one twist
            # below the degree of x
            free_degs = (-pair.x.degree(),)
        rank_one = PresentedModule.free(ring, 1, degs=free_degs, label="A")
        reports.append(verify_iso_witness(
            m_claimed, rank_one, Matrix(ring, [[pair.x, ring.one()]]), None,
            bound, name="unit-index-hom-is-free"))
        return "A", route, reports
    return m_claimed.label, route, reports


def _add_entries(rep: VerificationReport, pair, sp, entries, bound):
    for source, target, c in entries:
        for sub in _hom_entry(pair, sp, source, target, bound, c)[2]:
            rep.add(sub)


def verify_hom_hg(pair: ExactZeroDivisorPair, a, b, bound=None,
                  strict: bool = True) -> VerificationReport:
    """Certify the four Hom identities between opposite-flavor modules.

    Hom(H(b), G(a)) and Hom(H(a), G(b)) are presented by gamma_{ab}
    directly; the two reversed-direction instances run over the swapped
    pair (y, x) and land in H(ab) after the diag(1, -1) twist.
    """
    ring = pair.ring
    scope = scope_of(ring, bound)
    info = _hypotheses(pair, bound, strict, "Hom identity", a=a, b=b,
                       need="either")
    ab = a * b
    rep = VerificationReport(
        f"hom-opposite-flavors({ring.format(a)},{ring.format(b)})",
        PASS, scope,
        {"a": ring.format(a), "b": ring.format(b), "hypotheses": info})
    sp = pair.swapped(bound)
    _add_entries(rep, pair, sp, [(("H", b), ("G", a), None),
                                 (("H", a), ("G", b), None)], bound)
    ident_ok = (eta(sp, -a).entries == gamma(pair, a).entries
                and gamma(sp, -b).entries == eta(pair, b).entries
                and gamma(sp, ab).entries == eta(pair, -ab).entries)
    rep.add(report("swapped-pair-realizations", ident_ok, scope,
                   {"eta'(-a) = gamma(a)": True} if ident_ok else {}))
    _add_entries(rep, pair, sp, [(("G", a), ("H", b), None),
                                 (("G", b), ("H", a), None)], bound)
    return rep


def verify_hom_g_ab_a(pair: ExactZeroDivisorPair, a, b, bound=None,
                      strict: bool = True) -> VerificationReport:
    """Certify the four Hom identities between same-flavor modules.

    Hom(G(ab), G(a)) is presented by eta_b directly.  Hom(G(a), G(ab)) is
    matched through the transpose duality bijection to Hom(H(ab), H(a)),
    which runs over the swapped pair and lands in G(b) after the
    diag(1, -1) twist; Hom(H(a), H(ab)) is matched to Hom(G(ab), G(a))
    the same way.
    """
    ring = pair.ring
    scope = scope_of(ring, bound)
    info = _hypotheses(pair, bound, strict, "Hom identity", a=a, b=b,
                       need="a")
    ab = a * b
    rep = VerificationReport(
        f"hom-same-flavor({ring.format(a)},{ring.format(b)})",
        PASS, scope,
        {"a": ring.format(a), "b": ring.format(b), "hypotheses": info})
    sp = pair.swapped(bound)
    _add_entries(rep, pair, sp, [(("G", ab), ("G", a), b)], bound)
    ident_ok = (gamma(sp, -ab).entries == eta(pair, ab).entries
                and gamma(sp, -a).entries == eta(pair, a).entries
                and eta(sp, b).entries == gamma(pair, -b).entries)
    rep.add(report("swapped-pair-realizations", ident_ok, scope, {}))
    _add_entries(rep, pair, sp, [(("G", a), ("G", ab), b)], bound)
    rep.add(verify_hom_transpose(pair, ("H", a), ("H", ab), bound))
    return rep


# ---------------------------------------------------------------------------
# transpose duality

_PARTNER = {"G": "H", "H": "G"}


def _flavor_module(pair, flavor: str, elem) -> PresentedModule:
    return (module_g if flavor == "G" else module_h)(pair, elem)


def _half_turned(pair, flavor: str, elem) -> PresentedModule:
    """F_x^T = phi^T rho_x, the family module x = (flavor, elem) presented
    in half-turned generators, one per run.  By phi gamma_a^T = eta_a phi
    and phi eta_a^T = gamma_a phi it is the transpose of the rows
    phi rho_(x*) that generate Hom(x, A), with x* the partner of x, so its
    relations solve the transpose equation."""
    module = _flavor_module(pair, flavor, elem)
    return _held(("F^T", flavor, pair.x, pair.y, elem),
                 lambda: PresentedModule(
                     pair.ring, phi_matrix(pair.ring).transpose()
                     * module.rho.without_degrees(), f"{module.label}^T"))


def verify_hom_transpose(pair: ExactZeroDivisorPair, src, tgt,
                         bound=None) -> VerificationReport:
    """Certify Hom(M, N) = Hom(N*, M*) through functional transposes.

    src and tgt are (flavor, element) descriptions of family modules; the
    dual of a flavor-G module is realized by the matching flavor-H
    presentation and vice versa.  The bijection is witnessed on
    presentations: generator images solve the transpose equation, both
    directions kill relations, the transpose equation determines cosets
    uniquely, and the two round trips return every generator.  Direction
    0 runs Hom(M, N) -> Hom(N*, M*) and direction 1 back; every solve and
    kernel goes through one of four matrices, each factored once.
    """
    ring = pair.ring
    scope = scope_of(ring, bound)
    src_fl, src_el = src
    tgt_fl, tgt_el = tgt
    m_src = _flavor_module(pair, src_fl, src_el)
    m_tgt = _flavor_module(pair, tgt_fl, tgt_el)
    d_src = _flavor_module(pair, _PARTNER[src_fl], src_el)
    d_tgt = _flavor_module(pair, _PARTNER[tgt_fl], tgt_el)
    name = f"hom({m_src.label},{m_tgt.label})-matches-" \
           f"hom({d_tgt.label},{d_src.label})"
    rep = VerificationReport(name, PASS, scope, {"route": "transpose"})
    ends = ((src, tgt),
            ((_PARTNER[tgt_fl], tgt_el), (_PARTNER[src_fl], src_el)))
    # direction k solves Theta^T F_x = F_y psi for its ends x -> y, and
    # works modulo the relations of the dual module its transposes land in,
    # the partner of x
    f_x = [_half_turned(pair, *x) for x, _ in ends]
    f_y = [_half_turned(pair, *y).rho for _, y in ends]
    rel = [_flavor_module(pair, _PARTNER[fl], el).relations
           for (fl, el), _ in ends]

    def transpose(k: int, psi: Matrix) -> Matrix | None:
        theta = f_x[k].relations.solve(
            psi.without_degrees().transpose() * f_y[k])
        return None if theta is None else theta.without_degrees()

    def kernel(k: int) -> list[Matrix]:
        """ker F_x^T up to the bound, held per run like F_x^T itself."""
        return _held(("F^T kernel", *ends[k][0], pair.x, pair.y, bound),
                     lambda: f_x[k].relations.kernel(bound))

    unique_ok = all(rel[k].outside(gen.without_degrees()
                                   for gen in kernel(k)) is None
                    for k in (0, 1))
    rep.add(report("transpose-determined-mod-relations", unique_ok, scope,
                   {}))

    hps, images = [], []
    for k, (label, hom_ends) in enumerate((("forward", (m_src, m_tgt)),
                                           ("backward", (d_tgt, d_src)))):
        # the backward Hom is built only once every forward transpose exists
        hps.append(hom_presentation(*hom_ends, bound))
        thetas = []
        for psi in hps[k].generators:
            theta = transpose(k, psi)
            if theta is None:
                break
            thetas.append(theta)
        ok = len(thetas) == hps[k].gen_count
        rep.add(report(f"{label}-transposes-exist", ok, scope,
                       {"generators": hps[k].gen_count}))
        if not ok:
            return rep
        rep.add(report(f"{label}-kills-relations", _combos_in_image(
            hps[k].module.rho, thetas, rel[k]), scope, {}))
        images.append(thetas)

    for k, label in enumerate(("source", "target")):
        ok = True
        for psi, theta in zip(hps[k].generators, images[k]):
            back = transpose(1 - k, theta)
            if back is None or rel[1 - k].solve(
                    back - psi.without_degrees()) is None:
                ok = False
        rep.add(report(f"round-trip-fixes-{label}-generators", ok, scope,
                       {}))
    if isinstance(ring, FiniteLocalRing):
        rep.details["sizes"] = [hp.module.size() for hp in hps]
    return rep


def _combos_in_image(rel: Matrix, mats, image: Factored) -> bool:
    """Whether every relation column, taken through t -> mats[t], lands in
    the image of the factored matrix ``image``."""
    if not mats:
        return True
    zero = Matrix.zeros(mats[0].ring, mats[0].nrows, mats[0].ncols)
    combos = (sum((mat * rel.entries[t][j] for t, mat in enumerate(mats)
                   if not rel.entries[t][j].is_zero), zero)
              for j in range(rel.ncols))
    return image.outside(c for c in combos if not c.is_zero) is None


# ---------------------------------------------------------------------------
# endomorphism rings

def verify_end_ring(pair: ExactZeroDivisorPair, a, bound=None,
                    idempotent_budget=None,
                    strict: bool = True) -> VerificationReport:
    """Certify End(Coker gamma_a) = A = End(Coker eta_a), and that the End
    rings have no idempotents but 0 and 1.

    The map c -> c * identity is checked onto (every computed generator is
    congruent to a scalar multiple of the identity) and faithful (no
    nonzero scalar kills the identity coset), which pins both End rings to
    A.  When both checks pass, the idempotent verdict is read off that
    ring isomorphism: A is local (finite backend) or connected graded
    (graded backend), so its only idempotents are 0 and 1.  Only when
    End = A is not certified are the idempotents decided on End/m End
    (see _idempotent_decision), and only then does idempotent_budget apply,
    to the size of that residue ring.
    """
    ring = pair.ring
    scope = scope_of(ring, bound)
    info = _hypotheses(pair, bound, strict, "End ring", a=a, need="a")
    rep = VerificationReport(f"end-ring({ring.format(a)})", PASS, scope,
                             {"a": ring.format(a), "hypotheses": info})
    for flavor in ("G", "H"):
        module = _flavor_module(pair, flavor, a)
        hp = hom_presentation(module, module, bound)
        span = Factored(_vec_span(module, module,
                                  [Matrix.identity(ring, module.ngens)]))
        onto = rep.add(_identity_generates(hp, span, scope))
        faithful = rep.add(_identity_faithful(hp, span, bound, scope))
        if not (onto.passed and faithful.passed):
            rep.add(_idempotent_decision(hp, idempotent_budget, scope))
            continue
        # End = A is certified, and A has no idempotents but 0 and 1
        details = {"classes": ring.carrier_size()} \
            if isinstance(ring, FiniteLocalRing) else {}
        details["nontrivial_idempotents"] = []
        details["derived_from"] = [onto.name, faithful.name]
        rep.add(report(f"no-nontrivial-idempotent({hp.module.label})", True,
                       scope, details))
    return rep


def _identity_generates(hp: HomPresentation, span: Factored, scope):
    """span holds vec(identity) and the relation columns."""
    scalars = []
    ok = True
    for psi in hp.generators:
        sol = _express(span, psi)
        if sol is None:
            ok = False
            break
        scalars.append(hp.ring.format(sol.entries[0][0]))
    return report(f"identity-generates-end({hp.module.label})", ok, scope,
                  {"scalars": scalars if ok else "incomplete"})


def _identity_faithful(hp: HomPresentation, span: Factored, bound, scope):
    ok = all(gen.entries[0][0].is_zero for gen in span.kernel(bound))
    return report(f"identity-faithful({hp.module.label})", ok, scope, {})


def _idempotent_decision(hp: HomPresentation, budget, scope):
    """Decide the idempotents of End on B = End/m End (on the graded
    backend on B_0, the part of the degree-preserving maps).

    m End is nilpotent (on the graded backend in degree 0, where a map of
    degree below the spread of the generator degrees is 0), so a
    nontrivial idempotent of End stays nontrivial in B, and each one of B
    lifts: e -> 3e^2 - 2e^3 ends at an idempotent over it (Lam, A First
    Course in Noncommutative Rings, section 21).  The generators off the
    pivots of the residues of the Hom relations span B, so they generate
    End (Nakayama), and those of degree 0 are a basis of B: the residues
    of their coefficients give the class of a map.  One solve per ordered
    pair gives B's products, and all p^mu elements of B are tested, past
    ``budget`` refused.
    """
    ring, module, p = hp.ring, hp.target, hp.ring.p
    rho, rel = hp.module.rho, module.relations
    pivots = _fp._echelon([{i: r for i, row in enumerate(rho.entries)
                            if (r := ring.residue(row[j]))}
                           for j in range(rho.ncols)], p)
    kept = [i for i in range(hp.gen_count) if i not in pivots]
    basis = [k for k, i in enumerate(kept) if hp.gen_degrees[i] in (0, None)]
    check_size(p ** len(basis),
               LIMITS["end_maps"] if budget is None else budget,
               "End/m End of {value} elements exceeds the budget of {cap}")
    span = Factored(_vec_span(module, module,
                              [hp.generators[i] for i in kept],
                              [hp.gen_degrees[i] for i in kept]))

    def coords(psi) -> tuple:
        """The coordinates of the class of psi in B."""
        sol = _express(span, psi)
        return tuple(ring.residue(sol.entries[k][0]) for k in basis)

    ident = Matrix.identity(ring, module.ngens)
    psis = [hp.generators[kept[k]].without_degrees() for k in basis]
    table = [[coords(f * g) for g in psis] for f in psis]
    trivial, dims = {(0,) * len(basis), coords(ident)}, range(len(basis))
    found = []
    for c in itertools.product(range(p), repeat=len(basis)):
        if c in trivial or any(sum(x * c[b] * table[a][b][k]
                                   for a, x in enumerate(c) if x
                                   for b in dims) % p != c[k] for k in dims):
            continue
        e = sum((psi * x for psi, x in zip(psis, c) if x),
                Matrix.zeros(ring, module.ngens, module.ngens))
        while rel.solve((square := e * e) - e) is None:
            e = square * 3 - square * e * 2
        if rel.solve(e) is not None or rel.solve(e - ident) is not None:
            raise EquivalenceViolation(f"the idempotent {c} of End/m End "
                                       "lifted to 0 or 1")
        found.append(repr(e))
        if len(found) == 4:
            break
    detail = {"classes": span.span.span_size()
              // rel.span.span_size() ** module.ngens} \
        if isinstance(ring, FiniteLocalRing) else {}
    detail["nontrivial_idempotents"] = found
    return report(f"no-nontrivial-idempotent({hp.module.label})", not found,
                  scope, detail)


# ---------------------------------------------------------------------------
# Ext symmetry

def _ext_profile(pair: ExactZeroDivisorPair, flavor: str, elem,
                 target: PresentedModule, i_max: int, bound):
    """Ext^i(family module, target) for i = 1..i_max.

    Hom(F_i, N) has coordinates (generator of F_i, generator of N); the
    cochain map is precomposition with d_i, kron(d_i^T, I), and the
    relations are one copy of rho_N per generator of F_i.  Finite backend:
    list of cardinalities.  Graded backend: list of degree-to-dimension
    maps, exact for degrees up to the bound.
    """
    ring = pair.ring
    finite = isinstance(ring, FiniteLocalRing)
    # on the finite backend d_(i+2) = d_i, so one period holds every map
    diffs = periodic_resolution(pair, elem, 2 if finite else i_max + 1,
                                phase=flavor)
    ident = Matrix.identity(ring, target.ngens, target.gen_degs)
    deltas = [kron(d.transpose(), ident) for d in diffs]
    rels = [kron(_dual_identity(ring, d.ncols, d.col_degs), target.rho)
            for d in diffs]
    if finite:
        # every position has the same middle module M, and |Z_i| |B_(i+1)|
        # = |M| through d_i, so every |Ext^i| = |M| / (|B_1| |B_2|) = |Ext^1|
        cycles, boundaries = homology(deltas[0], deltas[1], rels[0], rels[1])
        return [cycles // boundaries] * i_max
    return [{d: z - b for d, z, b in homology(
        deltas[i - 1], deltas[i], rels[i - 1], rels[i], bound) if z != b}
        for i in range(1, i_max + 1)]


def verify_ext_swap(pair: ExactZeroDivisorPair, a, b, i_max: int = 2,
                    bound=None) -> VerificationReport:
    """Certify the three Ext interchange symmetries numerically.

    Compares cardinalities (finite backend) or degreewise dimensions
    (graded backend, with the twist offset dictated by the duality
    realizations) of Ext^i for i = 1..i_max between the swapped sides.
    Hom itself, the i = 0 case, is covered by the Hom identity verifiers.
    """
    if i_max < 1:  # with no Ext degree to compare the pass would be vacuous
        raise TotrefError(f"i_max must be at least 1, got {i_max}")
    ring = pair.ring
    scope = scope_of(ring, bound)
    rep = VerificationReport(
        f"ext-interchange({ring.format(a)},{ring.format(b)},i<={i_max})",
        PASS, scope, {"a": ring.format(a), "b": ring.format(b)})
    graded = isinstance(ring, GradedMonomialRing)
    if graded and not (a.is_homogeneous() and b.is_homogeneous()):
        raise NonHomogeneous("graded Ext comparison needs homogeneous "
                             "elements")
    # a zero element takes the twist deg y, as in the family layouts
    alpha, beta = (0 if not graded else (pair.y.degree() or 0) if e.is_zero
                   else e.degree() for e in (a, b))
    cases = [
        ("ext(H_b,G_a)-vs-ext(H_a,G_b)", ("H", b, module_g(pair, a)),
         ("H", a, module_g(pair, b)), beta - alpha),
        ("ext(G_a,H_b)-vs-ext(G_b,H_a)", ("G", a, module_h(pair, b)),
         ("G", b, module_h(pair, a)), alpha - beta),
        ("ext(G_a,G_b)-vs-ext(H_b,H_a)", ("G", a, module_g(pair, b)),
         ("H", b, module_h(pair, a)), alpha - beta),
    ]
    for name, (fl1, el1, tgt1), (fl2, el2, tgt2), shift in cases:
        prof1 = _ext_profile(pair, fl1, el1, tgt1, i_max, bound)
        prof2 = _ext_profile(pair, fl2, el2, tgt2, i_max, bound)
        if not graded:
            ok = prof1 == prof2
            rep.add(report(name, ok, scope,
                           {"sizes": prof1, "other": prof2}))
            continue
        top = degree_bound(bound)
        mismatches = []
        for i in range(i_max):
            keys1 = prof1[i].keys()
            keys2 = [d - shift for d in prof2[i].keys()]
            lo = min(list(keys1) + list(keys2) + [0])
            hi = top - max(shift, 0)
            for d in range(lo, hi + 1):
                v1 = prof1[i].get(d, 0)
                v2 = prof2[i].get(d + shift, 0)
                if v1 != v2:
                    mismatches.append((i + 1, d, v1, v2))
        rep.add(report(name, not mismatches, scope,
                       {"shift": shift, "mismatches": mismatches[:4]}))
    return rep


# ---------------------------------------------------------------------------
# non-isomorphism certificates

def noniso_certificate(m1: PresentedModule, m2: PresentedModule,
                       strategy: str = "hom-freeness",
                       bound=None) -> VerificationReport:
    """Certify m1 and m2 non-isomorphic by an isomorphism invariant.

    "fitting" compares Fitting ideals; "hom-freeness" compares the
    generator count of Hom(m1, m2) with that of End(m1) (isomorphic
    modules have isomorphic Hom and End).  Raises InconclusiveStrategy
    when the chosen invariant cannot separate the modules.
    """
    ring = m1.ring
    if m2.ring.key != ring.key:
        raise TotrefError("modules live over different rings")
    scope = scope_of(ring, bound)
    name = f"noniso({m1.label},{m2.label})-{strategy}"
    if strategy == "fitting":
        for j in range(max(m1.ngens, m2.ngens) + 1):
            f1 = fitting_ideal(m1, j)
            f2 = fitting_ideal(m2, j)
            if not ideals_equal(ring, f1, f2):
                return report(name, True, scope,
                              {"separating_index": j,
                               "ideals": [[ring.format(e) for e in f1],
                                          [ring.format(e) for e in f2]]})
        raise InconclusiveStrategy("all Fitting ideals agree at scope")
    if strategy == "hom-freeness":
        for left, right, tag in ((m1, m2, "1->2"), (m2, m1, "2->1")):
            hom = hom_presentation(left, right, bound)
            end = hom_presentation(left, left, bound)
            mu_hom = minimal_generator_count(hom.module)
            mu_end = minimal_generator_count(end.module)
            if mu_hom != mu_end:
                return report(name, True, scope,
                              {"direction": tag, "mu_hom": mu_hom,
                               "mu_end": mu_end})
        raise InconclusiveStrategy(
            "Hom and End generator counts agree in both directions")
    raise TotrefError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# the family battery

@dataclass
class FamilyReport:
    """Structured result of a full family run."""

    ring: dict
    pair: dict
    b_elements: list
    a_elements: list
    modules: list
    pairwise: list
    hom_table: list
    certificates: VerificationReport

    @property
    def passed(self) -> bool:
        return self.certificates.passed

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "family-report",
            "ring": self.ring,
            "pair": self.pair,
            "b": self.b_elements,
            "a": self.a_elements,
            "modules": self.modules,
            "pairwise": self.pairwise,
            "hom_table": self.hom_table,
            "certificates": self.certificates.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


def run_family(pair: ExactZeroDivisorPair, b_sequence, n_max=None,
               bound=None, i_max: int = 2) -> FamilyReport:
    """Build and certify the whole module family of a regular exact pair.

    b_sequence lists the multipliers; a single element is repeated n_max
    times.  Every b_n must be a non-unit weakly regular on A/(x, y), and a
    graded window must reach deg a_n (zerodiv.check_window).
    The battery certifies, per index: total reflexivity, non-freeness and
    indecomposability of both flavors; then pairwise non-isomorphism of
    all 2 n_max modules; then every entry of the Hom table.  Each distinct
    Hom is computed once per run, whatever its modules' labels.
    """
    with hom_memo():
        return _run_family(pair, b_sequence, n_max, bound, i_max)


def _run_family(pair, b_sequence, n_max, bound, i_max) -> FamilyReport:
    ring = pair.ring
    scope = scope_of(ring, bound)
    bs = list(b_sequence) if isinstance(b_sequence, (list, tuple)) \
        else [b_sequence]
    bs = [ring.parse(e) if isinstance(e, str) else e for e in bs]
    if n_max is None:
        n_max = len(bs)
    if n_max < 1:  # with no module to certify the pass would be vacuous
        raise TotrefError(f"n_max must be at least 1, got {n_max}")
    if len(bs) == 1 and n_max > 1:
        bs = bs * n_max
    if len(bs) != n_max:
        raise TotrefError("b sequence length does not match n_max")
    if not pair.is_regular(bound):
        raise PreconditionFailed("the pair is not a regular exact pair")
    for idx, e in enumerate(bs, start=1):
        if ring.is_unit(e):
            raise PreconditionFailed(f"b_{idx} is a unit")
        if not pair.weakly_regular(e, bound):
            raise PreconditionFailed(
                f"b_{idx} is not weakly regular on A/(x, y)")

    a_elems = []
    acc = ring.one()
    for e in bs:
        acc = acc * e
        a_elems.append(acc)
    if scope["mode"] == "degree":
        check_window(pair.x, pair.y, scope["bound"], "window", a_elems[-1])

    certificates = VerificationReport(
        f"family(n={n_max})", PASS, scope,
        {"b": [ring.format(e) for e in bs],
         "a": [ring.format(e) for e in a_elems]})

    modules_info = []
    module_list = []
    for n, a_n in enumerate(a_elems, start=1):
        certificates.add(verify_total_reflexivity(pair, a_n, i_max, bound))
        certificates.add(verify_end_ring(pair, a_n, bound))
        for flavor in ("G", "H"):
            module = _flavor_module(pair, flavor, a_n)
            module_list.append((flavor, n, module))
            mu = minimal_generator_count(module)
            fit1 = fitting_ideal(module, 1)
            nonfree_ok = mu == 2 and any(e == pair.x for e in fit1) \
                and not pair.x.is_zero
            certificates.add(report(
                f"non-free({module.label})", nonfree_ok, scope,
                {"mu": mu,
                 "fitting_1": [ring.format(e) for e in fit1],
                 "reason": "a free module with 2 minimal generators has "
                           "zero first Fitting ideal"}))
            entry = {"label": module.label, "flavor": flavor, "index": n,
                     "mu": mu,
                     "fitting_1": sorted(ring.format(e) for e in fit1)}
            # graded: over a finite ring a non-unit b is nilpotent
            entry["hilbert"] = hilbert_function(module, 0,
                                                degree_bound(bound))
            modules_info.append(entry)

    pairwise = []
    for (fl1, n1, mod1), (fl2, n2, mod2) in \
            itertools.combinations(module_list, 2):
        cert = noniso_certificate(mod1, mod2, "hom-freeness", bound)
        certificates.add(cert)
        entry = {"left": mod1.label, "right": mod2.label,
                 "strategy": "hom-freeness", "verdict": cert.verdict}
        try:
            fit = noniso_certificate(mod1, mod2, "fitting", bound)
            certificates.add(fit)
            entry["fitting_crosscheck"] = fit.verdict
        except InconclusiveStrategy as exc:
            entry["fitting_crosscheck"] = f"inconclusive: {exc}"
        pairwise.append(entry)

    hom_table = []
    sp = pair.swapped(bound)

    def add_row(source, target, claimed, route, reports, backing=()):
        for rep in reports:
            certificates.add(rep)
        ok = all(r.passed for r in (*reports, *backing))
        hom_table.append({"source": _flavor_module(pair, *source).label,
                          "target": _flavor_module(pair, *target).label,
                          "claimed": claimed, "route": route,
                          "verdict": PASS if ok else FAIL})

    gg_entries = {}
    for m, a_m in enumerate(a_elems, start=1):
        for n, a_n in enumerate(a_elems, start=1):
            g_m, g_n, h_m = ("G", a_m), ("G", a_n), ("H", a_m)
            add_row(h_m, g_n, *_hom_entry(pair, sp, h_m, g_n, bound))
            add_row(g_n, h_m, *_hom_entry(pair, sp, g_n, h_m, bound))
            # c = a_max(m, n) / a_min(m, n)
            c = math.prod(bs[min(m, n):max(m, n)], start=ring.one())
            gg_entries[m, n] = _hom_entry(pair, sp, g_m, g_n, bound, c)
            add_row(g_m, g_n, *gg_entries[m, n])

    # Hom(H_m, H_n) = Hom(G_n, G_m) through the transpose duality
    for m, a_m in enumerate(a_elems, start=1):
        for n, a_n in enumerate(a_elems, start=1):
            h_m, h_n = ("H", a_m), ("H", a_n)
            claimed, _, backing = gg_entries[n, m]
            add_row(h_m, h_n, claimed, "transpose",
                    [verify_hom_transpose(pair, h_m, h_n, bound)], backing)

    return FamilyReport(
        ring=ring.descriptor(),
        pair={"x": ring.format(pair.x), "y": ring.format(pair.y),
              "exact": pair.is_exact, "regular": pair.regular},
        b_elements=[ring.format(e) for e in bs],
        a_elements=[ring.format(e) for e in a_elems],
        modules=modules_info,
        pairwise=pairwise,
        hom_table=hom_table,
        certificates=certificates,
    )
