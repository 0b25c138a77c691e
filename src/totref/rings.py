"""Two exact ring backends and element-level operations.

FiniteLocalRing models Z/p^k, optionally extended to Z/p^k[t]/(t^d) by one
nilpotent generator.  Every element is a coordinate vector over Z/p^k, the
carrier is finite, and all linear questions are decided exactly by Howell
normal forms.

GradedMonomialRing models F_p[x_1..x_v]/(pure monomial ideal).  Elements are
sparse maps from exponent vectors to coefficients, kept in normal form by
discarding monomials divisible by an ideal generator.  Homogeneous slices
are finite dimensional F_p spaces, so degree-bounded questions are decided
exactly degree by degree.

Both backends share an expression parser, canonical printing (degree first,
then lexicographic by the declared variable order), unit tests and the
scope helpers.  An ideal I is asked about through A/I, the module that the
row of I's generators presents (``PresentedModule.quotient``).
"""

from __future__ import annotations

import itertools

from .errors import ParseError, TotrefError, UnknownVariable

DEFAULT_DEGREE_BOUND = 8

# Miller-Rabin with the primes up to 41 as bases is exact below this bound
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _require_prime(p: int) -> None:
    """Raise unless p is a prime, decided by deterministic Miller-Rabin."""
    if p >= PRIME_LIMIT:
        raise ParseError(f"p must be below {PRIME_LIMIT}, the range where "
                         "the primality test is exact")
    if p < 2 or not _is_prime(p):
        raise TotrefError(f"{p} is not prime")


def _is_prime(n: int) -> bool:
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def degree_bound(bound) -> int:
    """``bound``, or DEFAULT_DEGREE_BOUND when it is None."""
    return DEFAULT_DEGREE_BOUND if bound is None else bound


def scope_of(ring, bound) -> dict:
    """What a check over ring establishes: exhaustive, or degrees <= bound."""
    if isinstance(ring, FiniteLocalRing):
        return {"mode": "exhaustive"}
    return {"mode": "degree", "bound": degree_bound(bound)}


# ---------------------------------------------------------------------------
# expression parsing (shared by both backends)

_OPS = set("+-*^()")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


class _Parser:
    """Recursive descent for +, -, *, ^ and parentheses.

    Each open parenthesis costs a few interpreter frames, so nesting deeper
    than ``MAX_NESTING`` is refused as a parse error before the interpreter's
    recursion limit is reached.
    """

    MAX_NESTING = 100

    def __init__(self, ring, text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0
        self.text = text
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input in {self.text!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self):
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        value = self.atom()
        if self.peek()[0] == "^":
            self.take()
            kind, text = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            value = value ** int(text)
        return -value if sign < 0 else value

    def atom(self):
        kind, text = self.take()
        if kind == "int":
            return self.ring.from_int(int(text))
        if kind == "name":
            return self.ring.variable(text)
        if kind == "(":
            self.depth += 1
            if self.depth > self.MAX_NESTING:
                raise ParseError("parentheses nested deeper than "
                                 f"{self.MAX_NESTING}")
            value = self.expr()
            self.depth -= 1
            if self.take()[0] != ")":
                raise ParseError(f"unbalanced parentheses in {self.text!r}")
            return value
        raise ParseError(f"unexpected token in {self.text!r}")


# ---------------------------------------------------------------------------
# elements

class _Element:
    """What both element classes share: the mixed-ring check, subtraction,
    powers and printing.  Each subclass holds its own data and defines
    addition, negation, multiplication, equality and hashing."""

    __slots__ = ()

    def _check(self, other):
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, type(self)) and other.ring.key == self.ring.key:
            return other
        raise TotrefError("cannot mix elements of different rings")

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + self._check(other)

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise TotrefError("negative exponents are not supported")
        result = self.ring.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __repr__(self):
        return self.ring.format(self)


# ---------------------------------------------------------------------------
# finite backend

class FiniteElement(_Element):
    __slots__ = ("ring", "coords")

    def __init__(self, ring: "FiniteLocalRing", coords: tuple[int, ...]):
        self.ring = ring
        self.coords = coords

    def __add__(self, other):
        other = self._check(other)
        n = self.ring.n
        return FiniteElement(self.ring, tuple((a + b) % n for a, b in
                                              zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        n = self.ring.n
        return FiniteElement(self.ring, tuple((-a) % n for a in self.coords))

    def __mul__(self, other):
        other = self._check(other)
        return FiniteElement(self.ring, self.ring._mul(self.coords, other.coords))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, FiniteElement)
                and other.ring.key == self.ring.key
                and other.coords == self.coords)

    def __hash__(self):
        return hash((self.ring.key, self.coords))

    def __bool__(self):
        return any(self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


class FiniteLocalRing:
    """Z/p^k, or Z/p^k[t]/(t^d) with a nilpotent extension variable t.

    An element is its coordinate vector over 1, t, ..., t^(d-1); without an
    extension d = 1.  Since t^d = 0, t lies in the maximal ideal, so the
    ring is local with residue field F_p, which the unit test and the
    minimal-generator count rely on.
    """

    kind = "finite"

    def __init__(self, p: int, k: int, ext_var: str | None = None,
                 ext_degree: int = 1):
        _require_prime(p)
        if k < 1:
            raise TotrefError("k must be positive")
        if ext_degree < 1:
            raise TotrefError(f"the extension degree must be positive, got "
                              f"{ext_degree}")
        if ext_var is None and ext_degree != 1:
            raise TotrefError("an extension of degree above 1 needs a "
                              "variable")
        self.p = p
        self.k = k
        self.n = p ** k
        self.ext_var = ext_var
        self.ext_degree = ext_degree
        self.key = ("finite", p, k, ext_var, ext_degree)

    # -- construction -----------------------------------------------------

    def zero(self) -> FiniteElement:
        return FiniteElement(self, (0,) * self.ext_degree)

    def one(self) -> FiniteElement:
        return self.from_int(1)

    def from_int(self, c: int) -> FiniteElement:
        coords = [0] * self.ext_degree
        coords[0] = c % self.n
        return FiniteElement(self, tuple(coords))

    def variable(self, name: str) -> FiniteElement:
        if self.ext_var is not None and name == self.ext_var:
            return FiniteElement(self, self.power_coords(1))
        raise UnknownVariable(f"ring has no variable {name!r}")

    def parse(self, text: str) -> FiniteElement:
        return _Parser(self, text).parse()

    # -- arithmetic core ---------------------------------------------------

    def power_coords(self, j: int) -> tuple[int, ...]:
        """Coordinates of t^j: a unit vector below d, zero from t^d = 0 on."""
        return tuple(int(i == j) for i in range(self.ext_degree))

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        d = self.ext_degree
        n = self.n
        if d == 1:
            return ((a[0] * b[0]) % n,)
        # the convolution of the coordinates, cut at t^d = 0
        out = [0] * d
        for i, ai in enumerate(a):
            if ai:
                for j in range(d - i):
                    out[i + j] += ai * b[j]
        return tuple(c % n for c in out)

    # -- queries -----------------------------------------------------------

    def is_unit(self, e: FiniteElement) -> bool:
        # valid because the extension generator lies in the maximal ideal
        return e.coords[0] % self.p != 0

    def residue(self, e: FiniteElement) -> int:
        return e.coords[0] % self.p

    def mult_columns(self, e: FiniteElement) -> list[list[int]]:
        """Columns of the multiplication-by-e map on coordinates: column j
        is e t^j, e's coordinates shifted down j places."""
        d = self.ext_degree
        return [[0] * j + list(e.coords[:d - j]) for j in range(d)]

    def carrier_size(self) -> int:
        return self.n ** self.ext_degree

    def enumerate_carrier(self):
        for coords in itertools.product(range(self.n), repeat=self.ext_degree):
            yield FiniteElement(self, coords)

    # -- formatting ---------------------------------------------------------

    def format(self, e: FiniteElement) -> str:
        if self.ext_degree == 1:
            return str(e.coords[0])
        parts = []
        for j in range(self.ext_degree - 1, -1, -1):
            c = e.coords[j]
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                power = self.ext_var if j == 1 else f"{self.ext_var}^{j}"
                parts.append(power if c == 1 else f"{c}*{power}")
        return " + ".join(parts) if parts else "0"

    def descriptor(self) -> dict:
        desc = {"kind": "finite", "p": self.p, "k": self.k}
        if self.ext_var is None:
            desc["vars"] = []
            desc["relations"] = []
            return desc
        desc["vars"] = [self.ext_var]
        desc["relations"] = [f"{self.ext_var}^{self.ext_degree}"]
        return desc


# ---------------------------------------------------------------------------
# graded backend

class GradedElement(_Element):
    __slots__ = ("ring", "terms")

    def __init__(self, ring: "GradedMonomialRing", terms: tuple):
        self.ring = ring
        self.terms = terms  # tuple of (exponent tuple, coeff), canonical order

    # every element is canonical, so a zero operand needs no arithmetic
    def __add__(self, other):
        other = self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        data = dict(self.terms)
        p = self.ring.p
        for exp, c in other.terms:
            new = (data.get(exp, 0) + c) % p
            if new:
                data[exp] = new
            else:
                data.pop(exp, None)
        return self.ring._from_dict(data)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return GradedElement(self.ring,
                             tuple((exp, (-c) % p) for exp, c in self.terms))

    def __mul__(self, other):
        other = self._check(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        ring = self.ring
        p = ring.p
        data: dict[tuple, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                exp = tuple(a + b for a, b in zip(e1, e2))
                if not ring.is_normal(exp):
                    continue
                new = (data.get(exp, 0) + c1 * c2) % p
                if new:
                    data[exp] = new
                else:
                    data.pop(exp, None)
        return ring._from_dict(data)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, GradedElement)
                and other.ring.key == self.ring.key
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.ring.key, self.terms))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Total degree, or None for the zero element."""
        if not self.terms:
            return None
        return max(sum(exp) for exp, _ in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(exp) for exp, _ in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self) -> dict[int, "GradedElement"]:
        buckets: dict[int, dict] = {}
        for exp, c in self.terms:
            buckets.setdefault(sum(exp), {})[exp] = c
        return {d: self.ring._from_dict(data)
                for d, data in sorted(buckets.items())}


def _monomial_sort_key(exp: tuple[int, ...]):
    # degree first, then lexicographic by the declared variable order,
    # largest first; gives the usual x^2, x*y, x*z, y^2, ... display
    return (-sum(exp), tuple(-e for e in exp))


class GradedMonomialRing:
    """F_p[vars] modulo an ideal generated by pure monomials."""

    kind = "graded"

    def __init__(self, p: int, variables: tuple[str, ...],
                 relations: tuple[tuple[int, ...], ...]):
        _require_prime(p)
        self.p = p
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise TotrefError("duplicate variable names")
        rels = []
        for exp in relations:
            if len(exp) != len(self.variables) or sum(exp) == 0:
                raise TotrefError("relations must be nonconstant monomials in "
                                  "the declared variables")
            rels.append(tuple(int(e) for e in exp))
        # drop generators divisible by another generator, keep canonical order
        rels.sort(key=_monomial_sort_key)
        kept: list[tuple[int, ...]] = []
        for exp in rels:
            if not any(all(a >= b for a, b in zip(exp, other)) and exp != other
                       for other in rels):
                if exp not in kept:
                    kept.append(exp)
        self.relations = tuple(kept)
        self.key = ("graded", p, self.variables, self.relations)
        self._basis_cache: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._index_cache: dict[int, dict[tuple[int, ...], int]] = {}
        self._mult_cache: dict = {}
        self._layout_cache: dict = {}  # linalg._twist_layout's results

    # -- construction -----------------------------------------------------

    def _from_dict(self, data: dict[tuple, int]) -> GradedElement:
        # (degree, exponents) descending is the _monomial_sort_key order
        p = self.p
        terms = [(sum(exp), exp, r) for exp, c in data.items() if (r := c % p)]
        terms.sort(reverse=True)
        return GradedElement(self, tuple([(exp, c) for _, exp, c in terms]))

    def zero(self) -> GradedElement:
        return GradedElement(self, ())

    def one(self) -> GradedElement:
        return self.from_int(1)

    def from_int(self, c: int) -> GradedElement:
        c %= self.p
        if c == 0:
            return self.zero()
        return GradedElement(self, (((0,) * len(self.variables), c),))

    def variable(self, name: str) -> GradedElement:
        if name not in self.variables:
            raise UnknownVariable(f"ring has no variable {name!r}")
        exp = tuple(1 if v == name else 0 for v in self.variables)
        if not self.is_normal(exp):
            return self.zero()
        return GradedElement(self, ((exp, 1),))

    def monomial_element(self, exp: tuple[int, ...], coeff: int = 1) -> GradedElement:
        return self._from_dict({tuple(exp): coeff})

    def parse(self, text: str) -> GradedElement:
        return _Parser(self, text).parse()

    # -- normal form -------------------------------------------------------

    def is_normal(self, exp: tuple[int, ...]) -> bool:
        for rel in self.relations:
            if all(a >= b for a, b in zip(exp, rel)):
                return False
        return True

    def basis(self, d: int) -> tuple[tuple[int, ...], ...]:
        """Exponent vectors of the monomial basis of the degree-d slice."""
        if d < 0:
            return ()
        cached = self._basis_cache.get(d)
        if cached is None:
            monos = [exp for exp in _compositions(d, len(self.variables))
                     if self.is_normal(exp)]
            cached = tuple(monos)
            self._basis_cache[d] = cached
            self._index_cache[d] = {exp: i for i, exp in enumerate(cached)}
        return cached

    def dim(self, d: int) -> int:
        return len(self.basis(d))

    # -- slice linear algebra ----------------------------------------------

    def mult_matrix(self, e: GradedElement, src_deg: int) -> tuple:
        """Multiplication by homogeneous e from degree src_deg, as the
        nonzero entries (dst, src, coeff) of its matrix in the slice bases."""
        cache_key = (e.terms, src_deg)
        hit = self._mult_cache.get(cache_key)
        if hit is not None:
            return hit
        t = e.degree()
        if t is None:
            raise TotrefError("mult_matrix needs a nonzero element")
        self.basis(src_deg + t)
        dst_index = self._index_cache[src_deg + t]
        # the terms of e carry distinct monomials, so no two of them land
        # on the same product
        entries = []
        for j, mono in enumerate(self.basis(src_deg)):
            for exp, c in e.terms:
                product = tuple(a + b for a, b in zip(mono, exp))
                if self.is_normal(product):
                    entries.append((dst_index[product], j, c))
        self._mult_cache[cache_key] = entries = tuple(entries)
        return entries

    def vector_of(self, e: GradedElement, d: int) -> dict[int, int]:
        """Coordinates of the degree-d component in the slice basis, as
        ``{index: residue}``."""
        self.basis(d)
        index = self._index_cache[d]
        return {index[exp]: c for exp, c in e.terms if sum(exp) == d}

    def element_of_vector(self, vec: dict[int, int], d: int) -> GradedElement:
        """The degree-d element with slice coordinates ``{index: residue}``."""
        # basis(d) is in the canonical order, so its indices are too
        basis, p = self.basis(d), self.p
        return GradedElement(self, tuple([(basis[i], r) for i in sorted(vec)
                                          if (r := vec[i] % p)]))

    # -- queries -----------------------------------------------------------

    def is_unit(self, e: GradedElement) -> bool:
        # unit in the local (graded-local) sense: nonzero constant term
        for exp, c in e.terms:
            if sum(exp) == 0:
                return c % self.p != 0
        return False

    def residue(self, e: GradedElement) -> int:
        for exp, c in e.terms:
            if sum(exp) == 0:
                return c % self.p
        return 0

    # -- formatting ---------------------------------------------------------

    def format(self, e: GradedElement) -> str:
        if not e.terms:
            return "0"
        parts = []
        for exp, c in e.terms:
            factors = []
            for name, power in zip(self.variables, exp):
                if power == 1:
                    factors.append(name)
                elif power > 1:
                    factors.append(f"{name}^{power}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)

    def descriptor(self) -> dict:
        return {
            "kind": "graded",
            "p": self.p,
            "vars": list(self.variables),
            "relations": [self.format(self.monomial_element(exp))
                          for exp in self.relations],
        }


def _compositions(total: int, parts: int):
    """Exponent vectors of degree ``total``, largest-first lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# descriptors and files

def _int_field(desc: dict, name: str) -> int:
    if name not in desc:
        raise ParseError(f"ring descriptor has no {name!r} field")
    value = desc[name]
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"ring descriptor field {name!r} must be an integer, "
                     f"got {value!r}")


def _str_list_field(desc: dict, name: str) -> list:
    value = desc.get(name) or []
    if not isinstance(value, list) or \
            not all(isinstance(v, str) for v in value):
        raise ParseError(f"ring descriptor field {name!r} must be a list of "
                         f"strings, got {value!r}")
    return value


def ring_from_descriptor(desc: dict):
    if not isinstance(desc, dict):
        raise ParseError("a ring descriptor is a JSON object")
    kind = desc.get("kind")
    if kind == "finite":
        p, k = _int_field(desc, "p"), _int_field(desc, "k")
        variables = _str_list_field(desc, "vars")
        relations = _str_list_field(desc, "relations")
        if not variables:
            return FiniteLocalRing(p, k)
        if len(variables) != 1 or len(relations) != 1:
            raise TotrefError("finite descriptors support one nilpotent "
                              "extension variable")
        name = variables[0]
        exp = _parse_pure_power(relations[0], name)
        return FiniteLocalRing(p, k, ext_var=name, ext_degree=exp)
    if kind == "graded":
        p = _int_field(desc, "p")
        variables = tuple(_str_list_field(desc, "vars"))
        if not variables:
            raise TotrefError("graded descriptor needs variables")
        rels = []
        for text in _str_list_field(desc, "relations"):
            rels.append(_parse_monomial(variables, text))
        return GradedMonomialRing(p, variables, tuple(rels))
    raise TotrefError(f"unknown ring kind {kind!r}")


def _parse_pure_power(text: str, name: str) -> int:
    probe = GradedMonomialRing(2, (name,), ())
    e = probe.parse(text)
    if len(e.terms) != 1 or e.terms[0][1] != 1:
        raise ParseError(f"{text!r} is not a pure power of {name}")
    return e.terms[0][0][0]


def _parse_monomial(variables: tuple[str, ...], text: str) -> tuple[int, ...]:
    probe = GradedMonomialRing(2, variables, ())
    e = probe.parse(text)
    if len(e.terms) != 1 or e.terms[0][1] != 1:
        raise ParseError(f"{text!r} is not a monomial")
    return e.terms[0][0]
