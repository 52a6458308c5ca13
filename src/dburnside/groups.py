"""Finite groups as dense Cayley tables, plus the construction catalog.

Every group lives on the element set {0..n-1} with 0 as the identity;
multiplication is a table lookup.  All target orders are small enough
(products capped at 4096 by default) that this beats any structured
representation.

Subgroups are sorted element tuples of their parent.  Every subquotient
T/S, and with S trivial every subgroup T as a group of its own, comes from
one routine, :func:`section_quotient`, which numbers the cosets of S in T
by their least element.  ``Subgroup``, ``Section`` and ``quotient_group``
validate what a caller hands in and then build through it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import GroupSpecError, PreconditionError
from .numtheory import integer_cube_root, is_prime

DEFAULT_PRODUCT_CAP = 4096

# Exhaustive associativity checks are O(n^3); above this order we rely on
# construction-level guarantees (direct products of valid groups etc.).
ASSOCIATIVITY_CHECK_LIMIT = 512


class FiniteGroup:
    """Group on {0..order-1} given by a validated multiplication table."""

    __slots__ = ("name", "order", "mul", "inv", "_key", "_orders", "_abelian")

    def __init__(self, name: str, mul: Sequence[Sequence[int]], *,
                 check_associativity: bool = True):
        self.name = name
        self.order = len(mul)
        self.mul = [list(map(int, row)) for row in mul]
        self._key: Optional[str] = None
        self._orders: Optional[Tuple[int, ...]] = None
        self._abelian: Optional[bool] = None
        self._validate(check_associativity)
        self.inv = self._build_inverses()

    def _validate(self, check_associativity: bool) -> None:
        n = self.order
        if n == 0:
            raise GroupSpecError("empty multiplication table")
        for row in self.mul:
            if len(row) != n or any(x < 0 or x >= n for x in row):
                raise GroupSpecError(f"{self.name}: malformed table row")
        for x in range(n):
            if self.mul[0][x] != x or self.mul[x][0] != x:
                raise GroupSpecError(f"{self.name}: 0 is not a two-sided identity")
        if check_associativity and n <= ASSOCIATIVITY_CHECK_LIMIT:
            m = np.array(self.mul, dtype=np.int32)
            for a in range(n):
                if not np.array_equal(m[m[a]], m[a][m]):
                    raise GroupSpecError(f"{self.name}: multiplication not associative")

    def _build_inverses(self) -> List[int]:
        n = self.order
        inv = [-1] * n
        for x in range(n):
            row = self.mul[x]
            for y in range(n):
                if row[y] == 0:
                    if self.mul[y][x] != 0:
                        raise GroupSpecError(f"{self.name}: one-sided inverse at {x}")
                    inv[x] = y
                    break
            if inv[x] < 0:
                raise GroupSpecError(f"{self.name}: element {x} has no inverse")
        return inv

    # -- identity and hashing -------------------------------------------

    @property
    def key(self) -> str:
        """Content hash of the Cayley table; used for caches and equality."""
        if self._key is None:
            h = hashlib.sha256()
            h.update(self.order.to_bytes(4, "little"))
            for row in self.mul:
                h.update(b"".join(x.to_bytes(2, "little") for x in row))
            self._key = h.hexdigest()
        return self._key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.order == other.order and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    # -- elementwise helpers --------------------------------------------

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

    def element_order(self, x: int) -> int:
        n = 1
        y = x
        while y != 0:
            y = self.mul[y][x]
            n += 1
        return n

    def element_orders(self) -> Tuple[int, ...]:
        if self._orders is None:
            self._orders = tuple(self.element_order(x) for x in range(self.order))
        return self._orders

    def order_histogram(self) -> Tuple[Tuple[int, int], ...]:
        hist: dict = {}
        for o in self.element_orders():
            hist[o] = hist.get(o, 0) + 1
        return tuple(sorted(hist.items()))

    def is_abelian(self) -> bool:
        if self._abelian is None:
            mul = self.mul
            self._abelian = all(mul[a][b] == mul[b][a]
                                for a in range(self.order) for b in range(a))
        return self._abelian

    def is_cyclic(self) -> bool:
        return self.order in self.element_orders()

    def center(self) -> Tuple[int, ...]:
        mul = self.mul
        n = self.order
        return tuple(z for z in range(n)
                     if all(mul[z][g] == mul[g][z] for g in range(n)))


class Subgroup:
    """Closed subset of a parent group, held as a sorted element tuple."""

    __slots__ = ("parent", "elements", "eset")

    def __init__(self, parent: FiniteGroup, elements: Iterable[int], *,
                 validate: bool = True):
        self.parent = parent
        self.elements = tuple(sorted(set(int(x) for x in elements)))
        self.eset = frozenset(self.elements)
        if validate:
            self._validate()

    def _validate(self) -> None:
        G = self.parent
        if 0 not in self.eset:
            raise PreconditionError("subgroup must contain the identity")
        for x in (self.elements[0], self.elements[-1]):  # sorted
            if x < 0 or x >= G.order:
                raise PreconditionError(f"element {x} outside parent group")
        for x in self.elements:
            if G.inv[x] not in self.eset:
                raise PreconditionError("subset not closed under inversion")
            row = G.mul[x]
            for y in self.elements:
                if row[y] not in self.eset:
                    raise PreconditionError("subset not closed under multiplication")
        if len(self.elements) == 0 or self.parent.order % len(self.elements) != 0:
            raise PreconditionError("subgroup order must divide the group order")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.eset

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent == other.parent and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.parent.key, self.elements))

    def __repr__(self) -> str:
        return f"Subgroup(order={len(self.elements)} of {self.parent.name})"

    def is_normal(self) -> bool:
        G = self.parent
        return all(G.conj(g, x) in self.eset
                   for g in range(G.order) for x in self.elements)


@dataclass(frozen=True)
class Section:
    """Pair (T, S) with S normal in T; the subquotient is T/S."""

    T: Subgroup
    S: Subgroup

    def __post_init__(self):
        if self.T.parent != self.S.parent:
            raise PreconditionError("section parts must share a parent group")
        if not self.S.eset <= self.T.eset:
            raise PreconditionError("S must be contained in T")
        G = self.T.parent
        for t in self.T.elements:
            for s in self.S.elements:
                if G.conj(t, s) not in self.S.eset:
                    raise PreconditionError("S must be normal in T")

    def quotient(self) -> FiniteGroup:
        return section_quotient(self.T.parent, self.T.elements,
                                self.S.elements)[0]


def section_quotient(G: FiniteGroup, T: Sequence[int], S: Sequence[int]
                     ) -> Tuple[FiniteGroup, Dict[int, int]]:
    """The subquotient T/S with the projection of T onto it.

    T and S are sorted element lists of G with S normal in T; this is not
    checked.  The cosets xS are numbered in order of their least element,
    so the identity coset is 0, and ``proj[x]`` is the coset of x in T.
    With S trivial this is T itself as a group, ``proj`` its numbering.
    """
    mul = G.mul
    proj: Dict[int, int] = {}
    reps: List[int] = []
    for x in T:
        if x in proj:
            continue
        row = mul[x]
        for s in S:
            proj[row[s]] = len(reps)
        reps.append(x)
    table = [[proj[mul[a][b]] for b in reps] for a in reps]
    name = f"{G.name}.sub{len(T)}/N{len(S)}"
    return FiniteGroup(name, table, check_associativity=False), proj


def quotient_group(G: FiniteGroup, N: Subgroup) -> Tuple[FiniteGroup, List[int]]:
    """Coset group G/N with the projection map, for N normal in G.

    Cosets are labelled 0..|G/N|-1 in order of their least element, so the
    identity coset is index 0.  ``proj[g]`` is the coset index of g.
    """
    if N.parent != G:
        raise PreconditionError("subgroup belongs to a different group")
    if not N.is_normal():
        raise PreconditionError("quotient requires a normal subgroup")
    Q, proj = section_quotient(G, range(G.order), N.elements)
    return Q, [proj[g] for g in range(G.order)]


def _capped(order: int, cap: int) -> int:
    if order > cap:
        raise PreconditionError(
            f"group order {order} exceeds the configured cap {cap}")
    return order


def direct_product(G: FiniteGroup, H: FiniteGroup, *,
                   cap: int = DEFAULT_PRODUCT_CAP) -> FiniteGroup:
    """Direct product with (g, h) encoded as g*|H| + h."""
    order = _capped(G.order * H.order, cap)
    hn = H.order
    gmul, hmul = G.mul, H.mul
    table = []
    for a in range(order):
        a1, a2 = divmod(a, hn)
        grow, hrow = gmul[a1], hmul[a2]
        table.append([grow[b1] * hn + hrow[b2]
                      for b1 in range(G.order) for b2 in range(hn)])
    name = f"{G.name}x{H.name}"
    return FiniteGroup(name, table, check_associativity=False)


# ---------------------------------------------------------------------------
# Construction catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class AbelianProduct:
    factors: Tuple[int, ...]


@dataclass(frozen=True)
class Dihedral:
    order: int


@dataclass(frozen=True)
class Symmetric:
    n: int


@dataclass(frozen=True)
class Alternating:
    n: int


@dataclass(frozen=True)
class Extraspecial:
    p: int


@dataclass(frozen=True)
class Modular:
    p: int
    n: int


@dataclass(frozen=True)
class Product:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = (Cyclic, AbelianProduct, Dihedral, Symmetric, Alternating,
             Extraspecial, Modular, Product)


def build_cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError(f"cyclic order must be positive, got {n}")
    return FiniteGroup(f"C{n}", [[(a + b) % n for b in range(n)] for a in range(n)],
                       check_associativity=False)


def build_dihedral(order: int) -> FiniteGroup:
    if order < 2 or order % 2:
        raise GroupSpecError(f"dihedral order must be even and >= 2, got {order}")
    n = order // 2
    # element e*n + i is s^e r^i with s r s = r^-1
    def mul(a: int, b: int) -> int:
        e, i = divmod(a, n)
        f, j = divmod(b, n)
        rot = (j - i if f else i + j) % n
        return ((e + f) % 2) * n + rot
    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    return FiniteGroup(f"D{order}", table)


def _perm_group(perms: List[Tuple[int, ...]], name: str) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            row.append(index[tuple(p[q[i]] for i in range(len(p)))])
        table.append(row)
    return FiniteGroup(name, table, check_associativity=False)


def _parity(p: Tuple[int, ...]) -> int:
    seen = [False] * len(p)
    par = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            clen += 1
        par ^= (clen - 1) & 1
    return par


def build_symmetric(n: int) -> FiniteGroup:
    if not 1 <= n <= 4:
        raise GroupSpecError(f"symmetric group supported for n in 1..4, got {n}")
    perms = list(itertools.permutations(range(n)))
    return _perm_group(perms, f"S{n}")


def build_alternating(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise GroupSpecError(f"alternating group supported for n in 1..5, got {n}")
    perms = [p for p in itertools.permutations(range(n)) if _parity(p) == 0]
    return _perm_group(perms, f"A{n}")


def build_extraspecial(p: int) -> FiniteGroup:
    """Order p^3 group of exponent p (odd p): unitriangular 3x3 over F_p."""
    if not is_prime(p) or p == 2:
        raise GroupSpecError(f"extraspecial construction needs an odd prime, got {p}")
    n = p * p * p
    def mul(x: int, y: int) -> int:
        a, r = divmod(x, p * p)
        b, c = divmod(r, p)
        d, s = divmod(y, p * p)
        e, f = divmod(s, p)
        return ((a + d) % p) * p * p + ((b + e) % p) * p + (c + f + a * e) % p
    table = [[mul(x, y) for y in range(n)] for x in range(n)]
    return FiniteGroup(f"X({n})", table)


def build_modular(p: int, n: int) -> FiniteGroup:
    """The group <a,b | a^{p^n} = b^{p^n} = 1, b a b^-1 = a^{1+p^{n-1}}>."""
    if not is_prime(p):
        raise GroupSpecError(f"modular construction needs a prime, got {p}")
    if n < 2:
        raise GroupSpecError(f"modular construction needs n >= 2, got {n}")
    q = p ** n
    t = 1 + p ** (n - 1)
    tpow = [1] * q
    for j in range(1, q):
        tpow[j] = (tpow[j - 1] * t) % q
    # element i*q + j is a^i b^j; (a^i b^j)(a^k b^l) = a^{i + k t^j} b^{j+l}
    def mul(x: int, y: int) -> int:
        i, j = divmod(x, q)
        k, l = divmod(y, q)
        return ((i + k * tpow[j]) % q) * q + (j + l) % q
    table = [[mul(x, y) for y in range(q * q)] for x in range(q * q)]
    return FiniteGroup(f"M({p},{n})", table)


def build_group(spec, *, cap: int = DEFAULT_PRODUCT_CAP) -> FiniteGroup:
    """Construct the group described by a GroupSpec value.  An atom or a
    product above ``cap`` elements is refused before its table is built."""
    if isinstance(spec, Cyclic):
        return build_cyclic(_capped(spec.n, cap))
    if isinstance(spec, AbelianProduct):
        if not spec.factors:
            raise GroupSpecError("empty abelian product")
        _capped(math.prod(spec.factors), cap)
        g = build_cyclic(spec.factors[0])
        for n in spec.factors[1:]:
            g = direct_product(g, build_cyclic(n), cap=cap)
        base = spec.factors[0]
        if all(n == base for n in spec.factors) and len(spec.factors) > 1:
            g.name = f"C{base}^{len(spec.factors)}"
        return g
    if isinstance(spec, Dihedral):
        return build_dihedral(_capped(spec.order, cap))
    if isinstance(spec, Symmetric):
        return build_symmetric(spec.n)
    if isinstance(spec, Alternating):
        return build_alternating(spec.n)
    if isinstance(spec, Extraspecial):
        _capped(spec.p ** 3, cap)
        return build_extraspecial(spec.p)
    if isinstance(spec, Modular):
        # p^e > cap once e exceeds the bits of cap (p >= 2): no huge power
        p, e = spec.p, 2 * spec.n
        if p > 1 and (e > cap.bit_length() or p ** e > cap):
            raise PreconditionError(
                f"group order {p}^{e} exceeds the configured cap {cap}")
        return build_modular(p, spec.n)
    if isinstance(spec, Product):
        g = build_group(spec.left, cap=cap)
        h = build_group(spec.right, cap=cap)
        return direct_product(g, h, cap=cap)
    raise GroupSpecError(f"unknown group spec {spec!r}")


# ---------------------------------------------------------------------------
# Text grammar: C<n>, C<n>^<k>, D<2n>, S<n>, A<n>, X(p^3), M(p,n), 1,
# and products joined by 'x'.
# ---------------------------------------------------------------------------

_ATOM_RE = re.compile(
    r"^(?:1|C(?P<cn>\d+)(?:\^(?P<ck>\d+))?|D(?P<dn>\d+)|S(?P<sn>\d+)"
    r"|A(?P<an>\d+)|X\((?P<xp>\d+)\)|M\((?P<mp>\d+),(?P<mn>\d+)\))$")


def _split_product(text: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GroupSpecError(f"unbalanced parentheses in {text!r}")
        if ch == "x" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise GroupSpecError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


def _parse_atom(tok: str):
    m = _ATOM_RE.match(tok)
    if not m:
        raise GroupSpecError(f"cannot parse group atom {tok!r}")
    if tok == "1":
        return Cyclic(1)
    try:
        num = {k: int(v) for k, v in m.groupdict().items() if v is not None}
    except ValueError:  # more digits than int() converts
        raise GroupSpecError(f"number too long in {tok!r}") from None
    if "cn" in num:
        n = num["cn"]
        if n < 1:
            raise GroupSpecError(f"bad cyclic order in {tok!r}")
        if "ck" in num:
            k = num["ck"]
            if not 1 <= k <= 64:  # refused before a k-tuple is built
                raise GroupSpecError(f"power in {tok!r} must be in 1..64")
            return AbelianProduct((n,) * k)
        return Cyclic(n)
    if "dn" in num:
        return Dihedral(num["dn"])
    if "sn" in num:
        return Symmetric(num["sn"])
    if "an" in num:
        return Alternating(num["an"])
    if "xp" in num:
        p = integer_cube_root(num["xp"])
        if p < 2 or p ** 3 != num["xp"]:
            raise GroupSpecError(f"{tok!r}: argument must be a prime cubed")
        return Extraspecial(p)
    return Modular(num["mp"], num["mn"])


def parse_group_spec(text: str):
    """Parse grammar text like ``A4xC2`` or ``C2^3`` into a GroupSpec."""
    text = text.strip()
    if not text:
        raise GroupSpecError("empty group description")
    parts = _split_product(text)
    specs = [_parse_atom(p) for p in parts]
    out = specs[0]
    for s in specs[1:]:
        out = Product(out, s)
    return out


def spec_to_text(spec) -> str:
    if isinstance(spec, Cyclic):
        return f"C{spec.n}"
    if isinstance(spec, AbelianProduct):
        return f"C{spec.factors[0]}^{len(spec.factors)}"
    if isinstance(spec, Dihedral):
        return f"D{spec.order}"
    if isinstance(spec, Symmetric):
        return f"S{spec.n}"
    if isinstance(spec, Alternating):
        return f"A{spec.n}"
    if isinstance(spec, Extraspecial):
        return f"X({spec.p ** 3})"
    if isinstance(spec, Modular):
        return f"M({spec.p},{spec.n})"
    if isinstance(spec, Product):
        return f"{spec_to_text(spec.left)}x{spec_to_text(spec.right)}"
    raise GroupSpecError(f"unknown group spec {spec!r}")


def group_from_text(text: str, *, cap: int = DEFAULT_PRODUCT_CAP) -> FiniteGroup:
    g = build_group(parse_group_spec(text), cap=cap)
    g.name = text.strip()
    return g
