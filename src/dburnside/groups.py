"""Finite groups as dense Cayley tables, built straight from grammar text.

Every group lives on the element set {0..n-1} with 0 as the identity;
multiplication is a table lookup.  All target orders are small enough
(every order is capped at 4096) that this beats any structured
representation.

A table becomes a group in one place, ``FiniteGroup.__init__``.  The
constructions and :func:`direct_product` make their tables as one numpy
array by index arithmetic; the constructor checks the table once, as one
integer array, reads the inverses, the content hash and the abelian flag
off the same array, and keeps the table as lists of Python ints, which the
engine's hot loops index.  All rows share one int object per element, so
an entry costs one 8-byte pointer: a plain ``tolist`` would make each
entry above 256 an int of its own, 28 bytes more, which for a product of
order 2304 is about 150 MB.

A subgroup is a sorted tuple of its elements, and a section T/S is the pair
(T, S) of such tuples; no other representation exists.  Every subquotient
T/S, and with S trivial every subgroup T as a group of its own, comes from
one routine, :func:`section_quotient`, which numbers the cosets of S in T
by their least element.  A subgroup handed in by a caller is checked once,
by :func:`subgroup`; the engine's own subgroups come from lattices and are
not checked again.

Grammar text (``A4xC2``, ``C2^3``, ``X(27)``) is parsed and checked atom by
atom, and :func:`group_from_text` then builds each atom straight into its
table and multiplies them; no other description of a group stands between.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from .errors import GroupSpecError, PreconditionError
from .numtheory import integer_cube_root, is_prime

DEFAULT_PRODUCT_CAP = 4096

# Exhaustive associativity checks are O(n^3); above this order we rely on
# construction-level guarantees (direct products of valid groups etc.).
ASSOCIATIVITY_CHECK_LIMIT = 512


class FiniteGroup:
    """Group on {0..order-1} given by a validated multiplication table."""

    __slots__ = ("name", "order", "mul", "inv", "key", "factors", "_orders",
                 "_abelian")

    def __init__(self, name: str, mul: Sequence[Sequence[int]], *,
                 check_associativity: bool = True):
        """Check the table as one integer array, then keep it as lists.

        ``mul`` is nested rows or a numpy array of integers.  The first
        failed check raises GroupSpecError; the inverses, the content hash
        ``key`` and the abelian flag are read off the same array.  The rows
        kept are lists of Python ints that all share one int object per
        element, at 8 bytes an entry.
        """
        self.name = name
        self.order = n = len(mul)
        if n == 0:
            raise GroupSpecError("empty multiplication table")
        try:
            m = np.asarray(mul)
        except ValueError:  # rows of unequal length
            m = None
        # only integer entries go on: a float row cannot index, and a bool
        # row would index as a mask
        if (m is None or m.dtype.kind not in "iu" or m.shape != (n, n)
                or m.min() < 0 or m.max() >= n):
            raise GroupSpecError(f"{name}: malformed table row")
        e = np.arange(n)
        if (m[0] != e).any() or (m[:, 0] != e).any():
            raise GroupSpecError(f"{name}: 0 is not a two-sided identity")
        if check_associativity and n <= ASSOCIATIVITY_CHECK_LIMIT:
            for a in range(n):  # (ab)c == a(bc) for all b, c: n^2 at a time
                if not np.array_equal(m[m[a]], m[a][m]):
                    raise GroupSpecError(f"{name}: multiplication not associative")
        inv = (m == 0).argmax(axis=1)  # first 0 of each row, else 0
        bad = m[e, inv] | m[inv, e]  # 0 where x inv[x] = inv[x] x = 0
        if bad.any():
            x = int(np.flatnonzero(bad)[0])
            if m[x, inv[x]] != 0:
                raise GroupSpecError(f"{name}: element {x} has no inverse")
            raise GroupSpecError(f"{name}: one-sided inverse at {x}")
        # content hash, used for caches and equality; entries fit two bytes
        # because the product cap keeps orders below 2^16
        h = hashlib.sha256(n.to_bytes(4, "little"))
        h.update(m.astype("<u2", copy=False).tobytes())
        self.key = h.hexdigest()
        self._abelian = bool((m == m.T).all())
        # rows are gathered from one int object per element, one row at a
        # time, so no table of fresh per-entry ints is ever built
        ints = np.arange(n).astype(object)
        self.mul: List[List[int]] = [ints[row].tolist() for row in m]
        self.inv: List[int] = ints[inv].tolist()
        # (G, H) when this is direct_product(G, H) of two nontrivial groups;
        # with a trivial factor, the other factor's own
        self.factors: Optional[Tuple[FiniteGroup, FiniteGroup]] = None
        self._orders: Optional[Tuple[int, ...]] = None

    # -- identity and hashing -------------------------------------------

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
        return self._abelian

    def is_cyclic(self) -> bool:
        return self.order in self.element_orders()

    def center(self) -> Tuple[int, ...]:
        mul = self.mul
        n = self.order
        return tuple(z for z in range(n)
                     if all(mul[z][g] == mul[g][z] for g in range(n)))


def conjugacy_classes(G: FiniteGroup) -> np.ndarray:
    """The conjugacy class of each element of G, the classes numbered
    0, 1, ... in the order of their least elements."""
    m = np.array(G.mul)
    least = m[m, np.array(G.inv)[:, None]].min(axis=0)  # min_g g x g^-1
    reps = np.flatnonzero(least == np.arange(G.order))
    return np.searchsorted(reps, least)


def subgroup(G: FiniteGroup, elements: Iterable[int]) -> Tuple[int, ...]:
    """The elements as a sorted tuple, refused unless they form a subgroup
    of G: the one check for a subgroup that a caller hands in."""
    elems = tuple(sorted(set(int(x) for x in elements)))
    eset = frozenset(elems)
    if 0 not in eset:
        raise PreconditionError("subgroup must contain the identity")
    for x in (elems[0], elems[-1]):  # sorted
        if x < 0 or x >= G.order:
            raise PreconditionError(f"element {x} outside parent group")
    for x in elems:
        if G.inv[x] not in eset:
            raise PreconditionError("subset not closed under inversion")
        row = G.mul[x]
        for y in elems:
            if row[y] not in eset:
                raise PreconditionError("subset not closed under multiplication")
    if G.order % len(elems) != 0:
        raise PreconditionError("subgroup order must divide the group order")
    return elems


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


def quotient_group(G: FiniteGroup, N: Iterable[int]
                   ) -> Tuple[FiniteGroup, List[int]]:
    """Coset group G/N with the projection map, for N normal in G.

    Cosets are labelled 0..|G/N|-1 in order of their least element, so the
    identity coset is index 0.  ``proj[g]`` is the coset index of g.
    """
    N = subgroup(G, N)
    nset = frozenset(N)
    if not all(G.conj(g, x) in nset for g in range(G.order) for x in N):
        raise PreconditionError("quotient requires a normal subgroup")
    Q, proj = section_quotient(G, range(G.order), N)
    return Q, [proj[g] for g in range(G.order)]


def _capped(order: int, shown: object = None) -> int:
    """Return ``order``; above the cap, refuse it, written as ``shown``."""
    if order > DEFAULT_PRODUCT_CAP:
        raise PreconditionError(f"group order {shown or order} exceeds the "
                                f"configured cap {DEFAULT_PRODUCT_CAP}")
    return order


def _capped_factorial(n: int, divisor: int) -> None:
    """Refuse the order n!/divisor above the cap, multiplying only until
    the product passes it."""
    shown = f"{n}!" if divisor == 1 else f"{n}!/{divisor}"
    f = 1
    for k in range(2, n + 1):
        f *= k
        _capped(f // divisor, shown)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Direct product with (g, h) encoded as g*|H| + h."""
    order = _capped(G.order * H.order)
    # entry [a1*|H| + a2][b1*|H| + b2]; two bytes hold every capped order
    g = np.array(G.mul, dtype=np.uint16)[:, None, :, None]
    h = np.array(H.mul, dtype=np.uint16)[None, :, None, :]
    table = (g * H.order + h).reshape(order, order)
    P = FiniteGroup(f"{G.name}x{H.name}", table, check_associativity=False)
    P.factors = ((G, H) if min(G.order, H.order) > 1
                 else G.factors or H.factors)
    return P


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def build_cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError(f"cyclic order must be positive, got {n}")
    a = np.arange(n)
    return FiniteGroup(f"C{n}", (a[:, None] + a) % n, check_associativity=False)


def build_dihedral(order: int) -> FiniteGroup:
    if order < 2 or order % 2:
        raise GroupSpecError(f"dihedral order must be even and >= 2, got {order}")
    n = order // 2
    # element e*n + i is s^e r^i with s r s = r^-1:
    # (s^e r^i)(s^f r^j) = s^{e+f} r^{j-i if f else i+j}
    e, i = np.divmod(np.arange(order), n)
    rot = np.where(e, i - i[:, None], i[:, None] + i) % n
    return FiniteGroup(f"D{order}", (e[:, None] + e) % 2 * n + rot)


def _perm_group(perms: List[Tuple[int, ...]], name: str) -> FiniteGroup:
    P = np.array(perms, dtype=np.intp)
    d = P.shape[1]
    code = d ** np.arange(d)  # a permutation's number, its images in base d
    index = np.zeros(d ** d, dtype=np.intp)
    index[P @ code] = np.arange(len(perms))
    # P[:, P][a, b, i] = p_a(p_b(i)), the composition p_a∘p_b
    return FiniteGroup(name, index[P[:, P] @ code], check_associativity=False)


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
    # element a*p^2 + b*p + c is the matrix with a, b above the diagonal
    # and c in the corner: (a, b, c)(d, e, f) = (a+d, b+e, c+f+a*e) mod p
    a, b, c = (x.ravel() for x in np.indices((p, p, p)))
    A, B, C = a[:, None], b[:, None], c[:, None]
    table = (A + a) % p * p * p + (B + b) % p * p + (C + c + A * b) % p
    return FiniteGroup(f"X({n})", table)


def build_modular(p: int, n: int) -> FiniteGroup:
    """The group <a,b | a^{p^n} = b^{p^n} = 1, b a b^-1 = a^{1+p^{n-1}}>."""
    if not is_prime(p):
        raise GroupSpecError(f"modular construction needs a prime, got {p}")
    if n < 2:
        raise GroupSpecError(f"modular construction needs n >= 2, got {n}")
    q = p ** n
    t = 1 + p ** (n - 1)
    tpow = np.array([pow(t, j, q) for j in range(q)])
    # element i*q + j is a^i b^j; (a^i b^j)(a^k b^l) = a^{i + k t^j} b^{j+l}
    i, j = np.divmod(np.arange(q * q), q)
    I, J = i[:, None], j[:, None]
    table = (I + i * tpow[J]) % q * q + (J + j) % q
    return FiniteGroup(f"M({p},{n})", table)


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


def _parse_atom(tok: str) -> Callable[[], FiniteGroup]:
    """Check the syntax of one atom and return the builder of its table.

    The builder refuses an order above the cap before it builds anything,
    and the constructions check their own arguments, so none of those
    errors can come before a syntax error in a later atom.
    """
    m = _ATOM_RE.match(tok)
    if not m:
        raise GroupSpecError(f"cannot parse group atom {tok!r}")
    try:
        num = {k: int(v) for k, v in m.groupdict().items() if v is not None}
    except ValueError:  # more digits than int() converts
        raise GroupSpecError(f"number too long in {tok!r}") from None
    n, k = num.get("cn", 1), num.get("ck", 1)  # the atom 1 is C1
    if n < 1:
        raise GroupSpecError(f"bad cyclic order in {tok!r}")
    if not 1 <= k <= 64:
        raise GroupSpecError(f"power in {tok!r} must be in 1..64")
    if "xp" in num:
        p = integer_cube_root(num["xp"])
        if p < 2 or p ** 3 != num["xp"]:
            raise GroupSpecError(f"{tok!r}: argument must be a prime cubed")

    def build() -> FiniteGroup:
        if "dn" in num:
            return build_dihedral(_capped(num["dn"]))
        if "sn" in num:
            _capped_factorial(num["sn"], 1)
            return build_symmetric(num["sn"])
        if "an" in num:
            _capped_factorial(num["an"], 2)
            return build_alternating(num["an"])
        if "xp" in num:
            _capped(num["xp"])
            return build_extraspecial(p)
        if "mp" in num:
            # q^e > cap once e passes the bits of cap (q >= 2): no huge power
            q, e = num["mp"], 2 * num["mn"]
            _capped(q ** min(e, DEFAULT_PRODUCT_CAP.bit_length()), f"{q}^{e}")
            return build_modular(q, num["mn"])
        _capped(n)  # before n^k, whose digits may be too many to print
        _capped(n ** k)
        g = c = build_cyclic(n)
        for _ in range(k - 1):
            g = direct_product(g, c)
        return g
    return build


def group_from_text(text: str) -> FiniteGroup:
    """The group that grammar text like ``A4xC2`` or ``C2^3`` names.

    Every atom is parsed before any is built, so a syntax error anywhere
    wins over a cap or construction error; the atoms are then built and
    multiplied left to right, and the first build that fails is reported.
    """
    text = text.strip()
    if not text:
        raise GroupSpecError("empty group description")
    builders = [_parse_atom(tok) for tok in _split_product(text)]
    g = builders[0]()
    for build in builders[1:]:
        g = direct_product(g, build())
    g.name = text
    return g
