"""Double Burnside modules: canonical bases, composition, factorization.

A transitive biset over (G, H) is labelled by a subgroup of G x H up to
conjugacy; elements of kB(G, H) are finite linear combinations of labels.
Composition uses the double-coset decomposition; an independent orbit
realization of the same product serves as the correctness oracle.

Product-group elements are packed as g*|H| + h throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import errors
from .cache import memo_table
from .errors import PreconditionError
from .groups import (FiniteGroup, direct_product, quotient_group,
                     section_quotient, subgroup)
from .lattice import canonical, double_coset_reps, get_lattice
from .linalg import FieldSpec

LabelTuple = Tuple[int, ...]

RATIONALS = FieldSpec(0)


class BisetSpace:
    """Bookkeeping for one morphism space kB(G, H)."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup):
        self.left = left
        self.right = right
        self.product = direct_product(left, right)
        self._basis: Optional[List[LabelTuple]] = None
        self._basis_index: Optional[Dict[LabelTuple, int]] = None
        self._fibers: Dict[Tuple[LabelTuple, int], Tuple[Dict[int, Tuple[int, ...]], Tuple[int, ...]]] = {}
        self._realizations: Dict[LabelTuple, "_Realization"] = {}

    def encode(self, g: int, h: int) -> int:
        return g * self.right.order + h

    # -- canonical basis --------------------------------------------------

    def basis(self) -> List[LabelTuple]:
        if self._basis is None:
            lat = get_lattice(self.product)
            self._basis = lat.class_reps()
            self._basis_index = {t: i for i, t in enumerate(self._basis)}
        return self._basis

    def basis_index(self) -> Dict[LabelTuple, int]:
        if self._basis_index is None:
            self.basis()
        return self._basis_index

    # -- per-label caches --------------------------------------------------

    def fibers(self, L: LabelTuple, coordinate: int):
        """Map each value a of one coordinate (0: left, 1: right) of the
        pairs of L to the other coordinates paired with a, plus the
        projection of L to that coordinate: p1(L) or p2(L)."""
        hit = self._fibers.get((L, coordinate))
        if hit is None:
            d: Dict[int, List[int]] = {}
            hn = self.right.order
            for x in L:
                pair = divmod(x, hn)
                d.setdefault(pair[coordinate], []).append(pair[1 - coordinate])
            fib = {a: tuple(bs) for a, bs in d.items()}
            hit = (fib, tuple(sorted(fib)))
            self._fibers[L, coordinate] = hit
        return hit

    def realization(self, L: LabelTuple) -> "_Realization":
        r = self._realizations.get(L)
        if r is None:
            r = _Realization(self, L)
            self._realizations[L] = r
        return r


_SPACES: Dict[Tuple[str, str], BisetSpace] = memo_table()
_DC_MEMO: Dict[Tuple[str, Tuple[int, ...], Tuple[int, ...]], List[int]] = \
    memo_table()


def space(left: FiniteGroup, right: FiniteGroup) -> BisetSpace:
    key = (left.key, right.key)
    sp = _SPACES.get(key)
    if sp is None:
        sp = BisetSpace(left, right)
        _SPACES[key] = sp
    return sp


# ---------------------------------------------------------------------------
# Labels and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductInvariants:
    p1: LabelTuple  # of left
    p2: LabelTuple  # of right
    k1: LabelTuple  # of left
    k2: LabelTuple  # of right
    q: FiniteGroup


def make_label(left: FiniteGroup, right: FiniteGroup,
               elements: Iterable[int]) -> LabelTuple:
    """Canonicalize and validate a subgroup of left x right into a label."""
    sp = space(left, right)
    return canonical(sp.product, subgroup(sp.product, elements))


def identity_label(G: FiniteGroup) -> LabelTuple:
    sp = space(G, G)
    return canonical(sp.product, [sp.encode(g, g) for g in range(G.order)])


def _goursat(hn: int, L: LabelTuple) -> Tuple[LabelTuple, LabelTuple,
                                              LabelTuple, LabelTuple]:
    """(p1, k1, p2, k2) of a label of kB(G, H) with |H| = hn: the two
    projections and the two kernels, with p1/k1 isomorphic to p2/k2
    (Goursat's lemma)."""
    p1 = tuple(sorted({x // hn for x in L}))
    p2 = tuple(sorted({x % hn for x in L}))
    k1 = tuple(sorted(x // hn for x in L if x % hn == 0))
    k2 = tuple(sorted(x % hn for x in L if x < hn))
    if len(p1) * len(k2) != len(p2) * len(k1):
        raise AssertionError("projection/kernel index mismatch")
    return p1, k1, p2, k2


def product_invariants(G: FiniteGroup, H: FiniteGroup,
                       L: LabelTuple) -> ProductInvariants:
    p1, k1, p2, k2 = _goursat(H.order, L)
    q, _ = section_quotient(G, p1, k1)
    return ProductInvariants(p1, p2, k1, k2, q)


@dataclass
class BisetElement:
    """Finite k-linear combination of labels sharing (left, right).

    Coefficients are reduced by the field on construction, and zero ones
    are dropped, so arithmetic on them can use plain ``+`` and ``*``.
    """

    left: FiniteGroup
    right: FiniteGroup
    field: FieldSpec
    coeffs: Dict[LabelTuple, object] = dc_field(default_factory=dict)

    def __post_init__(self):
        red = self.field.reduce
        self.coeffs = {t: r for t, c in self.coeffs.items() if (r := red(c)) != 0}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BisetElement):
            return NotImplemented
        return (self.left == other.left and self.right == other.right
                and self.field == other.field and self.coeffs == other.coeffs)

    def __add__(self, other: "BisetElement") -> "BisetElement":
        if (self.left, self.right, self.field) != (other.left, other.right, other.field):
            raise PreconditionError("cannot add elements of different spaces")
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, 0) + c
        return BisetElement(self.left, self.right, self.field, out)

    def scale(self, c) -> "BisetElement":
        return BisetElement(self.left, self.right, self.field,
                            {t: c * v for t, v in self.coeffs.items()})


def identity_element(G: FiniteGroup, field: FieldSpec) -> BisetElement:
    return BisetElement(G, G, field, {identity_label(G): 1})


# ---------------------------------------------------------------------------
# Mackey composition
# ---------------------------------------------------------------------------

def _double_cosets(H: FiniteGroup, A: Tuple[int, ...], B: Tuple[int, ...]) -> List[int]:
    key = (H.key, A, B)
    reps = _DC_MEMO.get(key)
    if reps is None:
        reps = double_coset_reps(A, H, B)
        _DC_MEMO[key] = reps
    return reps


def _star(H: FiniteGroup, fib_l, fib_m, kn: int, h: int = 0) -> set:
    """{(g, k) : (g, h m h^-1) in L, (m, k) in M} from the fibers of L over
    its second coordinate and of M over its first, packed as g*kn + k."""
    mul, hi = H.mul, H.inv[h]
    out = set()
    add = out.add
    for m, ks in fib_m.items():
        gs = fib_l.get(mul[mul[h][m]][hi])
        if gs is None:
            continue
        for g in gs:
            base = g * kn
            for k in ks:
                add(base + k)
    return out


def mackey_tuples(sp_gh: BisetSpace, sp_hk: BisetSpace, sp_gk: BisetSpace,
                  L: LabelTuple, M: LabelTuple) -> Dict[LabelTuple, int]:
    """Integer decomposition of the composite of two transitive labels.

    One star L * ^(h,1)M per double coset p2(L) h p1(M) of the middle group
    H.  When H is abelian the conjugation is trivial, so every double coset
    gives the same star: it is built once and counted
    |H| / |p2(L) p1(M)| = |H| |p2(L) ∩ p1(M)| / (|p2(L)| |p1(M)|) times.
    """
    H = sp_gh.right
    kn = sp_hk.right.order
    fib_l, p2l = sp_gh.fibers(L, 1)
    fib_m, p1m = sp_hk.fibers(M, 0)
    if H.is_abelian():
        meet = sum(1 for m in p1m if m in fib_l)
        return {canonical(sp_gk.product, _star(H, fib_l, fib_m, kn)):
                H.order * meet // (len(p2l) * len(p1m))}
    out: Dict[LabelTuple, int] = {}
    for h in _double_cosets(H, p2l, p1m):
        t = canonical(sp_gk.product, _star(H, fib_l, fib_m, kn, h))
        out[t] = out.get(t, 0) + 1
    return out


def op_indices(sp: BisetSpace, sp_op: BisetSpace) -> List[int]:
    """For each basis label L of kB(G, H), the index in the basis of
    kB(H, G) of its opposite {(h, g) : (g, h) in L}.

    The opposite biset reverses composition: (u∘w)^op = w^op∘u^op (Bouc,
    Biset Functors for Finite Groups, LNM 1990, §2.3).
    """
    gn, hn = sp.left.order, sp.right.order
    index = sp_op.basis_index()
    return [index[canonical(sp_op.product,
                            [(x % hn) * gn + x // hn for x in L])]
            for L in sp.basis()]


def compose(x: BisetElement, y: BisetElement) -> BisetElement:
    """Bilinear extension of the transitive composition."""
    if x.right != y.left:
        raise PreconditionError("middle groups do not match")
    if x.field != y.field:
        raise PreconditionError("elements live over different fields")
    sp_gh = space(x.left, x.right)
    sp_hk = space(y.left, y.right)
    sp_gk = space(x.left, y.right)
    out: Dict[LabelTuple, object] = {}
    for lx, cx in x.coeffs.items():
        for ly, cy in y.coeffs.items():
            for t, n in mackey_tuples(sp_gh, sp_hk, sp_gk, lx, ly).items():
                out[t] = out.get(t, 0) + cx * cy * n
    return BisetElement(x.left, y.right, x.field, out)


# ---------------------------------------------------------------------------
# Elementary bisets and the butterfly factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementaryBiset:
    kind: str  # Ind | Res | Inf | Def | Iso
    left: FiniteGroup
    right: FiniteGroup
    elements: LabelTuple


def _elementary(kind: str, left: FiniteGroup, right: FiniteGroup,
                pairs: Iterable[Tuple[int, int]]) -> ElementaryBiset:
    """The biset of ``kind`` labelled by the subgroup {(a, b)} of left x right."""
    sp = space(left, right)
    elems = [sp.encode(a, b) for a, b in pairs]
    return ElementaryBiset(kind, left, right, canonical(sp.product, elems))


def elementary_ind(G: FiniteGroup, sub: Iterable[int]) -> ElementaryBiset:
    """Ind from a subgroup: the (G, sub)-biset G with both actions by product."""
    sub = subgroup(G, sub)
    P, pos = section_quotient(G, sub, (0,))
    return _elementary("Ind", G, P, ((g, pos[g]) for g in sub))


def elementary_res(G: FiniteGroup, sub: Iterable[int]) -> ElementaryBiset:
    sub = subgroup(G, sub)
    P, pos = section_quotient(G, sub, (0,))
    return _elementary("Res", P, G, ((pos[g], g) for g in sub))


def elementary_inf(G: FiniteGroup, normal: Iterable[int]) -> ElementaryBiset:
    Q, proj = quotient_group(G, normal)
    return _elementary("Inf", G, Q, ((g, proj[g]) for g in range(G.order)))


def elementary_def(G: FiniteGroup, normal: Iterable[int]) -> ElementaryBiset:
    Q, proj = quotient_group(G, normal)
    return _elementary("Def", Q, G, ((proj[g], g) for g in range(G.order)))


def elementary_iso(alpha: Sequence[int], source: FiniteGroup,
                   target: FiniteGroup) -> ElementaryBiset:
    """Iso biset for a bijective homomorphism alpha: source -> target."""
    if sorted(alpha) != list(range(target.order)) or source.order != target.order:
        raise PreconditionError("iso data is not a bijection")
    for a in range(source.order):
        for b in range(source.order):
            if alpha[source.mul[a][b]] != target.mul[alpha[a]][alpha[b]]:
                raise PreconditionError("iso data is not a homomorphism")
    return _elementary("Iso", target, source,
                       ((alpha[h], h) for h in range(source.order)))


def butterfly_factorize(G: FiniteGroup, H: FiniteGroup,
                        L: LabelTuple) -> List[ElementaryBiset]:
    """Ind o Inf o Iso o Def o Res factorization of a label L of kB(G, H).

    L is the subgroup of G x H over the isomorphism P2/K2 -> P1/K1 of its
    Goursat data; each of P1, P2, P1/K1 and P2/K2 is built once.
    Composing the five factors reproduces exactly 1 * L.
    """
    p1, k1, p2, k2 = _goursat(H.order, L)
    P1, pos1 = section_quotient(G, p1, (0,))
    Q1, proj1 = section_quotient(G, p1, k1)
    P2, pos2 = section_quotient(H, p2, (0,))
    Q2, proj2 = section_quotient(H, p2, k2)
    fib, _ = space(G, H).fibers(L, 1)
    alpha = [0] * Q2.order
    for h in p2:
        alpha[proj2[h]] = proj1[fib[h][0]]
    return [
        _elementary("Ind", G, P1, ((g, pos1[g]) for g in p1)),
        _elementary("Inf", P1, Q1, ((pos1[g], proj1[g]) for g in p1)),
        elementary_iso(alpha, Q2, Q1),
        _elementary("Def", Q2, P2, ((proj2[h], pos2[h]) for h in p2)),
        _elementary("Res", P2, H, ((pos2[h], h) for h in p2)),
    ]


def compose_factors(factors: Sequence[ElementaryBiset]) -> BisetElement:
    return reduce(compose, (BisetElement(f.left, f.right, RATIONALS,
                                         {f.elements: 1}) for f in factors))


# ---------------------------------------------------------------------------
# Orbit realization oracle and the trace
# ---------------------------------------------------------------------------

class _Realization:
    """Explicit coset space of a label with both action tables."""

    def __init__(self, sp: BisetSpace, L: LabelTuple):
        X = sp.product
        mul = X.mul
        n = X.order
        coset_id = [-1] * n
        reps: List[int] = []
        for x in range(n):
            if coset_id[x] >= 0:
                continue
            idx = len(reps)
            reps.append(x)
            row = mul[x]
            for l in L:
                coset_id[row[l]] = idx
        self.reps = reps
        self.coset_id = coset_id
        G, H = sp.left, sp.right
        enc = sp.encode
        hinv = H.inv
        # left[i][g] = g . x_i ; right[i][h] = x_i . h
        self.left = [[coset_id[mul[enc(g, 0)][r]] for g in range(G.order)]
                     for r in reps]
        self.right = [[coset_id[mul[enc(0, hinv[h])][r]] for h in range(H.order)]
                      for r in reps]


def realize_and_compose_oracle(G: FiniteGroup, H: FiniteGroup,
                               K: FiniteGroup, U: LabelTuple,
                               V: LabelTuple) -> BisetElement:
    """Ground-truth composite of labels U of kB(G, H) and V of kB(H, K):
    orbit count on the explicit coset sets.

    Builds U x V, quotients by the diagonal middle action, and decomposes
    the result by point stabilizers in left x right.  Quadratic in biset
    sizes; wired to tests, not to decision procedures.
    """
    sp_gh = space(G, H)
    sp_hk = space(H, K)
    sp_gk = space(G, K)
    RU = sp_gh.realization(U)
    RV = sp_hk.realization(V)
    nu, nv = len(RU.reps), len(RV.reps)
    hinv = H.inv
    # H-orbits of pairs under h.(u, v) = (u h^-1, h v)
    orbit = [-1] * (nu * nv)
    n_orbits = 0
    orbit_rep: List[int] = []
    for start in range(nu * nv):
        if orbit[start] >= 0:
            continue
        errors.budget.check("oracle orbit enumeration")
        oid = n_orbits
        n_orbits += 1
        orbit_rep.append(start)
        stack = [start]
        orbit[start] = oid
        while stack:
            p = stack.pop()
            i, j = divmod(p, nv)
            ru, rv = RU.right[i], RV.left[j]
            for h in range(1, H.order):
                p2 = ru[hinv[h]] * nv + rv[h]
                if orbit[p2] < 0:
                    orbit[p2] = oid
                    stack.append(p2)
    # decompose the H-orbit set as a (G, K)-biset via (a, b).o = a o b^-1
    kinv = K.inv
    seen = [False] * n_orbits
    coeffs: Dict[LabelTuple, object] = {}
    for o in range(n_orbits):
        if seen[o]:
            continue
        errors.budget.check("oracle transitive decomposition")
        comp = [o]
        seen[o] = True
        stack = [o]
        while stack:
            cur = stack.pop()
            p = orbit_rep[cur]
            i, j = divmod(p, nv)
            for a in range(G.order):
                o2 = orbit[RU.left[i][a] * nv + j]
                if not seen[o2]:
                    seen[o2] = True
                    comp.append(o2)
                    stack.append(o2)
            for k in range(K.order):
                o2 = orbit[i * nv + RV.right[j][k]]
                if not seen[o2]:
                    seen[o2] = True
                    comp.append(o2)
                    stack.append(o2)
        i0, j0 = divmod(orbit_rep[o], nv)
        stab = []
        for a in range(G.order):
            ui = RU.left[i0][a]
            base = ui * nv
            row = RV.right[j0]
            for bb in range(K.order):
                if orbit[base + row[kinv[bb]]] == o:
                    stab.append(sp_gk.encode(a, bb))
        t = canonical(sp_gk.product, stab)
        coeffs[t] = coeffs.get(t, 0) + 1
    return BisetElement(G, K, RATIONALS, coeffs)


def trace_of_label(G: FiniteGroup, H: FiniteGroup, L: LabelTuple) -> int:
    """Number of orbits of the diagonal on the cosets (G x G)/L of a label
    L of kB(G, H), which must be square (H = G).

    The orbit of the coset xL under the diagonal D is the double coset DxL,
    so the trace is the number of double cosets D\\(G x G)/L.
    """
    if G != H:
        raise PreconditionError("trace needs a square label")
    sp = space(G, G)
    diag = [sp.encode(g, g) for g in range(G.order)]
    return len(double_coset_reps(diag, sp.product, L))
