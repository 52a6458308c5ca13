"""Double Burnside modules: canonical bases, composition, factorization.

A transitive biset over (G, H) is labelled by a subgroup of G x H up to
conjugacy; elements of kB(G, H) are finite linear combinations of labels.
Composition uses the double-coset decomposition; an independent orbit
realization of the same product serves as the correctness oracle.

Product-group elements are packed as g*|H| + h throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cache import memo_table
from .errors import Budget, NO_BUDGET, PreconditionError
from .groups import (FiniteGroup, Subgroup, direct_product, quotient_group,
                     section_quotient)
from .lattice import double_coset_reps, get_lattice, memoized_lattice
from .linalg import Field, FieldSpec

LabelTuple = Tuple[int, ...]

RATIONALS = FieldSpec(0)


class BisetSpace:
    """Bookkeeping for one morphism space kB(G, H)."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup):
        self.left = left
        self.right = right
        self.product = direct_product(left, right)
        self._abelian = self.product.is_abelian()
        self._basis: Optional[List[LabelTuple]] = None
        self._basis_index: Optional[Dict[LabelTuple, int]] = None
        self._fibers_second: Dict[LabelTuple, Tuple[Dict[int, Tuple[int, ...]], Tuple[int, ...]]] = {}
        self._fibers_first: Dict[LabelTuple, Tuple[Dict[int, Tuple[int, ...]], Tuple[int, ...]]] = {}
        self._realizations: Dict[LabelTuple, "_Realization"] = {}
        self._canon_memo: Dict[frozenset, LabelTuple] = {}

    def encode(self, g: int, h: int) -> int:
        return g * self.right.order + h

    # -- canonicalization ------------------------------------------------

    def canonical(self, elements: Iterable[int]) -> LabelTuple:
        """Lexicographically least conjugate of the subgroup element list."""
        if self._abelian:
            return tuple(sorted(elements))
        key = frozenset(elements)
        hit = self._canon_memo.get(key)
        if hit is not None:
            return hit
        # use the lattice only when it is already materialized; building it
        # here would turn a single canonicalization into a full enumeration
        lat = memoized_lattice(self.product)
        if lat is not None:
            best = lat.canonical(key)
        else:
            X = self.product
            mul, inv = X.mul, X.inv
            elems = sorted(key)
            best = tuple(elems)
            for t in range(1, X.order):
                ti = inv[t]
                cand = tuple(sorted(mul[mul[t][s]][ti] for s in elems))
                if cand < best:
                    best = cand
        self._canon_memo[key] = best
        return best

    # -- canonical basis --------------------------------------------------

    def basis(self, budget: Optional[Budget] = None) -> List[LabelTuple]:
        if self._basis is None:
            lat = get_lattice(self.product, budget)
            self._basis = lat.class_reps()
            self._basis_index = {t: i for i, t in enumerate(self._basis)}
        return self._basis

    def basis_index(self) -> Dict[LabelTuple, int]:
        if self._basis_index is None:
            self.basis()
        return self._basis_index

    # -- per-label caches --------------------------------------------------

    def fibers_second(self, L: LabelTuple):
        """Map h -> (g with (g,h) in L), plus the projection p2(L)."""
        hit = self._fibers_second.get(L)
        if hit is None:
            d: Dict[int, List[int]] = {}
            hn = self.right.order
            for x in L:
                g, h = divmod(x, hn)
                d.setdefault(h, []).append(g)
            fib = {h: tuple(gs) for h, gs in d.items()}
            hit = (fib, tuple(sorted(fib)))
            self._fibers_second[L] = hit
        return hit

    def fibers_first(self, M: LabelTuple):
        """Map h -> (k with (h,k) in M), plus the projection p1(M)."""
        hit = self._fibers_first.get(M)
        if hit is None:
            d: Dict[int, List[int]] = {}
            kn = self.right.order
            for x in M:
                h, k = divmod(x, kn)
                d.setdefault(h, []).append(k)
            fib = {h: tuple(ks) for h, ks in d.items()}
            hit = (fib, tuple(sorted(fib)))
            self._fibers_first[M] = hit
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
class BisetLabel:
    """Conjugacy class of a subgroup of left x right, canonically represented."""

    left: FiniteGroup
    right: FiniteGroup
    elements: LabelTuple

    def __str__(self) -> str:
        return f"[({self.left.name}x{self.right.name})/{list(self.elements)}]"


@dataclass(frozen=True)
class ProductInvariants:
    p1: Subgroup
    p2: Subgroup
    k1: Subgroup
    k2: Subgroup
    q: FiniteGroup


def make_label(left: FiniteGroup, right: FiniteGroup,
               elements: Iterable[int]) -> BisetLabel:
    """Canonicalize and validate a subgroup of the product into a label."""
    sp = space(left, right)
    sub = Subgroup(sp.product, elements)  # validates closure
    return BisetLabel(left, right, sp.canonical(sub.elements))


def identity_label(G: FiniteGroup) -> BisetLabel:
    sp = space(G, G)
    diag = [sp.encode(g, g) for g in range(G.order)]
    return BisetLabel(G, G, sp.canonical(diag))


def _goursat(label: BisetLabel) -> Tuple[LabelTuple, LabelTuple,
                                          LabelTuple, LabelTuple]:
    """(p1, k1, p2, k2): the two projections of the label and the two
    kernels, with p1/k1 isomorphic to p2/k2 (Goursat's lemma)."""
    hn = label.right.order
    p1 = tuple(sorted({x // hn for x in label.elements}))
    p2 = tuple(sorted({x % hn for x in label.elements}))
    k1 = tuple(sorted(x // hn for x in label.elements if x % hn == 0))
    k2 = tuple(sorted(x % hn for x in label.elements if x < hn))
    if len(p1) * len(k2) != len(p2) * len(k1):
        raise AssertionError("projection/kernel index mismatch")
    return p1, k1, p2, k2


def product_invariants(label: BisetLabel) -> ProductInvariants:
    G, H = label.left, label.right
    p1, k1, p2, k2 = _goursat(label)
    q, _ = section_quotient(G, p1, k1)
    return ProductInvariants(Subgroup(G, p1, validate=False),
                             Subgroup(H, p2, validate=False),
                             Subgroup(G, k1, validate=False),
                             Subgroup(H, k2, validate=False), q)


def is_left_free(label: BisetLabel) -> bool:
    hn = label.right.order
    return all(x % hn != 0 or x == 0 for x in label.elements)


@dataclass
class BisetElement:
    """Finite k-linear combination of labels sharing (left, right)."""

    left: FiniteGroup
    right: FiniteGroup
    field: FieldSpec
    coeffs: Dict[LabelTuple, object] = dc_field(default_factory=dict)

    def __post_init__(self):
        f = Field(self.field)
        self.coeffs = {t: c for t, c in self.coeffs.items() if not f.is_zero(c)}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BisetElement):
            return NotImplemented
        return (self.left == other.left and self.right == other.right
                and self.field == other.field and self.coeffs == other.coeffs)

    def __add__(self, other: "BisetElement") -> "BisetElement":
        if (self.left, self.right, self.field) != (other.left, other.right, other.field):
            raise PreconditionError("cannot add elements of different spaces")
        f = Field(self.field)
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = f.add(out.get(t, f.zero), c)
        return BisetElement(self.left, self.right, self.field, out)

    def scale(self, c) -> "BisetElement":
        f = Field(self.field)
        return BisetElement(self.left, self.right, self.field,
                            {t: f.mul(c, v) for t, v in self.coeffs.items()})

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"{Field(self.field).to_str(c)}*[{list(t)}]"
                 for t, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


def element_from_label(label: BisetLabel, field: FieldSpec) -> BisetElement:
    f = Field(field)
    return BisetElement(label.left, label.right, field, {label.elements: f.one})


def identity_element(G: FiniteGroup, field: FieldSpec) -> BisetElement:
    return element_from_label(identity_label(G), field)


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
    fib_l, p2l = sp_gh.fibers_second(L)
    fib_m, p1m = sp_hk.fibers_first(M)
    if H.is_abelian():
        meet = sum(1 for m in p1m if m in fib_l)
        return {sp_gk.canonical(_star(H, fib_l, fib_m, kn)):
                H.order * meet // (len(p2l) * len(p1m))}
    out: Dict[LabelTuple, int] = {}
    for h in _double_cosets(H, p2l, p1m):
        t = sp_gk.canonical(_star(H, fib_l, fib_m, kn, h))
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
    return [index[sp_op.canonical([(x % hn) * gn + x // hn for x in L])]
            for L in sp.basis()]


def mackey_compose(L: BisetLabel, M: BisetLabel) -> BisetElement:
    """Composite of two transitive labels as an integer element over (G, K)."""
    if L.right != M.left:
        raise PreconditionError("middle groups do not match")
    sp_gh = space(L.left, L.right)
    sp_hk = space(M.left, M.right)
    sp_gk = space(L.left, M.right)
    raw = mackey_tuples(sp_gh, sp_hk, sp_gk, L.elements, M.elements)
    return BisetElement(L.left, M.right, RATIONALS,
                        {t: Fraction(n) for t, n in raw.items()})


def compose(x: BisetElement, y: BisetElement) -> BisetElement:
    """Bilinear extension of the transitive composition."""
    if x.right != y.left:
        raise PreconditionError("middle groups do not match")
    if x.field != y.field:
        raise PreconditionError("elements live over different fields")
    f = Field(x.field)
    sp_gh = space(x.left, x.right)
    sp_hk = space(y.left, y.right)
    sp_gk = space(x.left, y.right)
    out: Dict[LabelTuple, object] = {}
    for lx, cx in x.coeffs.items():
        for ly, cy in y.coeffs.items():
            cxy = f.mul(cx, cy)
            if f.is_zero(cxy):
                continue
            for t, n in mackey_tuples(sp_gh, sp_hk, sp_gk, lx, ly).items():
                out[t] = f.add(out.get(t, f.zero), f.mul(cxy, f.from_int(n)))
    return BisetElement(x.left, y.right, x.field, out)


def star(L: BisetLabel, M: BisetLabel) -> Subgroup:
    """The composition subgroup {(g,k) : exists h, (g,h) in L, (h,k) in M}."""
    if L.right != M.left:
        raise PreconditionError("middle groups do not match")
    sp_gh = space(L.left, L.right)
    sp_hk = space(M.left, M.right)
    sp_gk = space(L.left, M.right)
    fib_l, _ = sp_gh.fibers_second(L.elements)
    fib_m, _ = sp_hk.fibers_first(M.elements)
    elems = _star(L.right, fib_l, fib_m, M.right.order)
    return Subgroup(sp_gk.product, elems)  # validates closure


def canonical_basis(G: FiniteGroup, H: FiniteGroup,
                    budget: Optional[Budget] = None) -> List[BisetLabel]:
    """One label per conjugacy class of subgroups of G x H, in fixed order."""
    sp = space(G, H)
    return [BisetLabel(G, H, t) for t in sp.basis(budget)]


# ---------------------------------------------------------------------------
# Elementary bisets and the butterfly factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementaryBiset:
    kind: str  # Ind | Res | Inf | Def | Iso
    label: BisetLabel


def _elementary(kind: str, left: FiniteGroup, right: FiniteGroup,
                pairs: Iterable[Tuple[int, int]]) -> ElementaryBiset:
    """The biset of ``kind`` labelled by the subgroup {(a, b)} of left x right."""
    sp = space(left, right)
    elems = [sp.encode(a, b) for a, b in pairs]
    return ElementaryBiset(kind, BisetLabel(left, right, sp.canonical(elems)))


def elementary_ind(G: FiniteGroup, sub: Subgroup) -> ElementaryBiset:
    """Ind from a subgroup: the (G, sub)-biset G with both actions by product."""
    P, pos = section_quotient(G, sub.elements, (0,))
    return _elementary("Ind", G, P, ((g, pos[g]) for g in sub.elements))


def elementary_res(G: FiniteGroup, sub: Subgroup) -> ElementaryBiset:
    P, pos = section_quotient(G, sub.elements, (0,))
    return _elementary("Res", P, G, ((pos[g], g) for g in sub.elements))


def elementary_inf(G: FiniteGroup, normal: Subgroup) -> ElementaryBiset:
    Q, proj = quotient_group(G, normal)
    return _elementary("Inf", G, Q, ((g, proj[g]) for g in range(G.order)))


def elementary_def(G: FiniteGroup, normal: Subgroup) -> ElementaryBiset:
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


def butterfly_factorize(label: BisetLabel) -> List[ElementaryBiset]:
    """Ind o Inf o Iso o Def o Res factorization of a transitive label.

    The label is the subgroup of G x H over the isomorphism P2/K2 -> P1/K1
    of its Goursat data; each of P1, P2, P1/K1 and P2/K2 is built once.
    Composing the five factors reproduces exactly 1 * label.
    """
    G, H = label.left, label.right
    p1, k1, p2, k2 = _goursat(label)
    P1, pos1 = section_quotient(G, p1, (0,))
    Q1, proj1 = section_quotient(G, p1, k1)
    P2, pos2 = section_quotient(H, p2, (0,))
    Q2, proj2 = section_quotient(H, p2, k2)
    fib, _ = space(G, H).fibers_second(label.elements)
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


def compose_factors(factors: Sequence[ElementaryBiset],
                    field: FieldSpec = RATIONALS) -> BisetElement:
    out = element_from_label(factors[0].label, field)
    for f in factors[1:]:
        out = compose(out, element_from_label(f.label, field))
    return out


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


def realize_and_compose_oracle(U: BisetLabel, V: BisetLabel,
                               budget: Optional[Budget] = None) -> BisetElement:
    """Ground-truth composite: orbit count on the explicit coset sets.

    Builds U x V, quotients by the diagonal middle action, and decomposes
    the result by point stabilizers in left x right.  Quadratic in biset
    sizes; wired to tests, not to decision procedures.
    """
    if U.right != V.left:
        raise PreconditionError("middle groups do not match")
    b = budget or NO_BUDGET
    G, H, K = U.left, U.right, V.right
    sp_gh = space(G, H)
    sp_hk = space(H, K)
    sp_gk = space(G, K)
    RU = sp_gh.realization(U.elements)
    RV = sp_hk.realization(V.elements)
    nu, nv = len(RU.reps), len(RV.reps)
    hinv = H.inv
    # H-orbits of pairs under h.(u, v) = (u h^-1, h v)
    orbit = [-1] * (nu * nv)
    n_orbits = 0
    orbit_rep: List[int] = []
    for start in range(nu * nv):
        if orbit[start] >= 0:
            continue
        b.check("oracle orbit enumeration", n_orbits)
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
    f = Field(RATIONALS)
    seen = [False] * n_orbits
    coeffs: Dict[LabelTuple, object] = {}
    for o in range(n_orbits):
        if seen[o]:
            continue
        b.check("oracle transitive decomposition", o)
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
        t = sp_gk.canonical(stab)
        coeffs[t] = f.add(coeffs.get(t, f.zero), f.one)
    return BisetElement(G, K, RATIONALS, coeffs)


def trace_of_label(L: BisetLabel) -> int:
    """Number of orbits of the diagonal on the cosets (G x G)/L.

    The orbit of the coset xL under the diagonal D is the double coset DxL,
    so the trace is the number of double cosets D\\(G x G)/L.
    """
    if L.left != L.right:
        raise PreconditionError("trace needs a square label")
    sp = space(L.left, L.right)
    diag = [sp.encode(g, g) for g in range(L.left.order)]
    return len(double_coset_reps(diag, sp.product, L.elements))


def trace_map(x: BisetElement) -> object:
    """Linear extension of the diagonal orbit count, in the element's field."""
    if x.left != x.right:
        raise PreconditionError("trace needs a square element")
    f = Field(x.field)
    total = f.zero
    for t, c in x.coeffs.items():
        n = trace_of_label(BisetLabel(x.left, x.right, t))
        total = f.add(total, f.mul(c, f.from_int(n)))
    return total
