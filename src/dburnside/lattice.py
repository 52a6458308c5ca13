"""Subgroup lattices, sections, double cosets, and isomorphism search.

A lattice is found by one of two routes, chosen by ``G.factors``; both
give the same sorted list.

A product G x H with ``factors`` set (``groups.direct_product`` sets them,
so text like ``S4xS4`` has them too; a product with a trivial factor has
the other factor's table and carries that factor's ``factors``) takes
Goursat's lemma: each subgroup is one section K1 <| P1 of G, one section
K2 <| P2 of H and one isomorphism P2/K2 -> P1/K1, read off the factors'
own lattices and the automorphisms of each quotient type the factors
share.  No closure is built and nothing is found twice.

Every other group takes cyclic extension over zuppos (Neubueser 1960): every
subgroup is generated by the cyclic subgroups of prime-power order it
contains, so starting from the trivial group it suffices to extend each
found subgroup H by one generator of each such zuppo, and only by one per
right coset Hx, since <H,x> = <H,hx>.  Each extension <H,x> is built by
Dimino's coset closure as a union of right cosets of H, and subgroups are
deduplicated by their element-flag bytes.

Results are deterministic and do not depend on the route: subgroups are
sorted by (order, element list), conjugacy classes of subgroups and of
sections (T, S) are orbits of ``SubgroupLattice.conjugation``, and each
class is represented by its lexicographically least member, which
``canonical`` returns for any subgroup.  So memo and cache files stay keyed
by the table hash alone.

Subgroups are sorted element tuples of the group and sections are pairs
(T, S) of them, in every result too; each subquotient T/S is built from
them by ``groups.section_quotient``.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, compress
from operator import getitem
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import cache, errors
from .errors import PreconditionError
from .groups import FiniteGroup, conjugacy_classes, section_quotient
from .numtheory import factorize, is_prime

ElementTuple = Tuple[int, ...]
SectionPair = Tuple[ElementTuple, ElementTuple]  # (T, S), S normal in T


def closure(G: FiniteGroup, gens: Sequence[int]) -> ElementTuple:
    """Subgroup generated by ``gens`` (positive words suffice: finite order)."""
    mul = G.mul
    seen = {0}
    gens = [g for g in gens if g]
    stack = [0]
    while stack:
        x = stack.pop()
        row = mul[x]
        for g in gens:
            y = row[g]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return tuple(sorted(seen))


class SubgroupLattice:
    """All subgroups of a group, with conjugacy classes and fast lookup.

    Without ``classes`` the conjugacy classes are the orbits of
    ``conjugation``.  The index maps each subgroup's own sorted element
    tuple to its position; it is built on first read, like ``conjugation``.
    """

    def __init__(self, group: FiniteGroup, subgroups: List[ElementTuple],
                 classes: Optional[List[List[int]]] = None):
        self.group = group
        self.subgroups = subgroups
        self.classes = (_orbits(len(subgroups), self.conjugation)
                        if classes is None else classes)
        self.rep_of = [0] * len(subgroups)
        for members in self.classes:
            for m in members:
                self.rep_of[m] = members[0]

    @cached_property
    def index(self) -> Dict[ElementTuple, int]:
        return {s: i for i, s in enumerate(self.subgroups)}

    @cached_property
    def conjugation(self) -> List[List[int]]:
        """Per g of a generating sequence, the index of g S_i g^-1 for each
        subgroup index i; none if the group is abelian.  Orbits under a
        generating set are the full conjugation orbits."""
        G, index = self.group, self.index
        images = ([G.conj(g, x) for x in range(G.order)]
                  for g in ([] if G.is_abelian() else generating_sequence(G)))
        return [[index[tuple(sorted(map(c.__getitem__, s)))]
                 for s in self.subgroups] for c in images]

    def class_reps(self) -> List[ElementTuple]:
        return [self.subgroups[c[0]] for c in self.classes]


def _orbits(n: int, perms: Sequence[Sequence[int]]) -> List[List[int]]:
    """The orbits of 0..n-1 under ``perms``, each sorted, in the order of
    their least members."""
    seen = bytearray(n)
    orbits: List[List[int]] = []
    for i in range(n):
        if seen[i]:
            continue
        seen[i] = 1
        orbit = [i]
        for m in orbit:
            for p in perms:
                j = p[m]
                if not seen[j]:
                    seen[j] = 1
                    orbit.append(j)
        orbit.sort()
        orbits.append(orbit)
    return orbits


def _zuppo_generators(G: FiniteGroup) -> List[int]:
    """The least generator of each cyclic subgroup of prime-power order."""
    mul = G.mul
    orders = G.element_orders()
    seen = bytearray(G.order)
    gens: List[int] = []
    for x in range(1, G.order):
        if seen[x]:
            continue
        n = orders[x]
        primes = factorize(n)
        if len(primes) != 1:
            continue
        gens.append(x)
        # the generators of <x> are its powers coprime to n = p^a
        p = primes[0][0]
        y = x
        for k in range(1, n):
            if k % p:
                seen[y] = 1
            y = mul[y][x]
    return gens


def _enumerate_subgroups(G: FiniteGroup) -> List[ElementTuple]:
    mul = G.mul
    order = G.order
    zuppos = _zuppo_generators(G)
    triv = bytearray(order)
    triv[0] = 1
    found: Dict[bytes, ElementTuple] = {bytes(triv): (0,)}
    queue: List[Tuple[ElementTuple, bytearray, Tuple[int, ...]]] = [
        ((0,), triv, ())]
    while queue:
        elems, flags, gens = queue.pop()
        errors.budget.check("subgroup enumeration")
        if len(elems) == order:
            continue
        rows = [mul[h] for h in elems]
        # <H,x> = <H,hx>: extend by one zuppo generator per right coset Hx
        covered = bytearray(flags)
        for x in zuppos:
            if covered[x]:
                continue
            for row in rows:
                covered[row[x]] = 1
            new_gens = gens + (x,)
            # Dimino: <H,x> is the union of right cosets H*r, closed under
            # right multiplication of each coset representative by the gens
            new_flags = bytearray(flags)
            reps = [0]
            for r in reps:
                mr = mul[r]
                for s in new_gens:
                    y = mr[s]
                    if not new_flags[y]:
                        reps.append(y)
                        for row in rows:
                            new_flags[row[y]] = 1
            key = bytes(new_flags)
            if key not in found:
                new = tuple(compress(range(order), new_flags))
                found[key] = new
                queue.append((new, new_flags, new_gens))
    return sorted(found.values(), key=lambda t: (len(t), t))


def _goursat_subgroups(G: FiniteGroup, H: FiniteGroup) -> List[ElementTuple]:
    """The sorted subgroups of G x H (elements g*|H| + h) by Goursat's lemma.

    Every subgroup is {(g, h) : theta(hK2) = gK1} for exactly one section
    K1 <| P1 of G, one K2 <| P2 of H and one isomorphism theta: P2/K2 ->
    P1/K1.  Each quotient is matched to a representative R of its type by
    psi: R -> P/K, so the maps Q1 -> Q2 are psi2 . beta . psi1^-1 for beta
    in Aut(R), each giving one subgroup.  Walking g up P1 and h up its coset
    yields every subgroup's elements already sorted.  A shared type has
    order at most min(|G|, |H|), within the automorphism cap because
    ``direct_product`` caps |G x H|.
    """
    hn = H.order
    sections = []
    for X, Y in ((G, H), (H, G)):
        # a quotient of X pairs only with one of Y, whose order divides |Y|
        lat = get_lattice(X)
        sections.append([(lat.subgroups[t], lat.subgroups[s])
                         for t, s in _normal_pairs(X, lat, Y.order)])
    shared = ({len(t) // len(s) for t, s in sections[0]}
              & {len(t) // len(s) for t, s in sections[1]})
    types: List[FiniteGroup] = []
    # per factor and type: for G each P1 as its elements with psi1^-1 of
    # their cosets; for H each P2 of a type G has too as psi2 (an image
    # list) with the rows g*|H| + coset of every g in G, indexed by coset
    sides: List[Dict[int, list]] = [{}, {}]
    for i, X in enumerate((G, H)):
        for t, s in sections[i]:
            if len(t) // len(s) not in shared:
                continue
            Q, proj = section_quotient(X, t, s)
            for k, R in enumerate(types):
                psi = is_isomorphic(R, Q) if R.order == Q.order else None
                if psi is not None:
                    break
            else:
                k, psi = len(types), list(range(Q.order))
                types.append(Q)
            if i == 0:
                psi_inv = [0] * Q.order
                for r, c in enumerate(psi):
                    psi_inv[c] = r
                entry = (t, [psi_inv[proj[g]] for g in t])
            elif k not in sides[0]:
                continue  # a type of H's alone pairs with no section of G
            else:
                cosets: List[List[int]] = [[] for _ in range(Q.order)]
                for h in t:
                    cosets[proj[h]].append(h)
                entry = (psi, [[tuple(g * hn + h for h in c) for c in cosets]
                               for g in range(G.order)])
            sides[i].setdefault(k, []).append(entry)
    found: List[ElementTuple] = []
    for k in sorted(sides[1]):
        auts, _, _ = automorphisms(types[k])
        for psi, shifted in sides[1][k]:
            # gK1 = psi1(r) pairs with the coset psi2(beta(r)) of K2
            twisted = [[psi[b] for b in beta] for beta in auts]
            for p1, r_of in sides[0][k]:
                errors.budget.check("subgroup enumeration")
                rows = [shifted[g] for g in p1]
                for tw in twisted:
                    found.append(tuple(chain.from_iterable(
                        map(getitem, rows, map(tw.__getitem__, r_of)))))
    found.sort(key=lambda t: (len(t), t))
    return found


_LATTICE_MEMO: Dict[str, SubgroupLattice] = cache.memo_table()


def get_lattice(G: FiniteGroup) -> SubgroupLattice:
    """The lattice of G: from the memo, else the cache file, else enumerated
    (and then written to the cache file).

    When ``G.factors`` is set, the subgroups are found by Goursat's lemma
    from the factors' lattices.
    """
    lat = _LATTICE_MEMO.get(G.key)
    if lat is not None:
        return lat
    cache_dir = cache.cache_dir
    if cache_dir is not None:
        lat = cache.load_lattice(cache_dir, G)
    if lat is None:
        lat = SubgroupLattice(G, _goursat_subgroups(*G.factors) if G.factors
                              else _enumerate_subgroups(G))
        if cache_dir is not None:
            cache.save_lattice(cache_dir, lat)
    _LATTICE_MEMO[G.key] = lat
    return lat


def canonical(X: FiniteGroup, elements: Iterable[int]) -> ElementTuple:
    """The least member of the conjugacy class of the subgroup ``elements``
    of X, as a sorted element tuple.

    In an abelian X that is the subgroup itself.  When this run holds X's
    lattice it is read off the lattice; otherwise it is the least conjugate
    over every element of X, since building the lattice to canonicalize a
    few one-off subgroups costs more than the search.
    """
    if X.is_abelian():
        return tuple(sorted(elements))
    lat = _LATTICE_MEMO.get(X.key)
    if lat is not None:
        return lat.subgroups[lat.rep_of[lat.index[tuple(sorted(elements))]]]
    mul, inv = X.mul, X.inv
    elems = sorted(set(elements))
    best = tuple(elems)
    for t in range(1, X.order):
        ti = inv[t]
        cand = tuple(sorted(mul[mul[t][s]][ti] for s in elems))
        if cand < best:
            best = cand
    return best


def double_coset_reps(A: Iterable[int], G: FiniteGroup,
                      B: Iterable[int]) -> List[int]:
    """One representative per double coset AgB, in ascending element order."""
    mul = G.mul
    a_elems = list(A)
    b_elems = list(B)
    covered = bytearray(G.order)
    reps: List[int] = []
    for g in range(G.order):
        if covered[g]:
            continue
        reps.append(g)
        for a in a_elems:
            ag = mul[a][g]
            row = mul[ag]
            for b in b_elems:
                covered[row[b]] = 1
    return reps


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------

def _normal_pairs(G: FiniteGroup, lat: SubgroupLattice, divides: int = 0
                  ) -> List[Tuple[int, int]]:
    """All (T, S) subgroup index pairs with S normal in T, sorted; given
    ``divides``, only those whose |T/S| divides it."""
    pairs: List[Tuple[int, int]] = []
    sets = [frozenset(s) for s in lat.subgroups]
    by_order: Dict[int, List[int]] = {}  # ascending, as the lattice is
    for si, s in enumerate(lat.subgroups):
        by_order.setdefault(len(s), []).append(si)
    mul, inv = G.mul, G.inv
    abelian = G.is_abelian()
    for ti, t in enumerate(lat.subgroups):
        errors.budget.check("section enumeration")
        tset = sets[ti]
        for order, members in by_order.items():
            if len(t) % order or divides % (len(t) // order):
                continue
            for si in members:
                sset = sets[si]
                if sset <= tset and (abelian or all(
                        mul[mul[g][x]][inv[g]] in sset
                        for g in t for x in lat.subgroups[si])):
                    pairs.append((ti, si))
    return pairs


def section_classes(G: FiniteGroup, divides: int = 0
                    ) -> List[List[SectionPair]]:
    """Conjugacy classes of sections (T, S) under simultaneous conjugation:
    the orbits of the normal pairs under the ``conjugation`` permutations.
    Given ``divides``, only the classes whose |T/S| divides it, which are
    whole orbits, since conjugation keeps |T/S|."""
    lat = get_lattice(G)
    subs = lat.subgroups
    pairs = _normal_pairs(G, lat, divides)
    key = {pair: k for k, pair in enumerate(pairs)}
    perms = [[key[perm[t], perm[s]] for t, s in pairs]
             for perm in lat.conjugation]
    classes = [sorted((subs[pairs[k][0]], subs[pairs[k][1]]) for k in orbit)
               for orbit in _orbits(len(pairs), perms)]
    classes.sort(key=lambda c: c[0])
    return classes


def section_classes_with_quotient(G: FiniteGroup, P: FiniteGroup
                                  ) -> List[List[SectionPair]]:
    """The section classes of G whose subquotient T/S is isomorphic to P.

    When |P| does not divide |G| there are none, and no lattice is built.
    When |P| is prime, every group of that order is cyclic and isomorphic
    to P, so the order alone decides and no T/S is built."""
    if G.order % P.order:
        return []
    prime = is_prime(P.order)
    out = []
    for cls in section_classes(G, P.order):
        errors.budget.check("section classes")
        t, s = cls[0]
        if len(t) == P.order * len(s) and (prime or is_isomorphic(
                section_quotient(G, t, s)[0], P) is not None):
            out.append(cls)
    return out


# ---------------------------------------------------------------------------
# Isomorphism and automorphisms
# ---------------------------------------------------------------------------

def generating_sequence(G: FiniteGroup) -> List[int]:
    """Small generating list found greedily over ascending elements."""
    gens: List[int] = []
    span = {0}
    for x in range(1, G.order):
        if x not in span:
            gens.append(x)
            span = set(closure(G, gens))
            if len(span) == G.order:
                break
    return gens


def _element_invariants(G: FiniteGroup) -> List[Tuple[int, int]]:
    """The order and the centralizer order |C(x)| = |G| / |x^G| of each
    element x."""
    classes = conjugacy_classes(G).tolist()
    size = Counter(classes)
    return [(G.element_order(x), G.order // size[c])
            for x, c in enumerate(classes)]


def _close_with_images(G: FiniteGroup, H: FiniteGroup,
                       gens: Sequence[int], images: Sequence[int]
                       ) -> Optional[Dict[int, int]]:
    """The homomorphism <gens> -> H sending each gen to its image, or None.

    phi grows from the identity by right multiplication with the gens and
    is checked as it grows: phi(xg) = phi(x)phi(g) for every reached x and
    every gen g.  In a finite group every element of <gens> is a positive
    word in the gens, so induction on word length turns that check into
    phi(xy) = phi(x)phi(y) for all x, y: passing it makes phi a
    homomorphism, and no pairwise check is needed.
    """
    gmul, hmul = G.mul, H.mul
    pairs = list(zip(gens, images))
    phi: Dict[int, int] = {0: 0}
    stack = [0]
    while stack:
        x = stack.pop()
        xrow, fxrow = gmul[x], hmul[phi[x]]
        for g, img in pairs:
            y, fy = xrow[g], fxrow[img]
            if y in phi:
                if phi[y] != fy:
                    return None
            else:
                phi[y] = fy
                stack.append(y)
    return phi


def _iso_search(G: FiniteGroup, H: FiniteGroup, *, find_all: bool
                ) -> List[List[int]]:
    errors.budget.check("isomorphism search")
    gens = generating_sequence(G)
    inv_g = _element_invariants(G)
    inv_h = _element_invariants(H)
    candidates = [[y for y in range(H.order) if inv_h[y] == inv_g[g]]
                  for g in gens]
    if any(not c for c in candidates):
        return []
    results: List[List[int]] = []
    images: List[int] = []

    def extend(i: int, phi: Dict[int, int]) -> bool:
        # phi is an injective homomorphism on <gens[:i]>; the gens generate
        # G and |G| = |H|, so at full depth it is an isomorphism
        errors.budget.check("isomorphism search")
        if i == len(gens):
            results.append([phi[x] for x in range(G.order)])
            return not find_all
        for y in candidates[i]:
            images.append(y)
            nxt = _close_with_images(G, H, gens[:i + 1], images)
            if (nxt is not None and len(set(nxt.values())) == len(nxt)
                    and extend(i + 1, nxt)):
                return True
            images.pop()
        return False

    extend(0, {0: 0})
    return results


_ISO_MEMO: Dict[Tuple[str, str], Optional[List[int]]] = cache.memo_table()


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> Optional[List[int]]:
    """Explicit isomorphism G -> H as an image list, or None.

    A search cut short by the run's budget raises and is not memoized."""
    if G.order != H.order:
        return None
    if G.key == H.key:
        return list(range(G.order))
    memo_key = (G.key, H.key)
    if memo_key in _ISO_MEMO:
        return _ISO_MEMO[memo_key]
    result: Optional[List[int]] = None
    if (G.order_histogram() == H.order_histogram()
            and G.is_abelian() == H.is_abelian()):
        found = _iso_search(G, H, find_all=False)
        result = found[0] if found else None
    _ISO_MEMO[memo_key] = result
    return result


AUTOMORPHISM_ORDER_CAP = 64

_AUT_MEMO: Dict[str, Tuple[List[List[int]], int, int]] = cache.memo_table()


def automorphisms(G: FiniteGroup) -> Tuple[List[List[int]], int, int]:
    """All automorphisms, |Inn|, and |Out| = |Aut| / |Inn|.

    A search cut short by the run's budget raises and is not memoized."""
    if G.order > AUTOMORPHISM_ORDER_CAP:
        raise PreconditionError(
            f"automorphism search capped at order {AUTOMORPHISM_ORDER_CAP}, "
            f"group has {G.order}")
    hit = _AUT_MEMO.get(G.key)
    if hit is None:
        auts = _iso_search(G, G, find_all=True)
        inner = G.order // len(G.center())
        hit = _AUT_MEMO[G.key] = auts, inner, len(auts) // inner
    return hit


# the most image tuples of a generating sequence that the automorphism search
# may try for ``outer_automorphism_generators``: C2^3 has 343, S4xC2 1728,
# C3^3 17,576 and C2^4 50,625
AUTOMORPHISM_SEARCH_CAP = 10_000


def outer_automorphism_generators(G: FiniteGroup) -> List[List[int]]:
    """A few automorphisms (image lists) that generate Aut(G) together with
    the inner ones, none when Out(G) is trivial.

    None either when G is above the automorphism cap or when the search
    could try more than ``AUTOMORPHISM_SEARCH_CAP`` image tuples: symmetry
    is an optimization there, not worth a long search.  Each is chosen, in
    the order ``automorphisms`` lists them, when the ones before it do not
    generate it.
    """
    if G.order > AUTOMORPHISM_ORDER_CAP:
        return []
    seq = generating_sequence(G)
    invariants = _element_invariants(G)
    tries = 1
    for g in seq:
        tries *= invariants.count(invariants[g])
    if tries > AUTOMORPHISM_SEARCH_CAP:
        return []
    auts, _, n_out = automorphisms(G)
    if n_out == 1:
        return []
    inner = [[G.conj(g, x) for x in range(G.order)] for g in seq]
    out: List[List[int]] = []
    group = _generated(inner)
    for a in auts:
        if len(group) == len(auts):
            break
        if tuple(a) not in group:
            out.append(a)
            group = _generated(inner + out)
    return out


def _generated(perms: List[List[int]]) -> set:
    """The group of image tuples generated by ``perms`` (at least one)."""
    ident = tuple(range(len(perms[0])))
    found = {ident}
    stack = [ident]
    while stack:
        f = stack.pop()
        for p in perms:
            h = tuple([p[x] for x in f])
            if h not in found:
                found.add(h)
                stack.append(h)
    return found


# ---------------------------------------------------------------------------
# Subquotients and structural predicates
# ---------------------------------------------------------------------------

def subquotients_up_to_iso(G: FiniteGroup
                           ) -> List[Tuple[FiniteGroup, SectionPair]]:
    """One group per isomorphism type of subquotient, with a witness
    section (T, S)."""
    out: List[Tuple[FiniteGroup, SectionPair]] = []
    for cls in section_classes(G):
        q, _ = section_quotient(G, *cls[0])
        if not any(is_isomorphic(q, known) is not None for known, _ in out):
            out.append((q, cls[0]))
    out.sort(key=lambda pair: (pair[0].order, pair[0].order_histogram()))
    return out


def normal_subgroup_reps(G: FiniteGroup) -> List[ElementTuple]:
    """Normal subgroups of G (each is a singleton conjugacy class)."""
    lat = get_lattice(G)
    return [lat.subgroups[cls[0]] for cls in lat.classes if len(cls) == 1]


def find_quotient_isomorphic_to(G: FiniteGroup, H: FiniteGroup
                                ) -> Optional[List[int]]:
    """An epimorphism G -> H as the image of each element of G, or None.

    It is the projection onto G/N for the first normal subgroup N (in
    lattice order) whose quotient is isomorphic to H, followed by that
    isomorphism.
    """
    target = G.order // H.order if H.order and G.order % H.order == 0 else None
    if target is None:
        return None
    for n in normal_subgroup_reps(G):
        if len(n) != target:
            continue
        errors.budget.check("quotient search")
        Q, proj = section_quotient(G, range(G.order), n)
        phi = is_isomorphic(Q, H)
        if phi is not None:
            return [phi[proj[g]] for g in range(G.order)]
    return None


def sylow_elements(G: FiniteGroup, t: ElementTuple
                   ) -> List[Tuple[int, int, ElementTuple]]:
    """(q, k, the elements of t whose order divides q^k) for each prime
    power q^k exactly dividing |t|, read from the element orders of G.

    Every element of q-power order lies in a Sylow q-subgroup, and each
    Sylow q-subgroup holds q^k of them. So t is nilpotent exactly when every
    list has q^k elements, and each list is then the Sylow q-subgroup. A
    q-group t is returned as its own list, unscanned."""
    orders = G.element_orders()
    out = []
    for q, k in factorize(len(t)):
        qk = q ** k
        out.append((q, k, t if qk == len(t) else
                    tuple(x for x in t if qk % orders[x] == 0)))
    return out


def is_p_group_times_cyclic(G: FiniteGroup, t: ElementTuple, p: int) -> bool:
    """Structural test: t nilpotent with cyclic Sylow q for every q != p.

    Coprime cyclic factors merge into a single cyclic complement, so this
    is exactly "direct product of a p-group and a cyclic group".
    """
    orders = G.element_orders()
    return all(len(els) == q ** k
               and (q == p or any(orders[x] == q ** k for x in els))
               for q, k, els in sylow_elements(G, t))
