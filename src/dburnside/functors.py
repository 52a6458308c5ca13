"""Decision procedures over the double Burnside algebra.

The central relation: H is generated by G over k when the identity of
kB(H, H) lies in the span of all pairwise composites of basis labels
from kB(H, G) and kB(G, H).  Everything else here (non-vanishing
classification, dimension counts, semisimplicity checks, the module
structure of kB(G)) reduces to exact enumeration plus exact linear
algebra over that span.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bisets import (BisetElement, compose, identity_element, identity_label,
                     mackey_tuples, space)
from . import errors
from .errors import BudgetExceeded, PreconditionError
from .groups import (FiniteGroup, build_cyclic, build_extraspecial,
                     build_modular, conjugacy_classes, direct_product,
                     section_quotient)
from .lattice import (canonical, double_coset_reps,
                      find_quotient_isomorphic_to, get_lattice, is_isomorphic,
                      is_p_group_times_cyclic, section_classes_with_quotient,
                      subquotients_up_to_iso, sylow_elements)
from .linalg import FieldSpec, IncrementalSpan, matrix_rank
from .numtheory import euler_phi, partitions, prime_power
from .orbits import PairOrbits

LabelTuple = Tuple[int, ...]


# ---------------------------------------------------------------------------
# The generating relation
# ---------------------------------------------------------------------------

@dataclass
class CertificateTerm:
    u: LabelTuple      # label of kB(H, G)
    w: LabelTuple      # label of kB(G, H)
    coeff: object      # int or Fraction over Q, residue over F_p


@dataclass
class GeneratesReport:
    H: FiniteGroup
    G: FiniteGroup
    field: FieldSpec
    result: Optional[bool]       # None means inconclusive
    status: str                  # generated | not-generated | inconclusive
    via: str
    certificate: Optional[List[CertificateTerm]]
    products_tried: int
    rank_reached: int


def verify_certificate(H: FiniteGroup, G: FiniteGroup, fieldspec: FieldSpec,
                       terms: Sequence[CertificateTerm]) -> bool:
    """Recompose certificate terms and compare against the identity of H."""
    total = BisetElement(H, H, fieldspec, {})
    for t in terms:
        u = BisetElement(H, G, fieldspec, {t.u: 1})
        w = BisetElement(G, H, fieldspec, {t.w: 1})
        total = total + compose(u, w).scale(t.coeff)
    return total == identity_element(H, fieldspec)


def _quotient_certificate(H: FiniteGroup, G: FiniteGroup, fieldspec: FieldSpec
                          ) -> Optional[List[CertificateTerm]]:
    """One-term certificate through a quotient G/N isomorphic to H."""
    epi = find_quotient_isomorphic_to(G, H)
    if epi is None:
        return None
    sp_hg = space(H, G)
    sp_gh = space(G, H)
    u = canonical(sp_hg.product,
                  [sp_hg.encode(epi[g], g) for g in range(G.order)])
    w = canonical(sp_gh.product,
                  [sp_gh.encode(g, epi[g]) for g in range(G.order)])
    return [CertificateTerm(u, w, 1)]


def generates(H: FiniteGroup, G: FiniteGroup, fieldspec: FieldSpec, *,
              skip_subquotient_check: bool = False) -> GeneratesReport:
    """Decide whether the identity of kB(H,H) factors through G.

    Tries the free quotient certificate first, then decides membership of
    the identity in the span of all pairwise products of basis labels.
    A negative answer is only reported after the full product span has
    been exhausted; running out of the run's budget yields an inconclusive
    report.
    """
    if not skip_subquotient_check:
        try:
            found = bool(section_classes_with_quotient(G, H))
        except BudgetExceeded:
            return GeneratesReport(H, G, fieldspec, None, "inconclusive",
                                   "budget during subquotient enumeration",
                                   None, 0, 0)
        if not found:
            return GeneratesReport(H, G, fieldspec, False, "not-generated",
                                   "not a subquotient", None, 0, 0)

    try:
        cert = _quotient_certificate(H, G, fieldspec)
    except BudgetExceeded:
        # the span search stops at its first budget check and reports it
        cert = None
    if cert is not None:
        if not verify_certificate(H, G, fieldspec, cert):
            raise AssertionError("quotient certificate failed to recompose")
        return GeneratesReport(H, G, fieldspec, True, "generated", "quotient",
                               cert, 0, 0)

    return _generates_by_span(H, G, fieldspec)


def _generates_by_span(H: FiniteGroup, G: FiniteGroup, fieldspec: FieldSpec
                       ) -> GeneratesReport:
    """Insert every distinct product into one span; stop once it holds 1_H.

    Products are tried in a fixed low-complexity-first order.  Running out
    of budget mid-span reports the products tried and the rank reached so
    far; running out while the bases or the pair orbits are built reports
    none.
    """
    try:
        errors.budget.check("basis enumeration")  # each space builds a table
        sp_hg, sp_gh, sp_hh = space(H, G), space(G, H), space(H, H)
        basis_hg, basis_gh = sp_hg.basis(), sp_gh.basis()
        dim = len(sp_hh.basis())
        orbits = PairOrbits(sp_hg, sp_gh, sp_hh)
    except BudgetExceeded:
        return GeneratesReport(H, G, fieldspec, None, "inconclusive",
                               "budget during basis enumeration", None, 0, 0)
    id_items = [(sp_hh.basis_index()[identity_label(H)], 1)]
    # pair (iu, iw) is x = iu * n + iw, sorted by a cheap proxy for the
    # support size of its product, the coset count; ties keep (iu, iw) order
    n = len(basis_gh)
    n_pairs = len(basis_hg) * n
    # each coset count is at most DEFAULT_PRODUCT_CAP = 2^12, so every key
    # is below 2^24 and int32 holds it at half the bytes of int64
    cosets_hg = np.array([sp_hg.product.order // len(u) for u in basis_hg],
                         dtype=np.int32)
    cosets_gh = np.array([sp_gh.product.order // len(w) for w in basis_gh],
                         dtype=np.int32)
    order = np.argsort(np.multiply.outer(cosets_hg, cosets_gh).ravel(),
                       kind="stable").astype(np.int32)
    # a pair that differs from an earlier one by the middle Out(G) alone
    # has the same product, so only its class's first pair is looked at:
    # Out(G) keeps |u| and |w|, so a class shares one key, and the stable
    # sort puts first its least pair, the one equal to its class value
    positions = np.flatnonzero(orbits.classes(order) == order)
    order = order[positions]
    products = orbits.products(order)
    span = IncrementalSpan(dim, fieldspec)
    inserted: List[int] = []  # pair of each span row
    seen = set()
    # the budget is checked before pairs 0, 64, 128, ...: block b holds the
    # pairs looked at among pairs 64b to 64b + 63
    ends = np.searchsorted(positions, np.arange(64, n_pairs + 64, 64))
    lo = 0
    for block, hi in enumerate(ends.tolist()):
        try:
            errors.budget.check("product span")
            for i, x in enumerate(order[lo:hi].tolist(), lo):
                items = next(products)
                if items in seen:
                    continue
                seen.add(items)
                inserted.append(x)
                if span.add(items) and span.contains(id_items):
                    terms = [CertificateTerm(basis_hg[inserted[seq] // n],
                                             basis_gh[inserted[seq] % n], c)
                             for seq, c in span.certificate(id_items)]
                    if not verify_certificate(H, G, fieldspec, terms):
                        raise AssertionError(
                            "span certificate failed to recompose")
                    return GeneratesReport(H, G, fieldspec, True, "generated",
                                           "span", terms,
                                           int(positions[i]) + 1, span.rank)
        except BudgetExceeded:
            return GeneratesReport(H, G, fieldspec, None, "inconclusive",
                                   "budget during product span", None,
                                   64 * block, span.rank)
        lo = hi
    return GeneratesReport(H, G, fieldspec, False, "not-generated", "span",
                           None, n_pairs, span.rank)


# ---------------------------------------------------------------------------
# Non-vanishing classification
# ---------------------------------------------------------------------------

@dataclass
class SubquotientVerdict:
    group: FiniteGroup
    name: str
    witness_T: LabelTuple
    witness_S: LabelTuple
    status: str          # generated | not-generated | inconclusive | skipped
    via: str
    report: Optional[GeneratesReport] = None


@dataclass
class NvReport:
    G: FiniteGroup
    field: FieldSpec
    overall: Optional[bool]
    verdicts: List[SubquotientVerdict] = dc_field(default_factory=list)


def is_nv(G: FiniteGroup, fieldspec: FieldSpec, *,
          short_circuit: bool = True) -> NvReport:
    """Check that every subquotient of G is generated by G.

    Subquotients are processed largest first: quotients of G are free,
    and anything that is a quotient of an already-confirmed subquotient
    is confirmed by transitivity, which mirrors the cheapest known
    reduction order.  A step cut short by the run's budget makes that
    subquotient inconclusive; a name search cut short falls back to
    ``order<n>``.
    """
    from .catalog import recognize
    try:
        subqs = subquotients_up_to_iso(G)
    except BudgetExceeded:
        return NvReport(G, fieldspec, None, [])
    verdicts: List[SubquotientVerdict] = []
    confirmed: List[Tuple[FiniteGroup, str]] = []  # (group, name)
    failed = False
    inconclusive = False
    for Q, (wit_t, wit_s) in reversed(subqs):
        try:
            name = recognize(Q) or f"order{Q.order}"
        except BudgetExceeded:
            name = f"order{Q.order}"
        if failed and short_circuit:
            verdicts.append(SubquotientVerdict(Q, name, wit_t, wit_s,
                                               "skipped", "short-circuit"))
            continue
        try:
            bname = None
            if find_quotient_isomorphic_to(G, Q) is None:
                bname = next((n for B, n in confirmed if
                              find_quotient_isomorphic_to(B, Q) is not None),
                             None)
        except BudgetExceeded:
            verdicts.append(SubquotientVerdict(
                Q, name, wit_t, wit_s, "inconclusive",
                "budget during transitivity check"))
            inconclusive = True
            continue
        if bname is not None:
            verdicts.append(SubquotientVerdict(
                Q, name, wit_t, wit_s, "generated", f"transitivity({bname})"))
            confirmed.append((Q, name))
            continue
        rep = generates(Q, G, fieldspec, skip_subquotient_check=True)
        verdicts.append(SubquotientVerdict(Q, name, wit_t, wit_s,
                                           rep.status, rep.via, rep))
        if rep.result is True:
            confirmed.append((Q, name))
        elif rep.result is False:
            failed = True
        else:
            inconclusive = True
    verdicts.reverse()
    overall: Optional[bool]
    if failed:
        overall = False
    elif inconclusive:
        overall = None
    else:
        overall = True
    return NvReport(G, fieldspec, overall, verdicts)


# ---------------------------------------------------------------------------
# Dimension counts and structural predicates
# ---------------------------------------------------------------------------

def simple_dim_with_raw(P: FiniteGroup, G: FiniteGroup) -> Tuple[int, int]:
    """(dimension, raw section-class count) for the quotient type P.

    Valid in characteristic zero.  Counts conjugacy classes of sections
    (T, S) with T/S isomorphic to P; the dimension keeps only those whose
    T is a direct product of a p-group and a cyclic group.
    """
    pp = prime_power(P.order)
    if pp is None:
        raise PreconditionError("dimension count needs a nontrivial p-group")
    p, k = pp
    if k == 2 and not P.is_cyclic():
        raise PreconditionError(
            "the rank-two elementary abelian case is excluded by the "
            "dimension theorem hypothesis")
    classes = section_classes_with_quotient(G, P)
    dim = 0
    for cls in classes:
        errors.budget.check("section classes")
        dim += is_p_group_times_cyclic(G, cls[0][0], p)
    return dim, len(classes)


@dataclass
class SsdReport:
    G: FiniteGroup
    result: bool
    failing_subgroup: Optional[LabelTuple]
    nilpotent: bool
    classification: bool
    agree: bool


def is_s_self_dual(G: FiniteGroup) -> SsdReport:
    """Direct check that every subgroup is isomorphic to a quotient.

    Alongside, evaluates the structural classification (nilpotent with
    every Sylow abelian, or of one of the two extra families) and reports
    agreement.
    """
    lat = get_lattice(G)
    result = True
    failing: Optional[LabelTuple] = None
    for cls in lat.classes:
        rep = lat.subgroups[cls[0]]
        sub_g, _ = section_quotient(G, rep, (0,))
        if find_quotient_isomorphic_to(G, sub_g) is None:
            result = False
            failing = rep
            break
    sylows = sylow_elements(G, tuple(range(G.order)))
    nilp = all(len(els) == p ** m for p, m, els in sylows)
    classification = nilp and _sylows_in_ssd_families(G, sylows)
    return SsdReport(G, result, failing, nilp, classification,
                     classification == result)


def _sylows_in_ssd_families(G: FiniteGroup,
                            sylows: List[Tuple[int, int, LabelTuple]]
                            ) -> bool:
    for p, m, syl in sylows:
        P, _ = section_quotient(G, syl, (0,))
        if P.is_abelian():
            continue
        ok = False
        if p != 2 and m >= 3:
            cand = build_extraspecial(p)
            for _ in range(m - 3):
                cand = direct_product(cand, build_cyclic(p))
            ok = is_isomorphic(P, cand) is not None
        if not ok:
            for nn in range(2, m // 2 + 1):
                rest = m - 2 * nn
                for parts in partitions(rest, nn - 1):
                    cand = build_modular(p, nn)
                    for a in parts:
                        cand = direct_product(cand, build_cyclic(p ** a))
                    if is_isomorphic(P, cand) is not None:
                        ok = True
                        break
                if ok:
                    break
        if not ok:
            return False
    return True


def is_semisimple(G: FiniteGroup, fieldspec: FieldSpec) -> bool:
    """Closed form: G cyclic and the characteristic does not divide phi(|G|)."""
    if not G.is_cyclic():
        return False
    p = fieldspec.characteristic
    return p == 0 or euler_phi(G.order) % p != 0


# ---------------------------------------------------------------------------
# Trace forms and the regular radical
#
# The diagonal-orbit form tr(u_i∘u_j) comes from class counts of G×G and
# reads no product.  The regular form weighs each product by the traces of
# left multiplication, which are structure constants, so it reads every
# product u_i∘u_j through the orbits of pairs.
# ---------------------------------------------------------------------------

def _square(G: FiniteGroup) -> PairOrbits:
    """The pairs of basis labels of kB(G, G) under Out(G)³ and the
    opposite: ``table()`` gives every product u_i∘u_j a row at a time from
    the orbit table, one Mackey product per orbit, kept across passes; no
    composition table is kept.  Only the regular trace form reads it: its
    weights are structure constants, which no class count gives."""
    sp = space(G, G)
    return PairOrbits(sp, sp, sp)


def _gram(square: PairOrbits, weight: Sequence[int]) -> List[List[int]]:
    """A trace form ``[[Σ_k [u_i∘u_j]_k · weight[k] for j] for i]`` over
    the basis u of kB(G, G), read off the products."""
    w = np.array(weight, dtype=np.int64)
    return [(C * w[K]).sum(axis=1).tolist() for K, C in square.table()]


def radical_dim_char0(G: FiniteGroup) -> int:
    """Nullity of the regular trace form of the label algebra over Q.

    Zero exactly when the algebra is semisimple in characteristic zero.
    Two passes over the products: the trace of left multiplication by each
    label (the sum of the diagonal entries [u_i∘u_j]_j of its row), then
    the gram rows weighted by them.
    """
    square = _square(G)
    lt = [int((C * (K == np.arange(len(K))[:, None])).sum())
          for K, C in square.table()]
    return len(lt) - matrix_rank(_gram(square, lt), FieldSpec(0))


def _trace_form(G: FiniteGroup, basis: Sequence[LabelTuple]) -> np.ndarray:
    """The diagonal-orbit trace form ``tr(u_i∘u_j)`` over the basis u of
    kB(G, G), from class counts alone, by Burnside's lemma on G×G.

    An element z of G×G fixes F_L(z) = |C(z)|·|z^(G×G) ∩ L| / |L| cosets
    of (G×G)/L.  The diagonal orbits on U ×_G W are the orbits of G×G on
    U × W, (g, h) acting as (u, w) ↦ (g·u·h⁻¹, h·w·g⁻¹), so
    tr(L∘M) = |G|⁻² Σ_(g,h) F_L(g, h)·F_M(h, g).  Grouped by the classes
    c = (class of g, class of h) of G×G, with A[i, c] = |c ∩ u_i| and σ
    swapping the two classes of c, that is
    (A · diag|C(c)| · A[:, σ]ᵀ)[i, j] / (|u_i|·|u_j|).
    """
    cls = conjugacy_classes(G)
    cent = G.order // np.bincount(cls)  # |C(g)| on each class of G
    k = len(cent)
    # the class of G×G of each packed element g·|G| + h is cls[g]·k + cls[h]
    pair = (cls[:, None] * k + cls).ravel()
    sizes = np.fromiter(map(len, basis), np.int64, len(basis))
    flat = np.fromiter(chain.from_iterable(basis), np.int64, int(sizes.sum()))
    A = np.bincount(np.repeat(np.arange(0, len(basis) * k * k, k * k), sizes)
                    + pair[flat], minlength=len(basis) * k * k
                    ).reshape(len(basis), k * k)
    swapped = A[:, np.arange(k * k).reshape(k, k).T.ravel()]
    A *= np.multiply.outer(cent, cent).ravel()
    # an entry Σ_c |C(c)|·|c ∩ u_i|·|σc ∩ u_j| is at most |G|²·|u_i|·|u_j|
    # ≤ |G|⁶ ≤ 2^36 (the product cap keeps |G| ≤ 64), so int64 is exact
    gram = A @ swapped.T
    del A, swapped
    # quotients in place of the entries, remainders in place of |u_i|·|u_j|
    rem = np.multiply.outer(sizes, sizes)
    np.divmod(gram, rem, out=(gram, rem))
    if rem.any():
        raise AssertionError("trace form not integral")
    return gram


def trace_gram_rank(G: FiniteGroup, fieldspec: FieldSpec) -> Tuple[int, int]:
    """(rank, dimension) of the diagonal-orbit trace form on (G, G) labels."""
    basis = space(G, G).basis()
    errors.budget.check("trace form")
    return matrix_rank(_trace_form(G, basis), fieldspec), len(basis)


# ---------------------------------------------------------------------------
# The Burnside module kB(G)
# ---------------------------------------------------------------------------

@dataclass
class ModuleActionSet:
    group: FiniteGroup
    field: FieldSpec
    labels: List[LabelTuple]               # basis of the (G, G) algebra
    module_basis: List[LabelTuple]         # subgroup classes of G
    matrices: List[List[List[object]]]     # one square matrix per label


_TRIVIAL = build_cyclic(1)


def burnside_module_matrices(G: FiniteGroup, fieldspec: FieldSpec
                             ) -> ModuleActionSet:
    """Action of every (G, G) basis label on the coordinate space of kB(G).

    Computed through the identification of kB(G) with kB(G, 1): the
    composite of a label with a transitive G-set is again a sum of
    transitive G-sets.
    """
    red = fieldspec.reduce
    sp_gg = space(G, G)
    sp_g1 = space(G, _TRIVIAL)
    labels = sp_gg.basis()
    lat = get_lattice(G)
    module_basis = lat.class_reps()
    mod_index = {t: i for i, t in enumerate(module_basis)}
    d = len(module_basis)
    mats = []
    for lab in labels:
        errors.budget.check("Burnside module")
        mat = [[0] * d for _ in range(d)]
        for col, sub in enumerate(module_basis):
            raw = mackey_tuples(sp_gg, sp_g1, sp_g1, lab, sub)
            for t, c in raw.items():
                mat[mod_index[t]][col] = red(mat[mod_index[t]][col] + c)
        mats.append(mat)
    return ModuleActionSet(G, fieldspec, labels, module_basis, mats)


def burnside_module_matrices_abelian(G: FiniteGroup, fieldspec: FieldSpec
                                     ) -> ModuleActionSet:
    """Direct formula for abelian G: coefficient |p2(H)\\G/L| on G/(H.L),
    with H.L the image under H of L in the first coordinate."""
    if not G.is_abelian():
        raise PreconditionError("the closed-form action needs an abelian group")
    red = fieldspec.reduce
    sp_gg = space(G, G)
    labels = sp_gg.basis()
    lat = get_lattice(G)
    module_basis = lat.class_reps()
    mod_index = {t: i for i, t in enumerate(module_basis)}
    d = len(module_basis)
    mats = []
    for lab in labels:
        errors.budget.check("Burnside module")
        fib, p2 = sp_gg.fibers(lab, 1)
        mat = [[0] * d for _ in range(d)]
        for col, sub in enumerate(module_basis):
            sset = set(sub)
            coeff = len(double_coset_reps(p2, G, sub))
            bullet = tuple(sorted({g for h, gs in fib.items() if h in sset
                                   for g in gs}))
            row = mod_index[bullet]
            mat[row][col] = red(mat[row][col] + coeff)
        mats.append(mat)
    return ModuleActionSet(G, fieldspec, labels, module_basis, mats)


@dataclass
class SubmoduleReport:
    G: FiniteGroup
    field: FieldSpec
    module_dim: int
    sum_zero_dim: int              # dim of the augmentation-zero subspace
    sum_zero_invariant: bool
    codim2_dim: int                # additionally kills the free orbit coord
    codim2_invariant: bool


def check_submodules(G: FiniteGroup, fieldspec: FieldSpec) -> SubmoduleReport:
    """Invariance of the two distinguished subspaces of kB(G).

    For a cyclic p-group: the coefficient-sum-zero subspace (codimension
    one) and its intersection with the vanishing of the G/G coordinate
    (codimension two).  Invariance depends on the characteristic.
    """
    pp = prime_power(G.order)
    if pp is None or not G.is_cyclic():
        raise PreconditionError("submodule analysis needs a cyclic p-group")
    actions = burnside_module_matrices(G, fieldspec)
    red = fieldspec.reduce
    d = len(actions.module_basis)
    assert len(actions.module_basis[-1]) == G.order  # the free orbit G/G is last
    # the sum-zero subspace is spanned by the e_i - e_{d-1}; it is invariant
    # exactly when every column of every matrix has the same sum
    col_sums = [[sum(col) for col in zip(*mat)] for mat in actions.matrices]
    n_inv = all(red(s[i] - s[d - 1]) == 0
                for s in col_sums for i in range(d - 1))
    if d >= 3:
        # the e_i - e_{d-2} also keep the G/G coordinate zero: columns i and
        # d-2 need equal sums and equal entries in the last row
        np_inv = all(red(s[i] - s[d - 2]) == 0
                     and red(mat[d - 1][i] - mat[d - 1][d - 2]) == 0
                     for mat, s in zip(actions.matrices, col_sums)
                     for i in range(d - 2))
        np_dim = d - 2
    else:
        np_inv, np_dim = True, 0
    return SubmoduleReport(G, fieldspec, d, d - 1, n_inv, np_dim, np_inv)


# ---------------------------------------------------------------------------
# Essential quotient
# ---------------------------------------------------------------------------

def essential_quotient_dim(H: FiniteGroup) -> int:
    """Dimension of kB(H,H) modulo labels factoring through smaller groups.

    A label factors through a strictly smaller group exactly when its
    section size |p1|/|k1| is below |H|; the quotient is spanned by the
    remaining labels.
    """
    sp = space(H, H)
    basis = sp.basis()
    hn = H.order
    count = 0
    for t in basis:
        p1 = len({x // hn for x in t})
        k1 = sum(1 for x in t if x % hn == 0)
        if p1 == hn and k1 == 1:  # section size |p1|/|k1| equals |H|
            count += 1
    return count
