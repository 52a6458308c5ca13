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
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .bisets import (BisetElement, BisetLabel, compose, element_from_label,
                     identity_element, identity_label, mackey_tuples, space,
                     trace_of_label)
from .cache import memo_table
from .errors import Budget, BudgetExceeded, NO_BUDGET, PreconditionError
from .groups import FiniteGroup, Subgroup, build_cyclic, direct_product
from .lattice import (double_coset_reps, find_quotient_isomorphic_to,
                      get_lattice, is_isomorphic, is_nilpotent_section,
                      is_p_group_times_cyclic, section_classes,
                      subquotients_up_to_iso)
from .linalg import Field, FieldSpec, IncrementalSpan, matrix_rank
from .numtheory import factorize

LabelTuple = Tuple[int, ...]


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def _prime_power(n: int) -> Optional[Tuple[int, int]]:
    f = factorize(n)
    return f[0] if len(f) == 1 else None


# ---------------------------------------------------------------------------
# The generating relation
# ---------------------------------------------------------------------------

@dataclass
class CertificateTerm:
    u: LabelTuple      # label of kB(H, G)
    w: LabelTuple      # label of kB(G, H)
    coeff: object      # Fraction or residue


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
        u = element_from_label(BisetLabel(H, G, t.u), fieldspec)
        w = element_from_label(BisetLabel(G, H, t.w), fieldspec)
        total = total + compose(u, w).scale(t.coeff)
    return total == identity_element(H, fieldspec)


def _quotient_certificate(H: FiniteGroup, G: FiniteGroup,
                          fieldspec: FieldSpec) -> Optional[List[CertificateTerm]]:
    """One-term certificate through a quotient G/N isomorphic to H."""
    hit = find_quotient_isomorphic_to(G, H)
    if hit is None:
        return None
    n_elems, phi = hit
    from .groups import quotient_group
    _, proj = quotient_group(G, Subgroup(G, n_elems, validate=False))
    sp_hg = space(H, G)
    sp_gh = space(G, H)
    u = sp_hg.canonical([sp_hg.encode(phi[proj[g]], g) for g in range(G.order)])
    w = sp_gh.canonical([sp_gh.encode(g, phi[proj[g]]) for g in range(G.order)])
    one = Field(fieldspec).one
    return [CertificateTerm(u, w, one)]


_GENERATES_MEMO: Dict[Tuple[str, str, int], GeneratesReport] = memo_table()


def generates(H: FiniteGroup, G: FiniteGroup, fieldspec: FieldSpec,
              budget: Optional[Budget] = None, *,
              skip_subquotient_check: bool = False) -> GeneratesReport:
    """Decide whether the identity of kB(H,H) factors through G.

    Tries the free quotient certificate first, then decides membership of
    the identity in the span of all pairwise products of basis labels.
    A negative answer is only reported after the full product span has
    been exhausted; running out of budget yields an inconclusive report.
    Conclusive answers are memoized for the session.
    """
    memo_key = (H.key, G.key, fieldspec.characteristic)
    hit = _GENERATES_MEMO.get(memo_key)
    if hit is not None:
        return hit
    rep = _generates_uncached(H, G, fieldspec, budget,
                              skip_subquotient_check=skip_subquotient_check)
    if rep.result is not None:
        _GENERATES_MEMO[memo_key] = rep
    return rep


def _generates_uncached(H: FiniteGroup, G: FiniteGroup, fieldspec: FieldSpec,
                        budget: Optional[Budget] = None, *,
                        skip_subquotient_check: bool = False) -> GeneratesReport:
    b = budget or NO_BUDGET
    if not skip_subquotient_check:
        try:
            subqs = subquotients_up_to_iso(G, b)
        except BudgetExceeded:
            return GeneratesReport(H, G, fieldspec, None, "inconclusive",
                                   "budget during subquotient enumeration",
                                   None, 0, 0)
        if not any(is_isomorphic(H, Q) is not None for Q, _ in subqs):
            return GeneratesReport(H, G, fieldspec, False, "not-generated",
                                   "not a subquotient", None, 0, 0)

    cert = _quotient_certificate(H, G, fieldspec)
    if cert is not None:
        if not verify_certificate(H, G, fieldspec, cert):
            raise AssertionError("quotient certificate failed to recompose")
        return GeneratesReport(H, G, fieldspec, True, "generated", "quotient",
                               cert, 0, 0)

    return _generates_by_span(H, G, fieldspec, b)


class _ProductStream:
    """Products of basis-label pairs in a fixed low-complexity-first order."""

    def __init__(self, H: FiniteGroup, G: FiniteGroup, b: Budget):
        self.sp_hg = space(H, G)
        self.sp_gh = space(G, H)
        self.sp_hh = space(H, H)
        self.basis_hg = self.sp_hg.basis(b)
        self.basis_gh = self.sp_gh.basis(b)
        self.basis_hh = self.sp_hh.basis(b)
        self.index_hh = self.sp_hh.basis_index()
        self.dim = len(self.basis_hh)
        self.id_items = [(self.index_hh[identity_label(H).elements], 1)]
        hg_order = self.sp_hg.product.order
        gh_order = self.sp_gh.product.order
        # cheap proxy for the support size of each product: coset count
        self.pairs = sorted(
            ((hg_order // len(u)) * (gh_order // len(w)), iu, iw)
            for iu, u in enumerate(self.basis_hg)
            for iw, w in enumerate(self.basis_gh))

    def product_items(self, iu: int, iw: int) -> List[Tuple[int, int]]:
        raw = mackey_tuples(self.sp_hg, self.sp_gh, self.sp_hh,
                            self.basis_hg[iu], self.basis_gh[iw])
        return sorted((self.index_hh[t], n) for t, n in raw.items())

    def term(self, iu: int, iw: int, coeff) -> CertificateTerm:
        return CertificateTerm(self.basis_hg[iu], self.basis_gh[iw], coeff)


def _generates_by_span(H: FiniteGroup, G: FiniteGroup, fieldspec: FieldSpec,
                       b: Budget) -> GeneratesReport:
    """Insert every distinct product into one span; stop once it holds 1_H.

    Running out of budget mid-span reports the products tried and the rank
    reached so far; running out while the bases are enumerated reports none.
    """
    try:
        stream = _ProductStream(H, G, b)
    except BudgetExceeded:
        return GeneratesReport(H, G, fieldspec, None, "inconclusive",
                               "budget during basis enumeration", None, 0, 0)
    span = IncrementalSpan(stream.dim, fieldspec)
    inserted: List[Tuple[int, int]] = []
    seen = set()
    tried = 0
    for _, iu, iw in stream.pairs:
        if tried % 64 == 0:
            try:
                b.check("product span", tried)
            except BudgetExceeded:
                return GeneratesReport(H, G, fieldspec, None, "inconclusive",
                                       "budget during product span", None,
                                       tried, span.rank)
        items = stream.product_items(iu, iw)
        tried += 1
        key = tuple(items)
        if key in seen:
            continue
        seen.add(key)
        inserted.append((iu, iw))
        if span.add(items) and span.contains(stream.id_items):
            terms = [stream.term(*inserted[seq], c)
                     for seq, c in span.certificate(stream.id_items)]
            if not verify_certificate(H, G, fieldspec, terms):
                raise AssertionError("span certificate failed to recompose")
            return GeneratesReport(H, G, fieldspec, True, "generated", "span",
                                   terms, tried, span.rank)
    return GeneratesReport(H, G, fieldspec, False, "not-generated", "span",
                           None, tried, span.rank)


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


def is_nv(G: FiniteGroup, fieldspec: FieldSpec,
          budget: Optional[Budget] = None, *,
          short_circuit: bool = True) -> NvReport:
    """Check that every subquotient of G is generated by G.

    Subquotients are processed largest first: quotients of G are free,
    and anything that is a quotient of an already-confirmed subquotient
    is confirmed by transitivity, which mirrors the cheapest known
    reduction order.
    """
    from .catalog import recognize
    b = budget or NO_BUDGET
    try:
        subqs = subquotients_up_to_iso(G, b)
    except BudgetExceeded:
        return NvReport(G, fieldspec, None, [])
    verdicts: List[SubquotientVerdict] = []
    confirmed: List[FiniteGroup] = []
    failed = False
    inconclusive = False
    for Q, sec in reversed(subqs):
        name = recognize(Q) or f"order{Q.order}"
        wit_t, wit_s = sec.T.elements, sec.S.elements
        if failed and short_circuit:
            verdicts.append(SubquotientVerdict(Q, name, wit_t, wit_s,
                                               "skipped", "short-circuit"))
            continue
        if find_quotient_isomorphic_to(G, Q) is not None:
            rep = generates(Q, G, fieldspec, b, skip_subquotient_check=True)
            verdicts.append(SubquotientVerdict(Q, name, wit_t, wit_s,
                                               rep.status, "quotient", rep))
            confirmed.append(Q)
            continue
        via_b = next((B for B in confirmed
                      if find_quotient_isomorphic_to(B, Q) is not None), None)
        if via_b is not None:
            bname = recognize(via_b) or f"order{via_b.order}"
            verdicts.append(SubquotientVerdict(
                Q, name, wit_t, wit_s, "generated",
                f"transitivity({bname})"))
            confirmed.append(Q)
            continue
        rep = generates(Q, G, fieldspec, b, skip_subquotient_check=True)
        verdicts.append(SubquotientVerdict(Q, name, wit_t, wit_s,
                                           rep.status, rep.via, rep))
        if rep.result is True:
            confirmed.append(Q)
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

def simple_dim_with_raw(P: FiniteGroup, G: FiniteGroup,
                        budget: Optional[Budget] = None) -> Tuple[int, int]:
    """(dimension, raw section-class count) for the quotient type P.

    Valid in characteristic zero.  Counts conjugacy classes of sections
    (T, S) with T/S isomorphic to P; the dimension keeps only those whose
    T is a direct product of a p-group and a cyclic group.
    """
    pp = _prime_power(P.order)
    if pp is None:
        raise PreconditionError("dimension count needs a nontrivial p-group")
    p, k = pp
    if k == 2 and not P.is_cyclic():
        raise PreconditionError(
            "the rank-two elementary abelian case is excluded by the "
            "dimension theorem hypothesis")
    raw = 0
    dim = 0
    for cls in section_classes(G, budget):
        t, s = cls[0]
        if len(t) != P.order * len(s):
            continue
        from .lattice import make_section
        Q = make_section(G, t, s).quotient()
        if is_isomorphic(Q, P) is None:
            continue
        raw += 1
        if is_p_group_times_cyclic(G, t, p):
            dim += 1
    return dim, raw


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
        sub_g, _ = Subgroup(G, rep, validate=False).as_group()
        if find_quotient_isomorphic_to(G, sub_g) is None:
            result = False
            failing = rep
            break
    full = tuple(range(G.order))
    nilp = is_nilpotent_section(G, full)
    classification = nilp and _sylows_in_ssd_families(G)
    return SsdReport(G, result, failing, nilp, classification,
                     classification == result)


def _abelian_partitions(total: int, max_part: int) -> List[List[int]]:
    """Partitions of ``total`` with parts at most ``max_part``."""
    if total == 0:
        return [[]]
    out = []
    for first in range(min(total, max_part), 0, -1):
        for rest in _abelian_partitions(total - first, first):
            out.append([first] + rest)
    return out


def _sylows_in_ssd_families(G: FiniteGroup) -> bool:
    from .groups import build_extraspecial, build_modular
    from .lattice import sylow_subgroup
    full = tuple(range(G.order))
    for p, m in factorize(G.order):
        syl = sylow_subgroup(G, full, p)
        P, _ = Subgroup(G, syl, validate=False).as_group()
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
                for parts in _abelian_partitions(rest, nn - 1):
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
# ---------------------------------------------------------------------------

def _form_rows(G: FiniteGroup,
               entry: Callable[[Dict[LabelTuple, int], LabelTuple], int],
               budget: Optional[Budget] = None) -> Iterator[List[int]]:
    """Rows ``[entry(u∘w, w) for w in basis]`` for each basis label u of (G, G).

    u∘w is the Mackey product as {label: multiplicity}; it is dropped as
    soon as its entry is read, so no composition table is ever held.
    """
    b = budget or NO_BUDGET
    sp = space(G, G)
    basis = sp.basis(b)
    n = len(basis)
    for i, u in enumerate(basis):
        b.check("trace form", i * n)
        yield [entry(mackey_tuples(sp, sp, sp, u, w), w) for w in basis]


def _weighted(weight: Dict[LabelTuple, int]):
    """The entry Σ_t [u∘w]_t · weight[t] of a trace form."""
    return lambda product, _: sum(c * weight[t] for t, c in product.items())


def radical_dim_char0(G: FiniteGroup, budget: Optional[Budget] = None) -> int:
    """Nullity of the regular trace form of the label algebra over Q.

    Zero exactly when the algebra is semisimple in characteristic zero.
    Two passes over the products: the trace of left multiplication by each
    label (the diagonal of its row), then the gram rows weighted by them.
    """
    basis = space(G, G).basis(budget)
    diagonals = _form_rows(G, lambda product, w: product.get(w, 0), budget)
    lt = {u: sum(row) for u, row in zip(basis, diagonals)}
    gram = list(_form_rows(G, _weighted(lt), budget))
    return len(basis) - matrix_rank(gram, FieldSpec(0))


def trace_gram_rank(G: FiniteGroup, fieldspec: FieldSpec,
                    budget: Optional[Budget] = None) -> Tuple[int, int]:
    """(rank, dimension) of the diagonal-orbit trace form on (G, G) labels."""
    basis = space(G, G).basis(budget)
    tr = {t: trace_of_label(BisetLabel(G, G, t)) for t in basis}
    gram = list(_form_rows(G, _weighted(tr), budget))
    return matrix_rank(gram, fieldspec), len(basis)


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


def burnside_module_matrices(G: FiniteGroup, fieldspec: FieldSpec,
                             budget: Optional[Budget] = None) -> ModuleActionSet:
    """Action of every (G, G) basis label on the coordinate space of kB(G).

    Computed through the identification of kB(G) with kB(G, 1): the
    composite of a label with a transitive G-set is again a sum of
    transitive G-sets.
    """
    b = budget or NO_BUDGET
    f = Field(fieldspec)
    sp_gg = space(G, G)
    sp_g1 = space(G, _TRIVIAL)
    labels = sp_gg.basis(b)
    lat = get_lattice(G, b)
    module_basis = lat.class_reps()
    mod_index = {t: i for i, t in enumerate(module_basis)}
    d = len(module_basis)
    mats = []
    for lab in labels:
        mat = [[f.zero] * d for _ in range(d)]
        for col, sub in enumerate(module_basis):
            raw = mackey_tuples(sp_gg, sp_g1, sp_g1, lab, sub)
            for t, c in raw.items():
                mat[mod_index[t]][col] = f.add(mat[mod_index[t]][col],
                                               f.from_int(c))
        mats.append(mat)
    return ModuleActionSet(G, fieldspec, labels, module_basis, mats)


def burnside_module_matrices_abelian(G: FiniteGroup, fieldspec: FieldSpec,
                                     budget: Optional[Budget] = None
                                     ) -> ModuleActionSet:
    """Direct formula for abelian G: coefficient |p2(H)\\G/L| on G/(H.L),
    with H.L the image under H of L in the first coordinate."""
    if not G.is_abelian():
        raise PreconditionError("the closed-form action needs an abelian group")
    b = budget or NO_BUDGET
    f = Field(fieldspec)
    sp_gg = space(G, G)
    labels = sp_gg.basis(b)
    lat = get_lattice(G, b)
    module_basis = lat.class_reps()
    mod_index = {t: i for i, t in enumerate(module_basis)}
    d = len(module_basis)
    mats = []
    for lab in labels:
        fib, p2 = sp_gg.fibers_second(lab)
        mat = [[f.zero] * d for _ in range(d)]
        for col, sub in enumerate(module_basis):
            sset = set(sub)
            coeff = len(double_coset_reps(p2, G, sub))
            bullet = tuple(sorted({g for h, gs in fib.items() if h in sset
                                   for g in gs}))
            row = mod_index[bullet]
            mat[row][col] = f.add(mat[row][col], f.from_int(coeff))
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


def check_submodules(G: FiniteGroup, fieldspec: FieldSpec,
                     budget: Optional[Budget] = None) -> SubmoduleReport:
    """Invariance of the two distinguished subspaces of kB(G).

    For a cyclic p-group: the coefficient-sum-zero subspace (codimension
    one) and its intersection with the vanishing of the G/G coordinate
    (codimension two).  Invariance depends on the characteristic.
    """
    pp = _prime_power(G.order)
    if pp is None or not G.is_cyclic():
        raise PreconditionError("submodule analysis needs a cyclic p-group")
    actions = burnside_module_matrices(G, fieldspec, budget)
    f = Field(fieldspec)
    d = len(actions.module_basis)
    assert len(actions.module_basis[-1]) == G.order  # the free orbit G/G is last
    # the sum-zero subspace is spanned by the e_i - e_{d-1}; it is invariant
    # exactly when every column of every matrix has the same sum
    col_sums = [[sum(col) for col in zip(*mat)] for mat in actions.matrices]
    n_inv = all(f.is_zero(s[i] - s[d - 1])
                for s in col_sums for i in range(d - 1))
    if d >= 3:
        # the e_i - e_{d-2} also keep the G/G coordinate zero: columns i and
        # d-2 need equal sums and equal entries in the last row
        np_inv = all(f.is_zero(s[i] - s[d - 2])
                     and f.is_zero(mat[d - 1][i] - mat[d - 1][d - 2])
                     for mat, s in zip(actions.matrices, col_sums)
                     for i in range(d - 2))
        np_dim = d - 2
    else:
        np_inv, np_dim = True, 0
    return SubmoduleReport(G, fieldspec, d, d - 1, n_inv, np_dim, np_inv)


# ---------------------------------------------------------------------------
# Essential quotient
# ---------------------------------------------------------------------------

def essential_quotient_dim(H: FiniteGroup,
                           budget: Optional[Budget] = None) -> int:
    """Dimension of kB(H,H) modulo labels factoring through smaller groups.

    A label factors through a strictly smaller group exactly when its
    section size |p1|/|k1| is below |H|; the quotient is spanned by the
    remaining labels.
    """
    sp = space(H, H)
    basis = sp.basis(budget)
    hn = H.order
    count = 0
    for t in basis:
        p1 = len({x // hn for x in t})
        k1 = sum(1 for x in t if x % hn == 0)
        if p1 == hn and k1 == 1:  # section size |p1|/|k1| equals |H|
            count += 1
    return count
