"""Decision procedures: generating relation, NV, dimensions, semisimplicity."""

import random
from fractions import Fraction

import numpy as np
import pytest

from dburnside.bisets import (BisetElement, compose, identity_element,
                              identity_label, mackey_tuples, space)
from dburnside.errors import PreconditionError
from dburnside.functors import (CertificateTerm, _gram, _square,
                                burnside_module_matrices,
                                burnside_module_matrices_abelian,
                                check_submodules, essential_quotient_dim,
                                euler_phi, generates,
                                is_nv, is_s_self_dual, is_semisimple,
                                radical_dim_char0, simple_dim_with_raw,
                                trace_gram_rank, verify_certificate)
from dburnside.groups import group_from_text
from dburnside.lattice import AUTOMORPHISM_ORDER_CAP, automorphisms
from dburnside import orbits as orbits_module
from dburnside.orbits import PairOrbits
from dburnside.linalg import FieldSpec

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)

_groups = {}


def g(text):
    if text not in _groups:
        _groups[text] = group_from_text(text)
    return _groups[text]


# -- generates -----------------------------------------------------------------

def test_reflexive_on_catalog():
    for name in ["1", "C2", "C6", "S3", "D8", "A4"]:
        for spec in (Q, F2, F5):
            rep = generates(g(name), g(name), spec)
            assert rep.result is True
            assert rep.certificate is not None


def test_quotient_certificates_every_field():
    cases = [("C3", "A4"), ("C2", "C4"), ("C2^2", "C2^3"), ("S3", "S3")]
    for hname, gname in cases:
        for spec in (Q, F2, F3, F5):
            rep = generates(g(hname), g(gname), spec)
            assert rep.result is True, (hname, gname, spec)
            assert verify_certificate(g(hname), g(gname), spec, rep.certificate)


def test_quotient_certificate_single_term():
    rep = generates(g("C3"), g("A4"), Q)
    assert rep.via == "quotient"
    assert len(rep.certificate) == 1


def test_non_subquotient_is_immediately_false():
    rep = generates(g("A4"), g("C2^2"), Q)
    assert rep.result is False
    assert rep.via == "not a subquotient"
    rep = generates(g("C5"), g("S4"), F2)
    assert rep.result is False


def test_subquotient_gate_matches_every_subquotient_type(monkeypatch):
    """generates goes past its gate exactly when some subquotient type of G
    is isomorphic to H, the reference that builds every type."""
    from dburnside import functors
    from dburnside.lattice import is_isomorphic, subquotients_up_to_iso
    monkeypatch.setattr(functors, "_quotient_certificate", lambda *a: None)
    monkeypatch.setattr(functors, "_generates_by_span", lambda *a: "span")
    for gname in ["S4", "A4xC2", "D8xC6", "C3xS3", "X(27)", "C2^3"]:
        G = g(gname)
        types = [T for T, _ in subquotients_up_to_iso(G)]
        for hname in ["C1", "C2", "C3", "C4", "C2^2", "S3", "C6", "D8",
                      "A4"]:
            H = g(hname)
            expected = any(is_isomorphic(H, T) is not None for T in types)
            rep = generates(H, G, Q)
            assert (rep == "span") == expected, (hname, gname)


def test_subquotient_gate_builds_no_subquotient_types(monkeypatch):
    from dburnside import functors

    def every_type(G):
        raise AssertionError("every subquotient type built")
    monkeypatch.setattr(functors, "subquotients_up_to_iso", every_type)
    rep = generates(g("C4"), g("C2^3"), Q)
    assert (rep.result, rep.via) == (False, "not a subquotient")
    assert rep.products_tried == 0


def test_klein_four_not_generated_by_a4():
    for spec in (Q, F2, F3):
        rep = generates(g("C2^2"), g("A4"), spec)
        assert rep.result is False
        assert rep.status == "not-generated"
        # complete search: every pair of basis labels was composed
        assert rep.products_tried == 39 * 39


def test_c2_generated_by_a4_by_span():
    rep = generates(g("C2"), g("A4"), Q)
    assert rep.result is True
    assert rep.via == "span"
    assert verify_certificate(g("C2"), g("A4"), Q, rep.certificate)


def test_certificate_soundness_is_enforced():
    rep = generates(g("C2"), g("C4"), Q)
    # corrupt the certificate: soundness check must fail
    bad = [CertificateTerm(t.u, t.w, Fraction(2) * t.coeff)
           for t in rep.certificate]
    assert not verify_certificate(g("C2"), g("C4"), Q, bad)


def test_transitivity_certificate_composition():
    # K generated by H, H generated by G: compose the certificates
    K, H, G = g("C2"), g("C2^2"), g("C2^3")
    rk = generates(K, H, Q)
    rh = generates(H, G, Q)
    assert rk.result and rh.result
    total = None
    for tk in rk.certificate:
        for th in rh.certificate:
            u = compose(BisetElement(K, H, Q, {tk.u: 1}),
                        BisetElement(H, G, Q, {th.u: 1}))
            w = compose(BisetElement(G, H, Q, {th.w: 1}),
                        BisetElement(H, K, Q, {tk.w: 1}))
            piece = compose(u, w).scale(tk.coeff * th.coeff)
            total = piece if total is None else total + piece
    assert total == identity_element(K, Q)


def test_quotient_rule_for_every_normal_subgroup():
    from dburnside.groups import quotient_group
    from dburnside.lattice import normal_subgroup_reps
    for name, spec in [("A4", Q), ("D8", F3), ("C12", F2), ("S3", F5)]:
        grp = g(name)
        for n_elems in normal_subgroup_reps(grp):
            quot, _ = quotient_group(grp, n_elems)
            rep = generates(quot, grp, spec)
            assert rep.result is True, (name, n_elems)
            assert rep.via == "quotient"
            assert len(rep.certificate) == 1


def test_budget_gives_inconclusive(monkeypatch):
    from dburnside import errors
    from dburnside.cache import clear_memory_caches
    clear_memory_caches()  # start cold, as a fresh process does
    with monkeypatch.context() as m:
        m.setattr(errors, "budget", errors.Budget(0.0))
        rep = generates(g("C2^2"), g("A4"), Q)
    assert rep.result is None
    assert rep.status == "inconclusive"
    # the same call without the deadline decides it
    rep2 = generates(g("C2^2"), g("A4"), Q)
    assert rep2.result is False


def test_generates_report_does_not_depend_on_call_history():
    """A call that skips the subquotient check leaves nothing behind that a
    later call with the check reads."""
    from dburnside.cache import clear_memory_caches
    clear_memory_caches()
    skipped = generates(g("C3"), g("C2"), Q, skip_subquotient_check=True)
    assert (skipped.result, skipped.via) == (False, "span")
    rep = generates(g("C3"), g("C2"), Q)
    assert (rep.result, rep.via) == (False, "not a subquotient")
    assert rep.products_tried == 0


def test_budget_during_basis_enumeration_reports_no_products(monkeypatch):
    """An expired deadline is reported before any product table is built."""
    from dburnside import bisets, cache, errors
    H, G = g("C2^3"), g("A4xC2")
    cache.clear_memory_caches()  # the product lattice must be enumerated
    monkeypatch.setattr(cache, "cache_dir", None)
    monkeypatch.setattr(errors, "budget", errors.Budget(-1))
    built, real = [], bisets.direct_product
    monkeypatch.setattr(bisets, "direct_product",
                        lambda *args: built.append(args) or real(*args))
    rep = generates(H, G, F3, skip_subquotient_check=True)
    assert built == []
    assert rep.result is None
    assert rep.via == "budget during basis enumeration"
    assert (rep.products_tried, rep.rank_reached) == (0, 0)


@pytest.mark.parametrize("stage", ["isomorphism search", "pair orbits"])
def test_budget_while_pair_orbits_are_built_reports_no_products(
        monkeypatch, capsys, stage):
    """The automorphisms and label permutations of the pair orbits are
    checked against the deadline like the bases: an expiry there reports
    no products, and the command exits 2."""
    import json
    from dburnside import cache, cli, errors

    class ExpireAt(errors.Budget):
        def check(self, what):
            if what == stage:
                raise errors.BudgetExceeded(f"budget exhausted during {what}")

    cache.clear_memory_caches()  # memoized automorphisms skip the search
    monkeypatch.setattr(cache, "cache_dir", None)
    monkeypatch.setattr(errors, "budget", ExpireAt())
    rep = generates(g("C2^2"), g("A4"), F3, skip_subquotient_check=True)
    assert rep.result is None
    assert rep.via == "budget during basis enumeration"
    assert (rep.products_tried, rep.rank_reached) == (0, 0)
    cache.clear_memory_caches()
    monkeypatch.setattr(cli, "Budget", lambda seconds: ExpireAt())
    code = cli.main(["generates", "C2^2", "A4", "--char", "3",
                     "--format", "json"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 2
    assert result["via"] == "budget during basis enumeration"
    assert (result["products_tried"], result["rank_reached"]) == (0, 0)
    cache.clear_memory_caches()


def test_budget_before_the_first_pair_product(monkeypatch):
    """The deadline is checked before each orbit's Mackey product, so even
    the first chunk of pairs stops there: the span reports no products,
    and a trace form raises."""
    from dburnside import cache, errors

    class ExpireAtPairProducts(errors.Budget):
        def check(self, what):
            if what == "pair products":
                raise errors.BudgetExceeded(f"budget exhausted during {what}")

    cache.clear_memory_caches()
    monkeypatch.setattr(errors, "budget", ExpireAtPairProducts())
    rep = generates(g("C2^2"), g("A4"), F3, skip_subquotient_check=True)
    assert rep.result is None
    assert rep.via == "budget during product span"
    assert (rep.products_tried, rep.rank_reached) == (0, 0)
    with pytest.raises(errors.BudgetExceeded):
        trace_gram_rank(g("S3"), Q)
    cache.clear_memory_caches()


@pytest.mark.parametrize("name", ["S4", "A4xC2"])
def test_nv_stops_every_search_at_the_deadline(monkeypatch, name):
    """With the deadline passing right after the subquotients are found,
    no later step of is_nv (names, transitivity checks, generates) finishes
    an isomorphism search or a lattice enumeration, and every verdict is
    inconclusive."""
    from dburnside import cache, errors, functors, lattice
    cache.clear_memory_caches()  # memoized searches would skip every check
    monkeypatch.setattr(cache, "cache_dir", None)
    real_subquotients = functors.subquotients_up_to_iso
    expired, completed = [], []

    def subquotients_then_expire(G):
        out = real_subquotients(G)
        monkeypatch.setattr(errors, "budget", errors.Budget(-1.0))
        expired.append(True)
        return out

    def spied(fn):
        def run(*args, **kwargs):
            out = fn(*args, **kwargs)
            if expired:
                completed.append(fn.__name__)
            return out
        return run

    monkeypatch.setattr(functors, "subquotients_up_to_iso",
                        subquotients_then_expire)
    for attr in ("_iso_search", "_enumerate_subgroups", "_goursat_subgroups"):
        monkeypatch.setattr(lattice, attr, spied(getattr(lattice, attr)))
    rep = is_nv(g(name), Q, short_circuit=False)
    assert expired and completed == []
    assert rep.verdicts
    assert all(v.status == "inconclusive" for v in rep.verdicts)
    assert rep.overall is None
    cache.clear_memory_caches()


# -- is_nv ----------------------------------------------------------------------

def test_abelian_groups_are_nv():
    for name in ["C2", "C6", "C2^2", "C9"]:
        for spec in (Q, F2, F3):
            rep = is_nv(g(name), spec)
            assert rep.overall is True, (name, spec)


def test_a4_is_vanishing_for_every_field():
    for spec in (Q, F2, F3):
        rep = is_nv(g("A4"), spec)
        assert rep.overall is False
        failing = [v.name for v in rep.verdicts if v.status == "not-generated"]
        assert "C2^2" in failing


def test_nv_report_verdict_structure():
    rep = is_nv(g("C4"), F5)
    assert rep.overall is True
    names = sorted(v.name for v in rep.verdicts)
    assert names == ["C1", "C2", "C4"]
    for v in rep.verdicts:
        assert v.status == "generated"
        # witness section is a genuine section with the right quotient order
        assert len(v.witness_T) == v.group.order * len(v.witness_S)


def test_nv_full_mode_tests_everything():
    rep = is_nv(g("A4"), Q, short_circuit=False)
    statuses = {v.name: v.status for v in rep.verdicts}
    assert statuses["C2^2"] == "not-generated"
    assert "skipped" not in statuses.values()


# -- dimension counts -------------------------------------------------------------

def test_dimension_counts_from_sections():
    assert simple_dim_with_raw(g("C2"), g("C2^3"))[0] == 35
    dim, raw = simple_dim_with_raw(g("C2"), g("A4xC2"))
    assert (dim, raw) == (14, 15)
    assert simple_dim_with_raw(g("C4"), g("C4"))[0] == 1


def test_dimension_count_against_naive_double_loop():
    # independent oracle: enumerate sections directly (no class machinery)
    from dburnside.lattice import get_lattice
    grp = g("A4xC2")
    target = g("C2")
    subs = get_lattice(grp).subgroups
    seen = set()
    raw_sections = []
    for t_sub in subs:
        for s_sub in subs:
            if len(s_sub) * 2 != len(t_sub):
                continue
            if not set(s_sub) <= set(t_sub):
                continue
            if not all(grp.conj(a, x) in s_sub for a in t_sub for x in s_sub):
                continue
            raw_sections.append((t_sub, s_sub))
    # partition into conjugacy classes by brute force
    classes = 0
    done = set()
    for t, s in raw_sections:
        if (t, s) in done:
            continue
        classes += 1
        for a in range(grp.order):
            ct = tuple(sorted(grp.conj(a, x) for x in t))
            cs = tuple(sorted(grp.conj(a, x) for x in s))
            done.add((ct, cs))
    assert classes == 15
    _, raw = simple_dim_with_raw(target, grp)
    assert raw == classes


def test_dimension_count_precondition_errors():
    with pytest.raises(PreconditionError):
        simple_dim_with_raw(g("1"), g("C4"))
    with pytest.raises(PreconditionError):
        simple_dim_with_raw(g("C2^2"), g("A4"))
    with pytest.raises(PreconditionError):
        simple_dim_with_raw(g("C6"), g("A4"))  # not a p-group


def test_structural_filter_accepts_c6():
    # sections (C6, C3) count toward the C2 dimension: C6 = 2-group x cyclic
    dim, raw = simple_dim_with_raw(g("C2"), g("C6"))
    assert (dim, raw) == (2, 2)


# -- s-self-dual -------------------------------------------------------------------

def test_ssd_abelian_and_families():
    for name in ["C4", "C2^3", "C12", "M(2,2)", "X(27)"]:
        rep = is_s_self_dual(g(name))
        assert rep.result is True, name
        assert rep.agree


def test_ssd_d8_fails():
    rep = is_s_self_dual(g("D8"))
    assert rep.result is False
    assert rep.classification is False
    assert rep.agree
    # the failing subgroup is the cyclic C4 inside D8
    assert rep.failing_subgroup is not None


def test_ssd_a4_not_nilpotent():
    rep = is_s_self_dual(g("A4"))
    assert rep.result is False
    assert rep.nilpotent is False
    assert rep.agree


def test_ssd_classification_agreement_on_nilpotent_catalog():
    for name in ["C1", "C2", "C8", "C2^2", "C2^4", "C2xC4", "D8", "D16",
                 "M(2,2)", "X(27)", "C3^2", "C16"]:
        rep = is_s_self_dual(g(name))
        assert rep.agree, name


# -- semisimplicity -----------------------------------------------------------------

def test_semisimple_closed_form():
    assert is_semisimple(g("C6"), Q) is True          # phi(6) = 2
    assert is_semisimple(g("C2^2"), Q) is False       # not cyclic
    assert is_semisimple(g("C2^2"), F3) is False
    assert is_semisimple(g("C3"), F2) is False        # 2 | phi(3)
    assert is_semisimple(g("C3"), F3) is True
    assert is_semisimple(g("C2"), F2) is True         # phi(2) = 1


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_radical_vanishes_iff_semisimple_small():
    for name in ["1", "C2", "C3", "C4", "C6", "C2^2", "S3"]:
        grp = g(name)
        assert (radical_dim_char0(grp) == 0) == is_semisimple(grp, Q), name


def test_radical_examples():
    assert radical_dim_char0(g("1")) == 0
    assert radical_dim_char0(g("C2")) == 0
    assert radical_dim_char0(g("C2^2")) > 0


# -- Burnside module ----------------------------------------------------------------

def test_identity_action_matrix():
    actions = burnside_module_matrices(g("C4"), Q)
    idx = actions.labels.index(identity_label(g("C4")))
    d = len(actions.module_basis)
    assert actions.matrices[idx] == \
        [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]


def test_abelian_action_paths_agree():
    for name in ["C4", "C9", "C2^2", "C6"]:
        a = burnside_module_matrices(g(name), Q)
        bb = burnside_module_matrices_abelian(g(name), Q)
        assert a.matrices == bb.matrices, name


def test_action_is_multiplicative_on_samples():
    grp = g("C4")
    actions = burnside_module_matrices(grp, Q)
    labels = actions.labels
    d = len(actions.module_basis)
    rng = random.Random(2)
    for _ in range(10):
        i = rng.randrange(len(labels))
        j = rng.randrange(len(labels))
        # matrix of the composite as a linear combination
        composite = compose(BisetElement(grp, grp, Q, {labels[i]: 1}),
                            BisetElement(grp, grp, Q, {labels[j]: 1}))
        comp = [[Fraction(0)] * d for _ in range(d)]
        for t, c in composite.coeffs.items():
            w = labels.index(t)
            for r in range(d):
                for cc in range(d):
                    comp[r][cc] += c * actions.matrices[w][r][cc]
        prod = [[sum(actions.matrices[i][r][k] * actions.matrices[j][k][cc]
                     for k in range(d)) for cc in range(d)] for r in range(d)]
        assert comp == prod


def test_c9_large_kernel_labels_cannot_reach_full_orbit():
    grp = g("C9")
    actions = burnside_module_matrices(grp, Q)
    d = len(actions.module_basis)
    hn = grp.order
    checked = 0
    for li, lab in enumerate(actions.labels):
        k1 = sorted(x // hn for x in lab if x % hn == 0)
        k2 = sorted(x % hn for x in lab if x // hn == 0)
        if k1 == k2 and len(k1) < grp.order:
            checked += 1
            # no proper transitive set maps onto the free orbit G/G
            assert all(actions.matrices[li][d - 1][c] == 0
                       for c in range(d - 1))
    assert checked > 0


def test_submodule_invariance_cases():
    r = check_submodules(g("C3"), F2)
    assert r.sum_zero_invariant and r.sum_zero_dim == 1
    r = check_submodules(g("C9"), F3)
    assert r.codim2_invariant and r.codim2_dim == 1
    assert not r.sum_zero_invariant
    r = check_submodules(g("C2"), Q)
    assert not r.sum_zero_invariant  # semisimple case: no invariant need hold
    with pytest.raises(PreconditionError):
        check_submodules(g("C6"), Q)
    with pytest.raises(PreconditionError):
        check_submodules(g("S3"), Q)


def reference_submodules(G, spec):
    """Invariance of the two subspaces by applying every matrix to the
    spanning vectors e_i - e_{d-1} and e_i - e_{d-2}."""
    red = spec.reduce
    mats = burnside_module_matrices(G, spec).matrices
    d = len(mats[0])

    def images(j, count):
        for mat in mats:
            for i in range(count):
                v = [0] * d
                v[i] = red(v[i] + 1)
                v[j] = red(v[j] - 1)
                yield [red(sum(mat[r][c] * v[c] for c in range(d)))
                       for r in range(d)]

    def sum_zero(w):
        return red(sum(w)) == 0

    n_inv = all(sum_zero(w) for w in images(d - 1, d - 1))
    np_inv = all(sum_zero(w) and red(w[d - 1]) == 0
                 for w in images(d - 2, d - 2)) if d >= 3 else True
    return n_inv, np_inv


def test_submodule_invariance_matches_image_vectors():
    seen = set()
    for name in ("C2", "C3", "C4", "C5", "C8", "C9"):
        for char in (0, 2, 3, 5):
            spec = FieldSpec(char)
            r = check_submodules(g(name), spec)
            got = (r.sum_zero_invariant, r.codim2_invariant)
            assert got == reference_submodules(g(name), spec), (name, char)
            seen.add(got)
    # both verdicts occur for both subspaces
    assert {n for n, _ in seen} == {True, False}
    assert {c for _, c in seen} == {True, False}


# -- essential quotient ---------------------------------------------------------------

def test_essential_quotient_examples():
    assert essential_quotient_dim(g("C2")) == 1
    assert essential_quotient_dim(g("C2^2")) == 6
    assert essential_quotient_dim(g("C9")) == 6


def test_essential_quotient_matches_out():
    for name in ["C2", "C4", "C2^2", "S3", "C9", "D8"]:
        _, _, out = automorphisms(g(name))
        assert essential_quotient_dim(g(name)) == out, name


# -- trace gram -------------------------------------------------------------------------

def test_trace_gram_trivial_group():
    assert trace_gram_rank(g("1"), Q) == (1, 1)


def test_trace_gram_degenerate():
    for name in ["C2", "C3", "C2^2", "S3"]:
        rank, dim = trace_gram_rank(g(name), Q)
        assert rank < dim, name


def test_trace_gram_modular_field():
    rank, dim = trace_gram_rank(g("C2"), F2)
    assert rank < dim
    # a rank mod p never exceeds the rank over Q; products of residues
    # near 2**32 overflow int64
    big = FieldSpec(4294967311)
    assert trace_gram_rank(g("S3"), big) == trace_gram_rank(g("S3"), Q) == (9, 22)
    assert trace_gram_rank(g("C6"), big) == trace_gram_rank(g("C6"), Q) == (20, 30)


# -- products shared by orbits of pairs ----------------------------------------------

@pytest.mark.parametrize("name", ["S3", "D8", "C2xC4"])
def test_form_rows_match_one_product_per_entry(name):
    # distinct weights per label and the diagonal entries of each row, so a
    # product read at the wrong position or from an unrelabelled orbit
    # representative shows up
    G = g(name)
    sp = space(G, G)
    basis = sp.basis()
    pos = sp.basis_index()
    products = [[mackey_tuples(sp, sp, sp, u, w) for w in basis] for u in basis]
    weight = [3 * k + 1 for k in range(len(basis))]
    assert _gram(_square(G), weight) == [[sum(c * weight[pos[t]] for t, c in p.items())
                                 for p in row] for row in products]
    diagonal = [sum(c for t, c in p.items() if pos[t] == j)
                for row in products for j, p in enumerate(row)]
    assert [int((C * (K == np.arange(len(K))[:, None])).sum(axis=1)[j])
            for K, C in _square(G).table() for j in range(len(basis))] == diagonal


def _assert_pair_products(H, G, pairs):
    sp_hg, sp_gh, sp_hh = space(H, G), space(G, H), space(H, H)
    index = sp_hh.basis_index()
    n = len(sp_gh.basis())
    got = list(PairOrbits(sp_hg, sp_gh, sp_hh).products(
        np.array([iu * n + iw for iu, iw in pairs], dtype=np.int64)))
    assert len(got) == len(pairs)
    for (iu, iw), items in zip(pairs, got):
        raw = mackey_tuples(sp_hg, sp_gh, sp_hh,
                            sp_hg.basis()[iu], sp_gh.basis()[iw])
        assert items == tuple(sorted((index[t], c) for t, c in raw.items()))


def _all_pairs(H, G):
    return [(iu, iw) for iu in range(len(space(H, G).basis()))
            for iw in range(len(space(G, H).basis()))]


@pytest.mark.parametrize("h,gg", [("C2", "S3"), ("C2^2", "A4"), ("C4", "D8"),
                                  ("S3", "S3"), ("C3^2", "C3^2")])
def test_pair_products_match_their_own_mackey_product(h, gg):
    _assert_pair_products(g(h), g(gg), _all_pairs(g(h), g(gg)))


def test_pair_products_match_on_a_sample_of_the_headline_pairs():
    # Out(C2^3) = GL(3, 2) moves the kB(C2^3, C2^3) labels of most products
    pairs = random.Random(5).sample(_all_pairs(g("C2^3"), g("A4xC2")), 300)
    _assert_pair_products(g("C2^3"), g("A4xC2"), pairs)


def test_pair_products_above_the_automorphism_cap():
    # |C2 x S3 x C2 x S3| = 144: only the opposite acts
    H, G = g("C2"), g("C2xS3xC2xS3")
    assert G.order > AUTOMORPHISM_ORDER_CAP
    orbits = PairOrbits(space(H, G), space(G, H), space(H, H))
    assert len(orbits.a_u) == 1 and len(orbits.b_mul) == 1
    pairs = random.Random(3).sample(_all_pairs(H, G), 300)
    _assert_pair_products(H, G, pairs)


def test_pair_products_in_shuffled_order():
    # an orbit's pairs may come in any order, at any distance
    pairs = _all_pairs(g("C2^2"), g("A4"))
    random.Random(11).shuffle(pairs)
    _assert_pair_products(g("C2^2"), g("A4"), pairs)
    # more pairs than one chunk: the orbit table grows from chunk to chunk,
    # with orbits met out of order
    pairs = random.Random(13).sample(_all_pairs(g("C2^2"), g("A4xC2")), 6000)
    assert len(pairs) > orbits_module._CHUNK
    _assert_pair_products(g("C2^2"), g("A4xC2"), pairs)


def test_second_pass_reads_rows_through_the_orbit_index(monkeypatch):
    # the pairs of the test above once more, in another order: every orbit
    # is in the table, so no Mackey product is computed, and each pair gets
    # the items of the first pass, wherever its orbit's row lies
    H, G = g("C2^2"), g("A4xC2")
    n = len(space(G, H).basis())
    pairs = [iu * n + iw for iu, iw in
             random.Random(13).sample(_all_pairs(H, G), 6000)]
    orbits = PairOrbits(space(H, G), space(G, H), space(H, H))
    first = dict(zip(pairs, orbits.products(np.array(pairs, np.int64))))
    random.Random(17).shuffle(pairs)
    calls = _count_mackey_calls(monkeypatch)
    again = list(orbits.products(np.array(pairs, np.int64)))
    assert not calls
    assert again == [first[p] for p in pairs]


def test_distinct_values():
    values = np.array([3, 0, 3, 1, 0], np.int64)
    assert orbits_module._distinct(values).tolist() == [0, 1, 3]
    # a batch whose orbits are all in the table has none left to add
    assert orbits_module._distinct(np.zeros(0, np.int64)).tolist() == []


def test_first_occurrences():
    first = orbits_module.first_occurrences
    assert first(np.zeros(0, np.int64)).tolist() == []
    assert first(np.array([7], np.int64)).tolist() == [0]
    values = np.array([4, 2, 4, 4, 2, 9, 2], np.int64)
    assert first(values).tolist() == [0, 1, 5]


@pytest.mark.parametrize("h,gg", [("C2^3", "A4xC2"), ("C3^2", "C3xS3"),
                                  ("C4", "D8xC6"), ("D12", "D12")])
def test_label_permutations_read_through_the_opposite(h, gg):
    """The automorphisms on kB(G, H) and on the right of kB(H, H), read
    off kB(H, G) and the left of kB(H, H) through the opposite, equal the
    permutations computed on those sides directly."""
    from dburnside.lattice import outer_automorphism_generators
    H, G = g(h), g(gg)
    sp_hg, sp_gh, sp_hh = space(H, G), space(G, H), space(H, H)
    orbits = PairOrbits(sp_hg, sp_gh, sp_hh)
    op_u, op_w, op_h = orbits.op_u, orbits.op_w, orbits.op_h
    perm = orbits_module._label_permutation
    one_h, one_g = range(H.order), range(G.order)
    outer_h = outer_automorphism_generators(H)
    outer_g = outer_automorphism_generators(G)
    assert outer_h and outer_g
    for b in outer_h:
        u, left = perm(sp_hg, b, one_g), perm(sp_hh, b, one_h)
        assert (op_u[u[op_w]] == perm(sp_gh, one_g, b)).all()
        assert (op_h[left[op_h]] == perm(sp_hh, one_h, b)).all()
    for a in outer_g:
        u = perm(sp_hg, one_h, a)
        assert (op_u[u[op_w]] == perm(sp_gh, a, one_h)).all()


def test_label_permutations_per_pair_orbits(monkeypatch):
    # Out(C2^3) brings 5 generators and Out(A4xC2) one: one permutation of
    # kB(H, G) and one of kB(H, H) per generator of Out(H), one of kB(H, G)
    # per generator of Out(G)
    H, G = g("C2^3"), g("A4xC2")
    real = orbits_module._label_permutation
    calls = []
    monkeypatch.setattr(orbits_module, "_label_permutation",
                        lambda *args: calls.append(args) or real(*args))
    PairOrbits(space(H, G), space(G, H), space(H, H))
    assert len(calls) <= 11


def _count_mackey_calls(monkeypatch):
    from dburnside import bisets, functors, orbits
    calls = []

    def counted(*args):
        calls.append(args)
        return mackey_tuples(*args)
    for module in (bisets, functors, orbits):
        monkeypatch.setattr(module, "mackey_tuples", counted)
    return calls


@pytest.mark.parametrize("h,gg,char,result,fixed_chunks", [
    ("C2^2", "S4", 0, True, 1286), ("C2^2", "A4xC2", 3, True, 1223),
    ("C4", "D8xC6", 3, False, 17192), ("C3^2", "C3xS3", 0, False, 990),
    ("C4", "D8xC2", 0, False, 4344)])
def test_span_leaves_few_products_unread(monkeypatch, h, gg, char, result,
                                         fixed_chunks):
    """Products come in chunks that grow from 64 pairs, so a span that stops
    early has fewer Mackey products computed than chunks of a fixed 4,096
    pairs give (``fixed_chunks``); a complete span computes every orbit's
    product once, whatever the chunks."""
    from dburnside.cache import clear_memory_caches
    clear_memory_caches()
    calls = _count_mackey_calls(monkeypatch)
    rep = generates(g(h), g(gg), FieldSpec(char), skip_subquotient_check=True)
    assert rep.result is result
    if result:
        assert len(calls) < fixed_chunks
    else:
        assert len(calls) == fixed_chunks


def test_one_mackey_product_per_orbit_of_pairs(monkeypatch):
    # 45,369 pairs in 4,344 orbits, and 133 orbits among the 44,944 pairs
    # of kB(C3^2)^2; more calls mean a symmetry was dropped
    from dburnside.cache import clear_memory_caches
    clear_memory_caches()
    calls = _count_mackey_calls(monkeypatch)
    rep = generates(g("C4"), g("D8xC2"), Q, skip_subquotient_check=True)
    assert (rep.result, rep.products_tried, rep.rank_reached) == \
        (False, 45369, 14)
    assert len(calls) <= 4344
    calls.clear()
    assert trace_gram_rank(g("C3^2"), Q) == (41, 212)
    assert len(calls) <= 133
