"""Biset algebra: invariants, composition, oracle agreement, butterfly."""

import itertools
import random
from fractions import Fraction

import pytest

from dburnside.bisets import (BisetLabel, RATIONALS, butterfly_factorize,
                              canonical_basis, compose, compose_factors,
                              element_from_label, elementary_def,
                              elementary_ind, elementary_inf, elementary_res,
                              identity_element, identity_label, is_left_free,
                              mackey_compose, mackey_tuples, make_label,
                              op_indices, product_invariants,
                              realize_and_compose_oracle, space, star,
                              trace_map, trace_of_label)
from dburnside.errors import PreconditionError
from dburnside.groups import Subgroup, group_from_text
from dburnside.lattice import (all_subgroups, double_coset_reps, get_lattice,
                               is_isomorphic)
from dburnside.linalg import FieldSpec

Q = FieldSpec(0)
F2 = FieldSpec(2)

_groups = {}


def g(text):
    if text not in _groups:
        _groups[text] = group_from_text(text)
    return _groups[text]


def basis_labels(a, b):
    return canonical_basis(g(a), g(b))


# -- product invariants --------------------------------------------------------

def test_invariants_of_diagonal():
    c4 = g("C4")
    lab = identity_label(c4)
    inv = product_invariants(lab)
    assert inv.p1.elements == tuple(range(4))
    assert inv.p2.elements == tuple(range(4))
    assert inv.k1.elements == (0,)
    assert inv.k2.elements == (0,)
    assert is_isomorphic(inv.q, c4) is not None


def test_invariants_of_full_product():
    a, b = g("C2"), g("S3")
    sp = space(a, b)
    lab = BisetLabel(a, b, tuple(range(sp.product.order)))
    inv = product_invariants(lab)
    assert inv.p1.elements == tuple(range(2))
    assert inv.p2.elements == tuple(range(6))
    assert inv.k1.elements == tuple(range(2))
    assert inv.k2.elements == tuple(range(6))
    assert inv.q.order == 1


def test_invariants_of_graph():
    # graph of an automorphism of C4: q is the whole group
    c4 = g("C4")
    sp = space(c4, c4)
    lab = make_label(c4, c4, [sp.encode((3 * x) % 4, x) for x in range(4)])
    inv = product_invariants(lab)
    assert inv.q.order == 4
    assert inv.k1.elements == (0,)


def test_index_identity_for_all_labels():
    for a, b in [("C4", "C4"), ("S3", "C2"), ("D8", "C2^2")]:
        for lab in basis_labels(a, b):
            inv = product_invariants(lab)
            assert (len(inv.p1) * len(inv.k2.elements)
                    == len(inv.p2) * len(inv.k1.elements))
            assert len(inv.p1) // len(inv.k1) == inv.q.order


# -- star --------------------------------------------------------------------

def test_star_with_diagonal_is_identity_sided():
    c4 = g("C4")
    for lab in basis_labels("C4", "C4"):
        left = star(identity_label(c4), lab)
        assert left.elements == lab.elements
        right = star(lab, identity_label(c4))
        assert right.elements == lab.elements


def test_star_full_products():
    v4 = g("C2^2")
    sp = space(v4, v4)
    full = BisetLabel(v4, v4, tuple(range(16)))
    assert star(full, full).elements == tuple(range(16))


def test_star_middle_mismatch():
    with pytest.raises(PreconditionError):
        star(identity_label(g("C2")), identity_label(g("C3")))


# -- composition ----------------------------------------------------------------

def test_identity_composition():
    for a, b in [("C2", "C2"), ("S3", "C4"), ("C2^2", "S3")]:
        ga, gb = g(a), g(b)
        for lab in basis_labels(a, b):
            left = mackey_compose(identity_label(ga), lab)
            assert left == element_from_label(lab, RATIONALS)
            right = mackey_compose(lab, identity_label(gb))
            assert right == element_from_label(lab, RATIONALS)


def test_res_then_ind_is_two_points():
    c2 = g("C2")
    triv = Subgroup(c2, [0])
    from dburnside.bisets import elementary_ind, elementary_res
    ind = elementary_ind(c2, triv)
    res = elementary_res(c2, triv)
    out = mackey_compose(res.label, ind.label)
    point = next(iter(out.coeffs))
    assert out.coeffs == {point: Fraction(2)}
    # and the oracle agrees on this explicit two-point biset
    assert realize_and_compose_oracle(res.label, ind.label) == out


def test_ind_then_res_is_free_orbit():
    c2 = g("C2")
    triv = Subgroup(c2, [0])
    from dburnside.bisets import elementary_ind, elementary_res
    ind = elementary_ind(c2, triv)
    res = elementary_res(c2, triv)
    out = mackey_compose(ind.label, res.label)
    assert out.coeffs == {(0,): Fraction(1)}
    assert realize_and_compose_oracle(ind.label, res.label) == out


def test_bilinearity_and_zero():
    c2 = g("C2")
    idl = identity_label(c2)
    two_id = element_from_label(idl, Q).scale(Fraction(2))
    three_id = element_from_label(idl, Q).scale(Fraction(3))
    assert compose(two_id, three_id) == element_from_label(idl, Q).scale(Fraction(6))
    over_f2 = element_from_label(idl, F2).scale(2)
    assert over_f2.is_zero()
    assert compose(over_f2, element_from_label(idl, F2)).is_zero()
    zero = element_from_label(idl, Q).scale(Fraction(0))
    assert compose(element_from_label(idl, Q), zero).is_zero()


def test_compose_field_and_middle_mismatch():
    c2, c3 = g("C2"), g("C3")
    with pytest.raises(PreconditionError):
        compose(identity_element(c2, Q), identity_element(c3, Q))
    with pytest.raises(PreconditionError):
        compose(identity_element(c2, Q), identity_element(c2, F2))


def test_associativity_random_triples():
    rng = random.Random(7)
    names = ["C2", "C4", "C2^2", "S3", "C8", "D8"]
    for _ in range(12):
        a, b, c, d = (rng.choice(names) for _ in range(4))
        la = rng.choice(basis_labels(a, b))
        lb = rng.choice(basis_labels(b, c))
        lc = rng.choice(basis_labels(c, d))
        x = element_from_label(la, Q)
        y = element_from_label(lb, Q)
        z = element_from_label(lc, Q)
        assert compose(compose(x, y), z) == compose(x, compose(y, z))


# -- canonical basis -------------------------------------------------------------

def test_basis_counts():
    assert len(basis_labels("C2", "C2")) == 5
    assert len(basis_labels("1", "1")) == 1


def test_basis_deterministic_and_canonical():
    labs1 = basis_labels("S3", "C4")
    labs2 = canonical_basis(g("S3"), g("C4"))
    assert [l.elements for l in labs1] == [l.elements for l in labs2]
    sp = space(g("S3"), g("C4"))
    for lab in labs1:
        assert sp.canonical(lab.elements) == lab.elements


def test_basis_counts_elementary_abelian_cube():
    assert len(basis_labels("C2^3", "C2^3")) == 2825


# -- oracle equivalence ----------------------------------------------------------

def test_oracle_of_identity():
    for name in ["C2", "S3"]:
        idl = identity_label(g(name))
        assert realize_and_compose_oracle(idl, idl) == mackey_compose(idl, idl)


def test_oracle_agreement_small_sweep():
    names = ["C2", "C3", "C2^2", "S3"]
    for a, b, c in itertools.product(names, repeat=3):
        if g(a).order * g(b).order > 24 or g(b).order * g(c).order > 24:
            continue
        for L in basis_labels(a, b):
            for M in basis_labels(b, c):
                assert mackey_compose(L, M) == realize_and_compose_oracle(L, M), \
                    (a, b, c, L.elements, M.elements)


# -- butterfly --------------------------------------------------------------------

def test_butterfly_identity_label():
    s3 = g("S3")
    lab = identity_label(s3)
    factors = butterfly_factorize(lab)
    assert [f.kind for f in factors] == ["Ind", "Inf", "Iso", "Def", "Res"]
    assert compose_factors(factors) == element_from_label(lab, RATIONALS)


def test_butterfly_induction_label():
    # the label {(h,h) : h in H} with H < G composes back to itself
    d8 = g("D8")
    c2sub = next(s for s in all_subgroups(d8) if len(s) == 2)
    sp = space(d8, g("C2"))
    lab = make_label(d8, g("C2"),
                     [sp.encode(c2sub.elements[i], i) for i in range(2)])
    factors = butterfly_factorize(lab)
    assert compose_factors(factors) == element_from_label(lab, RATIONALS)


def test_butterfly_sweep_order_eight():
    rng = random.Random(13)
    for a, b in [("C2", "C4"), ("C2^2", "C2^2"), ("S3", "C4"), ("C4", "D8")]:
        sp = space(g(a), g(b))
        lat = get_lattice(sp.product)
        reps = lat.class_reps()
        sample = reps if len(reps) <= 25 else rng.sample(reps, 25)
        for t in sample:
            lab = BisetLabel(g(a), g(b), t)
            assert compose_factors(butterfly_factorize(lab)) == \
                element_from_label(lab, RATIONALS)


@pytest.mark.parametrize("a,b", [("D8", "C4"), ("S3", "C2"), ("A4", "C2^2")])
def test_butterfly_factors_are_the_elementary_bisets(a, b):
    # P1 and P2 number their elements by position in the projections
    for lab in basis_labels(a, b):
        ind, inf, _, dfl, res = butterfly_factorize(lab)
        inv = product_invariants(lab)
        P1, P2 = ind.label.right, res.label.left
        p1, p2 = inv.p1.elements, inv.p2.elements
        K1 = Subgroup(P1, [p1.index(x) for x in inv.k1.elements])
        K2 = Subgroup(P2, [p2.index(x) for x in inv.k2.elements])
        assert ind == elementary_ind(g(a), inv.p1)
        assert inf == elementary_inf(P1, K1)
        assert dfl == elementary_def(P2, K2)
        assert res == elementary_res(g(b), inv.p2)


def test_inflation_label_not_left_free():
    c4 = g("C4")
    n = Subgroup(c4, [0, 2])
    inf = elementary_inf(c4, n)
    inv = product_invariants(inf.label)
    assert inv.k1.elements == (0, 2)
    assert not is_left_free(inf.label)


def test_left_free_classification():
    assert is_left_free(identity_label(g("S3")))
    v4 = g("C2^2")
    sp = space(v4, v4)
    full = BisetLabel(v4, v4, tuple(range(16)))
    assert not is_left_free(full)


# -- trace ------------------------------------------------------------------------

def test_trace_identity_counts_conjugacy_classes():
    assert trace_map(identity_element(g("C2"), Q)) == 2
    assert trace_map(identity_element(g("1"), Q)) == 1
    # S3 has three conjugacy classes
    assert trace_map(identity_element(g("S3"), Q)) == 3


def test_trace_of_zero():
    zero = identity_element(g("C3"), Q).scale(Fraction(0))
    assert trace_map(zero) == 0


def test_trace_requires_square():
    lab = basis_labels("C2", "C3")[0]
    with pytest.raises(PreconditionError):
        trace_map(element_from_label(lab, Q))


def diagonal_orbit_count(lab):
    """Orbits of the diagonal on the cosets of lab, by search over the
    explicit coset space: the reference for the double-coset count."""
    sp = space(lab.left, lab.right)
    R = sp.realization(lab.elements)
    mul = sp.product.mul
    diag = [sp.encode(x, x) for x in range(lab.left.order)]
    seen = [False] * len(R.reps)
    count = 0
    for i in range(len(R.reps)):
        if seen[i]:
            continue
        count += 1
        seen[i] = True
        stack = [i]
        while stack:
            r = R.reps[stack.pop()]
            for d in diag:
                c = R.coset_id[mul[d][r]]
                if not seen[c]:
                    seen[c] = True
                    stack.append(c)
    return count


@pytest.mark.parametrize("name", ["S3", "D8", "A4", "C2^2", "C6"])
def test_trace_of_label_matches_diagonal_orbit_count(name):
    for lab in basis_labels(name, name):
        assert trace_of_label(lab) == diagonal_orbit_count(lab)


def test_trace_centrality():
    rng = random.Random(19)
    for a, b in [("C2", "C4"), ("C2^2", "C2"), ("S3", "C2"), ("C4", "C8")]:
        lab_ab = basis_labels(a, b)
        lab_ba = basis_labels(b, a)
        for _ in range(8):
            u = rng.choice(lab_ab)
            v = rng.choice(lab_ba)
            uv = compose(element_from_label(u, Q), element_from_label(v, Q))
            vu = compose(element_from_label(v, Q), element_from_label(u, Q))
            assert trace_map(uv) == trace_map(vu)


# -- opposite bisets and the abelian middle group ----------------------------------

def op_label_map(a, b):
    """Each basis label of kB(a, b) to its opposite label of kB(b, a)."""
    sp, sp_op = space(g(a), g(b)), space(g(b), g(a))
    return {t: sp_op.basis()[k]
            for t, k in zip(sp.basis(), op_indices(sp, sp_op))}


@pytest.mark.parametrize("h,gg", [("C2", "S3"), ("C2^2", "A4"), ("C4", "D8"),
                                  ("S3", "S3")])
def test_mackey_product_of_opposites_is_opposite_product(h, gg):
    # (u∘w)^op = w^op∘u^op for u in kB(H, G), w in kB(G, H)
    sp_hg, sp_gh, sp_hh = space(g(h), g(gg)), space(g(gg), g(h)), space(g(h), g(h))
    op_hg, op_gh, op_hh = op_label_map(h, gg), op_label_map(gg, h), op_label_map(h, h)
    for u in sp_hg.basis():
        for w in sp_gh.basis():
            uw = mackey_tuples(sp_hg, sp_gh, sp_hh, u, w)
            dual = mackey_tuples(sp_hg, sp_gh, sp_hh, op_gh[w], op_hg[u])
            assert dual == {op_hh[t]: n for t, n in uw.items()}


@pytest.mark.parametrize("name", ["S3", "D8", "A4", "C2xC4"])
def test_op_indices_is_an_involution(name):
    sp = space(g(name), g(name))
    op = op_indices(sp, sp)
    assert [op[k] for k in op] == list(range(len(op)))
    assert any(op[k] != k for k in range(len(op)))


@pytest.mark.parametrize("a,b", [("C2", "S3"), ("C2^2", "A4"), ("C4", "D8")])
def test_op_indices_between_the_two_spaces_are_inverse_bijections(a, b):
    sp_ab, sp_ba = space(g(a), g(b)), space(g(b), g(a))
    there, back = op_indices(sp_ab, sp_ba), op_indices(sp_ba, sp_ab)
    assert sorted(there) == list(range(len(sp_ba.basis())))
    assert [back[k] for k in there] == list(range(len(sp_ab.basis())))
    assert [there[k] for k in back] == list(range(len(sp_ba.basis())))


def mackey_by_double_cosets(sp_gh, sp_hk, sp_gk, L, M):
    """The composite with one star per double coset, for any middle group:
    the reference for the one-star shortcut over an abelian middle group."""
    H = sp_gh.right
    mul, inv = H.mul, H.inv
    kn = sp_hk.right.order
    fib_l, p2l = sp_gh.fibers_second(L)
    fib_m, p1m = sp_hk.fibers_first(M)
    out = {}
    for h in double_coset_reps(p2l, H, p1m):
        elems = {g * kn + k for m, ks in fib_m.items()
                 for g in fib_l.get(mul[mul[h][m]][inv[h]], ()) for k in ks}
        t = sp_gk.canonical(elems)
        out[t] = out.get(t, 0) + 1
    return out


@pytest.mark.parametrize("a,h,k,sample", [
    ("C6", "C6", "C6", None), ("C2xC4", "C2xC4", "C2xC4", None),
    ("S3", "C2", "S3", None),
    # kB(C2^3, C2^3) has 2825 labels: a seeded sample of its 8M pairs
    ("C2^3", "C2^3", "C2^3", 20000)])
def test_abelian_middle_group_matches_double_coset_loop(a, h, k, sample):
    sp_ah, sp_hk, sp_ak = space(g(a), g(h)), space(g(h), g(k)), space(g(a), g(k))
    pairs = list(itertools.product(sp_ah.basis(), sp_hk.basis()))
    if sample is not None:
        pairs = random.Random(7).sample(pairs, sample)
    assert g(h).is_abelian()
    for L, M in pairs:
        assert (mackey_tuples(sp_ah, sp_hk, sp_ak, L, M)
                == mackey_by_double_cosets(sp_ah, sp_hk, sp_ak, L, M))


@pytest.mark.parametrize("name", ["S3", "D8", "A4"])
def test_trace_of_opposite_label(name):
    G = g(name)
    for t, t_op in op_label_map(name, name).items():
        assert trace_of_label(BisetLabel(G, G, t_op)) == trace_of_label(
            BisetLabel(G, G, t))
