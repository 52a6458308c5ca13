"""Biset algebra: invariants, composition, oracle agreement, butterfly."""

import itertools
import random
from fractions import Fraction

import pytest

from dburnside.bisets import (RATIONALS, BisetElement, butterfly_factorize,
                              compose, compose_factors, elementary_def,
                              elementary_ind, elementary_inf, elementary_res,
                              identity_element, identity_label, mackey_tuples,
                              make_label, op_indices, product_invariants,
                              realize_and_compose_oracle, space,
                              trace_of_label)
from dburnside import cache, lattice
from dburnside.cache import clear_memory_caches
from dburnside.errors import PreconditionError
from dburnside.groups import direct_product, group_from_text
from dburnside.lattice import (canonical, double_coset_reps, get_lattice,
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
    return space(g(a), g(b)).basis()


def unit(G, H, L, field=RATIONALS):
    """1 * L in kB(G, H)."""
    return BisetElement(G, H, field, {L: 1})


def compose_labels(G, H, K, L, M):
    """The composite of labels L of kB(G, H) and M of kB(H, K) over Q."""
    return compose(unit(G, H, L), unit(H, K, M))


def trace(x):
    """The trace of a square element: the sum over its labels of the
    coefficient times ``trace_of_label``, in the element's field."""
    return x.field.reduce(sum(c * trace_of_label(x.left, x.right, t)
                              for t, c in x.coeffs.items()))


# -- product invariants --------------------------------------------------------

def test_invariants_of_diagonal():
    c4 = g("C4")
    inv = product_invariants(c4, c4, identity_label(c4))
    assert inv.p1 == tuple(range(4))
    assert inv.p2 == tuple(range(4))
    assert inv.k1 == (0,)
    assert inv.k2 == (0,)
    assert is_isomorphic(inv.q, c4) is not None


def test_invariants_of_full_product():
    a, b = g("C2"), g("S3")
    inv = product_invariants(a, b, tuple(range(a.order * b.order)))
    assert inv.p1 == tuple(range(2))
    assert inv.p2 == tuple(range(6))
    assert inv.k1 == tuple(range(2))
    assert inv.k2 == tuple(range(6))
    assert inv.q.order == 1


def test_invariants_of_graph():
    # graph of an automorphism of C4: q is the whole group
    c4 = g("C4")
    sp = space(c4, c4)
    lab = make_label(c4, c4, [sp.encode((3 * x) % 4, x) for x in range(4)])
    inv = product_invariants(c4, c4, lab)
    assert inv.q.order == 4
    assert inv.k1 == (0,)


def test_index_identity_for_all_labels():
    for a, b in [("C4", "C4"), ("S3", "C2"), ("D8", "C2^2")]:
        for lab in basis_labels(a, b):
            inv = product_invariants(g(a), g(b), lab)
            assert len(inv.p1) * len(inv.k2) == len(inv.p2) * len(inv.k1)
            assert len(inv.p1) // len(inv.k1) == inv.q.order


# -- composition ----------------------------------------------------------------

def test_star_with_diagonal_is_identity_sided():
    # the middle group is all of p1 and p2 of the diagonal: one star, once
    c4 = g("C4")
    sp = space(c4, c4)
    for lab in basis_labels("C4", "C4"):
        assert mackey_tuples(sp, sp, sp, identity_label(c4), lab) == {lab: 1}
        assert mackey_tuples(sp, sp, sp, lab, identity_label(c4)) == {lab: 1}
        one = unit(c4, c4, lab)
        assert compose_labels(c4, c4, c4, identity_label(c4), lab) == one
        assert compose_labels(c4, c4, c4, lab, identity_label(c4)) == one


def test_identity_composition():
    for a, b in [("C2", "C2"), ("S3", "C4"), ("C2^2", "S3")]:
        ga, gb = g(a), g(b)
        for lab in basis_labels(a, b):
            left = compose_labels(ga, ga, gb, identity_label(ga), lab)
            assert left == unit(ga, gb, lab)
            right = compose_labels(ga, gb, gb, lab, identity_label(gb))
            assert right == unit(ga, gb, lab)


def test_compose_full_products():
    # the composite of two one-point bisets is one point
    v4 = g("C2^2")
    full = tuple(range(16))
    assert compose_labels(v4, v4, v4, full, full) == unit(v4, v4, full)


def test_res_then_ind_is_two_points():
    c2 = g("C2")
    ind = elementary_ind(c2, (0,))
    res = elementary_res(c2, (0,))
    out = compose_labels(res.left, c2, ind.right, res.elements, ind.elements)
    point = next(iter(out.coeffs))
    assert out.coeffs == {point: Fraction(2)}
    # and the oracle agrees on this explicit two-point biset
    assert realize_and_compose_oracle(res.left, c2, ind.right, res.elements,
                                      ind.elements) == out


def test_ind_then_res_is_free_orbit():
    c2 = g("C2")
    ind = elementary_ind(c2, (0,))
    res = elementary_res(c2, (0,))
    out = compose_labels(c2, ind.right, c2, ind.elements, res.elements)
    assert out.coeffs == {(0,): Fraction(1)}
    assert realize_and_compose_oracle(c2, ind.right, c2, ind.elements,
                                      res.elements) == out


def test_bilinearity_and_zero():
    c2 = g("C2")
    idl = identity_label(c2)
    two_id = unit(c2, c2, idl, Q).scale(Fraction(2))
    three_id = unit(c2, c2, idl, Q).scale(Fraction(3))
    assert compose(two_id, three_id) == unit(c2, c2, idl, Q).scale(Fraction(6))
    over_f2 = unit(c2, c2, idl, F2).scale(2)
    assert over_f2.coeffs == {}
    assert compose(over_f2, unit(c2, c2, idl, F2)).coeffs == {}
    zero = unit(c2, c2, idl, Q).scale(Fraction(0))
    assert compose(unit(c2, c2, idl, Q), zero).coeffs == {}


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
        x = unit(g(a), g(b), la, Q)
        y = unit(g(b), g(c), lb, Q)
        z = unit(g(c), g(d), lc, Q)
        assert compose(compose(x, y), z) == compose(x, compose(y, z))


# -- canonical basis -------------------------------------------------------------

def test_basis_counts():
    assert len(basis_labels("C2", "C2")) == 5
    assert len(basis_labels("1", "1")) == 1


def test_basis_deterministic_and_canonical():
    labs1 = basis_labels("S3", "C4")
    labs2 = space(g("S3"), g("C4")).basis()
    assert labs1 == labs2
    sp = space(g("S3"), g("C4"))
    for lab in labs1:
        assert canonical(sp.product, lab) == lab


def test_basis_counts_elementary_abelian_cube():
    assert len(basis_labels("C2^3", "C2^3")) == 2825


# -- oracle equivalence ----------------------------------------------------------

def test_oracle_of_identity():
    for name in ["C2", "S3"]:
        G, idl = g(name), identity_label(g(name))
        assert realize_and_compose_oracle(G, G, G, idl, idl) == \
            compose_labels(G, G, G, idl, idl)


def test_oracle_agreement_small_sweep():
    names = ["C2", "C3", "C2^2", "S3"]
    for a, b, c in itertools.product(names, repeat=3):
        if g(a).order * g(b).order > 24 or g(b).order * g(c).order > 24:
            continue
        for L in basis_labels(a, b):
            for M in basis_labels(b, c):
                assert compose_labels(g(a), g(b), g(c), L, M) == \
                    realize_and_compose_oracle(g(a), g(b), g(c), L, M), \
                    (a, b, c, L, M)


# -- butterfly --------------------------------------------------------------------

def test_butterfly_identity_label():
    s3 = g("S3")
    lab = identity_label(s3)
    factors = butterfly_factorize(s3, s3, lab)
    assert [f.kind for f in factors] == ["Ind", "Inf", "Iso", "Def", "Res"]
    assert compose_factors(factors) == unit(s3, s3, lab)


def test_butterfly_induction_label():
    # the label {(h,h) : h in H} with H < G composes back to itself
    d8 = g("D8")
    c2sub = next(s for s in get_lattice(d8).subgroups if len(s) == 2)
    sp = space(d8, g("C2"))
    lab = make_label(d8, g("C2"), [sp.encode(c2sub[i], i) for i in range(2)])
    factors = butterfly_factorize(d8, g("C2"), lab)
    assert compose_factors(factors) == unit(d8, g("C2"), lab)


def test_butterfly_sweep_order_eight():
    rng = random.Random(13)
    for a, b in [("C2", "C4"), ("C2^2", "C2^2"), ("S3", "C4"), ("C4", "D8")]:
        sp = space(g(a), g(b))
        lat = get_lattice(sp.product)
        reps = lat.class_reps()
        sample = reps if len(reps) <= 25 else rng.sample(reps, 25)
        for t in sample:
            assert compose_factors(butterfly_factorize(g(a), g(b), t)) == \
                unit(g(a), g(b), t)


@pytest.mark.parametrize("a,b", [("D8", "C4"), ("S3", "C2"), ("A4", "C2^2")])
def test_butterfly_factors_are_the_elementary_bisets(a, b):
    # P1 and P2 number their elements by position in the projections
    for lab in basis_labels(a, b):
        ind, inf, _, dfl, res = butterfly_factorize(g(a), g(b), lab)
        inv = product_invariants(g(a), g(b), lab)
        P1, P2 = ind.right, res.left
        K1 = [inv.p1.index(x) for x in inv.k1]
        K2 = [inv.p2.index(x) for x in inv.k2]
        assert ind == elementary_ind(g(a), inv.p1)
        assert inf == elementary_inf(P1, K1)
        assert dfl == elementary_def(P2, K2)
        assert res == elementary_res(g(b), inv.p2)


def test_inflation_label_not_left_free():
    c4 = g("C4")
    inf = elementary_inf(c4, [2, 0])
    inv = product_invariants(inf.left, inf.right, inf.elements)
    assert inv.k1 == (0, 2)


def test_elementary_bisets_check_their_subgroups():
    s3 = g("S3")
    transposition = next(s for s in get_lattice(s3).subgroups if len(s) == 2)
    assert elementary_ind(s3, transposition).right.order == 2
    with pytest.raises(PreconditionError, match="requires a normal subgroup"):
        elementary_inf(s3, transposition)
    with pytest.raises(PreconditionError, match="requires a normal subgroup"):
        elementary_def(s3, transposition)
    with pytest.raises(PreconditionError, match="closed under multiplication"):
        elementary_ind(s3, [0, 1, 2])  # two transpositions, not their product
    with pytest.raises(PreconditionError, match="contain the identity"):
        elementary_res(s3, [1])


def test_left_free_classification():
    # a label is left free exactly when its left kernel k1 is trivial
    s3, v4 = g("S3"), g("C2^2")
    assert product_invariants(s3, s3, identity_label(s3)).k1 == (0,)
    assert product_invariants(v4, v4, tuple(range(16))).k1 != (0,)


# -- trace ------------------------------------------------------------------------

def test_trace_identity_counts_conjugacy_classes():
    assert trace(identity_element(g("C2"), Q)) == 2
    assert trace(identity_element(g("1"), Q)) == 1
    # S3 has three conjugacy classes
    assert trace(identity_element(g("S3"), Q)) == 3


def test_trace_of_zero():
    zero = identity_element(g("C3"), Q).scale(Fraction(0))
    assert trace(zero) == 0


def test_trace_requires_square():
    lab = basis_labels("C2", "C3")[0]
    with pytest.raises(PreconditionError, match="square"):
        trace(unit(g("C2"), g("C3"), lab, Q))


def diagonal_orbit_count(G, lab):
    """Orbits of the diagonal on the cosets of lab in G x G, by search over
    the explicit coset space: the reference for the double-coset count."""
    sp = space(G, G)
    R = sp.realization(lab)
    mul = sp.product.mul
    diag = [sp.encode(x, x) for x in range(G.order)]
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
    G = g(name)
    for lab in basis_labels(name, name):
        assert trace_of_label(G, G, lab) == diagonal_orbit_count(G, lab)


def test_trace_centrality():
    rng = random.Random(19)
    for a, b in [("C2", "C4"), ("C2^2", "C2"), ("S3", "C2"), ("C4", "C8")]:
        lab_ab = basis_labels(a, b)
        lab_ba = basis_labels(b, a)
        for _ in range(8):
            u = rng.choice(lab_ab)
            v = rng.choice(lab_ba)
            uv = compose_labels(g(a), g(b), g(a), u, v)
            vu = compose_labels(g(b), g(a), g(b), v, u)
            assert trace(uv) == trace(vu)


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


def test_op_indices_over_lattices_memoize_nothing():
    # with both lattices built, canonical forms come from the lattice
    clear_memory_caches()
    sp, sp_op = space(g("C4"), g("D8xC6")), space(g("D8xC6"), g("C4"))
    there, back = op_indices(sp, sp_op), op_indices(sp_op, sp)
    # the reference: the least conjugate of each opposite, by brute force
    for a, b, out in ((sp, sp_op, there), (sp_op, sp, back)):
        an, bn = a.left.order, a.right.order
        mul, inv = b.product.mul, b.product.inv
        index = b.basis_index()
        for L, k in zip(a.basis(), out):
            op = [(x % bn) * an + x // bn for x in L]
            least = min(tuple(sorted(mul[mul[t][x]][inv[t]] for x in op))
                        for t in range(b.product.order))
            assert index[least] == k


@pytest.mark.parametrize("a,b", [("S3", "C4"), ("A4", "S3"), ("X(27)", "C3"),
                                 ("D8", "C6")])
def test_canonical_search_and_lattice_agree(monkeypatch, a, b):
    """Without X's lattice in the memo, ``canonical`` searches the least
    conjugate; with it, it reads the class off the lattice.  Both give the
    same answer for every subgroup of X and for a conjugate of it."""
    monkeypatch.setattr(cache, "cache_dir", None)
    clear_memory_caches()
    X = direct_product(g(a), g(b))
    queries = []
    for s in get_lattice(X).subgroups:
        queries.append(s)
        for t in range(1, X.order):
            conj = tuple(sorted(X.conj(t, x) for x in s))
            if conj != s:
                queries.append(conj)
                break
    clear_memory_caches()
    searched = [canonical(X, q) for q in queries]
    assert X.key not in lattice._LATTICE_MEMO
    get_lattice(X)
    assert [canonical(X, q) for q in queries] == searched
    assert any(q != c for q, c in zip(queries, searched))


def mackey_by_double_cosets(sp_gh, sp_hk, sp_gk, L, M):
    """The composite with one star per double coset, for any middle group:
    the reference for the one-star shortcut over an abelian middle group."""
    H = sp_gh.right
    mul, inv = H.mul, H.inv
    kn = sp_hk.right.order
    fib_l, p2l = sp_gh.fibers(L, 1)
    fib_m, p1m = sp_hk.fibers(M, 0)
    out = {}
    for h in double_coset_reps(p2l, H, p1m):
        elems = {g * kn + k for m, ks in fib_m.items()
                 for g in fib_l.get(mul[mul[h][m]][inv[h]], ()) for k in ks}
        t = canonical(sp_gk.product, elems)
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
        assert trace_of_label(G, G, t_op) == trace_of_label(G, G, t)
