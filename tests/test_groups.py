"""Group construction, lattice enumeration, and structure tests."""

import itertools
import random

import pytest

from dburnside.errors import (Budget, BudgetExceeded, GroupSpecError,
                              PreconditionError)
from dburnside.groups import (FiniteGroup, Section, Subgroup, build_group,
                              build_cyclic, direct_product, group_from_text,
                              parse_group_spec, quotient_group,
                              section_quotient, spec_to_text,
                              Cyclic, Modular, Product)
from dburnside.lattice import (_close_with_images, all_subgroups,
                               automorphisms, double_coset_reps, get_lattice,
                               is_isomorphic, section_classes,
                               subgroup_conjugacy_classes,
                               subquotients_up_to_iso)


def g(text):
    return group_from_text(text)


# -- construction -----------------------------------------------------------

def test_cyclic_six_is_abelian():
    c6 = g("C6")
    assert c6.order == 6
    assert c6.is_abelian()
    assert c6.is_cyclic()


def test_modular_two_two():
    m = g("M(2,2)")
    assert m.order == 16
    assert not m.is_abelian()
    # exponent by exhaustive element-order check
    assert max(m.element_orders()) == 4


def test_modular_presentation_relation():
    m = g("M(2,2)")
    q = 4
    a = 1 * q + 0  # generator a
    b = 0 * q + 1  # generator b
    assert m.element_order(a) == 4 and m.element_order(b) == 4
    bab = m.mul[m.mul[b][a]][m.inv[b]]
    a_pow3 = m.mul[m.mul[a][a]][a]
    assert bab == a_pow3


def test_extraspecial_27():
    x = g("X(27)")
    assert x.order == 27
    assert len(x.center()) == 3
    assert max(x.element_orders()) == 3  # exponent p
    assert not x.is_abelian()


def test_malformed_specs_rejected():
    with pytest.raises(GroupSpecError):
        build_group(Modular(2, 1))
    with pytest.raises(GroupSpecError):
        group_from_text("X(8)")  # 8 = 2^3 but p must be odd
    with pytest.raises(GroupSpecError):
        group_from_text("S5")
    with pytest.raises(GroupSpecError):
        group_from_text("Q8")
    with pytest.raises(GroupSpecError):
        group_from_text("")
    # numbers too large for a float cube root, a tuple of factors, or int()
    with pytest.raises(GroupSpecError):
        group_from_text("X(1" + "0" * 400 + ")")
    with pytest.raises(GroupSpecError):
        group_from_text("C2^10000000000000000000")
    with pytest.raises(GroupSpecError):
        group_from_text("C" + "9" * 5000)


def test_spec_parse_print_round_trip():
    for text in ["C6", "C2^3", "A4xC2", "D8", "S4", "X(27)", "M(2,2)",
                 "C2^2xC4", "C3xC5xC2"]:
        spec = parse_group_spec(text)
        assert parse_group_spec(spec_to_text(spec)) == spec


def test_parse_aliases():
    assert parse_group_spec("1") == Cyclic(1)
    assert g("1").order == 1
    assert isinstance(parse_group_spec("C2xC3"), Product)


# -- direct products --------------------------------------------------------

def test_klein_four():
    v4 = direct_product(build_cyclic(2), build_cyclic(2))
    assert v4.order == 4
    assert sum(1 for x in range(4) if v4.element_order(x) == 2) == 3


def test_product_order_arithmetic():
    big = direct_product(g("C2^3"), g("A4xC2"))
    assert big.order == 192
    assert not g("A4xC2").is_abelian()
    assert g("A4xC2").order == 24


def test_product_encoding_round_trip():
    a, b = g("C4"), g("S3")
    p = direct_product(a, b)
    for x in range(p.order):
        g1, h1 = divmod(x, b.order)
        assert g1 * b.order + h1 == x
    # componentwise multiplication
    for x, y in itertools.product(range(p.order), repeat=2):
        g1, h1 = divmod(x, b.order)
        g2, h2 = divmod(y, b.order)
        assert p.mul[x][y] == a.mul[g1][g2] * b.order + b.mul[h1][h2]


def test_product_cap_enforced():
    with pytest.raises(PreconditionError):
        direct_product(g("C16"), g("C16"), cap=100)
    # atoms are refused before their table is built
    for text in ("C5000", "D8194", "M(11,2)", "X(24389)", "C2^13",
                 "M(3,1000000)"):
        with pytest.raises(PreconditionError, match="exceeds the configured cap"):
            group_from_text(text)


# -- subgroup enumeration ---------------------------------------------------

def brute_force_subgroups(group):
    """Oracle: closure test over every subset (feasible only for tiny groups)."""
    found = set()
    elems = range(group.order)
    for r in range(1, group.order + 1):
        for subset in itertools.combinations(elems, r):
            s = set(subset)
            if 0 not in s:
                continue
            if any(group.mul[x][y] not in s for x in s for y in s):
                continue
            if any(group.inv[x] not in s for x in s):
                continue
            found.add(tuple(sorted(s)))
    return sorted(found, key=lambda t: (len(t), t))


def test_subgroups_klein_four_against_brute_force():
    v4 = g("C2^2")
    expected = brute_force_subgroups(v4)
    got = [s.elements for s in all_subgroups(v4)]
    assert got == expected
    assert len(got) == 5


def test_subgroups_s3_against_brute_force():
    s3 = g("S3")
    assert [s.elements for s in all_subgroups(s3)] == brute_force_subgroups(s3)


def galois_number(n, q=2):
    """Number of subspaces of F_q^n: the sum of Gaussian binomials."""
    def gaussian(k):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (k - i) - 1
        return num // den
    return sum(gaussian(k) for k in range(n + 1))


def test_subgroup_count_c2_cubed_squared():
    assert galois_number(6) == 2825
    c26 = g("C2^3xC2^3")
    assert len(get_lattice(c26).subgroups) == 2825


@pytest.mark.parametrize("rank,count", [(4, 67), (5, 374)])
def test_subgroup_count_elementary_abelian(rank, count):
    assert galois_number(rank) == count
    assert len(get_lattice(g(f"C2^{rank}")).subgroups) == count


def reference_subgroups(group):
    """Closure BFS from the trivial group, extending by one element of each
    right coset Hx (<H,x> = <H,hx>), with no zuppo or coset-closure tricks."""
    def closure(gens):
        seen, stack = {0}, [0]
        while stack:
            x = stack.pop()
            for y in gens:
                z = group.mul[x][y]
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        return tuple(sorted(seen))

    found = {(0,): ()}
    queue = [((0,), ())]
    while queue:
        elems, gens = queue.pop()
        covered = set(elems)
        for x in range(group.order):
            if x in covered:
                continue
            covered.update(group.mul[h][x] for h in elems)
            new = closure(gens + (x,))
            if new not in found:
                found[new] = gens + (x,)
                queue.append((new, gens + (x,)))
    return sorted(found, key=lambda t: (len(t), t))


def reference_classes(group, subgroups):
    """Orbits of the subgroup list under conjugation by every element."""
    index = {s: i for i, s in enumerate(subgroups)}
    seen = set()
    classes = []
    for i, s in enumerate(subgroups):
        if i in seen:
            continue
        cls = sorted({index[tuple(sorted(group.conj(x, y) for y in s))]
                      for x in range(group.order)})
        seen.update(cls)
        classes.append(cls)
    return classes


@pytest.mark.parametrize("name,n_subgroups,n_classes", [
    ("A5", 59, 9), ("S4xC2", 98, 33), ("A4xA4", 216, 41),
    ("D8xD8", 389, 214), ("C4^2", 15, 15), ("C2^5", 374, 374),
    ("C3xS3", 14, 9), ("X(27)", 19, 11)])
def test_lattice_matches_reference(name, n_subgroups, n_classes):
    grp = g(name)
    lat = get_lattice(grp)
    subgroups = reference_subgroups(grp)
    assert lat.subgroups == subgroups
    assert lat.classes == reference_classes(grp, subgroups)
    assert (len(lat.subgroups), len(lat.classes)) == (n_subgroups, n_classes)


def test_trivial_group_single_subgroup():
    assert len(all_subgroups(g("1"))) == 1


def test_lagrange_and_validation():
    s4 = g("S4")
    for sub in all_subgroups(s4):
        assert s4.order % len(sub) == 0
        Subgroup(s4, sub.elements)  # re-validate closure explicitly
    with pytest.raises(PreconditionError):
        Subgroup(s4, [0, 3])  # a 3-cycle without its square
    with pytest.raises(PreconditionError):
        Subgroup(s4, [3])  # missing identity


# -- conjugacy classes ------------------------------------------------------

def conjugacy_oracle(group):
    """Oracle: exhaustive conjugation orbit partition of the subgroup list."""
    subs = [s.elements for s in all_subgroups(group)]
    index = {s: i for i, s in enumerate(subs)}
    seen = set()
    classes = []
    for s in subs:
        if s in seen:
            continue
        orbit = set()
        for gg in range(group.order):
            conj = tuple(sorted(group.conj(gg, x) for x in s))
            orbit.add(conj)
        classes.append(sorted(orbit, key=lambda t: index[t]))
        seen |= orbit
    return classes


def test_conjugacy_classes_a4():
    a4 = g("A4")
    classes = subgroup_conjugacy_classes(a4)
    assert len(classes) == 5
    orders = sorted(len(c[0]) for c in classes)
    assert orders == [1, 2, 3, 4, 12]
    assert sum(len(c) for c in classes) == len(all_subgroups(a4))
    oracle = conjugacy_oracle(a4)
    got = [[m.elements for m in c] for c in classes]
    assert sorted(map(tuple, got)) == sorted(tuple(c) for c in oracle)


def test_conjugacy_classes_s4():
    assert len(subgroup_conjugacy_classes(g("S4"))) == 11


def test_abelian_classes_are_singletons():
    for name in ["C8", "C2^3", "C12"]:
        grp = g(name)
        classes = subgroup_conjugacy_classes(grp)
        assert all(len(c) == 1 for c in classes)
        assert len(classes) == len(all_subgroups(grp))


def test_class_sizes_divide_group_order():
    for name in ["A4", "S4", "D8", "D12"]:
        grp = g(name)
        for cls in subgroup_conjugacy_classes(grp):
            assert grp.order % len(cls) == 0


# -- quotients ---------------------------------------------------------------

def test_quotient_a4_by_v4_is_c3():
    a4 = g("A4")
    v4 = next(s for s in all_subgroups(a4) if len(s) == 4)
    q, proj = quotient_group(a4, v4)
    assert q.order == 3
    assert q.is_cyclic()
    # projection is a surjective homomorphism with kernel V4
    assert set(proj) == {0, 1, 2}
    for x in range(12):
        for y in range(12):
            assert proj[a4.mul[x][y]] == q.mul[proj[x]][proj[y]]
    assert sorted(x for x in range(12) if proj[x] == 0) == list(v4.elements)


def test_quotient_by_trivial_is_self():
    s3 = g("S3")
    q, _ = quotient_group(s3, Subgroup(s3, [0]))
    assert is_isomorphic(q, s3) is not None


def test_quotient_c4_by_c2():
    c4 = g("C4")
    c2 = Subgroup(c4, [0, 2])
    q, _ = quotient_group(c4, c2)
    assert q.order == 2


def test_quotient_requires_normal():
    s3 = g("S3")
    sub = next(s for s in all_subgroups(s3) if len(s) == 2)
    with pytest.raises(PreconditionError):
        quotient_group(s3, sub)


# -- isomorphism -------------------------------------------------------------

def test_c6_isomorphic_to_c2xc3():
    phi = is_isomorphic(g("C6"), g("C2xC3"))
    assert phi is not None
    a, b = g("C6"), g("C2xC3")
    for x in range(6):
        for y in range(6):
            assert phi[a.mul[x][y]] == b.mul[phi[x]][phi[y]]


def test_d16_not_isomorphic_to_modular16():
    d16, m22 = g("D16"), g("M(2,2)")
    assert d16.order == m22.order == 16
    assert d16.order_histogram() != m22.order_histogram()
    assert is_isomorphic(d16, m22) is None


def test_self_isomorphism_is_identity_ready():
    s4 = g("S4")
    assert is_isomorphic(s4, s4) == list(range(24))


def test_isomorphic_groups_same_order_histogram():
    pairs = [("C6", "C2xC3"), ("C12", "C4xC3"), ("D8", "D8")]
    for a, b in pairs:
        assert is_isomorphic(g(a), g(b)) is not None
        assert g(a).order_histogram() == g(b).order_histogram()


def test_reflexive_and_symmetric_on_catalog():
    names = ["C4", "S3", "D8", "A4", "M(2,2)"]
    for n in names:
        assert is_isomorphic(g(n), g(n)) is not None
    for a, b in itertools.combinations(names, 2):
        left = is_isomorphic(g(a), g(b)) is not None
        right = is_isomorphic(g(b), g(a)) is not None
        assert left == right


# -- automorphisms ------------------------------------------------------------

def test_automorphisms_klein_four():
    auts, inner, out = automorphisms(g("C2^2"))
    assert len(auts) == 6  # |GL(2,2)|
    assert inner == 1 and out == 6


def test_automorphisms_c9():
    auts, inner, out = automorphisms(g("C9"))
    assert out == 6  # phi(9)
    assert inner == 1


def test_automorphisms_c2():
    auts, inner, out = automorphisms(g("C2"))
    assert out == 1


def test_aut_order_product_rule():
    for name in ["S3", "D8", "A4", "C2^3"]:
        grp = g(name)
        auts, inner, out = automorphisms(grp)
        assert len(auts) == inner * out
        if grp.is_abelian():
            assert inner == 1
        assert inner == grp.order // len(grp.center())


def is_isomorphism_by_table(phi, A, B):
    """phi: A -> B is a bijection and a homomorphism on all of A's table."""
    if sorted(phi) != list(range(B.order)) or A.order != B.order:
        return False
    return all(phi[A.mul[x][y]] == B.mul[phi[x]][phi[y]]
               for x in range(A.order) for y in range(A.order))


@pytest.mark.parametrize("name,n_auts", [
    ("S4", 24), ("D8xC2", 64), ("X(27)", 432), ("M(2,2)", 32),
    ("C2^2xC4", 192)])
def test_automorphisms_are_distinct_bijective_homomorphisms(name, n_auts):
    grp = g(name)
    auts, _, _ = automorphisms(grp)
    assert len(auts) == n_auts
    assert len({tuple(a) for a in auts}) == n_auts
    assert all(is_isomorphism_by_table(a, grp, grp) for a in auts)


@pytest.mark.parametrize("a,b", [("C12", "C4xC3"), ("D8xC2", "C2xD8")])
def test_isomorphism_checked_against_full_table(a, b):
    phi = is_isomorphic(g(a), g(b))
    assert phi is not None
    assert is_isomorphism_by_table(phi, g(a), g(b))


def test_close_with_images_is_the_generated_homomorphism():
    # an element of order 3 cannot go to one of order 2
    assert _close_with_images(g("C3"), g("C2"), [1], [1]) is None
    # x -> x^2 on C4 is a homomorphism, though not injective
    c4 = g("C4")
    phi = _close_with_images(c4, c4, [1], [2])
    assert phi == {x: c4.mul[x][x] for x in range(4)}
    assert sorted(set(phi.values())) == [0, 2]


def test_automorphism_cap():
    with pytest.raises(PreconditionError):
        automorphisms(g("A4xC2"), order_cap=16)


def test_automorphism_search_is_budgeted():
    with pytest.raises(BudgetExceeded):
        automorphisms(g("C2^4"), budget=Budget(-1.0))


# -- sections -----------------------------------------------------------------

def test_sections_c2_in_c2_cubed():
    classes = section_classes(g("C2^3"))
    count = sum(1 for c in classes if len(c[0][0]) == 2 * len(c[0][1]))
    assert count == 35


def test_sections_c2_in_a4xc2():
    grp = g("A4xC2")
    classes = section_classes(grp)
    hits = [c[0] for c in classes if len(c[0][0]) == 2 * len(c[0][1])]
    # quotient must actually be C2 (order-2 quotient always is)
    assert len(hits) == 15


def test_full_section_class_is_unique():
    for name in ["S3", "C6"]:
        grp = g(name)
        classes = section_classes(grp)
        full = [c for c in classes
                if len(c[0][0]) == grp.order and len(c[0][1]) == 1]
        assert len(full) == 1


@pytest.mark.parametrize("name", ["S4", "D8xC2", "A4xC2", "C3xS3"])
def test_section_classes_match_conjugation_by_every_element(name):
    grp = g(name)
    subs = get_lattice(grp).subgroups
    pairs = {(t, s) for t in subs for s in subs
             if set(s) <= set(t)
             and all(grp.conj(x, y) in s for x in t for y in s)}
    expected = []
    while pairs:
        t, s = min(pairs)
        orbit = sorted({(tuple(sorted(grp.conj(x, y) for y in t)),
                         tuple(sorted(grp.conj(x, y) for y in s)))
                        for x in range(grp.order)})
        pairs -= set(orbit)
        expected.append(orbit)
    assert section_classes(grp) == sorted(expected)


def _subgroup_copy(G, elements):
    """A subgroup as a group of its own, numbered by position: the copy
    every subquotient was once built from."""
    pos = {x: i for i, x in enumerate(elements)}
    table = [[pos[G.mul[a][b]] for b in elements] for a in elements]
    return FiniteGroup("copy", table, check_associativity=False), pos


@pytest.mark.parametrize("name", ["S4", "A4xC2", "D8xC2", "X(27)", "C3xS3"])
def test_section_quotient_matches_quotient_of_subgroup_copy(name):
    grp = g(name)
    for cls in section_classes(grp):
        for t, s in cls:
            T, pos = _subgroup_copy(grp, t)
            ref, ref_proj = quotient_group(T, Subgroup(T, [pos[x] for x in s]))
            q, proj = section_quotient(grp, t, s)
            assert q.mul == ref.mul
            assert proj == {x: ref_proj[pos[x]] for x in t}
            sec = Section(Subgroup(grp, t), Subgroup(grp, s))
            assert sec.quotient().mul == ref.mul


def test_section_validation():
    s3 = g("S3")
    subs = all_subgroups(s3)
    c3 = next(s for s in subs if len(s) == 3)
    c2 = next(s for s in subs if len(s) == 2)
    from dburnside.groups import Section
    Section(Subgroup(s3, range(6)), c3)  # C3 normal in S3
    with pytest.raises(PreconditionError):
        Section(c3, c2)  # C2 not inside C3


# -- subquotients -------------------------------------------------------------

def test_subquotients_a4xc2():
    subq = subquotients_up_to_iso(g("A4xC2"))
    keys = sorted((q.order, q.order_histogram()) for q, _ in subq)
    expected_groups = ["1", "C2", "C3", "C2^2", "C6", "C2^3", "A4", "A4xC2"]
    expected = sorted((g(n).order, g(n).order_histogram())
                      for n in expected_groups)
    assert keys == expected
    # every witness is a genuine section of the parent
    for q, sec in subq:
        assert len(sec.T.elements) == q.order * len(sec.S.elements)


def test_subquotients_prime_cyclic():
    subq = subquotients_up_to_iso(g("C5"))
    assert [q.order for q, _ in subq] == [1, 5]


def test_subquotients_s4_contain_d8_and_s3():
    subq = subquotients_up_to_iso(g("S4"))
    assert any(is_isomorphic(q, g("D8")) is not None for q, _ in subq)
    assert any(is_isomorphic(q, g("S3")) is not None for q, _ in subq)


# -- double cosets -------------------------------------------------------------

def test_double_cosets_trivial_in_c2():
    c2 = g("C2")
    assert double_coset_reps([0], c2, [0]) == [0, 1]


def test_double_cosets_full_group():
    s3 = g("S3")
    assert double_coset_reps(range(6), s3, range(6)) == [0]


def test_double_cosets_v4_a4_c3():
    a4 = g("A4")
    v4 = next(s.elements for s in all_subgroups(a4) if len(s) == 4)
    c3 = next(s.elements for s in all_subgroups(a4) if len(s) == 3)
    assert len(double_coset_reps(v4, a4, c3)) == 1


def test_double_cosets_partition():
    rng = random.Random(11)
    s4 = g("S4")
    subs = [s.elements for s in all_subgroups(s4)]
    for _ in range(10):
        a = rng.choice(subs)
        bsub = rng.choice(subs)
        reps = double_coset_reps(a, s4, bsub)
        covered = set()
        sizes = []
        for r in reps:
            coset = {s4.mul[s4.mul[x][r]][y] for x in a for y in bsub}
            assert not coset & covered
            covered |= coset
            sizes.append(len(coset))
        assert covered == set(range(24))
        assert sum(sizes) == 24


# -- group validation invariants ----------------------------------------------

def test_exhaustive_axioms_on_catalog():
    for name in ["C6", "D8", "S4", "A4", "X(27)", "M(2,2)"]:
        grp = g(name)
        n = grp.order
        for a in range(n):
            assert grp.mul[0][a] == a == grp.mul[a][0]
            assert grp.mul[a][grp.inv[a]] == 0 == grp.mul[grp.inv[a]][a]
        rng = random.Random(3)
        for _ in range(min(500, n ** 3)):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            assert grp.mul[grp.mul[a][b]][c] == grp.mul[a][grp.mul[b][c]]


def test_broken_table_rejected():
    with pytest.raises(GroupSpecError):
        FiniteGroup("broken", [[0, 1], [1, 1]])
    with pytest.raises(GroupSpecError):
        FiniteGroup("noident", [[1, 0], [0, 1]])


def test_enumeration_budget_carries_partial_count():
    from dburnside.cache import clear_memory_caches
    from dburnside.errors import Budget, BudgetExceeded
    clear_memory_caches()
    with pytest.raises(BudgetExceeded) as exc:
        all_subgroups(g("C2^3xC2^3"), Budget(0.0))
    assert exc.value.partial_count >= 0
    clear_memory_caches()


def test_stretch_constructions():
    a5 = g("A5")
    assert a5.order == 60
    assert not a5.is_abelian()
    x125 = g("X(125)")
    assert x125.order == 125
    assert max(x125.element_orders()) == 5
    assert len(x125.center()) == 5
