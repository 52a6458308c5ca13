"""Group construction, lattice enumeration, and structure tests."""

import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from dburnside import catalog, lattice
from dburnside.bisets import space
from dburnside.cache import clear_memory_caches
from dburnside import errors
from dburnside.errors import (Budget, BudgetExceeded, GroupSpecError,
                              PreconditionError)
from dburnside.catalog import CATALOG_SPECS, catalog_group
from dburnside.groups import (DEFAULT_PRODUCT_CAP, FiniteGroup,
                              build_cyclic, conjugacy_classes, direct_product,
                              group_from_text, quotient_group,
                              section_quotient, subgroup)
from dburnside.lattice import (AUTOMORPHISM_ORDER_CAP, SubgroupLattice,
                               _close_with_images, _enumerate_subgroups,
                               _goursat_subgroups, _normal_pairs,
                               automorphisms, double_coset_reps,
                               find_quotient_isomorphic_to, get_lattice,
                               is_isomorphic, is_p_group_times_cyclic,
                               outer_automorphism_generators, section_classes,
                               section_classes_with_quotient,
                               subquotients_up_to_iso, sylow_elements)
from dburnside.numtheory import factorize


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


def test_symmetric_and_alternating_atoms_respect_the_cap():
    # 7! = 5040 and 8!/2 = 20160 are above the cap 4096
    with pytest.raises(PreconditionError):
        group_from_text("S7")
    with pytest.raises(PreconditionError):
        group_from_text("A8")
    assert group_from_text("S4").order == 24
    assert group_from_text("A5").order == 60
    # the order is refused before n! grows past the cap, however large n is
    with pytest.raises(PreconditionError):
        group_from_text("S" + "9" * 30)


def test_malformed_specs_rejected():
    with pytest.raises(GroupSpecError):
        group_from_text("M(2,1)")
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


# order and table hash of every catalog group and of the grammar's edge
# cases (the empty product 1, powers, trivial atoms, long products),
# recorded before grammar text was built straight into tables; the key
# names lattice cache files, so it must not drift
GOLDEN_KEYS = {
    "C1": (1, "36c159d76b52e03e496363607c5940227f62f4e048df344b050159bc97bba3d7"),
    "C2": (2, "469cad6b75ece6da9f6af06f766c2b4cf1dfc6b9600f261f940d1186bffa3a87"),
    "C3": (3, "34edca7c7c30227a25ff6ad2c46fda6635d51be2cf553c4eb2e1c81ba19bd579"),
    "C4": (4, "4091fa57cbd9ac603f624e37503ead8a95300ee05866e7115ba33893d4a56047"),
    "C5": (5, "669ca5aee292e0c3504d964fb83d9b8f2ded92933362490e447dd73608e125b5"),
    "C6": (6, "864a926e30280edcde38328df01e49b00299a63a0662255c5591471fc0be221c"),
    "C7": (7, "6412a0d05e8c5c2b9e68010ea5975be03d9cda97e493471aec402c1af39d5c5f"),
    "C8": (8, "cf0af149a71568b938b2a2adee8959c70264f19c62e661715cba5c165a86d1e5"),
    "C9": (9, "a0459a059506e51f6496cde491a95f8eda4b2626b5fe51b13ba1b240c7dddc4e"),
    "C10": (10, "fcfc3a71f00baac4a71b0fa456081a82cbe32b770b8710cbe21e037a18d2552d"),
    "C11": (11, "71b76fa29aa5e5225326d0bbafe807d389111974fb8613aa267bfb446d0803f5"),
    "C12": (12, "7398f124739a70c7289b74756874b4baeae1afba935b29a35803bd1209398e18"),
    "C13": (13, "5030cd055659c533bc11bc4e3f4bf98551115756d92a72b9ffe339bad2e5c009"),
    "C14": (14, "327e8d88a1bbbebdf0903cf30af64bf0c4de4407e00e3eb170c64d74d81e159b"),
    "C15": (15, "5afd075edcb496af85ffac52880f3212d40bf4a3ffa01d5fd6d7515daf0479ed"),
    "C16": (16, "a473925715c599c0cd202be935f908c1cd1efc69db85b7eab4ef02a995eccba3"),
    "C2^2": (4, "4ecdd7deab192c5d2aaa4987cfe5878742cc045417bad2eef2942c5fe1c7e943"),
    "C2^3": (8, "96ad91877156f5b617b987a4232f8d56c28585ff253360d212fde20861c80c4d"),
    "C2^4": (16, "06ad423e68d79de1d27a2ed6965544bd7a03262b9e5d36eac92bb900c5b467dd"),
    "C2xC4": (8, "4189b25b604ab02f7a213936bc09f2389728e4456b0bb9805140c085d11c5397"),
    "C3^2": (9, "e5b632fba1e0d6d3ffc6e139612e26bf4c287fbf98b22a2d06796bc8104e7235"),
    "C2xC6": (12, "693ee37458906dce120c920f2540059596212a7fa71b94550d80af4785ce1fc6"),
    "C2xC8": (16, "c2efa593d6826edba4ce86621908c2ba5790b31058232ce54682dd75e24a3edf"),
    "C4^2": (16, "2cdc8e025911fa707a8646ba953cd636620c2f931291767f3e0dfa2dfd7e6b4e"),
    "C2^2xC4": (16, "9aadb77866157dcf25aa2dc62748f89f61bf50047042965505943f0a77674605"),
    "S3": (6, "0b0a310dee21d54a49c6415d8117e5338cfd3743ad65191fa82610d0d3bbd34d"),
    "D8": (8, "d7c3720ed654f28549fa908cb9aad64fbd671bcdcd4c644cbc9e03b67163e5b0"),
    "D10": (10, "ee5a21698118bf84446c5c176fddbb2fffc038e446f2cdb3053dae3856fad7f8"),
    "D12": (12, "6d9bd64f790e9b3eb7a1835462ed2e767ad447451b39bd21727a8c4fd3788472"),
    "D16": (16, "afa1cdc1110e4ded9831de5506a41954876dd7ace48ba4b6f5beb25a84513242"),
    "A4": (12, "037bc85dc8b151d6df0f08ea90a8cb1befa6f676a5b16330a7277364dc80e4ec"),
    "M(2,2)": (16, "ea8cccf7e470ce5c7227e10de1292f0e67a22c3a923add4bff719786b72a9b47"),
    "S4": (24, "51596172d84d50df929d522e9332910f1affb8097bdf6a70dab22da18d017b6a"),
    "A4xC2": (24, "ff86e69fb6f5d8e8faaee43ae032792ab1b70fdd00bc57744beb8506cfa57720"),
    "X(27)": (27, "cb9b1ba23154d9a4d223c258ba460311bc63b167b52788b88bbfc0635d79be3c"),
    "1": (1, "36c159d76b52e03e496363607c5940227f62f4e048df344b050159bc97bba3d7"),
    "1xC2": (2, "469cad6b75ece6da9f6af06f766c2b4cf1dfc6b9600f261f940d1186bffa3a87"),
    "C1^3": (1, "36c159d76b52e03e496363607c5940227f62f4e048df344b050159bc97bba3d7"),
    "D2": (2, "469cad6b75ece6da9f6af06f766c2b4cf1dfc6b9600f261f940d1186bffa3a87"),
    "S1": (1, "36c159d76b52e03e496363607c5940227f62f4e048df344b050159bc97bba3d7"),
    "A5": (60, "a0d282aec28cb55d468ba49b078014a57302e2a8277bfb2dc2f5281449130945"),
    "M(3,2)": (81, "2a0d10eba1c4df4ff4023badadee31d4bbb23f877900b9f5636eb92afb7ef8e7"),
    "X(125)": (125, "891a3e7f1d45872206594029cbe1de0cecd61ff514c4003821b98e82ba69a9ee"),
    "C2^3xC4": (32, "39c633d5432872041b39a1d7fd488f5b04ce4e25091d700f09138306a80d83f8"),
    "C3xC5xC2": (30, "cb65bde9caf843eb3b42eb665485547c0691a22c2f11b3b33cbe9cd673fe58e8"),
    "C2^2xS3xC2": (48, "5f944e30f44e490be11f3d1ea9d8074096ee9fb7f6273f38f4dfe9e50350d2a3"),
    "S4xA4": (288, "1c679b58e18bbd54b960e73837ecfac8f028080546f7d4b51e288c2391f93119"),
    "C2xC3": (6, "bdd78002b1f311d2910b0982175bbb6d32574e73e2cebb3a0d924cfb4d6c7aed"),
}


def test_golden_keys_cover_the_catalog():
    assert set(CATALOG_SPECS) <= set(GOLDEN_KEYS)


def test_recognize_lets_a_failed_candidate_build_propagate(monkeypatch):
    """A crash while building a candidate is an error, never a missed name."""
    c2_3 = g("C2^3")  # its candidates C8, C4xC2, C2xC2xC2 are built from text
    clear_memory_caches()

    def broken(text):
        raise RuntimeError(f"cannot build {text}")

    monkeypatch.setattr(catalog, "group_from_text", broken)
    with pytest.raises(RuntimeError):
        catalog.recognize(c2_3)


def test_recognize_returns_none_outside_the_catalog():
    # order 18: no catalog entry, and not the dihedral candidate D18
    assert catalog.recognize(g("C3xS3")) is None


@pytest.mark.parametrize("text", list(GOLDEN_KEYS))
def test_golden_group_keys(text):
    G = group_from_text(text)
    assert (G.order, G.key) == GOLDEN_KEYS[text]
    assert G.name == text


# -- constructions against their entry-by-entry definitions -----------------
# The tables are built by array arithmetic; these oracles are the formulas
# they replaced, evaluated one entry at a time, and the inverses, content
# hash and abelian flag derived from the resulting lists.

def _oracle_product(G, H):
    hn = H.order
    return [[G.mul[a1][b1] * hn + H.mul[a2][b2]
             for b1 in range(G.order) for b2 in range(hn)]
            for a1 in range(G.order) for a2 in range(hn)]


def _oracle_dihedral(order):
    n = order // 2

    def mul(a, b):  # element e*n + i is s^e r^i with s r s = r^-1
        e, i = divmod(a, n)
        f, j = divmod(b, n)
        rot = (j - i if f else i + j) % n
        return ((e + f) % 2) * n + rot
    return [[mul(a, b) for b in range(order)] for a in range(order)]


def _oracle_extraspecial(p):
    def mul(x, y):  # unitriangular 3x3 matrices over F_p
        a, r = divmod(x, p * p)
        b, c = divmod(r, p)
        d, s = divmod(y, p * p)
        e, f = divmod(s, p)
        return ((a + d) % p) * p * p + ((b + e) % p) * p + (c + f + a * e) % p
    return [[mul(x, y) for y in range(p ** 3)] for x in range(p ** 3)]


def _oracle_modular(p, n):
    q, t = p ** n, 1 + p ** (n - 1)

    def mul(x, y):  # element i*q + j is a^i b^j
        i, j = divmod(x, q)
        k, l = divmod(y, q)
        return ((i + k * pow(t, j, q)) % q) * q + (j + l) % q
    return [[mul(x, y) for y in range(q * q)] for x in range(q * q)]


def _assert_group_of(G, table):
    n = len(table)
    h = hashlib.sha256(n.to_bytes(4, "little"))
    h.update(np.asarray(table, dtype="<u2").tobytes())
    assert G.mul == table
    assert G.inv == [row.index(0) for row in table]
    assert G.key == h.hexdigest()
    assert G.is_abelian() == all(table[a][b] == table[b][a]
                                 for a in range(n) for b in range(a))


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_direct_product_matches_entrywise_oracle(spec):
    """Each catalog group times itself and every later one; C1 is first."""
    G = catalog_group(spec)
    for other in CATALOG_SPECS[CATALOG_SPECS.index(spec):]:
        H = catalog_group(other)
        _assert_group_of(direct_product(G, H), _oracle_product(G, H))


def test_table_rows_share_one_int_per_element():
    """Rows of plain ints, one object per element: 8 bytes an entry."""
    x27 = g("X(27)")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        G = direct_product(x27, x27)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = G.order
    assert n == 729
    entries = [x for row in G.mul for x in row] + G.inv
    assert {type(x) for x in entries} == {int}
    assert len({id(x) for x in entries}) == n
    assert retained < 10 * n * n

_CONSTRUCTION_ORACLES = {
    **{f"D{k}": (_oracle_dihedral, k) for k in range(2, 34, 2)},
    "X(27)": (_oracle_extraspecial, 3), "X(125)": (_oracle_extraspecial, 5),
    "M(2,2)": (_oracle_modular, 2, 2), "M(2,3)": (_oracle_modular, 2, 3),
    "M(3,2)": (_oracle_modular, 3, 2),
}


@pytest.mark.parametrize("text", list(_CONSTRUCTION_ORACLES))
def test_construction_matches_entrywise_oracle(text):
    oracle, *args = _CONSTRUCTION_ORACLES[text]
    _assert_group_of(group_from_text(text), oracle(*args))


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
        direct_product(g("C64"), g("C128"))
    # atoms are refused before their table is built
    # C<n>^<k> checks n first: n^k of a 4000-digit n is too long to print
    for text in ("C5000", "D8194", "M(11,2)", "X(24389)", "C2^13",
                 "M(3,1000000)", "C" + "9" * 4000 + "^64"):
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
    got = get_lattice(v4).subgroups
    assert got == expected
    assert len(got) == 5


def test_subgroups_s3_against_brute_force():
    s3 = g("S3")
    assert get_lattice(s3).subgroups == brute_force_subgroups(s3)


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
    """Both routes: a product's lattice comes by Goursat's lemma, so zuppo
    extension is checked on its table directly."""
    grp = g(name)
    lat = get_lattice(grp)
    subgroups = reference_subgroups(grp)
    assert lat.subgroups == subgroups
    assert _enumerate_subgroups(grp) == subgroups
    assert lat.classes == reference_classes(grp, subgroups)
    assert (len(lat.subgroups), len(lat.classes)) == (n_subgroups, n_classes)


def swapped(subgroups, G, H):
    """Subgroups of G x H carried to H x G by (g, h) -> (h, g), sorted."""
    hn, gn = H.order, G.order
    moved = [tuple(sorted((x % hn) * gn + x // hn for x in s))
             for s in subgroups]
    return sorted(moved, key=lambda t: (len(t), t))


def test_goursat_route_matches_zuppo_extension():
    """Every ordered pair of nontrivial catalog groups with |G||H| <= 192.

    G x H is checked against zuppo extension on the product, and H x G
    against that list with the factors swapped, which halves the oracle's
    cost.
    """
    specs = [s for s in CATALOG_SPECS if catalog_group(s).order > 1]
    checked = 0
    for i, a in enumerate(specs):
        for b in specs[i:]:
            G, H = catalog_group(a), catalog_group(b)
            if G.order * H.order > 192:
                continue
            ref = _enumerate_subgroups(direct_product(G, H))
            assert _goursat_subgroups(G, H) == ref, (a, b)
            assert _goursat_subgroups(H, G) == \
                swapped(ref, G, H), (b, a)
            checked += 1 if a == b else 2
    assert checked == 928


@pytest.mark.parametrize("left,right", [("S4", "A4"), ("A4", "S4"),
                                        ("S4", "S4")])
def test_goursat_lattice_matches_zuppo_extension(monkeypatch, left, right):
    """A product carries its factors whether made by ``direct_product`` or
    typed as text, so its lattice comes by Goursat's lemma: zuppo
    extension sees the factors only, never the product."""
    G, H = g(left), g(right)
    real = lattice._enumerate_subgroups
    made = direct_product(G, H)
    ref = SubgroupLattice(made, real(made))
    enumerated = []

    def spied(X):
        enumerated.append(X.order)
        return real(X)

    monkeypatch.setattr(lattice, "_enumerate_subgroups", spied)
    for P in (made, g(f"{left}x{right}")):
        clear_memory_caches()
        enumerated.clear()
        lat = get_lattice(P)
        assert set(enumerated) == {G.order, H.order}
        assert lat.subgroups == ref.subgroups
        assert lat.classes == ref.classes


def test_product_cap_keeps_shared_types_within_the_automorphism_cap():
    # a quotient type shared by two nontrivial factors has order at most
    # min(|G|, |H|) <= sqrt(DEFAULT_PRODUCT_CAP): Goursat's lemma can list
    # its automorphisms for every product that may be built
    assert DEFAULT_PRODUCT_CAP <= AUTOMORPHISM_ORDER_CAP ** 2


@pytest.mark.parametrize("left,right", [("C1", "S4"), ("S4", "C1")])
def test_trivial_factor_takes_zuppo_extension(monkeypatch, left, right):
    clear_memory_caches()
    calls = []
    real = lattice._goursat_subgroups

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lattice, "_goursat_subgroups", counted)
    G, H = g(left), g(right)
    P = direct_product(G, H)
    s4 = g("S4")
    assert P.key == s4.key  # the product's table is S4's own
    assert P.factors is None
    lat = get_lattice(P)
    assert not calls
    assert lat.subgroups == _enumerate_subgroups(s4)
    assert get_lattice(s4) is lat


def test_trivial_factor_keeps_the_other_factors():
    """A product with a trivial factor has the other factor's table, so it
    carries that factor's factors and takes the same route."""
    G, c1 = g("A4xC2"), g("C1")
    for P in (direct_product(G, c1), direct_product(c1, G)):
        assert P.key == G.key
        assert P.factors is G.factors


def test_product_basis_is_budgeted(monkeypatch):
    clear_memory_caches()  # memoized lattices would skip every check
    monkeypatch.setattr(errors, "budget", Budget(0.0))
    with pytest.raises(BudgetExceeded):
        space(g("S4"), g("S4")).basis()
    clear_memory_caches()


def test_trivial_group_single_subgroup():
    assert get_lattice(g("1")).subgroups == [(0,)]


def test_lagrange_and_validation():
    s4 = g("S4")
    for sub in get_lattice(s4).subgroups:
        assert s4.order % len(sub) == 0
        assert subgroup(s4, sub) == sub  # re-validate closure explicitly
    with pytest.raises(PreconditionError):
        subgroup(s4, [0, 3])  # a 3-cycle without its square
    with pytest.raises(PreconditionError):
        subgroup(s4, [3])  # missing identity


# Not a group: a loop of order 5 (a Latin square with a two-sided identity
# and inverses, not associative) whose subloop {0, 1} has order 2.
_LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
          [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("group,elements,expected", [
    ("S4", [3], "subgroup must contain the identity"),
    ("C2xC4", [0, 99], "element 99 outside parent group"),
    ("C2xC4", [-1, 0], "element -1 outside parent group"),
    ("S3", [0, 3], "subset not closed under inversion"),
    ("S3", [0, 1, 2], "subset not closed under multiplication"),
    ("loop", [0, 1], "subgroup order must divide the group order"),
    # accepted input is made int, deduplicated and sorted
    ("S3", [4, 0, 3, 4, 0], (0, 3, 4)),
    ("S3", (5.0, 0, "0"), (0, 5)),
    ("S3", range(5, -1, -1), (0, 1, 2, 3, 4, 5)),
])
def test_subgroup_check(group, elements, expected):
    grp = (FiniteGroup("loop", _LOOP5, check_associativity=False)
           if group == "loop" else g(group))
    if isinstance(expected, tuple):
        assert subgroup(grp, elements) == expected
        return
    with pytest.raises(PreconditionError) as exc:
        subgroup(grp, elements)
    assert str(exc.value) == expected


# -- conjugacy classes ------------------------------------------------------

def conjugacy_oracle(group):
    """Oracle: exhaustive conjugation orbit partition of the subgroup list."""
    subs = get_lattice(group).subgroups
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
    lat = get_lattice(g("A4"))
    assert len(lat.classes) == 5
    orders = sorted(len(lat.subgroups[c[0]]) for c in lat.classes)
    assert orders == [1, 2, 3, 4, 12]
    assert sum(len(c) for c in lat.classes) == len(lat.subgroups)
    oracle = conjugacy_oracle(lat.group)
    got = [tuple(lat.subgroups[i] for i in c) for c in lat.classes]
    assert sorted(got) == sorted(tuple(c) for c in oracle)


def test_conjugacy_classes_s4():
    assert len(get_lattice(g("S4")).classes) == 11


def test_abelian_classes_are_singletons():
    for name in ["C8", "C2^3", "C12"]:
        lat = get_lattice(g(name))
        assert all(len(c) == 1 for c in lat.classes)
        assert len(lat.classes) == len(lat.subgroups)


@pytest.mark.parametrize("name", ["S4", "D8xC2", "A4xS3", "X(27)"])
def test_conjugation_moves_each_subgroup_by_each_generator(name):
    grp = g(name)
    lat = get_lattice(grp)
    gens = lattice.generating_sequence(grp)
    assert len(lat.conjugation) == len(gens)
    for x, perm in zip(gens, lat.conjugation):
        assert [lat.subgroups[j] for j in perm] == [
            tuple(sorted(grp.conj(x, y) for y in s)) for s in lat.subgroups]
    assert get_lattice(g("C2xC4")).conjugation == []  # abelian: no lists


def test_section_classes_of_a_lattice_read_from_its_file(tmp_path,
                                                         monkeypatch):
    """A lattice read from its file has its classes but no conjugation
    permutations yet; section_classes builds them on first use and finds
    the classes of a computed lattice."""
    from dburnside import cache
    grp = g("S4xC2")
    monkeypatch.setattr(cache, "cache_dir", None)
    clear_memory_caches()
    expected = section_classes(grp)
    cache.save_lattice(tmp_path, get_lattice(grp))
    clear_memory_caches()
    monkeypatch.setattr(cache, "cache_dir", tmp_path)
    lat = get_lattice(grp)
    assert "conjugation" not in vars(lat)  # read, not computed
    assert section_classes(grp) == expected
    assert "conjugation" in vars(lat)
    clear_memory_caches()


@pytest.mark.parametrize("name,k", [("1", 1), ("C6", 6), ("S3", 3),
                                    ("D8", 5), ("A4", 4), ("D12", 6),
                                    ("S4", 5), ("X(27)", 11)])
def test_conjugacy_classes_of_elements(name, k):
    grp = g(name)
    cls = conjugacy_classes(grp).tolist()
    assert max(cls) + 1 == k
    # classes numbered in the order of their least elements, each the set
    # of conjugates of any of its elements
    assert [cls.index(c) for c in range(k)] == sorted(
        cls.index(c) for c in range(k))
    for y in range(grp.order):
        assert {x for x in range(grp.order) if cls[x] == cls[y]} == {
            grp.conj(x, y) for x in range(grp.order)}


def test_class_sizes_divide_group_order():
    for name in ["A4", "S4", "D8", "D12"]:
        grp = g(name)
        for cls in get_lattice(grp).classes:
            assert grp.order % len(cls) == 0


# -- quotients ---------------------------------------------------------------

def test_quotient_a4_by_v4_is_c3():
    a4 = g("A4")
    v4 = next(s for s in get_lattice(a4).subgroups if len(s) == 4)
    q, proj = quotient_group(a4, v4)
    assert q.order == 3
    assert q.is_cyclic()
    # projection is a surjective homomorphism with kernel V4
    assert set(proj) == {0, 1, 2}
    for x in range(12):
        for y in range(12):
            assert proj[a4.mul[x][y]] == q.mul[proj[x]][proj[y]]
    assert tuple(x for x in range(12) if proj[x] == 0) == v4


def test_quotient_by_trivial_is_self():
    s3 = g("S3")
    q, _ = quotient_group(s3, [0])
    assert is_isomorphic(q, s3) is not None


def test_quotient_c4_by_c2():
    c4 = g("C4")
    q, _ = quotient_group(c4, [2, 0])
    assert q.order == 2


def test_quotient_requires_normal():
    s3 = g("S3")
    sub = next(s for s in get_lattice(s3).subgroups if len(s) == 2)
    with pytest.raises(PreconditionError, match="requires a normal subgroup"):
        quotient_group(s3, sub)
    with pytest.raises(PreconditionError, match="closed under inversion"):
        quotient_group(s3, [0, 3])  # a 3-cycle without its square


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
        automorphisms(g("C2^7"))  # order 128, above the cap 64


@pytest.mark.parametrize("name", ["C2^4", "C3^3", "C2^5"])
def test_no_outer_generators_above_the_search_cap(monkeypatch, name):
    """Where the search could try more than AUTOMORPHISM_SEARCH_CAP image
    tuples, the answer is [] at once: Aut is never listed."""
    def listed(G):
        raise AssertionError(f"Aut({G.name}) listed")
    monkeypatch.setattr(lattice, "automorphisms", listed)
    assert outer_automorphism_generators(g(name)) == []
    with pytest.raises(AssertionError):  # C2^3: 343 tuples, below the cap
        outer_automorphism_generators(g("C2^3"))


def test_isomorphism_search_is_budgeted_and_not_memoized(monkeypatch):
    c6, c2c3 = g("C6"), g("C2xC3")
    clear_memory_caches()
    with monkeypatch.context() as m:
        m.setattr(errors, "budget", Budget(-1.0))
        with pytest.raises(BudgetExceeded):
            is_isomorphic(c6, c2c3)
    assert (c6.key, c2c3.key) not in lattice._ISO_MEMO
    assert is_isomorphic(c6, c2c3) is not None
    assert (c6.key, c2c3.key) in lattice._ISO_MEMO


def test_quotient_search_is_budgeted(monkeypatch):
    clear_memory_caches()  # a memoized lattice would skip every check
    monkeypatch.setattr(errors, "budget", Budget(0.0))
    with pytest.raises(BudgetExceeded):
        find_quotient_isomorphic_to(g("S4"), g("S3"))
    clear_memory_caches()


def test_automorphism_search_is_budgeted(monkeypatch):
    """A search cut short stores nothing; a completed one is memoized."""
    clear_memory_caches()  # a memoized search would skip every check
    searches = []
    real = lattice._iso_search

    def spied(*args, **kwargs):
        searches.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice, "_iso_search", spied)
    c2_4 = g("C2^4")
    with monkeypatch.context() as m:
        m.setattr(errors, "budget", Budget(-1.0))
        with pytest.raises(BudgetExceeded):
            automorphisms(c2_4)
    assert c2_4.key not in lattice._AUT_MEMO
    first = automorphisms(c2_4)
    assert len(searches) == 2
    assert automorphisms(c2_4) is first
    assert len(searches) == 2  # the second call ran no search
    assert first[2] == 20160  # |GL(4,2)|


def _sylow_counts_full(G, t):
    """Each list of ``sylow_elements`` has q^k elements: t is nilpotent."""
    return all(len(els) == q ** k for q, k, els in sylow_elements(G, t))


def test_sylow_of_a_q_group_is_the_group_itself(monkeypatch):
    """A q-group is its own Sylow q-subgroup, returned unscanned, and no
    nilpotency or p-group times cyclic check reads a lattice."""
    s4 = g("S4")
    d8 = next(s for s in get_lattice(s4).subgroups if len(s) == 8)
    c3 = next(s for s in get_lattice(s4).subgroups if len(s) == 3)

    def no_lattice(G):
        raise AssertionError("lattice read")
    monkeypatch.setattr(lattice, "get_lattice", no_lattice)
    full = tuple(range(32))
    assert sylow_elements(g("D8xC2^2"), full)[0][2] is full
    assert sylow_elements(s4, d8) == [(2, 3, d8)]
    assert sylow_elements(s4, d8)[0][2] is d8
    assert sylow_elements(s4, c3) == [(3, 1, c3)]
    assert sylow_elements(s4, (0,)) == []
    assert _sylow_counts_full(s4, d8)
    assert not _sylow_counts_full(s4, tuple(range(24)))
    assert is_p_group_times_cyclic(s4, c3, 3)
    d8xc3 = tuple(range(24))
    assert is_p_group_times_cyclic(g("D8xC3"), d8xc3, 2)
    assert not is_p_group_times_cyclic(g("D8xC3"), d8xc3, 3)


@pytest.mark.parametrize("name", ["S4", "D8xC2", "X(27)", "D8xC3",
                                  "X(27)xC2", "A4xC2", "C3xS3"])
def test_nilpotent_section_means_every_sylow_is_normal(name):
    """The reference lists every Sylow subgroup of each T among the
    subgroups of G and checks that each is normal in T; T is a p-group
    times a cyclic group when, besides, each Sylow q-subgroup for q != p
    holds an element of its own order."""
    grp = g(name)
    mul, inv = grp.mul, grp.inv
    subs = get_lattice(grp).subgroups
    tops = {t for cls in section_classes(grp) for t, _ in cls}
    for t in sorted(tops):
        orders = {q ** k for q, k in factorize(len(t))}
        sylows = [s for s in subs
                  if len(s) in orders and set(s) <= set(t)]
        normal = all(mul[mul[x][y]][inv[x]] in s
                     for s in sylows for x in t for y in s)
        assert _sylow_counts_full(grp, t) == normal, t
        for p, _ in factorize(grp.order):
            cyclic = all(any(len(s) == q ** k and len(s) in
                             [grp.element_order(x) for x in s]
                             for s in sylows)
                         for q, k in factorize(len(t)) if q != p)
            assert is_p_group_times_cyclic(grp, t, p) == (
                normal and cyclic), (t, p)


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


@pytest.mark.parametrize("name", ["S4", "A4xC2", "D8xC2"])
@pytest.mark.parametrize("quotient", ["C2", "C3"])
def test_prime_quotient_classes_are_decided_by_order(monkeypatch, name,
                                                     quotient):
    """Every group of prime order p is C_p: the classes with |T| = p|S|,
    found without building any T/S."""
    grp, P = g(name), g(quotient)
    expected = [c for c in section_classes(grp)
                if len(c[0][0]) == P.order * len(c[0][1])]

    def no_quotient(*args):
        raise AssertionError("T/S built")
    monkeypatch.setattr(lattice, "section_quotient", no_quotient)
    assert section_classes_with_quotient(grp, P) == expected


@pytest.mark.parametrize("name, quotients", [
    ("S4xS3", ["C2", "C3", "C2^2", "C4", "S3", "C6", "A4"]),
    ("C2^4", ["C2", "C2^2", "C4", "C2^3"]),
    ("D8xC6", ["C2", "C2^2", "C4", "C6", "D8", "C2xC6"])])
def test_quotient_classes_match_a_filter_of_all_classes(name, quotients):
    """Filtering the normal pairs by |T/S| before taking orbits keeps the
    classes, since conjugation keeps |T/S|: the same lists as a filter of
    every section class."""
    grp = g(name)
    every = section_classes(grp)
    for P in map(g, quotients):
        assert section_classes(grp, P.order) == [
            c for c in every if P.order * len(c[0][1]) % len(c[0][0]) == 0]
        assert section_classes_with_quotient(grp, P) == [
            c for c in every if len(c[0][0]) == P.order * len(c[0][1])
            and is_isomorphic(section_quotient(grp, *c[0])[0], P) is not None]


def test_full_section_class_is_unique():
    for name in ["S3", "C6"]:
        grp = g(name)
        classes = section_classes(grp)
        full = [c for c in classes
                if len(c[0][0]) == grp.order and len(c[0][1]) == 1]
        assert len(full) == 1


@pytest.mark.parametrize("name", ["S4", "D8xC2", "C2^3"])
def test_normal_pairs_match_the_definition(name):
    """Every (T, S) with S normal in T; a divisor keeps those whose
    quotient order divides it, in the same order."""
    grp = g(name)
    lat = get_lattice(grp)
    subs = lat.subgroups
    full = [(ti, si) for ti, t in enumerate(subs) for si, s in enumerate(subs)
            if set(s) <= set(t) and all(grp.conj(x, y) in s
                                        for x in t for y in s)]
    assert _normal_pairs(grp, lat) == full
    for n in (2, 6):
        assert _normal_pairs(grp, lat, n) == [
            (ti, si) for ti, si in full
            if n % (len(subs[ti]) // len(subs[si])) == 0]


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
            ref, ref_proj = quotient_group(T, [pos[x] for x in s])
            q, proj = section_quotient(grp, t, s)
            assert q.mul == ref.mul
            assert proj == {x: ref_proj[pos[x]] for x in t}


# -- subquotients -------------------------------------------------------------

def test_subquotients_a4xc2():
    subq = subquotients_up_to_iso(g("A4xC2"))
    keys = sorted((q.order, q.order_histogram()) for q, _ in subq)
    expected_groups = ["1", "C2", "C3", "C2^2", "C6", "C2^3", "A4", "A4xC2"]
    expected = sorted((g(n).order, g(n).order_histogram())
                      for n in expected_groups)
    assert keys == expected
    # every witness is a genuine section of the parent
    grp = g("A4xC2")
    for q, (t, s) in subq:
        assert subgroup(grp, t) == t and subgroup(grp, s) == s
        assert len(t) == q.order * len(s)
        assert is_isomorphic(section_quotient(grp, t, s)[0], q) is not None


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
    v4 = next(s for s in get_lattice(a4).subgroups if len(s) == 4)
    c3 = next(s for s in get_lattice(a4).subgroups if len(s) == 3)
    assert len(double_coset_reps(v4, a4, c3)) == 1


def test_double_cosets_partition():
    rng = random.Random(11)
    s4 = g("S4")
    subs = get_lattice(s4).subgroups
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


@pytest.mark.parametrize("table,check,expected", [
    ([], True, "empty multiplication table"),
    ([[0, 1], [1]], True, "t: malformed table row"),
    ([[0], [1]], True, "t: malformed table row"),
    ([[0, 1], [1, -1]], True, "t: malformed table row"),
    ([[0, 1], [1, 2]], True, "t: malformed table row"),
    ([[0, 1], [0, 1]], True, "t: 0 is not a two-sided identity"),
    ([[0, 0], [1, 1]], True, "t: 0 is not a two-sided identity"),
    (_LOOP5, True, "t: multiplication not associative"),
    # a monoid (max on {0, 1, 2}): associative, but 1 and 2 are not units
    ([[0, 1, 2], [1, 1, 2], [2, 2, 2]], True, "t: element 1 has no inverse"),
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], False, "t: one-sided inverse at 1"),
    # the least element with either inverse fault is the one reported
    ([[0, 1, 2], [1, 1, 1], [2, 0, 0]], False, "t: element 1 has no inverse"),
    ([[0, 1, 2], [1, 2, 0], [2, 1, 1]], False, "t: one-sided inverse at 1"),
    # non-integer entries are refused before anything indexes with them
    ([[0.0, 1.0], [1.0, 0.0]], True, "t: malformed table row"),
    ([["0", "1"], ["1", "0"]], True, "t: malformed table row"),
    ([[False]], True, "t: malformed table row"),
    ([[False, True], [True, False]], False, "t: malformed table row"),
])
def test_table_rejection_message(table, check, expected):
    with pytest.raises(GroupSpecError) as exc:
        FiniteGroup("t", table, check_associativity=check)
    assert str(exc.value) == expected


def test_enumeration_budget_carries_partial_count(monkeypatch):
    clear_memory_caches()
    monkeypatch.setattr(errors, "budget", Budget(0.0))
    with pytest.raises(BudgetExceeded, match="subgroup enumeration"):
        get_lattice(g("C2^3xC2^3"))
    clear_memory_caches()


def test_stretch_constructions():
    a5 = g("A5")
    assert a5.order == 60
    assert not a5.is_abelian()
    x125 = g("X(125)")
    assert x125.order == 125
    assert max(x125.element_orders()) == 5
    assert len(x125.center()) == 5
