"""Command-line interface: verbs, exit codes, JSON determinism, caching."""

import hashlib
import json

import pytest

from dburnside import cli
from dburnside.bisets import canonical_basis
from dburnside.errors import Budget, BudgetExceeded
from dburnside.cli import main
from dburnside.groups import group_from_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def without_meta(payload):
    return {k: v for k, v in payload.items() if k != "meta"}


# -- exit codes ---------------------------------------------------------------

def test_generates_exit_codes(capsys):
    assert run(capsys, "generates", "C2", "C2", "--char", "5")[0] == 0
    assert run(capsys, "generates", "C2xC2", "A4")[0] == 1
    assert run(capsys, "generates", "C3", "A4")[0] == 0


def test_budget_exhaustion_exit_code(capsys):
    from dburnside.cache import clear_memory_caches
    clear_memory_caches()  # a memoized conclusive answer would short-circuit
    code, _ = run(capsys, "generates", "C2xC2", "A4", "--budget", "0s")
    assert code == 2


class ExpireOnSpanCheck(Budget):
    """Never expires, except at the nth check inside the product span."""

    def __init__(self, n):
        super().__init__(None)
        self.left = n

    def check(self, what, partial=0):
        if what == "product span":
            self.left -= 1
            if self.left == 0:
                raise BudgetExceeded(f"budget exhausted during {what}", partial)
        super().check(what, partial)


def test_budget_in_product_span_reports_real_rank(capsys, monkeypatch):
    from dburnside.cache import clear_memory_caches
    clear_memory_caches()  # a memoized conclusive answer would short-circuit
    monkeypatch.setattr(cli, "Budget", lambda seconds: ExpireOnSpanCheck(10))
    code, payload = run_json(capsys, "generates", "C2xC2", "A4", "--char", "0")
    assert code == 2
    result = payload["result"]
    assert result["status"] == "inconclusive"
    assert result["products_tried"] == 9 * 64  # checked every 64 products
    H = group_from_text("C2xC2")
    dim = len(canonical_basis(H, H))
    assert 0 < result["rank_reached"] <= min(result["products_tried"], dim)


def test_usage_errors(capsys):
    assert main(["generates", "C2(", "A4"]) == 3
    assert main(["generates", "Q8", "A4"]) == 3
    assert main(["basis", "C2", "C2", "--char", "4"]) == 3
    assert main([]) == 3
    assert main(["nv", "C2", "--threads", "0"]) == 3


def test_precondition_exit_code(capsys):
    # excluded quotient type for the dimension count
    assert main(["simple-dim", "C2xC2", "A4"]) == 4
    # submodule analysis outside cyclic p-groups
    assert main(["burnside-module", "C6", "--char", "4"]) == 3


def test_semisimple_exits(capsys):
    assert run(capsys, "semisimple", "C6")[0] == 0
    assert run(capsys, "semisimple", "C2xC2")[0] == 1
    assert run(capsys, "semisimple", "C3", "--char", "2")[0] == 1


def test_ssd_exits(capsys):
    assert run(capsys, "ssd", "M(2,2)")[0] == 0
    assert run(capsys, "ssd", "D8")[0] == 1


def test_nv_exits(capsys):
    assert run(capsys, "nv", "C6", "--char", "3")[0] == 0
    assert run(capsys, "nv", "A4")[0] == 1


# -- command payloads -----------------------------------------------------------

def test_basis_counts(capsys):
    code, payload = run_json(capsys, "basis", "C2", "C2")
    assert code == 0
    assert payload["result"]["count"] == 5
    code, payload = run_json(capsys, "basis", "1", "1")
    assert payload["result"]["count"] == 1


def test_basis_lists_invariants(capsys):
    _, payload = run_json(capsys, "basis", "C2", "C3")
    for entry in payload["result"]["labels"]:
        assert set(entry) == {"index", "subgroup", "p1", "p2", "k1", "k2",
                              "q_order"}


def test_compose_identity(capsys):
    _, payload = run_json(capsys, "compose", "C2", "C2", "C2",
                          "--left", "4", "--right", "4")
    # label index 4 is the diagonal (largest subgroups sort last)
    assert payload["result"]["terms"]


def test_butterfly_roundtrip(capsys):
    code, payload = run_json(capsys, "butterfly", "C4", "D8", "--label", "0")
    assert code == 0
    assert payload["result"]["recomposes"] is True
    kinds = [f["kind"] for f in payload["result"]["factors"]]
    assert kinds == ["Ind", "Inf", "Iso", "Def", "Res"]


def test_nv_payload_names_failing_subquotient(capsys):
    code, payload = run_json(capsys, "nv", "A4", "--char", "3")
    assert code == 1
    assert payload["result"]["overall"] is False
    failing = [v["subquotient"] for v in payload["result"]["subquotients"]
               if v["status"] == "not-generated"]
    assert failing == ["C2^2"]


def test_simple_dim_payload(capsys):
    code, payload = run_json(capsys, "simple-dim", "C2", "C2^3")
    assert code == 0
    assert payload["result"]["dim"] == 35
    code, payload = run_json(capsys, "simple-dim", "C2", "A4xC2")
    assert payload["result"] == {"dim": 14, "raw_section_classes": 15,
                                 "excluded": 1}


def test_sections_payload(capsys):
    _, payload = run_json(capsys, "sections", "A4xC2", "--quotient", "C2")
    assert payload["result"]["count"] == 15


def test_trace_gram_payload(capsys):
    _, payload = run_json(capsys, "trace-gram", "C2")
    assert payload["result"] == {"rank": 4, "dim": 5, "degenerate": True}


def test_essential_out_payload(capsys):
    _, payload = run_json(capsys, "essential-out", "C2^2")
    assert payload["result"]["essential_dim"] == 6
    assert payload["result"]["out_order"] == 6
    assert payload["result"]["agree"] is True


def test_burnside_module_payload(capsys):
    _, payload = run_json(capsys, "burnside-module", "C4")
    assert payload["result"]["closed_form_agrees"] is True
    assert len(payload["result"]["module_basis"]) == 3


# -- certificates ------------------------------------------------------------------

def test_verify_roundtrip(tmp_path, capsys):
    code, payload = run_json(capsys, "generates", "C3", "A4")
    assert code == 0
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert run(capsys, "verify", str(report))[0] == 0


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    _, payload = run_json(capsys, "generates", "C2", "C4")
    cert = payload["result"]["certificate"]
    cert["terms"][0]["coeff"] = "7"
    report = tmp_path / "bad.json"
    report.write_text(json.dumps(payload))
    assert run(capsys, "verify", str(report))[0] == 1


def test_verify_span_certificate(tmp_path, capsys):
    _, payload = run_json(capsys, "generates", "C2", "A4", "--char", "2")
    assert payload["result"]["via"] == "span"
    report = tmp_path / "span.json"
    report.write_text(json.dumps(payload))
    assert run(capsys, "verify", str(report))[0] == 0


def test_verify_usage_error_on_missing_file(capsys):
    assert main(["verify", "/nonexistent/report.json"]) == 3


# certificate edits that must read as a usage error, not an internal one
MALFORMED = {
    "no-G": lambda cert: cert.pop("G"),
    "term-without-w": lambda cert: cert["terms"][0].pop("w"),
    "coeff-abc": lambda cert: cert["terms"][0].update(coeff="abc"),
    "coeff-1/0": lambda cert: cert["terms"][0].update(coeff="1/0"),
    "char-x": lambda cert: cert.update(char="x"),
}


@pytest.mark.parametrize("edit", list(MALFORMED.values()), ids=list(MALFORMED))
def test_verify_malformed_certificate_is_a_usage_error(tmp_path, capsys, edit):
    _, payload = run_json(capsys, "generates", "C2", "A4", "--char", "2")
    edit(payload["result"]["certificate"])
    report = tmp_path / "malformed.json"
    report.write_text(json.dumps(payload))
    assert main(["verify", str(report)]) == 3
    err = capsys.readouterr().err
    assert "malformed certificate" in err and "internal error" not in err


# -- determinism ---------------------------------------------------------------------

DETERMINISM_COMMANDS = [
    ("basis", "C2", "C2^2"),
    ("generates", "C2xC2", "A4"),
    ("nv", "C6",),
    ("semisimple", "C6"),
    ("ssd", "D8"),
    ("simple-dim", "C2", "A4xC2"),
    ("sections", "C2^3", "--quotient", "C2"),
    ("trace-gram", "C3"),
    ("burnside-module", "C9", "--char", "3"),
    ("essential-out", "C9"),
]


@pytest.mark.parametrize("argv", DETERMINISM_COMMANDS,
                         ids=lambda a: a[0])
def test_json_deterministic_across_threads_and_seeds(capsys, argv):
    _, first = run_json(capsys, *argv, "--threads", "1", "--seed", "1")
    _, second = run_json(capsys, *argv, "--threads", "4", "--seed", "99")
    assert json.dumps(without_meta(first), sort_keys=False) == \
        json.dumps(without_meta(second), sort_keys=False)
    assert first["meta"]["threads"] == 1
    assert second["meta"]["threads"] == 4


# -- caching -----------------------------------------------------------------------

def test_cold_and_warm_cache_verdicts_identical(tmp_path, capsys):
    from dburnside.cache import clear_memory_caches
    cache = tmp_path / "cache"
    argv = ("generates", "C2xC2", "A4", "--cache-dir", str(cache))
    clear_memory_caches()  # simulate a fresh process with an empty disk cache
    code1, cold = run_json(capsys, *argv)
    assert (cache / "lattice").is_dir()
    files_after_cold = sorted(p.name for p in (cache / "lattice").iterdir())
    clear_memory_caches()  # fresh process again, now with a warm disk cache
    code2, warm = run_json(capsys, *argv)
    assert code1 == code2 == 1
    assert without_meta(cold) == without_meta(warm)
    assert sorted(p.name for p in (cache / "lattice").iterdir()) == \
        files_after_cold


def _reseal(payload):
    return payload + hashlib.sha256(payload).digest()


def _flip_payload_byte(data):
    return data[:20] + bytes([data[20] ^ 0x01]) + data[21:]


def _with_u32(data, offset, value):
    """Overwrite one header field and seal the file again."""
    return _reseal(data[:offset] + value.to_bytes(4, "little")
                   + data[offset + 4:-32])


# each corruption of a good file, with the reason the warning gives
CORRUPTIONS = {
    "truncated": (lambda data: data[:len(data) // 2], "checksum mismatch"),
    "flipped payload byte": (_flip_payload_byte, "checksum mismatch"),
    "wrong magic": (lambda data: b"XXXX" + data[4:], "wrong magic"),
    "wrong version": (lambda data: _with_u32(data, 4, 1),
                      "format version 1, expected 2"),
    "wrong group order": (lambda data: _with_u32(data, 8, 7),
                          "group order differs"),
    "trailing bytes": (lambda data: _reseal(data[:-32] + b"\0" * 4),
                       "4 trailing bytes"),
}


@pytest.mark.parametrize("corrupt", list(CORRUPTIONS), ids=list(CORRUPTIONS))
def test_corrupt_lattice_cache_is_recomputed(tmp_path, capsys, corrupt):
    from dburnside.cache import clear_memory_caches
    cache = tmp_path / "cache"
    argv = ("generates", "C2xC2", "A4", "--cache-dir", str(cache))
    clear_memory_caches()
    code_cold, cold = run_json(capsys, *argv)
    victim = max((cache / "lattice").iterdir(), key=lambda p: p.stat().st_size)
    good = victim.read_bytes()
    damage, reason = CORRUPTIONS[corrupt]
    victim.write_bytes(damage(good))
    clear_memory_caches()
    code = main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert code == code_cold == 1
    assert without_meta(json.loads(captured.out)) == without_meta(cold)
    assert "warning: ignoring corrupt cache file" in captured.err
    assert f"{victim.name} ({reason})" in captured.err
    assert victim.read_bytes() == good  # recomputed and overwritten


def test_lattice_cache_structural_checks(tmp_path, capsys):
    from dburnside.cache import (FORMAT_VERSION, LATTICE_MAGIC, _pack_list,
                                 lattice_cache_path, load_lattice, save_lattice)
    from dburnside.lattice import get_lattice
    G = group_from_text("C2^2")
    save_lattice(tmp_path, get_lattice(G))
    assert load_lattice(tmp_path, G) is not None
    assert capsys.readouterr().err == ""
    cases = {
        "element outside the group": ([(0,), (0, 4)], [[0], [1]]),
        "subgroup without the identity": ([(0,), (1, 2)], [[0], [1]]),
        "subgroup elements not ascending": ([(0,), (0, 2, 1)], [[0], [1]]),
        "classes do not partition the subgroups":
            ([(0,), (0, 1)], [[0], [0, 1]]),
    }
    for reason, (subgroups, classes) in cases.items():
        parts = [LATTICE_MAGIC, (FORMAT_VERSION).to_bytes(4, "little"),
                 (G.order).to_bytes(4, "little"),
                 len(subgroups).to_bytes(4, "little")]
        parts += [_pack_list(s) for s in subgroups]
        parts.append(len(classes).to_bytes(4, "little"))
        parts += [_pack_list(c) for c in classes]
        lattice_cache_path(tmp_path, G).write_bytes(_reseal(b"".join(parts)))
        assert load_lattice(tmp_path, G) is None
        assert f"({reason}); recomputing" in capsys.readouterr().err


def test_internal_error_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("certificate does not recompose")
    monkeypatch.setattr(cli, "section_classes", boom)
    code = main(["sections", "C2"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INTERNAL == 5
    assert "internal error: AssertionError: certificate does not recompose" \
        in err


def test_env_var_cache_dir(tmp_path, capsys, monkeypatch):
    from dburnside.cache import clear_memory_caches
    monkeypatch.setenv("DBURNSIDE_CACHE_DIR", str(tmp_path / "envcache"))
    clear_memory_caches()
    code, payload = run_json(capsys, "basis", "C2", "C2")
    assert code == 0
    assert (tmp_path / "envcache" / "lattice").is_dir()
    assert not (tmp_path / "envcache" / "basis").exists()
    assert payload["meta"]["cache_dir"] == str(tmp_path / "envcache")


def test_run_without_cache_dir_leaves_earlier_one_alone(tmp_path, capsys,
                                                        monkeypatch):
    from dburnside.cache import clear_memory_caches
    monkeypatch.delenv("DBURNSIDE_CACHE_DIR", raising=False)
    cache = tmp_path / "cache"
    clear_memory_caches()
    assert run(capsys, "sections", "C2", "--cache-dir", str(cache))[0] == 0
    files = sorted(cache.rglob("*"))
    assert files
    clear_memory_caches()
    assert run(capsys, "sections", "S3")[0] == 0  # builds lattices anew
    assert sorted(cache.rglob("*")) == files


def test_cache_dir_of_main_ends_with_the_call(tmp_path, capsys, monkeypatch):
    from dburnside import cache as cache_mod
    from dburnside.groups import group_from_text
    from dburnside.lattice import get_lattice
    monkeypatch.delenv("DBURNSIDE_CACHE_DIR", raising=False)
    monkeypatch.setattr(cache_mod, "cache_dir", None)
    cache_mod.clear_memory_caches()
    cli_dir = tmp_path / "cli"
    assert run(capsys, "sections", "C2", "--cache-dir", str(cli_dir))[0] == 0
    assert cache_mod.cache_dir is None
    cache_mod.clear_memory_caches()
    get_lattice(group_from_text("S3"))  # no directory: writes nothing
    assert len(list(cli_dir.rglob("*.bin"))) == 1
    # a library caller's directory is back in force after main returns
    lib_dir = tmp_path / "lib"
    cache_mod.cache_dir = lib_dir
    assert run(capsys, "sections", "C3", "--cache-dir", str(cli_dir))[0] == 0
    assert cache_mod.cache_dir == lib_dir
    cache_mod.clear_memory_caches()
    get_lattice(group_from_text("S3"))
    assert len(list(cli_dir.rglob("*.bin"))) == 2
    assert len(list(lib_dir.rglob("*.bin"))) == 1


def test_clear_memory_caches_empties_every_memo(capsys):
    from dburnside import bisets, catalog, functors, lattice
    from dburnside.cache import clear_memory_caches

    def module_dicts():
        return {f"{m.__name__}.{name}": value
                for m in (lattice, bisets, functors, catalog)
                for name, value in vars(m).items()
                if isinstance(value, dict) and not name.startswith("__")}

    run(capsys, "nv", "S3")
    run(capsys, "trace-gram", "C2")
    memos = module_dicts()
    for name in ("lattice._LATTICE_MEMO", "lattice._ISO_MEMO",
                 "lattice._SUBQ_MEMO", "bisets._SPACES", "bisets._DC_MEMO",
                 "functors._GENERATES_MEMO",
                 "catalog._RECOGNIZE_MEMO", "catalog._BUILT"):
        assert memos["dburnside." + name], name  # filled by the two runs
    clear_memory_caches()
    assert {name: len(d) for name, d in module_dicts().items() if d} == {}


# -- golden outputs ------------------------------------------------------------

# sha256 of the meta-free JSON report, recorded before the elimination
# engine was rewritten: positives and negatives over Q and over F_p
GOLDEN = [
    (["generates", "C2^2", "A4xC2", "--char", "3"], 0,
     "96033c056854c60b0edef258a63cc81214650d40a3a14d97a0f816bf59a6d436"),
    (["generates", "C2^2", "S4", "--char", "0"], 0,
     "c31bc422c26950048b22026db48a923430aa92bb0590ba9ffb10379831c78f4d"),
    (["generates", "C2xC2", "A4", "--char", "0"], 1,
     "2103eb51047553370a9e8c4a6114c6c48995c715d6b995955a4655840c8fc729"),
    (["generates", "C2xC2", "A4", "--char", "2"], 1,
     "f7ac2dc0b34f2a4b85f745058e621f9658fadf0b1bb9083580acd4e9ac193077"),
    (["nv", "S4", "--char", "0"], 1,
     "fee4a73a582a28893e8a097e1f9e6b4a21536003076637af69d76039d92385d6"),
]


@pytest.mark.parametrize("argv,exit_code,digest", GOLDEN,
                         ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_golden_span_output(capsys, argv, exit_code, digest):
    from dburnside.cache import clear_memory_caches
    clear_memory_caches()  # decide afresh instead of reading the memo
    code, payload = run_json(capsys, *argv)
    blob = json.dumps(without_meta(payload), sort_keys=False)
    assert code == exit_code
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
