"""Batch command-line front end.

One command per process; verdict-style commands map their answer onto the
exit code (0 yes, 1 no, 2 inconclusive or out of budget, 3 usage error,
4 precondition violation, 5 internal error).  JSON output has a fixed
field order; timing and configuration live under ``meta`` and are
excluded from determinism comparisons.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import cache as cache_mod, errors
from .bisets import (BisetElement, LabelTuple, compose, compose_factors,
                     butterfly_factorize, make_label, product_invariants,
                     space)
from .errors import Budget, BudgetExceeded, GroupSpecError, PreconditionError
from .functors import (CertificateTerm, GeneratesReport,
                       burnside_module_matrices,
                       burnside_module_matrices_abelian,
                       essential_quotient_dim, generates, is_nv,
                       is_s_self_dual, is_semisimple, simple_dim_with_raw,
                       trace_gram_rank, verify_certificate)
from .groups import group_from_text
from .lattice import (automorphisms, section_classes,
                      section_classes_with_quotient)
from .linalg import FieldSpec

SCHEMA = "dburnside.report/1"

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

DEFAULT_BUDGET_SECONDS = 600.0

_DURATION_RE = re.compile(r"^(\d+(?:\.\d+)?)([smh]?)$")


def parse_duration(text: str) -> float:
    m = _DURATION_RE.match(text.strip())
    if not m:
        raise GroupSpecError(f"cannot parse duration {text!r}")
    value = float(m.group(1))
    unit = {"": 1.0, "s": 1.0, "m": 60.0, "h": 3600.0}[m.group(2)]
    return value * unit


def _certificate_json(rep: GeneratesReport, h_name: str, g_name: str) -> Dict:
    """The certificate object of a report that carries one."""
    return {
        "H": h_name,
        "G": g_name,
        "char": rep.field.characteristic,
        "terms": [{"u": list(t.u), "w": list(t.w), "coeff": str(t.coeff)}
                  for t in rep.certificate],
    }


def _generates_result_json(rep: GeneratesReport, h_name: str,
                           g_name: str) -> Dict:
    out: Dict = {
        "result": rep.result,
        "status": rep.status,
        "via": rep.via,
        "products_tried": rep.products_tried,
        "rank_reached": rep.rank_reached,
    }
    if rep.certificate is not None:
        out["certificate"] = _certificate_json(rep, h_name, g_name)
    return out


def _verdict_exit(result: Optional[bool]) -> int:
    if result is True:
        return EXIT_TRUE
    if result is False:
        return EXIT_FALSE
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# Command handlers: each is called as handler(args, fieldspec, *groups) and
# returns (exit_code, inputs, result, text_lines)
# ---------------------------------------------------------------------------

def cmd_basis(args, _, G, H):
    labels = space(G, H).basis()
    entries = []
    for i, lab in enumerate(labels):
        inv = product_invariants(G, H, lab)
        entries.append({
            "index": i,
            "subgroup": list(lab),
            "p1": list(inv.p1),
            "p2": list(inv.p2),
            "k1": list(inv.k1),
            "k2": list(inv.k2),
            "q_order": inv.q.order,
        })
    inputs = {"G": args.G, "H": args.H}
    result = {"count": len(labels), "labels": entries}
    lines = [f"canonical basis of kB({args.G},{args.H}): {len(labels)} labels"]
    for e in entries[:50]:
        lines.append(f"  [{e['index']}] L={e['subgroup']} |q|={e['q_order']}")
    if len(entries) > 50:
        lines.append(f"  ... {len(entries) - 50} more")
    return EXIT_TRUE, inputs, result, lines


def _parse_label_arg(G, H, text) -> LabelTuple:
    """A label of kB(G, H) given as a basis index or as subgroup elements."""
    if re.fullmatch(r"\d+", text):
        labels = space(G, H).basis()
        idx = int(text)
        if idx >= len(labels):
            raise PreconditionError(f"label index {idx} out of range")
        return labels[idx]
    if not re.fullmatch(r"\d+(,\d+)*", text):
        raise GroupSpecError(f"label {text!r} is not an index or a list i,j,...")
    return make_label(G, H, [int(x) for x in text.split(",")])


def cmd_compose(args, fieldspec, G, H, K):
    left = _parse_label_arg(G, H, args.left)
    right = _parse_label_arg(H, K, args.right)
    z = compose(BisetElement(G, H, fieldspec, {left: 1}),
                BisetElement(H, K, fieldspec, {right: 1}))
    terms = [{"subgroup": list(t), "coeff": str(c)}
             for t, c in sorted(z.coeffs.items())]
    inputs = {"G": args.G, "H": args.H, "K": args.K,
              "left": list(left),
              "right": list(right),
              "char": fieldspec.characteristic}
    result = {"terms": terms}
    lines = [f"compose over middle {args.H}: {len(terms)} terms"]
    lines += [f"  {t['coeff']} * {t['subgroup']}" for t in terms]
    return EXIT_TRUE, inputs, result, lines


def cmd_butterfly(args, _, G, H):
    lab = _parse_label_arg(G, H, args.label)
    factors = butterfly_factorize(G, H, lab)
    composite = compose_factors(factors)
    ok = composite == BisetElement(G, H, composite.field, {lab: 1})
    inputs = {"G": args.G, "H": args.H, "label": list(lab)}
    result = {
        "factors": [{"kind": f.kind,
                     "left_order": f.left.order,
                     "right_order": f.right.order,
                     "subgroup": list(f.elements)}
                    for f in factors],
        "recomposes": ok,
    }
    lines = [f"butterfly factors of {lab}:"]
    lines += [f"  {f.kind}: {f.elements}" for f in factors]
    lines.append(f"recomposes exactly: {ok}")
    return (EXIT_TRUE if ok else EXIT_FALSE), inputs, result, lines


def cmd_generates(args, fieldspec, H, G):
    rep = generates(H, G, fieldspec)
    inputs = {"H": args.H, "G": args.G, "char": fieldspec.characteristic}
    result = _generates_result_json(rep, args.H, args.G)
    lines = [f"{args.H} generated by {args.G} over {fieldspec}: "
             f"{rep.status} (via {rep.via}, {rep.products_tried} products, "
             f"rank {rep.rank_reached})"]
    if rep.certificate is not None:
        lines.append(f"certificate with {len(rep.certificate)} terms "
                     "(recomposes to the identity)")
    return _verdict_exit(rep.result), inputs, result, lines


def cmd_nv(args, fieldspec, G):
    rep = is_nv(G, fieldspec, short_circuit=not args.full)
    verdicts = []
    for v in rep.verdicts:
        entry = {
            "subquotient": v.name,
            "order": v.group.order,
            "witness_T": list(v.witness_T),
            "witness_S": list(v.witness_S),
            "status": v.status,
            "via": v.via,
        }
        if v.report is not None and v.report.certificate is not None:
            entry["certificate"] = _certificate_json(v.report, v.name, args.G)
        verdicts.append(entry)
    inputs = {"G": args.G, "char": fieldspec.characteristic}
    result = {"overall": rep.overall, "subquotients": verdicts}
    lines = [f"non-vanishing over {fieldspec}: {rep.overall}"]
    for v in rep.verdicts:
        lines.append(f"  {v.name:>10} (order {v.group.order}): {v.status} via {v.via}")
    return _verdict_exit(rep.overall), inputs, result, lines


def cmd_semisimple(args, fieldspec, G):
    res = is_semisimple(G, fieldspec)
    inputs = {"G": args.G, "char": fieldspec.characteristic}
    result = {"semisimple": res, "cyclic": G.is_cyclic()}
    lines = [f"kB({args.G},{args.G}) semisimple over {fieldspec}: {res}"]
    return (EXIT_TRUE if res else EXIT_FALSE), inputs, result, lines


def cmd_ssd(args, _, G):
    rep = is_s_self_dual(G)
    inputs = {"G": args.G}
    result = {
        "s_self_dual": rep.result,
        "failing_subgroup": (None if rep.failing_subgroup is None
                             else list(rep.failing_subgroup)),
        "nilpotent": rep.nilpotent,
        "classification": rep.classification,
        "agree": rep.agree,
    }
    lines = [f"every subgroup a quotient: {rep.result} "
             f"(classification predicate: {rep.classification}, agree: {rep.agree})"]
    if rep.failing_subgroup is not None:
        lines.append(f"  failing subgroup: {list(rep.failing_subgroup)}")
    return (EXIT_TRUE if rep.result else EXIT_FALSE), inputs, result, lines


def cmd_simple_dim(args, _, P, G):
    dim, raw = simple_dim_with_raw(P, G)
    inputs = {"P": args.P, "G": args.G}
    result = {"dim": dim, "raw_section_classes": raw, "excluded": raw - dim}
    lines = [f"simple dimension for quotient type {args.P} at {args.G}: {dim} "
             f"({raw} section classes, {raw - dim} excluded)"]
    return EXIT_TRUE, inputs, result, lines


def cmd_sections(args, _, G, quotient):
    if quotient is not None:
        classes = section_classes_with_quotient(G, quotient)
    else:
        classes = section_classes(G)
    entries = [{"T": list(cls[0][0]), "S": list(cls[0][1]),
                "class_size": len(cls)} for cls in classes]
    inputs = {"G": args.G, "quotient": args.quotient}
    result = {"count": len(entries), "classes": entries}
    what = f" with quotient {args.quotient}" if args.quotient else ""
    lines = [f"section classes of {args.G}{what}: {len(entries)}"]
    return EXIT_TRUE, inputs, result, lines


def cmd_trace_gram(args, fieldspec, G):
    rank, dim = trace_gram_rank(G, fieldspec)
    inputs = {"G": args.G, "char": fieldspec.characteristic}
    result = {"rank": rank, "dim": dim, "degenerate": rank < dim}
    lines = [f"trace form on kB({args.G},{args.G}) over {fieldspec}: "
             f"rank {rank} of {dim} (degenerate: {rank < dim})"]
    return EXIT_TRUE, inputs, result, lines


def cmd_burnside_module(args, fieldspec, G):
    actions = burnside_module_matrices(G, fieldspec)
    agree = None
    if G.is_abelian():
        direct = burnside_module_matrices_abelian(G, fieldspec)
        agree = direct.matrices == actions.matrices
    mats = [{"label": list(lab),
             "matrix": [[str(x) for x in row] for row in mat]}
            for lab, mat in zip(actions.labels, actions.matrices)]
    inputs = {"G": args.G, "char": fieldspec.characteristic}
    result = {
        "module_basis": [list(t) for t in actions.module_basis],
        "algebra_dim": len(actions.labels),
        "closed_form_agrees": agree,
        "matrices": mats,
    }
    lines = [f"kB({args.G}) action: {len(actions.labels)} labels on "
             f"{len(actions.module_basis)} orbit classes"
             + (f", closed-form agreement: {agree}" if agree is not None else "")]
    return EXIT_TRUE, inputs, result, lines


def cmd_essential_out(args, _, H):
    dim = essential_quotient_dim(H)
    _, inner, out_order = automorphisms(H)
    inputs = {"H": args.H}
    result = {"essential_dim": dim, "out_order": out_order,
              "inner_order": inner, "agree": dim == out_order}
    lines = [f"essential quotient of kB({args.H},{args.H}): dim {dim}, "
             f"|Out| = {out_order}, agree: {dim == out_order}"]
    return EXIT_TRUE, inputs, result, lines


def cmd_verify(args, _):
    path = Path(args.report)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise GroupSpecError(f"cannot read report {path}: {e}")
    cert = _extract_certificate(payload)
    if cert is None:
        raise GroupSpecError("no certificate found in the report")
    try:
        H = group_from_text(cert["H"])
        G = group_from_text(cert["G"])
        fieldspec = FieldSpec(int(cert["char"]))
        terms = []
        for t in cert["terms"]:
            u = make_label(H, G, t["u"])
            w = make_label(G, H, t["w"])
            terms.append(CertificateTerm(u, w, fieldspec.parse(str(t["coeff"]))))
    except (GroupSpecError, PreconditionError):
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise GroupSpecError(f"malformed certificate: {type(e).__name__}: {e}")
    ok = verify_certificate(H, G, fieldspec, terms)
    inputs = {"report": str(path), "H": cert["H"], "G": cert["G"],
              "char": fieldspec.characteristic}
    result = {"valid": ok, "terms": len(terms)}
    lines = [f"certificate for {cert['H']} generated by {cert['G']} over "
             f"{fieldspec}: {'valid' if ok else 'INVALID'}"]
    return (EXIT_TRUE if ok else EXIT_FALSE), inputs, result, lines


def _extract_certificate(payload: object) -> Optional[Dict]:
    """The certificate a report carries: the report itself, its result's,
    or the first subquotient's."""
    if not isinstance(payload, dict):
        raise GroupSpecError("malformed certificate report: not a JSON object")
    if "terms" in payload and "H" in payload:
        return payload
    result = payload.get("result", {})
    if not isinstance(result, dict):
        raise GroupSpecError(
            'malformed certificate report: "result" is not an object')
    if "certificate" in result:
        return result["certificate"]
    subs = result.get("subquotients", [])
    if not (isinstance(subs, list) and all(isinstance(v, dict) for v in subs)):
        raise GroupSpecError(
            'malformed certificate report: "subquotients" is not a list '
            'of objects')
    return next((v["certificate"] for v in subs if "certificate" in v), None)


# name: (handler, help, group arguments, other arguments).  ``main`` parses
# the group arguments in this order and passes them to the handler; an
# option among them that is absent or empty passes None.
COMMANDS = {
    "basis": (cmd_basis, "canonical basis of kB(G,H) with label invariants",
              ("G", "H"), ()),
    "compose": (cmd_compose, "compose two basis labels over a middle group",
                ("G", "H", "K"),
                (("--left", {"required": True, "help":
                             "basis index or comma-separated subgroup elements"}),
                 ("--right", {"required": True}))),
    "butterfly": (cmd_butterfly, "factor a label into the five elementary bisets",
                  ("G", "H"), (("--label", {"required": True}),)),
    "generates": (cmd_generates, "decide the generating relation H from G",
                  ("H", "G"), ()),
    "nv": (cmd_nv, "check that every subquotient is generated", ("G",),
           (("--full", {"action": "store_true",
                        "help": "keep testing after the first failure"}),)),
    "semisimple": (cmd_semisimple, "closed-form semisimplicity of kB(G,G)",
                   ("G",), ()),
    "ssd": (cmd_ssd, "is every subgroup isomorphic to a quotient", ("G",), ()),
    "simple-dim": (cmd_simple_dim, "section-class dimension count",
                   ("P", "G"), ()),
    "sections": (cmd_sections, "conjugacy classes of sections",
                 ("G", "--quotient"), ()),
    "trace-gram": (cmd_trace_gram, "rank of the trace bilinear form",
                   ("G",), ()),
    "burnside-module": (cmd_burnside_module,
                        "action on the ordinary Burnside module", ("G",), ()),
    "essential-out": (cmd_essential_out, "dimension of the essential quotient",
                      ("H",), ()),
    "verify": (cmd_verify, "re-verify an exported certificate", (),
               (("report", {"help": "path to a JSON report or certificate"}),)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dburnside",
        description="Exact computations in double Burnside algebras of small groups.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--char", type=int, default=0,
                        help="field characteristic, 0 or a prime (default 0)")
    common.add_argument("--format", choices=["text", "json"], default="text")
    common.add_argument("--cache-dir", default=None,
                        help=f"cache directory (default ${cache_mod.ENV_CACHE_DIR})")
    common.add_argument("--threads", type=int, default=1,
                        help="worker count; answers never depend on it")
    common.add_argument("--budget", default=None,
                        help="time budget like 30s, 10m, 2h (default 10m)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed recorded for sampled suites; unused by verdicts")
    for name, (_, help_text, groups, options) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag in groups:
            p.add_argument(flag)
        for flag, kw in options:
            p.add_argument(flag, **kw)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_USAGE
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        fieldspec = FieldSpec(args.char)
    except PreconditionError as e:
        print(f"error: --char: {e}", file=sys.stderr)
        return EXIT_USAGE

    cache_dir = args.cache_dir or cache_mod.default_cache_dir()
    args.cache_dir = str(cache_dir) if cache_dir else None
    # the directory holds for this call only; a library caller's is restored
    previous_cache_dir, previous_budget = cache_mod.cache_dir, errors.budget
    cache_mod.cache_dir = Path(cache_dir) if cache_dir else None

    budget_s = DEFAULT_BUDGET_SECONDS
    start = time.monotonic()
    try:
        if args.budget is not None:
            budget_s = parse_duration(args.budget)
        errors.budget = Budget(budget_s)
        handler, _, names, _ = COMMANDS[args.command]
        texts = [getattr(args, name.lstrip("-")) for name in names]
        groups = [None if name.startswith("-") and not text
                  else group_from_text(text) for name, text in zip(names, texts)]
        code, inputs, result, lines = handler(args, fieldspec, *groups)
    except GroupSpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as e:
        print(f"precondition error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetExceeded as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as e:
        # a crash must not read as a verdict (exit 0 or 1); traceback is
        # imported here so that a normal run does not load it
        import traceback
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        cache_mod.cache_dir = previous_cache_dir
        errors.budget = previous_budget

    elapsed = time.monotonic() - start
    if args.format == "json":
        envelope = {
            "schema": SCHEMA,
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "meta": {
                "elapsed_s": round(elapsed, 6),
                "threads": args.threads,
                "seed": args.seed,
                "budget_s": budget_s,
                "cache_dir": args.cache_dir,
            },
        }
        print(json.dumps(envelope, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
