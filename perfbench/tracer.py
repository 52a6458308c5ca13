"""Layer timing for one dburnside process, installed from outside the engine.

The hooks replace public functions and methods of the engine's modules
with timing wrappers; the engine's own files are not changed.  A name
bound by ``from .x import f`` is a separate reference in every importing
module, so each hook rebinds the function in every loaded ``dburnside``
module that holds it.  Modules imported later (``catalog`` is imported
lazily) copy the already wrapped name from the defining module.

Every wrapped call is a span.  Spans nest on one stack; a span's self time
is its duration minus the time its child spans cover.  Spans of one name
are aggregated in memory (calls, inclusive time counted at the outermost
frame of that name, self time) and written out once, when the job ends.

A hook whose target is missing marks its layer ``absent`` instead of
failing, so a later refactor of the engine cannot break a timed run.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict, List, Optional

_now = time.perf_counter

class Tracer:
    def __init__(self) -> None:
        self.stack: List[List[float]] = []   # per open span: [child seconds]
        self.depth: Dict[str, List[int]] = {}  # name -> [open frames]
        # name -> [outermost calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.absent: Dict[str, str] = {}
        self._seen: Dict[int, object] = {}

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def first_time(self, obj: object) -> bool:
        """True on the first call for this object (kept alive while traced)."""
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj
        return True

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        stack = self.stack
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        depth = self.depth.setdefault(name, [0])

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                depth[0] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat[2] += dt - frame[0]
                if not depth[0]:
                    stat[0] += 1
                    stat[1] += dt
            if after is not None:
                after(token, args, result, dt)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def report(self) -> Dict:
        return {"spans": self.spans, "counts": self.counts,
                "absent": self.absent}


def _engine_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "dburnside" or n.startswith("dburnside."))]


def _rebind_everywhere(original: Callable, replacement: Callable) -> None:
    for mod in _engine_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def hook_function(tr: Tracer, layer: str, name: str, module: str, attr: str,
                  before=None, after=None) -> None:
    mod = sys.modules.get(module)
    fn = getattr(mod, attr, None) if mod is not None else None
    if not callable(fn):
        tr.absent[layer] = f"{module}.{attr} not found"
        return
    _rebind_everywhere(fn, tr.wrap(name, fn, before, after))


def hook_method(tr: Tracer, layer: str, name: str, cls: Optional[type],
                attr: str, before=None, after=None) -> None:
    fn = cls.__dict__.get(attr) if cls is not None else None
    if not callable(fn):
        where = cls.__name__ if cls is not None else "class"
        tr.absent[layer] = f"{where}.{attr} not found"
        return
    setattr(cls, attr, tr.wrap(name, fn, before, after))


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


def install() -> Tracer:
    """Hook every layer of an already imported ``dburnside.cli``."""
    tr = Tracer()
    mods = sys.modules
    loaded: Dict[int, object] = {}

    # groups: Cayley tables from text, direct products
    hook_function(tr, "groups", "groups.build", "dburnside.groups",
                  "group_from_text")
    hook_function(tr, "groups", "groups.direct_product", "dburnside.groups",
                  "direct_product")

    # lattice: enumeration and conjugacy (get_lattice), sections, isomorphism
    def lattice_after(_, args, lat, dt):
        if tr.first_time(lat) and id(lat) not in loaded:
            tr.count("lattice.computed")
            tr.count("lattice.computed_s", dt)
            tr.count("lattice.subgroups", len(getattr(lat, "subgroups", ())))

    hook_function(tr, "lattice", "lattice.get_lattice", "dburnside.lattice",
                  "get_lattice", after=lattice_after)
    hook_function(tr, "lattice", "lattice.sections", "dburnside.lattice",
                  "section_classes")
    hook_function(tr, "lattice", "lattice.iso", "dburnside.lattice",
                  "is_isomorphic")
    hook_function(tr, "lattice", "lattice.iso", "dburnside.lattice",
                  "automorphisms")

    # bisets: canonical bases and Mackey products
    bisets = mods.get("dburnside.bisets")
    space_cls = getattr(bisets, "BisetSpace", None)

    def basis_before(args):
        return tr.first_time(args[0])

    def basis_after(first, args, labels, dt):
        if first:
            tr.count("bisets.basis_labels", len(labels))

    hook_method(tr, "bisets", "bisets.basis", space_cls, "basis",
                basis_before, basis_after)

    def mackey_after(_, args, out, dt):
        tr.count("bisets.mackey_terms", len(out))

    hook_function(tr, "bisets", "bisets.mackey", "dburnside.bisets",
                  "mackey_tuples", after=mackey_after)

    # linalg: incremental spans (one class per field kind) and dense ranks
    # (IncrementalSpan(...) constructs one of its subclasses)
    linalg = mods.get("dburnside.linalg")
    span_base = getattr(linalg, "IncrementalSpan", None)
    span_classes = ([span_base, *span_base.__subclasses__()]
                    if isinstance(span_base, type) else [])

    def add_after(_, args, grew, dt):
        if grew:
            tr.count("linalg.span_rank_up")

    for attr, name, after in (("add", "linalg.span_add", add_after),
                              ("contains", "linalg.span_query", None),
                              ("certificate", "linalg.span_query", None)):
        owners = [c for c in span_classes if callable(c.__dict__.get(attr))]
        if not owners:
            tr.absent["linalg"] = f"IncrementalSpan.{attr} not found"
        for cls in owners:
            hook_method(tr, "linalg", name, cls, attr, after=after)

    def rank_before(args):
        return not tr.depth.get("linalg.rank", [0])[0]

    def rank_after(outermost, args, _, dt):
        if outermost:
            rows = args[0]
            tr.count("linalg.rank_cells",
                     len(rows) * (len(rows[0]) if len(rows) else 0))

    for attr in ("matrix_rank", "rank_int_rational"):
        hook_function(tr, "linalg", "linalg.rank", "dburnside.linalg", attr,
                      rank_before, rank_after)

    # functors: decision procedures; their self time is the product stream,
    # dedup, nv logic, gram building and certificate recomposition
    def generates_after(_, args, rep, dt):
        if tr.first_time(rep):
            tr.count("functors.products_tried",
                     getattr(rep, "products_tried", 0))

    hook_function(tr, "functors", "functors.generates", "dburnside.functors",
                  "generates", after=generates_after)
    hook_function(tr, "functors", "functors.verify", "dburnside.functors",
                  "verify_certificate")
    for attr in ("is_nv", "trace_gram_rank", "radical_dim_char0",
                 "gg_composition_table", "essential_quotient_dim",
                 "is_s_self_dual", "simple_dim_with_raw", "is_semisimple",
                 "burnside_module_matrices", "burnside_module_matrices_abelian"):
        hook_function(tr, "functors", "functors.other", "dburnside.functors",
                      attr)

    # cache: lattice disk I/O; the disk-hook lambdas look these names up
    # in the cache module at call time
    cache = mods.get("dburnside.cache")

    def load_after(_, args, lat, dt):
        if lat is None:
            tr.count("cache.load_misses")
            return
        loaded[id(lat)] = lat
        tr.count("cache.load_hits")
        path_fn = getattr(cache, "lattice_cache_path", None)
        if path_fn is not None:
            tr.count("cache.bytes_read", _size(path_fn(*args[:2])))

    def save_after(_, args, path, dt):
        tr.count("cache.bytes_written", _size(path))

    hook_function(tr, "cache", "cache.load", "dburnside.cache",
                  "load_lattice", after=load_after)
    hook_function(tr, "cache", "cache.save", "dburnside.cache",
                  "save_lattice", after=save_after)

    # cli: dispatch and the JSON report; handlers are looked up in COMMANDS
    # when main() builds its parser
    cli = mods.get("dburnside.cli")
    commands = getattr(cli, "COMMANDS", None)
    if isinstance(commands, dict):
        for key, entry in list(commands.items()):
            commands[key] = (tr.wrap("cli.handler", entry[0]),) + tuple(entry[1:])
    else:
        tr.absent["cli"] = "dburnside.cli.COMMANDS not found"
    hook_function(tr, "cli", "cli.main", "dburnside.cli", "main")
    return tr
