"""What a run remembers: in-process memo tables and on-disk lattice files.

Memo tables.  Every process-global memo of the engine (lattices,
isomorphisms, subquotients, biset spaces, double cosets, generating
verdicts, composition tables, catalog groups and names) is a dict made by
:func:`memo_table`, which registers it here.  :func:`clear_memory_caches`
empties every registered table, which gives a true cold start.

Lattice files.  :data:`cache_dir` is the directory subgroup lattices are
persisted under, or None; ``cli.main`` sets it for the length of each call
and then restores the value it found.
``lattice.get_lattice`` looks in its memo, then reads the file, then
enumerates the lattice and writes the file.  Files are keyed by the content
hash of the Cayley table, carry a format version, and use a deterministic
binary encoding: little-endian uint32 counts followed by length-prefixed
sorted integer lists, then the sha256 of everything before it.  Writes are
atomic (temp file then rename).  A file that fails its checksum or its
structural checks is ignored with a warning on stderr, so the caller
recomputes and overwrites it.

Only ``groups`` is imported at module level, so every other module can
import this one.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .groups import FiniteGroup

if TYPE_CHECKING:
    from .lattice import SubgroupLattice

LATTICE_MAGIC = b"DBLT"
FORMAT_VERSION = 2

ENV_CACHE_DIR = "DBURNSIDE_CACHE_DIR"

# where lattice files live for the current run, or None for no disk cache
cache_dir: Optional[Path] = None

_MEMO_TABLES: List[Dict] = []


def memo_table() -> Dict:
    """A new process-global memo dict, emptied by clear_memory_caches()."""
    table: Dict = {}
    _MEMO_TABLES.append(table)
    return table


def clear_memory_caches() -> None:
    """Empty every memo table, as if the process had just started."""
    for table in _MEMO_TABLES:
        table.clear()


def default_cache_dir() -> Optional[Path]:
    v = os.environ.get(ENV_CACHE_DIR)
    return Path(v) if v else None


def _write_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _pack_list(values) -> bytes:
    vals = list(values)
    return struct.pack("<I", len(vals)) + struct.pack(f"<{len(vals)}I", *vals)


class _Reader:
    """Cursor over a sealed file's payload; short reads raise struct.error."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos

    def u32(self) -> int:
        (v,) = struct.unpack_from("<I", self.data, self.pos)
        self.pos += 4
        return v

    def int_list(self) -> List[int]:
        n = self.u32()
        vals = list(struct.unpack_from(f"<{n}I", self.data, self.pos))
        self.pos += 4 * n
        return vals

    def done(self) -> None:
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} trailing bytes")


def lattice_cache_path(cache_dir: Path, G: FiniteGroup) -> Path:
    return Path(cache_dir) / "lattice" / f"{G.key}.v{FORMAT_VERSION}.bin"


def save_lattice(cache_dir: Path, lat: SubgroupLattice) -> Path:
    out = [LATTICE_MAGIC, struct.pack("<I", FORMAT_VERSION),
           struct.pack("<I", lat.group.order),
           struct.pack("<I", len(lat.subgroups))]
    for s in lat.subgroups:
        out.append(_pack_list(s))
    out.append(struct.pack("<I", len(lat.classes)))
    for cls in lat.classes:
        out.append(_pack_list(cls))
    payload = b"".join(out)
    path = lattice_cache_path(cache_dir, lat.group)
    _write_atomic(path, payload + hashlib.sha256(payload).digest())
    return path


def _read_lattice(data: bytes, order: int
                  ) -> Tuple[List[Tuple[int, ...]], List[List[int]]]:
    """(subgroups, classes) from a file's bytes; ValueError if it is bad."""
    if data[:len(LATTICE_MAGIC)] != LATTICE_MAGIC:
        raise ValueError("wrong magic")
    digest_size = hashlib.sha256().digest_size
    payload, digest = data[:-digest_size], data[-digest_size:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("checksum mismatch")
    r = _Reader(payload, len(LATTICE_MAGIC))
    version = r.u32()
    if version != FORMAT_VERSION:
        raise ValueError(f"format version {version}, expected {FORMAT_VERSION}")
    if r.u32() != order:
        raise ValueError("group order differs")
    subgroups = [tuple(r.int_list()) for _ in range(r.u32())]
    classes = [r.int_list() for _ in range(r.u32())]
    r.done()
    for s in subgroups:
        if not s or s[0] != 0:
            raise ValueError("subgroup without the identity")
        if s[-1] >= order:
            raise ValueError("element outside the group")
        if any(a >= b for a, b in zip(s, s[1:])):
            raise ValueError("subgroup elements not ascending")
    if sorted(i for cls in classes for i in cls) != \
            list(range(len(subgroups))):
        raise ValueError("classes do not partition the subgroups")
    return subgroups, classes


def load_lattice(cache_dir: Path, G: FiniteGroup) -> Optional[SubgroupLattice]:
    """The stored lattice of G, or None if the file is missing or bad."""
    from .lattice import SubgroupLattice
    path = lattice_cache_path(cache_dir, G)
    if not path.is_file():
        return None
    try:
        subgroups, classes = _read_lattice(path.read_bytes(), G.order)
    except (ValueError, struct.error) as e:
        print(f"warning: ignoring corrupt cache file {path} ({e}); "
              "recomputing", file=sys.stderr)
        return None
    return SubgroupLattice(G, subgroups, classes)
