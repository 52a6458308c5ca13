"""On-disk caches for subgroup lattices and canonical bases.

Files are keyed by the content hash of the Cayley table (pairs of hashes
for bases), carry a format version, and use a deterministic binary
encoding: little-endian uint32 counts followed by length-prefixed sorted
integer lists, then the sha256 of everything before it.  Writes are atomic
(temp file then rename).  A file that fails its checksum or its structural
checks is ignored with a warning on stderr, so the caller recomputes and
overwrites it.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

from .groups import FiniteGroup
from .lattice import SubgroupLattice, seed_lattice

LATTICE_MAGIC = b"DBLT"
BASIS_MAGIC = b"DBBS"
FORMAT_VERSION = 2

ENV_CACHE_DIR = "DBURNSIDE_CACHE_DIR"


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


def _seal(parts: List[bytes]) -> bytes:
    payload = b"".join(parts)
    return payload + hashlib.sha256(payload).digest()


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


def _open_sealed(path: Path, magic: bytes) -> _Reader:
    """Reader placed after the version field; ValueError if the file is bad."""
    data = path.read_bytes()
    if data[:len(magic)] != magic:
        raise ValueError("wrong magic")
    digest_size = hashlib.sha256().digest_size
    payload, digest = data[:-digest_size], data[-digest_size:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("checksum mismatch")
    r = _Reader(payload, len(magic))
    version = r.u32()
    if version != FORMAT_VERSION:
        raise ValueError(f"format version {version}, expected {FORMAT_VERSION}")
    return r


def _load(path: Path, read):
    """``read(path)``, or None if the file is missing or fails a check."""
    if not path.is_file():
        return None
    try:
        return read(path)
    except (ValueError, struct.error) as e:
        print(f"warning: ignoring corrupt cache file {path} ({e}); "
              "recomputing", file=sys.stderr)
        return None


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
    path = lattice_cache_path(cache_dir, lat.group)
    _write_atomic(path, _seal(out))
    return path


def _read_lattice(path: Path, order: int
                  ) -> Tuple[List[Tuple[int, ...]], List[List[int]]]:
    r = _open_sealed(path, LATTICE_MAGIC)
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
    stored = _load(lattice_cache_path(cache_dir, G),
                   lambda path: _read_lattice(path, G.order))
    return None if stored is None else seed_lattice(G, *stored)


def clear_memory_caches() -> None:
    """Drop every in-process memo (lattices, spaces, tables, iso results)."""
    from . import bisets as _bisets
    from . import functors as _functors
    from . import lattice as _lattice
    _lattice._LATTICE_MEMO.clear()
    _lattice._ISO_MEMO.clear()
    _lattice._SUBQ_MEMO.clear()
    _bisets.clear_biset_caches()
    _functors._GG_TABLE_MEMO.clear()
    _functors._GENERATES_MEMO.clear()


def enable_disk_cache(cache_dir: Path) -> None:
    """Route every lattice computation through the on-disk cache."""
    from . import lattice as _lattice
    cache_dir = Path(cache_dir)
    _lattice.set_disk_hooks((lambda G: load_lattice(cache_dir, G),
                             lambda lat: save_lattice(cache_dir, lat)))


def disable_disk_cache() -> None:
    from . import lattice as _lattice
    _lattice.set_disk_hooks(None)


def basis_cache_path(cache_dir: Path, G: FiniteGroup, H: FiniteGroup) -> Path:
    return (Path(cache_dir) / "basis"
            / f"{G.key}_{H.key}.v{FORMAT_VERSION}.bin")


def save_basis(cache_dir: Path, G: FiniteGroup, H: FiniteGroup,
               labels: List[Tuple[int, ...]],
               invariants: List[Tuple[List[int], List[int], List[int], List[int], int]]
               ) -> Path:
    """Store canonical labels with their projection/kernel data and |q|."""
    out = [BASIS_MAGIC, struct.pack("<I", FORMAT_VERSION),
           struct.pack("<II", G.order, H.order),
           struct.pack("<I", len(labels))]
    for t, inv in zip(labels, invariants):
        p1, p2, k1, k2, qn = inv
        out.append(_pack_list(t))
        out.append(_pack_list(p1))
        out.append(_pack_list(p2))
        out.append(_pack_list(k1))
        out.append(_pack_list(k2))
        out.append(struct.pack("<I", qn))
    path = basis_cache_path(cache_dir, G, H)
    _write_atomic(path, _seal(out))
    return path


def _read_basis(path: Path, G: FiniteGroup, H: FiniteGroup):
    r = _open_sealed(path, BASIS_MAGIC)
    if r.u32() != G.order or r.u32() != H.order:
        raise ValueError("group orders differ")
    labels = []
    invariants = []
    for _ in range(r.u32()):
        labels.append(tuple(r.int_list()))
        p1 = r.int_list()
        p2 = r.int_list()
        k1 = r.int_list()
        k2 = r.int_list()
        qn = r.u32()
        invariants.append((p1, p2, k1, k2, qn))
    r.done()
    return labels, invariants


def load_basis(cache_dir: Path, G: FiniteGroup, H: FiniteGroup):
    return _load(basis_cache_path(cache_dir, G, H),
                 lambda path: _read_basis(path, G, H))
