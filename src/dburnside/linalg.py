"""Exact linear algebra over Q and prime fields, in two shapes.

:class:`IncrementalSpan` takes sparse vectors one at a time and keeps a
reduced echelon with provenance, for certificates over the insertion
sequence.  :func:`matrix_rank` takes a dense integer matrix whole and
returns its rank by one fraction-free echelon, the same for every field.

Everything here is exact: rationals are ``fractions.Fraction``,
prime-field scalars are ints reduced mod p, and dense matrices are numpy
arrays of int64 residues or of Python ints.  No floating point is used
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import PreconditionError
from .numtheory import is_prime


@dataclass(frozen=True)
class FieldSpec:
    """Characteristic 0 (exact rationals) or a prime field F_p, p < 2^64."""

    characteristic: int = 0

    def __post_init__(self):
        c = self.characteristic
        if c != 0 and not (c < 2 ** 64 and is_prime(c)):
            raise PreconditionError(f"characteristic must be 0 or a prime < 2^64, got {c}")

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"


class Field:
    """Scalar operations for a FieldSpec; scalars are Fraction or int mod p."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.characteristic
        self.zero = Fraction(0) if self.p == 0 else 0
        self.one = Fraction(1) if self.p == 0 else 1

    def from_int(self, n: int):
        return Fraction(n) if self.p == 0 else n % self.p

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def inv(self, a):
        if self.p == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1) / a
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a == 0 if self.p == 0 else a % self.p == 0

    def to_str(self, a) -> str:
        return str(a)

    def parse(self, s: str):
        if self.p == 0:
            return Fraction(s)
        return int(s) % self.p


# ---------------------------------------------------------------------------
# Incremental span
# ---------------------------------------------------------------------------

class IncrementalSpan:
    """Row space accumulated one sparse vector at a time, in reduced form.

    Rows are dicts from column to scalar, stored by pivot column.  A row's
    pivot is its lowest column, normalized to 1, and no other row is
    nonzero at a pivot column, so one pass over a vector's own keys
    reduces it.  Each row also keeps its provenance: its expression over
    the inserted vectors as a dict keyed by insertion number, so
    membership certificates are returned over the insertion sequence.
    Vectors are given sparsely as (index, integer) items; integers are
    interpreted in the field.
    """

    def __init__(self, dim: int, field: FieldSpec):
        self.dim = dim
        self.field = field
        self._f = Field(field)
        self.inserted = 0
        self.rows: Dict[int, Dict[int, object]] = {}   # pivot -> row
        self.provs: Dict[int, Dict[int, object]] = {}  # pivot -> provenance

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _vector(self, items: Iterable[Tuple[int, int]]) -> Dict[int, object]:
        f = self._f
        v: Dict[int, object] = {}
        for idx, val in items:
            if not 0 <= idx < self.dim:
                raise PreconditionError(f"coordinate {idx} outside dimension {self.dim}")
            _axpy(f, v, f.from_int(val), {idx: f.one})
        return v

    def _reduce(self, v: Dict[int, object]) -> Dict[int, object]:
        """Subtract the rows at v's pivot columns from v, in place.

        Returns the coefficient of each row used.  Rows are zero at every
        other pivot column, so these are v's own entries at pivot columns.
        """
        f = self._f
        used = {c: a for c, a in v.items() if c in self.rows}
        for c, a in used.items():
            _axpy(f, v, f.neg(a), self.rows[c])
        return used

    def add(self, items: Iterable[Tuple[int, int]]) -> bool:
        """Insert a vector; returns True iff it enlarged the span."""
        f = self._f
        v = self._vector(items)
        seq = self.inserted
        self.inserted += 1
        used = self._reduce(v)
        if not v:
            return False
        lead = min(v)
        inv = f.inv(v[lead])
        row = {j: f.mul(inv, x) for j, x in v.items()}
        prov = {seq: inv}
        for c, a in used.items():
            _axpy(f, prov, f.neg(f.mul(inv, a)), self.provs[c])
        # clear the new pivot column from every other row
        for c, other in self.rows.items():
            a = other.get(lead)
            if a is not None:
                _axpy(f, other, f.neg(a), row)
                _axpy(f, self.provs[c], f.neg(a), prov)
        self.rows[lead] = row
        self.provs[lead] = prov
        return True

    def _solve(self, items) -> Optional[Dict[int, object]]:
        v = self._vector(items)
        used = self._reduce(v)
        return None if v else used

    def contains(self, items: Iterable[Tuple[int, int]]) -> bool:
        return self._solve(items) is not None

    def certificate(self, items: Iterable[Tuple[int, int]]) -> List[Tuple[int, object]]:
        """Coefficients over inserted vectors reproducing the query exactly."""
        used = self._solve(items)
        if used is None:
            raise PreconditionError("certificate requested for a non-member vector")
        out: Dict[int, object] = {}
        for c, a in used.items():
            _axpy(self._f, out, a, self.provs[c])
        return sorted(out.items())


def _axpy(f: Field, y: Dict[int, object], a, x: Dict[int, object]) -> None:
    """y += a * x on sparse vectors, dropping entries that become zero."""
    for j, xj in x.items():
        s = f.add(y.get(j, f.zero), f.mul(a, xj))
        if f.is_zero(s):
            y.pop(j, None)
        else:
            y[j] = s


# ---------------------------------------------------------------------------
# Matrix rank
# ---------------------------------------------------------------------------

def matrix_rank(rows: Sequence[Sequence[int]], field: FieldSpec) -> int:
    """Rank of an integer matrix over the field, by fraction-free elimination.

    Each step takes the first row with a nonzero entry pv in the leading
    column as the pivot row r, replaces the other rows by
    ``pv*rest - outer(rest[:, 0], r)`` and drops r and the leading column.
    Only the reduction depends on the field: ``% p`` over F_p, or Bareiss's
    exact division by the previous pivot over Q, which keeps every entry a
    minor of the input (Bareiss, Math. Comp. 22, 1968).  Entries are int64
    while p < 2**31, where pv*x - a*y cannot overflow, and exact Python ints
    otherwise.
    """
    p = field.characteristic
    m = np.array(rows, dtype=np.int64 if 0 < p < 2 ** 31 else object)
    if m.size == 0:
        return 0
    if p:
        m %= p
    rank = 0
    prev = 1
    while m.shape[0] and m.shape[1]:
        nonzero = np.flatnonzero(m[:, 0])
        if not nonzero.size:
            m = m[:, 1:]
            continue
        i = nonzero[0]
        pivot = m[i]
        below = np.delete(m, i, axis=0)
        m = pivot[0] * below[:, 1:] - np.outer(below[:, 0], pivot[1:])
        m = m % p if p else m // prev
        prev = pivot[0]
        rank += 1
    return rank
