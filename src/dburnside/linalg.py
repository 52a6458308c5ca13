"""Exact linear algebra over Q and prime fields, in two shapes.

:class:`IncrementalSpan` takes sparse vectors one at a time and keeps a
reduced echelon with provenance, for certificates over the insertion
sequence.  :func:`matrix_rank` takes a dense integer matrix whole and
returns its rank by one modular echelon for every field: mod p directly,
and over Q modulo enough primes that Hadamard's bound makes the largest
rank found exact.

Everything here is exact.  A scalar over Q is a Python int or a
``fractions.Fraction`` (whole numbers stay ints until an inverse or a
parsed coefficient brings in a quotient), and a scalar over F_p is an
int in [0, p).  Callers compute with ``+`` and ``*`` and pass each
result through ``FieldSpec.reduce``, the one field-dependent step:
identity over Q, ``% p`` over F_p.  Dense matrices are numpy arrays of
residues mod p: int64 where no sum of products can overflow, Python ints
otherwise.  No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import errors
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

    def reduce(self, x):
        """x as a scalar of the field: itself over Q, its residue mod p."""
        p = self.characteristic
        return x % p if p else x

    def inverse(self, a):
        """1/a in the field; ZeroDivisionError for zero."""
        p = self.characteristic
        if self.reduce(a) == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, p - 2, p) if p else Fraction(1, a)

    def parse(self, s: str):
        """A coefficient written as text: a fraction over Q, an integer mod p."""
        p = self.characteristic
        return int(s) % p if p else Fraction(s)


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
        self.inserted = 0
        self.rows: Dict[int, Dict[int, object]] = {}   # pivot -> row
        self.provs: Dict[int, Dict[int, object]] = {}  # pivot -> provenance

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _vector(self, items: Iterable[Tuple[int, int]]) -> Dict[int, object]:
        red = self.field.reduce
        v: Dict[int, object] = {}
        for idx, val in items:
            if not 0 <= idx < self.dim:
                raise PreconditionError(f"coordinate {idx} outside dimension {self.dim}")
            s = red(v.get(idx, 0) + val)
            if s == 0:
                v.pop(idx, None)
            else:
                v[idx] = s
        return v

    def _reduce(self, v: Dict[int, object]) -> Dict[int, object]:
        """Subtract the rows at v's pivot columns from v, in place.

        Returns the coefficient of each row used.  Rows are zero at every
        other pivot column, so these are v's own entries at pivot columns.
        """
        red = self.field.reduce
        used = {c: a for c, a in v.items() if c in self.rows}
        for c, a in used.items():
            _axpy(red, v, -a, self.rows[c])
        return used

    def add(self, items: Iterable[Tuple[int, int]]) -> bool:
        """Insert a vector; returns True iff it enlarged the span."""
        red = self.field.reduce
        v = self._vector(items)
        seq = self.inserted
        self.inserted += 1
        used = self._reduce(v)
        if not v:
            return False
        lead = min(v)
        inv = self.field.inverse(v[lead])
        row = {j: red(inv * x) for j, x in v.items()}
        prov = {seq: inv}
        for c, a in used.items():
            _axpy(red, prov, -inv * a, self.provs[c])
        # clear the new pivot column from every other row
        for c, other in self.rows.items():
            a = other.get(lead)
            if a is not None:
                _axpy(red, other, -a, row)
                _axpy(red, self.provs[c], -a, prov)
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
        red = self.field.reduce
        out: Dict[int, object] = {}
        for c, a in used.items():
            _axpy(red, out, a, self.provs[c])
        return sorted(out.items())


def _axpy(red, y: Dict[int, object], a, x: Dict[int, object]) -> None:
    """y += a * x on sparse vectors, reducing each sum by ``red`` and
    dropping entries that become zero."""
    for j, xj in x.items():
        s = red(y.get(j, 0) + a * xj)
        if s == 0:
            y.pop(j, None)
        else:
            y[j] = s


# ---------------------------------------------------------------------------
# Matrix rank
# ---------------------------------------------------------------------------

_BLOCK = 64      # rows reduced against the echelon by one matrix product
_INT64 = 2 ** 63


def matrix_rank(rows: Sequence[Sequence[int]], field: FieldSpec) -> int:
    """Rank of an integer matrix over the field, by one modular echelon.

    Mod p, :func:`_rank_mod` reduces the residues.  Over Q each row is
    first divided by the gcd of its entries, which keeps the rank.  The rank
    is then the largest rank r found modulo primes from
    :func:`_rank_primes`, taken until their product P satisfies P^2 > H, the
    product of the r+1 largest squared row norms, or until r = min(shape).
    That r is exact: no rank mod p exceeds the rank over Q, and if some
    (r+1)-minor M were nonzero, it would be divisible by every prime taken,
    so P^2 <= M^2 <= H by Hadamard's inequality, against the stop.
    """
    p = field.characteristic
    try:
        m = np.array(rows, dtype=np.int64)
    except OverflowError:
        m = np.array(rows, dtype=object)
    if m.size == 0:
        return 0
    k = min(m.shape)
    if p:
        return _rank_mod(_residues(m, p, k * (p - 1) ** 2 < _INT64), p)
    m //= np.maximum(np.gcd.reduce(m, axis=1), 1)[:, None]
    norms = sorted((sum(x * x for x in row) for row in m.tolist()), reverse=True)
    rank, modulus = 0, 1
    for p in _rank_primes(k):
        rank = max(rank, _rank_mod(_residues(m, p, True), p))
        modulus *= p
        if rank == k or modulus * modulus > prod(norms[:rank + 1]):
            return rank
    raise PreconditionError(f"too few primes below 2^63 for a rank of size {k}")


def _rank_primes(k: int) -> Iterator[int]:
    """The primes below sqrt(2^63 / k), descending: the moduli of a rank
    over Q of a matrix whose smaller side is k, so k*p^2 < 2^63 and the
    residues stay int64."""
    p = isqrt(_INT64 // k)
    while p > 2:
        p -= 1
        if is_prime(p):
            yield p


def _residues(m: np.ndarray, p: int, small: bool) -> np.ndarray:
    """m mod p, as int64 when ``small`` and as Python ints otherwise."""
    if small:
        return (m % p).astype(np.int64, copy=False)
    return m.astype(object) % p


def _rank_mod(m: np.ndarray, p: int) -> int:
    """Rank of a matrix of residues mod p, by a reduced echelon built
    ``_BLOCK`` rows at a time.

    The echelon E has E[:, J] = 1 at its pivot columns J.  Each block of
    rows is reduced against E by one product ``B[:, J] @ E``, its zero rows
    are dropped, and the rest is brought to reduced form F row by row, with
    new pivot columns Jn.  One product ``E[:, Jn] @ F`` then clears the old
    rows at Jn, and F joins E.  Every product sums at most min(shape) terms
    below p^2, so int64 entries are exact while min(shape)*(p-1)^2 < 2^63;
    an array of Python ints is exact for any p.
    """
    E = np.empty((min(m.shape), m.shape[1]), dtype=m.dtype)
    J: List[int] = []
    for start in range(0, m.shape[0], _BLOCK):
        errors.budget.check("elimination")
        r = len(J)
        B = m[start:start + _BLOCK]
        if r:
            B = (B - B[:, J] @ E[:r] % p) % p
        B = B[(B != 0).any(axis=1)]
        F, f = E[r:], 0   # the block's rows go below the old ones
        for v in B:
            if f:
                v = (v - v[J[r:]] @ F[:f] % p) % p
            nonzero = np.flatnonzero(v)
            if not nonzero.size:
                continue
            c = nonzero[0]
            v = v * pow(int(v[c]), -1, p) % p
            F[:f] -= np.outer(F[:f, c], v)
            F[:f] %= p
            F[f] = v
            f += 1
            J.append(c)
        if f:
            E[:r] -= E[:r, J[r:]] @ F[:f]
            E[:r] %= p
    return len(J)
