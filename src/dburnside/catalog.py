"""Standard group catalog: construction helpers and type recognition.

Used by reports to print a readable name for constructed subquotients,
and by the test suite as its fixed stock of groups.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .cache import memo_table
from .groups import FiniteGroup, group_from_text
from .lattice import is_isomorphic
from .numtheory import factorize, partitions

# The stock of named groups the project computes with.  Orders up to 16
# cover every abelian type; the non-abelian entries are the ones the
# analyses call for.  A4xC2 and S4 ride along at order 24, X(27) at 27.
CATALOG_SPECS: List[str] = [
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11",
    "C12", "C13", "C14", "C15", "C16",
    "C2^2", "C2^3", "C2^4", "C2xC4", "C3^2", "C2xC6", "C2xC8", "C4^2",
    "C2^2xC4",
    "S3", "D8", "D10", "D12", "D16", "A4", "M(2,2)",
    "S4", "A4xC2", "X(27)",
]

_BUILT: Dict[str, FiniteGroup] = memo_table()


def catalog_group(spec: str) -> FiniteGroup:
    g = _BUILT.get(spec)
    if g is None:
        g = group_from_text(spec)
        _BUILT[spec] = g
    return g


def _abelian_specs_of_order(n: int) -> List[str]:
    """Grammar texts of every abelian type of order n (by prime partitions)."""
    if n == 1:
        return ["C1"]
    per_prime = []
    for p, k in factorize(n):
        per_prime.append([[p ** a for a in part] for part in partitions(k, k)])
    combos = [[]]
    for options in per_prime:
        combos = [c + opt for c in combos for opt in options]
    return ["x".join(f"C{m}" for m in sorted(combo, reverse=True))
            for combo in combos]


_RECOGNIZE_MEMO: Dict[str, str] = memo_table()


def recognize(G: FiniteGroup) -> Optional[str]:
    """A grammar name isomorphic to G, or None when outside the catalog."""
    hit = _RECOGNIZE_MEMO.get(G.key)
    if hit is not None:
        return hit
    candidates: List[str] = []
    if G.is_abelian():
        candidates = _abelian_specs_of_order(G.order)
    else:
        candidates = [s for s in CATALOG_SPECS
                      if catalog_group(s).order == G.order]
        extra = [f"D{G.order}"] if G.order % 2 == 0 and G.order >= 6 else []
        candidates.extend(x for x in extra if x not in candidates)
    for spec in candidates:
        try:
            cand = catalog_group(spec) if spec in CATALOG_SPECS else group_from_text(spec)
        except Exception:
            continue
        if cand.order == G.order and is_isomorphic(G, cand) is not None:
            name = _canonical_alias(spec)
            _RECOGNIZE_MEMO[G.key] = name
            return name
    return None


def _canonical_alias(spec: str) -> str:
    # prefer the compact power form for homogeneous abelian products
    parts = spec.split("x")
    if len(parts) > 1 and len(set(parts)) == 1 and parts[0].startswith("C"):
        return f"{parts[0]}^{len(parts)}"
    return spec
