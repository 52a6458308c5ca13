"""Integer factorization by trial division; group orders here are small."""

from __future__ import annotations

from typing import List, Tuple


def factorize(n: int) -> List[Tuple[int, int]]:
    """Prime factorization of n as [(p, k), ...], primes increasing.

    Empty for n < 2.
    """
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return factorize(n) == [(n, 1)]
