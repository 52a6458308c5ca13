"""Trial-division factorization of group orders, which are small, and a
Miller–Rabin primality test."""

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
    """Miller–Rabin to the prime bases 2..37: exact for n < 3.18·10^23
    (Sorenson and Webster, Math. Comp. 2017), above that not always."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
