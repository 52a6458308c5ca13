"""Trial-division factorization of group orders, which are small, Euler's
totient, a Miller–Rabin primality test, integer cube roots and integer
partitions."""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple


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


def euler_phi(n: int) -> int:
    """The number of k in 1..n coprime to n."""
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def prime_power(n: int) -> Optional[Tuple[int, int]]:
    """(p, k) with n = p^k for a prime p, else None."""
    f = factorize(n)
    return f[0] if len(f) == 1 else None


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


def integer_cube_root(n: int) -> int:
    """The largest r with r^3 <= n, for n >= 0: Newton's method from
    2^ceil(bits/3), above the root, falls strictly until it reaches it."""
    r = 1 << -(-n.bit_length() // 3)
    while r ** 3 > n:
        r = (2 * r + n // (r * r)) // 3
    return r


def partitions(total: int, max_part: int) -> Iterator[List[int]]:
    """Partitions of ``total`` into parts at most ``max_part``, each part
    list non-increasing, in reverse lexicographic order."""
    if total == 0:
        yield []
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first):
            yield [first] + rest
