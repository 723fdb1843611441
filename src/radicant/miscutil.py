"""Small number-theory helpers shared across modules."""

from __future__ import annotations

import math
from typing import Callable

_SMALL_PRIMES = tuple(n for n in range(2, 1000)
                      if all(n % d for d in range(2, math.isqrt(n) + 1)))

# Miller-Rabin to the first 13 prime bases is exact for n < 3.317e24
# (Sorenson-Webster), so for every n below 2^64
_MR_BASES = _SMALL_PRIMES[:13]


def isprime(n: int) -> bool:
    """Is n prime?  Trial division by the primes below 100, then strong
    probable-prime tests to the bases 2, 3, ..., 41: exact for every
    n < 3.3e24, which covers the 64-bit range."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:25]:
        if n % p == 0:
            return n == p
    if n < 101 * 101:
        return True
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n: int) -> dict:
    """The prime factorisation {prime: exponent} of n >= 1, primes ascending.

    Trial division by the primes below 1000, then Pollard-Brent rho on each
    composite cofactor until every factor passes `isprime`.
    """
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    factors = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if isprime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _brent_factor(m)
            pending += [d, m // d]
    return dict(sorted(factors.items()))


def _brent_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor below 1000.

    Brent's cycle search on x -> x^2 + c, with the differences multiplied
    together mod n so that one gcd serves a batch of 128 steps; a batch that
    overshoots to gcd n is replayed step by step, and a polynomial whose
    cycle closes mod every factor at once is dropped for the next c.
    """
    batch = 128
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise ValueError(f"{n} is prime")


def primes_in_range(lo: int, hi: int) -> list:
    return [n for n in range(lo, hi) if isprime(n)]


def order_dividing(n: int, is_identity: Callable[[int], bool]) -> int:
    """Order of a group element whose n-th power is the identity.

    `is_identity(m)` says whether the element's m-th power is the identity.
    Each prime r | n is stripped from n while the quotient still kills the
    element: one call per prime power of n, with no divisor scan.
    """
    order = n
    for r in factorint(n):
        while order % r == 0 and is_identity(order // r):
            order //= r
    return order
