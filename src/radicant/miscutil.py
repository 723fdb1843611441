"""Small number-theory helpers shared across modules."""

from __future__ import annotations

from typing import Callable

from sympy import factorint, isprime


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
