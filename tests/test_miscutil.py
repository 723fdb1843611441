"""isprime and factorint against sympy, which serves the tests as an oracle."""

import random
import time

import pytest
import sympy

from radicant.miscutil import factorint, isprime

# Carmichael numbers, and strong pseudoprimes to the first 1, 2, 4, 11 and
# 12 prime bases; the last exceeds 2^64 yet still fails base 41
PSEUDOPRIMES = [561, 1105, 1729, 41041, 825265, 2047, 1373653, 3215031751,
                3825123056546413051, 318665857834031151167461]


def prime_powers():
    for bits in (20, 31):
        p = sympy.prevprime(1 << bits)
        q = sympy.nextprime(1 << bits)
        yield from (p * p, p**3, q * q, q**3, p * q, p * p * q)


def check(n):
    assert isprime(n) == sympy.isprime(n), n
    got = factorint(n)
    assert list(got.items()) == sorted(sympy.factorint(n).items()), n


def test_every_small_n():
    for n in range(1, 5000):
        check(n)
    assert not isprime(0) and not isprime(-7)


def test_random_63_bit_primality():
    rng = random.Random(63)
    for _ in range(3000):
        n = rng.randrange(1 << 63)
        assert isprime(n) == sympy.isprime(n), n


def test_random_63_bit_factorisations():
    rng = random.Random(64)
    for _ in range(200):
        check(rng.randrange(2, 1 << 63))


@pytest.mark.parametrize("n", PSEUDOPRIMES)
def test_pseudoprimes_are_composite(n):
    assert not isprime(n)
    check(n)


@pytest.mark.parametrize("n", list(prime_powers()))
def test_powers_of_large_primes(n):
    check(n)


def test_balanced_semiprime_budget():
    # two primes near 2^31: Pollard-Brent needs about 2^15.5 steps
    n = (2**31 - 1) * (2**31 - 19)
    t0 = time.perf_counter()
    got = factorint(n)
    assert time.perf_counter() - t0 < 1.0
    assert got == {2**31 - 19: 1, 2**31 - 1: 1}


def test_factorint_refuses_nonpositive():
    for n in (0, -12):
        with pytest.raises(ValueError):
            factorint(n)
