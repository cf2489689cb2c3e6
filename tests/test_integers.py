"""Integer helpers: primality, factoring, totient, element order."""

import math

import pytest

from splitlab import BadArgs, FactorBoundExceeded, euler_phi, factorize, is_prime, prime_power_split
from splitlab.integers import order_from_factored


def naive_is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def test_is_prime_matches_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_known_hard_cases():
    # Carmichael numbers fool Fermat tests but not Miller-Rabin.
    assert not is_prime(561)
    assert not is_prime(41041)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert not is_prime(2**32 + 1)
    assert is_prime(2**31 - 1)


def test_factorize_roundtrip():
    for n in range(2, 600):
        factors = factorize(n)
        prod = 1
        for p, e in factors.items():
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n


def test_factorize_one_is_empty():
    assert factorize(1) == {}


def test_factorize_respects_bound():
    with pytest.raises(FactorBoundExceeded):
        factorize((2**31 - 1) * (2**61 - 1), 10**6)


def test_euler_phi_matches_gcd_count():
    for n in range(1, 200):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == brute, n


def test_prime_power_split():
    assert prime_power_split(16) == (2, 4)
    assert prime_power_split(7) == (7, 1)
    assert prime_power_split(81) == (3, 4)
    assert prime_power_split(1024) == (2, 10)
    # large sizes split by integer roots, not trial division up to sqrt(q)
    assert prime_power_split((2**31 - 1) ** 2) == (2**31 - 1, 2)
    assert prime_power_split(2**61 - 1) == (2**61 - 1, 1)
    assert prime_power_split(3**39) == (3, 39)
    assert prime_power_split(2**62) == (2, 62)
    for bad in (1, 6, 12, 100, (2**31 - 1) * (2**61 - 1)):
        with pytest.raises(BadArgs):
            prime_power_split(bad)


def test_order_from_factored_matches_brute():
    modulus = 31
    group = modulus - 1
    factors = factorize(group)
    for g in range(1, modulus):
        fast = order_from_factored(group, factors, lambda k: pow(g, k, modulus))
        acc, brute = g % modulus, 1
        while acc != 1:
            acc = acc * g % modulus
            brute += 1
        assert fast == brute, g
