"""Integer helpers: primality, factoring, totient, prime powers."""

import ast
import math
import os
import pathlib
import subprocess
import sys

import pytest

import splitlab
from splitlab import (
    BadArgs,
    FactorBoundExceeded,
    euler_phi,
    factorize,
    integers,
    is_prime,
    prime_power_split,
)


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


def test_factorize_respects_bound(monkeypatch):
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", str(10**6))
    with pytest.raises(FactorBoundExceeded, match="raise it via SPLITLAB_SCAN_BOUND"):
        factorize((2**31 - 1) * (2**61 - 1))


def test_factorize_keeps_a_prime_cofactor_past_the_bound(monkeypatch):
    # trial division stops at 10**4; the cofactor 2**61 - 1 is proved prime
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", str(10**4))
    assert factorize(6 * (2**61 - 1)) == {2: 1, 3: 1, 2**61 - 1: 1}
    assert euler_phi(6 * (2**61 - 1)) == 2 * (2**61 - 2)


def test_factorize_refuses_a_composite_cofactor_past_the_bound(monkeypatch):
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "1000")
    with pytest.raises(FactorBoundExceeded):
        factorize(1009 * 1013)
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "1010")
    assert factorize(1009 * 1013) == {1009: 1, 1013: 1}


def smallest_prime_factors(bound):
    """spf[n] for 0 <= n < bound: the least prime factor of n >= 2."""
    spf = list(range(bound))
    for p in range(2, math.isqrt(bound - 1) + 1):
        if spf[p] == p:
            for k in range(p * p, bound, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


SPF = smallest_prime_factors(10**5)


def test_strong_lucas_passes_every_prime_and_only_its_pseudoprimes():
    """Below 10**5 the strong Lucas test (Selfridge parameters) passes
    every prime and exactly the strong Lucas pseudoprimes of OEIS
    A217255."""
    passed = [n for n in range(10**5) if integers._strong_lucas(n)]
    composites = [n for n in passed if SPF[n] != n]
    assert [n for n in passed if SPF[n] == n] == [n for n in range(2, 10**5) if SPF[n] == n]
    assert composites == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                          40309, 58519, 75077, 97439]


def test_baillie_psw_matches_trial_division_below_1e5(monkeypatch):
    """is_prime with the strong Lucas test switched on for every n (as it
    is past _MR_EXACT_BELOW) rejects the strong Lucas pseudoprimes and
    the Carmichael numbers, and agrees with the sieve everywhere."""
    monkeypatch.setattr(integers, "_MR_EXACT_BELOW", 0)

    def korselt(n):
        # composite, squarefree, and p - 1 | n - 1 for each prime p | n
        if n < 2 or SPF[n] == n:
            return False
        rest = n
        while rest > 1:
            p = SPF[rest]
            rest //= p
            if rest % p == 0 or (n - 1) % (p - 1):
                return False
        return True

    carmichael = [n for n in range(10**5) if korselt(n)]
    assert carmichael[:3] == [561, 1105, 1729] and len(carmichael) == 16
    for n in (5459, 5777, 10877, *carmichael):
        assert not is_prime(n), n
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(2, 10**5) if SPF[n] == n
    ]


def test_primes_past_the_exact_bound_pass_baillie_psw():
    assert 2**127 - 1 > integers._MR_EXACT_BELOW
    assert is_prime(2**127 - 1)
    assert integers._strong_lucas(2**127 - 1)
    assert not is_prime((2**61 - 1) * (2**67 - 1))
    assert not is_prime(2**128 + 1)


def test_factorize_keeps_a_prime_cofactor_past_the_exact_bound(monkeypatch):
    """q**3 - 1 for q = 2**61 - 1: past trial division to 10**5 the
    cofactor is a 121-bit prime, above 3.3e24."""
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", str(10**5))
    q = 2**61 - 1
    factors = factorize(q**3 - 1)
    assert math.prod(p**e for p, e in factors.items()) == q**3 - 1
    assert all(is_prime(p) for p in factors)
    assert max(factors) > integers._MR_EXACT_BELOW


def test_factorize_stops_at_a_prime_cofactor():
    """Past 1,321, the largest small factor of q**3 - 1 for q = 2**61 - 1,
    the cofactor is prime, so no trial divisor beyond it is tried: under
    a bound of 10**12 the walk to the bound would take hours.  A child
    process keeps a hang from stalling the suite."""
    q = 2**61 - 1
    env = dict(os.environ, SPLITLAB_SCAN_BOUND=str(10**12),
               PYTHONPATH=str(pathlib.Path(splitlab.__file__).parents[1]))
    code = f"from splitlab import factorize; print(sorted(factorize({q}**3 - 1).items()))"
    try:
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30, check=True)
    except subprocess.TimeoutExpired:
        pytest.fail("factorize kept trial-dividing after the cofactor was prime")
    factors = dict(ast.literal_eval(done.stdout))
    assert math.prod(p**e for p, e in factors.items()) == q**3 - 1
    assert all(is_prime(p) for p in factors)


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
