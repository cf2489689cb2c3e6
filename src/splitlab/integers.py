"""Small integer number theory: primality, factoring, Euler's totient.

Factoring is plain trial division.  Inputs here are field sizes and unit
group orders, all below 2**63, so nothing fancier is warranted; the
configurable bound exists to fail loudly instead of grinding when someone
asks for a genuinely hard factorization.
"""

from __future__ import annotations

from . import config
from .errors import BadArgs, FactorBoundExceeded

# Deterministic Miller-Rabin witnesses for n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 64-bit sized integers."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, bound: int | None = None) -> dict[int, int]:
    """Factor n by trial division, returning {prime: multiplicity}.

    Raises FactorBoundExceeded if a trial divisor beyond the configured
    bound would be needed.  For n = 1 the result is the empty dict.
    """
    if n < 1:
        raise BadArgs(f"cannot factor {n}")
    limit = config.factor_bound(bound)
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # Wheel over 6k +- 1.
    d = 5
    while d * d <= n:
        if d > limit:
            raise FactorBoundExceeded(
                f"trial division needs a divisor above {limit}"
            )
        for p in (d, d + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        if n > limit and factors == {} and not is_prime(n):
            # Unreachable for n < 2**64 (cofactor after the loop is prime),
            # kept as a guard for misuse with huge inputs.
            raise FactorBoundExceeded(f"residual cofactor {n} not factored")
        factors[n] = factors.get(n, 0) + 1
    return factors


def euler_phi(n: int, bound: int | None = None) -> int:
    """Euler's totient via the factorization of n."""
    result = n
    for p in factorize(n, bound):
        result -= result // p
    return result


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q as p**e with p prime, or raise BadArgs."""
    if q < 2:
        raise BadArgs(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q:
            return q, 1  # q itself is prime
        if q % p:
            continue
        e = 0
        n = q
        while n % p == 0:
            n //= p
            e += 1
        if n != 1:
            raise BadArgs(f"{q} is not a prime power")
        return p, e
    raise BadArgs(f"{q} is not a prime power")


def to_digits(code: int, base: int, length: int) -> tuple[int, ...]:
    """The `length` lowest little-endian base-`base` digits of a
    nonnegative code."""
    out = []
    for _ in range(length):
        code, r = divmod(code, base)
        out.append(r)
    return tuple(out)


def from_digits(digits, base: int) -> int:
    """Inverse of to_digits: the code whose little-endian digits these are."""
    code = 0
    for d in reversed(digits):
        code = code * base + d
    return code


def order_from_factored(group_order: int, factors: dict[int, int], power) -> int:
    """Order of an element via exponent dropping.

    `power(k)` must return the element raised to the k-th power in a form
    comparable to `power(0)` (the identity).  The element's order must
    divide group_order.
    """
    identity = power(0)
    order = group_order
    for p in factors:
        while order % p == 0 and power(order // p) == identity:
            order //= p
    return order
