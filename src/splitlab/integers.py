"""Small integer number theory: primality, factoring, Euler's totient.

Factoring is plain trial division.  Inputs here are field sizes and unit
group orders, so nothing fancier is warranted.  There is no factor bound
of its own: trial divisors stop at the process scan bound
(config.scan_bound()), and a number whose cofactor past that point is
not prime by is_prime is refused instead of ground through.

is_prime is Miller-Rabin on fixed witnesses, exact below
_MR_EXACT_BELOW (about 3.3e24).  From there on a number must also pass a
strong Lucas test, which together with the Miller-Rabin witness 2 is the
Baillie-PSW test: no composite is known to pass it, but none is proved
not to, so past 3.3e24 primality is BPSW-probable.
"""

from __future__ import annotations

import math

from . import config
from .errors import BadArgs, FactorBoundExceeded

# Deterministic Miller-Rabin witnesses: is_prime is exact below
# _MR_EXACT_BELOW (Sorenson and Webster, Math. Comp. 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_WITNESSES, exact for every n < _MR_EXACT_BELOW;
    from there on n must also pass _strong_lucas (Baillie-PSW)."""
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
    return n < _MR_EXACT_BELOW or _strong_lucas(n)


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters: D
    the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D)/4.  Writing n + 1 = d * 2**s, n passes when
    U_d = 0 or V_(d * 2**r) = 0 for some r < s (mod n).  Every prime
    passes; so do a few composites (5459, 5777, 10877, ...), none of which
    is known to pass Miller-Rabin to base 2 as well."""
    if n < 2 or n % 2 == 0:
        return n == 2
    if math.isqrt(n) ** 2 == n:
        return False  # no D would give (D/n) = -1
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False  # n shares a factor with D
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q**k mod n for k the bits of d read from the top; with
    # P = 1, U_2k = U_k V_k, V_2k = V_k**2 - 2 Q**k, and
    # U_(k+1) = (U_k + V_k)/2, V_(k+1) = (D U_k + V_k)/2.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def factorize(n: int) -> dict[int, int]:
    """Factor n by trial division, returning {prime: multiplicity}.

    Trial division stops once the cofactor is 1 or passes is_prime
    (proved below _MR_EXACT_BELOW, BPSW-probable above), tested after
    every factor divided out: that cofactor is the last prime factor.
    Trial divisors stop at the process scan bound, past which a cofactor
    still composite raises FactorBoundExceeded.  For n = 1 the result is
    the empty dict.
    """
    if n < 1:
        raise BadArgs(f"cannot factor {n}")
    limit = config.scan_bound()
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # Wheel over 6k +- 1, until the cofactor is prime.
    d = 5
    prime = is_prime(n)
    while not prime and d * d <= n:
        if d > limit:
            raise FactorBoundExceeded(
                f"trial division needs a divisor above {limit} "
                "(raise it via SPLITLAB_SCAN_BOUND)"
            )
        for p in (d, d + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
                prime = is_prime(n)
        d += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def euler_phi(n: int) -> int:
    """Euler's totient via the factorization of n."""
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q as p**e with p prime, or raise BadArgs.

    Tries the integer e-th root of q for every e up to q's bit length,
    so the work is polynomial in the number of digits of q.
    """
    if q >= 2:
        for e in range(1, q.bit_length() + 1):
            p = _iroot(q, e)
            if p**e == q and is_prime(p):
                return p, e
    raise BadArgs(f"{q} is not a prime power")


def _iroot(n: int, e: int) -> int:
    """The integer e-th root of n >= 1: the largest r with r**e <= n."""
    r = 1 << -(-n.bit_length() // e)  # r**e > n
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


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


def byte_residues(p: int) -> bytes:
    """The bytes.translate table that takes every byte to its residue
    modulo p: the one reduction of the byte-slot kernels over F_p."""
    return (bytes(range(p)) * (256 // p + 1))[:256]
