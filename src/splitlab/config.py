"""The resource limit for exhaustive scans, walks and trial division.

The scan bound caps the number of candidates any single exhaustive
enumeration (subspaces, matrix tuples, polynomial censuses) is willing to
visit, the number of steps of any walk to a cycle or an order, and the
largest trial divisor used when factoring integers.  There is no separate
factor bound.  It is one per process: the SPLITLAB_SCAN_BOUND environment
variable, else DEFAULT_SCAN_BOUND.
"""

from __future__ import annotations

import os

from .errors import BadArgs, ScanBoundExceeded

DEFAULT_SCAN_BOUND = 1 << 24

_ENV_SCAN_BOUND = "SPLITLAB_SCAN_BOUND"


def scan_bound() -> int:
    """The process scan bound: the environment variable, else the default."""
    raw = os.environ.get(_ENV_SCAN_BOUND)
    if raw is None:
        return DEFAULT_SCAN_BOUND
    try:
        value = int(raw)
    except ValueError as exc:
        raise BadArgs(f"{_ENV_SCAN_BOUND} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise BadArgs(f"{_ENV_SCAN_BOUND} must be positive, got {value}")
    return value


def check_scan(candidates: int, what: str) -> None:
    """Raise ScanBoundExceeded if a scan over `candidates` items is too large."""
    bound = scan_bound()
    if candidates > bound:
        # past 2**64 a count is given by its power of two: the decimal
        # digits of q**(m*m*n) for large m, n exceed what str() converts
        need = candidates
        if candidates.bit_length() > 64:
            need = f"at least 2**{candidates.bit_length() - 1}"
        raise ScanBoundExceeded(
            f"{what} needs {need} candidates, bound is {bound} "
            f"(raise it via {_ENV_SCAN_BOUND})"
        )
