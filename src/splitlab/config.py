"""Resource limits for exhaustive scans and integer factoring.

The scan bound caps the number of candidates any single exhaustive
enumeration (subspaces, matrix tuples, polynomial censuses) is willing to
visit, and the number of steps of any walk to a cycle or an order.  It is
one per process: the SPLITLAB_SCAN_BOUND environment variable, else
DEFAULT_SCAN_BOUND.  The factor bound caps the largest trial divisor used
when factoring integers.
"""

from __future__ import annotations

import os

from .errors import BadArgs, ScanBoundExceeded

DEFAULT_SCAN_BOUND = 1 << 24
DEFAULT_FACTOR_BOUND = 1 << 32

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


def factor_bound(override: int | None = None) -> int:
    """Resolve the trial-division bound."""
    if override is not None:
        if override < 2:
            raise BadArgs("factor bound must be at least 2")
        return override
    return DEFAULT_FACTOR_BOUND


def check_scan(candidates: int, what: str) -> None:
    """Raise ScanBoundExceeded if a scan over `candidates` items is too large."""
    bound = scan_bound()
    if candidates > bound:
        raise ScanBoundExceeded(
            f"{what} needs {candidates} candidates, bound is {bound} "
            f"(raise it via {_ENV_SCAN_BOUND})"
        )
