"""Memory and enumeration budgets with fail-fast size arithmetic."""

from __future__ import annotations

import numbers
import os

DEFAULT_BUDGET_MIB = 2048
BUDGET_ENV_VAR = "PRS_LAB_BUDGET_MIB"

DEFAULT_ENUMERATION_LIMIT = 1 << 20

_BYTES_PER_COMPLEX = 16
_MIB = 1 << 20


class BudgetError(MemoryError):
    """An operation would exceed the configured memory or enumeration budget."""


def _positive_mib(value, source: str) -> int:
    """An integer, or a string holding one, that is >= 1; bools and floats are refused."""
    try:
        whole = isinstance(value, (numbers.Integral, str)) and not isinstance(value, bool)
        mib = int(value) if whole else 0
    except ValueError:
        mib = 0
    if mib < 1:
        raise BudgetError(f"{source} must be a whole number of MiB >= 1, got {value!r}")
    return mib


def budget_mib(override: int | None = None) -> int:
    """Resolve the active budget: explicit override, else env var, else default.

    A value that is not a whole number >= 1 raises BudgetError naming its source.
    """
    if override is not None:
        return _positive_mib(override, "the budget override (--budget-mib)")
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        return _positive_mib(env, BUDGET_ENV_VAR)
    return DEFAULT_BUDGET_MIB


def check_complex_array(entries: int, what: str, override: int | None = None) -> None:
    """Fail fast if `entries` 16-byte units (one complex128 or two float64
    values each) would not fit in the budget."""
    limit = budget_mib(override)
    required = entries * _BYTES_PER_COMPLEX
    if required > limit * _MIB:
        raise BudgetError(
            f"{what} requires {required / _MIB:.1f} MiB "
            f"({entries} entries of 16 bytes) but the budget is {limit} MiB"
        )


def check_enumeration(count: int, what: str) -> None:
    """Fail fast if an enumeration of `count` items exceeds the cap."""
    if count > DEFAULT_ENUMERATION_LIMIT:
        raise BudgetError(
            f"{what} would enumerate {count} items; "
            f"the enumeration budget is {DEFAULT_ENUMERATION_LIMIT}"
        )
