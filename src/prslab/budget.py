"""Memory and enumeration budgets with fail-fast size arithmetic.

The memory budget is one process setting that every check reads: the
innermost `limit`, else PRS_LAB_BUDGET_MIB, else DEFAULT_BUDGET_MIB."""

from __future__ import annotations

import numbers
import os
from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_BUDGET_MIB = 2048
BUDGET_ENV_VAR = "PRS_LAB_BUDGET_MIB"

DEFAULT_ENUMERATION_LIMIT = 1 << 20

_BYTES_PER_COMPLEX = 16
_MIB = 1 << 20

_LIMIT: ContextVar[int | None] = ContextVar("prslab_budget_mib", default=None)


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


def budget_mib() -> int:
    """The active budget in MiB; an env value that is not a whole number >= 1
    raises BudgetError naming the variable."""
    mib = _LIMIT.get()
    if mib is not None:
        return mib
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        return _positive_mib(env, BUDGET_ENV_VAR)
    return DEFAULT_BUDGET_MIB


@contextmanager
def limit(mib, origin: str = "the budget limit"):
    """Set the budget to `mib` MiB for the block, restoring the previous
    setting on exit; a value that is not a whole number >= 1 raises
    BudgetError naming `origin`, where the value came from, before the
    block runs."""
    token = _LIMIT.set(_positive_mib(mib, origin))
    try:
        yield
    finally:
        _LIMIT.reset(token)


def check_complex_array(entries: int, what: str) -> None:
    """Fail fast if `entries` 16-byte units (one complex128 or two float64
    values each) would not fit in the budget."""
    limit_mib = budget_mib()
    required = entries * _BYTES_PER_COMPLEX
    if required > limit_mib * _MIB:
        raise BudgetError(
            f"{what} requires {required / _MIB:.1f} MiB "
            f"({entries} entries of 16 bytes) but the budget is {limit_mib} MiB"
        )


def check_enumeration(count: int, what: str) -> None:
    """Fail fast if an enumeration of `count` items exceeds the cap."""
    if count > DEFAULT_ENUMERATION_LIMIT:
        raise BudgetError(
            f"{what} would enumerate {count} items; "
            f"the enumeration budget is {DEFAULT_ENUMERATION_LIMIT}"
        )
