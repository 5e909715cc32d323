"""Memory and enumeration budgets with fail-fast size arithmetic.

The memory budget is one process setting that every check reads: the
innermost `limit`, else PRS_LAB_BUDGET_MIB, else DEFAULT_BUDGET_MIB."""

from __future__ import annotations

import math
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


def _size(value: int) -> str:
    """`value` in full below 2^64, past it as 2^k: one short line at any size."""
    return str(value) if value < 1 << 64 else f"2^{math.log2(value):.10g}"


def check_complex_array(entries: int, what: str) -> None:
    """Fail fast if `entries` 16-byte units (one complex128 or two float64
    values each) would not fit in the budget."""
    limit_mib = budget_mib()
    required = entries * _BYTES_PER_COMPLEX
    if required > limit_mib * _MIB:
        mib = f"{required / _MIB:.1f}" if required < 1 << 64 else _size(required >> 20)
        raise BudgetError(f"{what} requires {mib} MiB ({_size(entries)} entries of 16 bytes) "
                          f"but the budget is {limit_mib} MiB")


def check_enumeration(count: int, what: str) -> None:
    """Fail fast if an enumeration of `count` items exceeds the cap."""
    if count > DEFAULT_ENUMERATION_LIMIT:
        raise BudgetError(f"{what} would enumerate {_size(count)} items; "
                          f"the enumeration budget is {DEFAULT_ENUMERATION_LIMIT}")


def check_power_enumeration(base: int, exponent: int, what: str) -> None:
    """`check_enumeration` of base^exponent items (base >= 1).  A count past
    2^64 is refused unbuilt, as a power: the 2^(2^28) functions on 28 bits
    are a 32 MiB integer."""
    if exponent * (base.bit_length() - 1) > 64:  # base^exponent >= 2^65
        size = f"({_size(base)})" if base >> 64 else base
        raise BudgetError(f"{what} would enumerate {size}^{_size(exponent)} items; "
                          f"the enumeration budget is {DEFAULT_ENUMERATION_LIMIT}")
    check_enumeration(base**exponent, what)
