"""Truth-table function space: enumeration, sampling, and a toy keyed PRF.

Functions map n-bit inputs to residues mod m (m=2 for sign phases, m=2^n for
root-of-unity phases).  The keyed PRF is a domain-separated cryptographic
hash: deterministic and byte-exact across runs and platforms, with no
security claim attached.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .budget import check_enumeration

KEY_BYTES = 16

_MAX_TABLE_BITS = 20  # full truth-table materialization cap

_DECODE_ROWS = 1024  # tables decoded and checked at once by enumerate_all


@dataclass(frozen=True, eq=False)
class BooleanFunction:
    """The truth table f(0), ..., f(2^n - 1) of residues mod m, or a batch of
    such tables as the rows of a (members, 2^n) array, held as a read-only
    int64 copy of the input made and range-checked here, once; the functions
    `enumerate_all` yields are rows of such a batch and share its storage.
    Calling it evaluates one function.  Compares by identity: compare tables with
    `np.array_equal`."""

    input_bits: int
    range_modulus: int
    table: np.ndarray

    def __post_init__(self):
        n, m = self.input_bits, self.range_modulus
        if n < 0 or m < 1:
            raise ValueError(f"invalid function shape n={n}, m={m}")
        table = np.array(self.table, dtype=np.int64)
        if table.shape[-1:] != (1 << n,) or table.ndim > 2 or not table.size:
            raise ValueError(f"table has shape {table.shape}, expected (2**{n},) = ({1 << n},) "
                             f"or (members >= 1, {1 << n})")
        # a negative entry reads as a huge unsigned one, so one maximum checks both ends
        if table.view(np.uint64).max() >= m:
            raise ValueError(f"table entry out of range [0, {m})")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def _rows(self) -> Iterator[BooleanFunction]:
        """The rows of this checked batch as single functions whose tables are
        read-only views of its storage, neither copied nor checked again."""
        cls, n, m = type(self), self.input_bits, self.range_modulus
        # set as __init__ sets them, so the instance keeps its compact attribute layout
        set_ = object.__setattr__
        for row in self.table:
            f = object.__new__(cls)
            set_(f, "input_bits", n)
            set_(f, "range_modulus", m)
            set_(f, "table", row)
            yield f


@dataclass(frozen=True)
class PrfKey:
    key_bytes: bytes
    label: str = "prs"

    def __post_init__(self):
        if len(self.key_bytes) != KEY_BYTES:
            raise ValueError(
                f"key has {len(self.key_bytes)} bytes, expected {KEY_BYTES}"
            )


def function_count(n: int, m: int) -> int:
    return m ** (1 << n)


def enumerate_all(n: int, m: int) -> Iterator[BooleanFunction]:
    """All m^(2^n) functions, in lexicographic table order (table[0] most significant).

    Function k is the 2^n digits of k in base m.  Up to `_DECODE_ROWS`
    consecutive indices are decoded into one batch, checked once, and its
    rows yielded as functions that share the batch's storage."""
    count = function_count(n, m)
    check_enumeration(count, f"function space n={n}, m={m}")
    place = np.array([m**k for k in reversed(range(1 << n))], dtype=np.int64)
    for start in range(0, count, _DECODE_ROWS):
        index = np.arange(start, min(start + _DECODE_ROWS, count), dtype=np.int64)
        yield from BooleanFunction(n, m, index[:, None] // place % m)._rows()


def _prefix_hash(key: PrfKey, n: int, m: int):
    """sha256 state after the per-key prefix label | 0x1f | n | m | key of
    every entry's message; entry x appends x as 4 bytes."""
    return hashlib.sha256(key.label.encode() + b"\x1f" + n.to_bytes(2, "big")
                          + m.to_bytes(8, "big") + key.key_bytes)


def prf_eval(key: PrfKey, n: int, m: int, x: int) -> int:
    """Keyed pseudorandom residue: sha256(label | n | m | key | x) mod m."""
    if not 0 <= x < (1 << n):
        raise ValueError(f"input {x} out of range for {n} bits")
    h = _prefix_hash(key, n, m)
    h.update(x.to_bytes(4, "big"))
    return int.from_bytes(h.digest(), "big") % m


def prf_truth_table(key: PrfKey, n: int, m: int) -> BooleanFunction:
    """Materialize the full truth table of the keyed function (n <= 20).

    The per-key prefix is hashed once and the hash state copied for each
    input x, so entry x equals prf_eval(key, n, m, x)."""
    if n > _MAX_TABLE_BITS:
        raise ValueError(f"refusing to materialize 2**{n} entries (cap n={_MAX_TABLE_BITS})")
    prefix = _prefix_hash(key, n, m)
    table = []
    for x in range(1 << n):
        h = prefix.copy()
        h.update(x.to_bytes(4, "big"))
        table.append(int.from_bytes(h.digest(), "big") % m)
    return BooleanFunction(n, m, table)


def derive_keys(count: int, seed: int, label: str = "prs") -> list[PrfKey]:
    """Deterministic key list for sampled ensembles; byte-exact given (count, seed)."""
    keys = []
    for idx in range(count):
        digest = hashlib.sha256(
            b"prslab-key" + seed.to_bytes(8, "big", signed=True) + idx.to_bytes(8, "big")
        ).digest()
        keys.append(PrfKey(digest[:KEY_BYTES], label))
    return keys


def random_function(n: int, m: int, rng: np.random.Generator) -> BooleanFunction:
    return BooleanFunction(n, m, rng.integers(0, m, size=1 << n))

