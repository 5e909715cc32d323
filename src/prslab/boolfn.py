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

from .budget import DEFAULT_ENUMERATION_LIMIT, check_power_enumeration

# CPython's builtin sha256, whose state copies for less than OpenSSL's
# (`_sha2` from 3.12, `_sha256` before); `prf_tables` hashes with it and
# `prf_eval`, the oracle, with hashlib
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        _sha256 = hashlib.sha256

KEY_BYTES = 16

_MAX_TABLE_BITS = 20  # full truth-table materialization cap

_DECODE_ROWS = 1024  # tables decoded and checked at once by enumerate_all's single stream


@dataclass(frozen=True, eq=False)
class BooleanFunction:
    """The truth table f(0), ..., f(2^n - 1) of residues mod m, or a batch of
    such tables as the rows of a (members, 2^n) array, held as a read-only
    int64 copy of the input made and range-checked here, once; the single
    functions `enumerate_all` yields are rows of such a batch and share its
    storage.
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
        return self._views(self.table)

    def _dealt(self, parts: int) -> tuple[BooleanFunction, ...]:
        """This checked batch's rows dealt into `parts` batches, row r to
        batch r % parts, as read-only views: neither copied nor checked again."""
        return tuple(self._views(self.table[part::parts] for part in range(parts)))

    def _views(self, tables) -> Iterator[BooleanFunction]:
        """Functions of this batch's (n, m) on views of its storage."""
        cls, n, m = type(self), self.input_bits, self.range_modulus
        # set as __init__ sets them, so the instance keeps its compact attribute layout
        set_ = object.__setattr__
        for table in tables:
            f = object.__new__(cls)
            set_(f, "input_bits", n)
            set_(f, "range_modulus", m)
            set_(f, "table", table)
            yield f


def stack(functions) -> BooleanFunction:
    """Non-empty single functions of one (n, m) as one batch, a table row each."""
    functions = list(functions)
    shapes = {(f.input_bits, f.range_modulus) for f in functions}
    if len(shapes) != 1:
        raise ValueError(f"a batch needs functions of one (n, m), got {sorted(shapes)}")
    ((n, m),) = shapes
    return BooleanFunction(n, m, [f.table for f in functions])


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
    """m^(2^n), counted up to the enumeration cap: a larger space, which no
    route enumerates, counts as DEFAULT_ENUMERATION_LIMIT + 1 unbuilt."""
    if (1 << n) * (m.bit_length() - 1) > DEFAULT_ENUMERATION_LIMIT.bit_length():
        return DEFAULT_ENUMERATION_LIMIT + 1
    return min(m ** (1 << n), DEFAULT_ENUMERATION_LIMIT + 1)


def enumerate_all(n: int, m: int, rows: int | None = None,
                  draws: int = 1) -> Iterator[BooleanFunction | tuple[BooleanFunction, ...]]:
    """All m^(2^n) functions in lexicographic table order (table[0] most
    significant), function k the 2^n digits of k in base m: up to
    `_DECODE_ROWS` tables are decoded into one batch, checked once, and its
    rows yielded as functions that share its storage.  With `rows`, every
    tuple of `draws` functions, in `itertools.product` order, in chunks of up
    to `rows` members: member k's draw d is function k // F^(draws-1-d) % F
    of the F functions, so each chunk yields one tuple of `draws` batches,
    each decoded from the chunk's member indices and checked once."""
    if rows is None and draws != 1:
        raise ValueError(f"the single-function stream has one draw, got draws={draws}")
    what = f"function space n={n}, m={m}" + (f", draws={draws}" if draws != 1 else "")
    check_power_enumeration(m, draws << n, what)
    count = function_count(n, m)
    place = np.array([m**k for k in reversed(range(1 << n))], dtype=np.int64)
    # the place values of draw d's table entries in a member index
    places = [count ** (draws - 1 - d) * place for d in range(draws)]
    members, step = count**draws, rows or _DECODE_ROWS
    for start in range(0, members, step):
        index = np.arange(start, min(start + step, members), dtype=np.int64)
        batches = tuple(BooleanFunction(n, m, index[:, None] // p % m) for p in places)
        del index  # the indices are not held while the chunk is read
        if rows is None:
            yield from batches[0]._rows()
        else:
            yield batches
        del batches  # not held while the next chunk is decoded


def _prefix(label: str, n: int, m: int) -> bytes:
    """The key-independent start label | 0x1f | n | m of every entry's
    message; the key follows it, and entry x appends x as 4 bytes."""
    return label.encode() + b"\x1f" + n.to_bytes(2, "big") + m.to_bytes(8, "big")


def prf_eval(key: PrfKey, n: int, m: int, x: int) -> int:
    """Keyed pseudorandom residue: sha256(label | n | m | key | x) mod m."""
    if not 0 <= x < (1 << n):
        raise ValueError(f"input {x} out of range for {n} bits")
    h = hashlib.sha256(_prefix(key.label, n, m) + key.key_bytes + x.to_bytes(4, "big"))
    return int.from_bytes(h.digest(), "big") % m


def prf_tables(keys, n: int, m: int) -> BooleanFunction:
    """The truth tables of the keyed function under each key as one batch,
    a row per key (n <= 20), hashed in one loop and range-checked once.

    The key-independent prefix is hashed once per call (and label), each
    key's state is copied from it and then copied for each input x, so
    entry x of row k equals prf_eval(keys[k], n, m, x).  When m divides 256
    it divides 2^256 too, so the digest's residue is its last byte's: the
    loop lists that byte and the table takes it mod m."""
    if n > _MAX_TABLE_BITS:
        raise ValueError(f"refusing to materialize 2**{n} entries (cap n={_MAX_TABLE_BITS})")
    suffixes = [x.to_bytes(4, "big") for x in range(1 << n)]
    last_byte = 256 % m == 0
    entries, prefixes = [], {}
    append = entries.append
    for key in keys:
        if key.label not in prefixes:
            prefixes[key.label] = _sha256(_prefix(key.label, n, m))
        keyed = prefixes[key.label].copy()
        keyed.update(key.key_bytes)
        copy = keyed.copy
        if last_byte:
            for suffix in suffixes:
                h = copy()
                h.update(suffix)
                append(h.digest()[-1])
        else:
            for suffix in suffixes:
                h = copy()
                h.update(suffix)
                append(int.from_bytes(h.digest(), "big") % m)
    table = np.array(entries, dtype=np.int64).reshape(-1, 1 << n)
    del entries, append  # the list is not held beside the checked copy
    if last_byte:
        table %= m
    return BooleanFunction(n, m, table)


def derive_keys(count: int, seed: int, label: str = "prs", start: int = 0) -> list[PrfKey]:
    """Deterministic key list for sampled ensembles: keys start, ..., start +
    count - 1 of the seed's sequence, byte-exact given (count, seed, start)."""
    keys = []
    for idx in range(start, start + count):
        digest = hashlib.sha256(
            b"prslab-key" + seed.to_bytes(8, "big", signed=True) + idx.to_bytes(8, "big")
        ).digest()
        keys.append(PrfKey(digest[:KEY_BYTES], label))
    return keys


def random_function(n: int, m: int, rng: np.random.Generator,
                    members: int | None = None) -> BooleanFunction:
    """A uniform table mod m from `rng`, or a batch of `members` such tables
    drawn by one call, which reads the generator's stream as `members`
    single draws in turn would: row k is the k-th of them."""
    shape = (1 << n,) if members is None else (members, 1 << n)
    return BooleanFunction(n, m, rng.integers(0, m, size=shape))

