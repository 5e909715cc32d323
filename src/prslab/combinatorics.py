"""Exact counting machinery: distinct-tuple sets, symmetrized-tuple norms,
the recombination predicate and its pairing witness.

Everything here is integer or rational arithmetic; no floating point.  The
public API takes bit strings (Python strings of '0'/'1', read left to right,
consistent with the package-wide most-significant-bit-first convention).
The good-set predicate, census and recombination witness run on the
integers those strings spell: the string functions validate and convert each
string once (`_bit_values`) and call the same integer predicate; the witness
formats strings back only when they are read.  `recombine` keeps the parsed
x' tuples and the parsed good y-tuples in two bounded caches, so a census
that pairs each good y-tuple with every x' tuple validates it once.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .budget import check_power_enumeration

_MAX_PERM_LEN = 8
_PARSE_CACHE_SIZE = 1 << 14  # entries in each of recombine's parse caches


class ShapeError(ValueError):
    """Tuple components have inconsistent bit widths or lengths."""


def _bit_values(strings: Sequence[str], width: int, what: str) -> list[int]:
    """The integers the width-bit strings spell, each string checked once.

    int(s, 2) alone would also take "0b1", "0_1" and " 11"; the empty string
    (width 0) spells 0.
    """
    values = []
    for j, s in enumerate(strings):
        if len(s) != width or s.strip("01"):
            raise ShapeError(f"{what}[{j}] must be a {width}-bit string, got {s!r}")
        values.append(int(s or "0", 2))
    return values


def all_bit_strings(width: int) -> Iterator[str]:
    for bits in itertools.product("01", repeat=width):
        yield "".join(bits)


def dist_count(n: int, t: int) -> int:
    """Number of t-tuples of pairwise-distinct n-bit strings, exactly.

    Falling factorial 2^n (2^n - 1) ... (2^n - t + 1); zero when t > 2^n.
    Raises AssertionError unless the exact value dominates the
    2^{nt} (1 - t^2 / 2^n) lower bound.
    """
    if n < 0 or t < 1:
        raise ValueError(f"need n >= 0 and t >= 1, got n={n}, t={t}")
    size = 1 << n
    value = 1
    for k in range(t):
        value *= max(size - k, 0)
    bound = dist_lower_bound(n, t)
    if not value >= bound:
        raise AssertionError(f"falling factorial {value} below bound {bound}")
    return value


def dist_lower_bound(n: int, t: int) -> Fraction:
    """2^{nt} (1 - t^2 / 2^n), as an exact rational."""
    return Fraction(1 << (n * t)) * (1 - Fraction(t * t, 1 << n))


def perm_state_norm_sq(elements: Sequence[str]) -> Fraction:
    """Squared norm of the permutation-symmetrized tuple ket, exactly.

    (1/t!) sum over permutation pairs of the indicator that the permuted
    tuples coincide; equals the product of multiplicity factorials and is
    bounded by (t - k + 1)! for k distinct values.
    """
    elements = tuple(elements)
    t = len(elements)
    if t < 1:
        raise ValueError("need at least one element")
    if t > _MAX_PERM_LEN:
        raise ValueError(f"t={t} exceeds the factorial-enumeration cap {_MAX_PERM_LEN}")
    images = Counter(itertools.permutations(elements))
    total = sum(c * c for c in images.values())
    norm_sq = Fraction(total, math.factorial(t))
    k = len(set(elements))
    bound = perm_norm_bound(t, k)
    if not norm_sq <= bound:
        raise AssertionError(f"norm^2 {norm_sq} exceeds bound {bound}")
    return norm_sq


def perm_norm_bound(t: int, k: int) -> int:
    """(t - k + 1)! for a length-t tuple with k distinct values."""
    return math.factorial(t - k + 1)


def in_dist_set(
    x_prime: Sequence[str], x_dprime: Sequence[str], y: Sequence[str]
) -> bool:
    """Whether the overlap parts and the y tails form 2t pairwise-distinct strings.

    The tail of each y_j is its last (n - i) bits, matching the x'' width.
    """
    x_prime, x_dprime, y = tuple(x_prime), tuple(x_dprime), tuple(y)
    t = len(y)
    if len(x_prime) != t or len(x_dprime) != t or t == 0:
        raise ShapeError(
            f"component counts differ: {len(x_prime)}, {len(x_dprime)}, {len(y)}"
        )
    i = len(x_prime[0])
    n = len(y[0])
    tail = n - i
    if tail < 1:
        raise ShapeError(f"need n > i, got n={n}, i={i}")
    _bit_values(x_prime, i, "x'")
    low = (1 << tail) - 1
    combined = _bit_values(x_dprime, tail, "x''") + [v & low for v in _bit_values(y, n, "y")]
    return len(set(combined)) == 2 * t


def _clash(y: int, n: int, i: int) -> bool:
    """True when the low (n-2i) bits of the n-bit y equal its high (n-2i) bits."""
    return y & ((1 << (n - 2 * i)) - 1) == y >> (2 * i)


def _distinct_heads(ys: Sequence[int], i: int) -> bool:
    """True when the heads y >> i (the first n - i bits) are pairwise distinct."""
    return len({y >> i for y in ys}) == len(ys)


def _is_good(ys: Sequence[int], n: int, i: int) -> bool:
    """The recombination-friendly predicate on an integer y-tuple."""
    return _distinct_heads(ys, i) and not any(_clash(y, n, i) for y in ys)


def _check_good_set_shape(x_prime: Sequence[str], y: Sequence[str], n: int, i: int) -> None:
    if n < 2 * i:
        raise ShapeError(f"suffix/prefix condition undefined for n={n} < 2i={2 * i}")
    if len(x_prime) != len(y) or not y:
        raise ShapeError(f"component counts differ: {len(x_prime)} vs {len(y)}")


def _good_set_values(
    x_prime: Sequence[str], y: Sequence[str], n: int, i: int
) -> tuple[list[int], list[int]]:
    """The integer x' and y tuples of a well-formed (x', y) pair; ShapeError otherwise."""
    _check_good_set_shape(x_prime, y, n, i)
    return _bit_values(x_prime, i, "x'"), _bit_values(y, n, "y")


def in_good_set(x_prime: Sequence[str], y: Sequence[str], n: int, i: int) -> bool:
    """Recombination-friendly tuples: heads of y pairwise distinct and no
    suffix/prefix clash in any y_j.

    The head of y_j is its first (n - i) bits.  Requires n >= 2i, else the
    suffix/prefix comparison is undefined.
    """
    _, ys = _good_set_values(tuple(x_prime), tuple(y), n, i)
    return _is_good(ys, n, i)


@dataclass(frozen=True, slots=True)
class RecombinationWitness:
    """Explicit pairing of head-carrier elements with their y partners.

    Holds the integer x' (i bits) and y (n bits) tuples; the strings are
    formatted when read.  pairs[j] = (x'_j + head(y_j), y_j, x'_j + y_j).
    `elements_distinct` records whether the 2t paired values are pairwise
    distinct, i.e. whether the pairing is recoverable from the element set
    alone.
    """

    n: int
    i: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    @property
    def pairs(self) -> tuple[tuple[str, str, str], ...]:
        n, i = self.n, self.i
        return tuple(
            (format(x << (n - i) | y >> i, f"0{n}b"), format(y, f"0{n}b"),
             format(x << n | y, f"0{n + i}b"))
            for x, y in zip(self.xs, self.ys)
        )

    @property
    def recombined(self) -> frozenset[str]:
        return frozenset(p[2] for p in self.pairs)

    @property
    def elements_distinct(self) -> bool:
        shift = self.n - self.i
        elements = {x << shift | y >> self.i for x, y in zip(self.xs, self.ys)}
        elements.update(self.ys)
        return len(elements) == 2 * len(self.ys)

    def round_trip(self) -> bool:
        """Split each joined value x << n | y back into (x, y) and compare;
        the t joined values must be distinct.  One pass that stops at the
        first failing pair; the closing length test refuses unequal tuples."""
        n = self.n
        low = (1 << n) - 1
        seen = set()
        for x, y in zip(self.xs, self.ys):
            v = x << n | y
            if v in seen or v >> n != x or v & low != y:
                return False
            seen.add(v)
        return len(seen) == len(self.xs) == len(self.ys)


# The two parse caches below are keyed by immutable tuples of str together
# with the widths the values are checked against, so an entry cannot go stale;
# a refusal raises and lru_cache stores nothing for it.  They stay private:
# perfbench's tracer wraps only plain public functions.

@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _x_prime_values(x_prime: tuple[str, ...], i: int) -> tuple[int, ...]:
    return tuple(_bit_values(x_prime, i, "x'"))


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _good_y_values(y: tuple[str, ...], n: int, i: int) -> tuple[int, ...]:
    """The integer y-tuple, once it is well formed and good; i is in the key
    because the predicate reads it."""
    ys = _bit_values(y, n, "y")
    if not _is_good(ys, n, i):
        raise ValueError("tuple is not in the recombination-friendly set")
    return tuple(ys)


def recombine(x_prime: Sequence[str], y: Sequence[str]) -> RecombinationWitness:
    """Pair each x'_j + head(y_j) with its y_j and concatenate to x'_j + y_j.

    Only defined on the recombination-friendly set; raises otherwise.
    """
    x_prime, y = tuple(x_prime), tuple(y)
    if not y or not x_prime:
        raise ShapeError("empty tuples")
    n, i = len(y[0]), len(x_prime[0])
    if n < 2 * i or len(x_prime) != len(y):  # the only refusals left to the shape check
        _check_good_set_shape(x_prime, y, n, i)
    return RecombinationWitness(n, i, _x_prime_values(x_prime, i), _good_y_values(y, n, i))


@dataclass(frozen=True)
class GoodCensusRow:
    n: int
    i: int
    t: int
    dist_size: int
    good_size: int
    bound: Fraction
    slack: Fraction


def _check_census_shape(n: int, i: int, t: int) -> None:
    if i < 0 or t < 1 or n < 2 * i:
        raise ShapeError(f"the good-set census needs i >= 0, t >= 1 and n >= 2i, "
                         f"got n={n}, i={i}, t={t}")


def _iter_good_y(n: int, i: int, t: int) -> Iterator[tuple[int, ...]]:
    """Every good integer y-tuple, in lexicographic order.

    The clash test reads one y_j at a time, so the non-clashing values are
    filtered once and only their t-fold products are tested for distinct heads.
    """
    _check_census_shape(n, i, t)
    check_power_enumeration(2, n * t, f"good-set scan over y-tuples n={n}, t={t}")
    singles = [y for y in range(1 << n) if not _clash(y, n, i)]
    return (ys for ys in itertools.product(singles, repeat=t) if _distinct_heads(ys, i))


def iter_good_members(n: int, i: int, t: int) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All (x', y) tuples passing the recombination-friendly predicate, as bit
    strings: every x' tuple (outer, lexicographic) with every good y-tuple.
    The y-tuples share one string per value, which recombine's cache keeps."""
    goods = _iter_good_y(n, i, t)
    strings = [format(y, f"0{n}b") for y in range(1 << n)]
    ys = [tuple(strings[y] for y in good) for good in goods]
    for x_prime in itertools.product(all_bit_strings(i), repeat=t):
        for y in ys:
            yield x_prime, y


def good_census(n: int, i: int, t: int) -> GoodCensusRow:
    """Exhaustive counts over the (x', y) tuple space, with the quoted lower bound.

    x' never enters the predicate, so good_size is the good y-tuple count
    times 2^{it}.  dist_size is the composite distinct-tuple count
    2^{2it} |Dist(n-i; 2t)|; bound is 2^{(n+i)t} (1 - t^2/2^{n-i} - t/2^{n-i}).
    """
    good_size = sum(1 for _ in _iter_good_y(n, i, t)) << (i * t)
    dist_size = (1 << (2 * i * t)) * dist_count(n - i, 2 * t)
    total = 1 << ((n + i) * t)
    bound = Fraction(total) * (
        1 - Fraction(t * t, 1 << (n - i)) - Fraction(t, 1 << (n - i))
    )
    return GoodCensusRow(n, i, t, dist_size, good_size, bound, good_size - bound)
