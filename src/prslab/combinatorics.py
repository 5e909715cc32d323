"""Exact counting machinery: distinct-tuple sets, symmetrized-tuple norms,
the recombination predicate and its pairing witness.

Everything here is integer or rational arithmetic; no floating point.  The
public API takes bit strings (Python strings of '0'/'1', read left to right,
consistent with the package-wide most-significant-bit-first convention).
The good-set predicate and census run on the integers those strings spell:
the string functions validate, convert with int(s, 2) and call the same
integer predicate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .budget import check_enumeration

_MAX_PERM_LEN = 8


class ShapeError(ValueError):
    """Tuple components have inconsistent bit widths or lengths."""


def _check_bits(s: str, width: int, what: str) -> None:
    if len(s) != width or s.strip("01"):
        raise ShapeError(f"{what} must be a {width}-bit string, got {s!r}")


def all_bit_strings(width: int) -> Iterator[str]:
    for bits in itertools.product("01", repeat=width):
        yield "".join(bits)


def _unique_indices(elements: tuple[str, ...]) -> frozenset[int]:
    t = len(elements)
    return frozenset(
        j for j in range(t)
        if all(elements[j] != elements[k] for k in range(t) if k != j)
    )


@dataclass(frozen=True)
class TupleClass:
    """A tuple of bit strings together with its uniqueness structure."""

    t: int
    elements: tuple[str, ...]
    unique_indices: frozenset[int]
    distinct_count: int

    @classmethod
    def from_elements(cls, elements: Sequence[str]) -> "TupleClass":
        elements = tuple(elements)
        return cls(
            len(elements), elements, _unique_indices(elements), len(set(elements))
        )

    def __post_init__(self):
        if self.t != len(self.elements):
            raise ShapeError(f"t={self.t} does not match {len(self.elements)} elements")
        if _unique_indices(self.elements) != self.unique_indices:
            raise ShapeError("unique_indices does not match the elements")
        if len(set(self.elements)) != self.distinct_count:
            raise ShapeError("distinct_count does not match the elements")


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
    images: dict[tuple[str, ...], int] = {}
    for pi in itertools.permutations(range(t)):
        image = tuple(elements[pi[j]] for j in range(t))
        images[image] = images.get(image, 0) + 1
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
    for j in range(t):
        _check_bits(x_prime[j], i, f"x'[{j}]")
        _check_bits(x_dprime[j], tail, f"x''[{j}]")
        _check_bits(y[j], n, f"y[{j}]")
    combined = list(x_dprime) + [yj[-tail:] for yj in y]
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


def _suffix_prefix_clash(y_j: str, n: int, i: int) -> bool:
    """True when the (n-2i)-suffix of the bit string y_j equals its (n-2i)-prefix."""
    return _clash(int(y_j or "0", 2), n, i)  # the empty string spells 0


def in_good_set(x_prime: Sequence[str], y: Sequence[str], n: int, i: int) -> bool:
    """Recombination-friendly tuples: heads of y pairwise distinct and no
    suffix/prefix clash in any y_j.

    The head of y_j is its first (n - i) bits.  Requires n >= 2i, else the
    suffix/prefix comparison is undefined.
    """
    if n < 2 * i:
        raise ShapeError(f"suffix/prefix condition undefined for n={n} < 2i={2 * i}")
    x_prime, y = tuple(x_prime), tuple(y)
    t = len(y)
    if len(x_prime) != t or t == 0:
        raise ShapeError(f"component counts differ: {len(x_prime)} vs {len(y)}")
    for j in range(t):
        _check_bits(x_prime[j], i, f"x'[{j}]")
        _check_bits(y[j], n, f"y[{j}]")
    return _is_good([int(yj or "0", 2) for yj in y], n, i)  # "" spells 0


@dataclass(frozen=True)
class RecombinationWitness:
    """Explicit pairing of head-carrier elements with their y partners.

    pairs[j] = (x'_j + head(y_j), y_j, x'_j + y_j).  `elements_distinct`
    records whether the 2t paired strings are pairwise distinct, i.e. whether
    the pairing is recoverable from the element set alone.
    """

    pairs: tuple[tuple[str, str, str], ...]
    recombined: frozenset[str]
    elements_distinct: bool

    def round_trip(self) -> bool:
        """Split each recombined string back into (x', y) and compare."""
        i = len(self.pairs[0][2]) - len(self.pairs[0][1])
        rebuilt = {(s[:i], s[i:]) for s in self.recombined}
        original = {(p[2][:i], p[1]) for p in self.pairs}
        return rebuilt == original and len(self.recombined) == len(self.pairs)


def recombination_elements(
    x_prime: Sequence[str], y: Sequence[str], n: int, i: int
) -> list[str]:
    """The 2t n-bit strings {x'_j + head(y_j)} and {y_j}, in pair order."""
    out = []
    for xpj, yj in zip(x_prime, y):
        out.append(xpj + yj[: n - i])
        out.append(yj)
    return out


def recombine(x_prime: Sequence[str], y: Sequence[str]) -> RecombinationWitness:
    """Pair each x'_j + head(y_j) with its y_j and concatenate to x'_j + y_j.

    Only defined on the recombination-friendly set; raises otherwise.
    """
    x_prime, y = tuple(x_prime), tuple(y)
    if not y or not x_prime:
        raise ShapeError("empty tuples")
    i = len(x_prime[0])
    n = len(y[0])
    if not in_good_set(x_prime, y, n, i):
        raise ValueError("tuple is not in the recombination-friendly set")
    pairs = tuple(
        (xpj + yj[: n - i], yj, xpj + yj) for xpj, yj in zip(x_prime, y)
    )
    elements = recombination_elements(x_prime, y, n, i)
    return RecombinationWitness(
        pairs=pairs,
        recombined=frozenset(p[2] for p in pairs),
        elements_distinct=len(set(elements)) == len(elements),
    )


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
    check_enumeration(1 << (n * t), f"good-set scan over y-tuples n={n}, t={t}")
    singles = [y for y in range(1 << n) if not _clash(y, n, i)]
    return (ys for ys in itertools.product(singles, repeat=t) if _distinct_heads(ys, i))


def iter_good_members(n: int, i: int, t: int) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All (x', y) tuples passing the recombination-friendly predicate, as bit
    strings: every x' tuple (outer, lexicographic) with every good y-tuple."""
    ys = [tuple(format(y, f"0{n}b") for y in good) for good in _iter_good_y(n, i, t)]
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
