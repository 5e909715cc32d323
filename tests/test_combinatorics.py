import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prslab import combinatorics as cb
from prslab.budget import BudgetError
from prslab.combinatorics import (
    ShapeError,
    dist_count,
    dist_lower_bound,
    in_dist_set,
    in_good_set,
    perm_norm_bound,
    perm_state_norm_sq,
    recombine,
)

from conftest import (
    closed_form_good_size, recombination_elements, register_permutation_operator,
)


def partitions(t, smallest=1):
    if t == 0:
        yield ()
        return
    for first in range(smallest, t + 1):
        for rest in partitions(t - first, first):
            yield (first,) + rest


def tuple_with_shape(shape):
    width = max(1, (len(shape) - 1).bit_length())
    out = []
    for value, mult in enumerate(shape):
        out.extend([format(value, f"0{width}b")] * mult)
    return tuple(out)


OPTIMIZED_BOUND_SCRIPT = """
import sys
from prslab import combinatorics as cb
if __debug__:
    sys.exit("not running under -O")
cb.dist_lower_bound = lambda n, t: 10**9
cb.perm_norm_bound = lambda t, k: 0
for call in (lambda: cb.dist_count(2, 2), lambda: cb.perm_state_norm_sq(("0", "0"))):
    try:
        call()
    except AssertionError:
        continue
    sys.exit("bound violation not raised")
"""


class TestBoundsRaiseExplicitly:
    def test_dist_count_raises_when_bound_fails(self, monkeypatch):
        monkeypatch.setattr(cb, "dist_lower_bound", lambda n, t: 10**9)
        with pytest.raises(AssertionError, match="below bound"):
            dist_count(2, 2)

    def test_perm_norm_raises_when_bound_fails(self, monkeypatch):
        monkeypatch.setattr(cb, "perm_norm_bound", lambda t, k: 0)
        with pytest.raises(AssertionError, match="exceeds bound"):
            perm_state_norm_sq(("0", "0"))

    def test_bounds_raise_under_optimize(self):
        src = str(Path(cb.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMIZED_BOUND_SCRIPT],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestDistCount:
    def test_small_values(self):
        assert dist_count(2, 2) == 12
        assert dist_lower_bound(2, 2) == 0
        assert dist_count(3, 2) == 56
        assert dist_lower_bound(3, 2) == 32

    def test_pigeonhole_zero(self):
        assert dist_count(1, 3) == 0
        assert dist_lower_bound(1, 3) <= 0

    def test_bound_holds_on_full_grid(self):
        for n in range(1, 9):
            for t in range(1, 9):
                assert dist_count(n, t) >= dist_lower_bound(n, t)

    def test_matches_exhaustive_enumeration(self):
        for n, t in ((2, 2), (2, 3), (3, 2)):
            strings = ["".join(b) for b in itertools.product("01", repeat=n)]
            count = sum(
                1
                for tup in itertools.product(strings, repeat=t)
                if len(set(tup)) == t
            )
            assert dist_count(n, t) == count


class TestPermStateNorm:
    def test_repeated_pair_is_tight(self):
        assert perm_state_norm_sq(("0", "0")) == 2
        assert perm_norm_bound(2, 1) == 2

    def test_distinct_pair(self):
        assert perm_state_norm_sq(("0", "1")) == 1

    def test_two_one_shape(self):
        assert perm_state_norm_sq(("0", "0", "1")) == 2
        assert perm_norm_bound(3, 2) == 2

    def test_all_equal_tuple_attains_factorial(self):
        for t in range(1, 6):
            norm_sq = perm_state_norm_sq(("1",) * t)
            assert norm_sq == math.factorial(t) == perm_norm_bound(t, 1)

    def test_bound_over_all_multiset_shapes(self):
        for t in range(1, 6):
            for shape in partitions(t):
                elements = tuple_with_shape(shape)
                assert perm_state_norm_sq(elements) <= perm_norm_bound(t, len(shape))

    def test_dense_vector_cross_check(self):
        # independent oracle: symmetrize an actual basis vector and take its norm
        for t in range(1, 5):
            for shape in partitions(t):
                elements = tuple_with_shape(shape)
                width = len(elements[0])
                local = 1 << width
                labels = [int(e, 2) for e in elements]
                base = np.zeros(local**t, dtype=complex)
                base[sum(v * local ** (t - 1 - j) for j, v in enumerate(labels))] = 1.0
                acc = np.zeros_like(base)
                for pi in itertools.permutations(range(t)):
                    acc += register_permutation_operator(local, t, pi) @ base
                dense = float(np.vdot(acc, acc).real) / math.factorial(t)
                assert abs(dense - float(perm_state_norm_sq(elements))) <= 1e-12

    def test_closed_form_over_all_shapes(self):
        # the norm is the product of the multiplicity factorials, through t = 7
        for t in range(1, 8):
            for shape in partitions(t):
                expected = math.prod(math.factorial(mult) for mult in shape)
                assert perm_state_norm_sq(tuple_with_shape(shape)) == expected

    def test_length_cap(self):
        with pytest.raises(ValueError):
            perm_state_norm_sq(("0",) * 9)


class TestDistPredicate:
    def test_accepts_fresh_tails(self):
        assert in_dist_set(("0",), ("0",), ("01",)) is True

    def test_rejects_tail_collision(self):
        assert in_dist_set(("0",), ("1",), ("01",)) is False

    def test_census_fraction_matches_falling_factorial(self):
        # at n=3, i=1, t=2 the predicate only reads (x'', y tails): the
        # accepting fraction over those coordinates is |Dist(2; 4)| / 2^8
        n, i, t = 3, 1, 2
        accepted = 0
        total = 0
        for xpp in itertools.product(["00", "01", "10", "11"], repeat=t):
            for tails in itertools.product(["00", "01", "10", "11"], repeat=t):
                y = tuple("0" + tail for tail in tails)
                total += 1
                accepted += in_dist_set(("0",) * t, xpp, y)
        assert total == 256
        assert accepted == dist_count(2, 4)

    def test_independent_of_untracked_coordinates(self):
        assert in_dist_set(("1",), ("0",), ("11",)) == in_dist_set(("0",), ("0",), ("01",))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            in_dist_set(("0",), ("0", "1"), ("01",))
        with pytest.raises(ShapeError):
            in_dist_set(("0",), ("00",), ("01",))


class TestGoodPredicate:
    def test_suffix_equal_prefix_rejected(self):
        assert in_good_set(("0",), ("010",), 3, 1) is False

    def test_suffix_differs_accepted(self):
        assert in_good_set(("0",), ("011",), 3, 1) is True

    def test_head_collision_rejected(self):
        assert in_good_set(("0", "1"), ("011", "010"), 3, 1) is False

    def test_undefined_below_double_overlap(self):
        with pytest.raises(ShapeError):
            in_good_set(("00",), ("011",), 3, 2)

    def test_boundary_case_everything_rejected(self):
        # n = 2i: the empty suffix equals the empty prefix for every string
        assert in_good_set(("0",), ("01",), 2, 1) is False

    def test_census_exceeds_quoted_bound(self):
        row = cb.good_census(4, 1, 2)
        assert row.good_size == 496
        assert row.dist_size == (1 << 4) * dist_count(3, 4)
        assert row.good_size >= row.bound
        assert row.slack == row.good_size - row.bound

    def test_census_product_structure_exact(self):
        # the per-coordinate condition factorizes: counting tuples whose every
        # y_j clears the suffix/prefix test equals the single-string count to
        # the t-th power, exactly
        n, i, t = 4, 1, 2
        singles = sum(
            1 for y in cb.all_bit_strings(n) if not cb._clash(int(y, 2), n, i)
        )
        assert singles == (1 << n) - (1 << (2 * i))
        tuples = sum(
            1
            for ys in itertools.product(cb.all_bit_strings(n), repeat=t)
            if all(not cb._clash(int(y, 2), n, i) for y in ys)
        )
        assert tuples == singles**t


def string_good(x_prime, y, n, i):
    """The recombination-friendly predicate written out on bit strings: the
    first n - i bits of the y_j pairwise distinct, and no y_j whose last
    n - 2i bits equal its first n - 2i bits."""
    w = n - 2 * i
    heads = [yj[: n - i] for yj in y]
    return len(set(heads)) == len(y) and not any(yj[n - w :] == yj[:w] for yj in y)


def string_scan(n, i, t):
    """The census by nested scan over every (x', y) string tuple."""
    strings = lambda width: ["".join(b) for b in itertools.product("01", repeat=width)]
    for x_prime in itertools.product(strings(i), repeat=t):
        for y in itertools.product(strings(n), repeat=t):
            if string_good(x_prime, y, n, i):
                yield x_prime, y


def string_recombine(x_prime, y):
    """The recombination witness built on bit strings: (pairs, recombined,
    elements_distinct, round_trip) with pairs[j] = (x'_j + head(y_j), y_j,
    x'_j + y_j), the round trip splitting the recombined set back into (x', y)."""
    i, n = len(x_prime[0]), len(y[0])
    pairs = tuple((xpj + yj[: n - i], yj, xpj + yj) for xpj, yj in zip(x_prime, y))
    recombined = frozenset(p[2] for p in pairs)
    elements = [s for p in pairs for s in p[:2]]
    rebuilt = {(s[:i], s[i:]) for s in recombined}
    original = {(p[2][:i], p[1]) for p in pairs}
    round_trip = rebuilt == original and len(recombined) == len(pairs)
    return pairs, recombined, len(set(elements)) == len(elements), round_trip


def integer_recombine(x_prime, y):
    witness = recombine(x_prime, y)
    return witness.pairs, witness.recombined, witness.elements_distinct, witness.round_trip()


@st.composite
def good_set_tuples(draw):
    # half the draws give the last y_j the head of y_0, so head collisions are
    # common; the other half, where members come from, draws distinct heads
    # and 1 <= i < n/2, since at i = 0 or n = 2i every y clashes
    collide = draw(st.booleans())
    n = draw(st.integers(1 if collide else 3, 12))
    i = draw(st.integers(0, n // 2) if collide else st.integers(1, (n - 1) // 2))
    t = draw(st.integers(1, 4))
    ys = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=t, max_size=t,
                       unique_by=None if collide else (lambda y: y >> i)))
    if collide:
        ys[-1] = ys[0] ^ draw(st.integers(0, (1 << i) - 1))
    xs = draw(st.lists(st.integers(0, (1 << i) - 1), min_size=t, max_size=t))
    return n, i, xs, ys


# every (n <= 6, 0 <= i <= n/2, t <= 3) with 2^((n+i)t) <= 2^16; includes
# n = 2i, where every y clashes, and i = 0, where x' is the empty string
CENSUS_POINTS = [
    (n, i, t)
    for n in range(1, 7)
    for i in range(n // 2 + 1)
    for t in range(1, 4)
    if (n + i) * t <= 16
]


# the 59 points (n <= 8, 0 <= i <= n/2, t <= 3) with n t <= 16: the y-tuple
# scan of 2^(nt) tuples stays within 2^16
CLOSED_FORM_POINTS = [
    (n, i, t)
    for n in range(1, 9)
    for i in range(n // 2 + 1)
    for t in range(1, 4)
    if n * t <= 16
]


class TestIntegerGoodSet:
    @pytest.mark.parametrize("n,i,t", CLOSED_FORM_POINTS)
    def test_census_equals_the_closed_form(self, n, i, t):
        assert cb.good_census(n, i, t).good_size == closed_form_good_size(n, i, t)

    @settings(max_examples=300, deadline=None)
    @given(good_set_tuples())
    def test_integer_predicate_matches_string_predicate(self, case):
        n, i, xs, ys = case
        x_prime = tuple(format(x, f"0{i}b") if i else "" for x in xs)
        y = tuple(format(v, f"0{n}b") for v in ys)
        expected = string_good(x_prime, y, n, i)
        assert cb._is_good(ys, n, i) == expected
        assert in_good_set(x_prime, y, n, i) == expected

    @pytest.mark.parametrize("n,i,t", CENSUS_POINTS)
    def test_members_and_census_equal_nested_string_scan(self, n, i, t):
        expected = list(string_scan(n, i, t))
        assert list(cb.iter_good_members(n, i, t)) == expected
        assert cb.good_census(n, i, t).good_size == len(expected)

    @pytest.mark.parametrize("n,i,t", [(4, -1, 2), (4, 1, 0), (3, 2, 2), (-1, 0, 1)])
    def test_rejects_bad_census_inputs(self, n, i, t):
        with pytest.raises(ShapeError, match="needs i >= 0, t >= 1 and n >= 2i"):
            cb.good_census(n, i, t)
        with pytest.raises(ShapeError, match="needs i >= 0, t >= 1 and n >= 2i"):
            next(cb.iter_good_members(n, i, t))

    def test_scan_is_budgeted(self):
        with pytest.raises(BudgetError, match="4194304 items"):
            cb.good_census(11, 0, 2)
        with pytest.raises(BudgetError):
            next(cb.iter_good_members(7, 1, 3))

    def test_strings_are_validated(self):
        # int(s, 2) alone would take "0_1" and " 11"
        for y in ("0a1", "0_1", " 11", "01", "0111"):
            with pytest.raises(ShapeError):
                in_good_set(("0",), (y,), 3, 1)
        for bad in ((("2",), ("011",)), (("",), ("011",))):
            with pytest.raises(ShapeError):
                in_good_set(*bad, 3, 1)


MALFORMED = [
    *((("0",), (bad,)) for bad in ("0a1", "0_1", " 11")),
    *((("0", "1"), ("011", bad)) for bad in ("0a1", "0_1", " 11", "01", "0111")),
    (("2",), ("011",)),
    (("0", ""), ("011", "101")),
    (("0",), ("011", "101")),
    (("0", "1"), ("011",)),
    (("00",), ("011",)),
]


def assert_refused_as_in_good_set(x_prime, y):
    with pytest.raises(ShapeError) as expected:
        in_good_set(x_prime, y, len(y[0]), len(x_prime[0]))
    with pytest.raises(ShapeError) as raised:
        recombine(x_prime, y)
    assert str(raised.value) == str(expected.value)


class TestRecombine:
    @pytest.mark.parametrize("n,i,t", [p for p in CENSUS_POINTS if p[1] >= 1])
    def test_integer_witness_matches_string_witness_on_every_member(self, n, i, t):
        for x_prime, y in cb.iter_good_members(n, i, t):
            assert integer_recombine(x_prime, y) == string_recombine(x_prime, y)

    @settings(max_examples=300, deadline=None)
    @given(good_set_tuples())
    def test_integer_witness_matches_string_witness_on_draws(self, case):
        n, i, xs, ys = case
        x_prime = tuple(format(x, f"0{i}b") if i else "" for x in xs)
        y = tuple(format(v, f"0{n}b") for v in ys)
        if string_good(x_prime, y, n, i):
            assert integer_recombine(x_prime, y) == string_recombine(x_prime, y)
        else:
            with pytest.raises(ValueError, match="not in the recombination-friendly set"):
                recombine(x_prime, y)

    @pytest.mark.parametrize("x_prime,y", MALFORMED)
    def test_malformed_input_raises_as_in_good_set(self, x_prime, y):
        assert_refused_as_in_good_set(x_prime, y)

    def test_malformed_input_raises_the_same_once_its_parts_are_cached(self):
        # each well-formed half of a malformed case is parsed by one of these
        # calls first; the shape checks must still refuse the case
        for x_prime, y in ((("0",), ("011",)), (("0", "1"), ("011", "110")),
                           (("00",), ("01101",))):
            assert recombine(x_prime, y).round_trip()
        hits = cb._x_prime_values.cache_info().hits
        for x_prime, y in MALFORMED:
            assert_refused_as_in_good_set(x_prime, y)
        assert cb._x_prime_values.cache_info().hits > hits

    @pytest.mark.parametrize("widths", [("0", "00"), ("00", "0")])
    def test_a_cached_y_tuple_is_judged_at_each_overlap_width(self, widths):
        # n = 4: with i = 1 the last 2 bits of 0110 differ from its first 2,
        # with i = 2 = n/2 every y clashes; i is part of the cache key
        cb._good_y_values.cache_clear()
        for x in widths:
            if len(x) == 1:
                assert recombine((x,), ("0110",)).ys == (6,)
            else:
                with pytest.raises(ValueError, match="not in the recombination-friendly set"):
                    recombine((x,), ("0110",))

    def test_single_pair_ordering(self):
        witness = recombine(("1",), ("011",))
        assert witness.pairs == (("101", "011", "1011"),)
        assert witness.recombined == frozenset({"1011"})
        assert witness.round_trip()

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            recombine(("0",), ("010",))

    def test_round_trip_for_every_member(self):
        for n, i, t in ((3, 1, 1), (3, 1, 2)):
            for x_prime, y in cb.iter_good_members(n, i, t):
                assert recombine(x_prime, y).round_trip()

    def test_element_collisions_exist_inside_the_set(self):
        # the printed predicate admits members whose pair elements collide
        # across pairs (x'_j + head(y_j) equals some y_l), so recovering the
        # pairing from the element set alone is not always possible
        members = list(cb.iter_good_members(3, 1, 2))
        colliding = [m for m in members if not recombine(*m).elements_distinct]
        assert len(members) == 48
        assert len(colliding) == 16
        example = (("0", "0"), ("001", "011"))
        assert example in members
        elements = recombination_elements(*example, 3, 1)
        assert len(set(elements)) == 3  # "001" plays both roles

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "stated distinctness of the 2t pair elements fails for the "
            "printed predicate: cross-pair collisions such as "
            "x'=(0,0), y=(001,011) are admitted; see the element-collision "
            "test above for the exhaustive counterexample census"
        ),
    )
    def test_good_members_have_distinct_elements(self):
        for n, i, t in ((3, 1, 2), (4, 1, 2)):
            for x_prime, y in cb.iter_good_members(n, i, t):
                elements = recombination_elements(x_prime, y, n, i)
                assert len(set(elements)) == 2 * t

    def test_distinctness_restored_by_strengthened_predicate(self):
        # adding the element-distinctness requirement itself (the property the
        # recombination isometry actually needs) leaves a set on which
        # classification from the element set alone is sound
        n, i, t = 3, 1, 2
        for x_prime, y in cb.iter_good_members(n, i, t):
            witness = recombine(x_prime, y)
            if not witness.elements_distinct:
                continue
            elements = set(recombination_elements(x_prime, y, n, i))
            assert len(elements) == 2 * t
            assert witness.round_trip()

    def test_recombined_strings_always_distinct(self):
        # head distinctness makes the t recombined strings distinct even for
        # colliding members, which is what the round trip relies on
        for x_prime, y in cb.iter_good_members(3, 1, 2):
            assert len(recombine(x_prime, y).recombined) == len(y)
