import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prslab import boolfn, budget
from prslab.boolfn import BooleanFunction, PrfKey
from prslab.budget import BudgetError


def product_tables(n, m):
    """Every table of the (n, m) function space, one itertools.product tuple
    each, in lexicographic order: the enumeration before tables were decoded
    from their index."""
    return list(itertools.product(range(m), repeat=1 << n))


def product_members(n, m, draws):
    """Every tuple of `draws` tables of the (n, m) space, as lists, in the
    order of itertools.product over the single-function stream: the oracle
    for the chunks decoded from member indices."""
    tables = [f.table.tolist() for f in boolfn.enumerate_all(n, m)]
    return [list(member) for member in itertools.product(tables, repeat=draws)]


def chunked_members(n, m, rows, draws):
    """The member tuples of enumerate_all's chunks, concatenated in order,
    after checking that each chunk is `draws` read-only (n, m) batches of
    one length, the last one short."""
    members = []
    for batch in boolfn.enumerate_all(n, m, rows, draws):
        assert len(batch) == draws
        assert len({f.table.shape for f in batch}) == 1
        for f in batch:
            assert (f.input_bits, f.range_modulus) == (n, m)
            assert f.table.dtype == np.int64 and not f.table.flags.writeable
        members += [list(member) for member in zip(*(f.table.tolist() for f in batch))]
        assert len(batch[0].table) == rows or len(members) == m ** (draws << n)
    return members


# every (n, m) with m <= 16 and m^(2^n) <= 2^16: n = 4, m = 2 spans 64 decode
# blocks; m = 1 (one table) reaches n = 5, and m = 3 is not a power of two
ENUMERATION_POINTS = [(n, m) for n in range(6) for m in range(1, 17)
                      if m ** (1 << n) <= 1 << 16]


class TestEnumeration:
    @pytest.mark.parametrize("n,m", ENUMERATION_POINTS)
    def test_decoded_tables_equal_the_product_enumeration(self, n, m):
        functions = list(boolfn.enumerate_all(n, m))
        for f in functions:
            assert (f.input_bits, f.range_modulus) == (n, m)
            assert f.table.shape == (1 << n,) and f.table.dtype == np.int64
            assert not f.table.flags.writeable
        got = np.array([f.table for f in functions])
        assert np.array_equal(got, np.array(product_tables(n, m)))

    # 16, 256 and 4096 members: neither 7 nor 100 rows divide a count
    @pytest.mark.parametrize("rows", [7, 100])
    @pytest.mark.parametrize("draws", [1, 2, 3])
    @pytest.mark.parametrize("n,m", [(2, 2), (1, 4)])
    def test_chunks_are_the_product_of_the_single_function_stream(self, n, m, draws, rows):
        assert chunked_members(n, m, rows, draws) == product_members(n, m, draws)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 2), m=st.integers(1, 5), draws=st.integers(1, 3),
           rows=st.integers(1, 40))
    def test_chunks_match_the_product_at_any_chunk_size(self, n, m, draws, rows):
        assume(m ** (draws << n) <= 1 << 12)
        assert chunked_members(n, m, rows, draws) == product_members(n, m, draws)

    def test_caps_refuse_before_any_table_is_built(self, monkeypatch):
        def build(f):
            raise AssertionError("a table was built")

        monkeypatch.setattr(BooleanFunction, "__post_init__", build)
        # 2^32 and 2^24 members, and 2^(2^28) functions refused as a power
        for args, size in (((4, 2, 16, 2), 2**32), ((2, 2, 4, 6), 2**24),
                           ((28, 2, 4, 1), "2\\^268435456")):
            with pytest.raises(BudgetError, match=f"would enumerate {size} items"):
                next(boolfn.enumerate_all(*args))
        with pytest.raises(ValueError, match="one draw"):
            next(boolfn.enumerate_all(2, 2, draws=2))

    def test_yielded_tables_refuse_writes(self):
        f = next(itertools.islice(boolfn.enumerate_all(4, 2), 1500, None))
        with pytest.raises(ValueError, match="read-only"):
            f.table[0] = 1
        assert isinstance(f(15), int) and f.table.tolist() == list(product_tables(4, 2)[1500])

    def test_single_bit_order(self):
        tables = [f.table.tolist() for f in boolfn.enumerate_all(1, 2)]
        assert tables == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_two_bit_count(self):
        assert sum(1 for _ in boolfn.enumerate_all(2, 2)) == 16

    def test_three_bit_no_duplicates(self):
        tables = {tuple(f.table.tolist()) for f in boolfn.enumerate_all(3, 2)}
        assert len(tables) == 256

    def test_count_stops_past_the_enumeration_cap(self):
        cap = budget.DEFAULT_ENUMERATION_LIMIT
        assert boolfn.function_count(2, 3) == 81
        assert boolfn.function_count(4, 3) == cap + 1  # 3^16
        assert boolfn.function_count(40, 1) == 1
        assert boolfn.function_count(40, 2) == cap + 1  # 2^(2^40) would not fit in memory

    def test_budget_error_states_count(self):
        with pytest.raises(BudgetError, match=str(2**32)):
            list(boolfn.enumerate_all(5, 2))

    @pytest.mark.parametrize("n", [1, 2])
    def test_sign_average_is_delta_pairing(self, n):
        # integer identity: summing (-1)^(f(x)+f(y)) over every f leaves
        # only the diagonal, each cell worth the full function count
        size = 1 << n
        total = boolfn.function_count(n, 2)
        acc = np.zeros((size, size), dtype=np.int64)
        for f in boolfn.enumerate_all(n, 2):
            signs = np.where(np.array(f.table) == 1, -1, 1)
            acc += np.outer(signs, signs)
        assert np.array_equal(acc, total * np.eye(size, dtype=np.int64))

    def test_general_modulus_enumeration(self):
        tables = [f.table.tolist() for f in boolfn.enumerate_all(1, 4)]
        assert len(tables) == 16
        assert tables[0] == [0, 0] and tables[1] == [0, 1] and tables[4] == [1, 0]


class TestTruthTable:
    def test_entry_out_of_range(self):
        for table in ((0, 2), (0, -1)):
            with pytest.raises(ValueError, match="out of range"):
                BooleanFunction(1, 2, table)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            BooleanFunction(2, 2, (0, 1))

    def test_two_dimensional_table_refused(self):
        with pytest.raises(ValueError, match="shape"):
            BooleanFunction(1, 2, np.array([[0], [1]]))

    def test_table_is_a_read_only_int64_copy(self):
        source = np.array([0, 1, 1, 0], dtype=np.uint8)
        f = BooleanFunction(2, 2, source)
        assert f.table.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            f.table[0] = 1
        source[0] = 1
        assert f.table.tolist() == [0, 1, 1, 0]

    def test_functions_compare_by_identity(self):
        # a generated __eq__ would raise on the array field; identity never does
        f, g = BooleanFunction(2, 2, (0, 1, 1, 0)), BooleanFunction(2, 2, (0, 1, 1, 0))
        assert f == f and f != g
        assert len({f, g}) == 2

    def test_random_function_table_is_read_only_and_in_range(self):
        f = boolfn.random_function(5, 8, np.random.default_rng(3))
        g = boolfn.random_function(5, 8, np.random.default_rng(3))
        assert f.table.dtype == np.int64 and not f.table.flags.writeable
        assert 0 <= f.table.min() and f.table.max() < 8
        assert np.array_equal(f.table, g.table)


class TestPrf:
    def test_deterministic(self):
        key = PrfKey(b"\x01" * 16)
        assert boolfn.prf_eval(key, 4, 2, 0) == boolfn.prf_eval(key, 4, 2, 0)

    def test_byte_exact_reference_values(self):
        # frozen digests guard cross-run and cross-platform stability
        key = PrfKey(bytes(range(16)), "probe")
        assert [boolfn.prf_eval(key, 3, 2, x) for x in range(8)] == [0, 1, 1, 1, 1, 0, 0, 1]
        assert [boolfn.prf_eval(key, 2, 4, x) for x in range(4)] == [3, 2, 0, 3]

    def test_distinct_keys_give_distinct_tables(self):
        tables = boolfn.prf_tables(boolfn.derive_keys(200, seed=7), 3, 2).table
        differing = sum(not np.array_equal(tables[2 * k], tables[2 * k + 1]) for k in range(100))
        assert differing >= 95

    def test_marginals_near_half(self):
        keys = boolfn.derive_keys(256, seed=11)
        tables = boolfn.prf_tables(keys, 3, 2).table
        marginals = tables.mean(axis=0)
        assert np.all(marginals >= 0.4) and np.all(marginals <= 0.6)

    def test_keys_from_an_offset_are_a_slice_of_the_sequence(self):
        keys = boolfn.derive_keys(10, seed=-3, label="probe")
        assert boolfn.derive_keys(4, -3, "probe", start=6) == keys[6:]
        assert boolfn.derive_keys(3, -3, "probe") == keys[:3]

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            PrfKey(b"short")

    def test_input_range_enforced(self):
        with pytest.raises(ValueError):
            boolfn.prf_eval(PrfKey(b"\x00" * 16), 2, 2, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_truth_table_equals_prf_eval(self, n):
        # the table hashes the per-key prefix once; prf_eval hashes each message whole
        for key in boolfn.derive_keys(3, seed=5, label="table"):
            for m in (2, 1 << n):
                table = boolfn.prf_tables([key], n, m).table[0]
                assert table.tolist() == [boolfn.prf_eval(key, n, m, x) for x in range(1 << n)]

    @pytest.mark.parametrize("n,m", [(5, 2), (5, 16), (5, 64), (5, 256), (9, 512)])
    def test_truth_table_equals_prf_eval_on_both_residue_reads(self, n, m):
        # m dividing 256: the batch reads the digest's last byte; m = 512 the
        # whole digest, as prf_eval always does; every row is its own key's
        keys = boolfn.derive_keys(3, seed=11, label="residue")
        batch = boolfn.prf_tables(keys, n, m)
        assert batch.table.shape == (3, 1 << n) and batch.range_modulus == m
        for key, table in zip(keys, batch.table):
            assert table.tolist() == [boolfn.prf_eval(key, n, m, x) for x in range(1 << n)]

    @pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_tables_equal_prf_eval_on_either_constructor(self, monkeypatch, builtin, n):
        # the batch hashes with CPython's builtin sha256 where it exists and
        # falls back to hashlib's; prf_eval always hashes with hashlib.  The
        # keys carry two labels, each with its own prefix state
        if not builtin:
            monkeypatch.setattr(boolfn, "_sha256", hashlib.sha256)
        keys = (boolfn.derive_keys(3, seed=2, label="one")
                + boolfn.derive_keys(2, seed=2, label="two"))
        for m in (2, 3, 256, 1 << n):
            batch = boolfn.prf_tables(keys, n, m).table
            assert batch.tolist() == [[boolfn.prf_eval(key, n, m, x) for x in range(1 << n)]
                                      for key in keys]

    def test_general_modulus_table(self):
        f = boolfn.prf_tables([PrfKey(b"\x02" * 16)], 3, 8)
        assert all(0 <= v < 8 for v in f.table[0])

    def test_materialization_cap(self):
        with pytest.raises(ValueError, match="cap"):
            boolfn.prf_tables([PrfKey(b"\x00" * 16)], 21, 2)

