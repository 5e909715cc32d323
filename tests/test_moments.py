import hashlib
import itertools
import json
import tracemalloc
from dataclasses import replace
from functools import cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prslab import boolfn, budget, corelin, expand, moments
from prslab.budget import DEFAULT_BUDGET_MIB, BudgetError
from prslab.boolfn import BooleanFunction
from prslab.corelin import DensityOperator
from prslab.moments import (
    ExhaustiveAllFunctions,
    Method,
    MomentSpec,
    PrfKeys,
    Source,
    UniformSample,
    compare_to_haar,
    ensemble_moment_bruteforce,
    ensemble_moment_deltapair,
    haar_moment,
)
from prslab.prsgen import PrsGenerator, PrsKind

from conftest import (
    assert_matrices_close,
    assert_vectors_close,
    average_t_fold,
    class_scale,
    classes_by_permutation,
    compression,
    dense_pairing_moment,
    dense_trace_distance,
    filtered_pairing_tuples,
    haar_moment_monte_carlo,
    hadamard_conjugate,
    haar_operands,
    measured_peak,
    random_unitary,
    symmetric_isometry,
)


def plain(n, t, space=None):
    return MomentSpec(Source.PLAIN, n=n, t=t,
                      function_space=space or ExhaustiveAllFunctions())


def c1(n, i, t, space=None):
    return MomentSpec(Source.CONSTRUCTION1, n=n, t=t, i=i,
                      function_space=space or ExhaustiveAllFunctions())


def without_final_layer(construction):
    """A circuit with its layout's final layer left out, as `member_state`
    evaluates it."""
    return replace(construction, layout=replace(construction.layout, final_layer=False))


def stacked_members(spec, tuples):
    """The members of a list of function tuples as one batch state: draw d
    of every member stacked into one batch function."""
    return moments.member_state(spec, tuple(map(boolfn.stack, zip(*tuples))))


def complex_reference_moment(spec):
    """The brute-force accumulation with every member cast to complex128,
    chunk by chunk as the route ran it before sign-phase members were real."""
    states = np.array([moments.member_state(spec, fns).amplitudes
                       for fns in moments.member_functions(spec)], dtype=np.complex128)
    dim = states.shape[1] ** spec.t
    rows = moments._chunk_rows(dim)
    moment = np.zeros((dim, dim), dtype=np.complex128)
    for start in range(0, len(states), rows):
        vs = folded = states[start:start + rows]
        for _ in range(spec.t - 1):
            folded = np.einsum("ka,kb->kab", folded, vs).reshape(len(vs), -1)
        moment += folded.T @ folded.conj()
    return moment / len(states)


class TestMomentSpec:
    @pytest.mark.parametrize("source,n,i,ell,match", [
        (Source.PLAIN, 0, None, None, "block width must be >= 1"),
        (Source.CONSTRUCTION2, 0, None, None, "block width must be >= 1"),
        (Source.CONSTRUCTION1, 2, 2, None, "1 <= i < n"),
        (Source.CONSTRUCTION1, 2, 0, None, "1 <= i < n"),
        (Source.CONSTRUCTION1, 2, -1, None, "1 <= i < n"),
        (Source.CONSTRUCTION1, 2, None, None, "1 <= i < n"),
        (Source.CONSTRUCTION2, 3, None, None, "even n >= 2"),
        (Source.CONSTRUCTION3, 3, None, 2, "even n >= 2"),
        (Source.CONSTRUCTION3, 2, None, 0, "ell >= 1"),
        (Source.CONSTRUCTION3, 2, None, None, "ell >= 1"),
    ])
    def test_rejects_geometry_the_circuits_refuse(self, source, n, i, ell, match):
        with pytest.raises(ValueError, match=match):
            MomentSpec(source, n=n, t=1, i=i, ell=ell)

    @pytest.mark.parametrize("spec", [
        MomentSpec(Source.CONSTRUCTION1, n=3, t=1, i=1),
        MomentSpec(Source.CONSTRUCTION1, n=4, t=1, i=3),
        MomentSpec(Source.CONSTRUCTION2, n=4, t=1),
        MomentSpec(Source.CONSTRUCTION2, n=2, t=1, shared_key=True),
        MomentSpec(Source.CONSTRUCTION3, n=2, t=1, ell=3),
        MomentSpec(Source.CONSTRUCTION3, n=4, t=1, ell=1),
    ], ids=lambda spec: spec.source.value)
    def test_block_offsets_match_the_evaluated_circuit(self, spec, monkeypatch, rng):
        evaluated = []
        evaluate = expand.evaluate

        def capture(construction, *args, **kwargs):
            evaluated.append(construction)
            return evaluate(construction, *args, **kwargs)

        monkeypatch.setattr(expand, "evaluate", capture)
        layout = spec.layout
        fns = tuple(boolfn.random_function(spec.n, 2, rng) for _ in range(layout.draws))
        moments.member_state(spec, fns)
        (construction,) = evaluated
        assert construction.layout == replace(layout, final_layer=False)
        assert [gen.f for gen in construction.generators] == list(fns)
        assert {gen.n for gen in construction.generators} == {spec.n}

    def test_plain_block_offsets_match_one_block_circuit(self, rng):
        # the plain member is prepared directly; it equals the one-block circuit
        spec = plain(3, 1)
        assert spec.layout == expand.Layout(3, (0,), (0,), False)
        for _ in range(8):
            f = boolfn.random_function(3, 2, rng)
            gen = PrsGenerator(spec.kind, 3, f)
            circuit = expand.evaluate(expand.ConstructionSpec(spec.layout, (gen,)))
            assert_vectors_close(circuit.amplitudes,
                                 moments.member_state(spec, (f,)).amplitudes, 1e-15)


# (source, n, i, ell, shared_key) of each pinned point, one to three draws per member
STREAM_POINTS = {
    "plain-2": (Source.PLAIN, 2, None, None, False),
    "plain-3": (Source.PLAIN, 3, None, None, False),
    "c1-2-1": (Source.CONSTRUCTION1, 2, 1, None, False),
    "c3-2-ell2": (Source.CONSTRUCTION3, 2, None, 2, False),
    "c2-2": (Source.CONSTRUCTION2, 2, None, None, False),
    "c2-2-shared": (Source.CONSTRUCTION2, 2, None, None, True),
}
STREAM_SPACES = {
    "exhaustive": ExhaustiveAllFunctions(), "prf:64@7": PrfKeys(64, 7),
    "prf:64@-3": PrfKeys(64, -3), "uniform:64@7": UniformSample(64, 7),
    "uniform:64@2^70": UniformSample(64, 2**70),
}
# sha256 (first 16 hex digits) of the shape and the little-endian int64
# tables of the first 4096 members of each point, kind and space; an
# exhaustive space of more than 2^20 members is left out, as the enumeration
# cap refuses it.  A uniform space ignores the source, so some digests repeat
STREAM_DIGESTS = {
    "plain-2 binary exhaustive": "3f95e2f99fbd2ed2",
    "plain-2 binary prf:64@7": "a0e29dc79e9f3a33",
    "plain-2 binary prf:64@-3": "04ad76fd8aa4ee7d",
    "plain-2 binary uniform:64@7": "83f39beccfd1e6c6",
    "plain-2 binary uniform:64@2^70": "007b91b8eee3b956",
    "plain-2 general exhaustive": "8c4546a654e40876",
    "plain-2 general prf:64@7": "1450976d794bb8a8",
    "plain-2 general prf:64@-3": "5b23d22b9749d824",
    "plain-2 general uniform:64@7": "c82fd5afb65b5743",
    "plain-2 general uniform:64@2^70": "7a98b88a094f969f",
    "plain-3 binary exhaustive": "8e48bab0e8025103",
    "plain-3 binary prf:64@7": "c04a7c76084d818f",
    "plain-3 binary prf:64@-3": "cd2db5fb755e0e05",
    "plain-3 binary uniform:64@7": "f4c3938ef87dd596",
    "plain-3 binary uniform:64@2^70": "f19d3983a7548acf",
    "plain-3 general prf:64@7": "049c9cd93fd61a47",
    "plain-3 general prf:64@-3": "f657a88099b3ef2c",
    "plain-3 general uniform:64@7": "0ce07db90c27a3b0",
    "plain-3 general uniform:64@2^70": "3fd85188de903531",
    "c1-2-1 binary exhaustive": "3f95e2f99fbd2ed2",
    "c1-2-1 binary prf:64@7": "359ff49317090b2a",
    "c1-2-1 binary prf:64@-3": "927008cf1a3d5662",
    "c1-2-1 binary uniform:64@7": "83f39beccfd1e6c6",
    "c1-2-1 binary uniform:64@2^70": "007b91b8eee3b956",
    "c1-2-1 general exhaustive": "8c4546a654e40876",
    "c1-2-1 general prf:64@7": "624e93cb73b4bd47",
    "c1-2-1 general prf:64@-3": "2afb717eab82d6ad",
    "c1-2-1 general uniform:64@7": "c82fd5afb65b5743",
    "c1-2-1 general uniform:64@2^70": "7a98b88a094f969f",
    "c3-2-ell2 binary exhaustive": "18f4b4d059bb3517",
    "c3-2-ell2 binary prf:64@7": "6ac590dc7cf742f7",
    "c3-2-ell2 binary prf:64@-3": "99bc388f863fca56",
    "c3-2-ell2 binary uniform:64@7": "3990afd107d8200a",
    "c3-2-ell2 binary uniform:64@2^70": "3ab458a294d58da6",
    "c3-2-ell2 general exhaustive": "635666b01f15a5c3",
    "c3-2-ell2 general prf:64@7": "d9f06127d87c3fc3",
    "c3-2-ell2 general prf:64@-3": "4b14d427db669b7a",
    "c3-2-ell2 general uniform:64@7": "8c8c393c74d27b88",
    "c3-2-ell2 general uniform:64@2^70": "3fa2a01f105a2f81",
    "c2-2 binary exhaustive": "845135980986f627",
    "c2-2 binary prf:64@7": "63840952e37d9b56",
    "c2-2 binary prf:64@-3": "004ccbdef4a3ac17",
    "c2-2 binary uniform:64@7": "b0a2d4e998ad1d97",
    "c2-2 binary uniform:64@2^70": "d15573aa658d770f",
    "c2-2 general prf:64@7": "286ab3cdf7ff8973",
    "c2-2 general prf:64@-3": "b551b9fd14e1ac84",
    "c2-2 general uniform:64@7": "d6806c9c3a86f94b",
    "c2-2 general uniform:64@2^70": "8ec31dd460d5c9ca",
    "c2-2-shared binary exhaustive": "3f95e2f99fbd2ed2",
    "c2-2-shared binary prf:64@7": "441f4bd7321a96e0",
    "c2-2-shared binary prf:64@-3": "94351ec13a08b737",
    "c2-2-shared binary uniform:64@7": "83f39beccfd1e6c6",
    "c2-2-shared binary uniform:64@2^70": "007b91b8eee3b956",
    "c2-2-shared general exhaustive": "8c4546a654e40876",
    "c2-2-shared general prf:64@7": "5bf072ebf31a4cf0",
    "c2-2-shared general prf:64@-3": "3a1a588925788bc8",
    "c2-2-shared general uniform:64@7": "c82fd5afb65b5743",
    "c2-2-shared general uniform:64@2^70": "7a98b88a094f969f",
}


class TestFunctionSpaces:
    @pytest.mark.parametrize("case", sorted(STREAM_DIGESTS))
    def test_member_streams_are_pinned(self, case):
        point, kind, space = case.split()
        source, n, i, ell, shared = STREAM_POINTS[point]
        spec = MomentSpec(source, n=n, t=1, kind=PrsKind(kind), i=i, ell=ell, shared_key=shared,
                          function_space=STREAM_SPACES[space])
        members = list(itertools.islice(moments.member_functions(spec), 4096))
        tables = np.array([[f.table for f in fns] for fns in members], dtype="<i8")
        digest = hashlib.sha256(repr(tables.shape).encode() + tables.tobytes()).hexdigest()
        assert digest[:16] == STREAM_DIGESTS[case]

    @pytest.mark.parametrize("cls", [PrfKeys, UniformSample])
    @pytest.mark.parametrize("count", [None, True, 2.5, 0, -3])
    def test_sampled_space_refuses_a_count_that_is_not_a_whole_number_from_1(self, cls, count):
        with pytest.raises(ValueError, match=rf"count must be a whole number in \[1, inf\), "
                                             rf"got {count}"):
            cls(count, 1)

    @pytest.mark.parametrize("cls,seed", [
        *((cls, seed) for cls in (PrfKeys, UniformSample) for seed in (None, True, 1.5)),
        (PrfKeys, 1 << 63), (PrfKeys, -(1 << 63) - 1), (UniformSample, -1),
    ])
    def test_sampled_space_refuses_a_seed_its_draw_cannot_use(self, cls, seed):
        with pytest.raises(ValueError, match=rf"{cls.name} seed must be a whole number"):
            cls(4, seed)

    @pytest.mark.parametrize("space", [
        PrfKeys(1, -(1 << 63)), PrfKeys(1, (1 << 63) - 1),
        UniformSample(1, 0), UniformSample(1, 1 << 70),
    ], ids=repr)
    def test_seed_range_ends_draw(self, space):
        (fns,) = space.members(2, 2)
        assert len(fns) == 1

    def test_moment_spec_refuses_a_space_that_is_not_one(self):
        with pytest.raises(ValueError, match="unknown function space .exhaustive."):
            MomentSpec(Source.PLAIN, n=2, t=1, function_space="exhaustive")

    @pytest.mark.parametrize("cls", [PrfKeys, UniformSample])
    @pytest.mark.parametrize("source,count", [
        (Source.PLAIN, budget.DEFAULT_ENUMERATION_LIMIT + 1),
        (Source.CONSTRUCTION2, budget.DEFAULT_ENUMERATION_LIMIT // 3 + 1),  # three draws each
    ])
    def test_sampled_members_share_the_enumeration_cap(self, cls, source, count):
        spec = MomentSpec(source, n=2, t=1, function_space=cls(count, 1))
        with pytest.raises(BudgetError, match=f"{cls.name} ensemble of {count} members"):
            next(moments.member_functions(spec))

    def test_exhaustive_space_reports_seed_0(self):
        assert ExhaustiveAllFunctions().seed == 0
        assert compare_to_haar(plain(1, 1), Method.BRUTE_FORCE).seed == 0

    def test_uniform_batches_are_the_per_member_stream(self, monkeypatch):
        # 70 members of 3 draws in chunks of 32, the last one short: one
        # generator call and one range check per chunk, whose tables are
        # those of 210 single draws from the same seed, member by member
        rng = np.random.default_rng(9)
        expected = np.array([[boolfn.random_function(3, 8, rng).table for _ in range(3)]
                             for _ in range(70)])
        checked, init = [], BooleanFunction.__post_init__

        def check(f):
            checked.append(np.shape(f.table))
            init(f)

        monkeypatch.setattr(BooleanFunction, "__post_init__", check)
        batches = list(UniformSample(70, seed=9).batches(3, 8, 3, "prs", 32))
        assert checked == [(96, 8), (96, 8), (18, 8)]
        assert [[f.table.shape for f in batch] for batch in batches] == (
            [[(32, 8)] * 3] * 2 + [[(6, 8)] * 3])
        got = np.concatenate([np.stack([f.table for f in batch], axis=1) for batch in batches])
        assert np.array_equal(got, expected)
        members = UniformSample(70, seed=9).members(3, 8, draws=3)
        assert np.array_equal(np.array([[f.table for f in fns] for fns in members]), expected)

    def test_prf_keys_are_derived_chunk_by_chunk(self, monkeypatch):
        # 70 members of 3 draws in chunks of 32: each chunk's keys are derived
        # as it is drawn, from their place in the seed's sequence
        calls, derive = [], boolfn.derive_keys

        def record(count, seed, label, start=0):
            calls.append((count, start))
            return derive(count, seed, label, start)

        monkeypatch.setattr(boolfn, "derive_keys", record)
        batches = PrfKeys(70, seed=9).batches(3, 8, 3, "prs", 32)
        next(batches)
        assert calls == [(96, 0)]
        list(batches)
        assert calls == [(96, 0), (96, 96), (18, 192)]

    def test_exhaustive_route_decodes_one_batch_per_draw_and_chunk(self, monkeypatch):
        # c2 n=2 t=1: 4096 members of three draws in 4 chunks of 1024, each
        # chunk three decoded batches checked once; no single function is
        # built and none is stacked
        checked, init = [], BooleanFunction.__post_init__

        def check(f):
            checked.append(np.shape(f.table))
            init(f)

        def refuse(*args):
            raise AssertionError("a per-function object was built")

        monkeypatch.setattr(BooleanFunction, "__post_init__", check)
        monkeypatch.setattr(BooleanFunction, "_views", refuse)
        monkeypatch.setattr(boolfn, "stack", refuse)
        ensemble_moment_bruteforce(MomentSpec(Source.CONSTRUCTION2, n=2, t=1))
        assert checked == [(1024, 4)] * 12

    @settings(max_examples=40, deadline=None)
    @given(prf=st.booleans(), n=st.integers(1, 3), wide=st.booleans(), draws=st.integers(1, 3),
           count=st.integers(1, 40), rows=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    def test_batches_are_the_per_member_oracle_in_chunks(self, prf, n, wide, draws, count,
                                                         rows, seed):
        # PRF entries from prf_eval under the space's keys, uniform tables
        # from one random_function call per draw; every chunk is full but
        # the last, and the members are the batches' rows
        m = 1 << n if wide else 2
        if prf:
            keys = boolfn.derive_keys(count * draws, seed, "probe")
            expected = [[[boolfn.prf_eval(keys[k * draws + d], n, m, x) for x in range(1 << n)]
                         for d in range(draws)] for k in range(count)]
        else:
            rng = np.random.default_rng(seed)
            expected = [[boolfn.random_function(n, m, rng).table.tolist() for _ in range(draws)]
                        for _ in range(count)]
        space = (PrfKeys if prf else UniformSample)(count, seed)
        batches = list(space.batches(n, m, draws, "probe", rows))
        assert [len(batch[0].table) for batch in batches] == [
            min(rows, count - start) for start in range(0, count, rows)]
        assert all(len(batch) == draws for batch in batches)
        assert all((f.input_bits, f.range_modulus) == (n, m) and not f.table.flags.writeable
                   for batch in batches for f in batch)
        got = np.concatenate([np.stack([f.table for f in batch], axis=1) for batch in batches])
        assert got.tolist() == expected
        members = space.members(n, m, draws, "probe")
        assert [[f.table.tolist() for f in fns] for fns in members] == expected


# every source at small sizes; the multi-block ones with and without a shared key
BATCH_SPECS = [
    MomentSpec(source, n=n, t=1, kind=kind, i=i, ell=ell, shared_key=shared)
    for kind in PrsKind
    for source, n, i, ell, shared in [
        (Source.PLAIN, 1, None, None, False), (Source.PLAIN, 3, None, None, False),
        (Source.CONSTRUCTION1, 2, 1, None, False), (Source.CONSTRUCTION1, 3, 2, None, False),
        (Source.CONSTRUCTION2, 2, None, None, False), (Source.CONSTRUCTION2, 2, None, None, True),
        (Source.CONSTRUCTION2, 4, None, None, False),
        (Source.CONSTRUCTION3, 2, None, 3, False), (Source.CONSTRUCTION3, 2, None, 3, True),
        (Source.CONSTRUCTION3, 4, None, 2, False),
    ]
]


class TestMemberBatch:
    @settings(max_examples=80, deadline=None)
    @given(spec=st.sampled_from(BATCH_SPECS), members=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 1))
    def test_every_row_is_the_member_evaluated_alone(self, spec, members, seed):
        rng = np.random.default_rng(seed)
        m = spec.kind.range_modulus(spec.n)
        tuples = [tuple(boolfn.random_function(spec.n, m, rng)
                        for _ in range(spec.layout.draws)) for _ in range(members)]
        batch = stacked_members(spec, tuples)
        assert batch.amplitudes.shape == (members, 1 << spec.layout.qubits)
        for row, fns in zip(batch.amplitudes, tuples):
            alone = expand.evaluate(without_final_layer(expand.circuit(spec.layout, fns,
                                                                       spec.kind)))
            assert row.dtype == alone.amplitudes.dtype
            assert_vectors_close(row, alone.amplitudes, 1e-15)

    def test_functions_of_another_shape_are_refused(self, rng):
        spec = MomentSpec(Source.PLAIN, n=2, t=1, kind=PrsKind.GENERAL_PHASE)
        with pytest.raises(ValueError, match="modulus 4, got 2"):
            stacked_members(spec, [(boolfn.random_function(2, 2, rng),)] * 3)
        mixed = [(boolfn.random_function(2, 4, rng),), (boolfn.random_function(2, 2, rng),)]
        with pytest.raises(ValueError, match="one \\(n, m\\)"):
            stacked_members(spec, mixed)

    def test_moment_path_builds_no_state_per_member(self, monkeypatch):
        built = []
        init = corelin.PureState.__post_init__

        def count(state):
            built.append(state.amplitudes.shape)
            init(state)

        monkeypatch.setattr(corelin.PureState, "__post_init__", count)
        ensemble_moment_bruteforce(MomentSpec(Source.CONSTRUCTION2, n=2, t=1))
        # 4096 members in 4 chunks of 1024, each with 6 batch states: the
        # prepared first block, its placement in the register and two layers
        # for each further block; members are held before the final layer
        assert len(built) == 4 * 6
        assert all(shape[0] == 1024 for shape in built)

    @pytest.mark.parametrize("spec", [
        plain(4, 2), MomentSpec(Source.PLAIN, n=2, t=2, kind=PrsKind.GENERAL_PHASE),
    ], ids=["plain-4-2", "general-plain-2-2"])
    def test_benchmark_points_match_the_per_member_accumulation(self, spec):
        # the other three exhaustive benchmark points (c1 n=3 i=1 t=2, c2 n=2
        # t=1, c3 n=2 ell=3 t=1) are cases of the complex-accumulation test
        got = ensemble_moment_bruteforce(spec).matrix
        assert_matrices_close(got, complex_reference_moment(spec), 1e-15)


class TestBruteForce:
    def test_plain_first_moment_is_maximally_mixed(self):
        got = ensemble_moment_bruteforce(plain(2, 1))
        assert_matrices_close(got.matrix, np.eye(4) / 4, 1e-12)

    def test_single_member_is_rank_one(self):
        got = ensemble_moment_bruteforce(plain(2, 2, UniformSample(1, seed=3)))
        eigs = np.linalg.eigvalsh(got.matrix)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(eigs[:-1]) <= 1e-12)

    def test_construction2_and_3_members_average(self):
        # sampled spaces exercise the multi-key sources end to end
        spec2 = MomentSpec(Source.CONSTRUCTION2, n=2, t=1,
                           function_space=PrfKeys(4, seed=5))
        spec3 = MomentSpec(Source.CONSTRUCTION3, n=2, t=1, ell=3,
                           function_space=UniformSample(4, seed=5))
        for spec in (spec2, spec3):
            got = ensemble_moment_bruteforce(spec)
            assert got.dim == 16
            assert got.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_first_exhaustive_member_streams(self):
        # listed, the 65 536 functions of enumerate_all(4, 2) hold 21.5 MiB
        # (tracemalloc: 8 MiB of decoded blocks, 13.5 MiB of function
        # objects); the first member needs one block of 1024 tables
        measured = measured_peak(lambda: next(moments.member_functions(plain(4, 1))))
        assert measured < 1 << 20

    def test_exhaustive_members_run_over_every_table_tuple_in_order(self):
        spec = MomentSpec(Source.CONSTRUCTION2, n=2, t=1)  # three draws of 16 tables
        tables = [tuple(f.table.tolist()) for f in boolfn.enumerate_all(2, 2)]
        assert [tuple(tuple(f.table.tolist()) for f in fns)
                for fns in moments.member_functions(spec)] == list(
            itertools.product(tables, repeat=3))

    def test_shared_key_variant_reuses_one_function(self):
        # one draw per member, fed to all three blocks
        spec = MomentSpec(Source.CONSTRUCTION2, n=2, t=1,
                          function_space=UniformSample(3, seed=8), shared_key=True)
        fns = list(moments.member_functions(spec))
        assert all(len(f) == 1 for f in fns)
        for (f,) in fns:
            direct = expand.evaluate(without_final_layer(expand.construction2(f, f, f, 2)))
            via_member = moments.member_state(spec, (f,))
            assert np.max(np.abs(direct.amplitudes - via_member.amplitudes)) == 0.0

    def test_shared_key_c3_member_is_the_staircase_of_one_function(self, rng):
        spec = MomentSpec(Source.CONSTRUCTION3, n=2, t=1, ell=3, shared_key=True)
        for _ in range(4):
            f = boolfn.random_function(2, 2, rng)
            direct = expand.evaluate(without_final_layer(expand.construction3([f] * 3, 2)))
            assert direct.amplitudes.tobytes() == moments.member_state(spec, (f,)).amplitudes.tobytes()

    @pytest.mark.parametrize("spec,dtype", [
        (plain(3, 1), np.float64),
        (c1(3, 1, 1), np.float64),
        (MomentSpec(Source.CONSTRUCTION2, n=2, t=1), np.float64),
        (MomentSpec(Source.CONSTRUCTION3, n=2, t=1, ell=3), np.float64),
        (MomentSpec(Source.CONSTRUCTION2, n=2, t=1, shared_key=True), np.float64),
        (MomentSpec(Source.CONSTRUCTION3, n=2, t=1, ell=3, shared_key=True), np.float64),
        (MomentSpec(Source.PLAIN, n=2, t=1, kind=PrsKind.GENERAL_PHASE), np.complex128),
        (MomentSpec(Source.CONSTRUCTION1, n=2, t=1, i=1, kind=PrsKind.GENERAL_PHASE),
         np.complex128),
    ], ids=["plain", "c1", "c2", "c3", "c2-shared", "c3-shared", "general-plain", "general-c1"])
    def test_member_dtype_follows_the_kind(self, spec, dtype, rng):
        m = spec.kind.range_modulus(spec.n)
        fns = tuple(boolfn.random_function(spec.n, m, rng) for _ in range(spec.layout.draws))
        assert moments.member_state(spec, fns).amplitudes.dtype == dtype

    @pytest.mark.parametrize("spec", [
        plain(3, 2), c1(3, 1, 2), MomentSpec(Source.CONSTRUCTION2, n=2, t=1),
        MomentSpec(Source.CONSTRUCTION3, n=2, t=1, ell=3),
        MomentSpec(Source.CONSTRUCTION2, n=2, t=2, shared_key=True),
        plain(3, 2, PrfKeys(64, seed=3)),
    ], ids=["plain-3-2", "c1-3-1-2", "c2-2-1", "c3-2-1-ell3", "c2-shared-2-2", "plain-3-2-prf64"])
    def test_sign_phase_moment_is_real_and_matches_the_complex_accumulation(self, spec):
        got = ensemble_moment_bruteforce(spec).matrix
        assert got.dtype == np.float64
        assert_matrices_close(got, complex_reference_moment(spec), 1e-15)

    def test_shared_key_rejected_for_single_function_sources(self):
        # each layout already has one draw: the variant would change only the descriptor
        for source, i, ell in [(Source.PLAIN, None, None), (Source.CONSTRUCTION1, 1, None),
                               (Source.CONSTRUCTION3, None, 1)]:
            with pytest.raises(ValueError, match=f"^{source.value} draws one function per "
                                                 "member already$"):
                MomentSpec(source, n=2, t=1, i=i, ell=ell, shared_key=True)

    def test_general_kind_first_moment_exact(self):
        # summing a full cycle of roots of unity kills every off-diagonal
        # term, so the exhaustive general-kind average is maximally mixed too
        spec = MomentSpec(Source.PLAIN, n=2, t=1, kind=PrsKind.GENERAL_PHASE)
        got = ensemble_moment_bruteforce(spec)
        assert_matrices_close(got.matrix, np.eye(4) / 4, 1e-14)

    def test_general_kind_expansion_distance_recorded(self):
        spec = MomentSpec(Source.CONSTRUCTION1, n=2, t=1, i=1,
                          kind=PrsKind.GENERAL_PHASE,
                          function_space=UniformSample(32, seed=2))
        report = compare_to_haar(spec, Method.MONTE_CARLO)
        assert 0.0 <= report.haar_distance <= 1.0

    @pytest.mark.parametrize("spec", [
        MomentSpec(Source.CONSTRUCTION2, n=10, t=1),
        MomentSpec(Source.PLAIN, n=28, t=1),
        MomentSpec(Source.PLAIN, n=10, t=200),
    ], ids=["c2-10-1", "plain-28-1", "plain-10-200"])
    def test_sizes_past_2_to_the_64_raise_budget_error(self, spec):
        with pytest.raises(BudgetError, match="moment accumulation peak"):
            ensemble_moment_bruteforce(spec)

    def test_exhaustive_space_past_the_cap_is_refused_unbuilt(self):
        with pytest.raises(BudgetError, match=r"n=28, draws=2 would enumerate 2\^536870912 items"):
            next(ExhaustiveAllFunctions().members(28, 2, draws=2))
        with pytest.raises(BudgetError, match=r"n=4, m=1048576 would enumerate 1048576\^16 items"):
            next(boolfn.enumerate_all(4, 1 << 20))

    def test_budget_error_reports_size(self):
        with pytest.raises(BudgetError, match="MiB"):
            ensemble_moment_bruteforce(plain(6, 3))

    @pytest.mark.parametrize("spec", [
        plain(4, 2),
        plain(4, 1),
        MomentSpec(Source.CONSTRUCTION3, n=2, t=2, ell=4, function_space=UniformSample(64, 1)),
        MomentSpec(Source.CONSTRUCTION3, n=2, t=1, ell=3),
        plain(5, 2, UniformSample(256, 1)),
        MomentSpec(Source.PLAIN, n=5, t=2, kind=PrsKind.GENERAL_PHASE,
                   function_space=UniformSample(256, 1)),
        MomentSpec(Source.PLAIN, n=8, t=1, kind=PrsKind.GENERAL_PHASE,
                   function_space=UniformSample(1024, 1)),
        MomentSpec(Source.CONSTRUCTION2, n=4, t=1, kind=PrsKind.GENERAL_PHASE,
                   function_space=UniformSample(1024, 1)),
        plain(2, 1, PrfKeys(4096, 1)),
        plain(3, 3),
        MomentSpec(Source.PLAIN, n=10, t=1, kind=PrsKind.GENERAL_PHASE,
                   function_space=UniformSample(256, 1)),
        MomentSpec(Source.PLAIN, n=6, t=1, kind=PrsKind.GENERAL_PHASE,
                   function_space=PrfKeys(1024, 1)),
        MomentSpec(Source.CONSTRUCTION2, n=2, t=2, kind=PrsKind.GENERAL_PHASE,
                   function_space=PrfKeys(512, 1)),
        MomentSpec(Source.CONSTRUCTION3, n=4, t=1, ell=1, function_space=UniformSample(1024, 1)),
        MomentSpec(Source.CONSTRUCTION3, n=6, t=1, ell=1, function_space=UniformSample(1024, 1)),
    ], ids=["plain-4-2", "plain-4-1", "c3-2-ell4-2-uniform64", "c3-2-ell3-1",
            "plain-5-2-uniform256", "general-plain-5-2-uniform256",
            "general-plain-8-1-uniform1024", "general-c2-4-1-uniform1024",
            "plain-2-1-prf4096", "plain-3-3", "general-plain-10-1-uniform256",
            "general-plain-6-1-prf1024", "general-c2-2-2-prf512", "c3-4-ell1-1-uniform1024",
            "c3-6-ell1-1-uniform1024"])
    def test_budget_estimate_covers_measured_peak(self, spec):
        # dim 1024 at t = 2: one chunk's products, the D x D product beside
        # the Gram of its 528 classes and 256 members' Sym^t products, about
        # 5.4 MiB for float64 (sign-phase) members and 12.8 MiB for
        # complex128 ones.  dim 256 with 1024 members: the
        # chunk's evaluation, 4 MiB a copy of its rows: about 10 MiB for the
        # prepared plain rows, 16 MiB for the circuit's.  General plain n=10
        # t=1 (D = d^t = 1024): one chunk's products, the 16 MiB product
        # beside the 16 MiB Gram and the rows with their conjugate, 40 MiB.
        # Exhaustive plain n=4: one chunk's products at t=2, about 1.7 MiB,
        # and its evaluation beside its 1024 decoded tables at t=1, 0.45 MiB.
        # Exhaustive plain n=3 t=3: its 256 members' products, 0.5 MiB.
        # Exhaustive c3 ell=3: one chunk's evaluation beside its three
        # draws' decoded tables, about 0.6 MiB.  prf:4096 at plain n=2: one
        # chunk's draw, its 1024 keys beside their residues and table, about
        # 0.2 MiB; no key list is held for the whole run.  General plain n=6
        # prf:1024 and c2 n=2 prf:512, benchmark points: one chunk's
        # evaluation beside its 0.5 MiB table, and its products, 2.5-2.8 MiB.
        # c3 ell=1 uniform:1024 at n=4 and 6: one block with a final layer,
        # evaluated without it (3 copies of the member rows, not 5), 1.6 MiB
        # at n=6
        measured = measured_peak(lambda: ensemble_moment_bruteforce(spec))
        estimate = 16 * moments._bruteforce_peak_entries(spec)
        assert measured <= estimate <= 2 * measured

    @staticmethod
    def dense_fold_moment(spec):
        """The brute-force moment from `average_t_fold`, the dense oracle,
        over the route's chunks of member rows."""
        tuples = list(moments.member_functions(spec))
        rows = moments._spec_chunk_rows(spec)
        chunks = (stacked_members(spec, tuples[start:start + rows]).amplitudes
                  for start in range(0, len(tuples), rows))
        return average_t_fold(chunks, spec.t).matrix

    @pytest.mark.parametrize("spec", [
        plain(4, 2), c1(3, 1, 2), MomentSpec(Source.CONSTRUCTION2, n=2, t=2, shared_key=True),
        MomentSpec(Source.CONSTRUCTION3, n=2, t=1, ell=3), plain(3, 3),
    ], ids=["plain-4-2", "c1-3-1-2", "c2-shared-2-2", "c3-2-1-ell3", "plain-3-3"])
    def test_sign_phase_moment_is_the_dense_fold_byte_for_byte(self, spec):
        got = ensemble_moment_bruteforce(spec).matrix
        assert got.tobytes() == self.dense_fold_moment(spec).tobytes()

    @pytest.mark.parametrize("spec", [
        MomentSpec(Source.PLAIN, n=2, t=2, kind=PrsKind.GENERAL_PHASE),
        MomentSpec(Source.CONSTRUCTION2, n=2, t=2, kind=PrsKind.GENERAL_PHASE,
                   function_space=PrfKeys(256, 5)),
    ], ids=["general-plain-2-2", "general-c2-2-2-prf256"])
    def test_general_moment_matches_the_dense_fold(self, spec):
        got = ensemble_moment_bruteforce(spec).matrix
        assert_matrices_close(got, self.dense_fold_moment(spec), 1e-15)

    @settings(max_examples=40, deadline=None)
    @given(local_dim=st.integers(1, 8), copies=st.integers(1, 3),
           sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_random_complex_chunks_match_the_dense_fold(self, local_dim, copies, sizes, seed):
        rng = np.random.default_rng(seed)
        chunks = []
        for rows in sizes:
            vs = rng.standard_normal((rows, local_dim)) + 1j * rng.standard_normal(
                (rows, local_dim))
            chunks.append(vs / np.linalg.norm(vs, axis=1, keepdims=True))
        got = moments._average_symmetric_fold(iter(chunks), copies)
        assert_matrices_close(got.matrix, average_t_fold(iter(chunks), copies).matrix, 1e-15)
        # the Sym^t products are the dense t-fold rows at the sorted-digit labels
        digits, _ = corelin._symmetric_classes(local_dim, copies)
        labels = np.ravel_multi_index(digits, (local_dim,) * copies)
        dense = np.array([reduce(np.kron, [v] * copies) for v in chunks[0]])
        assert_matrices_close(moments._symmetric_fold(chunks[0], copies).T,
                              dense[:, labels], 1e-15)

    @pytest.mark.parametrize("spec", [
        plain(3, 3), c1(3, 1, 2), MomentSpec(Source.CONSTRUCTION3, n=2, t=1, ell=3),
        MomentSpec(Source.PLAIN, n=2, t=2, kind=PrsKind.GENERAL_PHASE),
        plain(3, 2, PrfKeys(64, seed=3)), c1(2, 1, 2, UniformSample(32, seed=4)),
        MomentSpec(Source.CONSTRUCTION2, n=2, t=2, kind=PrsKind.GENERAL_PHASE,
                   function_space=PrfKeys(64, 5)),
    ], ids=["plain-3-3", "c1-3-1-2", "c3-2-1-ell3", "general-plain-2-2", "plain-3-2-prf64",
            "c1-2-1-2-uniform32", "general-c2-2-2-prf64"])
    def test_handed_over_gram_scaled_is_the_compression_of_the_moment(self, spec):
        moment = ensemble_moment_bruteforce(spec)
        iso = symmetric_isometry(1 << spec.layout.qubits, spec.t)
        want = iso.T @ moment.matrix @ iso
        got = compression(moment).matrix
        assert got.dtype == moment.gram.dtype == moment.matrix.dtype
        assert_matrices_close(got, want, 1e-15)
        assert_matrices_close(np.linalg.eigvalsh(got), np.linalg.eigvalsh(want), 1e-13)


def full_circuit_moment(spec):
    """The dense d^t x d^t average over the spec's members run through the
    whole circuit, final layer included, as `expand.evaluate` runs it."""
    chunks = (expand.evaluate(expand.circuit(spec.layout, fns, spec.kind)).amplitudes
              for fns in moments.member_functions(spec, rows=256))
    return average_t_fold(chunks, spec.t)


def qft_conjugate(matrix, local_dim, copies):
    """U^{(x) t} M U^{(x) t}^dagger for the dense Fourier matrix
    U[j, k] = exp(2 pi i jk/d)/sqrt(d), a Kronecker product of t copies."""
    k = np.arange(local_dim)
    u = reduce(np.kron, [np.exp(2j * np.pi * np.outer(k, k) / local_dim)
                         / np.sqrt(local_dim)] * copies)
    return u @ matrix @ u.conj().T


class TestFinalLayer:
    """Every moment is held before its layout's final layer U.  Conjugated
    by U^{(x) t}, it is the dense moment of the full-circuit members, and
    its distance to Haar is that dense moment's: U^{(x) t} commutes with
    the Haar moment."""

    @staticmethod
    def check(spec, conjugate):
        sampled = not isinstance(spec.function_space, ExhaustiveAllFunctions)
        report = compare_to_haar(spec, Method.MONTE_CARLO if sampled else Method.BRUTE_FORCE)
        full = full_circuit_moment(spec)
        assert_matrices_close(conjugate(report.moment.matrix.copy()), full.matrix, 1e-12)
        haar = haar_moment(1 << spec.layout.qubits, spec.t)
        assert abs(report.haar_distance - dense_trace_distance(full, haar)) <= 1e-12

    @pytest.mark.parametrize("spec", [
        c1(3, 1, 2), MomentSpec(Source.CONSTRUCTION2, n=2, t=1),
        MomentSpec(Source.CONSTRUCTION3, n=2, t=1, ell=3),
        MomentSpec(Source.CONSTRUCTION2, n=2, t=2, shared_key=True),
    ], ids=["c1-3-1-2", "c2-2-1", "c3-2-1-ell3", "c2-2-2-shared"])
    def test_the_hadamard_conjugated_moment_is_the_full_circuit_moment(self, spec):
        assert spec.layout.final_layer
        self.check(spec, hadamard_conjugate)

    @pytest.mark.parametrize("spec", [
        MomentSpec(Source.CONSTRUCTION1, n=2, t=2, i=1, kind=PrsKind.GENERAL_PHASE),
        MomentSpec(Source.CONSTRUCTION2, n=2, t=1, kind=PrsKind.GENERAL_PHASE,
                   function_space=UniformSample(64, seed=5)),
    ], ids=["general-c1-2-1-2", "general-c2-2-1-uniform64"])
    def test_the_fourier_conjugated_moment_is_the_full_circuit_moment(self, spec):
        assert spec.layout.final_layer
        self.check(spec, lambda m: qft_conjugate(m, 1 << spec.layout.qubits, spec.t))


class TestDeltaPairing:
    def test_plain_first_moment(self):
        got = ensemble_moment_deltapair(plain(2, 1))
        assert_matrices_close(got.matrix, np.eye(4) / 4, 0.0)

    @pytest.mark.parametrize("spec", [
        c1(2, 1, 2), c1(3, 1, 2), c1(3, 2, 2),
        *(MomentSpec(Source.CONSTRUCTION2, n=2, t=t, shared_key=shared)
          for t in (1, 2) for shared in (False, True)),
        *(MomentSpec(Source.CONSTRUCTION3, n=2, t=t, ell=ell) for ell in (2, 3) for t in (1, 2)),
    ], ids=["c1-2-1-2", "c1-3-1-2", "c1-3-2-2", "c2-2-1", "c2-2-1-shared", "c2-2-2",
            "c2-2-2-shared", "c3-2-1-ell2", "c3-2-2-ell2", "c3-2-1-ell3", "c3-2-2-ell3"])
    def test_brute_force_and_pairing_grams_agree_entrywise(self, spec):
        # both routes hold the moment before the final layer, so their class
        # Grams compare entry by entry, and nothing is expanded
        assert spec.layout.final_layer
        gap = ensemble_moment_deltapair(spec).gram - ensemble_moment_bruteforce(spec).gram
        assert np.max(np.abs(gap)) <= 1e-12

    @pytest.mark.parametrize("n,i,t", [(2, 1, 1), (2, 1, 2), (3, 1, 2), (3, 2, 1)])
    def test_matches_brute_force_on_the_expansion(self, n, i, t):
        spec = c1(n, i, t)
        assert_matrices_close(
            ensemble_moment_deltapair(spec).matrix,
            ensemble_moment_bruteforce(spec).matrix,
            1e-12,
        )

    @pytest.mark.parametrize("t", [1, 2])
    def test_matches_brute_force_plain_n4(self, t):
        spec = plain(4, t)
        assert_matrices_close(
            ensemble_moment_deltapair(spec).matrix,
            ensemble_moment_bruteforce(spec).matrix,
            1e-12,
        )

    @pytest.mark.parametrize("spec", [
        plain(3, 2), c1(3, 1, 2), MomentSpec(Source.CONSTRUCTION2, n=2, t=1),
        MomentSpec(Source.CONSTRUCTION3, n=2, t=2, ell=2),
    ], ids=["plain", "c1", "c2", "c3"])
    def test_sign_phase_moment_is_real(self, spec):
        assert ensemble_moment_deltapair(spec).matrix.dtype == np.float64

    def test_rejects_general_kind(self):
        spec = MomentSpec(Source.PLAIN, n=2, t=1, kind=PrsKind.GENERAL_PHASE)
        with pytest.raises(ValueError, match="sign-phase"):
            ensemble_moment_deltapair(spec)

    def test_rejects_sampled_space(self):
        with pytest.raises(ValueError, match="exhaustive"):
            ensemble_moment_deltapair(plain(2, 1, PrfKeys(8, seed=1)))

    def test_rejects_keys_wider_than_one_word(self):
        # three independent draws of 2^6-bit parity vectors need 192 bits,
        # five of 2^4 bits need 80
        wide = (MomentSpec(Source.CONSTRUCTION2, n=6, t=1),
                MomentSpec(Source.CONSTRUCTION3, n=4, t=1, ell=5))
        for spec, bits in zip(wide, (192, 80)):
            with pytest.raises(ValueError, match=f"{bits} bits.*64-bit"):
                ensemble_moment_deltapair(spec)

    @pytest.mark.parametrize("source,n,t,ell,shared_key", [
        (Source.CONSTRUCTION2, 2, 1, None, False),
        (Source.CONSTRUCTION2, 2, 2, None, False),
        (Source.CONSTRUCTION3, 2, 2, 2, False),
        (Source.CONSTRUCTION3, 2, 1, 3, False),
        (Source.CONSTRUCTION2, 2, 2, None, True),
        (Source.CONSTRUCTION3, 2, 2, 3, True),
    ])
    def test_matches_brute_force_on_multi_block_sources(self, source, n, t, ell, shared_key):
        spec = MomentSpec(source, n=n, t=t, ell=ell, shared_key=shared_key)
        assert_matrices_close(
            ensemble_moment_deltapair(spec).matrix,
            ensemble_moment_bruteforce(spec).matrix,
            1e-12,
        )

    @pytest.mark.parametrize("spec", [plain(3, 3), c1(4, 1, 2), c1(3, 2, 2), c1(3, 1, 3),
                                      c1(2, 1, 7)],
                             ids=["plain-3-3", "c1-4-1-2", "c1-3-2-2", "c1-3-1-3", "c1-2-1-7"])
    def test_budget_estimate_covers_measured_peak(self, spec):
        # the hand-over sets the peak at c1 (3,2,2) and (3,1,3): the Gram
        # beside its scaled copy (c1 (3,1,3): 10.3 MiB against 10.4
        # estimated); the self-join at c1 (4,1,2) and plain (3,3); at
        # c1 (2,1,7) the 3432 x 3432 Gram, with no d^t-label array beside it
        measured = measured_peak(lambda: ensemble_moment_deltapair(spec))
        estimate = 16 * moments._pairing_peak_entries(spec)
        assert measured <= estimate <= 2 * measured

    def test_budget_refuses_c1_n5_below_its_peak_and_admits_it_by_default(self):
        # the c1 n=5 t=2 pairing peaks above 64 MiB (measured 66.5 MiB: the
        # 33 MiB Gram of its 2080 classes beside the self-join's entries,
        # then beside its scaled copy); its 128 MiB moment is built only
        # when read
        spec = c1(5, 1, 2)
        assert 16 * moments._pairing_peak_entries(spec) < DEFAULT_BUDGET_MIB << 20
        with pytest.raises(BudgetError, match="pairing route peak"), budget.limit(64):
            ensemble_moment_deltapair(spec)


CLASS_TABLE_POINTS = [(2, t) for t in range(1, 9)] + [(3, t) for t in range(1, 6)] + [
    (4, t) for t in range(1, 6)] + [(8, 1), (8, 2), (8, 3), (16, 2), (16, 3), (64, 2)]


class TestClassTable:
    """`corelin._symmetric_classes`, the one Sym^t class table, and
    `moments._class_of`, the one lookup of a sorted-digit label, against
    the permutation oracle."""

    @pytest.mark.parametrize("local_dim,copies", CLASS_TABLE_POINTS,
                             ids=[f"{d}-{t}" for d, t in CLASS_TABLE_POINTS])
    def test_sorted_digits_and_sizes_match_the_permutation_oracle(self, local_dim, copies):
        shape = (local_dim,) * copies
        digits, sizes = corelin._symmetric_classes(local_dim, copies)
        want_digits, labels, want_sizes = classes_by_permutation(local_dim, copies)
        assert digits.shape == want_digits.shape and np.all(digits[:-1] <= digits[1:])
        assert np.all(np.diff(np.ravel_multi_index(digits, shape)) > 0)
        assert np.array_equal(digits, want_digits)
        assert sizes.dtype == np.int64 and np.array_equal(sizes, want_sizes)
        assert int(sizes.sum()) == local_dim**copies
        # every label's sorted-digit label ranks into the oracle's class of it
        want = np.empty(local_dim**copies, dtype=np.int64)
        want[labels] = np.arange(labels.shape[1])
        every = np.sort(np.indices(shape).reshape(copies, -1), axis=0)
        got = moments._class_of(np.ravel_multi_index(every, shape), digits, local_dim)
        assert np.array_equal(got, want)
        unsorted = [local_dim**copies]  # past the last class
        if local_dim > 1 and copies > 1:
            unsorted.append(np.ravel_multi_index((1,) + (0,) * (copies - 1), shape))
        for label in unsorted:
            with pytest.raises(corelin.RegisterError, match="sorted-digit label"):
                moments._class_of(np.array([0, label]), digits, local_dim)

    @pytest.mark.parametrize("local_dim,copies", [(4, 9), (8, 6), (16, 4), (64, 2), (256, 2)])
    def test_the_class_table_estimate_covers_measured_peak(self, local_dim, copies):
        measured = measured_peak(lambda: corelin._symmetric_classes(local_dim, copies))
        estimate = 16 * corelin._classes_peak_entries(local_dim, copies)
        assert measured <= estimate <= 2 * measured

    def test_twenty_copies_run_through_the_pairing_route_and_twenty_one_are_refused(self):
        # plain n = 1: the members are the four +-|+>, +-|->, so the moment is
        # (|+><+|^(x) t + |-><-|^(x) t) / 2 and its Gram 2^-t where the
        # classes' counts of ones have even sum; 21! overflows the int64 sizes
        moment = ensemble_moment_deltapair(plain(1, 20))
        ones = np.arange(21)
        assert np.array_equal(moment.gram, ((ones[:, None] + ones) % 2 == 0) / 2.0**20)
        with pytest.raises(ValueError, match="copy count 21"):
            ensemble_moment_deltapair(plain(1, 21))

    @pytest.mark.parametrize("spec,method,distance", [
        (plain(2, 9), Method.DELTA_PAIRING, "0.9636363636363636"),
        (plain(2, 7), Method.BRUTE_FORCE, "0.9333333333333333"),
    ], ids=["pairing-plain-2-9", "brute-plain-2-7"])
    def test_many_copies_of_a_small_register_need_no_label_table(self, monkeypatch, spec,
                                                                 method, distance):
        # with the projector that compare_to_haar builds and drops left out,
        # the class table is O(t D): plain (2,9) needs no 4^9-label table
        # and no 9! permutations, and each distance is the one the
        # permutation table gave
        monkeypatch.setattr(corelin, "symmetric_projector", lambda *args: None)
        reports = []
        assert measured_peak(lambda: reports.append(compare_to_haar(spec, method))) < 8 << 20
        assert repr(reports[0].haar_distance) == distance


class TestPairingGram:
    """The route keeps one label per Sym^t class and joins each key group
    with itself; the dense oracle builds G over every tuple."""

    @staticmethod
    def sorted_tuples(keys, cls, odd):
        """The (key, class, odd) rows in one canonical order: a multiset."""
        order = np.lexsort((odd, cls, keys))
        return keys[order], cls[order], odd[order]

    @pytest.mark.parametrize("spec", [
        plain(2, 4), plain(3, 3), c1(3, 1, 2), c1(3, 1, 3), c1(4, 2, 2),
        MomentSpec(Source.CONSTRUCTION2, n=2, t=2),
        MomentSpec(Source.CONSTRUCTION2, n=2, t=2, shared_key=True),
        MomentSpec(Source.CONSTRUCTION3, n=2, t=3, ell=3),
    ], ids=["plain-2-4", "plain-3-3", "c1-3-1-2", "c1-3-1-3", "c1-4-2-2", "c2-2-2",
            "c2-2-2-shared", "c3-2-3-ell3"])
    def test_copy_join_keeps_the_filtered_tuples(self, spec):
        # keying one copy and joining the copies in non-decreasing label
        # order gives the tuples the all-tuple loop keeps, as a multiset
        digits, _ = corelin._symmetric_classes(1 << spec.layout.qubits, spec.t)
        got = moments._class_tuples(spec, digits)
        want = filtered_pairing_tuples(spec)
        assert len(got[0]) == len(want[0]) == moments._kept_tuples(spec)
        for a, b in zip(self.sorted_tuples(*got), self.sorted_tuples(*want)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_c1_5_1_2_keeps_532480_tuples(self):
        # 1024 segments per copy, 16 per label: 16^2 tuples for each of the
        # 2080 non-decreasing label pairs, of 2^20 tuples in all
        spec = c1(5, 1, 2)
        keys, cls, odd = moments._class_tuples(spec, corelin._symmetric_classes(64, 2)[0])
        assert len(keys) == len(cls) == len(odd) == moments._kept_tuples(spec) == 532_480

    @pytest.mark.parametrize("spec", [c1(2, 1, 2), c1(4, 1, 2), c1(3, 2, 2)],
                             ids=["c1-2-1-2", "c1-4-1-2", "c1-3-2-2"])
    def test_the_held_moment_conjugated_by_the_final_layer_is_the_dense_final_moment(
            self, spec):
        # odd q: H^{(x) q} is not dyadic, so the two conjugations round apart
        got = hadamard_conjugate(ensemble_moment_deltapair(spec).matrix.copy())
        assert_matrices_close(got, dense_pairing_moment(spec, final_layer=True), 1e-15)

    @pytest.mark.parametrize("spec", [
        plain(3, 3), c1(3, 1, 2), c1(4, 1, 2), c1(3, 1, 3),
        MomentSpec(Source.CONSTRUCTION3, n=2, t=2, ell=3),
    ], ids=["plain-3-3", "c1-3-1-2", "c1-4-1-2", "c1-3-1-3", "c3-2-2-ell3"])
    def test_handed_over_gram_scaled_is_the_compressed_pre_final_moment(self, spec):
        # V^T rho V of the moment before the final layer, which that layer's
        # copy-permutation symmetry leaves with the final moment's spectrum
        iso = symmetric_isometry(1 << spec.layout.qubits, spec.t)
        got = compression(ensemble_moment_deltapair(spec)).matrix
        want = iso.T @ dense_pairing_moment(spec) @ iso
        assert_matrices_close(got, want, 1e-15)
        final = iso.T @ dense_pairing_moment(spec, final_layer=True) @ iso
        assert_matrices_close(np.linalg.eigvalsh(got), np.linalg.eigvalsh(final), 1e-13)

    @pytest.mark.parametrize("spec", [
        plain(3, 3), plain(2, 4), plain(3, 1), c1(3, 1, 2), c1(4, 2, 2), c1(3, 1, 3),
        MomentSpec(Source.CONSTRUCTION2, n=2, t=2),
        MomentSpec(Source.CONSTRUCTION2, n=2, t=2, shared_key=True),
        MomentSpec(Source.CONSTRUCTION3, n=2, t=3, ell=3),
    ], ids=["plain-3-3", "plain-2-4", "plain-3-1", "c1-3-1-2", "c1-4-2-2", "c1-3-1-3",
            "c2-2-2", "c2-2-2-shared", "c3-2-3-ell3"])
    def test_moment_is_byte_identical_to_the_dense_gram(self, spec):
        got = ensemble_moment_deltapair(spec).matrix
        assert got.tobytes() == dense_pairing_moment(spec).tobytes()

    @pytest.mark.parametrize("spec", [
        c1(3, 1, 2), MomentSpec(Source.CONSTRUCTION2, n=2, t=2, shared_key=True),
    ], ids=["c1-3-1-2", "c2-2-2-shared"])
    def test_self_join_steps_of_a_few_pairs_give_the_same_bytes(self, monkeypatch, spec):
        whole = ensemble_moment_deltapair(spec).matrix.tobytes()
        steps = []
        searchsorted = np.searchsorted

        def counting(*args, **kwargs):  # called once per self-join step
            steps.append(args)
            return searchsorted(*args, **kwargs)

        monkeypatch.setattr(moments, "_JOIN_BYTES", 3 * moments._PAIR_BYTES)
        monkeypatch.setattr(moments.np, "searchsorted", counting)
        assert ensemble_moment_deltapair(spec).matrix.tobytes() == whole
        assert len(steps) > 100

    def test_c1_5_1_2_moment_keeps_its_digest(self, pairing_report):
        # sha256 of the class Gram's bytes, as the self-join builds it, and
        # of its expansion, the Gram's entries copied to every label
        moment = pairing_report(c1(5, 1, 2)).moment
        assert hashlib.sha256(moment.gram.tobytes()).hexdigest() == (
            "deb5954b1a4e2173eec091005f0781fa14f82a9d168706f51fdb327862a0c72c")
        assert hashlib.sha256(moment.matrix.tobytes()).hexdigest() == (
            "b3b633f2f5036ce1236b370719785bd7634a8ef3a063e6ecb63c0e1182e2609c")


class TestHandOver:
    """`moments._hand_over` on random class Grams, and the moment's
    `matrix` expanded from them, against the isometry oracle, which derives
    the classes with its own `np.unique`."""

    @staticmethod
    def random_gram(rng, local_dim, copies, complex_=False):
        # a positive D x D Gram whose d^t x d^t expansion has trace 1
        classes = moments._label_classes(local_dim, copies)
        sizes = corelin._symmetric_classes(local_dim, copies)[1]
        a = rng.standard_normal((len(sizes),) * 2)
        if complex_:
            a = a + 1j * rng.standard_normal(a.shape)
        gram = a @ a.conj().T
        gram /= np.sum(sizes * gram.diagonal().real)
        return gram, classes, sizes

    @pytest.mark.parametrize("local_dim,copies", [(2, 1), (4, 2), (3, 3), (2, 4), (8, 2)])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_expansion_and_scaled_gram_are_the_isometry_products(self, rng, local_dim, copies,
                                                                 complex_):
        # the matrix is the Gram expanded, and the Gram scaled as the
        # distance reads it (`compression`) is V^T rho V
        gram, classes, sizes = self.random_gram(rng, local_dim, copies, complex_)
        got = moments._hand_over(gram.copy(), local_dim, copies)
        compressed = compression(got).matrix
        assert got.matrix.dtype == compressed.dtype == gram.dtype
        assert got.matrix.tobytes() == gram[np.ix_(classes, classes)].tobytes()
        iso = symmetric_isometry(local_dim, copies)
        assert_matrices_close(compressed, iso.T @ got.matrix @ iso, 1e-13)
        assert_matrices_close(got.matrix, iso @ compressed @ iso.T, 1e-13)

    @pytest.mark.parametrize("local_dim,copies", [(2, 1), (4, 2), (3, 3), (2, 4), (8, 2)])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_trace_is_the_compressions(self, rng, local_dim, copies, complex_):
        gram, _, _ = self.random_gram(rng, local_dim, copies, complex_)
        got = moments._hand_over(gram, local_dim, copies)
        assert abs(got.trace() - compression(got).trace()) <= 1e-15

    def test_trace_forms_no_compression(self):
        # the c1 (4,1,2) compression is 528 x 528 float64, 2.1 MiB
        moment = ensemble_moment_deltapair(c1(4, 1, 2))
        assert abs(moment.trace() - compression(moment).trace()) <= 1e-15
        assert measured_peak(moment.trace) < 1 << 20

    def test_complex_rows_hand_over_a_complex_operator(self, rng):
        # one complex state: the operator is |v><v|^{(x) 2} compressed, of trace 1
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = moments._average_symmetric_fold(iter([(v / np.linalg.norm(v))[None]]), 2)
        compressed = compression(got)
        assert got.gram.dtype == compressed.matrix.dtype == np.complex128
        assert compressed.trace().real == pytest.approx(1.0, abs=1e-12)
        iso = symmetric_isometry(4, 2)
        assert_matrices_close(compressed.matrix, iso.T @ got.matrix @ iso, 1e-15)

    @pytest.mark.parametrize("make", [
        lambda: ensemble_moment_bruteforce(plain(3, 3)),
        lambda: ensemble_moment_deltapair(c1(3, 1, 2)),
        lambda: ensemble_moment_deltapair(MomentSpec(Source.CONSTRUCTION2, n=2, t=2)),
        lambda: haar_moment(16, 2),
    ], ids=["brute-plain-3-3", "pairing-c1-3-1-2", "pairing-c2-2-2", "haar-16-2"])
    def test_nothing_is_expanded_until_the_matrix_is_read(self, monkeypatch, make):
        # the route and the Haar oracle hold D x D arrays only; the first
        # read of `matrix` expands it, once, and later reads return it
        expanded = []
        copy_class_rows = moments._copy_class_rows
        monkeypatch.setattr(moments, "_copy_class_rows",
                            lambda *args: expanded.append(copy_class_rows(*args)))
        moment = make()
        sym = corelin.symmetric_subspace_dimension(moment.local_dim, moment.copies)
        assert expanded == [] and moment.gram.shape == (sym, sym)
        assert not moment.gram.flags.writeable
        first = moment.matrix
        assert moment.matrix is first and len(expanded) == 1
        assert first.shape == (moment.dim, moment.dim) and not first.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda: ensemble_moment_bruteforce(MomentSpec(Source.CONSTRUCTION2, n=2, t=1)),
        lambda: ensemble_moment_deltapair(plain(3, 1)),
        lambda: compare_to_haar(plain(3, 1, PrfKeys(16, seed=2)), Method.MONTE_CARLO).moment,
    ], ids=["brute-c2-2-1", "pairing-plain-3-1", "sampled-plain-3-1"])
    def test_a_single_copy_moment_is_one_array(self, make):
        # at t = 1 every class is one label: the Gram is the matrix too
        moment = make()
        assert moment.matrix is moment.gram

    def test_a_single_copy_general_moment_holds_one_d_by_d_array(self):
        # general plain n=10 t=1: d = D = 1024, one 16 MiB complex128 array
        # is the Gram, the operator and the matrix, where the moment and its
        # operator held two
        spec = MomentSpec(Source.PLAIN, n=10, t=1, kind=PrsKind.GENERAL_PHASE,
                          function_space=UniformSample(256, 1))
        tracemalloc.start()
        try:
            moment = ensemble_moment_bruteforce(spec)
            assert moment.matrix is moment.gram
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 16 << 20 <= held <= 1.05 * (16 << 20)
        assert peak <= 16 * moments._bruteforce_peak_entries(spec)

    def test_a_moment_holds_its_gram_alone(self):
        # c1 (4,1,2): D = 528, so the moment holds one 2.1 MiB float64 Gram,
        # where it held the Gram's scaled copy beside it, twice that
        tracemalloc.start()
        try:
            moment = ensemble_moment_deltapair(c1(4, 1, 2))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gram_bytes = 8 * len(moment.gram) ** 2
        assert len(moment.gram) == 528
        assert gram_bytes <= held <= 1.05 * gram_bytes

    @staticmethod
    def refused_gram(case):
        # the Haar Gram of (2)^2, diag(1, 1/2, 1)/3 over classes 00, 01, 11,
        # broken one way each
        gram = np.diag([1.0, 0.5, 1.0]) / 3
        if case == "shape":
            return np.eye(4) / 4
        if case == "non-hermitian":
            gram[0, 1] = 2 * corelin.HERMITIAN_ATOL
        elif case == "trace":
            gram[1, 1] += 2 * corelin.HERMITIAN_ATOL
        else:  # a diagonal entry below the floor, the trace kept at 1
            gram[0, 0], gram[2, 2] = -1e-6, gram[2, 2] + gram[0, 0] + 1e-6
        return gram

    @pytest.mark.parametrize("case,message", [
        ("shape", "class Gram has shape"), ("non-hermitian", "deviates from Hermitian"),
        ("trace", "trace .* deviates from 1"), ("floor", "diagonal entry below PSD floor"),
    ], ids=["shape", "non-hermitian", "trace", "floor"])
    def test_a_bad_gram_is_refused_when_the_moment_is_made(self, case, message):
        # every check of the expansion rho is a check of G, made once, when
        # the moment is handed over: rho's entries are G's
        with pytest.raises(corelin.RegisterError, match=message):
            moments._hand_over(self.refused_gram(case), 2, 2)

    @staticmethod
    def checked_shapes(monkeypatch):
        """The shapes `corelin._hermitian_deviation` sees from here on."""
        shapes = []
        deviation = corelin._hermitian_deviation
        monkeypatch.setattr(corelin, "_hermitian_deviation",
                            lambda mat: (shapes.append(mat.shape), deviation(mat))[1])
        return shapes

    def test_a_comparison_checks_its_gram_once_and_a_matrix_read_never(self, monkeypatch):
        # c1 (4,1,2): the 528 x 528 Gram is checked where it is handed over,
        # and neither the distance's operand nor the 1024^2 expansion is
        # wrapped again; the projector, which no result reads, is left out
        monkeypatch.setattr(corelin, "symmetric_projector", lambda *args: None)
        shapes = self.checked_shapes(monkeypatch)
        moment = compare_to_haar(c1(4, 1, 2), Method.DELTA_PAIRING).moment
        assert shapes == [(528, 528)]
        shapes.clear()
        assert moment.matrix.shape == (1024, 1024)
        assert shapes == []

    def test_the_split_distance_runs_no_component_search(self, monkeypatch):
        # with generators each character block goes straight to the
        # eigensolver; without them the dense difference is still searched
        def refuse(mat):
            raise AssertionError("component search")

        spec = c1(3, 1, 2)
        want = compare_to_haar(spec, Method.DELTA_PAIRING).haar_distance
        monkeypatch.setattr(corelin, "_components", refuse)
        assert compare_to_haar(spec, Method.DELTA_PAIRING).haar_distance == want
        a, b, scale = haar_operands(ensemble_moment_deltapair(spec))
        with pytest.raises(AssertionError, match="component search"):
            corelin.trace_distance(a, b, None, scale)

    @pytest.mark.parametrize("make", [
        lambda: ensemble_moment_deltapair(c1(4, 1, 2)),
        lambda: ensemble_moment_deltapair(c1(3, 1, 3)),
        lambda: ensemble_moment_deltapair(plain(3, 3)),
        lambda: ensemble_moment_bruteforce(MomentSpec(
            Source.PLAIN, n=5, t=2, kind=PrsKind.GENERAL_PHASE,
            function_space=UniformSample(64, 1))),
        lambda: ensemble_moment_bruteforce(plain(4, 2)),
        lambda: haar_moment(8, 3),
        lambda: haar_moment(64, 2),
    ], ids=["pairing-c1-4-1-2", "pairing-c1-3-1-3", "pairing-plain-3-3",
            "brute-general-plain-5-2-uniform64", "brute-plain-4-2", "haar-8-3", "haar-64-2"])
    def test_expansion_estimate_covers_measured_peak(self, make):
        # the d^t x d^t matrix sets every peak here
        moment = make()
        measured = measured_peak(lambda: moment.matrix)
        estimate = 16 * moments._expansion_peak_entries(
            moment.local_dim, moment.copies, np.iscomplexobj(moment.gram))
        assert measured <= estimate <= 2 * measured

    def test_the_expansion_refuses_before_it_allocates(self):
        moment = ensemble_moment_deltapair(c1(4, 1, 2))  # d^t = 1024: an 8 MiB matrix
        with pytest.raises(BudgetError, match="moment expansion, dim 1024"), budget.limit(8):
            moment.matrix
        assert "matrix" not in vars(moment)  # nothing was cached


class TestHaarMoment:
    def test_single_copy_is_maximally_mixed(self):
        assert_matrices_close(haar_moment(2, 1).matrix, np.eye(2) / 2, 1e-15)

    @pytest.mark.parametrize("d,t", [(2, 1), (2, 2), (4, 2), (2, 3), (8, 2)])
    def test_unit_trace(self, d, t):
        assert haar_moment(d, t).trace().real == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_agrees(self):
        exact = haar_moment(2, 2)
        sampled = haar_moment_monte_carlo(2, 2, samples=100_000, seed=17)
        assert corelin.trace_distance(exact, sampled) <= 1e-2

    def test_monte_carlo_bit_identical_to_reference_loop(self):
        # the loop haar_moment_monte_carlo ran before sharing the t-fold
        # accumulator: the seeded stream and every rounding must be unchanged
        rng = np.random.default_rng(5)
        states = rng.standard_normal((300, 4)) + 1j * rng.standard_normal((300, 4))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        folded = np.einsum("ka,kb->kab", states, states).reshape(300, -1)
        moment = np.zeros((16, 16), dtype=np.complex128)
        moment += folded.T @ folded.conj()
        got = haar_moment_monte_carlo(4, 2, 300, seed=5).matrix
        assert got.tobytes() == (moment / 300).tobytes()

    @pytest.mark.parametrize("local_dim,copies", [
        (2, 1), (2, 2), (4, 2), (3, 3), (8, 2), (8, 3), (16, 2), (64, 2),
    ])
    def test_hands_over_the_maximally_mixed_compression(self, local_dim, copies):
        # the dense reference's compression, its Gram scaled, is I/D up to
        # rounding (the scaled Gram is 1 ulp off in 2016 of 2080 entries at
        # (64,2)); `compare_to_haar` hands the distance the float 1/D,
        # whose b I is the I/D it built before, byte for byte
        sym = corelin.symmetric_subspace_dimension(local_dim, copies)
        haar = haar_moment(local_dim, copies)
        compressed = compression(haar).matrix
        assert_matrices_close(compressed, np.eye(sym) / sym, 1e-15)
        iso = symmetric_isometry(local_dim, copies)
        assert_matrices_close(compressed, iso.T @ haar.matrix @ iso, 1e-15)
        assert (np.eye(sym) / sym).tobytes() == np.diag(np.full(sym, 1.0 / sym)).tobytes()

    @pytest.mark.parametrize("local_dim,copies", [(16, 2), (8, 3), (3, 4), (64, 2)])
    def test_budget_estimate_covers_measured_peak(self, local_dim, copies):
        # the D x D Gram diag(1/c)/D beside its check: at (64,2) one 33 MiB
        # array, where the oracle held I/D beside it and, before that, the
        # 128 MiB projector
        measured = measured_peak(lambda: haar_moment(local_dim, copies))
        estimate = 16 * moments._haar_peak_entries(local_dim, copies)
        assert measured <= estimate <= 2 * measured

    def test_budget_refuses_before_building_the_projector(self, monkeypatch):
        built = []
        monkeypatch.setattr(corelin, "symmetric_projector", lambda *args: built.append(args))
        haar_moment(8, 2)
        with pytest.raises(BudgetError, match="Haar moment on"), budget.limit(1):
            haar_moment(64, 2)
        assert built == []

    @pytest.mark.parametrize("local_dim,copies", [(8, 3), (16, 2), (4, 4), (2, 1)])
    def test_matrix_is_the_normalized_projector_byte_for_byte(self, local_dim, copies):
        sym = corelin.symmetric_subspace_dimension(local_dim, copies)
        want = corelin.symmetric_projector(local_dim, copies).matrix / sym
        assert haar_moment(local_dim, copies).matrix.tobytes() == want.tobytes()

    def test_commutes_with_tensor_power_unitary(self, rng):
        u = random_unitary(2, rng)
        u2 = np.kron(u, u)
        h = haar_moment(2, 2).matrix
        assert_matrices_close(u2 @ h @ u2.conj().T, h, 1e-12)


class TestCompareToHaar:
    def test_plain_two_qubits_single_copy_distance_zero(self):
        report = compare_to_haar(plain(2, 1), Method.BRUTE_FORCE)
        assert report.haar_distance <= 1e-12

    def test_reproducible_given_seed(self):
        spec = plain(2, 2, PrfKeys(32, seed=9))
        a = compare_to_haar(spec, Method.MONTE_CARLO)
        b = compare_to_haar(spec, Method.MONTE_CARLO)
        assert a.to_json(canonical_runtime=True) == b.to_json(canonical_runtime=True)
        assert a.seed == 9

    def test_exhaustive_distance_reproducible(self):
        values = {compare_to_haar(plain(3, 2), Method.BRUTE_FORCE).haar_distance
                  for _ in range(2)}
        assert len(values) == 1

    def test_method_space_mismatches_rejected(self):
        with pytest.raises(ValueError):
            compare_to_haar(plain(2, 1, PrfKeys(4, seed=0)), Method.BRUTE_FORCE)
        with pytest.raises(ValueError):
            compare_to_haar(plain(2, 1), Method.MONTE_CARLO)
        with pytest.raises(ValueError):
            compare_to_haar(plain(2, 1, PrfKeys(4, seed=0)), Method.DELTA_PAIRING)

    @pytest.mark.parametrize("n,method", [
        *((n, Method.DELTA_PAIRING) for n in (2, 3, 4, 5)),
        *((n, Method.BRUTE_FORCE) for n in (2, 3)),
    ])
    def test_plain_binary_two_copies_has_the_closed_form_distance(self, n, method):
        # every member has the uniform computational-basis distribution, whose
        # distance to Haar's is (d-1)/(d(d+1)); the moment's is exactly twice it
        d = 1 << n
        report = compare_to_haar(plain(n, 2), method)
        assert abs(report.haar_distance - 2 * (d - 1) / (d * (d + 1))) <= 1e-12

    def test_report_json_shape(self):
        report = compare_to_haar(c1(2, 1, 1), Method.DELTA_PAIRING)
        payload = json.loads(report.to_json())
        assert payload["source"] == "construction1"
        assert payload["dim"] == 8
        assert report.moment.matrix.shape == (8, 8)

    def test_real_moment_json_keeps_its_keys_and_reruns_byte_identical(self):
        for method in (Method.DELTA_PAIRING, Method.BRUTE_FORCE):
            reports = [compare_to_haar(c1(2, 1, 2), method) for _ in range(2)]
            runs = [report.to_json(canonical_runtime=True) for report in reports]
            assert runs[0] == runs[1]
            assert reports[0].moment.matrix.tobytes() == reports[1].moment.matrix.tobytes()
            assert set(json.loads(runs[0])) == {
                "source", "kind", "n", "i", "t", "space", "method", "haar_distance",
                "runtime_ms", "seed", "dim",
            }
            matrix = reports[0].moment.matrix
            assert matrix.shape == (64, 64) and matrix.dtype == np.float64


@pytest.fixture(scope="module")
def pairing_report():
    """`compare_to_haar(spec, Method.DELTA_PAIRING)`, built once per spec in this
    module: the c1 (5,1,2) report, a 4096-dimensional moment, serves two tests."""
    return cache(lambda spec: compare_to_haar(spec, Method.DELTA_PAIRING))


def dense_distance(report):
    """The d^t x d^t oracle: trace distance from the report's moment to
    `haar_moment`, from one eigensolve of the whole difference."""
    haar = haar_moment(1 << report.spec.layout.qubits, report.spec.t)
    return dense_trace_distance(report.moment, haar)


class TestDistanceInTheSymmetricSubspace:
    @pytest.mark.parametrize("spec", [
        plain(3, 3), plain(2, 4), c1(3, 1, 2), c1(4, 1, 2), c1(5, 1, 2),
    ], ids=["plain-3-3", "plain-2-4", "c1-3-1-2", "c1-4-1-2", "c1-5-1-2"])
    def test_pairing_distance_matches_the_dense_oracle(self, spec, pairing_report):
        report = pairing_report(spec)
        assert abs(report.haar_distance - dense_distance(report)) <= 1e-12

    @pytest.mark.parametrize("spec", [
        MomentSpec(Source.CONSTRUCTION2, n=2, t=1),
        MomentSpec(Source.CONSTRUCTION3, n=2, t=1, ell=3),
        MomentSpec(Source.CONSTRUCTION2, n=2, t=2, shared_key=True),
        MomentSpec(Source.PLAIN, n=2, t=2, kind=PrsKind.GENERAL_PHASE),
    ], ids=["c2-2-1", "c3-2-1-ell3", "c2-2-2-shared", "general-plain-2-2"])
    def test_brute_force_distance_matches_the_dense_oracle(self, spec):
        report = compare_to_haar(spec, Method.BRUTE_FORCE)
        assert abs(report.haar_distance - dense_distance(report)) <= 1e-12

    @pytest.mark.parametrize("spec", [
        plain(3, 2, PrfKeys(64, seed=3)), c1(2, 1, 2, UniformSample(32, seed=4)),
    ], ids=["plain-3-2-prf64", "c1-2-1-2-uniform32"])
    def test_sampled_distance_matches_the_dense_oracle(self, spec):
        report = compare_to_haar(spec, Method.MONTE_CARLO)
        assert abs(report.haar_distance - dense_distance(report)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(local_dim=st.integers(2, 8), copies=st.integers(1, 3),
           members=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_random_ensembles_match_the_dense_oracle(self, local_dim, copies, members, seed):
        rng = np.random.default_rng(seed)
        vs = rng.standard_normal((members, local_dim)) + 1j * rng.standard_normal(
            (members, local_dim))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        folded = [reduce(np.kron, [v] * copies) for v in vs]
        dense = DensityOperator(sum(np.outer(f, f.conj()) for f in folded) / members)
        haar = haar_moment(local_dim, copies)
        moment = moments._average_symmetric_fold([vs], copies)
        got = corelin.trace_distance(compression(moment), compression(haar))
        assert abs(got - dense_trace_distance(dense, haar)) <= 1e-12

    @pytest.mark.parametrize("spec", [c1(4, 1, 2), c1(3, 2, 2)], ids=["c1-4-1-2", "c1-3-2-2"])
    def test_peak_stays_near_two_moment_sized_arrays(self, spec):
        # no stage builds the moment or a dense Haar array, and a moment
        # holds its Gram alone: the peak is the symmetric projector the
        # comparison still builds and drops, 1.01 float64 d^t x d^t arrays
        # with its check, where the dense Haar arrays and the moment's
        # scaled copy held 1.05; the bound leaves 0.04 for numpy's buffers
        dim = 1 << (spec.layout.qubits * spec.t)
        measured = measured_peak(lambda: compare_to_haar(spec, Method.DELTA_PAIRING))
        assert measured <= 1.05 * 8 * dim * dim

    @pytest.mark.parametrize("spec", [plain(4, 3), plain(4, 4), c1(5, 1, 2)],
                             ids=["plain-4-3", "plain-4-4", "c1-5-1-2"])
    def test_peak_stays_within_the_smallest_budget_it_accepts(self, monkeypatch, spec):
        # without the d^t x d^t projector, which no result reads, the
        # comparison holds the Gram beside the distance's arrays, and the
        # distance's check counts both: a budget of the traced peak, rounded
        # down to a MiB, is refused.  plain (4,4): the 115 MiB Gram of its
        # 3876 classes, 118 MiB traced in all
        monkeypatch.setattr(corelin, "symmetric_projector", lambda *args: None)
        peak = measured_peak(lambda: compare_to_haar(spec, Method.DELTA_PAIRING))
        with pytest.raises(BudgetError), budget.limit(peak >> 20):
            compare_to_haar(spec, Method.DELTA_PAIRING)

    @staticmethod
    def eigensolve_shapes(monkeypatch, spec):
        """The shapes `compare_to_haar(spec)` hands to eigvalsh, in call order."""
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(mat, *args, **kwargs):
            shapes.append(np.shape(mat))
            return eigvalsh(mat, *args, **kwargs)

        monkeypatch.setattr(corelin.np.linalg, "eigvalsh", recording)
        compare_to_haar(spec, Method.DELTA_PAIRING)
        return shapes

    @staticmethod
    def character_blocks(spec):
        """The sides of the character blocks the layout's symmetries split
        the spec's classes into, in the order `_character_blocks` gives."""
        generators = moments._class_symmetries(spec)
        dim = len(generators[0][0])
        plan = corelin._character_plan(corelin._signed_involutions(generators, dim), dim)
        return np.bincount(plan.block).tolist()

    def test_no_full_dimension_eigensolve(self, monkeypatch):
        # c1 (4,1,2): d^t = 1024, D = C(33, 2) = 528.  The route's own
        # operator, the compression of the moment before its final layer,
        # splits by the layout's 2^5 Pauli symmetries into 32 character
        # blocks of at most 32 classes, each solved whole (the component
        # search alone finds blocks of 272 and 256); the final moment's
        # compression is one block
        shapes = self.eigensolve_shapes(monkeypatch, c1(4, 1, 2))
        assert max(side for side, _ in shapes) == 32 and len(shapes) == 32

    @pytest.mark.parametrize("spec,method", [
        (plain(3, 3), Method.DELTA_PAIRING), (c1(3, 1, 2), Method.DELTA_PAIRING),
        (c1(4, 1, 2), Method.DELTA_PAIRING),
        (plain(3, 3), Method.BRUTE_FORCE), (c1(3, 1, 2), Method.BRUTE_FORCE),
        (MomentSpec(Source.PLAIN, n=2, t=2, kind=PrsKind.GENERAL_PHASE), Method.BRUTE_FORCE),
        (plain(3, 2, PrfKeys(64, seed=3)), Method.MONTE_CARLO),
        (c1(2, 1, 2, UniformSample(32, seed=4)), Method.MONTE_CARLO),
    ], ids=["pairing-plain-3-3", "pairing-c1-3-1-2", "pairing-c1-4-1-2", "brute-plain-3-3",
            "brute-c1-3-1-2", "brute-general-plain-2-2", "sampled-plain-3-2-prf64",
            "sampled-c1-2-1-2-uniform32"])
    def test_the_distance_reads_the_handed_over_gram_as_its_compression(self, monkeypatch,
                                                                         spec, method):
        # the one distance solved reads the route's own Gram, uncopied,
        # through the square roots of the class sizes, against I/D handed
        # over as the float 1/D: bit for bit the distance between the
        # explicitly scaled Gram (`compression`) and 1/D
        calls = []
        trace_distance = corelin.trace_distance

        def recording(*args):
            calls.append(args)
            return trace_distance(*args)

        monkeypatch.setattr(corelin, "trace_distance", recording)
        report = compare_to_haar(spec, method)
        moment = report.moment
        ((a, b, generators, scale),) = calls
        assert a.matrix is moment.gram
        assert b == 1.0 / len(moment.gram) and type(b) is float
        assert scale.tobytes() == class_scale(moment.local_dim, moment.copies).tobytes()
        assert report.haar_distance == trace_distance(compression(moment), b, generators)
        # the exhaustive sign-phase moments are split by their symmetries;
        # the general kind and sampled spaces keep the component search
        split = spec.kind is PrsKind.BINARY_PHASE and method is not Method.MONTE_CARLO
        assert (generators is not None) == split

    def test_the_compressed_difference_is_solved_block_by_block(self, monkeypatch):
        # c1 (3,1,2): d^t = 256, D = C(17, 2) = 136, 16 character blocks;
        # the solved sides and the blocks of one, read off the diagonal,
        # cover every class (the component search alone solves blocks of
        # 72 and 64)
        spec = c1(3, 1, 2)
        shapes = self.eigensolve_shapes(monkeypatch, spec)
        singles = self.character_blocks(spec).count(1)
        assert max(side for side, _ in shapes) == 16
        assert sum(side for side, _ in shapes) + singles == 136

    def test_plain_solves_each_character_block_whole(self, monkeypatch):
        # with generators no component search runs: plain (3,3)'s 120
        # classes are solved as the layout's character blocks, each one
        # eigensolve, in block order, and the blocks of one off the diagonal
        spec = plain(3, 3)
        shapes = self.eigensolve_shapes(monkeypatch, spec)
        sides = self.character_blocks(spec)
        assert shapes == [(side, side) for side in sides if side > 1]
        assert sum(sides) == 120 and max(sides) == 15


class TestUnitaryConjugationInvariance:
    def test_distance_invariant_under_member_conjugation(self, rng):
        # conjugating every member by a fixed U conjugates the moment by
        # U^(x)t; the symmetric projector commutes, so the distance is fixed
        spec = c1(2, 1, 2)
        moment = ensemble_moment_deltapair(spec).matrix
        u = random_unitary(8, rng)
        u_t = np.kron(u, u)
        conjugated = DensityOperator(u_t @ moment @ u_t.conj().T)
        haar = haar_moment(8, 2)
        d0 = corelin.trace_distance(DensityOperator(moment), haar)
        d1 = corelin.trace_distance(conjugated, haar)
        assert abs(d0 - d1) <= 1e-10

    def test_member_level_equals_moment_level(self, rng):
        # small-size identity check of the rewrite used above
        spec = plain(2, 2)
        u = random_unitary(4, rng)
        members = [moments.member_state(spec, fns) for fns in moments.member_functions(spec)]
        vs = np.array([
            reduce(np.kron, [u @ s.amplitudes] * 2) for s in members
        ])
        direct = vs.T @ vs.conj() / len(members)
        u_t = np.kron(u, u)
        rewritten = u_t @ ensemble_moment_bruteforce(spec).matrix @ u_t.conj().T
        assert_matrices_close(direct, rewritten, 1e-12)


class TestExpansionTrend:
    def test_distance_non_increasing_in_register_width(self, pairing_report):
        # the widest point's distance is a 2080-dimensional eigendecomposition
        # (the Sym^2 compression of its 4096-dimensional moment)
        distances = [pairing_report(c1(n, 1, 2)).haar_distance for n in (3, 4, 5)]
        assert distances[1] <= distances[0] + 1e-10
        assert distances[2] <= distances[1] + 1e-10

    @pytest.mark.parametrize("source,n,ell,i,last", [
        ("plain", 1, None, None, 7), ("plain", 2, None, None, 7), ("plain", 3, None, None, 6),
        ("construction1", 2, None, 1, 6), ("construction1", 3, None, 1, 3),
        ("construction2", 2, None, None, 3), ("construction3", 2, 3, None, 3),
    ], ids=["plain-1", "plain-2", "plain-3", "c1-2-1", "c1-3-1", "c2-2", "c3-2-ell3"])
    def test_distance_non_decreasing_in_copies(self, source, n, ell, i, last):
        # tracing one copy out of the t-copy moment leaves the (t-1)-copy
        # moment, the ensemble's and Haar's alike, and no partial trace
        # increases a trace distance.  t runs from 1 to the last point under
        # about 0.3 s (c1 (3,1,4) takes 2 s).  The distance is the one
        # compare_to_haar takes, without the d^t x d^t projector it builds
        # and drops, which the budget refuses from plain (3,5) on; the
        # pairing route admits every point here
        distances = []
        for t in range(1, last + 1):
            spec = MomentSpec(Source(source), n=n, t=t, i=i, ell=ell)
            a, b, scale = haar_operands(ensemble_moment_deltapair(spec))
            distances.append(corelin.trace_distance(a, b, moments._class_symmetries(spec),
                                                    scale))
            if t <= 2:
                assert distances[-1] == compare_to_haar(spec, Method.DELTA_PAIRING).haar_distance
        assert all(low <= high + 1e-12 for low, high in zip(distances, distances[1:]))


def _spec(source, n, t, **kw):
    return MomentSpec(Source(source), n=n, t=t, **kw)


PAIRING, BRUTE = (Method.DELTA_PAIRING,), (Method.BRUTE_FORCE,)
BOTH = PAIRING + BRUTE
GENERAL_PLAIN_2_2 = MomentSpec(Source.PLAIN, n=2, t=2, kind=PrsKind.GENERAL_PHASE)
# every exhaustive benchmark moment point, then the points the split is
# checked at besides, each with the routes it runs on
SPLIT_POINTS = {
    "c1-5-1-2": (c1(5, 1, 2), PAIRING), "c1-4-1-2": (c1(4, 1, 2), BOTH),
    "plain-3-3": (plain(3, 3), BOTH), "plain-2-4": (plain(2, 4), BOTH),
    "plain-4-2": (plain(4, 2), BOTH), "c1-3-1-2": (c1(3, 1, 2), BOTH),
    "c2-2-1": (_spec("construction2", 2, 1), BOTH),
    "c3-2-1-ell3": (_spec("construction3", 2, 1, ell=3), BOTH),
    "general-plain-2-2": (GENERAL_PLAIN_2_2, BRUTE),
    "c1-3-1-3": (c1(3, 1, 3), BOTH), "c1-3-2-2": (c1(3, 2, 2), BOTH),
    # brute force at c1 (4,2,2) runs 2^16 members of 64 amplitudes: 13 s
    "c1-4-2-2": (c1(4, 2, 2), PAIRING),
    "c2-2-2": (_spec("construction2", 2, 2), BOTH),
    "c3-2-2-ell2": (_spec("construction3", 2, 2, ell=2), BOTH),
    "c3-2-2-ell3": (_spec("construction3", 2, 2, ell=3), BOTH),
    "c3-2-2-ell2-shared": (_spec("construction3", 2, 2, ell=2, shared_key=True), BOTH),
    "c3-2-2-ell3-shared": (_spec("construction3", 2, 2, ell=3, shared_key=True), BOTH),
}


class TestSymmetrySplit:
    @pytest.mark.parametrize("key,method", [
        pytest.param(key, method, id=f"{key}-{method.value}")
        for key, (_, methods) in SPLIT_POINTS.items() for method in methods])
    def test_the_split_distance_is_the_dense_distance(self, key, method, pairing_report):
        # the handed-over compression solved in one piece against the
        # comparison's own distance, which the layout's symmetries split
        spec = SPLIT_POINTS[key][0]
        report = (pairing_report(spec) if method is Method.DELTA_PAIRING
                  else compare_to_haar(spec, method))
        haar = compression(haar_moment(1 << spec.layout.qubits, spec.t))
        assert (moments._class_symmetries(spec) is None) == (
            spec.kind is PrsKind.GENERAL_PHASE)
        assert abs(report.haar_distance
                   - dense_trace_distance(compression(report.moment), haar)) <= 1e-12

    @pytest.mark.parametrize("spec,method", [
        (c1(3, 1, 2), Method.DELTA_PAIRING), (c1(3, 1, 2), Method.BRUTE_FORCE),
        (_spec("construction2", 2, 2), Method.BRUTE_FORCE), (plain(3, 3), Method.DELTA_PAIRING),
        (c1(3, 1, 3), Method.BRUTE_FORCE),
    ], ids=["pairing-c1-3-1-2", "brute-c1-3-1-2", "brute-c2-2-2", "pairing-plain-3-3",
            "brute-c1-3-1-3"])
    def test_every_generator_commutes_with_the_handed_over_compression(self, spec, method):
        # the signed permutations of the classes fix the route's own operator,
        # which every route holds before the final layer
        moment = (ensemble_moment_deltapair(spec) if method is Method.DELTA_PAIRING
                  else ensemble_moment_bruteforce(spec))
        compressed = compression(moment).matrix
        generators = moments._class_symmetries(spec)
        assert generators
        for indices, signs in generators:
            moved = compressed[np.ix_(indices, indices)] * np.outer(signs, signs)
            assert np.max(np.abs(moved - compressed)) <= 1e-14

    @pytest.mark.parametrize("t", [1, 3])
    def test_odd_t_keeps_commuting_strings_of_even_overlap(self, t):
        # plain n = 2 has the whole Pauli group; at odd t only a commuting
        # subgroup of strings with even b . s acts as commuting involutions
        spec = plain(2, t)
        moment = ensemble_moment_deltapair(spec)
        generators = moments._class_symmetries(spec)
        assert len(generators) == 2
        sym = len(moment.gram)
        plan = corelin._character_plan(corelin._signed_involutions(generators, sym), sym)
        assert len(np.unique(plan.block)) == 4

    @pytest.mark.parametrize("spec", [
        plain(2, 2, PrfKeys(8, seed=1)), plain(2, 2, UniformSample(8, seed=1)),
        GENERAL_PLAIN_2_2,
    ], ids=["prf", "uniform", "general"])
    def test_sampled_and_general_moments_keep_the_component_search(self, spec):
        moment = ensemble_moment_bruteforce(spec)
        assert moments._class_symmetries(spec) is None
