from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from prslab import boolfn, budget, corelin, expand, moments, prsgen
from prslab.boolfn import BooleanFunction
from prslab.budget import BudgetError
from prslab.expand import Layout
from prslab.prsgen import PrsGenerator, PrsKind

from conftest import assert_vectors_close, basis_state, constant_function, measured_peak


F0_N2 = constant_function(2)


def binary_gen(f):
    return PrsGenerator(PrsKind.BINARY_PHASE, f.input_bits, f)


def without_final_layer(source, fns, n, i=None):
    """The source's circuit with the final Fourier layer left out."""
    layout = expand.layout(source, n, i, len(fns))
    return expand.circuit(replace(layout, final_layer=False), fns)


def t_fold_moment(states, t):
    vs = np.array([reduce(np.kron, [s.amplitudes] * t) for s in states])
    return vs.T @ vs.conj() / len(states)


class TestConstruction1:
    def test_layout(self):
        spec = expand.construction1(F0_N2, 2, 1)
        assert spec.layout == Layout(2, (0, 1), (0, 0), True)
        assert spec.layout.qubits == 3

    def test_blocks_share_the_function(self):
        f = BooleanFunction(2, 2, (0, 1, 0, 1))
        spec = expand.construction1(f, 2, 1)
        (gen,) = spec.generators
        assert gen.f is f and spec.layout.keys == (0, 0)

    @pytest.mark.parametrize("i", [0, 2, 3])
    def test_added_qubits_out_of_range(self, i):
        with pytest.raises(ValueError):
            expand.construction1(F0_N2, 2, i)

    def test_constant_function_state_before_final_layer(self):
        # direct evaluation of the displayed sum with f = 0: the overlap sum
        # kills every y whose leading bit is set
        spec = without_final_layer(expand.Source.CONSTRUCTION1, (F0_N2,), 2, 1)
        got = expand.evaluate(spec)
        expected = np.zeros(8)
        expected[[0, 1, 4, 5]] = 0.5
        assert_vectors_close(got.amplitudes, expected, 1e-12)

    def test_general_kind_final_layer_is_fourier(self, rng):
        f = boolfn.random_function(2, 4, rng)
        spec = expand.construction1(f, 2, 1, kind=PrsKind.GENERAL_PHASE)
        bare = expand.evaluate(expand.circuit(replace(spec.layout, final_layer=False), (f,),
                                              PrsKind.GENERAL_PHASE))
        expected = corelin.apply_layer(bare, corelin.qft_layer(range(3)))
        assert_vectors_close(expand.evaluate(spec).amplitudes, expected.amplitudes, 1e-14)


class TestClosedForm:
    def test_matches_circuit_for_all_functions_small(self):
        for n, i in ((2, 1), (3, 1), (3, 2)):
            for f in boolfn.enumerate_all(n, 2):
                for final in (False, True):
                    circuit = expand.evaluate(
                        expand.construction1(f, n, i) if final
                        else without_final_layer(expand.Source.CONSTRUCTION1, (f,), n, i)
                    )
                    direct = expand.closed_form_construction1(f, n, i, include_final_layer=final)
                    assert_vectors_close(circuit.amplitudes, direct.amplitudes, 1e-12)

    def test_norm_one_for_random_functions(self, rng):
        for _ in range(100):
            f = boolfn.random_function(4, 2, rng)
            state = expand.closed_form_construction1(f, 4, 2)
            assert abs(state.norm() - 1.0) <= 1e-12

    def test_requires_sign_phases(self):
        with pytest.raises(ValueError, match="binary kind needs range modulus 2, got 4"):
            expand.closed_form_construction1(constant_function(2, 4), 2, 1)

    def test_refuses_a_function_of_another_width(self):
        # as construction1 does: a 3-bit f at n = 2 would give a 3-qubit state
        for build in (expand.construction1, expand.closed_form_construction1):
            with pytest.raises(ValueError, match="function takes 3-bit inputs, "
                                                 "generator is on 2 qubits"):
                build(constant_function(3), 2, 1)


class TestConstruction2:
    def test_layout(self):
        f1, f2, f3 = (constant_function(2) for _ in range(3))
        spec = expand.construction2(f1, f2, f3, 2)
        assert spec.layout == Layout(2, (0, 2, 1), (0, 1, 2), True)
        assert spec.layout.qubits == 4
        assert [gen.f for gen in spec.generators] == [f1, f2, f3]

    def test_odd_width_rejected(self):
        f = constant_function(3)
        with pytest.raises(ValueError):
            expand.construction2(f, f, f, 3)

    def test_against_hand_built_operator(self, rng):
        def block_op(f, offset, q):
            diag = np.diag(np.where(np.asarray(f.table) % 2 == 1, -1.0, 1.0))
            u = diag @ corelin.hadamard_matrix(2)
            return np.kron(np.kron(np.eye(1 << offset), u), np.eye(1 << (q - offset - 2)))

        for _ in range(5):
            f1, f2, f3 = (boolfn.random_function(2, 2, rng) for _ in range(3))
            spec = without_final_layer(expand.Source.CONSTRUCTION2, (f1, f2, f3), 2)
            got = expand.evaluate(spec).amplitudes
            op = block_op(f3, 1, 4) @ block_op(f2, 2, 4) @ block_op(f1, 0, 4)
            assert_vectors_close(got, op[:, 0], 1e-13)


class TestConstruction3:
    def test_degenerate_single_block(self):
        spec = expand.construction3([F0_N2], 2)
        assert spec.layout == Layout(2, (0,), (0,), True)
        assert len(spec.generators) == 1

    def test_three_steps_layout(self):
        fs = [constant_function(2) for _ in range(3)]
        spec = expand.construction3(fs, 2)
        assert spec.layout == Layout(2, (0, 1, 2), (0, 1, 2), True)
        assert spec.layout.qubits == 4

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_qubit_count_formula(self, n, ell):
        fs = [constant_function(n) for _ in range(ell)]
        assert expand.construction3(fs, n).layout.qubits == (n // 2) * (ell + 1)


class TestEvaluate:
    def test_single_full_width_block_reduces_to_prepare(self, rng):
        gen = binary_gen(boolfn.random_function(3, 2, rng))
        spec = expand.ConstructionSpec(Layout(3, (0,), (0,), False), (gen,))
        assert_vectors_close(
            expand.evaluate(spec).amplitudes, prsgen.prepare(gen).amplitudes, 1e-12
        )

    def test_budget_error(self):
        spec = expand.ConstructionSpec(Layout(2, (38,), (0,), False), (binary_gen(F0_N2),))
        with pytest.raises(BudgetError, match="evaluation on 40 qubits"):
            expand.evaluate(spec)

    @pytest.mark.parametrize("widths", [(), (2,), (2, 3), (3, 3), (2, 2, 2)])
    def test_spec_holds_one_generator_of_the_layout_width_per_draw(self, widths):
        layout = Layout(2, (0, 1, 1), (1, 0, 1), True)
        gens = tuple(binary_gen(constant_function(w)) for w in widths)
        with pytest.raises(ValueError, match=r"the layout draws 2 generators of width 2, "
                                             rf"got widths \[{', '.join(map(str, widths))}\]"):
            expand.ConstructionSpec(layout, gens)

    # direct calls: a wide single member and 1024-member batches of every
    # source; a plain member holds about 2.1 copies of its rows at its peak,
    # a circuit 4.0-4.3
    @pytest.mark.parametrize("source,n,i,ell,kind,members", [
        ("plain", 14, None, None, PrsKind.BINARY_PHASE, None),
        ("plain", 12, None, None, PrsKind.GENERAL_PHASE, None),
        ("construction1", 8, 6, None, PrsKind.BINARY_PHASE, None),
        ("construction2", 8, None, None, PrsKind.GENERAL_PHASE, None),
        ("plain", 4, None, None, PrsKind.BINARY_PHASE, 1024),
        ("construction1", 4, 2, None, PrsKind.BINARY_PHASE, 1024),
        ("construction2", 4, None, None, PrsKind.GENERAL_PHASE, 1024),
        ("construction3", 2, None, 3, PrsKind.GENERAL_PHASE, 1024),
    ], ids=["plain-14", "general-plain-12", "c1-8-6", "general-c2-8", "plain-4-batch",
            "c1-4-2-batch", "general-c2-4-batch", "general-c3-2-ell3-batch"])
    def test_budget_estimate_covers_measured_peak(self, source, n, i, ell, kind, members, rng):
        layout = expand.layout(expand.Source(source), n, i, ell)
        m = kind.range_modulus(n)
        shape = (1 << n,) if members is None else (members, 1 << n)
        fns = tuple(BooleanFunction(n, m, rng.integers(0, m, size=shape))
                    for _ in range(layout.draws))
        spec = expand.circuit(layout, fns, kind)
        measured = measured_peak(lambda: expand.evaluate(spec))
        estimate = 16 * expand._evaluation_peak_entries(
            layout, members or 1, kind is PrsKind.GENERAL_PHASE)
        assert measured <= estimate <= 2 * measured

    @pytest.mark.parametrize("spec", [
        expand.construction2(*[constant_function(8, 256)] * 3, 8, PrsKind.GENERAL_PHASE),
        expand.construction1(BooleanFunction(4, 2, np.zeros((1024, 16), dtype=int)), 4, 2),
    ], ids=["general-c2-8", "c1-4-2-batch"])
    def test_refused_when_the_state_fits_but_its_evaluation_does_not(self, spec):
        # each final state is 1 MiB at most, and its evaluation 2.5-5 MiB
        assert expand.evaluate(spec).amplitudes.nbytes <= 1 << 20
        with budget.limit(1), pytest.raises(BudgetError, match="evaluation on"):
            expand.evaluate(spec)


class TestFirstBlockPrepared:
    """`evaluate` prepares the first block instead of running its layers on |0...0>."""

    @staticmethod
    def reference(spec):
        layout = spec.layout
        state = basis_state(layout.qubits, 0)
        for offset, key in zip(layout.offsets, layout.keys):
            state = prsgen.apply_to_register(spec.generators[key], state, offset)
        if layout.final_layer:
            kind = spec.generators[0].kind
            state = corelin.apply_layer(state, prsgen.fourier_layer(kind, range(layout.qubits)))
        return state

    @pytest.mark.parametrize("kind", list(PrsKind))
    # a block below the register's top, a lone block at an offset, three
    # overlapping blocks, repeated offsets, a repeated key, and a first block
    # keyed by a later draw
    @pytest.mark.parametrize("offsets,keys", [
        ((2, 0), (0, 1)), ((1,), (0,)), ((0, 2, 1), (0, 1, 2)), ((1, 1), (0, 1)),
        ((2, 0, 2), (0, 1, 0)), ((0, 0, 1), (1, 0, 1)),
    ], ids=["below-top", "lone-offset", "three-blocks", "repeated-offset",
            "repeated-key", "first-keyed-by-draw-1"])
    @pytest.mark.parametrize("final", [False, True])
    def test_matches_layer_by_layer_reference(self, kind, offsets, keys, final, rng):
        layout = Layout(3, offsets, keys, final)
        for _ in range(4):
            fns = tuple(boolfn.random_function(3, kind.range_modulus(3), rng)
                        for _ in range(layout.draws))
            spec = expand.circuit(layout, fns, kind)
            assert_vectors_close(expand.evaluate(spec).amplitudes,
                                 self.reference(spec).amplitudes, 1e-15)


class TestLayout:
    # one case per rule: each of these would otherwise build a circuit that
    # is not the layout's (zip drops a block), fail on a bare max(), or
    # report a draw that keys no block
    @pytest.mark.parametrize("args,match", [
        ((0, (0,), (0,), False), r"block width must be >= 1, got n=0"),
        ((2, (), (), False), r"at least one block, got offsets \(\) and keys \(\)"),
        ((2, (0, 1), (0,), True), r"one key per block .* got offsets \(0, 1\) and keys \(0,\)"),
        ((2, (-1, 0), (0, 1), True), r"block offsets \(-1, 0\) include a negative one"),
        ((2, (0, 2), (0, 2), True), r"keys \(0, 2\) do not use every draw from 0 to 2"),
    ], ids=["width", "empty", "unequal-lengths", "negative-offset", "unused-draw"])
    def test_malformed_layout_refused(self, args, match):
        with pytest.raises(ValueError, match=match):
            expand.Layout(*args)

    def test_every_preset_layout_is_valid(self):
        Source = expand.Source
        presets = [expand.layout(Source.PLAIN, n) for n in range(1, 6)]
        presets += [expand.layout(Source.CONSTRUCTION1, n, i)
                    for n in range(2, 7) for i in range(1, n)]
        for n in (2, 4, 6):
            presets += [expand.layout(Source.CONSTRUCTION2, n, shared_key=shared)
                        for shared in (False, True)]
            presets += [expand.layout(Source.CONSTRUCTION3, n, ell=ell, shared_key=shared)
                        for ell in range(1, 6) for shared in (False, True) if ell > 1 or not shared]
        for lay in presets:
            assert replace(lay) == lay  # __post_init__ runs again on the copy
            assert lay.qubits == max(lay.offsets) + lay.n
            assert sorted(set(lay.keys)) == list(range(lay.draws))


class TestCircuit:
    def test_moments_re_exports_the_source_enum(self):
        assert moments.Source is expand.Source

    # every preset, the shared-key variants of construction2 and construction3 included
    @pytest.mark.parametrize("source,n,i,ell,shared,offsets,keys", [
        (expand.Source.PLAIN, 2, None, None, False, (0,), (0,)),
        (expand.Source.CONSTRUCTION1, 3, 2, None, False, (0, 2), (0, 0)),
        (expand.Source.CONSTRUCTION2, 2, None, None, False, (0, 2, 1), (0, 1, 2)),
        (expand.Source.CONSTRUCTION2, 2, None, None, True, (0, 2, 1), (0, 0, 0)),
        (expand.Source.CONSTRUCTION3, 2, None, 1, False, (0,), (0,)),
        (expand.Source.CONSTRUCTION3, 2, None, 4, False, (0, 1, 2, 3), (0, 1, 2, 3)),
        (expand.Source.CONSTRUCTION3, 4, None, 3, True, (0, 2, 4), (0, 0, 0)),
    ], ids=["plain", "c1", "c2", "c2-shared", "c3-ell1", "c3-ell4", "c3-shared"])
    def test_block_k_is_keyed_by_function_keys_k(self, source, n, i, ell, shared, offsets,
                                                  keys, rng):
        layout = expand.layout(source, n, i, ell, shared)
        assert (layout.n, layout.offsets, layout.keys) == (n, offsets, keys)
        assert layout.draws == len(set(keys)) and layout.qubits == max(offsets) + n
        fns = tuple(boolfn.random_function(n, 2, rng) for _ in range(layout.draws))
        spec = expand.circuit(layout, fns)
        assert spec.layout is layout
        assert [spec.generators[key].f for key in layout.keys] == [fns[key] for key in keys]
        for wrong in (fns[:-1], fns + fns[:1]):
            with pytest.raises(ValueError, match=f"the layout draws {layout.draws} functions "
                                                 f"per member, got {len(wrong)}"):
                expand.circuit(layout, wrong)

    def test_plain_is_one_block_without_final_layer(self):
        spec = expand.circuit(expand.layout(expand.Source.PLAIN, 2), (F0_N2,))
        assert spec == expand.ConstructionSpec(Layout(2, (0,), (0,), False), (binary_gen(F0_N2),))

    @pytest.mark.parametrize("source,n,i,ell", [
        (expand.Source.CONSTRUCTION1, 4, 3, None),
        (expand.Source.CONSTRUCTION2, 4, None, None),
        (expand.Source.CONSTRUCTION3, 4, None, 3),
    ])
    def test_every_multi_block_source_ends_with_the_fourier_layer(self, source, n, i, ell):
        layout = expand.layout(source, n, i, ell)
        assert layout.final_layer
        for kind in PrsKind:
            fns = (constant_function(n, kind.range_modulus(n)),) * layout.draws
            spec = expand.circuit(layout, fns, kind)
            bare = expand.circuit(replace(layout, final_layer=False), fns, kind)
            assert bare.generators == spec.generators
            fourier = prsgen.fourier_layer(kind, range(layout.qubits))
            expected = corelin.apply_layer(expand.evaluate(bare), fourier)
            assert_vectors_close(expand.evaluate(spec).amplitudes, expected.amplitudes, 1e-14)

    # every source, and construction1 through its own entry point
    @pytest.mark.parametrize("build", [
        lambda f: expand.circuit(expand.layout(expand.Source.PLAIN, 2), (f,)),
        lambda f: expand.circuit(expand.layout(expand.Source.CONSTRUCTION3, 2, ell=2), (F0_N2, f)),
        lambda f: expand.construction1(f, 2, 1),
        lambda f: expand.construction2(F0_N2, F0_N2, f, 2),
    ], ids=["plain", "c3-second-draw", "construction1", "construction2"])
    @pytest.mark.parametrize("f,match", [
        (constant_function(3), "function takes 3-bit inputs, generator is on 2 qubits"),
        (constant_function(2, 4), "binary kind needs range modulus 2, got 4"),
    ], ids=["width", "modulus"])
    def test_misfit_function_refused_when_the_circuit_is_built(self, build, f, match):
        with pytest.raises(ValueError, match=match):
            build(f)

    # one case per geometry rule: the circuits and the moment spec share one check
    @pytest.mark.parametrize("build,spec_args,match", [
        (lambda: expand.construction1(F0_N2, 2, 2), (moments.Source.CONSTRUCTION1, 2, 2, None),
         r"construction1 needs the added-qubit count 1 <= i < n, got i=2, n=2"),
        (lambda: expand.construction2(*[constant_function(3)] * 3, 3),
         (moments.Source.CONSTRUCTION2, 3, None, None),
         r"construction2 needs an even n >= 2, got n=3"),
        (lambda: expand.construction3([constant_function(3)] * 2, 3),
         (moments.Source.CONSTRUCTION3, 3, None, 2),
         r"construction3 needs an even n >= 2, got n=3"),
        (lambda: expand.construction3([], 2), (moments.Source.CONSTRUCTION3, 2, None, 0),
         r"construction3 needs the block count ell >= 1, got ell=0"),
        (lambda: expand.construction2(*[constant_function(0)] * 3, 0),
         (moments.Source.CONSTRUCTION2, 0, None, None),
         r"block width must be >= 1, got n=0"),
    ])
    def test_circuits_and_moment_spec_raise_the_same_message(self, build, spec_args, match):
        source, n, i, ell = spec_args
        with pytest.raises(ValueError, match=f"^{match}$"):
            build()
        with pytest.raises(ValueError, match=f"^{match}$"):
            moments.MomentSpec(source, n=n, t=1, i=i, ell=ell)


class TestMomentInvarianceUnderAppendedUnitary:
    def test_distance_to_haar_unchanged_by_final_layer(self):
        # a fixed unitary on every member conjugates the moment and commutes
        # with the symmetric projector, so the distance cannot move
        t = 2
        functions = list(boolfn.enumerate_all(2, 2))
        with_final = [expand.evaluate(expand.construction1(f, 2, 1)) for f in functions]
        without = [
            expand.evaluate(without_final_layer(expand.Source.CONSTRUCTION1, (f,), 2, 1))
            for f in functions
        ]
        haar = moments.haar_moment(8, t)
        d_with = corelin.trace_distance(
            corelin.DensityOperator(t_fold_moment(with_final, t)), haar
        )
        d_without = corelin.trace_distance(
            corelin.DensityOperator(t_fold_moment(without, t)), haar
        )
        assert abs(d_with - d_without) <= 1e-10
