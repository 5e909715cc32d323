from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from prslab import boolfn, corelin, expand, moments, prsgen
from prslab.boolfn import BooleanFunction
from prslab.budget import BudgetError
from prslab.prsgen import PrsGenerator, PrsKind

from conftest import assert_vectors_close, constant_function


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
        assert spec.total_qubits == 3
        assert [offset for offset, _ in spec.blocks] == [0, 1]
        assert spec.final_layer is not None

    def test_blocks_share_the_function(self):
        f = BooleanFunction(2, 2, (0, 1, 0, 1))
        spec = expand.construction1(f, 2, 1)
        assert spec.blocks[0][1].f == spec.blocks[1][1].f == f

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

    def test_general_kind_final_layer_is_fourier(self):
        f = constant_function(2, 4)
        spec = expand.construction1(f, 2, 1, kind=PrsKind.GENERAL_PHASE)
        assert spec.final_layer.kind is corelin.LayerKind.QFT


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
        with pytest.raises(ValueError):
            expand.closed_form_construction1(constant_function(2, 4), 2, 1)


class TestConstruction2:
    def test_layout(self):
        f1, f2, f3 = (constant_function(2) for _ in range(3))
        spec = expand.construction2(f1, f2, f3, 2)
        assert spec.total_qubits == 4
        assert [offset for offset, _ in spec.blocks] == [0, 2, 1]

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
        assert spec.total_qubits == 2
        assert len(spec.blocks) == 1

    def test_three_steps_layout(self):
        fs = [constant_function(2) for _ in range(3)]
        spec = expand.construction3(fs, 2)
        assert spec.total_qubits == 4
        assert [offset for offset, _ in spec.blocks] == [0, 1, 2]

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_qubit_count_formula(self, n, ell):
        fs = [constant_function(n) for _ in range(ell)]
        assert expand.construction3(fs, n).total_qubits == (n // 2) * (ell + 1)


class TestEvaluate:
    def test_empty_spec_is_all_zeros(self):
        spec = expand.ConstructionSpec(3, ())
        got = expand.evaluate(spec)
        assert_vectors_close(got.amplitudes, corelin.basis_state(3, 0).amplitudes, 0.0)

    def test_single_full_width_block_reduces_to_prepare(self, rng):
        from prslab import prsgen

        gen = binary_gen(boolfn.random_function(3, 2, rng))
        spec = expand.ConstructionSpec(3, ((0, gen),))
        assert_vectors_close(
            expand.evaluate(spec).amplitudes, prsgen.prepare(gen).amplitudes, 1e-12
        )

    def test_budget_error(self):
        spec = expand.ConstructionSpec(40, ())
        with pytest.raises(BudgetError):
            expand.evaluate(spec)

    def test_block_exceeding_register_rejected(self):
        with pytest.raises(ValueError, match="offset 1 width 2 does not fit in 2 qubits"):
            expand.ConstructionSpec(2, ((1, binary_gen(F0_N2)),))

    def test_mixed_block_widths_rejected(self):
        with pytest.raises(ValueError, match=r"block widths differ: \[2, 3\]"):
            expand.ConstructionSpec(
                5, ((0, binary_gen(F0_N2)), (2, binary_gen(constant_function(3))))
            )

    @pytest.mark.parametrize("offset", [-1, -2])
    def test_negative_offset_rejected(self, offset):
        with pytest.raises(ValueError, match=f"offset {offset} width 2 does not fit"):
            expand.ConstructionSpec(3, ((offset, binary_gen(F0_N2)),))


class TestFirstBlockPrepared:
    """`evaluate` prepares the first block instead of running its layers on |0...0>."""

    @staticmethod
    def reference(spec):
        state = corelin.basis_state(spec.total_qubits, 0)
        for offset, gen in spec.blocks:
            state = prsgen.apply_to_register(gen, state, offset)
        if spec.final_layer is not None:
            state = corelin.apply_layer(state, spec.final_layer)
        return state

    @pytest.mark.parametrize("kind", list(PrsKind))
    @pytest.mark.parametrize("offsets", [(2, 0), (1,), (0, 2, 1), (2,)])
    @pytest.mark.parametrize("final", [False, True])
    def test_matches_layer_by_layer_reference(self, kind, offsets, final, rng):
        q, n = 5, 3
        for _ in range(4):
            blocks = tuple(
                (o, PrsGenerator(kind, n, boolfn.random_function(n, kind.range_modulus(n), rng)))
                for o in offsets
            )
            layer = prsgen.fourier_layer(kind, tuple(range(q))) if final else None
            spec = expand.ConstructionSpec(q, blocks, layer)
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
        assert [offset for offset, _ in spec.blocks] == list(offsets)
        assert [gen.f for _, gen in spec.blocks] == [fns[key] for key in keys]
        for wrong in (fns[:-1], fns + fns[:1]):
            with pytest.raises(ValueError, match=f"the layout draws {layout.draws} functions "
                                                 f"per member, got {len(wrong)}"):
                expand.circuit(layout, wrong)

    def test_plain_is_one_block_without_final_layer(self):
        spec = expand.circuit(expand.layout(expand.Source.PLAIN, 2), (F0_N2,))
        assert spec == expand.ConstructionSpec(2, ((0, binary_gen(F0_N2)),))

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
            fourier = prsgen.fourier_layer(kind, range(spec.total_qubits))
            assert spec.final_layer.kind is fourier.kind
            assert spec.final_layer.target_qubits == fourier.target_qubits
            assert spec.total_qubits == layout.qubits
            bare = expand.circuit(replace(layout, final_layer=False), fns, kind)
            assert bare.final_layer is None and bare.blocks == spec.blocks

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
