import math

import numpy as np
import pytest

from prslab import boolfn, corelin, prsgen
from prslab.boolfn import BooleanFunction
from prslab.corelin import PureState
from prslab.prsgen import PrsGenerator, PrsKind

from conftest import (assert_vectors_close, basis_state, constant_function, materialize,
                      measured_peak, random_state)


def binary_gen(f: BooleanFunction) -> PrsGenerator:
    return PrsGenerator(PrsKind.BINARY_PHASE, f.input_bits, f)


class TestPrepare:
    def test_constant_zero_single_qubit(self):
        out = prsgen.prepare(binary_gen(constant_function(1)))
        assert_vectors_close(out.amplitudes, np.array([1, 1]) / math.sqrt(2), 1e-15)

    def test_two_qubit_sign_pattern(self):
        out = prsgen.prepare(binary_gen(BooleanFunction(2, 2, (0, 1, 1, 0))))
        assert_vectors_close(out.amplitudes, np.array([1, -1, -1, 1]) / 2, 1e-15)

    def test_general_kind_on_one_qubit_matches_binary(self):
        # N = 2 makes the root of unity -1
        gen = PrsGenerator(PrsKind.GENERAL_PHASE, 1, BooleanFunction(1, 2, (0, 1)))
        out = prsgen.prepare(gen)
        assert_vectors_close(out.amplitudes, np.array([1, -1]) / math.sqrt(2), 1e-15)

    def test_flat_magnitudes_binary_exact(self, rng):
        f = boolfn.random_function(4, 2, rng)
        out = prsgen.prepare(binary_gen(f))
        assert np.all(np.abs(out.amplitudes) == 1 / math.sqrt(16))

    def test_flat_magnitudes_general(self, rng):
        f = boolfn.random_function(3, 8, rng)
        gen = PrsGenerator(PrsKind.GENERAL_PHASE, 3, f)
        out = prsgen.prepare(gen)
        assert np.max(np.abs(np.abs(out.amplitudes) - 1 / math.sqrt(8))) <= 1e-15

    @pytest.mark.parametrize("kind, m", [(PrsKind.BINARY_PHASE, 2), (PrsKind.GENERAL_PHASE, 4)])
    def test_state_does_not_depend_on_the_table_container(self, kind, m):
        values = [0, m - 1, 1, 0]
        states = [prsgen.prepare(PrsGenerator(kind, 2, BooleanFunction(2, m, table))).amplitudes
                  for table in (tuple(values), values, np.array(values, dtype=np.uint8))]
        assert all(np.array_equal(states[0], s) for s in states[1:])

    def test_kind_modulus_mismatch(self):
        with pytest.raises(ValueError):
            PrsGenerator(PrsKind.GENERAL_PHASE, 2, BooleanFunction(2, 2, (0, 0, 1, 1)))
        with pytest.raises(ValueError):
            PrsGenerator(PrsKind.BINARY_PHASE, 2, BooleanFunction(2, 4, (0, 0, 1, 1)))

    @pytest.mark.parametrize("kind", list(PrsKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("n,members", [(16, None), (10, 64)], ids=["single", "batch"])
    def test_budget_estimate_covers_measured_peak(self, kind, n, members, rng):
        # 65536 exponents either way: the general kind's exponential holds
        # two complex128 arrays, the signs a float64 array and its copy
        m = kind.range_modulus(n)
        shape = (1 << n,) if members is None else (members, 1 << n)
        gen = PrsGenerator(kind, n, BooleanFunction(n, m, rng.integers(0, m, shape)))
        measured = measured_peak(lambda: prsgen.prepare(gen))
        estimate = 16 * prsgen._prepare_peak_entries(gen.f.table.size,
                                                     kind is PrsKind.GENERAL_PHASE)
        assert measured <= estimate <= 2 * measured

    @pytest.mark.parametrize("kind, m", [(PrsKind.BINARY_PHASE, 2), (PrsKind.GENERAL_PHASE, 1)])
    def test_generator_refuses_fewer_than_one_qubit(self, kind, m):
        # the table is well formed for n = 0; the generator itself refuses it
        with pytest.raises(ValueError, match=r"n >= 1 qubits, got n = 0"):
            PrsGenerator(kind, 0, BooleanFunction(0, m, (0,)))


class TestApplyToRegister:
    @pytest.mark.parametrize("kind", list(PrsKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_input_reproduces_prepare(self, kind, n, rng):
        # prepare and the phase layer read one phase rule: signs are
        # byte-identical, and a general-kind state is complex like the
        # circuit's, exactly real at n = 1, where omega_2 = -1
        m = kind.range_modulus(n)
        gen = PrsGenerator(kind, n, BooleanFunction(n, m, rng.integers(0, m, (16, 1 << n))))
        zeros = PureState(n, np.tile(basis_state(n, 0).amplitudes, (16, 1)))
        circuit = prsgen.apply_to_register(gen, zeros, 0).amplitudes
        prepared = prsgen.prepare(gen).amplitudes
        assert prepared.dtype == circuit.dtype
        if kind is PrsKind.BINARY_PHASE:
            assert prepared.tobytes() == circuit.tobytes()
        else:
            assert_vectors_close(prepared, circuit, 1e-15)
            assert n > 1 or not prepared.imag.any()

    def test_basis_input_sign_pattern(self):
        # constant function, input |10>: signs (-1)^(x.y) over y
        gen = binary_gen(constant_function(2))
        out = prsgen.apply_to_register(gen, basis_state(2, 2), 0)
        assert_vectors_close(out.amplitudes, np.array([1, 1, -1, -1]) / 2, 1e-12)

    def test_general_kind_basis_action(self, rng):
        # omega_N^(f(y) + x*y) against a direct sum
        n = 2
        f = boolfn.random_function(n, 4, rng)
        gen = PrsGenerator(PrsKind.GENERAL_PHASE, n, f)
        x = 3
        out = prsgen.apply_to_register(gen, basis_state(n, x), 0)
        omega = np.exp(2j * np.pi / 4)
        expected = np.array([omega ** ((f(y) + x * y) % 4) for y in range(4)]) / 2
        assert_vectors_close(out.amplitudes, expected, 1e-12)

    def test_preserves_inner_products(self, rng):
        gen = binary_gen(boolfn.random_function(3, 2, rng))
        u, v = random_state(3, rng), random_state(3, rng)
        before = np.vdot(u.amplitudes, v.amplitudes)
        after = np.vdot(
            prsgen.apply_to_register(gen, u, 0).amplitudes,
            prsgen.apply_to_register(gen, v, 0).amplitudes,
        )
        assert abs(before - after) <= 1e-12

    @pytest.mark.parametrize("offset", [0, 1, 2])
    def test_acts_on_its_qubits_and_as_identity_elsewhere(self, offset, rng):
        # the generator on qubits [offset, offset + 2) of 4 is
        # I (x) diag((-1)^f) H (x) I
        f = boolfn.random_function(2, 2, rng)
        u = np.diag(np.where(f.table % 2 == 1, -1.0, 1.0)) @ corelin.hadamard_matrix(2)
        s = random_state(4, rng)
        out = prsgen.apply_to_register(binary_gen(f), s, offset)
        expected = np.kron(np.kron(np.eye(1 << offset), u), np.eye(1 << (2 - offset)))
        assert_vectors_close(out.amplitudes, expected @ s.amplitudes, 1e-14)

    def test_block_beyond_the_register_names_the_qubit(self):
        gen = binary_gen(constant_function(2))
        with pytest.raises(corelin.RegisterError, match=r"qubit 3 but the state has qubits 0\.\.2"):
            prsgen.apply_to_register(gen, basis_state(3, 0), 2)


class TestPhaseShiftFamily:
    def test_zero_label_is_identity(self):
        for kind in PrsKind:
            mat = materialize(prsgen.phase_shift_family(kind, 2))
            assert np.array_equal(mat[0], np.eye(4))

    def test_binary_single_qubit(self):
        mat = materialize(prsgen.phase_shift_family(PrsKind.BINARY_PHASE, 1))
        assert np.array_equal(mat[1], np.diag([1.0, -1.0]))

    def test_general_two_qubit(self):
        mat = materialize(prsgen.phase_shift_family(PrsKind.GENERAL_PHASE, 2))
        assert_vectors_close(np.diagonal(mat[1]), [1, 1j, -1, -1j], 1e-15)

    @pytest.mark.parametrize("kind", list(PrsKind))
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_row_x_is_the_per_label_formula(self, n, kind):
        # one phase layer on the whole register, row x the exponents of U_x:
        # x.y mod 2 (bitwise dot) for binary, x*y mod 2^n for general
        family = prsgen.phase_shift_family(kind, n)
        modulus, table = family.parameters
        assert family.kind is corelin.LayerKind.PHASE_DIAGONAL
        assert family.target_qubits == tuple(range(n))
        assert modulus == kind.range_modulus(n) and table.shape == (1 << n, 1 << n)
        for x in range(1 << n):
            expected = [(x & y).bit_count() % 2 if kind is PrsKind.BINARY_PHASE
                        else x * y % modulus for y in range(1 << n)]
            assert table[x].tolist() == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_basis_action_factors_through_shift_binary(self, n):
        # full enumeration: gen|x> equals U_x applied to gen|0>, every x at
        # once as row x of a batch of copies of gen|0>
        family = prsgen.phase_shift_family(PrsKind.BINARY_PHASE, n)
        for f in boolfn.enumerate_all(n, 2):
            gen = binary_gen(f)
            copies = PureState(n, np.tile(prsgen.prepare(gen).amplitudes, (1 << n, 1)))
            via_shift = corelin.apply_layer(copies, family)
            for x in range(1 << n):
                via_gen = prsgen.apply_to_register(gen, basis_state(n, x), 0)
                assert_vectors_close(via_gen.amplitudes, via_shift.amplitudes[x], 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_basis_action_factors_through_shift_general(self, n, rng):
        family = prsgen.phase_shift_family(PrsKind.GENERAL_PHASE, n)
        for _ in range(64):
            f = boolfn.random_function(n, 1 << n, rng)
            gen = PrsGenerator(PrsKind.GENERAL_PHASE, n, f)
            copies = PureState(n, np.tile(prsgen.prepare(gen).amplitudes, (1 << n, 1)))
            via_shift = corelin.apply_layer(copies, family)
            for x in range(1 << n):
                via_gen = prsgen.apply_to_register(gen, basis_state(n, x), 0)
                assert_vectors_close(via_gen.amplitudes, via_shift.amplitudes[x], 1e-12)
