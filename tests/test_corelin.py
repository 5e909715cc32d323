import itertools
import math
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prslab import budget, corelin, moments
from prslab.budget import BudgetError
from prslab.corelin import (
    DensityOperator,
    LayerKind,
    PureState,
    RegisterError,
    apply_layer,
    hadamard_all_layer,
    partial_trace,
    phase_diagonal_layer,
    symmetric_projector,
    trace_distance,
)
from prslab.moments import MomentSpec, Source, ensemble_moment_deltapair, haar_moment

from conftest import (
    assert_matrices_close,
    assert_vectors_close,
    basis_state,
    class_scale,
    compression,
    dense_trace_distance,
    hadamard_conjugate,
    haar_operands,
    materialize,
    measured_peak,
    random_state,
    random_unitary,
    register_permutation_operator,
    symmetric_isometry,
)


class TestPureState:
    def test_length_must_match_qubit_count(self):
        with pytest.raises(RegisterError):
            PureState(2, [1.0, 0.0])

    def test_norm_enforced_for_normalized_states(self):
        with pytest.raises(RegisterError):
            PureState(1, [1.0, 1.0])

    @pytest.mark.parametrize("amps", [[0.6, 0.8], [[1.0, 0.0], [0.6, 0.8]]], ids=["state", "batch"])
    def test_adopts_a_frozen_array_and_copies_a_writable_one(self, amps):
        frozen = np.array(amps)
        frozen.setflags(write=False)
        assert PureState(1, frozen).amplitudes is frozen
        writable = np.array(amps)
        state = PureState(1, writable)
        writable[...] = 0.0
        assert np.array_equal(state.amplitudes, amps)

    def test_batch_rows_each_checked_to_norm_one(self):
        batch = PureState(1, [[1.0, 0.0], [0.6, 0.8]])
        assert batch.batch_shape == (2,)
        assert np.allclose(np.linalg.norm(batch.amplitudes, axis=-1), [1.0, 1.0])
        with pytest.raises(RegisterError, match="row 1: squared norm"):
            PureState(1, [[1.0, 0.0], [1.0, 1.0]])

    def test_nan_amplitude_rejected(self):
        for amps in ([np.nan, 0.0], [np.nan, 0.0j]):  # float64, then complex128
            with pytest.raises(RegisterError, match="norm"):
                PureState(1, amps)

    @pytest.mark.parametrize("values,dtype", [
        ([0.6, 0.8], np.float64),
        ([1, 0], np.float64),
        (np.array([1, 0], dtype=np.complex64), np.complex128),
        ([0.6, 0.8j], np.complex128),
    ], ids=["float-list", "int-list", "complex64", "complex-list"])
    def test_keeps_real_input_real(self, values, dtype):
        assert PureState(1, values).amplitudes.dtype == dtype

    def test_basis_state_and_permutation_operator_are_real(self):
        assert basis_state(2, 1).amplitudes.dtype == np.float64
        op = register_permutation_operator(2, 2, (1, 0))
        assert op.dtype == np.float64 and set(np.unique(op)) == {0.0, 1.0}

    def test_amplitudes_are_read_only(self):
        s = basis_state(1, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestUnitaryLayer:
    @pytest.mark.parametrize("targets", [
        (0, 0), (-1,), (-1, 0), (1, 0), (2, 0), (0, 2), (0, 1, 3),
    ])
    @pytest.mark.parametrize("make", [
        hadamard_all_layer,
        corelin.qft_layer,
        lambda targets: phase_diagonal_layer(targets, 2, [0] * (1 << len(targets))),
    ], ids=["hadamard", "qft", "phase"])
    def test_targets_other_than_a_run_of_ascending_qubits_refused(self, make, targets):
        with pytest.raises(RegisterError, match=re.escape(f"target qubits {targets} are not")):
            make(targets)

    def test_the_empty_run_is_refused(self):
        # a width-0 layer is not the identity: the phase table [1] is the scalar -1
        for make in (hadamard_all_layer, corelin.qft_layer,
                     lambda targets: phase_diagonal_layer(targets, 2, [1])):
            with pytest.raises(RegisterError, match=re.escape("target qubits () are not")):
                make(())

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: phase_diagonal_layer((0, 1), 2, [0, 1, 0]), "phase table"),
            (lambda: phase_diagonal_layer((0, 1), 2, np.zeros((4, 1), dtype=int)), "phase table"),
            (lambda: phase_diagonal_layer((0,), 0, [0, 1]), "modulus"),
        ],
        ids=["table-length", "table-shape", "modulus-zero"],
    )
    def test_invalid_payload_rejected_at_construction(self, make, match):
        with pytest.raises(RegisterError, match=match):
            make()

    def test_array_payloads_are_read_only_copies(self):
        # a layer validated at construction stays valid: changing the
        # caller's array afterwards changes nothing
        exponents = np.array([0, 1])
        phase = phase_diagonal_layer((0,), 2, exponents)
        exponents[1] = 0
        assert np.array_equal(materialize(phase), np.diag([1.0, -1.0]))
        assert phase.parameters[1].dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            phase.parameters[1][0] = 0

    def test_layers_compare_by_identity(self):
        a = phase_diagonal_layer((0, 1), 2, [0, 1, 1, 0])
        b = phase_diagonal_layer((0, 1), 2, [0, 1, 1, 0])
        assert a == a and a != b
        assert len({a, b, hadamard_all_layer((0, 1))}) == 3


class TestApplyLayer:
    def test_hadamard_on_zero(self):
        out = apply_layer(basis_state(1, 0), hadamard_all_layer((0,)))
        assert_vectors_close(out.amplitudes, np.array([1, 1]) / math.sqrt(2), 1e-15)

    def test_phase_diagonal_against_explicit_matrix(self):
        # f(x) = x0 * x1 flips the sign of |11> only
        s = PureState(2, np.full(4, 0.5))
        layer = phase_diagonal_layer((0, 1), 2, [0, 0, 0, 1])
        expected = np.diag([1.0, 1.0, 1.0, -1.0]) @ s.amplitudes
        out = apply_layer(s, layer)
        assert_vectors_close(out.amplitudes, expected, 0.0)
        assert_vectors_close(out.amplitudes, [0.5, 0.5, 0.5, -0.5], 0.0)

    @pytest.mark.parametrize("targets,qubit", [((5,), 5), ((1, 2), 2), ((0, 1, 2), 2)])
    def test_out_of_range_target_names_qubit(self, targets, qubit):
        with pytest.raises(RegisterError, match=f"targets qubit {qubit} but the state "
                                                r"has qubits 0\.\.1"):
            apply_layer(basis_state(2, 0), hadamard_all_layer(targets))

    def test_sub_register_action(self, rng):
        # layer on qubit 1 of 2 must equal I (x) U
        layer, u = _layer_and_reference(LayerKind.QFT, (1,), rng)
        s = random_state(2, rng)
        out = apply_layer(s, layer)
        expected = np.kron(np.eye(2), u) @ s.amplitudes
        assert_vectors_close(out.amplitudes, expected, 1e-14)

    @pytest.mark.parametrize("targets", [(1, 2), (0, 1), (0, 1, 2), (1,)])
    def test_batch_rows_match_one_state_at_a_time(self, targets, rng):
        rows = [random_state(3, rng) for _ in range(5)]
        batch = PureState(3, [s.amplitudes for s in rows])
        dim = 1 << len(targets)
        exponents = rng.integers(0, 8, size=(5, dim))
        layers = [hadamard_all_layer(targets), corelin.qft_layer(targets),
                  phase_diagonal_layer(targets, 8, exponents[2])]
        for layer in layers:
            out = apply_layer(batch, layer)
            for row, s in zip(out.amplitudes, rows):
                assert_vectors_close(row, apply_layer(s, layer).amplitudes, 1e-15)
        out = apply_layer(batch, phase_diagonal_layer(targets, 8, exponents))
        for k, s in enumerate(rows):
            alone = apply_layer(s, phase_diagonal_layer(targets, 8, exponents[k]))
            assert_vectors_close(out.amplitudes[k], alone.amplitudes, 1e-15)

    def test_phase_rows_must_match_the_state_rows(self, rng):
        layer = phase_diagonal_layer((0,), 2, [[0, 1]] * 3)
        for state in (random_state(1, rng), PureState(1, [[1.0, 0.0]] * 2)):
            with pytest.raises(RegisterError, match=r"phase rows \(3,\)"):
                apply_layer(state, layer)

    @pytest.mark.parametrize("kind", list(LayerKind))
    def test_norm_preserved_across_1000_random_states(self, kind, rng):
        n = 3
        layers = []
        if kind is LayerKind.HADAMARD_ALL:
            layers = [hadamard_all_layer((0, 1, 2)), hadamard_all_layer((1,))]
        elif kind is LayerKind.QFT:
            layers = [corelin.qft_layer((0, 1, 2)), corelin.qft_layer((1, 2))]
        else:
            layers = [
                phase_diagonal_layer((0, 1), 4, rng.integers(0, 4, size=4)),
                phase_diagonal_layer((0, 1, 2), 8, rng.integers(0, 8, size=8)),
            ]
        for k in range(1000):
            s = random_state(n, rng)
            out = apply_layer(s, layers[k % len(layers)])
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def _layer_and_reference(kind, targets, rng, members=None):
    """A layer of `kind` on `targets` and its dense matrix, built independently;
    a phase layer with one random table row per member, and a stack of
    matrices, when `members` is given."""
    dim = 1 << len(targets)
    if kind is LayerKind.HADAMARD_ALL:
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        return hadamard_all_layer(targets), reduce(np.kron, [h] * len(targets), np.eye(1))
    if kind is LayerKind.QFT:
        idx = np.arange(dim)
        omega = np.exp(2j * np.pi * np.outer(idx, idx) / dim)
        return corelin.qft_layer(targets), omega / math.sqrt(dim)
    modulus = int(rng.integers(1, 10))
    exps = rng.integers(-20, 21, size=(dim,) if members is None else (members, dim))
    diag = np.exp(2j * np.pi * exps / modulus)
    return phase_diagonal_layer(targets, modulus, exps), diag[..., None] * np.eye(dim)


class TestLayerOnEveryRun:
    @pytest.mark.parametrize("kind", list(LayerKind))
    @pytest.mark.parametrize("q", range(1, 7))
    def test_apply_matches_the_dense_kronecker_reference(self, kind, q, rng):
        # every run of `width` qubits from `first` acts as
        # I_(2^first) (x) U (x) I_(2^(q - first - width)): on one state, on
        # every row of a batch, and row by row for a table row per member
        states = np.array([random_state(q, rng).amplitudes for _ in range(3)])
        for first in range(q):
            for width in range(1, q - first + 1):
                targets = tuple(range(first, first + width))

                def padded(u):
                    return np.kron(np.kron(np.eye(1 << first), u),
                                   np.eye(1 << (q - first - width)))

                layer, u = _layer_and_reference(kind, targets, rng)
                assert_matrices_close(materialize(layer), u, 1e-12)
                one = apply_layer(PureState(q, states[0]), layer).amplitudes
                assert_vectors_close(one, padded(u) @ states[0], 1e-12)
                batch = apply_layer(PureState(q, states), layer).amplitudes
                assert_matrices_close(batch, states @ padded(u).T, 1e-12)
                if kind is LayerKind.PHASE_DIAGONAL:
                    layer, us = _layer_and_reference(kind, targets, rng, members=3)
                    rows = apply_layer(PureState(q, states), layer).amplitudes
                    assert_matrices_close(rows, np.einsum("kij,kj->ki", padded(us), states),
                                          1e-12)


class TestPartialTrace:
    def test_bell_pair_reduces_to_maximally_mixed(self):
        bell = PureState(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        rho = partial_trace(bell, [1])
        assert_matrices_close(rho.matrix, np.eye(2) / 2, 1e-15)

    def test_trace_nothing_gives_projector(self, rng):
        s = random_state(2, rng)
        rho = partial_trace(s, [])
        assert_matrices_close(rho.matrix, np.outer(s.amplitudes, s.amplitudes.conj()), 1e-15)

    def test_product_state_hand_computation(self):
        # (|00> + |01>)/sqrt2 = |0> (x) |+>: tracing qubit 1 leaves |0><0|
        s = PureState(2, np.array([1, 1, 0, 0]) / math.sqrt(2))
        rho = partial_trace(s, [1])
        assert_matrices_close(rho.matrix, [[1, 0], [0, 0]], 1e-15)

    def test_trace_everything_gives_scalar_one(self, rng):
        s = random_state(2, rng)
        rho = partial_trace(s, [0, 1])
        assert_matrices_close(rho.matrix, [[1.0]], 1e-12)

    def test_out_of_range_index(self):
        with pytest.raises(RegisterError, match="qubit 4"):
            partial_trace(basis_state(2, 0), [4])

    @pytest.mark.parametrize("q,traced,complex_", [
        (10, [], True), (10, [], False), (9, [3], True), (14, [0, 1, 2, 3], True),
        (14, [10, 11, 12, 13], False),
    ], ids=["complex-10-none", "real-10-none", "complex-9-middle", "complex-14-first4",
            "real-14-last4"])
    def test_budget_estimate_covers_measured_peak(self, rng, q, traced, complex_):
        # the product is handed over to the operator, not copied: at 10
        # qubits with nothing traced it is 16 MiB (complex) or 8 MiB (real)
        amps = rng.standard_normal(1 << q) + (1j * rng.standard_normal(1 << q) if complex_ else 0)
        state = PureState(q, amps / np.linalg.norm(amps))
        measured = measured_peak(lambda: partial_trace(state, traced))
        estimate = 16 * corelin._partial_trace_peak_entries(
            1 << (q - len(traced)), 1 << len(traced), complex_)
        assert measured <= estimate <= 2 * measured

    def test_refuses_before_the_product(self):
        # 11 complex qubits with nothing traced: a 64 MiB operator
        state = PureState(11, np.full(1 << 11, 1j / math.sqrt(1 << 11)))
        refused = []

        def reduce_over_budget():
            with pytest.raises(BudgetError, match="reduced operator on 11 of 11 qubits"), \
                    budget.limit(16):
                partial_trace(state, [])
            refused.append(True)

        assert measured_peak(reduce_over_budget) < 1 << 20 and refused

    def test_purification_invariant_under_isometry_on_traced_register(self, rng):
        # appending an isometry to the traced register leaves the reduction fixed
        for _ in range(5):
            chi = random_state(4, rng)
            d_a, d_e, d_e2 = 4, 4, 16
            z = rng.standard_normal((d_e2, d_e)) + 1j * rng.standard_normal((d_e2, d_e))
            iso, _ = np.linalg.qr(z)
            before = partial_trace(chi, [2, 3])
            extended = (chi.amplitudes.reshape(d_a, d_e) @ iso.T).reshape(-1)
            after = partial_trace(PureState(6, extended), [2, 3, 4, 5])
            assert_matrices_close(before.matrix, after.matrix, 1e-10)

    def test_transpose_flip_identity(self, rng):
        for dim in (2, 4, 16):
            u = random_unitary(dim, rng)
            lhs = sum(np.kron(u[:, x], np.eye(dim)[x]) for x in range(dim))
            rhs = sum(np.kron(np.eye(dim)[x], u.T[:, x]) for x in range(dim))
            assert_vectors_close(lhs, rhs, 1e-12)


def permuted_blocks(sizes, complex_, tree, rng):
    """A Hermitian matrix with blocks of these sizes on its diagonal, then
    rows and columns permuted, and its blocks as ascending index lists in
    the order of their smallest index.  A block is dense, or a tree that
    joins each index to one earlier index of its block; a size 0 stands for
    an all-zero row, a block of its own."""
    dim = sum(max(1, size) for size in sizes)
    mat = np.zeros((dim, dim), dtype=np.complex128 if complex_ else np.float64)
    start, blocks = 0, []
    for size in sizes:
        if tree:
            block = np.diag(rng.standard_normal(size)).astype(mat.dtype)
            for i in range(1, size):
                weight = rng.standard_normal() + (1j * rng.standard_normal() if complex_ else 0)
                parent = rng.integers(i)
                block[i, parent], block[parent, i] = weight, np.conj(weight)
        else:
            block = rng.standard_normal((size, size))
            if complex_:
                block = block + 1j * rng.standard_normal((size, size))
            block = block + block.conj().T
        mat[start:start + size, start:start + size] = block
        blocks.append(range(start, start + max(1, size)))
        start += max(1, size)
    perm = rng.permutation(dim)
    where = np.argsort(perm)  # old index j sits at where[j]
    return mat[np.ix_(perm, perm)], sorted(sorted(where[list(b)].tolist()) for b in blocks)


class TestTraceDistance:
    def test_zero_on_equal_states(self, rng):
        rho = partial_trace(random_state(3, rng), [0])
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = partial_trace(basis_state(1, 0), [])
        b = partial_trace(basis_state(1, 1), [])
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_zero_versus_plus(self):
        plus = PureState(1, np.array([1, 1]) / math.sqrt(2))
        a = partial_trace(basis_state(1, 0), [])
        b = partial_trace(plus, [])
        assert trace_distance(a, b) == pytest.approx(math.sqrt(0.5), abs=1e-10)

    def test_agrees_with_pure_state_overlap_formula(self, rng):
        for _ in range(20):
            u, v = random_state(3, rng), random_state(3, rng)
            td = trace_distance(partial_trace(u, []), partial_trace(v, []))
            overlap = abs(np.vdot(u.amplitudes, v.amplitudes)) ** 2
            assert td == pytest.approx(math.sqrt(1 - overlap), abs=1e-10)

    def test_triangle_inequality_on_random_triples(self, rng):
        for _ in range(10):
            rhos = [partial_trace(random_state(4, rng), [0, 1]) for _ in range(3)]
            ab = trace_distance(rhos[0], rhos[1])
            bc = trace_distance(rhos[1], rhos[2])
            ac = trace_distance(rhos[0], rhos[2])
            assert ac <= ab + bc + 1e-10

    def test_contracts_under_partial_trace(self, rng):
        for _ in range(10):
            u, v = random_state(3, rng), random_state(3, rng)
            full = trace_distance(partial_trace(u, []), partial_trace(v, []))
            reduced = trace_distance(partial_trace(u, [2]), partial_trace(v, [2]))
            assert reduced <= full + 1e-10

    def test_real_operators_match_their_complex_cast(self, rng):
        # real symmetric operators take the float64 eigensolver
        for dim in (2, 16, 64):
            ops = []
            for _ in range(2):
                vs = rng.standard_normal((3, dim))
                vs /= np.linalg.norm(vs, axis=1, keepdims=True)
                ops.append(DensityOperator(vs.T @ vs / 3))
            assert all(op.matrix.dtype == np.float64 for op in ops)
            cast = [DensityOperator(op.matrix.astype(np.complex128)) for op in ops]
            assert abs(trace_distance(*ops) - trace_distance(*cast)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(0, 7), min_size=1, max_size=8),
           complex_=st.booleans(), tree=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(sizes=[12], complex_=False, tree=False, seed=0)  # a single full block
    @example(sizes=[12], complex_=True, tree=True, seed=1)
    @example(sizes=[0, 0, 0], complex_=False, tree=False, seed=2)  # a - b is zero
    def test_block_by_block_matches_one_eigensolve(self, sizes, complex_, tree, seed):
        # a and b share a diagonal shift, so a - b is the block matrix
        rng = np.random.default_rng(seed)
        mat, blocks = permuted_blocks(sizes, complex_, tree, rng)
        shift = np.diag(rng.standard_normal(len(mat)))
        a = DensityOperator(mat + shift, normalized=False)
        b = DensityOperator(shift, normalized=False)
        found = corelin._components(a.matrix - b.matrix)
        assert [c.tolist() for c in found] == blocks
        assert abs(trace_distance(a, b) - dense_trace_distance(a, b)) <= 1e-12

    @pytest.mark.parametrize("rows_per_step", [1, 2, 3, 1000])
    def test_the_search_reads_every_frontier_row(self, monkeypatch, rows_per_step):
        # trees are searched over several levels, whose frontiers are read
        # a few rows per step here
        mat, blocks = permuted_blocks([1, 40, 0, 25, 7, 1], False, True,
                                      np.random.default_rng(rows_per_step))
        monkeypatch.setattr(corelin, "_FRONTIER_BYTES", rows_per_step * len(mat))
        assert [c.tolist() for c in corelin._components(mat)] == blocks

    @pytest.mark.parametrize("entries", [
        {(1, 0): 1e-11},  # joined only by its lower triangle
        {(0, 2): 1e-11, (2, 0): 1e-11, (2, 1): 1e-11, (3, 3): 1.0},  # found as 0, 2, 1
    ], ids=["one-triangle", "search-order"])
    def test_blocks_keep_the_triangle_eigvalsh_reads(self, entries):
        # an operator is Hermitian to within 1e-10, so an entry may sit in
        # one triangle only; a block must still join it and be gathered in
        # ascending order, so that it reads the entries the dense solve reads
        mat = np.zeros((max(max(key) for key in entries) + 1,) * 2)
        for key, value in entries.items():
            mat[key] = value
        a = DensityOperator(mat, normalized=False)
        b = DensityOperator(np.zeros_like(mat), normalized=False)
        assert abs(trace_distance(a, b) - dense_trace_distance(a, b)) <= 1e-15

    def test_dimension_mismatch(self, rng):
        a = partial_trace(random_state(2, rng), [0])
        b = partial_trace(random_state(2, rng), [])
        with pytest.raises(RegisterError):
            trace_distance(a, b)


def pairing_operands(spec):
    """The operands `compare_to_haar` solves for the pairing route's moment
    (`haar_operands`): its class Gram, 1/D and the scale that reads the
    Gram as its D x D compression."""
    return haar_operands(ensemble_moment_deltapair(spec))


class TestTraceDistanceBudget:
    @pytest.mark.parametrize("spec", [
        MomentSpec(Source.PLAIN, n=4, t=2), MomentSpec(Source.PLAIN, n=3, t=3),
        MomentSpec(Source.CONSTRUCTION1, n=5, i=1, t=2),
    ], ids=["plain-16-2", "plain-8-3", "c1-5-1-2"])
    def test_estimate_covers_the_measured_peak(self, spec):
        # plain: many small blocks, so the component search sets the peak;
        # c1 (5,1,2): blocks of 1056 and 1024 classes, both gathered beside
        # the difference
        a, b, scale = pairing_operands(spec)
        measured = measured_peak(lambda: trace_distance(a, b, None, scale))
        estimate = 16 * corelin._distance_peak_entries(a.dim)
        assert measured <= estimate <= 2 * measured

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_estimate_covers_the_peak_of_a_one_block_solve(self, rng, complex_):
        # a dense difference is one block, solved as it is: its square and
        # the component search's bool arrays are what tracemalloc sees
        dim = 528
        mat = rng.standard_normal((dim, dim))
        if complex_:
            mat = mat + 1j * rng.standard_normal((dim, dim))
        a = DensityOperator(mat + mat.conj().T, normalized=False)
        b = DensityOperator(np.eye(dim), normalized=False)
        assert len(corelin._components(a.matrix - b.matrix)) == 1
        measured = measured_peak(lambda: trace_distance(a, b))
        estimate = 16 * corelin._distance_peak_entries(dim, complex_)
        assert measured <= estimate <= 2 * measured

    def test_refuses_before_the_component_search(self, monkeypatch):
        # (32)^2: solving the difference of the handed-over operators needs
        # about 4.3 MiB besides the 2.1 MiB Gram
        a, b, scale = pairing_operands(MomentSpec(Source.CONSTRUCTION1, n=4, i=1, t=2))
        assert 16 * corelin._distance_peak_entries(a.dim) > 4 << 20
        searched = []
        monkeypatch.setattr(corelin, "_components", lambda mat: searched.append(mat))
        with pytest.raises(BudgetError, match="trace distance of two 528 x 528"), \
                budget.limit(4):
            trace_distance(a, b, None, scale)
        assert searched == []

    def test_a_direct_caller_is_refused_naming_the_dimension(self):
        # the two 8 MiB operands count beside the 16 MiB the solve holds
        a = DensityOperator(np.eye(1024) / 1024)
        b = DensityOperator(np.full((1024, 1024), 1 / 1024))
        with pytest.raises(BudgetError, match="trace distance of two 1024 x 1024 operators "
                                              "requires 32.0 MiB"), budget.limit(1):
            trace_distance(a, b)

    @pytest.mark.parametrize("spec", [
        MomentSpec(Source.PLAIN, n=3, t=3), MomentSpec(Source.CONSTRUCTION1, n=4, i=1, t=2),
    ], ids=["plain-8-3", "c1-4-1-2"])
    def test_the_check_counts_the_operands(self, spec):
        # the Gram it reads, and a dense b, beside the peak of its own arrays:
        # the smallest budget it accepts is the sum, rounded up to a MiB
        a, c, scale = pairing_operands(spec)
        generators = moments._class_symmetries(spec)
        plan = corelin._character_plan(corelin._signed_involutions(generators, a.dim), a.dim)
        own = 16 * corelin._distance_peak_entries(a.dim, False, plan)
        for b in (c, DensityOperator(np.eye(a.dim) * c)):
            held = a.matrix.nbytes + (0 if isinstance(b, float) else b.matrix.nbytes)
            required = math.ceil((held + own) / (1 << 20))
            with pytest.raises(BudgetError), budget.limit(required - 1):
                trace_distance(a, b, generators, scale)
            with budget.limit(required):
                trace_distance(a, b, generators, scale)


def commuting_operator(generators, dim, complex_, rng):
    """A random Hermitian dim x dim matrix averaged over the group that the
    signed permutations generate: one average per generator, each of which
    keeps the earlier ones' symmetry, as the generators commute."""
    mat = rng.standard_normal((dim, dim))
    if complex_:
        mat = mat + 1j * rng.standard_normal((dim, dim))
    mat = mat + mat.conj().T
    for indices, signs in generators:
        mat = (mat + mat[np.ix_(indices, indices)] * np.outer(signs, signs)) / 2
    return DensityOperator(mat, normalized=False)


def _orbit_generators():
    """Signed involutions of 8 indices with orbits of 1, 2 and 4 and
    stabilizer signs: a swap of 0 and 1 and of 2 and 3, a signed swap of 4
    and 5 (sign -1 both ways), and a sign-only generator."""
    swap = (np.array([1, 0, 3, 2, 5, 4, 6, 7]), np.array([1, 1, 1, 1, -1, -1, 1, 1.0]))
    pair = (np.array([2, 3, 0, 1, 4, 5, 6, 7]), np.ones(8))
    signs = (np.arange(8), np.array([1, 1, 1, 1, -1, -1, 1, -1.0]))
    return [swap, pair, signs]


def _layout_generators(spec):
    return moments._class_symmetries(spec), len(ensemble_moment_deltapair(spec).gram)


class TestScalarOperand:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    @pytest.mark.parametrize("c", [0.0, 1 / 36, -0.3, np.float64(2.5)])
    def test_a_float_is_its_multiple_of_the_identity_bit_for_bit(self, rng, complex_, split, c):
        # c is subtracted from the diagonal alone, and x - 0.0 is x, so every
        # entry of the difference, and so the distance, is the dense one's
        generators, dim = _layout_generators(MomentSpec(Source.CONSTRUCTION1, n=2, i=1, t=2))
        generators = generators if split else None
        for _ in range(3):
            a = commuting_operator(generators or [], dim, complex_, rng)
            dense = DensityOperator(c * np.eye(dim), normalized=False)
            assert trace_distance(a, c, generators) == trace_distance(a, dense, generators)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_float_is_refused(self, c):
        a = DensityOperator(np.eye(4) / 4)
        for generators in (None, [(np.arange(4), np.array([1.0, -1.0, 1.0, -1.0]))]):
            with pytest.raises(RegisterError, match="^the scalar operand .* is not finite$"):
                trace_distance(a, c, generators)


class TestScaledOperand:
    @staticmethod
    def operands(kinds, generators, dim, rng):
        """a and b of the given kinds ("real" or "complex" operators, or a
        float b), both commuting with the generators."""
        a_kind, b_kind = kinds.split("-")
        a = commuting_operator(generators or [], dim, a_kind == "complex", rng)
        if b_kind == "float":
            return a, 1 / 36
        return a, commuting_operator(generators or [], dim, b_kind == "complex", rng)

    @pytest.mark.parametrize("kinds", ["real-float", "complex-float", "real-real",
                                       "complex-complex", "real-complex"])
    @pytest.mark.parametrize("split", [False, True], ids=["dense", "split"])
    def test_a_scaled_operand_is_the_scaled_operator_bit_for_bit(self, rng, kinds, split):
        # c1 (2,1,2): D = 36 classes of sizes 1 and 2, whose scale every
        # class symmetry keeps; each entry of a takes the two products, its
        # row's entry of the scale first, that scaling a beforehand takes
        generators, dim = _layout_generators(MomentSpec(Source.CONSTRUCTION1, n=2, i=1, t=2))
        generators = generators if split else None
        scale = class_scale(8, 2)
        assert set(np.round(scale**2)) == {1.0, 2.0}
        for _ in range(3):
            a, b = self.operands(kinds, generators, dim, rng)
            scaled = a.matrix * scale[:, None]
            scaled *= scale
            want = trace_distance(DensityOperator(scaled, normalized=False), b, generators)
            assert trace_distance(a, b, generators, scale) == want

    @pytest.mark.parametrize("scale", [np.ones(3), np.ones((4, 1)), np.ones(4, dtype=complex),
                                       np.ones(4, dtype=bool)],
                             ids=["short", "column", "complex", "bool"])
    def test_a_scale_that_is_not_a_real_vector_of_dim_entries_is_refused(self, scale):
        a = DensityOperator(np.eye(4) / 4)
        for generators in (None, [(np.arange(4), np.array([1.0, -1.0, 1.0, -1.0]))]):
            with pytest.raises(RegisterError, match="^the scale is not a real vector of 4 "
                                                    "entries$"):
                trace_distance(a, 0.25, generators, scale)


class TestTraceDistanceSplit:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("source", ["orbits", "plain-2-2", "c1-2-1-2", "c1-2-1-3",
                                        "c3-2-2-ell2-shared"])
    def test_the_split_matches_one_eigensolve(self, rng, source, complex_):
        generators, dim = {
            "orbits": lambda: (_orbit_generators(), 8),
            "plain-2-2": lambda: _layout_generators(MomentSpec(Source.PLAIN, n=2, t=2)),
            "c1-2-1-2": lambda: _layout_generators(MomentSpec(Source.CONSTRUCTION1, n=2,
                                                              i=1, t=2)),
            "c1-2-1-3": lambda: _layout_generators(MomentSpec(Source.CONSTRUCTION1, n=2,
                                                              i=1, t=3)),
            "c3-2-2-ell2-shared": lambda: _layout_generators(MomentSpec(
                Source.CONSTRUCTION3, n=2, t=2, ell=2, shared_key=True)),
        }[source]()
        for _ in range(3):
            a, b = (commuting_operator(generators, dim, complex_, rng) for _ in range(2))
            assert abs(trace_distance(a, b, generators) - dense_trace_distance(a, b)) <= 1e-12

    @pytest.mark.parametrize("rows_bytes", [1, 1 << 12, 1 << 30])
    def test_any_chunk_of_whole_orbits_gives_the_same_blocks(self, monkeypatch, rows_bytes):
        # one orbit per chunk, a few, or every row at once
        generators, dim = _layout_generators(MomentSpec(Source.CONSTRUCTION1, n=2, i=1, t=2))
        a = commuting_operator(generators, dim, False, np.random.default_rng(5))
        b = DensityOperator(np.eye(dim), normalized=False)
        monkeypatch.setattr(corelin, "_SPLIT_BYTES", rows_bytes)
        assert abs(trace_distance(a, b, generators) - dense_trace_distance(a, b)) <= 1e-12

    def test_an_empty_group_keeps_the_component_search(self, rng):
        a = commuting_operator([], 6, False, rng)
        b = DensityOperator(np.eye(6), normalized=False)
        assert trace_distance(a, b, []) == trace_distance(a, b)

    @pytest.mark.parametrize("indices,signs", [
        ([0, 0, 2, 3], [1, 1, 1, 1]), ([1, 0, 3, 4], [1, 1, 1, 1]),
        ([1, 0, 2, 3], [1, 1, 2, 1]), ([1, 0, 2, 3], [1, 1, 1j, 1]), ([1, 0, 2], [1, 1, 1]),
        ([1.0, 0, 2, 3], [1, 1, 1, 1]),
    ], ids=["repeated", "out-of-range", "sign-2", "sign-i", "short", "float-indices"])
    def test_a_generator_that_is_not_a_signed_permutation_is_refused(self, indices, signs):
        ops = (DensityOperator(np.eye(4) / 4),) * 2
        with pytest.raises(RegisterError, match="^generator 1 is not a signed permutation "
                                                "of 4 indices$"):
            trace_distance(*ops, [(np.arange(4), np.ones(4)), (np.array(indices),
                                                                np.array(signs))])

    def test_generators_that_do_not_commute_are_refused(self):
        # two swaps that share index 1: each an involution, their products
        # two different 3-cycles
        ops = (DensityOperator(np.eye(3) / 3),) * 2
        with pytest.raises(RegisterError, match="^generators 0 and 1 do not commute$"):
            trace_distance(*ops, [([1, 0, 2], [1, 1, 1]), ([0, 2, 1], [1, 1, 1])])
        # a swap and a sign on one of its indices: the permutations commute,
        # the signs do not
        with pytest.raises(RegisterError, match="^generators 0 and 1 do not commute$"):
            trace_distance(*ops, [([0, 2, 1], [1, 1, 1]), ([0, 1, 2], [1, -1, 1])])

    @pytest.mark.parametrize("indices,signs", [
        ([1, 2, 0], [1, 1, 1]), ([1, 0, 2], [1, -1, 1]),
    ], ids=["3-cycle", "swap-squaring-to-minus-one"])
    def test_a_generator_that_does_not_square_to_the_identity_is_refused(self, indices, signs):
        ops = (DensityOperator(np.eye(3) / 3),) * 2
        with pytest.raises(RegisterError, match="^generator 0 does not square to the identity$"):
            trace_distance(*ops, [(indices, signs)])

    def test_a_group_the_difference_does_not_commute_with_is_refused(self, rng):
        # c1 (2,1,2)'s classes under a generator that is not one of its
        # symmetries: every involution above is valid, so only the
        # transformed difference shows it, and no distance is returned
        spec = MomentSpec(Source.CONSTRUCTION1, n=2, i=1, t=2)
        generators, dim = _layout_generators(spec)
        a = compression(ensemble_moment_deltapair(spec))
        b = compression(haar_moment(8, 2))
        assert abs(trace_distance(a, b, generators) - dense_trace_distance(a, b)) <= 1e-12
        swap = np.arange(dim)
        swap[[0, 1]] = swap[[1, 0]]
        with pytest.raises(RegisterError, match="^the transformed difference has an entry of "
                                                ".* outside its character blocks$"):
            trace_distance(a, b, [(swap, np.ones(dim))])
        # one sign flipped on a generator that commutes with every other
        indices, signs = generators[0]
        flipped = signs.copy()
        flipped[indices == np.arange(dim)] *= -1
        with pytest.raises(RegisterError, match="outside its character blocks"):
            trace_distance(a, b, [(indices, flipped)])

    @pytest.mark.parametrize("spec", [
        MomentSpec(Source.CONSTRUCTION1, n=4, i=1, t=2), MomentSpec(Source.PLAIN, n=4, t=2),
    ], ids=["c1-4-1-2", "plain-4-2"])
    def test_estimate_covers_the_measured_peak(self, spec):
        # c1 (4,1,2): 32 blocks of at most 32 classes, so one chunk of rows
        # sets the peak; plain (4,2): 136 blocks of one
        a, c, scale = pairing_operands(spec)
        generators = moments._class_symmetries(spec)
        plan = corelin._character_plan(corelin._signed_involutions(generators, a.dim), a.dim)
        estimate = 16 * corelin._distance_peak_entries(a.dim, False, plan)
        for b in (c, DensityOperator(np.eye(a.dim) * c)):
            measured = measured_peak(lambda: trace_distance(a, b, generators, scale))
            assert measured <= estimate <= 2 * measured


class TestSymmetricProjector:
    def test_single_copy_is_identity(self):
        proj = symmetric_projector(2, 1)
        assert_matrices_close(proj.matrix, np.eye(2), 0.0)
        assert proj.trace().real == pytest.approx(2.0)

    def test_two_qubit_trace(self):
        assert symmetric_projector(2, 2).trace().real == pytest.approx(3.0)

    def test_dimension_four_two_copies(self):
        proj = symmetric_projector(4, 2)
        assert proj.trace().real == pytest.approx(10.0, abs=1e-12)
        assert_matrices_close(proj.matrix @ proj.matrix, proj.matrix, 1e-12)

    def test_idempotent_odd_local_dim(self):
        proj = symmetric_projector(3, 3)
        assert_matrices_close(proj.matrix @ proj.matrix, proj.matrix, 1e-12)
        assert proj.trace().real == pytest.approx(math.comb(5, 3), abs=1e-12)

    def test_budget_error_reports_sizes(self):
        with pytest.raises(BudgetError, match="MiB"):
            symmetric_projector(2, 30)

    def test_is_real(self):
        assert symmetric_projector(3, 2).matrix.dtype == np.float64

    @pytest.mark.parametrize("local_dim,copies", [
        (1, 2), (2, 1), (2, 2), (3, 2), (8, 2), (2, 3), (3, 3), (4, 3), (3, 4), (2, 5),
    ])
    def test_is_the_permutation_average_and_the_isometry_projector(self, local_dim, copies):
        # byte for byte the average of the t! factor permutations, and V V^T
        # for the conftest isometry oracle V
        proj = symmetric_projector(local_dim, copies).matrix
        perms = list(itertools.permutations(range(copies)))
        average = sum(register_permutation_operator(local_dim, copies, perm)
                      for perm in perms) / len(perms)
        assert proj.tobytes() == average.tobytes()
        iso = symmetric_isometry(local_dim, copies)
        assert_matrices_close(proj, iso @ iso.T, 1e-15)

    @pytest.mark.parametrize("local_dim,copies", [(16, 2), (8, 3)])
    def test_budget_estimate_covers_measured_peak(self, local_dim, copies):
        measured = measured_peak(lambda: symmetric_projector(local_dim, copies))
        estimate = 16 * corelin._projector_peak_entries(local_dim, copies)
        assert measured <= estimate <= 2 * measured


class TestSymmetricCompression:
    @pytest.mark.parametrize("local_dim,copies", [
        (2, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (4, 4),
    ])
    def test_isometry_onto_the_symmetric_subspace(self, local_dim, copies):
        iso = symmetric_isometry(local_dim, copies)
        sym = corelin.symmetric_subspace_dimension(local_dim, copies)
        assert iso.shape == (local_dim**copies, sym)
        assert np.all(np.count_nonzero(iso, axis=1) == 1)
        assert_matrices_close(iso.T @ iso, np.eye(sym), 1e-14)
        assert_matrices_close(iso @ iso.T, symmetric_projector(local_dim, copies).matrix, 1e-14)


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(RegisterError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(RegisterError, match="trace"):
            DensityOperator(np.eye(2))

    def test_rejects_nan_entry(self):
        with pytest.raises(RegisterError, match="Hermitian"):
            DensityOperator(np.array([[0.5, np.nan], [np.nan, 0.5]]))

    def test_construction_peaks_below_one_and_a_half_matrices(self):
        # the defensive copy is one matrix; the Hermiticity check runs over
        # row stripes instead of building the conjugate and the difference
        d = 1024
        mat = np.eye(d, dtype=np.complex128) / d
        peak = measured_peak(lambda: DensityOperator(mat))
        assert peak < 1.5 * mat.nbytes

    @pytest.mark.parametrize("d", [3, 64, 300])
    def test_reports_the_largest_deviation_over_all_stripes(self, rng, d):
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        with pytest.raises(RegisterError, match=re.escape(f"Hermitian by {dev:.3e}")):
            DensityOperator(mat, normalized=False)

    def test_rejects_nan_in_a_late_stripe(self):
        mat = np.eye(512, dtype=np.complex128) / 512
        mat[-1, -2] = np.nan
        with pytest.raises(RegisterError, match="Hermitian by nan"):
            DensityOperator(mat)

    @pytest.mark.parametrize("values,dtype", [
        ([[0.5, 0.0], [0.0, 0.5]], np.float64),
        (np.eye(2, dtype=np.float32) / 2, np.float64),
        (np.eye(2, dtype=np.int64), np.float64),
        ([[0.5, 0.5j], [-0.5j, 0.5]], np.complex128),
        (np.eye(2, dtype=np.complex64) / 2, np.complex128),
    ], ids=["list", "float32", "int64", "complex-list", "complex64"])
    def test_keeps_real_input_real(self, values, dtype):
        op = DensityOperator(values, normalized=False)
        assert op.matrix.dtype == dtype
        assert op.matrix.flags.c_contiguous and not op.matrix.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_rejects_nan_in_either_dtype(self, dtype):
        mat = np.eye(4, dtype=dtype) / 4
        mat[2, 2] = np.nan
        with pytest.raises(RegisterError, match="nan"):
            DensityOperator(mat)

    def test_unnormalized_flag(self):
        op = DensityOperator(np.eye(2), normalized=False)
        assert op.trace().real == pytest.approx(2.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_adopts_a_frozen_owning_array(self, dtype):
        mat = np.eye(4, dtype=dtype) / 4
        mat.setflags(write=False)
        assert DensityOperator(mat).matrix is mat

    def test_copies_a_writable_array(self):
        mat = np.eye(4) / 4
        op = DensityOperator(mat)
        assert op.matrix is not mat and not op.matrix.flags.writeable
        mat[0, 0] = 1.0
        assert op.matrix[0, 0] == 0.25

    @pytest.mark.parametrize("view", [
        lambda m: m[:4, :4], lambda m: m[:4, :4].T.copy(order="F"), lambda m: m.astype(np.float32),
    ], ids=["view", "fortran", "float32"])
    def test_copies_a_frozen_view_or_other_layout(self, view):
        base = np.eye(8) / 4
        mat = view(base)
        mat.setflags(write=False)
        op = DensityOperator(mat, normalized=False)
        assert op.matrix is not mat
        assert op.matrix.dtype == np.float64 and op.matrix.flags.c_contiguous

    def test_psd_spectrum_of_reductions(self, rng):
        rho = partial_trace(random_state(4, rng), [0, 3])
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-8


class TestHadamardTransform:
    def test_matches_dense_matrix_on_vectors(self, rng):
        for bits in (1, 3, 5):
            v = rng.standard_normal(1 << bits) + 1j * rng.standard_normal(1 << bits)
            got = corelin.hadamard_transform(v)
            want = corelin.hadamard_matrix(bits) @ v
            assert_vectors_close(got, want, 1e-12)

    def test_conjugation_matches_dense(self, rng):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = corelin.hadamard_matrix(3)
        assert_matrices_close(hadamard_conjugate(m.copy()), h @ m @ h, 1e-12)

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_conjugation_keeps_real_symmetric_input_real(self, rng, layout):
        a = rng.standard_normal((128, 128))
        m = a + a.T
        h = corelin.hadamard_matrix(7)
        got = hadamard_conjugate(layout(m.copy()))
        assert got.dtype == np.float64
        assert_matrices_close(got, h @ m @ h, 1e-12)

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("bits", [0, 1, 7, 10])
    def test_conjugation_is_in_place(self, rng, layout, dtype, bits):
        # at 2^10 a matrix is 8 or 16 MiB: each pass takes several steps
        dim = 1 << bits
        m = layout(rng.standard_normal((dim, dim)).astype(dtype))
        h = corelin.hadamard_matrix(bits)  # the dense oracle, independent of the kernel
        want = h @ m @ h
        got = hadamard_conjugate(m)
        assert got is m and got.dtype == dtype
        assert_matrices_close(got, want, 1e-9)

    def test_conjugation_refuses_read_only_and_other_input(self):
        frozen = np.eye(4)
        frozen.setflags(write=False)
        with pytest.raises(ValueError, match="writable"):
            hadamard_conjugate(frozen)
        assert np.array_equal(frozen, np.eye(4))
        with pytest.raises(ValueError, match="float64 or complex128"):
            hadamard_conjugate(np.eye(4, dtype=np.float32))
        for shape in [(4, 8), (6, 6), (0, 0), (4,)]:
            with pytest.raises(RegisterError, match="power-of-two side"):
                hadamard_conjugate(np.zeros(shape))
        # neither C- nor Fortran-ordered: reshaping would copy it, losing the writes
        big = np.eye(8)
        with pytest.raises(ValueError, match="strided view"):
            hadamard_conjugate(big[::2, ::2])
        assert np.array_equal(big, np.eye(8))

    def test_conjugation_holds_one_slab_besides_the_matrix(self, rng):
        # a 2^11 float64 matrix is 32 MiB; each pass transforms 1 MiB slabs
        m = rng.standard_normal((1 << 11, 1 << 11))
        assert measured_peak(lambda: hadamard_conjugate(m)) <= 1.5 * (1 << 20)

    @pytest.mark.parametrize("m", range(13))
    def test_matches_dense_walsh_matrix_on_any_dtype_and_layout(self, m):
        h = corelin.hadamard_matrix(m)  # built once per width, not per example
        n = 1 << m

        @settings(max_examples=12, deadline=None)
        @given(
            dtype=st.sampled_from([np.float64, np.complex128]),
            trailing=st.sampled_from([(), (1,), (3,), (2, 2)]),
            layout=st.sampled_from(["contiguous", "strided", "transposed"]),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(dtype, trailing, layout, seed):
            rng = np.random.default_rng(seed)

            def draw(shape):
                x = rng.standard_normal(shape)
                return x + 1j * rng.standard_normal(shape) if dtype is np.complex128 else x

            if layout == "strided":  # every other row of a taller array
                x = draw((2 * n,) + trailing)[::2]
            elif layout == "transposed":  # axes reversed: a Fortran-ordered view
                x = draw(trailing[::-1] + (n,)).T
            else:
                x = draw((n,) + trailing)
            got = corelin.hadamard_transform(x)
            assert got.dtype == dtype and got.shape == x.shape
            assert_matrices_close(got, np.tensordot(h, x, axes=1), 1e-12)

        check()

    @pytest.mark.parametrize("shape", [(), (0,), (3,), (6, 2), (12, 4, 4)])
    def test_non_power_of_two_axis_rejected(self, shape):
        with pytest.raises(RegisterError, match="power of two"):
            corelin.hadamard_transform(np.ones(shape))

    def test_materialized_layers_are_unitary(self):
        for layer in (
            hadamard_all_layer((0, 1)),
            corelin.qft_layer((0, 1, 2)),
            phase_diagonal_layer((0,), 2, [0, 1]),
        ):
            mat = materialize(layer)
            dim = 1 << layer.width
            assert_matrices_close(mat.conj().T @ mat, np.eye(dim), 1e-10)
