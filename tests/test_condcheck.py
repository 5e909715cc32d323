import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prslab import boolfn, budget, condcheck, corelin, prsgen
from prslab.budget import BudgetError
from prslab.condcheck import (
    DEVIATION_ATOL,
    ConditionWitness,
    binary_phase_witness,
    check_cond1,
    check_cond2,
    general_phase_witness,
    phase_witness,
)
from prslab.prsgen import PrsGenerator, PrsKind

from conftest import basis_state, materialize, measured_peak


def binary_factory(n):
    return lambda f: PrsGenerator(PrsKind.BINARY_PHASE, n, f)


def general_factory(n):
    return lambda f: PrsGenerator(PrsKind.GENERAL_PHASE, n, f)


def u_x(witness, x):
    """U_x alone, built from row x of the witness's exponent table."""
    modulus, table = witness.u.parameters
    return corelin.phase_diagonal_layer(tuple(range(witness.n)), modulus, table[x])


def with_table(witness, table):
    """The witness with row x of `table` as the exponents of U_x."""
    modulus = witness.u.parameters[0]
    u = corelin.phase_diagonal_layer(witness.u.target_qubits, modulus, table)
    return ConditionWitness(witness.n, u, witness.v, witness.w, witness.scale)


def sabotage_u_family(witness, n):
    """U_x = identity for x != 0: breaks the basis factorization."""
    table = witness.u.parameters[1].copy()
    table[1:] = 0
    return with_table(witness, table)


@pytest.mark.parametrize("n", [1, 2, 3])
class TestShippedWitnesses:
    def test_binary_passes_both_conditions(self, n):
        witness = binary_phase_witness(n)
        r1 = check_cond1(binary_factory(n), witness, n, boolfn.enumerate_all(n, 2))
        r2 = check_cond2(witness)
        assert r1.passed and r1.max_deviation <= 1e-10
        assert r2.passed and r2.max_deviation <= 1e-10

    def test_general_passes_both_conditions(self, n, rng):
        witness = general_phase_witness(n)
        functions = [boolfn.random_function(n, 1 << n, rng) for _ in range(64)]
        r1 = check_cond1(general_factory(n), witness, n, functions)
        r2 = check_cond2(witness)
        assert r1.passed and r1.max_deviation <= 1e-10
        assert r2.passed and r2.max_deviation <= 1e-10


class TestNegativeControls:
    def test_identity_family_fails_cond1_with_located_counterexample(self):
        n = 2
        witness = sabotage_u_family(binary_phase_witness(n), n)
        report = check_cond1(binary_factory(n), witness, n, boolfn.enumerate_all(n, 2))
        assert not report.passed
        locations = {f.location for f in report.failures}
        assert locations and 0 not in locations
        assert all(f.max_deviation > 1e-10 for f in report.failures)

    def test_missing_scale_fails_cond2(self):
        n = 2
        good = binary_phase_witness(n)
        witness = ConditionWitness(n, good.u, good.v, good.w, scale=1.0)
        report = check_cond2(witness)
        assert not report.passed
        assert report.failures  # every y off by the sqrt(N) factor
        assert {f.location for f in report.failures} == set(range(4))

    def test_single_broken_basis_label_is_named(self):
        # flip the sign every U_x applies at one fixed label: exactly that
        # y breaks, and the report must name it
        n = 2
        good = binary_phase_witness(n)
        broken_y = 2
        table = good.u.parameters[1].copy()
        table[:, broken_y] = (table[:, broken_y] + 1) % 2
        witness = with_table(good, table)
        report = check_cond2(witness)
        assert not report.passed
        assert [f.location for f in report.failures] == [broken_y]


class TestValidationAndReports:
    @pytest.mark.parametrize("make_u", [
        lambda modulus, table: corelin.phase_diagonal_layer((0, 1), modulus, table[:3]),
        lambda modulus, table: corelin.phase_diagonal_layer((0, 1), modulus, table[1]),
        lambda modulus, table: corelin.phase_diagonal_layer((1, 2), modulus, table),
        lambda modulus, table: corelin.phase_diagonal_layer((0, 1, 2), modulus,
                                                            np.zeros((4, 8), dtype=int)),
        lambda modulus, table: corelin.qft_layer((0, 1)),
    ], ids=["missing-row", "one-row", "target-offset", "target-width", "not-a-phase-layer"])
    def test_family_must_be_one_phase_row_per_label(self, make_u):
        good = binary_phase_witness(2)
        with pytest.raises(ValueError, match=r"u must be a phase layer on qubits 0\.\.1 "
                                             r"with 4 table rows"):
            ConditionWitness(2, make_u(*good.u.parameters), good.v, good.w, good.scale)

    @pytest.mark.parametrize("field", ["v", "w"])
    @pytest.mark.parametrize("layer", [
        corelin.hadamard_all_layer((1, 2)),
        corelin.hadamard_all_layer((0,)),
        corelin.qft_layer((0, 1, 2)),
        corelin.phase_diagonal_layer((0, 1), 2, np.zeros((4, 4), dtype=int)),
    ], ids=["target-offset", "narrow", "wide", "batched"])
    def test_alignment_pair_must_be_unbatched_on_the_register(self, field, layer):
        good = binary_phase_witness(2)
        pair = {"v": good.v, "w": good.w, field: layer}
        with pytest.raises(ValueError, match=rf"{field} must be an unbatched layer on qubits 0\.\.1"):
            ConditionWitness(2, good.u, pair["v"], pair["w"], good.scale)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -2.0])
    def test_scale_must_be_positive_and_finite(self, scale):
        # a NaN deviation never exceeds the tolerance, so a NaN or infinite
        # scale would pass condition 2
        good = binary_phase_witness(2)
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            ConditionWitness(2, good.u, good.v, good.w, scale)

    @pytest.mark.parametrize("n", [0, -1])
    def test_witness_refuses_fewer_than_one_qubit(self, n):
        for kind in PrsKind:
            with pytest.raises(ValueError, match=f"needs n >= 1 qubits, got n={n}"):
                phase_witness(kind, n)

    def test_a_sample_of_mixed_moduli_is_refused(self, rng):
        witness = general_phase_witness(2)
        wide, narrow = boolfn.random_function(2, 4, rng), boolfn.random_function(2, 2, rng)
        for functions in ([wide, narrow], [narrow, wide]):
            with pytest.raises(ValueError, match=r"one \(n, m\)"):
                check_cond1(general_factory(2), witness, 2, iter(functions))

    def test_empty_function_sample_rejected(self):
        witness = binary_phase_witness(1)
        with pytest.raises(ValueError, match="empty"):
            check_cond1(binary_factory(1), witness, 1, [])

    def test_report_json_schema(self):
        witness = binary_phase_witness(2)
        payload = json.loads(check_cond2(witness).to_json())
        assert payload["condition"] == 2
        assert payload["n"] == 2
        assert payload["passed"] is True
        assert payload["failures"] == []
        assert payload["scale"] == pytest.approx(2.0)

    def test_third_party_generator_plugs_in(self):
        # a generator given only as a factory closure still checks out
        n = 2
        table = (0, 1, 1, 1)
        factory = lambda f: PrsGenerator(PrsKind.BINARY_PHASE, n, f)
        witness = binary_phase_witness(n)
        report = check_cond1(
            factory, witness, n, [boolfn.BooleanFunction(n, 2, table)]
        )
        assert report.passed


# --- the matrix identities against the per-(function, label) loops -----------

def reference_cond1(gen_factory, witness, n, functions):
    """Worst deviation per label x: three layer applications per (function, x)."""
    worst = {x: 0.0 for x in range(1 << n)}
    for f in functions:
        gen = gen_factory(f)
        base = prsgen.prepare(gen)
        for x in range(1 << n):
            lhs = prsgen.apply_to_register(gen, basis_state(n, x), 0)
            rhs = corelin.apply_layer(base, u_x(witness, x))
            worst[x] = max(worst[x], float(np.max(np.abs(lhs.amplitudes - rhs.amplitudes))))
    return worst


def reference_cond2(witness):
    """Worst deviation per label y: the stacked vector sum_x |x> (x) U_x^T |y>."""
    dim = 1 << witness.n
    u_mats = [materialize(u_x(witness, x)) for x in range(dim)]
    v_mat = materialize(witness.v)
    w_mat = materialize(witness.w)
    worst = {}
    for y in range(dim):
        lhs = np.zeros(dim * dim, dtype=np.complex128)
        for x in range(dim):
            lhs[x * dim : (x + 1) * dim] = u_mats[x].T[:, y]
        rhs = witness.scale * np.kron(v_mat[:, y], w_mat[:, y])
        worst[y] = float(np.max(np.abs(lhs - rhs)))
    return worst


def assert_agrees(report, worst):
    """Same pass/fail, the same failure locations, deviations within 1e-15."""
    failing = [k for k, dev in worst.items() if dev > DEVIATION_ATOL]
    assert report.passed == (not failing)
    assert [f.location for f in report.failures] == failing
    for f in report.failures:
        assert abs(f.max_deviation - worst[f.location]) <= 1e-15
    assert abs(report.max_deviation - max(worst.values())) <= 1e-15


def sample_functions(kind, n, count, seed):
    rng = np.random.default_rng(seed)
    return [boolfn.random_function(n, kind.range_modulus(n), rng) for _ in range(count)]


def break_entry(witness, x, y, shift):
    """Shift the phase exponent of U_x at label y by `shift`."""
    modulus, table = witness.u.parameters
    table = table.copy()
    table[x, y] = (table[x, y] + shift) % modulus
    return with_table(witness, table)


def break_label(witness, y):
    """Flip the phase every U_x applies at label y: only that y breaks cond2."""
    modulus, table = witness.u.parameters
    table = table.copy()
    table[:, y] = (table[:, y] + modulus // 2) % modulus
    return with_table(witness, table)


FACTORIES = {PrsKind.BINARY_PHASE: binary_factory, PrsKind.GENERAL_PHASE: general_factory}
CONTROLS = {
    "shipped": lambda w, n: w,
    "identity_family": sabotage_u_family,
    "unscaled": lambda w, n: ConditionWitness(n, w.u, w.v, w.w, scale=1.0),
    "broken_label": lambda w, n: break_label(w, (1 << n) - 1),
}


@pytest.mark.parametrize("control", sorted(CONTROLS))
@pytest.mark.parametrize("kind", list(PrsKind))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identities_agree_with_the_label_loops(n, kind, control):
    witness = CONTROLS[control](phase_witness(kind, n), n)
    functions = sample_functions(kind, n, 6, seed=n)
    factory = FACTORIES[kind](n)
    assert_agrees(check_cond1(factory, witness, n, functions),
                  reference_cond1(factory, witness, n, functions))
    assert_agrees(check_cond2(witness), reference_cond2(witness))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_broken_entry_agrees_with_the_label_loops(data):
    kind = data.draw(st.sampled_from(list(PrsKind)))
    n = data.draw(st.integers(1, 4))
    dim = 1 << n
    x, y = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
    shift = data.draw(st.integers(1, kind.range_modulus(n) - 1))
    witness = break_entry(phase_witness(kind, n), x, y, shift)
    functions = sample_functions(kind, n, 3, seed=data.draw(st.integers(0, 99)))
    factory = FACTORIES[kind](n)
    report1 = check_cond1(factory, witness, n, functions)
    report2 = check_cond2(witness)
    assert_agrees(report1, reference_cond1(factory, witness, n, functions))
    assert_agrees(report2, reference_cond2(witness))
    assert [f.location for f in report1.failures] == [x]
    assert [f.location for f in report2.failures] == [y]


def test_one_shot_function_stream_is_checked():
    report = check_cond1(binary_factory(2), binary_phase_witness(2), 2,
                         boolfn.enumerate_all(2, 2))
    assert report.passed
    assert_agrees(report, reference_cond1(binary_factory(2), binary_phase_witness(2), 2,
                                          boolfn.enumerate_all(2, 2)))


@pytest.mark.parametrize("control", sorted(CONTROLS))
@pytest.mark.parametrize("kind", list(PrsKind))
def test_a_stream_over_several_chunks_agrees_with_the_label_loop(kind, control, monkeypatch):
    # two functions per batch at n = 5: the 7 functions are read as 2 + 2 + 2 + 1
    n = 5
    monkeypatch.setattr(condcheck, "_CHUNK_ENTRIES", 2 << (2 * n))
    batches, stack = [], boolfn.stack

    def counted_stack(fns):
        batches.append(fns)
        return stack(fns)

    monkeypatch.setattr(boolfn, "stack", counted_stack)
    witness = CONTROLS[control](phase_witness(kind, n), n)
    functions = sample_functions(kind, n, 7, seed=5)
    factory = FACTORIES[kind](n)
    report = check_cond1(factory, witness, n, iter(functions))
    assert len(batches) == 4
    assert_agrees(report, reference_cond1(factory, witness, n, functions))


def same_layer(a, b):
    """Layers compare by identity; this compares kind, targets and payload."""
    if (a.kind, a.target_qubits) != (b.kind, b.target_qubits):
        return False
    if a.kind is corelin.LayerKind.PHASE_DIAGONAL:
        return a.parameters[0] == b.parameters[0] and np.array_equal(a.parameters[1],
                                                                     b.parameters[1])
    return a.parameters is None and b.parameters is None  # the Fourier layers


def same_witness(a, b):
    return (a.n == b.n and a.scale == b.scale and same_layer(a.u, b.u)
            and same_layer(a.v, b.v) and same_layer(a.w, b.w))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phase_witness_is_the_generators_own_factorization(n):
    targets = tuple(range(n))
    expected_v = {PrsKind.BINARY_PHASE: corelin.hadamard_all_layer(targets),
                  PrsKind.GENERAL_PHASE: corelin.qft_layer(targets)}
    for kind, builder in ((PrsKind.BINARY_PHASE, binary_phase_witness),
                          (PrsKind.GENERAL_PHASE, general_phase_witness)):
        witness = phase_witness(kind, n)
        assert same_witness(builder(n), witness)
        assert witness.n == n and witness.scale == math.sqrt(1 << n)
        assert same_layer(witness.v, expected_v[kind])
        assert same_layer(witness.u, prsgen.phase_shift_family(kind, n))
        assert same_layer(witness.w, u_x(witness, 0))
        assert np.array_equal(materialize(witness.w), np.eye(1 << n))


def test_register_width_must_match_the_witness():
    with pytest.raises(ValueError, match="witness on 2"):
        check_cond1(binary_factory(3), binary_phase_witness(2), 3, boolfn.enumerate_all(3, 2))


@pytest.mark.parametrize("n", [6, 7, 9])
def test_budget_estimates_cover_measured_peaks(n):
    witness = general_phase_witness(n)
    functions = sample_functions(PrsKind.GENERAL_PHASE, n, 3, seed=0)
    dim = 1 << n
    measured1 = measured_peak(lambda: check_cond1(general_factory(n), witness, n, functions))
    measured2 = measured_peak(lambda: check_cond2(witness))
    assert measured1 <= 16 * condcheck._cond1_peak_entries(dim) <= 2 * measured1
    assert measured2 <= 16 * condcheck._cond2_peak_entries(dim) <= 2 * measured2


@pytest.mark.parametrize("kind", list(PrsKind))
@pytest.mark.parametrize("n", [8, 10])
def test_witness_budget_estimate_covers_measured_peak(kind, n):
    # both kinds hold 16 bytes per exponent: the int64 table the broadcast
    # builds in place and the layer's read-only copy of it
    measured = measured_peak(lambda: condcheck.phase_witness(kind, n))
    assert measured <= 16 * prsgen._family_peak_entries(n) <= 2 * measured


def test_witness_refuses_to_exceed_the_budget():
    with pytest.raises(BudgetError, match="U_x phase family on 10 qubits"), budget.limit(1):
        condcheck.phase_witness(PrsKind.GENERAL_PHASE, 10)


def test_checks_refuse_to_exceed_the_budget():
    witness = binary_phase_witness(7)  # four 128 x 128 complex arrays: 1 MiB
    with pytest.raises(BudgetError, match="condition 1 on 7 qubits"), budget.limit(1):
        check_cond1(binary_factory(7), witness, 7, [])
    wide = binary_phase_witness(9)
    with pytest.raises(BudgetError, match="condition 2 on 9 qubits"), budget.limit(1):
        check_cond2(wide)
