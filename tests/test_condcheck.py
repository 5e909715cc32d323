import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prslab import boolfn, condcheck, corelin, prsgen
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


def binary_factory(n):
    return lambda f: PrsGenerator(PrsKind.BINARY_PHASE, n, f)


def general_factory(n):
    return lambda f: PrsGenerator(PrsKind.GENERAL_PHASE, n, f)


def measured_peak(call):
    """Peak bytes tracemalloc sees while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sabotage_u_family(witness, n):
    """U_x = identity for x != 0: breaks the basis factorization."""
    identity = corelin.permutation_layer(tuple(range(n)), range(1 << n))
    family = {x: (witness.u_family[x] if x == 0 else identity) for x in range(1 << n)}
    return ConditionWitness(n, family, witness.v, witness.w, witness.scale)


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
        witness = ConditionWitness(n, good.u_family, good.v, good.w, scale=1.0)
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
        family = {}
        for x in range(4):
            modulus, exponents = good.u_family[x].parameters
            tweaked = list(exponents)
            tweaked[broken_y] = (tweaked[broken_y] + 1) % 2
            family[x] = corelin.phase_diagonal_layer((0, 1), modulus, tweaked)
        witness = ConditionWitness(n, family, good.v, good.w, good.scale)
        report = check_cond2(witness)
        assert not report.passed
        assert [f.location for f in report.failures] == [broken_y]


class TestValidationAndReports:
    def test_family_must_cover_all_labels(self):
        good = binary_phase_witness(2)
        family = dict(good.u_family)
        del family[3]
        with pytest.raises(ValueError, match="misses"):
            ConditionWitness(2, family, good.v, good.w, good.scale)

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
            lhs = prsgen.apply_to_state(gen, corelin.basis_state(n, x))
            rhs = corelin.apply_layer(base, witness.u_family[x])
            worst[x] = max(worst[x], float(np.max(np.abs(lhs.amplitudes - rhs.amplitudes))))
    return worst


def reference_cond2(witness):
    """Worst deviation per label y: the stacked vector sum_x |x> (x) U_x^T |y>."""
    dim = 1 << witness.n
    u_mats = [corelin.materialize(witness.u_family[x]) for x in range(dim)]
    v_mat = corelin.materialize(witness.v)
    w_mat = corelin.materialize(witness.w)
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
    modulus, exponents = witness.u_family[x].parameters
    tweaked = list(exponents)
    tweaked[y] = (tweaked[y] + shift) % modulus
    family = dict(witness.u_family)
    family[x] = corelin.phase_diagonal_layer(tuple(range(witness.n)), modulus, tweaked)
    return ConditionWitness(witness.n, family, witness.v, witness.w, witness.scale)


def break_label(witness, y):
    """Flip the phase every U_x applies at label y: only that y breaks cond2."""
    for x in range(1 << witness.n):
        modulus = witness.u_family[x].parameters[0]
        witness = break_entry(witness, x, y, modulus // 2)
    return witness


FACTORIES = {PrsKind.BINARY_PHASE: binary_factory, PrsKind.GENERAL_PHASE: general_factory}
CONTROLS = {
    "shipped": lambda w, n: w,
    "identity_family": sabotage_u_family,
    "unscaled": lambda w, n: ConditionWitness(n, w.u_family, w.v, w.w, scale=1.0),
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phase_witness_is_the_generators_own_factorization(n):
    targets = tuple(range(n))
    expected_v = {PrsKind.BINARY_PHASE: corelin.hadamard_all_layer(targets),
                  PrsKind.GENERAL_PHASE: corelin.qft_layer(targets)}
    for kind, builder in ((PrsKind.BINARY_PHASE, binary_phase_witness),
                          (PrsKind.GENERAL_PHASE, general_phase_witness)):
        witness = phase_witness(kind, n)
        assert builder(n) == witness
        assert witness.n == n and witness.scale == math.sqrt(1 << n)
        assert witness.v == expected_v[kind]
        for x in range(1 << n):
            assert witness.u_family[x] == prsgen.phase_shift_unitary(kind, n, x)
        assert np.array_equal(corelin.materialize(witness.w), np.eye(1 << n))


def test_register_width_must_match_the_witness():
    with pytest.raises(ValueError, match="witness on 2"):
        check_cond1(binary_factory(3), binary_phase_witness(2), 3, boolfn.enumerate_all(3, 2))


@pytest.mark.parametrize("n", [6, 7])
def test_budget_estimates_cover_measured_peaks(n):
    witness = general_phase_witness(n)
    functions = sample_functions(PrsKind.GENERAL_PHASE, n, 3, seed=0)
    dim = 1 << n
    measured1 = measured_peak(lambda: check_cond1(general_factory(n), witness, n, functions))
    measured2 = measured_peak(lambda: check_cond2(witness))
    assert measured1 <= 16 * condcheck._cond1_peak_entries(dim) <= 2 * measured1
    assert measured2 <= 16 * condcheck._cond2_peak_entries(dim) <= 2 * measured2


def test_checks_refuse_to_exceed_the_budget():
    witness = binary_phase_witness(7)  # U_x family: 128^3 entries, 32 MiB
    with pytest.raises(BudgetError, match="condition 1 on 7 qubits"):
        check_cond1(binary_factory(7), witness, 7, [], budget_override=1)
    with pytest.raises(BudgetError, match="condition 2 on 9 qubits"):
        check_cond2(binary_phase_witness(9), budget_override=1)
