import numpy as np
import pytest

import prslab
from prslab import budget, corelin, expand
from prslab.budget import BUDGET_ENV_VAR, DEFAULT_BUDGET_MIB, BudgetError
from prslab.corelin import DensityOperator, PureState
from prslab.moments import MomentSpec, Source, UniformSample
from prslab.prsgen import PrsGenerator, PrsKind

from conftest import constant_function, measured_peak


class TestBudgetMib:
    def test_default_without_override_or_env(self, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        assert budget.budget_mib() == DEFAULT_BUDGET_MIB

    def test_env_and_override(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, " 64 ")
        assert budget.budget_mib() == 64
        with budget.limit(32):
            assert budget.budget_mib() == 32
        with budget.limit(np.int64(16)):
            assert budget.budget_mib() == 16

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5", ""])
    def test_env_value_not_a_positive_whole_number_is_refused(self, monkeypatch, value):
        monkeypatch.setenv(BUDGET_ENV_VAR, value)
        with pytest.raises(BudgetError, match=f"{BUDGET_ENV_VAR} must be a whole number"):
            budget.budget_mib()
        with pytest.raises(BudgetError, match=BUDGET_ENV_VAR):
            budget.check_complex_array(1, "one entry")

    @pytest.mark.parametrize("value", [0, -1, 1.5, 2048.0, True, "abc"])
    def test_override_not_a_positive_whole_number_is_refused(self, value):
        with pytest.raises(BudgetError, match="^the budget limit must be a whole number"), \
                budget.limit(value):
            budget.budget_mib()


class TestSizes:
    @pytest.mark.parametrize("check,message", [
        (lambda: budget.check_enumeration((1 << 64) - 1, "x"), "18446744073709551615 items"),
        (lambda: budget.check_enumeration(1 << 64, "x"), "2^64 items"),
        (lambda: budget.check_enumeration(3 << 70, "x"), "2^71.5849625 items"),
        (lambda: budget.check_power_enumeration(2, 1 << 40, "x"), "2^1099511627776 items"),
        (lambda: budget.check_power_enumeration(2, 1 << 1100, "x"), "2^2^1100 items"),
        (lambda: budget.check_power_enumeration(1 << 100, 1 << 100, "x"), "(2^100)^2^100 items"),
        (lambda: budget.check_complex_array(1 << 4000, "x"), "2^4000 entries"),
    ])
    def test_messages_state_sizes_past_2_to_the_64_as_powers_of_two(self, check, message):
        with pytest.raises(BudgetError) as info:
            check()
        assert message in str(info.value) and len(str(info.value)) < 120

    def test_power_enumeration_within_the_cap_passes(self):
        budget.check_power_enumeration(2, 20, "x")
        budget.check_power_enumeration(1, 1 << 100, "x")
        with pytest.raises(BudgetError, match="2097152 items"):
            budget.check_power_enumeration(2, 21, "x")


class TestLimit:
    def test_previous_value_restored_on_exit_and_on_an_exception(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "64")
        with budget.limit(8):
            assert budget.budget_mib() == 8
        assert budget.budget_mib() == 64
        with pytest.raises(BudgetError, match="budget is 1 MiB"), budget.limit(1):
            budget.check_complex_array(1 << 17, "two MiB")
        assert budget.budget_mib() == 64

    def test_nested_limits(self, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        with budget.limit(100):
            with budget.limit(10):
                assert budget.budget_mib() == 10
                budget.check_complex_array(10 << 16, "ten MiB")
                with pytest.raises(BudgetError):
                    budget.check_complex_array(11 << 16, "eleven MiB")
            assert budget.budget_mib() == 100
        assert budget.budget_mib() == DEFAULT_BUDGET_MIB

    def test_refused_value_leaves_the_setting_unchanged(self):
        with budget.limit(5):
            with pytest.raises(BudgetError, match="budget limit"), budget.limit(0):
                pass
            assert budget.budget_mib() == 5



def _operators(dim):
    """Two real dim x dim density operators."""
    return (DensityOperator(np.eye(dim) / dim),
            DensityOperator(np.diag(np.arange(dim) * (2.0 / (dim * (dim - 1))))))


# the arguments with which each exported function that allocates needs
# more than 1 MiB, built before the measurement
_OVER_ONE_MIB = {
    "partial_trace": lambda: (PureState(10, np.full(1 << 10, 1j / 32)), []),
    "apply_layer": lambda: (PureState(17, np.full(1 << 17, 1j / 2**8.5)),
                            corelin.qft_layer(range(17))),
    "prepare": lambda: (PrsGenerator(PrsKind.GENERAL_PHASE, 16,
                                     constant_function(16, 1 << 16)),),
    "phase_shift_family": lambda: (PrsKind.BINARY_PHASE, 9),
    "symmetric_projector": lambda: (32, 2),
    "trace_distance": lambda: _operators(512),
    "evaluate": lambda: (expand.construction1(constant_function(15), 15, 1),),
    "closed_form_construction1": lambda: (constant_function(15), 15, 1),
    "phase_witness": lambda: (PrsKind.GENERAL_PHASE, 9),
    "check_cond1": lambda: (lambda f: PrsGenerator(PrsKind.BINARY_PHASE, 7, f),
                            prslab.binary_phase_witness(7), 7, []),
    "check_cond2": lambda: (prslab.binary_phase_witness(9),),
    "haar_moment": lambda: (32, 2),
    "ensemble_moment_bruteforce": lambda: (
        MomentSpec(Source.PLAIN, n=5, t=2, function_space=UniformSample(256, 1)),),
    "ensemble_moment_deltapair": lambda: (MomentSpec(Source.PLAIN, n=5, t=2),),
}


@pytest.mark.parametrize("name", sorted(_OVER_ONE_MIB))
def test_every_exported_allocator_refuses_before_it_allocates(name):
    # each checks its own peak before its first large array, so a refusal
    # costs a few Python objects, not a share of what it would have built
    function, args, refused = getattr(prslab, name), _OVER_ONE_MIB[name](), []

    def call_over_budget():
        with pytest.raises(BudgetError), budget.limit(1):
            function(*args)
        refused.append(name)

    assert measured_peak(call_over_budget) < 1 << 20 and refused
