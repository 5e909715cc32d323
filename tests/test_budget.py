import numpy as np
import pytest

from prslab import budget
from prslab.budget import BUDGET_ENV_VAR, DEFAULT_BUDGET_MIB, BudgetError


class TestBudgetMib:
    def test_default_without_override_or_env(self, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        assert budget.budget_mib() == DEFAULT_BUDGET_MIB

    def test_env_and_override(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, " 64 ")
        assert budget.budget_mib() == 64
        assert budget.budget_mib(32) == 32
        assert budget.budget_mib(np.int64(16)) == 16

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5", ""])
    def test_env_value_not_a_positive_whole_number_is_refused(self, monkeypatch, value):
        monkeypatch.setenv(BUDGET_ENV_VAR, value)
        with pytest.raises(BudgetError, match=f"{BUDGET_ENV_VAR} must be a whole number"):
            budget.budget_mib()
        with pytest.raises(BudgetError, match=BUDGET_ENV_VAR):
            budget.check_complex_array(1, "one entry")

    @pytest.mark.parametrize("value", [0, -1, 1.5, 2048.0, True, "abc"])
    def test_override_not_a_positive_whole_number_is_refused(self, value):
        with pytest.raises(BudgetError, match="--budget-mib"):
            budget.budget_mib(value)

