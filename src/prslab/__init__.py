"""Exact desk-scale simulation and verification of phase-state ensembles,
their length-expansion circuits, and the counting objects behind them."""

from .boolfn import BooleanFunction, PrfKey, enumerate_all, prf_eval
from .budget import BudgetError
from .combinatorics import (
    dist_count,
    in_dist_set,
    in_good_set,
    perm_state_norm_sq,
    recombine,
)
from .condcheck import (
    ConditionWitness,
    binary_phase_witness,
    check_cond1,
    check_cond2,
    general_phase_witness,
    phase_witness,
)
from .corelin import (
    DensityOperator,
    PureState,
    UnitaryLayer,
    apply_layer,
    partial_trace,
    symmetric_projector,
    trace_distance,
)
from .expand import (
    ConstructionSpec,
    closed_form_construction1,
    construction1,
    construction2,
    construction3,
    evaluate,
)
from .moments import (
    Method,
    MomentReport,
    MomentSpec,
    Source,
    compare_to_haar,
    ensemble_moment_bruteforce,
    ensemble_moment_deltapair,
    haar_moment,
)
from .prsgen import PrsGenerator, PrsKind, apply_to_state, phase_shift_family, prepare

__all__ = [name for name in dir() if not name.startswith("_")]
