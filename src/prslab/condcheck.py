"""Executable basis-factorization condition for pluggable PRS generators.

Condition 1: the generator's action on any basis state |x> equals a
key-independent unitary U_x applied to its action on |0>.  Condition 2: the
U_x family transpose-aligns, i.e. sum_x |x> (x) U_x^T |y> equals a declared
constant times V|y> (x) W|y> for every basis y.  Witnesses are data, so
third-party generators plug in through a factory plus a U_x table.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from . import corelin, prsgen
from .boolfn import BooleanFunction
from .budget import check_complex_array
from .corelin import UnitaryLayer
from .prsgen import PrsGenerator, PrsKind

DEVIATION_ATOL = 1e-10


@dataclass(frozen=True)
class ConditionWitness:
    """U_x family plus the alignment pair (V, W) and the declared scale.

    The displayed alignment identity is not norm-consistent as written (the
    left side carries an extra sqrt(N) for the shipped witnesses), so the
    scale relating the two sides is an explicit field rather than a silent
    normalization.
    """

    n: int
    u_family: Mapping[int, UnitaryLayer]
    v: UnitaryLayer
    w: UnitaryLayer
    scale: float

    def __post_init__(self):
        missing = [x for x in range(1 << self.n) if x not in self.u_family]
        if missing:
            raise ValueError(f"u_family misses basis labels {missing[:4]}...")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class ConditionFailure:
    location: int          # basis label x (condition 1) or y (condition 2)
    max_deviation: float


@dataclass(frozen=True)
class ConditionReport:
    condition: int
    n: int
    passed: bool
    failures: tuple[ConditionFailure, ...]
    scale: float
    max_deviation: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def phase_witness(kind: PrsKind, n: int) -> ConditionWitness:
    """The phase generator's own factorization: U_x = `prsgen.phase_shift_unitary`,
    V = `prsgen.fourier_layer`, W = U_0 (the identity) and scale sqrt(N)."""
    family = {x: prsgen.phase_shift_unitary(kind, n, x) for x in range(1 << n)}
    v = prsgen.fourier_layer(kind, tuple(range(n)))
    return ConditionWitness(n, family, v, family[0], math.sqrt(1 << n))


def binary_phase_witness(n: int) -> ConditionWitness:
    """U_x = diag((-1)^{x.y}), V = all-Hadamard, W = identity, scale sqrt(N)."""
    return phase_witness(PrsKind.BINARY_PHASE, n)


def general_phase_witness(n: int) -> ConditionWitness:
    """U_x = diag(omega_N^{x*y}), V = Fourier kernel, W = identity, scale sqrt(N)."""
    return phase_witness(PrsKind.GENERAL_PHASE, n)


GeneratorFactory = Callable[[BooleanFunction], PrsGenerator]


def _cond1_peak_entries(dim: int) -> int:
    """Upper estimate of `check_cond1`'s peak, in 16-byte units: the U_x
    family, then per function the two materialized layers, their product
    (the generator's matrix) and the compared (dim, dim) arrays, plus
    256 KiB of numpy casting buffers and Python objects."""
    return dim**3 + 5 * dim * dim + (1 << 14)


def _cond2_peak_entries(dim: int) -> int:
    """Upper estimate of `check_cond2`'s peak, in 16-byte units: V, W and,
    per label x, the right side, one materialized U_x and the identity it
    is built from or their difference, plus 256 KiB as for condition 1."""
    return 5 * dim * dim + (1 << 14)


def _report(condition: int, witness: ConditionWitness, worst: np.ndarray) -> ConditionReport:
    """Fail at every label whose worst deviation exceeds DEVIATION_ATOL."""
    failures = tuple(
        ConditionFailure(int(k), float(worst[k])) for k in np.flatnonzero(worst > DEVIATION_ATOL)
    )
    return ConditionReport(
        condition, witness.n, not failures, failures, witness.scale, float(worst.max())
    )


def check_cond1(
    gen_factory: GeneratorFactory,
    witness: ConditionWitness,
    n: int,
    functions: Iterable[BooleanFunction],
    budget_override: int | None = None,
) -> ConditionReport:
    """Verify gen|x> == U_x gen|0> for every sampled function and every x.

    Per function, one identity over all x: column x of the generator's matrix
    (its two layers, as `prsgen.apply_to_register` applies them) equals U_x,
    from the family built once per call, applied to `prsgen.prepare(gen)`.
    Records, per label x, the worst deviation over the sample; passes iff
    every one is within DEVIATION_ATOL.
    """
    if n != witness.n:
        raise ValueError(f"checking {n} qubits against a witness on {witness.n}")
    dim = 1 << n
    check_complex_array(_cond1_peak_entries(dim), f"condition 1 on {n} qubits", budget_override)
    targets = tuple(range(n))
    family = np.empty((dim, dim, dim), dtype=np.complex128)
    for x in range(dim):
        family[x] = corelin.materialize(witness.u_family[x])
    worst = None
    for f in functions:
        gen = gen_factory(f)
        gen_matrix = (corelin.materialize(prsgen.phase_layer(gen, targets))
                      @ corelin.materialize(prsgen.fourier_layer(gen.kind, targets)))
        rhs = family @ prsgen.prepare(gen, budget_override).amplitudes
        dev = np.abs(gen_matrix.T - rhs).max(axis=1)
        del gen_matrix, rhs  # the next function's layers need their room
        worst = dev if worst is None else np.maximum(worst, dev)
    if worst is None:
        raise ValueError("empty function sample")
    return _report(1, witness, worst)


def check_cond2(witness: ConditionWitness, budget_override: int | None = None) -> ConditionReport:
    """Verify sum_x |x> (x) U_x^T |y> == scale * V|y> (x) W|y> for every basis y.

    Block x of the left side is row y of U_x, so the identity says row y of
    U_x equals scale * V[x, y] * W[:, y]; one U_x is materialized at a time
    and checked for every y at once.  Basis-complete: any single failing y
    fails the report and is named in it.
    """
    n, dim = witness.n, 1 << witness.n
    check_complex_array(_cond2_peak_entries(dim), f"condition 2 on {n} qubits", budget_override)
    v_mat = corelin.materialize(witness.v)
    w_rows = corelin.materialize(witness.w).T
    worst = np.zeros(dim)
    for x in range(dim):
        rhs = witness.scale * (v_mat[x][:, None] * w_rows)
        np.maximum(worst, np.abs(corelin.materialize(witness.u_family[x]) - rhs).max(axis=1),
                   out=worst)
    return _report(2, witness, worst)
