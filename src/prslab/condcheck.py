"""Executable basis-factorization condition for pluggable PRS generators.

Condition 1: the generator's action on any basis state |x> equals a
key-independent unitary U_x applied to its action on |0>.  Condition 2: the
U_x family transpose-aligns, i.e. sum_x |x> (x) U_x^T |y> equals a declared
constant times V|y> (x) W|y> for every basis y.  Witnesses are data, so
third-party generators plug in through a factory plus a table of U_x phase
exponents, one row per basis label x.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np

from . import corelin, prsgen
from .boolfn import BooleanFunction
from .budget import check_complex_array
from .corelin import LayerKind, PureState, UnitaryLayer
from .prsgen import PrsGenerator, PrsKind

DEVIATION_ATOL = 1e-10


@dataclass(frozen=True)
class ConditionWitness:
    """U_x family plus the alignment pair (V, W) and the declared scale.

    The family is one batched phase layer `u` on qubits 0..n-1: row x of its
    (2^n, 2^n) exponent table is the diagonal of U_x.

    The displayed alignment identity is not norm-consistent as written (the
    left side carries an extra sqrt(N) for the shipped witnesses), so the
    scale relating the two sides is an explicit field rather than a silent
    normalization.
    """

    n: int
    u: UnitaryLayer
    v: UnitaryLayer
    w: UnitaryLayer
    scale: float

    def __post_init__(self):
        u, rows = self.u, (1 << self.n,)
        if (u.kind is not LayerKind.PHASE_DIAGONAL or u.target_qubits != tuple(range(self.n))
                or u.batch_shape != rows):
            raise ValueError(f"u must be a phase layer on qubits 0..{self.n - 1} with "
                             f"{rows[0]} table rows, one per label x; got a {u.kind.value} "
                             f"layer on {u.target_qubits} with rows {u.batch_shape}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def _row(u: UnitaryLayer, x: int) -> UnitaryLayer:
    """U_x alone: row x of a batched phase layer as a phase layer."""
    modulus, table = u.parameters
    return corelin.phase_diagonal_layer(u.target_qubits, modulus, table[x])


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


def _witness_peak_entries(n: int) -> int:
    """Upper estimate of `phase_witness`'s peak for either kind, in 16-byte
    units: the (2^n, 2^n) int64 exponent table the broadcast builds in place
    and the layer's read-only copy of it, plus 256 KiB."""
    dim = 1 << n
    return dim * dim + (1 << 14)


def phase_witness(kind: PrsKind, n: int) -> ConditionWitness:
    """The phase generator's own factorization: U_x = row x of
    `prsgen.phase_shift_family`, V = `prsgen.fourier_layer`, W = U_0 (the
    identity) and scale sqrt(N)."""
    check_complex_array(_witness_peak_entries(n), f"condition witness on {n} qubits")
    u = prsgen.phase_shift_family(kind, n)
    v = prsgen.fourier_layer(kind, tuple(range(n)))
    return ConditionWitness(n, u, v, _row(u, 0), math.sqrt(1 << n))


def binary_phase_witness(n: int) -> ConditionWitness:
    """U_x = diag((-1)^{x.y}), V = all-Hadamard, W = identity, scale sqrt(N)."""
    return phase_witness(PrsKind.BINARY_PHASE, n)


def general_phase_witness(n: int) -> ConditionWitness:
    """U_x = diag(omega_N^{x*y}), V = Fourier kernel, W = identity, scale sqrt(N)."""
    return phase_witness(PrsKind.GENERAL_PHASE, n)


GeneratorFactory = Callable[[BooleanFunction], PrsGenerator]


def _cond1_peak_entries(dim: int) -> int:
    """Upper estimate of `check_cond1`'s peak, in 16-byte units: four (dim,
    dim) complex128 arrays (the generator's matrix beside the prepared rows,
    the family's phases and the rows they give), plus 256 KiB of numpy
    casting buffers and Python objects."""
    return 4 * dim * dim + (1 << 14)


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
) -> ConditionReport:
    """Verify gen|x> == U_x gen|0> for every sampled function and every x.

    Per function, one identity over all x: column x of the generator's matrix
    (its two layers, as `prsgen.apply_to_register` applies them) equals row x
    of the family layer applied to `prsgen.prepare(gen)` copied into one row
    per label x, which is U_x gen|0>.  Records, per label x, the worst
    deviation over the sample; passes iff every one is within DEVIATION_ATOL.
    """
    if n != witness.n:
        raise ValueError(f"checking {n} qubits against a witness on {witness.n}")
    dim = 1 << n
    check_complex_array(_cond1_peak_entries(dim), f"condition 1 on {n} qubits")
    targets = tuple(range(n))
    worst = None
    for f in functions:
        gen = gen_factory(f)
        gen_matrix = (corelin.materialize(prsgen.phase_layer(gen, targets))
                      @ corelin.materialize(prsgen.fourier_layer(gen.kind, targets)))
        prepared = np.broadcast_to(prsgen.prepare(gen).amplitudes, (dim, dim))
        rhs = corelin.apply_layer(PureState(n, prepared), witness.u).amplitudes
        dev = np.abs(gen_matrix.T - rhs).max(axis=1)
        del gen_matrix, rhs  # the next function's layers need their room
        worst = dev if worst is None else np.maximum(worst, dev)
    if worst is None:
        raise ValueError("empty function sample")
    return _report(1, witness, worst)


def check_cond2(witness: ConditionWitness) -> ConditionReport:
    """Verify sum_x |x> (x) U_x^T |y> == scale * V|y> (x) W|y> for every basis y.

    Block x of the left side is row y of U_x, so the identity says row y of
    U_x equals scale * V[x, y] * W[:, y]; one U_x is materialized at a time
    and checked for every y at once.  Basis-complete: any single failing y
    fails the report and is named in it.
    """
    n, dim = witness.n, 1 << witness.n
    check_complex_array(_cond2_peak_entries(dim), f"condition 2 on {n} qubits")
    v_mat = corelin.materialize(witness.v)
    w_rows = corelin.materialize(witness.w).T
    worst = np.zeros(dim)
    for x in range(dim):
        rhs = witness.scale * (v_mat[x][:, None] * w_rows)
        np.maximum(worst, np.abs(corelin.materialize(_row(witness.u, x)) - rhs).max(axis=1),
                   out=worst)
    return _report(2, witness, worst)
