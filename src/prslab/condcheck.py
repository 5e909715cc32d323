"""Executable basis-factorization condition for pluggable PRS generators.

Condition 1: the generator's action on any basis state |x> equals a
key-independent unitary U_x applied to its action on |0>.  Condition 2: the
U_x family transpose-aligns, i.e. sum_x |x> (x) U_x^T |y> equals a declared
constant times V|y> (x) W|y> for every basis y.  Witnesses are data, so
third-party generators plug in through a factory plus a table of U_x phase
exponents, one row per basis label x.  The checks read the family's phases
from that table through `corelin`, the one map from exponents to phases,
and the shipped witnesses take the table from `prsgen.phase_shift_family`,
which checks its own peak.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np

from . import boolfn, corelin, prsgen
from .boolfn import BooleanFunction
from .budget import check_complex_array
from .corelin import LayerKind, PureState, UnitaryLayer
from .prsgen import PrsGenerator, PrsKind

DEVIATION_ATOL = 1e-10
_CHUNK_ENTRIES = 1 << 12  # (f, x, y) entries one condition 1 batch holds


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
        for name, layer in (("v", self.v), ("w", self.w)):
            if layer.target_qubits != u.target_qubits or layer.batch_shape:
                raise ValueError(f"{name} must be an unbatched layer on qubits 0..{self.n - 1}, "
                                 f"got one on {layer.target_qubits} with rows {layer.batch_shape}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


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
    """The phase generator's own factorization: U_x = row x of
    `prsgen.phase_shift_family` (which checks its peak), V = `prsgen.fourier_layer`,
    W = U_0 (the identity) and scale sqrt(N), on n >= 1 qubits."""
    if n < 1:
        raise ValueError(f"a condition witness needs n >= 1 qubits, got n={n}")
    u = prsgen.phase_shift_family(kind, n)
    w = corelin.phase_diagonal_layer(range(n), u.parameters[0], u.parameters[1][0])
    return ConditionWitness(n, u, prsgen.fourier_layer(kind, range(n)), w, math.sqrt(1 << n))


def binary_phase_witness(n: int) -> ConditionWitness:
    """U_x = diag((-1)^{x.y}), V = all-Hadamard, W = identity, scale sqrt(N)."""
    return phase_witness(PrsKind.BINARY_PHASE, n)


def general_phase_witness(n: int) -> ConditionWitness:
    """U_x = diag(omega_N^{x*y}), V = Fourier kernel, W = identity, scale sqrt(N)."""
    return phase_witness(PrsKind.GENERAL_PHASE, n)


GeneratorFactory = Callable[[BooleanFunction], PrsGenerator]


def _cond1_peak_entries(dim: int) -> int:
    """Upper estimate of `check_cond1`'s peak, in 16-byte units: the family's
    phases and, for one chunk, the int64 tables, float64 basis rows and
    the generator run's rows, phase diagonal and result, plus 256 KiB of
    numpy casting buffers and Python objects."""
    return 4 * max(dim * dim, _CHUNK_ENTRIES) + dim * dim + (1 << 14)


def _cond2_peak_entries(dim: int) -> int:
    """Upper estimate of `check_cond2`'s peak, in 16-byte units: the family's
    phases, the rows of V, of W and of the right side, the float64
    basis rows and absolute deviations, plus 256 KiB as for condition 1."""
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

    The functions are read in chunks of _CHUNK_ENTRIES (f, x, y) entries,
    each one batch with every table repeated once per label x, so that one
    generator run on the identity rows gives row (f, x) = gen_f|x>, compared
    with `prsgen.prepare(gen)` times the diagonal of U_x.  Records, per label
    x, the worst deviation; passes iff every one is within DEVIATION_ATOL.
    """
    if n != witness.n:
        raise ValueError(f"checking {n} qubits against a witness on {witness.n}")
    dim = 1 << n
    check_complex_array(_cond1_peak_entries(dim), f"condition 1 on {n} qubits")
    phases = corelin._phases(*witness.u.parameters)  # row x: the diagonal of U_x
    functions, rows, worst = iter(functions), max(1, _CHUNK_ENTRIES // (dim * dim)), None
    while chunk := list(itertools.islice(functions, rows)):
        gen = gen_factory(boolfn.stack(f for f in chunk for _ in range(dim)))
        basis = PureState(n, np.tile(np.eye(dim), (len(chunk), 1)))  # row (f, x) is |x>
        lhs = prsgen.apply_to_register(gen, basis, 0).amplitudes
        rhs = prsgen.prepare(gen).amplitudes.reshape(-1, dim, dim) * phases
        rhs -= lhs.reshape(rhs.shape)
        dev = np.abs(rhs).max(axis=(0, 2))
        del gen, basis, lhs, rhs  # the next chunk's arrays need their room
        worst = dev if worst is None else np.maximum(worst, dev)
    if worst is None:
        raise ValueError("empty function sample")
    return _report(1, witness, worst)


def check_cond2(witness: ConditionWitness) -> ConditionReport:
    """Verify sum_x |x> (x) U_x^T |y> == scale * V|y> (x) W|y> for every basis y.

    U_x is diagonal, so the left side is (sum_x phase[x, y] |x>) (x) |y>:
    entry (x, y) is compared with scale <x|V|y> <y|W|y>, and the zero
    entries (x, z != y) with scale <x|V|y> <z|W|y>.  Basis-complete: any
    failing y fails the report and is named in it.
    """
    n, dim = witness.n, 1 << witness.n
    check_complex_array(_cond2_peak_entries(dim), f"condition 2 on {n} qubits")
    phases = corelin._phases(*witness.u.parameters)  # row x: the diagonal of U_x
    basis = PureState(n, np.eye(dim))
    w_rows = corelin.apply_layer(basis, witness.w).amplitudes  # entry (y, z) is <z|W|y>
    off = np.abs(w_rows - np.diagflat(w_rows.diagonal())).max(axis=1)  # max over z != y
    v_rows = corelin.apply_layer(basis, witness.v).amplitudes
    spill = witness.scale * np.abs(v_rows).max(axis=1) * off
    rhs = witness.scale * (v_rows * w_rows.diagonal()[:, None])
    rhs -= phases.T
    match = np.abs(rhs).max(axis=1)
    return _report(2, witness, np.maximum(match, spill))
