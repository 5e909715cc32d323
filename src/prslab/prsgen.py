"""Phase-type pseudorandom-state generators as unitaries.

A generator prepares the flat superposition whose basis-state phases are
sign flips (binary kind) or N-th roots of unity (general kind) given by a
keyed function.  As a unitary it is the Fourier layer followed by the phase
diagonal, so its action on arbitrary basis inputs is defined as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import corelin
from .boolfn import BooleanFunction
from .budget import check_complex_array
from .corelin import PureState, UnitaryLayer


class PrsKind(Enum):
    BINARY_PHASE = "binary"
    GENERAL_PHASE = "general"

    def range_modulus(self, n: int) -> int:
        return 2 if self is PrsKind.BINARY_PHASE else 1 << n


@dataclass(frozen=True)
class PrsGenerator:
    kind: PrsKind
    n: int
    f: BooleanFunction

    def __post_init__(self):
        if self.f.input_bits != self.n:
            raise ValueError(
                f"function takes {self.f.input_bits}-bit inputs, generator is on {self.n} qubits"
            )
        expected_m = self.kind.range_modulus(self.n)
        if self.f.range_modulus != expected_m:
            raise ValueError(
                f"{self.kind.value} kind needs range modulus {expected_m}, "
                f"got {self.f.range_modulus}"
            )


def prepare(gen: PrsGenerator) -> PureState:
    """The generator's output on |0...0>: amplitude omega^{f(x)} / sqrt(N) at x;
    one row per member for a generator keyed by a batch of functions."""
    n = gen.n
    table = gen.f.table
    check_complex_array(table.size, f"state on {n} qubits")
    if gen.kind is PrsKind.BINARY_PHASE:
        amp = 1.0 / math.sqrt(1 << n)
        return PureState(n, np.where(table & 1, -amp, amp))
    m = gen.f.range_modulus
    return PureState(n, np.exp(2j * np.pi * table / m) / math.sqrt(1 << n))


def fourier_layer(kind: PrsKind, targets) -> UnitaryLayer:
    """The basis-mixing layer: all-Hadamard (binary) or Fourier kernel (general)."""
    if kind is PrsKind.BINARY_PHASE:
        return corelin.hadamard_all_layer(targets)
    return corelin.qft_layer(targets)


def phase_layer(gen: PrsGenerator, targets) -> UnitaryLayer:
    """Diagonal phase layer omega^{f(x)} on the target register, with one
    exponent row per member for a batch of functions."""
    return corelin.phase_diagonal_layer(targets, gen.f.range_modulus, gen.f.table)


def apply_to_register(gen: PrsGenerator, state: PureState, offset: int) -> PureState:
    """Apply the generator unitary to qubits [offset, offset + n) of a wider state."""
    targets = tuple(range(offset, offset + gen.n))
    state = corelin.apply_layer(state, fourier_layer(gen.kind, targets))
    return corelin.apply_layer(state, phase_layer(gen, targets))


def phase_shift_family(kind: PrsKind, n: int) -> UnitaryLayer:
    """The key-independent diagonal unitaries U_x relating outputs on |x> and
    on |0>, for every x at once: one phase layer on qubits 0..n-1 whose table
    row x holds the exponents of U_x.

    Binary kind: diag((-1)^{x.y}) with bitwise dot; general kind:
    diag(omega_N^{x*y}) with the integer product mod N.  Row 0 is the identity.
    """
    modulus = kind.range_modulus(n)
    labels = np.arange(1 << n, dtype=np.int64)
    if kind is PrsKind.BINARY_PHASE:
        exponents = labels[:, None] & labels
        np.bitwise_count(exponents, out=exponents)
    else:
        exponents = labels[:, None] * labels
    exponents %= modulus
    return corelin.phase_diagonal_layer(range(n), modulus, exponents)
