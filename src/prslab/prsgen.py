"""Phase-type pseudorandom-state generators as unitaries.

A generator prepares the flat superposition whose basis-state phases are
sign flips (binary kind) or N-th roots of unity (general kind) given by a
keyed function.  As a unitary it is the Fourier layer followed by the phase
diagonal, so its action on arbitrary basis inputs is defined as well.  The
phases of a table come from `corelin`, the one place that maps exponents to
phases.  The U_x family table is built here alone, and its peak is modelled
and checked here, before it is built.
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
        if self.n < 1:
            raise ValueError(f"a generator acts on n >= 1 qubits, got n = {self.n}")
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
    n, table = gen.n, gen.f.table
    general = gen.kind is PrsKind.GENERAL_PHASE
    check_complex_array(_prepare_peak_entries(table.size, general), f"state on {n} qubits")
    phases = corelin._phases(gen.f.range_modulus, table)
    if general:  # the Fourier layer leaves |0...0> complex, signs included (n = 1)
        phases = phases.astype(np.complex128, copy=False)
    phases /= math.sqrt(1 << n)
    return PureState(n, phases)


def _prepare_peak_entries(entries: int, general: bool) -> int:
    """Upper estimate of `prepare`'s peak besides its table of `entries`
    exponents, in 16-byte units: for the general kind two complex128 arrays
    (the exponential's argument and result, then the amplitudes and the
    state's copy of them), for signs the float64 amplitudes and the state's
    copy, plus 128 KiB of numpy's casting buffers and Python objects."""
    return (2 * entries if general else entries) + (1 << 13)


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
    row x holds the exponents of U_x, built once its peak passes the budget
    check.

    Binary kind: diag((-1)^{x.y}) with bitwise dot; general kind:
    diag(omega_N^{x*y}) with the integer product mod N.  Row 0 is the identity.
    """
    check_complex_array(_family_peak_entries(n), f"U_x phase family on {n} qubits")
    modulus = kind.range_modulus(n)
    labels = np.arange(1 << n, dtype=np.int64)
    if kind is PrsKind.BINARY_PHASE:
        exponents = labels[:, None] & labels
        np.bitwise_count(exponents, out=exponents)
    else:
        exponents = labels[:, None] * labels
    exponents %= modulus
    exponents.setflags(write=False)  # adopted by the layer, not copied
    return corelin.phase_diagonal_layer(range(n), modulus, exponents)


def _family_peak_entries(n: int) -> int:
    """Upper estimate of `phase_shift_family`'s peak for either kind, in
    16-byte units: the (2^n, 2^n) int64 exponent table the broadcast builds
    in place, which the layer adopts, plus 256 KiB."""
    dim = 1 << n
    return dim * dim // 2 + (1 << 14)
