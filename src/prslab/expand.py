"""Length-expansion circuits: phase-PRS generators at qubit offsets.

A circuit is a list of same-width generators, each placed at a qubit offset
and applied in order to the all-zeros register, optionally followed by one
mixing layer on the whole register.  Each source is one `Layout`: where its
blocks sit, which function draw keys each block, and whether the mixing
layer follows.  `layout` is the only code that tells the sources apart; the
circuit builder and the moment routes read the layout.  The two-block
overlap construction additionally has a closed-form amplitude formula, kept
as an independent oracle against the circuit path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import corelin, prsgen
from .boolfn import BooleanFunction
from .budget import check_complex_array
from .corelin import PureState, UnitaryLayer
from .prsgen import PrsGenerator, PrsKind


@dataclass(frozen=True)
class ConstructionSpec:
    """Generators applied in order, each on qubits [offset, offset + gen.n) of a
    `total_qubits` register, then the optional final layer on the register.
    Generators keyed by batches of functions, all of one size, make a batch
    circuit: member k of every block keys the k-th output row."""

    total_qubits: int
    blocks: tuple[tuple[int, PrsGenerator], ...]
    final_layer: UnitaryLayer | None = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        widths = {gen.n for _, gen in self.blocks}
        if len(widths) > 1:
            raise ValueError(f"block widths differ: {sorted(widths)}")
        for offset, gen in self.blocks:
            if offset < 0 or offset + gen.n > self.total_qubits:
                raise ValueError(
                    f"block at offset {offset} width {gen.n} does not fit in "
                    f"{self.total_qubits} qubits"
                )


class Source(Enum):
    PLAIN = "plain"
    CONSTRUCTION1 = "construction1"
    CONSTRUCTION2 = "construction2"
    CONSTRUCTION3 = "construction3"


@dataclass(frozen=True)
class Layout:
    """Blocks of width n: block k sits at qubit offset offsets[k] and is keyed
    by function draw keys[k]; the Fourier layer on the whole register follows
    iff final_layer.  A layout has at least one block, one key per block, no
    negative offset, and keys that use every draw from 0 to draws - 1."""

    n: int
    offsets: tuple[int, ...]
    keys: tuple[int, ...]
    final_layer: bool

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"block width must be >= 1, got n={self.n}")
        if not self.offsets or len(self.offsets) != len(self.keys):
            raise ValueError(f"a layout needs one key per block and at least one block, "
                             f"got offsets {self.offsets} and keys {self.keys}")
        if min(self.offsets) < 0:
            raise ValueError(f"block offsets {self.offsets} include a negative one")
        if set(self.keys) != set(range(max(self.keys) + 1)):
            raise ValueError(f"keys {self.keys} do not use every draw from 0 "
                             f"to {max(self.keys)}")

    @property
    def qubits(self) -> int:
        return max(self.offsets) + self.n

    @property
    def draws(self) -> int:  # independent function draws per ensemble member
        return max(self.keys) + 1


def layout(source: Source, n: int, i: int | None = None, ell: int | None = None,
           shared_key: bool = False) -> Layout:
    """A source's block layout, the only code that tells the sources apart:
    each one's geometry and its check.  Every block draws its own function,
    except construction1's (one keys both) and, under `shared_key`, a
    multi-draw source's.  Fields a source does not use are ignored."""
    if source is Source.PLAIN:
        offsets, keys = (0,), (0,)
    elif source is Source.CONSTRUCTION1:
        if i is None or not 1 <= i < n:
            raise ValueError(f"construction1 needs the added-qubit count 1 <= i < n, "
                             f"got i={i}, n={n}")
        offsets, keys = (0, i), (0, 0)
    elif n % 2:
        raise ValueError(f"{source.value} needs an even n >= 2, got n={n}")
    elif source is Source.CONSTRUCTION2:
        offsets, keys = (0, n, n // 2), (0, 1, 2)
    elif ell is None or ell < 1:
        raise ValueError(f"construction3 needs the block count ell >= 1, got ell={ell}")
    else:
        offsets = tuple(j * n // 2 for j in range(ell))
        keys = tuple(range(ell))
    if shared_key:
        if max(keys) == 0:
            raise ValueError(f"{source.value} draws one function per member already")
        keys = (0,) * len(offsets)
    return Layout(n, offsets, keys, source is not Source.PLAIN)


def circuit(layout: Layout, fns, kind: PrsKind = PrsKind.BINARY_PHASE) -> ConstructionSpec:
    """The layout's blocks, block k the generator keyed by fns[layout.keys[k]],
    then the Fourier layer on the whole register iff the layout has one.  A
    function that does not fit the kind at width n is refused here."""
    if len(fns) != layout.draws:
        raise ValueError(f"the layout draws {layout.draws} functions per member, "
                         f"got {len(fns)}")
    q = layout.qubits
    blocks = tuple((offset, PrsGenerator(kind, layout.n, fns[key]))
                   for offset, key in zip(layout.offsets, layout.keys))
    return ConstructionSpec(q, blocks,
                            prsgen.fourier_layer(kind, range(q)) if layout.final_layer else None)


def construction1(f: BooleanFunction, n: int, i: int,
                  kind: PrsKind = PrsKind.BINARY_PHASE) -> ConstructionSpec:
    """Two same-keyed blocks overlapping on n - i qubits; output n + i qubits."""
    return circuit(layout(Source("construction1"), n, i), (f,), kind)


def construction2(f1: BooleanFunction, f2: BooleanFunction, f3: BooleanFunction, n: int,
                  kind: PrsKind = PrsKind.BINARY_PHASE) -> ConstructionSpec:
    """Two parallel blocks at offsets 0 and n, then one centered block; output 2n qubits."""
    return circuit(layout(Source("construction2"), n), (f1, f2, f3), kind)


def construction3(fs, n: int, kind: PrsKind = PrsKind.BINARY_PHASE) -> ConstructionSpec:
    """Stairs of ell = len(fs) blocks at stride n/2; output (n/2)(ell + 1) qubits."""
    fs = tuple(fs)
    return circuit(layout(Source("construction3"), n, ell=len(fs)), fs, kind)


def evaluate(spec: ConstructionSpec) -> PureState:
    """Run the circuit on |0...0>: blocks in listed order, then the final layer.
    The first block meets |0...0>, so it is `prsgen.prepare` placed at its offset.
    A batch circuit runs every member at once: one row per member."""
    q = spec.total_qubits
    lead = spec.blocks[0][1].f.table.shape[:-1] if spec.blocks else ()  # (members,) for a batch
    check_complex_array(math.prod(lead) << q, f"state on {q} qubits")
    if spec.blocks:
        offset, gen = spec.blocks[0]
        state = prsgen.prepare(gen)
        if gen.n < q:
            amps = np.zeros(lead + (1 << q,), dtype=state.amplitudes.dtype)
            low = q - offset - gen.n  # qubits below the block
            amps[..., : 1 << (gen.n + low) : 1 << low] = state.amplitudes
            state = PureState(q, amps)
            del amps  # the state holds its own copy
    else:
        state = corelin.basis_state(q, 0)
    for offset, gen in spec.blocks[1:]:
        state = prsgen.apply_to_register(gen, state, offset)
    if spec.final_layer is not None:
        state = corelin.apply_layer(state, spec.final_layer)
    return state


def closed_form_construction1(
    f: BooleanFunction,
    n: int,
    i: int,
    include_final_layer: bool = True,
) -> PureState:
    """Direct amplitude sum for the two-block overlap circuit (sign phases only).

    Evaluates, per output basis state |x'>|y|>, the sum over the overlap
    register x'' of (-1)^(f(x'x'') + y.(x''0^i) + f(y)) / 2^n, with no circuit
    simulation; used as an oracle against `evaluate`.
    """
    layout(Source("construction1"), n, i)  # rejects i outside 1 <= i < n
    if f.range_modulus != 2:
        raise ValueError("closed form is defined for sign phases (modulus 2)")
    q = n + i
    check_complex_array(1 << q, f"state on {q} qubits")
    amps = np.zeros(1 << q)
    table = f.table.tolist()
    n_overlap = n - i
    for xp in range(1 << i):
        for y in range(1 << n):
            y_head = y >> i  # the first n - i bits pair with x'' in the dot product
            acc = 0
            for xpp in range(1 << n_overlap):
                e = table[(xp << n_overlap) | xpp] + (y_head & xpp).bit_count() + table[y]
                acc += -1 if e & 1 else 1
            amps[(xp << n) | y] = acc
    state = PureState(q, amps / (1 << n))
    if include_final_layer:
        state = corelin.apply_layer(state, corelin.hadamard_all_layer(tuple(range(q))))
    return state

