"""Length-expansion circuits over phase-PRS blocks, as declarative specs.

A spec lists same-width blocks at qubit offsets, applied in order to the
all-zeros register, optionally followed by a global mixing layer; each
source's block layout and circuit are defined here only.  The two-block
overlap construction additionally has a closed-form amplitude formula, kept
as an independent oracle against the circuit path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import corelin, prsgen
from .boolfn import BooleanFunction, PrfKey
from .budget import budget_mib, check_complex_array
from .corelin import LayerKind, PureState, UnitaryLayer
from .prsgen import PrsGenerator, PrsKind


@dataclass(frozen=True)
class Block:
    """One PRS application on qubits [offset, offset + width).

    Exactly one of `function` / `key` is set; keyed blocks materialize their
    truth table lazily at evaluation time.
    """

    offset: int
    width: int
    kind: PrsKind
    function: BooleanFunction | None = None
    key: PrfKey | None = None

    def __post_init__(self):
        if (self.function is None) == (self.key is None):
            raise ValueError("block needs exactly one of function or key")
        if self.offset < 0 or self.width < 1:
            raise ValueError(f"invalid block placement offset={self.offset} width={self.width}")

    def resolve(self) -> PrsGenerator:
        if self.function is not None:
            return PrsGenerator(self.kind, self.width, self.function)
        return prsgen.generator_from_key(self.kind, self.width, self.key)


@dataclass(frozen=True)
class ConstructionSpec:
    total_qubits: int
    blocks: tuple[Block, ...]
    final_layer: UnitaryLayer | None = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        widths = {b.width for b in self.blocks}
        if len(widths) > 1:
            raise ValueError(f"block widths differ: {sorted(widths)}")
        for b in self.blocks:
            if b.offset + b.width > self.total_qubits:
                raise ValueError(
                    f"block at offset {b.offset} width {b.width} exceeds "
                    f"{self.total_qubits} qubits"
                )


class Source(Enum):
    PLAIN = "plain"
    CONSTRUCTION1 = "construction1"
    CONSTRUCTION2 = "construction2"
    CONSTRUCTION3 = "construction3"


def block_offsets(source: Source, n: int, i: int | None = None,
                  ell: int | None = None) -> tuple[int, ...]:
    """Qubit offset of each n-wide block of a source, in the order the circuit
    applies them: the one definition and check of each source's geometry.
    Fields a source does not use are ignored."""
    if n < 1:
        raise ValueError(f"block width must be >= 1, got n={n}")
    if source is Source.PLAIN:
        return (0,)
    if source is Source.CONSTRUCTION1:
        if i is None or not 1 <= i < n:
            raise ValueError(f"construction1 needs the added-qubit count 1 <= i < n, "
                             f"got i={i}, n={n}")
        return (0, i)
    if n % 2:
        raise ValueError(f"{source.value} needs an even n >= 2, got n={n}")
    if source is Source.CONSTRUCTION2:
        return (0, n, n // 2)
    if ell is None or ell < 1:
        raise ValueError(f"construction3 needs the block count ell >= 1, got ell={ell}")
    return tuple(j * n // 2 for j in range(ell))


def circuit(source: Source, fns, n: int, kind: PrsKind = PrsKind.BINARY_PHASE,
            i: int | None = None, ell: int | None = None,
            include_final_layer: bool = True) -> ConstructionSpec:
    """The source's blocks, block k keyed by fns[k % len(fns)], then (every
    source but plain) the Fourier layer on the whole output register."""
    offsets = block_offsets(source, n, i, ell)
    q = max(offsets) + n
    blocks = tuple(Block(offset, n, kind, function=fns[k % len(fns)])
                   for k, offset in enumerate(offsets))
    final = include_final_layer and source is not Source.PLAIN
    return ConstructionSpec(q, blocks, prsgen.fourier_layer(kind, range(q)) if final else None)


def construction1(
    f: BooleanFunction,
    n: int,
    i: int,
    kind: PrsKind = PrsKind.BINARY_PHASE,
    include_final_layer: bool = True,
) -> ConstructionSpec:
    """Two same-keyed blocks overlapping on n - i qubits; output n + i qubits."""
    return circuit(Source.CONSTRUCTION1, (f,), n, kind, i, None, include_final_layer)


def construction2(
    f1: BooleanFunction,
    f2: BooleanFunction,
    f3: BooleanFunction,
    n: int,
    kind: PrsKind = PrsKind.BINARY_PHASE,
    include_final_layer: bool = True,
) -> ConstructionSpec:
    """Two parallel blocks at offsets 0 and n, then one centered block; output 2n qubits."""
    return circuit(Source.CONSTRUCTION2, (f1, f2, f3), n, kind, None, None, include_final_layer)


def construction3(
    fs,
    n: int,
    kind: PrsKind = PrsKind.BINARY_PHASE,
    include_final_layer: bool = True,
) -> ConstructionSpec:
    """Stairs of ell = len(fs) blocks at stride n/2; output (n/2)(ell + 1) qubits."""
    fs = tuple(fs)
    return circuit(Source.CONSTRUCTION3, fs, n, kind, None, len(fs), include_final_layer)


def evaluate(spec: ConstructionSpec, budget_override: int | None = None) -> PureState:
    """Run the circuit on |0...0>: blocks in listed order, then the final layer.
    The first block meets |0...0>, so it is `prsgen.prepare` placed at its offset."""
    q = spec.total_qubits
    limit = budget_mib(budget_override)  # one lookup for both checks
    check_complex_array(1 << q, f"state on {q} qubits", limit)
    if spec.blocks:
        first = spec.blocks[0]
        state = prsgen.prepare(first.resolve(), limit)
        if first.width < q:
            amps = np.zeros(1 << q, dtype=state.amplitudes.dtype)
            low = q - first.offset - first.width  # qubits below the block
            amps[: 1 << (first.width + low) : 1 << low] = state.amplitudes
            state = PureState(q, amps)
    else:
        state = corelin.basis_state(q, 0)
    for block in spec.blocks[1:]:
        state = prsgen.apply_to_register(block.resolve(), state, block.offset)
    if spec.final_layer is not None:
        state = corelin.apply_layer(state, spec.final_layer)
    return state


def closed_form_construction1(
    f: BooleanFunction,
    n: int,
    i: int,
    include_final_layer: bool = True,
    budget_override: int | None = None,
) -> PureState:
    """Direct amplitude sum for the two-block overlap circuit (sign phases only).

    Evaluates, per output basis state |x'>|y|>, the sum over the overlap
    register x'' of (-1)^(f(x'x'') + y.(x''0^i) + f(y)) / 2^n, with no circuit
    simulation; used as an oracle against `evaluate`.
    """
    block_offsets(Source.CONSTRUCTION1, n, i)  # rejects i outside 1 <= i < n
    if f.range_modulus != 2:
        raise ValueError("closed form is defined for sign phases (modulus 2)")
    q = n + i
    check_complex_array(1 << q, f"state on {q} qubits", budget_override)
    amps = np.zeros(1 << q)
    n_overlap = n - i
    for xp in range(1 << i):
        for y in range(1 << n):
            y_head = y >> i  # the first n - i bits pair with x'' in the dot product
            acc = 0
            for xpp in range(1 << n_overlap):
                e = f((xp << n_overlap) | xpp) + (y_head & xpp).bit_count() + f(y)
                acc += -1 if e & 1 else 1
            amps[(xp << n) | y] = acc
    state = PureState(q, amps / (1 << n))
    if include_final_layer:
        state = corelin.apply_layer(state, corelin.hadamard_all_layer(tuple(range(q))))
    return state


# --- JSON wire format -------------------------------------------------------

def _function_to_json(f: BooleanFunction) -> dict:
    return {"input_bits": f.input_bits, "range_modulus": f.range_modulus,
            "table_hex": f.table_hex()}


def _function_from_json(obj: dict) -> BooleanFunction:
    return BooleanFunction.from_hex(obj["input_bits"], obj["range_modulus"], obj["table_hex"])


def _block_to_json(b: Block) -> dict:
    out = {"offset": b.offset, "width": b.width, "kind": b.kind.value}
    if b.function is not None:
        out["function"] = _function_to_json(b.function)
    else:
        out["key"] = {"label": b.key.label, "hex": b.key.key_bytes.hex()}
    return out


def _block_from_json(obj: dict) -> Block:
    kind = PrsKind(obj["kind"])
    if "function" in obj:
        return Block(obj["offset"], obj["width"], kind,
                     function=_function_from_json(obj["function"]))
    key = PrfKey(bytes.fromhex(obj["key"]["hex"]), obj["key"]["label"])
    return Block(obj["offset"], obj["width"], kind, key=key)


def spec_to_json(spec: ConstructionSpec) -> str:
    final = None
    if spec.final_layer is not None:
        final = {"kind": spec.final_layer.kind.value,
                 "target_qubits": list(spec.final_layer.target_qubits)}
    payload = {
        "total_qubits": spec.total_qubits,
        "blocks": [_block_to_json(b) for b in spec.blocks],
        "final_layer": final,
    }
    return json.dumps(payload, sort_keys=True)


def spec_from_json(text: str) -> ConstructionSpec:
    payload = json.loads(text)
    final = None
    if payload.get("final_layer") is not None:
        obj = payload["final_layer"]
        kind = LayerKind(obj["kind"])
        if kind not in (LayerKind.HADAMARD_ALL, LayerKind.QFT):
            raise ValueError(f"unsupported final layer kind {kind}")
        final = UnitaryLayer(kind, tuple(obj["target_qubits"]))
    return ConstructionSpec(
        payload["total_qubits"],
        tuple(_block_from_json(b) for b in payload["blocks"]),
        final,
    )
