"""Dense linear algebra for small multi-qubit registers.

States and operators follow one dtype rule: real input is stored as
float64, anything else as complex128, so sign-phase states, their moments and
the symmetric projector never carry an imaginary part.  Each is wrapped in a
thin validating container.  A circuit layer is one of three kinds, the
halves of a phase-state generator: all-Hadamard, the Fourier kernel, or a
phase diagonal; one in-place kernel, `_walsh`, applies H^{(x) m} for the
Hadamard layer and the pairing moment's final layer.  Nothing here
compresses an operator to the symmetric subspace: every moment hands its
compression over with it (see `moments`).  The trace distance checks its
own peak, then eigensolves each connected block of the difference alone.
Everything here but `_walsh`, which works in place on its caller's array,
is a pure function on immutable inputs, safe to share across threads.

Convention used throughout the package: qubit 0 is the *most significant* bit
of a basis-state label, i.e. the basis index of |b0 b1 ... b(q-1)> is
sum_j b_j << (q-1-j).  Sub-registers are contiguous bit fields of the label.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from .budget import check_complex_array

NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-8


class RegisterError(ValueError):
    """A qubit index or register dimension does not match its operand."""


def _real_or_complex(arr: np.ndarray) -> type:
    """float64 for an array with a real (or integer, or bool) dtype, else complex128."""
    return np.complex128 if np.iscomplexobj(arr) else np.float64


def _frozen_copy(values: Any, dtype: type | None = None) -> np.ndarray:
    """`values` as a read-only C-ordered array in `dtype`, by default the one
    `_real_or_complex` picks: the one coercion of both containers and of the
    phase tables.  An array that is already read-only, owns its data, is
    C-contiguous and has that dtype is taken as it is, so code that builds a
    large array freezes it and hands it over without a second copy; anything
    else is copied, so a caller's writable array or a view of one cannot
    change a container."""
    arr = np.asarray(values)
    dtype = dtype or _real_or_complex(arr)
    flags = arr.flags
    if flags.writeable or not flags.owndata or not flags.c_contiguous or arr.dtype != dtype:
        arr = arr.astype(dtype, order="C", copy=True)
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Unit-norm amplitude vector over ``num_qubits`` qubits, or a batch of
    them as the rows of a 2-D array, each row checked to norm 1; float64 for
    real input, complex128 otherwise.  Input of any other shape is flattened
    to one vector."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        amps = _frozen_copy(amps if amps.ndim in (1, 2) else amps.reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        if self.num_qubits < 0:
            raise RegisterError(f"negative qubit count {self.num_qubits}")
        expected = 1 << self.num_qubits
        if self.amplitudes.shape[-1] != expected:
            raise RegisterError(
                f"amplitude vector has length {self.amplitudes.shape[-1]}, "
                f"expected 2**{self.num_qubits} = {expected}"
            )
        pairs = self.amplitudes.view(np.float64)  # a complex entry as (re, im), no copy
        norm_sq = np.einsum("...i,...i->...", pairs, pairs)
        bad = np.flatnonzero(~(np.abs(norm_sq - 1.0) <= NORM_ATOL))
        if bad.size:
            row = f"row {bad[0]}: " if norm_sq.ndim else ""
            raise RegisterError(f"{row}squared norm {float(norm_sq.flat[bad[0]])!r} "
                                f"deviates from 1 beyond {NORM_ATOL}")

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """() for one state, (members,) for a batch."""
        return self.amplitudes.shape[:-1]


_TILE = 64  # side of the square tiles the Hermiticity check compares


def _hermitian_deviation(mat: np.ndarray) -> float:
    """max |mat - mat^H|, over the pairs of _TILE x _TILE tiles (i, j >= i),
    so that the check holds a few tile-sized temporaries besides the matrix
    and reads both tiles of a pair from cache; NaN propagates."""
    dim, worst = len(mat), 0.0
    for i in range(0, dim, _TILE):
        for j in range(i, dim, _TILE):
            upper = mat[i : i + _TILE, j : j + _TILE]
            lower = mat[j : j + _TILE, i : i + _TILE]
            worst = np.maximum(worst, abs(upper - lower.conj().T).max())
    return float(worst)


def _operator_build_entries(dim: int, complex_: bool = False) -> int:
    """16-byte units that wrapping a frozen dim x dim array in a
    DensityOperator holds besides it, which it adopts without a copy: for
    one Hermiticity tile pair, the conjugate copy (complex only), the
    difference, its absolute value and numpy's ufunc buffer for the strided
    tiles, at most 4 (real) or 5 (complex) tile-sized arrays."""
    tile = min(dim, _TILE) ** 2
    return 5 * tile if complex_ else 2 * tile


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian operator; with ``normalized=True`` also trace-1, with no
    diagonal entry below EIGENVALUE_FLOOR (a necessary PSD condition).

    ``normalized=False`` admits unnormalized but still Hermitian operators
    (e.g. an unnormalized subspace projector).  Real input is stored as a
    float64 (real symmetric) matrix, anything else as complex128; a frozen
    array of that dtype is adopted, any other input copied (`_frozen_copy`).
    """

    matrix: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        mat = _frozen_copy(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise RegisterError(f"operator must be square, got shape {mat.shape}")
        dev = _hermitian_deviation(mat)
        if not dev <= HERMITIAN_ATOL:
            raise RegisterError(f"operator deviates from Hermitian by {dev:.3e}")
        if self.normalized:
            tr = complex(np.trace(mat))
            if not abs(tr - 1.0) <= HERMITIAN_ATOL:
                raise RegisterError(f"trace {tr!r} deviates from 1 beyond {HERMITIAN_ATOL}")
            # the diagonal only: no eigensolve, which would cost O(dim^3)
            if mat.size and not float(np.min(mat.diagonal().real)) >= EIGENVALUE_FLOOR:
                raise RegisterError("diagonal entry below PSD floor")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


class LayerKind(Enum):
    HADAMARD_ALL = "hadamard_all"
    QFT = "qft"
    PHASE_DIAGONAL = "phase_diagonal"


@dataclass(frozen=True, eq=False)
class UnitaryLayer:
    """One unitary acting on a non-empty run of consecutive qubits, its targets:
    qubit targets[0] is the most significant bit of the layer's own register.

    parameters by kind:
      HADAMARD_ALL  -- none
      QFT           -- none (kernel omega_N^{xy}/sqrt(N), N = 2**len(targets))
      PHASE_DIAGONAL-- (modulus, exponents): diag of omega_modulus**exponent

    A phase table may also be a (members, 2**width) array, one row per
    member of a batch state (see `apply_layer`).

    The payload is validated here, once: a malformed phase table or modulus
    raises RegisterError at construction, so applying a layer re-checks
    nothing.  The exponents are stored as a read-only int64 copy, so a
    caller changing its input afterwards changes nothing.  Layers compare by
    identity.
    """

    kind: LayerKind
    target_qubits: tuple[int, ...]
    parameters: Any = None

    def __post_init__(self):
        targets = tuple(int(t) for t in self.target_qubits)
        object.__setattr__(self, "target_qubits", targets)
        if not targets or targets[0] < 0 or targets != tuple(range(targets[0], targets[-1] + 1)):
            raise RegisterError(f"target qubits {targets} are not a non-empty run of "
                                f"ascending consecutive qubits >= 0")
        dim = 1 << len(targets)
        if self.kind is LayerKind.PHASE_DIAGONAL:
            modulus, exponents = self.parameters
            modulus, exponents = int(modulus), _frozen_copy(exponents, np.int64)
            object.__setattr__(self, "parameters", (modulus, exponents))
            if exponents.shape[-1:] != (dim,) or exponents.ndim > 2:
                raise RegisterError(f"phase table has shape {exponents.shape}, "
                                    f"expected ({dim},) or (members, {dim})")
            if not modulus >= 1:
                raise RegisterError(f"phase modulus {modulus} must be >= 1")

    @property
    def width(self) -> int:
        return len(self.target_qubits)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """(members,) for a phase layer with one exponent row per member, else ()."""
        return self.parameters[1].shape[:-1] if self.kind is LayerKind.PHASE_DIAGONAL else ()


def hadamard_all_layer(targets) -> UnitaryLayer:
    return UnitaryLayer(LayerKind.HADAMARD_ALL, tuple(targets))


def qft_layer(targets) -> UnitaryLayer:
    return UnitaryLayer(LayerKind.QFT, tuple(targets))


def phase_diagonal_layer(targets, modulus: int, exponents) -> UnitaryLayer:
    return UnitaryLayer(LayerKind.PHASE_DIAGONAL, tuple(targets), (modulus, exponents))


def hadamard_matrix(n_bits: int) -> np.ndarray:
    """H^{(x) n_bits} in float64: entries (-1)^{x.y} / 2^{n/2} with bitwise dot x.y."""
    idx = np.arange(1 << n_bits, dtype=np.uint64)
    parity = (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(np.float64)
    return (1.0 - 2.0 * parity) / math.sqrt(1 << n_bits)


# H^{(x) w} for w = 0.._MAX_FACTOR_BITS, the factors `_walsh` applies
_MAX_FACTOR_BITS = 6
_WALSH_FACTORS = tuple(hadamard_matrix(w) for w in range(_MAX_FACTOR_BITS + 1))


def _act(layer: UnitaryLayer, block: np.ndarray) -> np.ndarray:
    """Apply the layer to axis 2 of a (members, a, 2^width, k) block; row m
    of a batched phase table acts on member m.

    This is the only definition of each kind's action; `apply_layer` runs it
    on the target register.
    """
    if layer.kind is LayerKind.HADAMARD_ALL:
        return hadamard_transform(block, axis=2)
    if layer.kind is LayerKind.QFT:
        return np.fft.ifft(block, axis=2, norm="ortho")
    return _phases(*layer.parameters).reshape(layer.batch_shape + (1, -1, 1)) * block


def _phases(modulus: int, exponents: np.ndarray) -> np.ndarray:
    """omega_modulus**exponents entrywise as a new array, float64 signs for
    modulus 2 and complex128 otherwise: the one map from a table to phases."""
    if modulus == 2:
        return 1.0 - 2.0 * (exponents & 1)  # exactly -1.0 or 1.0, by parity, of any int64
    return np.exp(2j * np.pi * (exponents % modulus) / modulus)


def apply_layer(state: PureState, layer: UnitaryLayer) -> PureState:
    """Apply the layer on its target qubits, identity elsewhere, along the
    last axis of the amplitudes: to the state, or to every row of a batch.
    A batched phase table needs a batch of as many rows; row m acts on
    member m."""
    q, w, targets = state.num_qubits, layer.width, layer.target_qubits
    if targets[-1] >= q:
        raise RegisterError(
            f"layer targets qubit {targets[-1]} but the state has qubits 0..{q - 1}"
        )
    lead = state.batch_shape
    if layer.batch_shape not in ((), lead):
        raise RegisterError(f"layer has phase rows {layer.batch_shape}, "
                            f"the state has rows {lead}")
    complex_ = (np.iscomplexobj(state.amplitudes) or layer.kind is LayerKind.QFT
                or layer.kind is LayerKind.PHASE_DIAGONAL and layer.parameters[0] != 2)
    check_complex_array(_layer_peak_entries(state.amplitudes.size, complex_),
                        f"{layer.kind.value} layer on {q} qubits")
    # the qubits before the targets, the targets and the qubits after them
    # are three axes of the amplitudes as they lie: no transpose
    amps = state.amplitudes.reshape(-1, 1 << targets[0], 1 << w, 1 << (q - 1 - targets[-1]))
    return PureState(q, _act(layer, amps).reshape(lead + (-1,)))


def _layer_peak_entries(entries: int, complex_: bool) -> int:
    """Upper estimate of `apply_layer`'s peak besides its input, in 16-byte
    units: the layer's result and the next state's copy of it, complex128
    when the state or the layer is complex and float64 otherwise, plus
    256 KiB of one Walsh slab, the FFT's buffers, the phases of a table
    no larger than the state, and Python objects."""
    return (2 * entries if complex_ else entries) + (1 << 14)


def partial_trace(state: PureState, traced_qubits) -> DensityOperator:
    """Reduced operator after tracing out ``traced_qubits`` of |psi><psi|."""
    q = state.num_qubits
    traced = sorted(set(int(t) for t in traced_qubits))
    for t in traced:
        if not 0 <= t < q:
            raise RegisterError(f"cannot trace qubit {t}: state has qubits 0..{q - 1}")
    kept = [j for j in range(q) if j not in traced]
    complex_ = np.iscomplexobj(state.amplitudes)
    check_complex_array(_partial_trace_peak_entries(1 << len(kept), 1 << len(traced), complex_),
                        f"reduced operator on {len(kept)} of {q} qubits")
    psi = state.amplitudes.reshape([2] * q) if q else state.amplitudes.reshape(())
    m = np.transpose(psi, kept + traced).reshape(1 << len(kept), 1 << len(traced))
    rho = m @ m.conj().T
    rho.setflags(write=False)  # handed over to the operator, not copied
    return DensityOperator(rho)


def _partial_trace_peak_entries(kept: int, traced: int, complex_: bool) -> int:
    """Upper estimate of `partial_trace`'s peak besides the state, in 16-byte
    units: the kept x traced regrouping of the amplitudes (a copy when the
    traced qubits are not the last) and its conjugate, the kept x kept
    product and what wrapping it in a DensityOperator holds besides it, plus
    16 KiB of Python objects."""
    entries = 2 * kept * traced + kept * kept
    return ((entries if complex_ else -(-entries // 2))
            + _operator_build_entries(kept, complex_) + (1 << 10))


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the 1-norm of (a - b), via Hermitian eigendecomposition, one
    connected block at a time, once its peak passes the budget check.

    The components of the nonzero pattern of a - b (`_components`) split it,
    up to a permutation, into diagonal blocks, and a permutation similarity
    changes no eigenvalue, so the spectrum is that of the blocks: one
    eigensolve per block, a 1 x 1 block read off the diagonal, and a - b
    solved as it is when it is one block.  Every block is gathered before the
    difference is dropped, so the solve holds the blocks, at most one
    matrix of a's size together, besides the eigensolver's copy of one."""
    if a.dim != b.dim:
        raise RegisterError(f"dimension mismatch {a.dim} != {b.dim}")
    complex_ = np.iscomplexobj(a.matrix) or np.iscomplexobj(b.matrix)
    check_complex_array(_distance_peak_entries(a.dim, complex_),
                        f"trace distance of two {a.dim} x {a.dim} operators")
    diff = a.matrix - b.matrix
    blocks = _components(diff)
    if len(blocks) == 1:
        eigs = np.linalg.eigvalsh(diff)
    else:
        singles = np.array([c[0] for c in blocks if len(c) == 1], dtype=np.intp)
        solved = [diff[singles, singles].real]
        blocks = [diff[np.ix_(c, c)] for c in blocks if len(c) > 1]
        del diff
        eigs = np.concatenate(solved + [np.linalg.eigvalsh(block) for block in blocks])
    return float(0.5 * np.sum(np.abs(eigs)))


def _distance_peak_entries(dim: int, complex_: bool = False) -> int:
    """Upper estimate of `trace_distance`'s peak besides its two dim x dim
    inputs, in 16-byte units: the larger of its two phases.  The component
    search holds the difference and at most three dim x dim bool arrays
    (the pattern, its transpose and one frontier gather).  The solve holds
    two squares: the difference and the eigensolver's copy of it when it is
    one block (the worst case), or else all the gathered blocks, at most one
    square together, beside the difference and then beside the copy of the
    block being solved.  numpy's linalg allocates that copy with `malloc`,
    which tracemalloc does not trace, so a measured peak leaves it out."""
    square = dim * dim if complex_ else dim * dim // 2
    return max(square + 3 * (dim * dim // 16), 2 * square)


_FRONTIER_BYTES = 1 << 20  # the pattern rows one search step gathers


def _components(mat: np.ndarray) -> list[np.ndarray]:
    """The connected components of the nonzero pattern of a square matrix,
    read as a graph that joins i and j when mat[i, j] or mat[j, i] is
    nonzero: a list of ascending index arrays, in the order of their
    smallest index.  A breadth-first search over the boolean pattern, whose
    frontier rows are gathered at most _FRONTIER_BYTES at a time; an index
    with no nonzero off the diagonal is a component of its own, unsearched."""
    dim = len(mat)
    pattern = mat != 0
    pattern |= pattern.T  # eigvalsh reads one triangle: keep both, so no block is missed
    np.fill_diagonal(pattern, False)  # a diagonal entry joins nothing
    alone = ~pattern.any(axis=1)
    labels = np.full(dim, -1)  # the component of each index, -1 until it is reached
    step = max(1, _FRONTIER_BYTES // max(1, dim))
    count = 0
    for seed in range(dim):
        if labels[seed] >= 0:
            continue
        labels[seed] = count
        frontier = np.empty(0, dtype=np.intp) if alone[seed] else np.array([seed])
        while frontier.size:
            reached = np.zeros(dim, dtype=bool)
            for start in range(0, frontier.size, step):
                reached |= pattern[frontier[start:start + step]].any(axis=0)
            frontier = np.flatnonzero(reached & (labels < 0))
            labels[frontier] = count
        count += 1
    order = np.argsort(labels, kind="stable")  # ascending indices within each component
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def symmetric_subspace_dimension(local_dim: int, copies: int) -> int:
    return math.comb(local_dim + copies - 1, copies)


def _projector_peak_entries(local_dim: int, copies: int) -> int:
    """Upper estimate of `symmetric_projector`'s peak, in 16-byte units: the
    float64 matrix, what wrapping it in a DensityOperator holds besides it,
    the class arrays and 256 KiB of Python objects and of the buffers numpy
    iterates the broadcast (t!, t!, D) index arrays with."""
    dim = local_dim**copies
    return (dim * dim // 2 + _operator_build_entries(dim)
            + _classes_peak_entries(local_dim, copies) + (1 << 14))


def symmetric_projector(local_dim: int, copies: int) -> DensityOperator:
    """Unnormalized projector onto the symmetric subspace of `copies` factors.

    The average of all factor permutations: entry (x, y) is 1/c_a when the
    labels x and y lie in the same multiset class a, of c_a labels, and 0
    otherwise.  Idempotent, trace C(D+t-1, t); float64.
    """
    if local_dim < 1 or copies < 1:
        raise RegisterError("local_dim and copies must be >= 1")
    dim = local_dim**copies
    check_complex_array(_projector_peak_entries(local_dim, copies),
                        f"symmetric projector on ({local_dim})^{copies}")
    labels, sizes = _symmetric_classes(local_dim, copies)
    proj = np.zeros((dim, dim), dtype=np.float64)
    proj[labels[:, None, :], labels[None, :, :]] = 1.0 / sizes
    proj.setflags(write=False)  # handed over to the operator, not copied
    return DensityOperator(proj, normalized=False)


def _symmetric_classes(local_dim: int, copies: int) -> tuple[np.ndarray, np.ndarray]:
    """The multiset classes of the d^t basis labels, in the order of their
    sorted digit tuples: a (t!, D) array whose row sigma holds, for every
    class, the label of its sorted digits permuted by sigma, and the D
    class sizes (the distinct labels in each column)."""
    shape = (local_dim,) * copies
    digits = np.indices(shape).reshape(copies, -1)
    sorted_ = np.all(digits[:-1] <= digits[1:], axis=0)
    digits = digits[:, sorted_]  # (t, D): the sorted tuples, in label order
    labels = np.array([np.ravel_multi_index(digits[list(perm)], shape)
                       for perm in itertools.permutations(range(copies))])
    ordered = np.sort(labels, axis=0)
    sizes = 1 + np.count_nonzero(ordered[1:] != ordered[:-1], axis=0)
    return labels, sizes


def _classes_peak_entries(local_dim: int, copies: int) -> int:
    """What `_symmetric_classes` holds, in 16-byte units: t int64 digits and
    t bool masks of d^t entries, 3 t! + t + 2 int64 arrays of D entries (the
    permuted labels as a list and stacked, their sorted copy, the sorted
    digits and the sizes) and 128 bytes of array header per permutation."""
    dim = local_dim**copies
    sym = symmetric_subspace_dimension(local_dim, copies)
    perms = math.factorial(copies)
    return (copies * dim // 2 + copies * dim // 16
            + (3 * perms + copies + 2) * sym // 2 + 8 * perms)


def _factor_widths(m: int) -> list[int]:
    """The widths w of the H^{(x) w} factors of H^{(x) m}, most significant
    bits first: at most _MAX_FACTOR_BITS each and as equal as possible."""
    parts = max(1, -(-m // _MAX_FACTOR_BITS))
    return [m // parts + (k < m % parts) for k in range(parts)]


def hadamard_transform(arr: np.ndarray, axis: int = 0) -> np.ndarray:
    """H^{(x) m} along a power-of-two `axis`: a new C-ordered array, float64
    for real input and complex128 for complex, transformed by `_walsh`."""
    out = np.array(arr, dtype=_real_or_complex(arr), order="C")
    n = out.shape[axis] if out.ndim else 0
    if n == 0 or n & (n - 1):
        raise RegisterError(f"axis length {n} is not a power of two")
    _walsh(out, axis)
    return out


_SLAB_BYTES = 1 << 20  # the entries one matrix product of `_walsh` transforms


def _walsh(arr: np.ndarray, axis: int) -> None:
    """Apply H^{(x) m} in place along `axis`, of length 2^m, of a writable
    C-ordered float64 or complex128 array: one `_factor_widths` factor at a
    time, on its bits of the axis index, one matrix product per slab of about
    _SLAB_BYTES.  A strided array is refused: a reshape would copy it."""
    if not arr.flags.c_contiguous:
        raise ValueError("the Walsh transform works in place and needs a C-ordered array")
    trail = math.prod(arr.shape[axis % arr.ndim:])  # >>= w: the entries after each factor
    for w in _factor_widths(arr.shape[axis].bit_length() - 1):
        factor, per_slab = _WALSH_FACTORS[w], max(1, _SLAB_BYTES // (arr.itemsize << w))
        trail >>= w
        blocks = arr.reshape(-1, 1 << w, trail)
        width, stack = min(trail, per_slab), max(1, per_slab // trail)
        for start in range(0, len(blocks), stack):
            for col in range(0, trail, width):
                slab = blocks[start:start + stack, :, col:col + width]
                if trail > 1:
                    slab[...] = np.matmul(factor, slab)
                else:  # lowest bits of the last axis: H is symmetric, so rows @ H
                    slab[..., 0] = slab[..., 0] @ factor
