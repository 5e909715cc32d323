"""Dense linear algebra for small multi-qubit registers.

States and operators follow one dtype rule: real input is stored as
float64, anything else as complex128, so sign-phase states, their moments and
the symmetric projector never carry an imaginary part.  Each is wrapped in a
thin validating container.  Everything here is a pure function on immutable
inputs, so values can be shared freely across threads.

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
UNITARY_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-8


class RegisterError(ValueError):
    """A qubit index or register dimension does not match its operand."""


def _real_or_complex(arr: np.ndarray) -> type:
    """float64 for an array with a real (or integer, or bool) dtype, else complex128."""
    return np.complex128 if np.iscomplexobj(arr) else np.float64


def _frozen_copy(values: Any) -> np.ndarray:
    """Read-only C-ordered copy of `values` in the dtype `_real_or_complex` picks:
    the one coercion of both containers."""
    arr = np.asarray(values)
    arr = arr.astype(_real_or_complex(arr), order="C", copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Unit-norm amplitude vector over ``num_qubits`` qubits; float64 for real
    input, complex128 otherwise."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen_copy(np.reshape(self.amplitudes, -1)))
        if self.num_qubits < 0:
            raise RegisterError(f"negative qubit count {self.num_qubits}")
        expected = 1 << self.num_qubits
        if self.amplitudes.shape[0] != expected:
            raise RegisterError(
                f"amplitude vector has length {self.amplitudes.shape[0]}, "
                f"expected 2**{self.num_qubits} = {expected}"
            )
        norm_sq = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if not abs(norm_sq - 1.0) <= NORM_ATOL:
            raise RegisterError(f"squared norm {norm_sq!r} deviates from 1 beyond {NORM_ATOL}")

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def basis_state(num_qubits: int, index: int) -> PureState:
    if not 0 <= index < (1 << num_qubits):
        raise RegisterError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits)
    amps[index] = 1.0
    return PureState(num_qubits, amps)


def random_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return PureState(num_qubits, v / np.linalg.norm(v))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _stripe_rows(dim: int) -> int:
    """Rows in one stripe of the Hermiticity check: about 2^16 entries."""
    return max(1, (1 << 16) // max(1, dim))


def _hermitian_deviation(mat: np.ndarray) -> float:
    """max |mat - mat^H|, over row stripes so that the check holds a few MiB
    besides the matrix; NaN propagates."""
    rows = _stripe_rows(len(mat))
    stripes = [np.max(np.abs(mat[k : k + rows] - mat[:, k : k + rows].conj().T))
               for k in range(0, len(mat), rows)]
    return float(np.max(stripes, initial=0.0))


def _operator_build_entries(dim: int, complex_: bool = False) -> int:
    """16-byte units that building a dim x dim DensityOperator holds besides
    its input: the float64 (or complex128) copy and the two temporaries of
    one Hermiticity stripe."""
    stripe = min(dim, _stripe_rows(dim)) * dim
    return dim * dim + 2 * stripe if complex_ else dim * dim // 2 + stripe


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian operator; with ``normalized=True`` also trace-1 and PSD-checked.

    ``normalized=False`` admits unnormalized but still Hermitian operators
    (e.g. an unnormalized subspace projector).  Real input is stored as a
    float64 (real symmetric) matrix, anything else as complex128.
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
            # cheap necessary PSD condition; full spectrum via min_eigenvalue()
            if mat.size and not float(np.min(mat.diagonal().real)) >= EIGENVALUE_FLOOR:
                raise RegisterError("diagonal entry below PSD floor")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


class LayerKind(Enum):
    HADAMARD_ALL = "hadamard_all"
    QFT = "qft"
    PHASE_DIAGONAL = "phase_diagonal"
    PERMUTATION = "permutation"
    CUSTOM = "custom"


@dataclass(frozen=True)
class UnitaryLayer:
    """One unitary acting on an ordered set of target qubits.

    parameters by kind:
      HADAMARD_ALL  -- none
      QFT           -- none (kernel omega_N^{xy}/sqrt(N), N = 2**len(targets))
      PHASE_DIAGONAL-- (modulus, exponents): diag of omega_modulus**exponent
      PERMUTATION   -- tuple sigma over basis labels: |x> -> |sigma(x)>
      CUSTOM        -- explicit complex matrix

    Payloads are validated here, once: a malformed phase table, modulus,
    permutation or custom matrix (including a non-unitary or NaN one) raises
    RegisterError at construction, so applying a layer re-checks nothing.
    """

    kind: LayerKind
    target_qubits: tuple[int, ...]
    parameters: Any = None

    def __post_init__(self):
        targets = tuple(int(t) for t in self.target_qubits)
        object.__setattr__(self, "target_qubits", targets)
        if len(set(targets)) != len(targets):
            raise RegisterError(f"target qubits {targets} are not distinct")
        if any(t < 0 for t in targets):
            raise RegisterError(f"negative qubit index in {targets}")
        dim = 1 << len(targets)
        if self.kind is LayerKind.PHASE_DIAGONAL:
            modulus, exponents = self.parameters
            if len(exponents) != dim:
                raise RegisterError(f"phase table has {len(exponents)} entries, expected {dim}")
            if not modulus >= 1:
                raise RegisterError(f"phase modulus {modulus} must be >= 1")
        elif self.kind is LayerKind.PERMUTATION:
            if sorted(self.parameters) != list(range(dim)):
                raise RegisterError(f"permutation payload is not a permutation of 0..{dim - 1}")
        elif self.kind is LayerKind.CUSTOM:
            mat = np.asarray(self.parameters, dtype=np.complex128)
            if mat.shape != (dim, dim):
                raise RegisterError(f"custom matrix shape {mat.shape} != ({dim}, {dim})")
            dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(dim))))
            if not dev <= UNITARY_ATOL:
                raise RegisterError(f"custom matrix deviates from unitary by {dev:.3e}")

    @property
    def width(self) -> int:
        return len(self.target_qubits)


def hadamard_all_layer(targets) -> UnitaryLayer:
    return UnitaryLayer(LayerKind.HADAMARD_ALL, tuple(targets))


def qft_layer(targets) -> UnitaryLayer:
    return UnitaryLayer(LayerKind.QFT, tuple(targets))


def phase_diagonal_layer(targets, modulus: int, exponents) -> UnitaryLayer:
    return UnitaryLayer(
        LayerKind.PHASE_DIAGONAL, tuple(targets), (int(modulus), tuple(int(e) for e in exponents))
    )


def permutation_layer(targets, sigma) -> UnitaryLayer:
    return UnitaryLayer(LayerKind.PERMUTATION, tuple(targets), tuple(int(s) for s in sigma))


def custom_layer(targets, matrix) -> UnitaryLayer:
    return UnitaryLayer(LayerKind.CUSTOM, tuple(targets), np.asarray(matrix, dtype=np.complex128))


def hadamard_matrix(n_bits: int) -> np.ndarray:
    """H^{(x) n_bits} in float64: entries (-1)^{x.y} / 2^{n/2} with bitwise dot x.y."""
    idx = np.arange(1 << n_bits, dtype=np.uint64)
    parity = (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(np.float64)
    return (1.0 - 2.0 * parity) / math.sqrt(1 << n_bits)


# H^{(x) w} for w = 0.._MAX_FACTOR_BITS, the factors `hadamard_transform` applies
_MAX_FACTOR_BITS = 6
_WALSH_FACTORS = tuple(hadamard_matrix(w) for w in range(_MAX_FACTOR_BITS + 1))


def _act(layer: UnitaryLayer, block: np.ndarray) -> np.ndarray:
    """Apply the layer to axis 0 of a (2^width, k) block.

    This is the only definition of each kind's action: `apply_layer` runs it
    on the target register and `materialize` on the identity.
    """
    if layer.kind is LayerKind.HADAMARD_ALL:
        return hadamard_transform(block)
    if layer.kind is LayerKind.QFT:
        return np.fft.ifft(block, axis=0, norm="ortho")
    if layer.kind is LayerKind.PHASE_DIAGONAL:
        modulus, exponents = layer.parameters
        exps = np.asarray(exponents, dtype=np.int64)
        if modulus == 2:
            diag = np.where(exps % 2 == 1, -1.0, 1.0)
        else:
            diag = np.exp(2j * np.pi * (exps % modulus) / modulus)
        return diag[:, None] * block
    if layer.kind is LayerKind.PERMUTATION:
        out = np.empty_like(block)
        out[np.asarray(layer.parameters)] = block
        return out
    return np.asarray(layer.parameters, dtype=np.complex128) @ block


def materialize(layer: UnitaryLayer) -> np.ndarray:
    """Dense matrix of the layer on its own 2^width-dimensional register."""
    return _act(layer, np.eye(1 << layer.width, dtype=np.complex128))


def apply_layer(state: PureState, layer: UnitaryLayer) -> PureState:
    """Apply the layer on its target qubits, identity elsewhere."""
    q = state.num_qubits
    for t in layer.target_qubits:
        if not 0 <= t < q:
            raise RegisterError(
                f"layer targets qubit {t} but the state has qubits 0..{q - 1}"
            )
    w = layer.width
    if w == 0:
        return state
    order = layer.target_qubits + tuple(j for j in range(q) if j not in layer.target_qubits)
    psi = state.amplitudes.reshape([2] * q).transpose(order)
    psi = _act(layer, psi.reshape(1 << w, -1)).reshape([2] * q)
    return PureState(q, psi.transpose(np.argsort(order)).reshape(-1))


def partial_trace(state: PureState, traced_qubits) -> DensityOperator:
    """Reduced operator after tracing out ``traced_qubits`` of |psi><psi|."""
    q = state.num_qubits
    traced = sorted(set(int(t) for t in traced_qubits))
    for t in traced:
        if not 0 <= t < q:
            raise RegisterError(f"cannot trace qubit {t}: state has qubits 0..{q - 1}")
    kept = [j for j in range(q) if j not in traced]
    psi = state.amplitudes.reshape([2] * q) if q else state.amplitudes.reshape(())
    m = np.transpose(psi, kept + traced).reshape(1 << len(kept), 1 << len(traced))
    rho = m @ m.conj().T
    return DensityOperator(rho)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the 1-norm of (a - b), via Hermitian eigendecomposition."""
    if a.dim != b.dim:
        raise RegisterError(f"dimension mismatch {a.dim} != {b.dim}")
    eigs = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.sum(np.abs(eigs)))


def register_permutation_operator(local_dim: int, copies: int, perm) -> np.ndarray:
    """Operator permuting tensor factors: |a_1..a_t> -> |a_{perm(1)}..a_{perm(t)}>.

    ``perm`` is 0-indexed: output slot j holds input component perm[j].
    A 0/1 float64 matrix.
    """
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(copies)):
        raise RegisterError(f"{perm} is not a permutation of 0..{copies - 1}")
    dim = local_dim**copies
    src = np.arange(dim)
    digits = [(src // local_dim ** (copies - 1 - j)) % local_dim for j in range(copies)]
    dst = sum(digits[perm[j]] * local_dim ** (copies - 1 - j) for j in range(copies))
    op = np.zeros((dim, dim))
    op[dst, src] = 1.0
    return op


def symmetric_subspace_dimension(local_dim: int, copies: int) -> int:
    return math.comb(local_dim + copies - 1, copies)


def _projector_peak_entries(dim: int, copies: int) -> int:
    """Upper estimate of `symmetric_projector`'s peak, in 16-byte units: the
    float64 matrix, what wrapping it in a DensityOperator holds, copies + 3
    int64 index arrays of dim entries, and 16 KiB of Python objects."""
    return dim * dim // 2 + _operator_build_entries(dim) + (copies + 3) * dim // 2 + (1 << 10)


def symmetric_projector(
    local_dim: int, copies: int, budget_override: int | None = None
) -> DensityOperator:
    """Unnormalized projector onto the symmetric subspace of `copies` factors.

    Averages all factor permutations; idempotent, trace C(D+t-1, t); float64.
    """
    if local_dim < 1 or copies < 1:
        raise RegisterError("local_dim and copies must be >= 1")
    dim = local_dim**copies
    check_complex_array(
        _projector_peak_entries(dim, copies),
        f"symmetric projector on ({local_dim})^{copies}",
        budget_override,
    )
    proj = np.zeros((dim, dim), dtype=np.float64)
    src = np.arange(dim)
    digits = [(src // local_dim ** (copies - 1 - j)) % local_dim for j in range(copies)]
    for perm in itertools.permutations(range(copies)):
        dst = sum(digits[perm[j]] * local_dim ** (copies - 1 - j) for j in range(copies))
        np.add.at(proj, (dst, src), 1.0)
    proj /= math.factorial(copies)
    return DensityOperator(proj, normalized=False)


def hadamard_transform(arr: np.ndarray) -> np.ndarray:
    """Apply H^{(x) m} along axis 0, a power-of-two axis; returns a new array.

    H^{(x) m} is the Kronecker product of H^{(x) w} factors, w at most
    _MAX_FACTOR_BITS and the widths as equal as possible, so each factor is
    one matrix product over its w bits of the axis-0 index.  Real input
    comes back float64, complex input complex128.  Holds the input and two
    intermediate copies at most.
    """
    x = np.asarray(arr)
    n = x.shape[0] if x.ndim else 0
    if n == 0 or n & (n - 1):
        raise RegisterError(f"axis length {n} is not a power of two")
    m = n.bit_length() - 1
    parts = max(1, -(-m // _MAX_FACTOR_BITS))
    cols = math.prod(x.shape[1:])
    out = x.astype(_real_or_complex(x), copy=False)
    done = 0
    for k in range(parts):
        w = m // parts + (k < m % parts)
        trail = (n >> (done + w)) * cols
        block = out.reshape(1 << done, 1 << w, trail)
        if trail == 1:  # H is symmetric: one (rows, 2^w) @ H, not a gemv per row
            out = block.reshape(1 << done, 1 << w) @ _WALSH_FACTORS[w]
        else:
            out = np.matmul(_WALSH_FACTORS[w], block)
        done += w
    return out.reshape(x.shape)


def hadamard_conjugate(matrix: np.ndarray) -> np.ndarray:
    """Conjugate a square matrix by H^{(x) m}: H M H as one Walsh transform
    of the flattened matrix, since H is real symmetric and so (H (x) H)
    maps vec(M) to vec(H M H) in row- and in column-major order alike.
    Flattening in the matrix's own memory order copies nothing; real input
    stays float64."""
    mat = np.asarray(matrix)
    order = "F" if np.isfortran(mat) else "C"
    return hadamard_transform(mat.ravel(order)).reshape(mat.shape, order=order)
