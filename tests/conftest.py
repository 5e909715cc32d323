"""Fixtures, assertions and the oracles that only the tests use."""

import functools
import itertools
import math
import operator
import tracemalloc
from collections import Counter
from collections.abc import Sequence

import numpy as np
import pytest

from prslab.boolfn import BooleanFunction
from prslab import corelin
from prslab.corelin import (
    DensityOperator, PureState, RegisterError, UnitaryLayer, _act, _walsh, hadamard_matrix,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return PureState(num_qubits, v / np.linalg.norm(v))


def basis_state(num_qubits: int, index: int) -> PureState:
    """The float64 basis state |index> on `num_qubits` qubits."""
    if not 0 <= index < (1 << num_qubits):
        raise RegisterError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits)
    amps[index] = 1.0
    return PureState(num_qubits, amps)


def materialize(layer: UnitaryLayer) -> np.ndarray:
    """Dense matrix of the layer on its own 2^width-dimensional register
    (a stack of them, one per member, for a batched phase table): the
    layer's one kernel applied to the identity."""
    dim = 1 << layer.width
    eye = np.eye(dim, dtype=np.complex128).reshape(1, 1, dim, dim)
    return _act(layer, eye).reshape(layer.batch_shape + (dim, dim))


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


def _oracle_classes(local_dim: int, copies: int) -> tuple[np.ndarray, np.ndarray]:
    """The multiset class of each of the d^t labels and the D class sizes,
    the classes in the order of their sorted digits, by `np.unique`."""
    dim, shape = local_dim**copies, (local_dim,) * copies
    multisets = np.array(np.unravel_index(np.arange(dim), shape))
    multisets.sort(axis=0)
    _, classes, sizes = np.unique(np.ravel_multi_index(multisets, shape),
                                  return_inverse=True, return_counts=True)
    return classes, sizes


def symmetric_isometry(local_dim: int, copies: int) -> np.ndarray:
    """The dense d^t x D isometry V onto the symmetric subspace.

    Row k has one nonzero, 1/sqrt(class size), in the column of the multiset
    class of k's digit tuple; the columns are the classes in the order of
    their sorted digits.  V^T V is the D x D identity and V V^T the
    projector `symmetric_projector` builds.
    """
    classes, sizes = _oracle_classes(local_dim, copies)
    iso = np.zeros((len(classes), len(sizes)))
    iso[np.arange(len(classes)), classes] = 1.0 / np.sqrt(sizes[classes])
    return iso


def class_scale(local_dim: int, copies: int) -> np.ndarray:
    """sqrt(c_a) for the D class sizes c, in class order: the scale that
    reads a class Gram G as the compression V^T rho V = sqrt(c_a c_b) G."""
    return np.sqrt(_oracle_classes(local_dim, copies)[1])


def compression(moment) -> DensityOperator:
    """The D x D compression V^T rho V of a `SymmetricMoment`, in closed
    form: its class Gram scaled by `class_scale`, rows first, the two
    products `corelin.trace_distance` applies to the Gram that
    `compare_to_haar` hands it, so a distance to this operator is the
    comparison's bit for bit.  `TestHandOver` checks it against the
    isometry product."""
    scale = class_scale(moment.local_dim, moment.copies)
    scaled = moment.gram * scale[:, None]
    scaled *= scale
    return DensityOperator(scaled)


def haar_operands(moment) -> tuple[DensityOperator, float, np.ndarray]:
    """The operands `compare_to_haar` hands `corelin.trace_distance` besides
    the generators: the moment's class Gram, unnormalized, the Haar
    moment's compression I/D as the float 1/D, and `class_scale`."""
    return (DensityOperator(moment.gram, normalized=False), 1.0 / len(moment.gram),
            class_scale(moment.local_dim, moment.copies))


def dense_trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the 1-norm of a - b from one eigensolve of the whole difference:
    the oracle of `corelin.trace_distance`, which solves it block by block."""
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix))))


def searched_pauli_symmetries(compressed: np.ndarray, local_dim: int, copies: int,
                              atol: float = 0.0) -> set[tuple[int, int]]:
    """Every X_b Z_s, as a (b, s) label pair, whose t-fold power commutes
    with the D x D Sym^t compression of a t-copy moment: a search over all
    d^2 strings.  The oracle of `expand.pauli_symmetries`, which derives the
    group from the layout alone.

    A string acts on the classes, the sorted digit tuples in lexicographic
    order, as a signed permutation: the class of digits x_j goes to the
    class of the digits x_j ^ b, with the sign (-1)^(s . (x_1 ^ ... ^ x_t)).
    It commutes when C[p(a), p(c)] = sign(a) sign(c) C[a, c] on every entry,
    within `atol`.  The diagonal and one row are compared first, to pass
    over most strings at once.  A string that passes them is confirmed on
    every entry, 64 rows at a time, unless it is a product of confirmed
    strings: a product of strings that commute with C commutes with it,
    and X_b Z_s X_b' Z_s' is X_(b ^ b') Z_(s ^ s') up to a phase."""
    tuples = list(itertools.combinations_with_replacement(range(local_dim), copies))
    index = {digits: k for k, digits in enumerate(tuples)}
    parity = np.array([functools.reduce(operator.xor, digits) for digits in tuples])
    diagonal, found, confirmed = compressed.diagonal(), set(), {(0, 0)}

    def commutes(perm, sign, rows):
        moved = compressed[perm[rows]][:, perm]
        return np.max(np.abs(moved - compressed[rows] * sign[rows, None] * sign)) <= atol

    for b in range(local_dim):
        perm = np.array([index[tuple(sorted(x ^ b for x in digits))] for digits in tuples])
        if not np.max(np.abs(diagonal[perm] - diagonal)) <= atol:
            continue
        for s in range(local_dim):
            sign = 1.0 - 2.0 * (np.bitwise_count(parity & s) & 1)
            if not commutes(perm, sign, slice(0, 1)):
                continue
            if (b, s) not in confirmed:
                if not all(commutes(perm, sign, slice(start, start + 64))
                           for start in range(0, len(tuples), 64)):
                    continue
                confirmed |= {(x ^ b, z ^ s) for x, z in confirmed}
            found.add((b, s))
    return found


def pauli_span(generators) -> set[tuple[int, int]]:
    """The (b, s) pairs of every product of the generators X_b Z_s, up to phase."""
    group = {(0, 0)}
    for b, s in generators:
        group |= {(x ^ b, z ^ s) for x, z in group}
    return group


def hadamard_conjugate(matrix: np.ndarray) -> np.ndarray:
    """Conjugate a square float64 or complex128 matrix by H^{(x) m} in place
    and return the same buffer: M H, then H (M H), two `_walsh` passes over
    the whole matrix: the final Hadamard layer on a moment, which every
    route holds before that layer.  A Fortran-ordered matrix is
    conjugated through its transpose, as H M^T H = (H M H)^T; a read-only
    matrix or a strided view is refused."""
    if not (isinstance(matrix, np.ndarray) and matrix.flags.writeable
            and (matrix.flags.c_contiguous or matrix.flags.f_contiguous)):
        raise ValueError("hadamard_conjugate works in place and needs a writable C- or "
                         "Fortran-ordered array, not a read-only array or a strided view")
    if matrix.dtype not in (np.float64, np.complex128):
        raise ValueError(f"hadamard_conjugate needs float64 or complex128, got {matrix.dtype}")
    mat = matrix.T if np.isfortran(matrix) else matrix
    dim = len(mat)
    if mat.shape != (dim, dim) or not dim or dim & (dim - 1):
        raise RegisterError(f"expected a square matrix of power-of-two side, got {mat.shape}")
    _walsh(mat, 1)  # H is symmetric: row r of M H is H applied to row r
    _walsh(mat, 0)
    return matrix


def filtered_pairing_tuples(spec):
    """(key, class, odd) of every pairing path tuple whose column is its
    Sym^t class's sorted-digit label: the key loop run over all
    2^(n blocks t) tuples, then filtered.  The oracle of
    `moments._class_tuples`, which keys one copy and joins the copies in
    non-decreasing label order."""
    layout, n, t, q = spec.layout, spec.n, spec.t, spec.layout.qubits
    tuple_bits, dim = n * len(layout.offsets) * t, 1 << (q * t)
    idx = np.arange(1 << tuple_bits, dtype=np.uint64)
    keys = np.zeros_like(idx)
    cols = np.zeros_like(idx)
    parity = np.zeros(idx.shape, dtype=np.uint8)
    mask_n = np.uint64((1 << n) - 1)
    one = np.uint64(1)
    shift = tuple_bits
    for j in range(t):
        label = np.zeros_like(idx)
        for offset, draw in zip(layout.offsets, layout.keys):
            shift -= n
            b = (idx >> np.uint64(shift)) & mask_n
            low = np.uint64(q - offset - n)
            parity ^= np.bitwise_count((label >> low) & b)
            label = (label & ~(mask_n << low)) | (b << low)
            keys ^= one << (b + np.uint64(draw << n))
        cols |= label << np.uint64(q * (t - 1 - j))
    labels, _ = corelin._symmetric_classes(1 << q, t)
    classes = np.empty(dim, dtype=np.int64)
    classes[labels] = np.arange(labels.shape[1])
    cols = cols.view(np.int64)
    cls = classes[cols]
    keep = labels[0, cls] == cols
    return keys[keep], cls[keep], parity[keep] & 1


def dense_pairing_moment(spec, final_layer: bool = False) -> np.ndarray:
    """The pairing moment from a dense key-group x d^t matrix G over every
    tuple of block labels: G^T G / 2^(tuple bits), held before the final
    layer as the route holds it, or conjugated by H^{(x) q} on each copy
    with `final_layer` when the layout ends in a Hadamard layer.

    The oracle of `ensemble_moment_deltapair`, which keeps one label per
    Sym^t class and joins the key groups with themselves.  Here a tuple is a
    row of (copy, block) labels, its register a bit matrix walked block by
    block, and its key a boolean parity vector over every draw's labels.
    For even q every entry is a dyadic rational that float64 holds exactly,
    so the result does not depend on the order of the sums.
    """
    layout, n, t = spec.layout, spec.n, spec.t
    q, blocks, width = layout.qubits, len(layout.offsets), 1 << n
    tuples = width ** (blocks * t)
    rows = np.arange(tuples)
    labels = rows[:, None] // width ** np.arange(blocks * t - 1, -1, -1) % width
    key = np.zeros((tuples, layout.draws * width), dtype=bool)
    odd = np.zeros(tuples, dtype=bool)
    col = np.zeros(tuples, dtype=np.int64)
    for copy in range(t):
        register = np.zeros((tuples, q), dtype=bool)
        for k, (offset, draw) in enumerate(zip(layout.offsets, layout.keys)):
            label = labels[:, copy * blocks + k]
            b = (label[:, None] >> np.arange(n - 1, -1, -1)) & 1 == 1
            odd ^= np.logical_xor.reduce(register[:, offset:offset + n] & b, axis=1)
            register[:, offset:offset + n] = b
            key[rows, draw * width + label] ^= True
        col = col << q | register @ (1 << np.arange(q - 1, -1, -1))
    # key groups: sort the packed parity vectors and number the distinct ones
    packed = np.packbits(key, axis=1)
    order = np.lexsort(packed.T[::-1])
    new = np.any(packed[order[1:]] != packed[order[:-1]], axis=1)
    group = np.empty(tuples, dtype=np.int64)
    group[order] = np.concatenate(([0], np.cumsum(new)))
    dim, local_dim = 1 << (q * t), 1 << q
    g = np.zeros((group.max() + 1, dim))
    np.add.at(g, (group, col), np.where(odd, -1.0, 1.0))
    moment = g.T @ g / tuples
    if layout.final_layer and final_layer:
        h = hadamard_matrix(q)
        for axis in range(2 * t):
            moment = np.matmul(h, moment.reshape(local_dim**axis, local_dim, -1))
        moment = moment.reshape(dim, dim)
    return moment


def average_t_fold(chunks, t: int) -> DensityOperator:
    """Average of |v><v|^{(x) t} over the rows v of (rows, d) chunks, in the
    rows' dtype: every row's whole d^t-entry t-fold product, and a d^t x d^t
    accumulator.  The dense oracle of `moments._average_symmetric_fold`,
    which accumulates in Sym^t."""
    moment = None
    count = 0
    for vs in chunks:
        folded = vs
        for _ in range(t - 1):
            folded = np.einsum("ka,kb->kab", folded, vs).reshape(len(vs), -1)
        if moment is None:
            moment = np.zeros((folded.shape[1],) * 2, dtype=folded.dtype)
        moment += folded.T @ folded.conj()
        count += len(vs)
    if count == 0:
        raise ValueError("empty ensemble")
    moment /= count
    moment.setflags(write=False)  # handed over to the operator, not copied
    return DensityOperator(moment)


def constant_function(n: int, m: int = 2, value: int = 0) -> BooleanFunction:
    return BooleanFunction(n, m, (value,) * (1 << n))


def haar_moment_monte_carlo(
    local_dim: int, copies: int, samples: int, seed: int
) -> DensityOperator:
    """Empirical t-fold moment over random states (secondary oracle)."""
    rng = np.random.default_rng(seed)
    chunk = max(1, min(samples, (32 << 20) // (local_dim**copies * 16)))

    def gaussian_chunks():
        for done in range(0, samples, chunk):
            rows = min(chunk, samples - done)
            states = rng.standard_normal((rows, local_dim)) + 1j * rng.standard_normal(
                (rows, local_dim)
            )
            yield states / np.linalg.norm(states, axis=1, keepdims=True)

    return average_t_fold(gaussian_chunks(), copies)


def recombination_elements(
    x_prime: Sequence[str], y: Sequence[str], n: int, i: int
) -> list[str]:
    """The 2t n-bit strings {x'_j + head(y_j)} and {y_j}, in pair order."""
    out = []
    for xpj, yj in zip(x_prime, y):
        out.append(xpj + yj[: n - i])
        out.append(yj)
    return out


def closed_form_good_size(n: int, i: int, t: int) -> int:
    """The good-set census size without a tuple scan: t! e_t(a) 2^(it).

    a_h counts the n-bit strings with head h (their first n - i bits) whose
    last n - 2i bits differ from their first n - 2i bits.  A good y-tuple
    picks t distinct heads in order and one such string under each, so the
    y-tuples number t! times the t-th elementary symmetric polynomial of the
    a_h, and every x' tuple of 2^(it) goes with each."""
    w = n - 2 * i
    per_head = Counter(s[: n - i] for s in ("".join(b) for b in itertools.product("01", repeat=n))
                       if s[n - w:] != s[:w])
    elementary = [1] + [0] * t
    for a in per_head.values():
        for k in range(t, 0, -1):
            elementary[k] += elementary[k - 1] * a
    return math.factorial(t) * elementary[t] << (i * t)


def closed_form_construction1_loops(f: BooleanFunction, n: int, i: int) -> PureState:
    """The two-block overlap circuit's amplitude sum as a loop over every
    (x', y, x''): (-1)^(f(x'x'') + y.(x''0^i) + f(y)) / 2^n at |x'>|y>,
    summed over x'', then the final Hadamard layer."""
    q = n + i
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
    return corelin.apply_layer(state, corelin.hadamard_all_layer(tuple(range(q))))


def round_trip_lists(witness) -> bool:
    """A recombination witness's round trip on whole lists: the joined values
    x << n | y are distinct and split back into the witness's xs and ys."""
    n = witness.n
    joined = [x << n | y for x, y in zip(witness.xs, witness.ys)]
    low = (1 << n) - 1
    return (len(set(joined)) == len(joined) and [v >> n for v in joined] == list(witness.xs)
            and [v & low for v in joined] == list(witness.ys))


def assert_vectors_close(a, b, atol):
    __tracebackhide__ = True
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    assert a.shape == b.shape, f"shape mismatch {a.shape} vs {b.shape}"
    dev = float(np.max(np.abs(a - b))) if a.size else 0.0
    assert dev <= atol, f"max deviation {dev:.3e} exceeds {atol:.1e}"


def assert_matrices_close(a, b, atol):
    __tracebackhide__ = True
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.shape == b.shape, f"shape mismatch {a.shape} vs {b.shape}"
    dev = float(np.max(np.abs(a - b)))
    assert dev <= atol, f"max deviation {dev:.3e} exceeds {atol:.1e}"


def measured_peak(call):
    """Peak bytes tracemalloc sees while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
