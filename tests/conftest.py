"""Fixtures, assertions and the oracles that only the tests use."""

import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest

from prslab.boolfn import BooleanFunction
from prslab.corelin import DensityOperator, PureState, RegisterError
from prslab.moments import _average_t_fold


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


def symmetric_isometry(local_dim: int, copies: int) -> np.ndarray:
    """The dense d^t x D isometry V onto the symmetric subspace.

    Row k has one nonzero, 1/sqrt(class size), in the column of the multiset
    class of k's digit tuple; the columns are the classes in the order of
    their sorted digits.  V^T V is the D x D identity and V V^T the
    projector `symmetric_projector` builds.
    """
    dim, shape = local_dim**copies, (local_dim,) * copies
    multisets = np.array(np.unravel_index(np.arange(dim), shape))
    multisets.sort(axis=0)
    _, classes, sizes = np.unique(np.ravel_multi_index(multisets, shape),
                                  return_inverse=True, return_counts=True)
    iso = np.zeros((dim, len(sizes)))
    iso[np.arange(dim), classes] = 1.0 / np.sqrt(sizes[classes])
    return iso


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

    return _average_t_fold(gaussian_chunks(), copies)


def recombination_elements(
    x_prime: Sequence[str], y: Sequence[str], n: int, i: int
) -> list[str]:
    """The 2t n-bit strings {x'_j + head(y_j)} and {y_j}, in pair order."""
    out = []
    for xpj, yj in zip(x_prime, y):
        out.append(xpj + yj[: n - i])
        out.append(yj)
    return out


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
