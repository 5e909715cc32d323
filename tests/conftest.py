import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


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
