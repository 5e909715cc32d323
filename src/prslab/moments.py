"""Exact and sampled t-copy ensemble moments, with a Haar-moment oracle.

Two independent routes compute the all-functions average of the t-fold
projector for sign-phase ensembles:

* brute force -- build every member state and average the outer products;
* XOR pairing -- group tuples of basis labels by the parity vector their
  phase exponents induce on the function table.  Averaging the sign over
  *all* functions kills every cross term whose parity vectors differ, so the
  exact moment is a sum of per-group outer products and never enumerates a
  single function.

The Haar moment is the normalized projector onto the symmetric subspace,
cross-checked by Monte Carlo averaging of random states.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sparse

from . import boolfn, corelin, expand
from .boolfn import BooleanFunction
from .budget import check_complex_array, check_enumeration
from .corelin import DensityOperator, PureState
from .expand import Source
from .prsgen import PrsKind

_MAX_KEY_BITS = 64  # XOR parity vectors are packed into uint64 words


class Method(Enum):
    BRUTE_FORCE = "brute_force"
    DELTA_PAIRING = "delta_pairing"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class ExhaustiveAllFunctions:
    def descriptor(self) -> dict:
        return {"space": "exhaustive"}


@dataclass(frozen=True)
class PrfKeys:
    count: int
    seed: int

    def descriptor(self) -> dict:
        return {"space": "prf", "count": self.count, "seed": self.seed}


@dataclass(frozen=True)
class UniformSample:
    count: int
    seed: int

    def descriptor(self) -> dict:
        return {"space": "uniform", "count": self.count, "seed": self.seed}


FunctionSpace = ExhaustiveAllFunctions | PrfKeys | UniformSample


@dataclass(frozen=True)
class MomentSpec:
    source: Source
    n: int
    t: int
    kind: PrsKind = PrsKind.BINARY_PHASE
    i: int | None = None
    ell: int | None = None
    function_space: FunctionSpace = field(default_factory=ExhaustiveAllFunctions)
    # reuse one drawn function for every block of a multi-block source;
    # offered as a variant to experiment with, with no agreement guarantee
    shared_key: bool = False

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"copy count must be >= 1, got {self.t}")
        expand.block_offsets(self.source, self.n, self.i, self.ell)  # checks the geometry
        if self.shared_key and self.source in (Source.PLAIN, Source.CONSTRUCTION1):
            raise ValueError(f"{self.source.value} draws one function per member already")

    @property
    def block_offsets(self) -> tuple[int, ...]:
        """Qubit offset of each n-wide block, in the order the circuit applies them."""
        return expand.block_offsets(self.source, self.n, self.i, self.ell)

    @property
    def output_qubits(self) -> int:
        return max(self.block_offsets) + self.n

    @property
    def functions_per_member(self) -> int:
        """Independent function draws per ensemble member: one per block, except
        construction1 (one function keys both blocks) and the shared-key variant."""
        if self.shared_key or self.source is Source.CONSTRUCTION1:
            return 1
        return len(self.block_offsets)

    def descriptor(self) -> dict:
        out = {"source": self.source.value, "kind": self.kind.value,
               "n": self.n, "t": self.t}
        if self.i is not None:
            out["i"] = self.i
        if self.ell is not None:
            out["ell"] = self.ell
        if self.shared_key:
            out["shared_key"] = True
        out.update(self.function_space.descriptor())
        return out


@dataclass(frozen=True)
class MomentReport:
    spec: MomentSpec
    method: Method
    moment: DensityOperator
    haar_distance: float
    runtime_ms: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.haar_distance <= 1.0 + 1e-12:
            raise ValueError(f"distance {self.haar_distance} outside [0, 1]")

    def to_json(self, include_matrix: bool = False, canonical_runtime: bool = False) -> str:
        payload = dict(self.spec.descriptor())
        payload.update(
            method=self.method.value,
            haar_distance=self.haar_distance,
            runtime_ms=0 if canonical_runtime else self.runtime_ms,
            seed=self.seed,
            dim=self.moment.dim,
        )
        if include_matrix:
            payload["moment_re"] = self.moment.matrix.real.tolist()
            payload["moment_im"] = self.moment.matrix.imag.tolist()
        return json.dumps(payload, sort_keys=True)


def member_functions(spec: MomentSpec):
    """Yield one function tuple per ensemble member (one entry per draw)."""
    n, m = spec.n, spec.kind.range_modulus(spec.n)
    draws = spec.functions_per_member
    space = spec.function_space
    if isinstance(space, ExhaustiveAllFunctions):
        per_draw = boolfn.function_count(n, m)
        check_enumeration(per_draw**draws, f"exhaustive ensemble n={n}, draws={draws}")
        # the first draw streams; only the other draws' tables are held
        rest = list(boolfn.enumerate_all(n, m)) if draws > 1 else ()
        for f in boolfn.enumerate_all(n, m):
            for tail in itertools.product(rest, repeat=draws - 1):
                yield (f,) + tail
    elif isinstance(space, PrfKeys):
        keys = boolfn.derive_keys(space.count * draws, space.seed, spec.source.value)
        for member in range(space.count):
            yield tuple(
                boolfn.prf_truth_table(keys[member * draws + b], n, m)
                for b in range(draws)
            )
    elif isinstance(space, UniformSample):
        rng = np.random.default_rng(space.seed)
        for _ in range(space.count):
            yield tuple(boolfn.random_function(n, m, rng) for _ in range(draws))
    else:  # pragma: no cover
        raise TypeError(f"unknown function space {space!r}")


def member_state(spec: MomentSpec, fns: tuple[BooleanFunction, ...]) -> PureState:
    """Single-copy ensemble member for one drawn function tuple."""
    return expand.evaluate(expand.circuit(spec.source, fns, spec.n, spec.kind, spec.i, spec.ell))


def _average_t_fold(chunks, t: int) -> DensityOperator:
    """Average of |v><v|^{(x) t} over the rows v of (rows, d) chunks, in the rows' dtype."""
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
    return DensityOperator(moment)


def _chunk_rows(dim: int) -> int:
    """Members per accumulation step: at most 64 MiB of t-fold rows and 1024 members."""
    return max(1, min(1024, (64 << 20) // (dim * 16)))


def _bruteforce_peak_entries(spec: MomentSpec) -> int:
    """Upper estimate of the brute-force route's peak, in 16-byte units: the
    d^t x d^t accumulator, then the larger of one chunk's step (the matmul
    temporary, the member rows as a list and as an array, the t-fold rows
    with their previous fold and their conjugate) and what wrapping the
    normalized accumulator in a DensityOperator holds, plus 1 MiB of numpy
    ufunc buffers and Python objects.  Entries are complex128 for the
    general kind and float64 for sign phases."""
    local_dim = 1 << spec.output_qubits
    dim = local_dim**spec.t
    complex_ = spec.kind is PrsKind.GENERAL_PHASE
    per_unit = 1 if complex_ else 2  # entries per 16 bytes
    chunk = _chunk_rows(dim) * (2 * local_dim + 2 * dim + dim // local_dim)
    step = (2 * dim * dim + chunk) // per_unit
    build = dim * dim // per_unit + corelin._operator_build_entries(dim, complex_)
    return max(step, build) + (1 << 16)


def ensemble_moment_over_functions(
    spec: MomentSpec, function_tuples, budget_override: int | None = None
) -> DensityOperator:
    """Average the t-fold projectors of the members drawn from an iterable."""
    dim = 1 << (spec.output_qubits * spec.t)
    check_complex_array(_bruteforce_peak_entries(spec), f"moment accumulation peak, dim {dim}",
                        budget_override)
    chunk_rows = _chunk_rows(dim)
    states = (member_state(spec, fns).amplitudes for fns in function_tuples)
    chunks = iter(lambda: list(itertools.islice(states, chunk_rows)), [])
    return _average_t_fold(map(np.array, chunks), spec.t)


def ensemble_moment_bruteforce(
    spec: MomentSpec, budget_override: int | None = None
) -> DensityOperator:
    """Exact (exhaustive space) or empirical (sampled space) ensemble average."""
    return ensemble_moment_over_functions(spec, member_functions(spec), budget_override)


def _pairing_peak_entries(spec: MomentSpec) -> int:
    """Upper estimate of the pairing route's peak allocation, in 16-byte
    units: at most 96 bytes per tuple while tuples are keyed and grouped,
    then the float64 d^t x d^t moment together with the larger of the
    Hadamard conjugation's two intermediate copies (every source but plain)
    and what wrapping the result in a DensityOperator holds, plus 1 MiB of
    numpy ufunc buffers."""
    tuples = 1 << (spec.n * len(spec.block_offsets) * spec.t)
    dim = 1 << (spec.output_qubits * spec.t)
    dense = dim * dim // 2
    conjugation = 0 if spec.source is Source.PLAIN else 2 * dense
    return 6 * tuples + dense + max(conjugation, corelin._operator_build_entries(dim)) + (1 << 16)


def ensemble_moment_deltapair(
    spec: MomentSpec, budget_override: int | None = None
) -> DensityOperator:
    """All-functions moment via XOR-vector grouping; no function enumeration.

    Sign-phase kind, exhaustive space, any source.  Each block is a Hadamard
    layer on its n targets then a sign phase, so a path through the t copies
    picks one n-bit label b per block and copy (the next n bits of the tuple
    index).  The Hadamard layer signs the path by (-1)^(targets.b) for the
    label it meets and writes b over its targets; the phase's (-1)^f(b) enters
    the key as the one-hot bit of b in the word of the block's function draw.
    Before the final Hadamard layer the moment is G^T G / 2^(tuple bits), G
    the signed key-by-label path matrix.  Agrees with brute force up to rounding.
    """
    if spec.kind is not PrsKind.BINARY_PHASE:
        raise ValueError("pairing route requires the sign-phase kind")
    if not isinstance(spec.function_space, ExhaustiveAllFunctions):
        raise ValueError("pairing route computes the exhaustive all-functions average")
    n, t, q = spec.n, spec.t, spec.output_qubits
    offsets, draws = spec.block_offsets, spec.functions_per_member
    if draws << n > _MAX_KEY_BITS:
        raise ValueError(
            f"parity vectors need {draws << n} bits; the pairing route packs them "
            f"into one {_MAX_KEY_BITS}-bit key"
        )
    check_complex_array(_pairing_peak_entries(spec), "pairing route peak", budget_override)

    tuple_bits = n * len(offsets) * t
    idx = np.arange(1 << tuple_bits, dtype=np.uint64)
    keys = np.zeros_like(idx)
    cols = np.zeros_like(idx)
    parity = np.zeros(idx.shape, dtype=np.uint8)
    mask_n = np.uint64((1 << n) - 1)
    one = np.uint64(1)
    shift = tuple_bits
    for j in range(t):
        label = np.zeros_like(idx)
        for k, offset in enumerate(offsets):
            shift -= n
            b = (idx >> np.uint64(shift)) & mask_n
            low = np.uint64(q - offset - n)  # bit position of the block's last qubit
            parity ^= np.bitwise_count((label >> low) & b)
            label = (label & ~(mask_n << low)) | (b << low)
            keys ^= one << (b + np.uint64((k % draws) << n))
        cols |= label << np.uint64(q * (t - 1 - j))
    _, inverse = np.unique(keys, return_inverse=True)
    groups = sparse.coo_matrix(
        (1.0 - 2.0 * (parity & 1), (inverse, cols.astype(np.int64))),
        shape=(int(inverse.max()) + 1, 1 << (q * t)),
    ).tocsr()
    del idx, keys, cols, parity, label, b, inverse  # the dense stage needs only G

    matrix = (groups.T @ groups).toarray()
    matrix /= 1 << tuple_bits
    trace = float(np.trace(matrix))
    if abs(trace - 1.0) > 1e-9:
        raise AssertionError(f"pairing moment trace {trace} deviates from 1")
    if spec.source is not Source.PLAIN:
        matrix = corelin.hadamard_conjugate(matrix)
    return DensityOperator(matrix)


def haar_moment(
    local_dim: int, copies: int, budget_override: int | None = None
) -> DensityOperator:
    """Average t-fold projector of a Haar-random state: the normalized
    symmetric-subspace projector."""
    proj = corelin.symmetric_projector(local_dim, copies, budget_override)
    matrix = proj.matrix / corelin.symmetric_subspace_dimension(local_dim, copies)
    del proj  # so the peak stays the projector's own, which its budget check covers
    return DensityOperator(matrix)


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


def compare_to_haar(
    spec: MomentSpec, method: Method, budget_override: int | None = None
) -> MomentReport:
    """Compute the ensemble moment by the chosen route and its distance to
    the Haar moment.  Deterministic given the function-space seed."""
    sampled = not isinstance(spec.function_space, ExhaustiveAllFunctions)
    if method is Method.MONTE_CARLO and not sampled:
        raise ValueError("monte_carlo labels sampled ensembles; space is exhaustive")
    if method is Method.BRUTE_FORCE and sampled:
        raise ValueError("brute_force labels exhaustive ensembles; use monte_carlo")
    start = time.perf_counter()
    if method is Method.DELTA_PAIRING:
        moment = ensemble_moment_deltapair(spec, budget_override)
    else:
        moment = ensemble_moment_bruteforce(spec, budget_override)
    haar = haar_moment(1 << spec.output_qubits, spec.t, budget_override)
    distance = corelin.trace_distance(moment, haar)
    runtime_ms = int(round((time.perf_counter() - start) * 1000))
    seed = getattr(spec.function_space, "seed", 0)
    return MomentReport(spec, method, moment, float(distance), runtime_ms, seed)
