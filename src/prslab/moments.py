"""Exact and sampled t-copy ensemble moments, with a Haar-moment oracle.

Two independent routes compute the all-functions average of the t-fold
projector for sign-phase ensembles:

* brute force -- run the members through their circuit as one batch per
  accumulation chunk and average the outer products of the rows;
* XOR pairing -- group tuples of basis labels by the parity vector their
  phase exponents induce on the function table.  Averaging the sign over
  *all* functions kills every cross term whose parity vectors differ, so the
  exact moment is a sum of per-group outer products and never enumerates a
  single function.

The Haar moment is the normalized projector onto the symmetric subspace;
the tests cross-check it by Monte Carlo averaging of random states.  Every
ensemble moment lies in that subspace too, of dimension D = C(d+t-1, t), so
the distance to the Haar moment is taken on the D x D compressions of the
two operators; the dense d^t x d^t `corelin.trace_distance` is kept as the
oracle the compressed distance is tested against.  `compare_to_haar` builds
and compresses the Haar moment first and drops its d^t x d^t form before
the route runs, and each route builds its moment in one array that it
freezes and hands to its DensityOperator, so a comparison holds one
d^t x d^t matrix at a time.  The compression is an index gather
(`corelin.symmetric_compression`), so the pairing route's sparse products
G[:, rows]^T G are the only code that imports scipy, and only when it runs.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import boolfn, corelin, expand
from .boolfn import BooleanFunction
from .budget import check_complex_array, check_enumeration
from .corelin import DensityOperator, PureState
from .expand import Layout, Source  # Source is re-exported for MomentSpec users
from .prsgen import PrsKind

_MAX_KEY_BITS = 64  # XOR parity vectors are packed into uint64 words

_function_shape = operator.attrgetter("input_bits", "range_modulus")


class Method(Enum):
    BRUTE_FORCE = "brute_force"
    DELTA_PAIRING = "delta_pairing"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class ExhaustiveAllFunctions:
    """Every tuple of functions once, in table order: the exact average; seed 0."""

    seed: ClassVar[int] = 0

    def descriptor(self) -> dict:
        return {"space": "exhaustive"}

    def members(self, n: int, m: int, draws: int = 1, label: str = "prs"):
        """Tuples of `draws` functions mod m on n bits, one per member."""
        check_enumeration(boolfn.function_count(n, m)**draws,
                          f"exhaustive ensemble n={n}, draws={draws}")
        # the first draw streams; only the other draws' tables, and their tuples, are held
        tails = (list(itertools.product(boolfn.enumerate_all(n, m), repeat=draws - 1))
                 if draws > 1 else [()])
        for f in boolfn.enumerate_all(n, m):
            for tail in tails:
                yield (f,) + tail


@dataclass(frozen=True)
class _SampledSpace:
    """`count` members drawn from `seed`: a whole count >= 1, a whole seed in the
    [lowest, highest) `seeds` its draw can use, and count * draws tables capped."""

    count: int
    seed: int
    name: ClassVar[str]
    seeds: ClassVar[tuple]

    def __post_init__(self):
        for what, value, (low, high) in (("count", self.count, (1, math.inf)),
                                         ("seed", self.seed, self.seeds)):
            if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
                raise ValueError(f"the {self.name} {what} must be a whole number in "
                                 f"[{low}, {high}), got {value!r}")

    def descriptor(self) -> dict:
        return {"space": self.name, "count": self.count, "seed": self.seed}

    def members(self, n: int, m: int, draws: int = 1, label: str = "prs"):
        """Tuples of `draws` functions mod m on n bits, one per member; PRF keys carry `label`."""
        check_enumeration(self.count * draws,
                          f"{self.name} ensemble of {self.count} members, draws={draws}")
        yield from self._draw(n, m, draws, label)


@dataclass(frozen=True)
class PrfKeys(_SampledSpace):
    """PRF tables under keys derived from the seed, packed into 8 signed
    bytes, and labelled by the source."""

    name, seeds = "prf", (-(1 << 63), 1 << 63)

    def _draw(self, n, m, draws, label):
        keys = boolfn.derive_keys(self.count * draws, self.seed, label)
        for start in range(0, len(keys), draws):
            yield tuple(boolfn.prf_truth_table(key, n, m) for key in keys[start:start + draws])


@dataclass(frozen=True)
class UniformSample(_SampledSpace):
    """Uniform tables from numpy's generator, which takes any seed >= 0."""

    name, seeds = "uniform", (0, math.inf)

    def _draw(self, n, m, draws, label):
        rng = np.random.default_rng(self.seed)
        for _ in range(self.count):
            yield tuple(boolfn.random_function(n, m, rng) for _ in range(draws))


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
        if not isinstance(self.function_space, FunctionSpace):
            raise ValueError(f"unknown function space {self.function_space!r}")
        self.layout  # built here, so a bad geometry or shared key is refused at once

    @cached_property
    def layout(self) -> Layout:
        return expand.layout(self.source, self.n, self.i, self.ell, self.shared_key)

    def descriptor(self) -> dict:
        """The spec's fields, leaving out an unset i or ell and a shared key that is off."""
        out = {"source": self.source.value, "kind": self.kind.value, "n": self.n, "t": self.t,
               "i": self.i, "ell": self.ell, "shared_key": self.shared_key or None}
        out = {key: value for key, value in out.items() if value is not None}
        return out | self.function_space.descriptor()


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

    def to_json(self, canonical_runtime: bool = False) -> str:
        return json.dumps(self.spec.descriptor() | {
            "method": self.method.value, "haar_distance": self.haar_distance,
            "runtime_ms": 0 if canonical_runtime else self.runtime_ms,
            "seed": self.seed, "dim": self.moment.dim,
        }, sort_keys=True)


def member_functions(spec: MomentSpec):
    """Yield one function tuple per ensemble member (one entry per draw)."""
    yield from spec.function_space.members(spec.n, spec.kind.range_modulus(spec.n),
                                           spec.layout.draws, spec.source.value)


def member_state(spec: MomentSpec, fns: tuple[BooleanFunction, ...]) -> PureState:
    """Single-copy ensemble member for one drawn function tuple; for a tuple
    of function batches, the batch of members, one row each."""
    return expand.evaluate(expand.circuit(spec.layout, fns, spec.kind))


def member_states(spec: MomentSpec, function_tuples) -> PureState:
    """The members of a non-empty iterable of function tuples as the rows of
    one batch state: the tables stacked into a (members, draws, 2^n) array,
    each draw one batch function, and the spec's circuit run once over them."""
    members = list(function_tuples)
    shapes = set(map(_function_shape, itertools.chain.from_iterable(members)))
    if len(shapes) != 1:
        raise ValueError(f"a batch needs functions of one (n, m), got {sorted(shapes)}")
    ((n, m),) = shapes
    tables = np.array([[f.table for f in fns] for fns in members])
    del members  # the circuit needs only the stacked tables
    return member_state(spec, tuple(BooleanFunction(n, m, tables[:, d])
                                    for d in range(tables.shape[1])))


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
    moment.setflags(write=False)  # handed over to the operator, not copied
    return DensityOperator(moment)


def _chunk_rows(dim: int) -> int:
    """Members per accumulation step: at most 64 MiB of t-fold rows and 1024 members."""
    return max(1, min(1024, (64 << 20) // (dim * 16)))


def _spec_chunk_rows(spec: MomentSpec) -> int:
    """Members per accumulation step for the spec: `_chunk_rows`, or fewer
    for a sampled space with fewer members, so that the peak estimate counts
    only rows that exist; the spec's own members fall into the same chunks."""
    rows = _chunk_rows(1 << (spec.layout.qubits * spec.t))
    space = spec.function_space
    return rows if isinstance(space, ExhaustiveAllFunctions) else min(rows, space.count)


_PRF_KEY_ENTRIES = 10  # 16-byte units per listed PrfKey: about 146 bytes by tracemalloc


def _bruteforce_peak_entries(spec: MomentSpec) -> int:
    """Upper estimate of the brute-force route's peak, in 16-byte units: the
    d^t x d^t accumulator, then the largest of one chunk's evaluation, one
    chunk's accumulation (the matmul temporary, the member rows, the t-fold
    rows with their previous fold and their conjugate) and what wrapping
    the normalized accumulator in a DensityOperator holds, plus 512 KiB of
    numpy ufunc buffers and Python objects.  The evaluation holds the
    chunk's tables, stacked and copied into batch functions, and what
    `expand.evaluate` holds for the chunk.  An exhaustive space also holds
    the block of tables `boolfn.enumerate_all` is yielding from and, for
    more than one draw, the block the other draws' tables were listed from
    and, for the whole run, the list of their tuples (48 bytes and 8 per
    draw each); a PRF space holds its list of count * draws keys for the
    whole run (`_PRF_KEY_ENTRIES` each).
    Entries are complex128 for the general kind and float64 for sign
    phases; table entries are int64."""
    layout = spec.layout
    local_dim = 1 << layout.qubits
    dim = local_dim**spec.t
    rows = _spec_chunk_rows(spec)
    complex_ = spec.kind is PrsKind.GENERAL_PHASE
    per_unit = 1 if complex_ else 2  # entries per 16 bytes
    tables = rows * layout.draws << spec.n  # two int64 copies: one unit each
    space = spec.function_space
    held = 0  # what the space holds for the whole run
    if isinstance(space, ExhaustiveAllFunctions):
        count = boolfn.function_count(spec.n, spec.kind.range_modulus(spec.n))
        block = min(count, boolfn._DECODE_ROWS) << spec.n
        tables += block // 2 * min(2, layout.draws)
        held = count ** (layout.draws - 1) * (layout.draws + 6) // 2
    elif isinstance(space, PrfKeys):
        held = _PRF_KEY_ENTRIES * space.count * layout.draws
    evaluation = tables + expand._evaluation_peak_entries(layout, rows, complex_)
    accumulation = (dim * dim + rows * (local_dim + 2 * dim + dim // local_dim)) // per_unit
    build = corelin._operator_build_entries(dim, complex_)
    return dim * dim // per_unit + held + max(evaluation, accumulation, build) + (1 << 15)


def ensemble_moment_over_functions(spec: MomentSpec, function_tuples) -> DensityOperator:
    """Average the t-fold projectors of the members drawn from an iterable."""
    dim = 1 << (spec.layout.qubits * spec.t)
    check_complex_array(_bruteforce_peak_entries(spec), f"moment accumulation peak, dim {dim}")
    chunk_rows = _spec_chunk_rows(spec)
    tuples = iter(function_tuples)
    # each chunk is read to its end before the next one starts
    chunks = (itertools.chain((first,), itertools.islice(tuples, chunk_rows - 1))
              for first in tuples)
    return _average_t_fold((member_states(spec, chunk).amplitudes for chunk in chunks), spec.t)


def ensemble_moment_bruteforce(spec: MomentSpec) -> DensityOperator:
    """Exact (exhaustive space) or empirical (sampled space) ensemble average."""
    return ensemble_moment_over_functions(spec, member_functions(spec))


def _densify_rows(dim: int) -> int:
    """Rows of the dim x dim pairing moment that one sparse product fills: a
    sixteenth of them, so the product's block stays small beside the moment."""
    return max(1, dim // 16)


def _pairing_peak_entries(spec: MomentSpec) -> int:
    """Upper estimate of the pairing route's peak allocation, in 16-byte
    units: the larger of at most 96 bytes per tuple while tuples are keyed
    and grouped, and the float64 d^t x d^t moment beside the larger of
    what filling it holds (G in csr and csc form, at most one 12-byte
    entry per tuple each, and one block of rows as a sparse product, at
    most 12 bytes per entry) and what the in-place Hadamard conjugation
    holds when the layout ends with the Fourier layer, plus 1 MiB of numpy
    ufunc buffers and of what wrapping the moment in a DensityOperator holds
    besides it."""
    layout = spec.layout
    tuples = 1 << (spec.n * len(layout.offsets) * spec.t)
    dim = 1 << (layout.qubits * spec.t)
    densify = (3 * tuples + 3 * _densify_rows(dim) * dim) // 2
    conjugation = corelin._conjugation_peak_entries(dim) if layout.final_layer else 0
    return max(6 * tuples, dim * dim // 2 + max(densify, conjugation)) + (1 << 16)


def ensemble_moment_deltapair(spec: MomentSpec) -> DensityOperator:
    """All-functions moment via XOR-vector grouping; no function enumeration.

    Sign-phase kind, exhaustive space, any layout.  Each block is a Hadamard
    layer on its n targets then a sign phase, so a path through the t copies
    picks one n-bit label b per block and copy (the next n bits of the tuple
    index).  The Hadamard layer signs the path by (-1)^(targets.b) for the
    label it meets and writes b over its targets; the phase's (-1)^f(b) enters
    the key as the one-hot bit of b in word layout.keys[k], the draw keying block k.
    Before the final Hadamard layer (if any) the moment is G^T G / 2^(tuple
    bits), G the signed key-by-label path matrix.  Agrees with brute force up to rounding.
    """
    # the only sparse products in prslab: imported here, so no other route loads scipy
    import scipy.sparse as sparse

    if spec.kind is not PrsKind.BINARY_PHASE:
        raise ValueError("pairing route requires the sign-phase kind")
    if not isinstance(spec.function_space, ExhaustiveAllFunctions):
        raise ValueError("pairing route computes the exhaustive all-functions average")
    layout = spec.layout
    n, t, q, draws = spec.n, spec.t, layout.qubits, layout.draws
    if draws << n > _MAX_KEY_BITS:
        raise ValueError(
            f"parity vectors need {draws << n} bits; the pairing route packs them "
            f"into one {_MAX_KEY_BITS}-bit key"
        )
    check_complex_array(_pairing_peak_entries(spec), "pairing route peak")

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
            low = np.uint64(q - offset - n)  # bit position of the block's last qubit
            parity ^= np.bitwise_count((label >> low) & b)
            label = (label & ~(mask_n << low)) | (b << low)
            keys ^= one << (b + np.uint64(draw << n))
        cols |= label << np.uint64(q * (t - 1 - j))
    _, inverse = np.unique(keys, return_inverse=True)
    groups = sparse.coo_matrix(
        (1.0 - 2.0 * (parity & 1), (inverse, cols.astype(np.int64))),
        shape=(int(inverse.max()) + 1, dim),
    ).tocsr()
    del idx, keys, cols, parity, label, b, inverse  # the dense stage needs only G

    # G^T G is symmetric, so its rows r are G[:, r]^T G: one sparse product
    # per block of rows, written straight into the rows of the C-ordered
    # moment, and no sparse Gram of the whole moment is held beside it
    by_label = groups.tocsc()
    matrix = np.empty((dim, dim))
    step = _densify_rows(dim)
    for start in range(0, dim, step):
        (by_label[:, start:start + step].T @ groups).toarray(out=matrix[start:start + step])
    del groups, by_label
    matrix /= 1 << tuple_bits
    trace = float(np.trace(matrix))
    if abs(trace - 1.0) > 1e-9:
        raise AssertionError(f"pairing moment trace {trace} deviates from 1")
    if layout.final_layer:
        corelin.hadamard_conjugate(matrix)
    matrix.setflags(write=False)  # handed over to the operator, not copied
    return DensityOperator(matrix)


def haar_moment(local_dim: int, copies: int) -> DensityOperator:
    """Average t-fold projector of a Haar-random state: the normalized
    symmetric-subspace projector.  The projector's matrix is normalized in
    place, as nothing else refers to it, so the oracle holds one d^t x d^t
    array, the one the projector's budget check covers."""
    matrix = corelin.symmetric_projector(local_dim, copies).matrix
    matrix.setflags(write=True)  # the projector's operator is gone: this is the only reference
    matrix /= corelin.symmetric_subspace_dimension(local_dim, copies)
    matrix.setflags(write=False)
    return DensityOperator(matrix)


def _distance_peak_entries(local_dim: int, copies: int, complex_: bool = False) -> int:
    """Upper estimate of `_haar_distance`'s peak besides its two inputs, in
    16-byte units: the moment's compression, then trace_distance's
    difference and the eigensolver's copy of it beside the compressed
    moment.  `complex_` is the moment's dtype; the Haar moment is real."""
    sym = corelin.symmetric_subspace_dimension(local_dim, copies)
    square = sym * sym if complex_ else sym * sym // 2
    return max(corelin._compression_peak_entries(local_dim, copies, complex_), 3 * square)


def _haar_distance(
    moment: DensityOperator, haar: DensityOperator, local_dim: int, copies: int
) -> float:
    """Trace distance between a d^t x d^t moment and the Haar moment's D x D
    compression to the symmetric subspace (which is I/D), taken on the
    moment's compression, so the eigensolve runs at D = C(d+t-1, t), not at
    d^t."""
    check_complex_array(_distance_peak_entries(local_dim, copies, np.iscomplexobj(moment.matrix)),
                        f"distance stage in Sym^{copies} of ({local_dim})^{copies}")
    return corelin.trace_distance(corelin.symmetric_compression(moment, local_dim, copies), haar)


def compare_to_haar(spec: MomentSpec, method: Method) -> MomentReport:
    """Compute the ensemble moment by the chosen route and its trace distance
    to the Haar moment.  Both moments lie in the symmetric subspace, so the
    distance is taken on their D x D compressions there
    (`corelin.symmetric_compression`), the Haar moment's before the route
    runs; the d^t x d^t `trace_distance` against `haar_moment` is the
    oracle it is tested against.  Deterministic given the function-space
    seed."""
    sampled = not isinstance(spec.function_space, ExhaustiveAllFunctions)
    if method is Method.MONTE_CARLO and not sampled:
        raise ValueError("monte_carlo labels sampled ensembles; space is exhaustive")
    if method is Method.BRUTE_FORCE and sampled:
        raise ValueError("brute_force labels exhaustive ensembles; use monte_carlo")
    start = time.perf_counter()
    local_dim = 1 << spec.layout.qubits
    # the Haar reference first: compressed to D x D and its d^t x d^t form
    # dropped before the route builds the moment, so the two are never held
    # together.  It compresses to I/D, but the traced benchmark
    # (perfbench/tracer.py BASELINE_ROWS) times the `symmetric_projector` and
    # `trace_distance` spans of this call by name; writing I/D directly waits
    # for the benchmark change that stops reading them
    haar = corelin.symmetric_compression(haar_moment(local_dim, spec.t), local_dim, spec.t)
    if method is Method.DELTA_PAIRING:
        moment = ensemble_moment_deltapair(spec)
    else:
        moment = ensemble_moment_bruteforce(spec)
    distance = _haar_distance(moment, haar, local_dim, spec.t)
    runtime_ms = int(round((time.perf_counter() - start) * 1000))
    return MomentReport(spec, method, moment, float(distance), runtime_ms,
                        spec.function_space.seed)
