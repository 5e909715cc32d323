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
oracle the compressed distance is tested against.  The compression is an
index gather (`corelin.symmetric_compression`), so the pairing route's one
sparse product G^T G is the only code that imports scipy, and only when it runs.
"""

from __future__ import annotations

import itertools
import json
import operator
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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
        self.layout  # built here, so a bad geometry or shared key is refused at once

    @cached_property
    def layout(self) -> Layout:
        return expand.layout(self.source, self.n, self.i, self.ell, self.shared_key)

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
    draws = spec.layout.draws
    space = spec.function_space
    if isinstance(space, ExhaustiveAllFunctions):
        per_draw = boolfn.function_count(n, m)
        check_enumeration(per_draw**draws, f"exhaustive ensemble n={n}, draws={draws}")
        # the first draw streams; only the other draws' tables, and their tuples, are held
        tails = (list(itertools.product(boolfn.enumerate_all(n, m), repeat=draws - 1))
                 if draws > 1 else [()])
        for f in boolfn.enumerate_all(n, m):
            for tail in tails:
                yield (f,) + tail
    elif isinstance(space, PrfKeys):
        keys = boolfn.derive_keys(space.count * draws, space.seed, spec.source.value)
        for start in range(0, len(keys), draws):
            yield tuple(boolfn.prf_truth_table(key, n, m) for key in keys[start:start + draws])
    elif isinstance(space, UniformSample):
        rng = np.random.default_rng(space.seed)
        for _ in range(space.count):
            yield tuple(boolfn.random_function(n, m, rng) for _ in range(draws))
    else:  # pragma: no cover
        raise TypeError(f"unknown function space {space!r}")


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
    draw each).
    Entries are complex128 for the general kind and float64 for sign
    phases; table entries are int64."""
    layout = spec.layout
    local_dim = 1 << layout.qubits
    dim = local_dim**spec.t
    rows = _spec_chunk_rows(spec)
    complex_ = spec.kind is PrsKind.GENERAL_PHASE
    per_unit = 1 if complex_ else 2  # entries per 16 bytes
    tables = rows * layout.draws << spec.n  # two int64 copies: one unit each
    tails = 0
    if isinstance(spec.function_space, ExhaustiveAllFunctions):
        count = boolfn.function_count(spec.n, spec.kind.range_modulus(spec.n))
        block = min(count, boolfn._DECODE_ROWS) << spec.n
        tables += block // 2 * min(2, layout.draws)
        tails = count ** (layout.draws - 1) * (layout.draws + 6) // 2
    evaluation = tables + expand._evaluation_peak_entries(layout, rows, complex_)
    accumulation = (dim * dim + rows * (local_dim + 2 * dim + dim // local_dim)) // per_unit
    build = corelin._operator_build_entries(dim, complex_)
    return dim * dim // per_unit + tails + max(evaluation, accumulation, build) + (1 << 15)


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


def _pairing_peak_entries(spec: MomentSpec) -> int:
    """Upper estimate of the pairing route's peak allocation, in 16-byte
    units: at most 96 bytes per tuple while tuples are keyed and grouped,
    then the float64 d^t x d^t moment together with the larger of the
    Hadamard conjugation's two intermediate copies (when the layout ends
    with the Fourier layer) and what wrapping the result in a
    DensityOperator holds, plus 1 MiB of numpy ufunc buffers."""
    layout = spec.layout
    tuples = 1 << (spec.n * len(layout.offsets) * spec.t)
    dim = 1 << (layout.qubits * spec.t)
    dense = dim * dim // 2
    conjugation = 2 * dense if layout.final_layer else 0
    return 6 * tuples + dense + max(conjugation, corelin._operator_build_entries(dim)) + (1 << 16)


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
    # the one sparse product in prslab: imported here, so no other route loads scipy
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

    tuple_bits = n * len(layout.offsets) * t
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
        shape=(int(inverse.max()) + 1, 1 << (q * t)),
    ).tocsr()
    del idx, keys, cols, parity, label, b, inverse  # the dense stage needs only G

    matrix = (groups.T @ groups).toarray()
    matrix /= 1 << tuple_bits
    trace = float(np.trace(matrix))
    if abs(trace - 1.0) > 1e-9:
        raise AssertionError(f"pairing moment trace {trace} deviates from 1")
    if layout.final_layer:
        matrix = corelin.hadamard_conjugate(matrix)
    return DensityOperator(matrix)


def haar_moment(local_dim: int, copies: int) -> DensityOperator:
    """Average t-fold projector of a Haar-random state: the normalized
    symmetric-subspace projector."""
    proj = corelin.symmetric_projector(local_dim, copies)
    matrix = proj.matrix / corelin.symmetric_subspace_dimension(local_dim, copies)
    del proj  # so the peak stays the projector's own, which its budget check covers
    return DensityOperator(matrix)


def _distance_peak_entries(local_dim: int, copies: int, complex_: bool = False) -> int:
    """Upper estimate of `_haar_distance`'s peak besides its two inputs, in
    16-byte units: the moment's compression, then the Haar moment's beside
    the moment's D x D result, then trace_distance's difference and the
    eigensolver's copy of it beside both results.  `complex_` is the
    moment's dtype; the Haar moment is real."""
    sym = corelin.symmetric_subspace_dimension(local_dim, copies)
    square = sym * sym if complex_ else sym * sym // 2
    return max(
        corelin._compression_peak_entries(local_dim, copies, complex_),
        square + corelin._compression_peak_entries(local_dim, copies),
        4 * square,
    )


def _haar_distance(
    moment: DensityOperator, haar: DensityOperator, local_dim: int, copies: int
) -> float:
    """Trace distance between a moment and the Haar moment, taken on their
    D x D compressions to the symmetric subspace (the Haar moment's is I/D),
    so the eigensolve runs at D = C(d+t-1, t), not at d^t."""
    check_complex_array(_distance_peak_entries(local_dim, copies, np.iscomplexobj(moment.matrix)),
                        f"distance stage in Sym^{copies} of ({local_dim})^{copies}")
    return corelin.trace_distance(
        corelin.symmetric_compression(moment, local_dim, copies),
        corelin.symmetric_compression(haar, local_dim, copies),
    )


def compare_to_haar(spec: MomentSpec, method: Method) -> MomentReport:
    """Compute the ensemble moment by the chosen route and its trace distance
    to the Haar moment.  Both moments lie in the symmetric subspace, so the
    distance is taken on their D x D compressions there
    (`corelin.symmetric_compression`); the d^t x d^t `trace_distance`
    against `haar_moment` is the oracle it is tested against.
    Deterministic given the function-space seed."""
    sampled = not isinstance(spec.function_space, ExhaustiveAllFunctions)
    if method is Method.MONTE_CARLO and not sampled:
        raise ValueError("monte_carlo labels sampled ensembles; space is exhaustive")
    if method is Method.BRUTE_FORCE and sampled:
        raise ValueError("brute_force labels exhaustive ensembles; use monte_carlo")
    start = time.perf_counter()
    if method is Method.DELTA_PAIRING:
        moment = ensemble_moment_deltapair(spec)
    else:
        moment = ensemble_moment_bruteforce(spec)
    local_dim = 1 << spec.layout.qubits
    # the Haar moment compresses to I/D, but the traced benchmark
    # (perfbench/tracer.py BASELINE_ROWS) times the `symmetric_projector` and
    # `trace_distance` spans of this call by name; writing I/D directly waits
    # for the benchmark change that stops reading them
    haar = haar_moment(local_dim, spec.t)
    distance = _haar_distance(moment, haar, local_dim, spec.t)
    runtime_ms = int(round((time.perf_counter() - start) * 1000))
    seed = getattr(spec.function_space, "seed", 0)
    return MomentReport(spec, method, moment, float(distance), runtime_ms, seed)
