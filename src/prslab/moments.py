"""Exact and sampled t-copy ensemble moments, with a Haar-moment oracle.

Two independent routes compute the all-functions average of the t-fold
projector for sign-phase ensembles: brute force runs the members as one
batch per chunk and folds their t-fold products into Sym^t; XOR pairing
groups tuples of basis labels by the parity vector their phase exponents
induce on the function table, as averaging the sign over *all* functions
kills every cross term between groups, and so enumerates no function.

Every moment is held before its layout's final layer U, the Hadamard or
Fourier layer on the whole register: `member_state` evaluates members
without it, and the pairing route never applies it.  U^{(x) t} commutes
with the Haar moment, so the layer changes no distance, purity, spectrum
or gap between two routes, and two routes' moments compare entrywise.

Every moment lies in Sym^t, of dimension D = C(d+t-1, t), and is constant
on the multiset classes of labels, so each is held as its D x D class Gram
G alone (`SymmetricMoment`), and its d^t x d^t `matrix` is expanded from G
when first read.  No module forms its compression V^T rho V, G scaled by
sqrt(c_a c_b) for the class sizes c: `corelin.trace_distance` scales G by
sqrt(c) as it gathers its rows.  The Haar moment's compression is I/D, 1/D
times the identity on Sym^t (Harrow, arXiv:1308.6595), so no stage of
`compare_to_haar` builds a D x D Haar array or a d^t x d^t matrix: the
distance is taken between the moment's Gram and the float 1/D.
`compare_to_haar` runs three stages that each check themselves: one
refusal (`_check_method`, which the CLI runs for every chosen method
before any comparison), the route and `corelin.trace_distance`, whose
check counts the Gram, and which an exhaustive sign-phase moment hands the
layout's Pauli symmetries as signed permutations of its classes
(`_class_symmetries`).  `haar_moment` is the tests' dense Haar reference.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import boolfn, corelin, expand
from .boolfn import BooleanFunction
from .budget import check_complex_array, check_enumeration, check_power_enumeration
from .corelin import HERMITIAN_ATOL, DensityOperator, PureState, RegisterError
from .expand import Layout, Source  # Source is re-exported for MomentSpec users
from .prsgen import PrsKind

_MAX_KEY_BITS = 64  # XOR parity vectors are packed into uint64 words


class Method(Enum):
    BRUTE_FORCE = "brute_force"
    DELTA_PAIRING = "delta_pairing"
    MONTE_CARLO = "monte_carlo"


_MEMBER_ENTRIES = 1 << 14  # table entries per batch that a space's `members` reads


class _Space:
    """What every function space has: members read as the rows of its batches."""

    def members(self, n: int, m: int, draws: int = 1, label: str = "prs"):
        """Tuples of `draws` functions mod m on n bits, one per member: the
        rows of the space's batches of about `_MEMBER_ENTRIES` table entries."""
        rows = max(1, _MEMBER_ENTRIES // (draws << n))
        for batch in self.batches(n, m, draws, label, rows):
            yield from zip(*(f._rows() for f in batch))


@dataclass(frozen=True)
class ExhaustiveAllFunctions(_Space):
    """Every tuple of functions once, in table order: the exact average; seed 0."""

    seed: ClassVar[int] = 0

    def descriptor(self) -> dict:
        return {"space": "exhaustive"}

    def batches(self, n: int, m: int, draws: int, label: str, rows: int):
        """The members in chunks of up to `rows`, each a tuple of `draws` batch
        functions decoded from the chunk's member indices by
        `boolfn.enumerate_all`, one range check per draw; `label` names no
        table here."""
        check_power_enumeration(m, draws << n, f"exhaustive ensemble n={n}, draws={draws}")
        yield from boolfn.enumerate_all(n, m, rows, draws)


@dataclass(frozen=True)
class _SampledSpace(_Space):
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

    def batches(self, n: int, m: int, draws: int, label: str, rows: int):
        """The members in chunks of up to `rows`, each a tuple of `draws` batch
        functions; PRF keys carry `label`.  A chunk's tables, member by member
        and draw by draw within a member, are drawn as one batch, checked once
        and dealt out by draw; none is held while it is read."""
        check_enumeration(self.count * draws,
                          f"{self.name} ensemble of {self.count} members, draws={draws}")
        yield from self._draw(n, m, draws, label, rows)


@dataclass(frozen=True)
class PrfKeys(_SampledSpace):
    """PRF tables under keys derived from the seed, packed into 8 signed
    bytes, and labelled by the source."""

    name, seeds = "prf", (-(1 << 63), 1 << 63)

    def _draw(self, n, m, draws, label, rows):
        # each chunk's keys are derived as it is hashed, and not held while it is read
        step, total = rows * draws, self.count * draws
        for start in range(0, total, step):
            yield boolfn.prf_tables(
                boolfn.derive_keys(min(step, total - start), self.seed, label, start), n, m
            )._dealt(draws)


@dataclass(frozen=True)
class UniformSample(_SampledSpace):
    """Uniform tables from numpy's generator, which takes any seed >= 0."""

    name, seeds = "uniform", (0, math.inf)

    def _draw(self, n, m, draws, label, rows):
        rng = np.random.default_rng(self.seed)
        for start in range(0, self.count, rows):
            tables = min(rows, self.count - start) * draws
            yield boolfn.random_function(n, m, rng, tables)._dealt(draws)


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
    moment: SymmetricMoment
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


def member_functions(spec: MomentSpec, rows: int | None = None):
    """Yield one function tuple per ensemble member (one entry per draw) or,
    with `rows`, one tuple of batch functions (one per draw) per chunk of up
    to `rows` members, the form the brute-force route reads."""
    space = spec.function_space
    args = (spec.n, spec.kind.range_modulus(spec.n), spec.layout.draws, spec.source.value)
    yield from space.members(*args) if rows is None else space.batches(*args, rows)


def member_state(spec: MomentSpec, fns: tuple[BooleanFunction, ...]) -> PureState:
    """Single-copy ensemble member for one drawn function tuple, before its
    layout's final layer, where every moment is held; for a tuple of
    function batches, the batch of members, one row each."""
    return expand.evaluate(expand.circuit(replace(spec.layout, final_layer=False), fns,
                                          spec.kind))


def _symmetric_fold(vs: np.ndarray, t: int) -> np.ndarray:
    """The t-fold products of the rows of a (rows, d) array at each Sym^t
    class's sorted-digit label: a (D, rows) array, one row per class in
    class order and one column per member.

    The classes are the non-decreasing digit tuples in lexicographic order,
    so the tuples of j copies whose first digit is i are i followed by the
    tuples of j - 1 copies whose first digit is at least i, a contiguous
    tail of them: each copy takes d products of one member row and a block
    of rows, and no gather."""
    local_dim = vs.shape[1]
    # for t > 1 each member-major row is read d times: one contiguous copy reads faster
    first = vs.T if t == 1 else np.ascontiguousarray(vs.T)
    folded = first
    for copies in range(2, t + 1):
        out = np.empty((corelin.symmetric_subspace_dimension(local_dim, copies), len(vs)),
                       dtype=vs.dtype)
        start = 0
        for i in range(local_dim):
            tail = corelin.symmetric_subspace_dimension(local_dim - i, copies - 1)
            np.multiply(first[i], folded[len(folded) - tail:], out=out[start:start + tail])
            start += tail
        folded = out
    return folded


def _class_product(vs: np.ndarray, t: int) -> np.ndarray:
    """W conj(W)^T for the Sym^t products W of the rows (`_symmetric_fold`):
    a D x D block of sum_k |v_k><v_k|^{(x) t} read at the classes'
    sorted-digit labels.  For real rows the product is W W^T of one
    array, which numpy forms as a symmetric product."""
    w = _symmetric_fold(vs, t)
    return w @ (w.conj() if np.iscomplexobj(w) else w).T


def _label_classes(local_dim: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 Sym^t class of each of the d^t labels and the D class sizes."""
    labels, sizes = corelin._symmetric_classes(local_dim, t)
    classes = np.empty(local_dim**t, dtype=np.int64)
    classes[labels] = np.arange(len(sizes))
    return classes, sizes


_GATHER_BYTES = 1 << 18  # the rows one expansion step gathers: they stay in cache


def _gather_rows(dim: int, itemsize: int) -> int:
    """Rows of a dim x dim matrix that one `_copy_class_rows` step gathers."""
    return max(1, _GATHER_BYTES // (dim * itemsize))


def _copy_class_rows(matrix: np.ndarray, classes: np.ndarray) -> None:
    """Fill a d^t x d^t matrix whose row a < D holds class a's row: each
    row x takes its class's row, one cache-sized block of rows at a time,
    the last rows first.  A class's labels are no smaller than its index,
    so no class row is overwritten before its labels read it."""
    step = _gather_rows(len(matrix), matrix.itemsize)
    for stop in range(len(matrix), 0, -step):
        start = max(0, stop - step)
        matrix[start:stop] = matrix.take(classes[start:stop], axis=0)


def _expansion_peak_entries(local_dim: int, copies: int, complex_: bool = False) -> int:
    """Upper estimate of `SymmetricMoment.matrix`'s peak, in 16-byte units:
    the matrix, the class of every label and the class arrays, beside the
    larger of one gathered block of rows and the matrix's DensityOperator
    check, plus 4 KiB."""
    dim = local_dim**copies
    per_unit = 1 if complex_ else 2  # entries per 16 bytes
    block = min(dim, _gather_rows(dim, 16 // per_unit)) * dim // per_unit
    return (dim * dim // per_unit + dim // 2 + corelin._classes_peak_entries(local_dim, copies)
            + max(block, corelin._operator_build_entries(dim, complex_)) + (1 << 8))


@dataclass(frozen=True)
class SymmetricMoment:
    """A t-copy moment rho, held before its layout's final layer, as its
    frozen D x D class Gram G alone: rho[x, y] = G[a, b] for the classes a
    of x and b of y.  G is checked when the moment is made:
    a square of one row per class, Hermitian and of trace sum_a c_a G_aa = 1
    for the class sizes c, within HERMITIAN_ATOL; a frozen array is adopted
    (`corelin._frozen_copy`).  `matrix` is built on first read, and the
    distance reads G as its compression, scaling each row as it gathers it."""

    gram: np.ndarray
    local_dim: int
    copies: int

    def __post_init__(self):
        gram = corelin._frozen_copy(self.gram)
        object.__setattr__(self, "gram", gram)
        _, sizes = corelin._symmetric_classes(self.local_dim, self.copies)
        if gram.shape != (len(sizes),) * 2:
            raise RegisterError(f"class Gram has shape {gram.shape}, expected one row and "
                                f"column per class, ({len(sizes)}, {len(sizes)})")
        dev = corelin._hermitian_deviation(gram)
        if not dev <= HERMITIAN_ATOL:
            raise RegisterError(f"class Gram deviates from Hermitian by {dev:.3e}")
        tr = complex(np.dot(sizes, gram.diagonal()))
        if not abs(tr - 1.0) <= HERMITIAN_ATOL:
            raise RegisterError(f"trace {tr!r} deviates from 1 beyond {HERMITIAN_ATOL}")

    @property
    def dim(self) -> int:
        return self.local_dim**self.copies

    def trace(self) -> complex:
        """sum_a c_a G_aa, the trace `__post_init__` checks."""
        sizes = corelin._symmetric_classes(self.local_dim, self.copies)[1]
        return complex(np.dot(sizes, self.gram.diagonal()))

    @cached_property
    def matrix(self) -> np.ndarray:
        """rho, once its peak passes the budget check: row a < D is G's row a
        gathered over every label, then each row is copied from its class's.
        At t = 1 every class is one label and rho is G: that array."""
        if self.copies == 1:
            return DensityOperator(self.gram).matrix
        check_complex_array(
            _expansion_peak_entries(self.local_dim, self.copies, np.iscomplexobj(self.gram)),
            f"moment expansion, dim {self.dim}")
        classes, _ = _label_classes(self.local_dim, self.copies)
        matrix = np.empty((len(classes),) * 2, dtype=self.gram.dtype)
        self.gram.take(classes, axis=1, out=matrix[:len(self.gram)], mode="clip")  # no buffer
        _copy_class_rows(matrix, classes)
        matrix.setflags(write=False)  # adopted by the operator, which checks it, not copied
        return DensityOperator(matrix).matrix


def _hand_over(gram: np.ndarray, local_dim: int, copies: int) -> SymmetricMoment:
    """The moment of the class Gram G, frozen and adopted without a copy."""
    gram.setflags(write=False)
    return SymmetricMoment(gram, local_dim, copies)


def _average_symmetric_fold(chunks, t: int) -> SymmetricMoment:
    """Average of |v><v|^{(x) t} over the rows v of (rows, d) chunks, in the
    rows' dtype: every |v>^{(x) t} is constant on each multiset class of
    labels, so it is the moment of the class Gram that sums each chunk's
    `_class_product`."""
    gram, count = None, 0
    for vs in chunks:
        if gram is None:
            local_dim = vs.shape[1]
            sym = corelin.symmetric_subspace_dimension(local_dim, t)
            gram = np.zeros((sym, sym), dtype=vs.dtype)
        gram += _class_product(vs, t)
        count += len(vs)
        del vs  # not held while the next chunk is evaluated
    if count == 0:
        raise ValueError("empty ensemble")
    gram /= count
    return _hand_over(gram, local_dim, t)


def _chunk_rows(dim: int) -> int:
    """Members per accumulation step: at most 64 MiB of t-fold rows and 1024 members."""
    return max(1, min(1024, (64 << 20) // (dim * 16)))


def _spec_chunk_rows(spec: MomentSpec) -> int:
    """Members per accumulation step for the spec: `_chunk_rows`, or fewer
    for a space with fewer members, so that the peak estimate counts only
    rows that exist; the spec's own members fall into the same chunks."""
    rows = _chunk_rows(1 << (spec.layout.qubits * spec.t))
    space = spec.function_space
    if isinstance(space, ExhaustiveAllFunctions):  # counted up to the enumeration cap
        return min(rows, boolfn.function_count(spec.n, spec.kind.range_modulus(spec.n))
                   ** spec.layout.draws)
    return min(rows, space.count)


_PRF_KEY_ENTRIES = 10  # 16-byte units per listed PrfKey: about 146 bytes by tracemalloc


def _bruteforce_peak_entries(spec: MomentSpec) -> int:
    """Upper estimate of the brute-force route's peak, in 16-byte units: the
    D x D class Gram, beside the largest of one chunk's draw, evaluation,
    products and hand-over, plus 128 KiB of numpy ufunc buffers and Python
    objects.  A sampled chunk is drawn as one int64 table and checked into a
    copy; a PRF chunk lists its keys (`_PRF_KEY_ENTRIES` each) and its
    residues (8 bytes each, and an int object of 32 more past m = 256)
    first.  An exhaustive chunk's last draw is decoded beside the other
    draws' checked tables: the member indices and two of the draw's
    quotient, table and checked copy, each freed once the next is built.  The
    evaluation holds the chunk's checked tables and what `expand.evaluate`
    holds for its pre-final circuit.  The products hold the member rows and
    their contiguous copy, the Sym^t products at t copies and at t - 1
    (t > 2), their conjugate (complex rows) and the D x D product.  The
    hand-over holds what the moment's check of the Gram holds: the class
    arrays and its Hermiticity tiles.  Entries are complex128 for the
    general kind and float64 for sign phases; table entries are int64."""
    layout, t = replace(spec.layout, final_layer=False), spec.t  # as `member_state` runs it
    local_dim = 1 << layout.qubits
    sym = corelin.symmetric_subspace_dimension(local_dim, t)
    rows = _spec_chunk_rows(spec)
    complex_ = spec.kind is PrsKind.GENERAL_PHASE
    per_unit = 1 if complex_ else 2  # entries per 16 bytes
    m, space = spec.kind.range_modulus(spec.n), spec.function_space
    entries = rows * layout.draws << spec.n  # int64 table entries per chunk
    if isinstance(space, ExhaustiveAllFunctions):
        draw = (entries + (rows << spec.n) + rows) // 2
    else:
        draw = entries
        if isinstance(space, PrfKeys):
            draw += (entries * (1 + 4 * (m > 256)) // 2
                     + _PRF_KEY_ENTRIES * rows * layout.draws)
    evaluation = entries // 2 + expand._evaluation_peak_entries(layout, rows, complex_)
    below = corelin.symmetric_subspace_dimension(local_dim, t - 1) if t > 2 else 0
    products = (rows * (2 * local_dim + below + sym * (1 + complex_)) + sym * sym) // per_unit
    hand_over = (corelin._classes_peak_entries(local_dim, t)
                 + corelin._operator_build_entries(sym, complex_))
    return sym * sym // per_unit + max(draw, evaluation, products, hand_over) + (1 << 13)


def ensemble_moment_over_functions(spec: MomentSpec, batches) -> SymmetricMoment:
    """Average the t-fold projectors of the members drawn as an iterable of
    batches: tuples of one batch function per draw, a row per member."""
    dim = 1 << (spec.layout.qubits * spec.t)
    check_complex_array(_bruteforce_peak_entries(spec), f"moment accumulation peak, dim {dim}")
    # map holds no batch while its rows are folded
    return _average_symmetric_fold(map(lambda fns: member_state(spec, fns).amplitudes, batches),
                                   spec.t)


def ensemble_moment_bruteforce(spec: MomentSpec) -> SymmetricMoment:
    """Exact (exhaustive space) or empirical (sampled space) ensemble average."""
    return ensemble_moment_over_functions(spec, member_functions(spec, _spec_chunk_rows(spec)))


_JOIN_BYTES = 1 << 20  # what one self-join step holds
_PAIR_BYTES = 48  # per pair of entries in a self-join step: six 8-byte arrays
_MIRROR_ROWS = 64  # rows of the Gram one mirror step fills: the transposed tile stays in cache


def _self_join(group: np.ndarray, cls: np.ndarray, weight: np.ndarray, sym: int) -> np.ndarray:
    """W^T W, a float64 sym x sym matrix, for the sparse key-group x class
    matrix W given as its nonzero entries (group, cls, weight), sorted by
    group and then class, each (group, class) once.  Each group adds
    w_e w_e' at (cls_e, cls_e') for its pairs of entries e <= e', in steps
    of at most _JOIN_BYTES (but at least one entry's pairs).  As the classes
    of a group ascend, that fills the upper triangle, which is then mirrored
    below the diagonal, the diagonal counted once.  The weights are whole
    numbers, so every entry is an exact integer sum below 2^53."""
    count = len(group)
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    ends = np.append(starts[1:], count)
    pairs = np.repeat(ends, ends - starts) - np.arange(count)  # (e, e') with e' >= e, per e
    done = np.cumsum(pairs)  # the pairs of the entries up to and including e
    gram = np.zeros((sym, sym))
    step = max(1, _JOIN_BYTES // _PAIR_BYTES)
    lo = 0
    while lo < count:
        before = int(done[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(done, before + step, side="right")))
        runs = pairs[lo:hi]
        first = np.repeat(np.arange(lo, hi), runs)
        second = np.arange(before, done[hi - 1]) - np.repeat(done[lo:hi] - runs, runs) + first
        np.add.at(gram.ravel(), cls[first] * sym + cls[second], weight[first] * weight[second])
        lo = hi
    for top in range(0, sym, _MIRROR_ROWS):
        bottom = top + _MIRROR_ROWS
        gram[top:bottom, :top] = gram[:top, top:bottom].T
        tile = gram[top:bottom, top:bottom]
        tile += np.triu(tile, 1).T
    return gram


def _class_tuples(spec: MomentSpec, classes: np.ndarray):
    """The path tuples the pairing route keeps, as (key, class, odd) arrays:
    every tuple of t copies whose labels do not decrease from copy to copy,
    so its column is the sorted-digit label of its Sym^t class.

    One copy's 2^(n blocks) segments are keyed once: a segment picks one
    n-bit label b per block, the Hadamard layer signs it by (-1)^(targets.b)
    for the label it meets and writes b over its targets, and the phase's
    (-1)^f(b) enters the key as the one-hot bit of b in word layout.keys[k],
    the draw keying block k.  A tuple's key is the XOR of its copies' key
    words, its parity the XOR of theirs and its column their labels' digits;
    the copies are joined one at a time, each segment of the next copy
    reaching a label no smaller than the last one's."""
    layout, n, t, q = spec.layout, spec.n, spec.t, spec.layout.qubits
    idx = np.arange(1 << (n * len(layout.offsets)), dtype=np.uint64)
    key, label = np.zeros_like(idx), np.zeros_like(idx)
    odd = np.zeros(idx.shape, dtype=np.uint8)
    mask_n, shift = np.uint64((1 << n) - 1), n * len(layout.offsets)
    for offset, draw in zip(layout.offsets, layout.keys):
        shift -= n
        b = (idx >> np.uint64(shift)) & mask_n
        low = np.uint64(q - offset - n)  # bit position of the block's last qubit
        odd ^= np.bitwise_count((label >> low) & b)
        label = (label & ~(mask_n << low)) | (b << low)
        key ^= np.uint64(1) << (b + np.uint64(draw << n))
    order = np.argsort(label, kind="stable")
    seg_key, seg_label, seg_odd = key[order], label[order].view(np.int64), odd[order] & 1
    count = len(order)
    # the first segment of each segment's label, in label order: a next copy
    # joined to it takes the segments from there to the last one
    _, starts, which = np.unique(seg_label, return_index=True, return_inverse=True)
    first = starts[which]
    pos, key, odd, cols = np.arange(count), seg_key, seg_odd, seg_label
    for _ in range(t - 1):
        runs = count - first[pos]
        rep = np.repeat(np.arange(len(pos)), runs)
        pos = np.arange(len(rep)) - (np.cumsum(runs) - count)[rep]
        key = key[rep] ^ seg_key[pos]
        odd = odd[rep] ^ seg_odd[pos]
        cols = cols[rep] << q | seg_label[pos]
        del rep
    return key, classes[cols], odd


def _pairing_peak_entries(spec: MomentSpec) -> int:
    """Upper estimate of the pairing route's peak allocation, in 16-byte
    units: the int64 class of every label, beside the largest of its three
    stages, plus 128 KiB.  Joining the copies and grouping the kept tuples
    (`_kept_tuples`) holds at most 96 bytes per kept tuple, beside the class
    arrays.  The self-join holds the float64 D x D Gram, one step of pairs
    and at most 64 bytes per entry, of which there are at most as many as
    kept tuples.  A step holds at most e(g + 1)/2 pairs for e entries in
    key groups of at most g.  A group's entries are distinct classes, each
    of a multiset of t segments whose key words XOR to the group's key, so
    g is at most the multisets of t - 1 of the S segments times the
    segments that share one key word: 2^(n (blocks - draws)), as a draw's
    key bits of all but one of its blocks fix the last one's.  The
    hand-over holds the Gram beside what the moment's check of it holds:
    the class arrays and its Hermiticity tiles."""
    layout, n, t = spec.layout, spec.n, spec.t
    local_dim = 1 << layout.qubits
    sym = corelin.symmetric_subspace_dimension(local_dim, t)
    tuples = _kept_tuples(spec)
    keying = 6 * tuples + corelin._classes_peak_entries(local_dim, t)
    blocks = len(layout.offsets)
    group = min(sym, tuples, math.comb((1 << n * blocks) + t - 2, t - 1)
                << n * (blocks - layout.draws))
    step = min(_JOIN_BYTES, _PAIR_BYTES * tuples * (group + 1) // 2) // 16
    join = sym * sym // 2 + step + 4 * tuples
    hand_over = (sym * sym // 2 + corelin._classes_peak_entries(local_dim, t)
                 + corelin._operator_build_entries(sym))
    return local_dim**t // 2 + max(keying, join, hand_over) + (1 << 13)


def _kept_tuples(spec: MomentSpec) -> int:
    """How many tuples `_class_tuples` keeps.  A source's blocks cover every
    qubit, and each label bit is the segment bit that the last block
    covering it wrote, so each copy's 2^(n blocks) segments reach each of
    the d = 2^q labels 2^(n blocks) / d times, and each of the D
    non-decreasing sequences of t labels that count to the t times."""
    layout = spec.layout
    local_dim = 1 << layout.qubits
    reached = (1 << (spec.n * len(layout.offsets))) // local_dim
    return corelin.symmetric_subspace_dimension(local_dim, spec.t) * reached**spec.t


def ensemble_moment_deltapair(spec: MomentSpec) -> SymmetricMoment:
    """All-functions moment via XOR-vector grouping; no function enumeration.

    Sign-phase kind, exhaustive space, any layout.  Each block is a Hadamard
    layer on its n targets then a sign phase, so a path through the t copies
    picks one n-bit label per block and copy.  Held before the final
    Hadamard layer (if any), the moment is G^T G / 2^(tuple bits), G the
    signed key-by-label path matrix (`_class_tuples` keys the paths).

    A tuple's key is the XOR of its copies' key words and its sign the
    product of its copies' signs, so permuting the copies keeps both and
    permutes the digits of its label.  Every row of G is therefore constant
    on the multiset classes of Sym^t, and G^T G[x, y] = W^T W[a, b] for the
    classes a of x and b of y, where W is G read at each class's
    sorted-digit label.  The route builds only the tuples that reach such a
    label, merges them into integer weights per (key group, class) and
    forms the D x D Gram W^T W by a self-join within each key group
    (`_self_join`).  Every entry is an integer sum scaled by a power of two,
    so the moment is exact."""
    _check_method(spec, Method.DELTA_PAIRING)
    layout = spec.layout
    n, t, q = spec.n, spec.t, layout.qubits
    check_complex_array(_pairing_peak_entries(spec), "pairing route peak")

    classes, sizes = _label_classes(1 << q, t)
    sym = len(sizes)
    keys, cls, odd = _class_tuples(spec, classes)
    _, group = np.unique(keys, return_inverse=True)
    entries, inverse = np.unique(group * sym + cls, return_inverse=True)
    weight = np.bincount(inverse, weights=1.0 - 2.0 * odd)
    del keys, cls, odd, group, inverse
    nonzero = weight != 0
    group, cls = np.divmod(entries[nonzero], sym)
    gram = _self_join(group, cls, weight[nonzero], sym)
    del entries, weight, nonzero, group, cls
    gram /= 1 << (n * len(layout.offsets) * t)  # exact: integers below 2^53 over a power of two
    return _hand_over(gram, 1 << q, t)


def _check_method(spec: MomentSpec, method: Method) -> None:
    """Refuse, with ValueError and before anything is built, a spec that
    `method` does not label or its route cannot compute: monte_carlo labels
    sampled spaces, brute_force the exhaustive one, and the pairing route
    needs sign phases, the exhaustive space and a key of at most 64 bits."""
    sampled = not isinstance(spec.function_space, ExhaustiveAllFunctions)
    if method is Method.MONTE_CARLO and not sampled:
        raise ValueError("monte_carlo labels sampled ensembles; space is exhaustive")
    if method is Method.BRUTE_FORCE and sampled:
        raise ValueError("brute_force labels exhaustive ensembles; use monte_carlo")
    if method is not Method.DELTA_PAIRING:
        return
    if spec.kind is not PrsKind.BINARY_PHASE:
        raise ValueError("pairing route requires the sign-phase kind")
    if sampled:
        raise ValueError("pairing route computes the exhaustive all-functions average")
    bits = spec.layout.draws << spec.n
    if bits > _MAX_KEY_BITS:
        raise ValueError(f"parity vectors need {bits} bits; the pairing route packs them "
                         f"into one {_MAX_KEY_BITS}-bit key")


def _haar_peak_entries(local_dim: int, copies: int) -> int:
    """Upper estimate of `haar_moment`'s peak, in 16-byte units: the float64
    D x D Gram beside the class arrays (`corelin._symmetric_classes`, which
    the moment's check builds again) and the check's Hermiticity tiles."""
    sym = corelin.symmetric_subspace_dimension(local_dim, copies)
    return (corelin._classes_peak_entries(local_dim, copies) + sym * sym // 2
            + corelin._operator_build_entries(sym))


def haar_moment(local_dim: int, copies: int) -> SymmetricMoment:
    """Average t-fold projector of a Haar-random state, the normalized
    symmetric-subspace projector, as the dense reference: class Gram
    diag(1/c)/D for the class sizes c, one D x D array, whose compression
    is I/D.  `compare_to_haar` builds none of it."""
    check_complex_array(_haar_peak_entries(local_dim, copies),
                        f"Haar moment on ({local_dim})^{copies}")
    _, sizes = corelin._symmetric_classes(local_dim, copies)
    gram = np.diag(1.0 / sizes)
    gram /= len(sizes)  # the projector's entries 1/c, normalized as they were
    return _hand_over(gram, local_dim, copies)


def _class_symmetries(spec: MomentSpec) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """The layout's Pauli symmetries (`expand.pauli_symmetries`) as signed
    permutations (indices, signs) of the Sym^t classes that commute with
    the compression of the spec's moment, held before the final layer as
    every moment is, or None: for the general kind and sampled spaces,
    whose moments they need not fix, and when none is left.

    X_b Z_s maps class a, of digits x_1 <= ... <= x_t, to the class of the
    digits x_j ^ b, with the sign (-1)^(s . (x_1 ^ ... ^ x_t)).  At odd t,
    (X_b Z_s)^{(x) t} is an involution only for even b . s and two of them
    commute only when the strings do, so a generator is kept when it has
    even b . s and commutes with those kept."""
    if (spec.kind is not PrsKind.BINARY_PHASE
            or not isinstance(spec.function_space, ExhaustiveAllFunctions)):
        return None
    layout, t = spec.layout, spec.t
    paulis = expand.pauli_symmetries(layout)
    if t % 2:
        kept = []
        for b, s in paulis:
            if not (b & s).bit_count() % 2 and all(
                    not ((b & s2).bit_count() + (b2 & s).bit_count()) % 2 for b2, s2 in kept):
                kept.append((b, s))
        paulis = kept
    if not paulis:
        return None
    local_dim = 1 << layout.qubits
    classes, _ = _label_classes(local_dim, t)
    first = np.unique(classes, return_index=True)[1]  # each class's least label: sorted digits
    digits = np.array(np.unravel_index(first, (local_dim,) * t))  # (t, D), each column sorted
    parity = np.bitwise_xor.reduce(digits, axis=0)
    return [(classes[np.ravel_multi_index(np.sort(digits ^ b, axis=0), (local_dim,) * t)],
             1.0 - 2.0 * (np.bitwise_count(parity & s) & 1))
            for b, s in paulis]


def compare_to_haar(spec: MomentSpec, method: Method) -> MomentReport:
    """The ensemble moment by the chosen route and its trace distance to
    the Haar moment, in three stages that each check themselves: the
    refusal (`_check_method`), the route and `corelin.trace_distance` of
    the moment's D x D compression, its Gram read through the square roots
    of the class sizes, and the Haar moment's, I/D, passed as the float
    1/D, split by the layout's Pauli symmetries (`_class_symmetries`) where
    it has them.  The moment is held before the layout's final layer U, and
    U^{(x) t} commutes with the Haar moment, so this is the full circuit's
    distance.  Deterministic given the function-space seed."""
    _check_method(spec, method)
    start = time.perf_counter()
    local_dim = 1 << spec.layout.qubits
    # built and dropped: no result reads it, but perfbench/tracer.py
    # BASELINE_ROWS and tests/test_perfbench.py time this span by name;
    # it goes when the benchmark stops timing it (ROADMAP direction 1)
    corelin.symmetric_projector(local_dim, spec.t)
    route = (ensemble_moment_deltapair if method is Method.DELTA_PAIRING
             else ensemble_moment_bruteforce)
    moment = route(spec)
    sizes = corelin._symmetric_classes(local_dim, spec.t)[1]
    distance = corelin.trace_distance(DensityOperator(moment.gram, normalized=False),
                                      1.0 / len(sizes), _class_symmetries(spec), np.sqrt(sizes))
    runtime_ms = int(round((time.perf_counter() - start) * 1000))
    return MomentReport(spec, method, moment, distance, runtime_ms, spec.function_space.seed)
