"""Exact and sampled t-copy ensemble moments, with a Haar-moment oracle.

Two independent routes compute the all-functions average of the t-fold
projector for sign-phase ensembles:

* brute force -- run the members through their circuit as one batch per
  accumulation chunk and average the outer products of the rows' t-fold
  powers, read in the symmetric subspace;
* XOR pairing -- group tuples of basis labels by the parity vector their
  phase exponents induce on the function table.  Averaging the sign over
  *all* functions kills every cross term whose parity vectors differ, so the
  exact moment is a sum of per-group outer products and never enumerates a
  single function.

The Haar moment is the normalized projector onto the symmetric subspace;
the tests cross-check it by Monte Carlo averaging of random states.  Every
ensemble moment lies in that subspace too, of dimension D = C(d+t-1, t), so
the distance to the Haar moment is taken on the D x D compressions of the
two operators, and `corelin.trace_distance` solves their difference one
connected block of its nonzero pattern at a time (at c1 (5,1,2), blocks of
1056 and 1024 of D = 2080); one dense eigensolve of the d^t x d^t
difference is the oracle the tests hold it to.  `compare_to_haar` builds
and compresses the Haar moment first (`corelin.symmetric_compression`, an
index gather) and drops its d^t x d^t form before the route runs, and each
route builds its moment in one array that it freezes and hands to its
DensityOperator, so a comparison holds one d^t x d^t matrix at a time.

Both routes work per Sym^t class until they build their one dense output,
and hand their D x D class Gram over with it, scaled by sqrt(c_a c_b) for
the class sizes c into the moment's compression (`SymmetricMoment`), so no
route's moment is compressed again.  Brute force folds each chunk's rows
straight into Sym^t: each member's t-fold products at the D classes'
sorted-digit labels, whose outer products the chunk adds to the Gram, so
no d^t x d^t accumulator is built.  The pairing route keys the segments
of one copy once and joins the copies in non-decreasing label order, so it
builds only the tuples at a class's sorted-digit label; it forms the Gram
by a numpy self-join within each key group; and it runs the final layer's
column pass on one row per class.  Both then copy each class row to the
class's other labels (`_copy_class_rows`); the pairing route's Gram is
the compression of its moment before the final layer, which has the final
moment's spectrum.  No route needs more than numpy.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import boolfn, corelin, expand
from .boolfn import BooleanFunction
from .budget import check_complex_array, check_enumeration, check_power_enumeration
from .corelin import DensityOperator, PureState
from .expand import Layout, Source  # Source is re-exported for MomentSpec users
from .prsgen import PrsKind

_MAX_KEY_BITS = 64  # XOR parity vectors are packed into uint64 words


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
        check_power_enumeration(m, draws << n, f"exhaustive ensemble n={n}, draws={draws}")
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
    one batch state: draw d of every member stacked into one batch function
    (`boolfn.stack`), and the spec's circuit run once over them."""
    return member_state(spec, tuple(map(boolfn.stack, zip(*function_tuples))))


@dataclass(frozen=True)
class SymmetricMoment(DensityOperator):
    """A d^t x d^t moment with its D x D compression to Sym^t, V^T rho V,
    which the route that built the moment formed on its way; the distance
    stage reads it in place of compressing the moment again."""

    compressed: DensityOperator = field(kw_only=True)


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


def _copy_class_rows(matrix: np.ndarray, classes: np.ndarray) -> None:
    """Fill a d^t x d^t matrix whose row a < D holds class a's row: each
    row x takes its class's row, one cache-sized block of rows at a time,
    the last rows first.  A class's labels are no smaller than its index,
    so no class row is overwritten before its labels read it."""
    step = corelin._gather_rows(len(matrix), matrix.itemsize)
    for stop in range(len(matrix), 0, -step):
        start = max(0, stop - step)
        matrix[start:stop] = matrix.take(classes[start:stop], axis=0)


def _hand_over(matrix: np.ndarray, gram: np.ndarray, sizes: np.ndarray) -> SymmetricMoment:
    """The moment with its class Gram G, scaled in place by sqrt(c_a c_b)
    for the class sizes c into V^T rho V, as its `compressed` operator;
    its trace, the moment's, must be 1.  Both arrays are frozen and handed
    over to their operators, not copied."""
    scale = np.sqrt(sizes)
    gram *= scale[:, None]
    gram *= scale
    trace = complex(np.trace(gram))
    if abs(trace - 1.0) > 1e-9:
        raise AssertionError(f"moment trace {trace} deviates from 1")
    matrix.setflags(write=False)
    gram.setflags(write=False)
    return SymmetricMoment(matrix, compressed=DensityOperator(gram))


def _average_symmetric_fold(chunks, t: int) -> SymmetricMoment:
    """Average of |v><v|^{(x) t} over the rows v of (rows, d) chunks, in the
    rows' dtype, accumulated in Sym^t.

    Every |v>^{(x) t} is constant on each multiset class of labels, so the
    average is G[a, b] at labels x of class a and y of class b, where the
    D x D class Gram G sums each chunk's `_class_product`.  The d^t x d^t
    moment is G expanded over the labels, row a < D the Gram row gathered
    over every label and then every row copied from its class's
    (`_copy_class_rows`), and G is handed over as its compression."""
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
    classes, sizes = _label_classes(local_dim, t)
    matrix = np.empty((len(classes),) * 2, dtype=gram.dtype)
    gram.take(classes, axis=1, out=matrix[:sym], mode="clip")  # "clip": no buffer for out
    _copy_class_rows(matrix, classes)
    return _hand_over(matrix, gram, sizes)


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
    D x D class Gram, beside the largest of one chunk's evaluation, one
    chunk's products and the expansion, plus 256 KiB of numpy ufunc buffers
    and Python objects.  The evaluation holds the chunk's tables, stacked
    and copied into batch functions, and what `expand.evaluate` holds for
    the chunk.  The products hold the member rows and their contiguous
    copy, the Sym^t products at t copies and at t - 1 (t > 2), their
    conjugate (complex rows) and the D x D product.  The expansion holds
    the d^t x d^t matrix, the int64 class of every label, the class arrays
    (`corelin._symmetric_classes`) and the larger of one gathered row block
    and what wrapping the matrix in a DensityOperator holds.  The rows of a
    chunk are dropped before the next one is evaluated.  An exhaustive
    space also holds the block of tables `boolfn.enumerate_all` is yielding
    from and, for more than one draw, the block the other draws' tables
    were listed from and, for the whole run, the list of their tuples (48
    bytes and 8 per draw each); a PRF space holds its list of count * draws
    keys for the whole run (`_PRF_KEY_ENTRIES` each).  Entries are
    complex128 for the general kind and float64 for sign phases; table
    entries are int64."""
    layout, t = spec.layout, spec.t
    local_dim = 1 << layout.qubits
    dim = local_dim**t
    sym = corelin.symmetric_subspace_dimension(local_dim, t)
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
    below = corelin.symmetric_subspace_dimension(local_dim, t - 1) if t > 2 else 0
    products = (rows * (2 * local_dim + below + sym * (1 + complex_)) + sym * sym) // per_unit
    block = corelin._gather_rows(dim, 16 // per_unit) * dim // per_unit
    expansion = (dim * dim // per_unit + dim // 2
                 + corelin._classes_peak_entries(local_dim, t)
                 + max(block, corelin._operator_build_entries(dim, complex_)))
    return sym * sym // per_unit + held + max(evaluation, products, expansion) + (1 << 14)


def ensemble_moment_over_functions(spec: MomentSpec, function_tuples) -> SymmetricMoment:
    """Average the t-fold projectors of the members drawn from an iterable."""
    dim = 1 << (spec.layout.qubits * spec.t)
    check_complex_array(_bruteforce_peak_entries(spec), f"moment accumulation peak, dim {dim}")
    chunk_rows = _spec_chunk_rows(spec)
    tuples = iter(function_tuples)
    # each chunk is read to its end before the next one starts
    chunks = (itertools.chain((first,), itertools.islice(tuples, chunk_rows - 1))
              for first in tuples)
    return _average_symmetric_fold((member_states(spec, chunk).amplitudes for chunk in chunks),
                                   spec.t)


def ensemble_moment_bruteforce(spec: MomentSpec) -> SymmetricMoment:
    """Exact (exhaustive space) or empirical (sampled space) ensemble average."""
    return ensemble_moment_over_functions(spec, member_functions(spec))


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
    stages, plus 1 MiB of numpy ufunc buffers and Python objects and what
    wrapping the moment and the Gram in DensityOperators holds besides them.
    Joining the copies and grouping the kept tuples (`_kept_tuples`) holds
    at most 96 bytes per kept tuple, beside the class arrays.  The self-join
    holds the float64 D x D Gram, one step of pairs and at most 64 bytes per
    entry, of which there are at most as many as kept tuples.  The expansion
    holds the float64 d^t x d^t moment beside the Gram and one block of
    gathered rows or one slab of the Walsh kernel."""
    local_dim = 1 << spec.layout.qubits
    dim = local_dim**spec.t
    sym = corelin.symmetric_subspace_dimension(local_dim, spec.t)
    tuples = _kept_tuples(spec)
    keying = 6 * tuples + corelin._classes_peak_entries(local_dim, spec.t)
    join = sym * sym // 2 + _JOIN_BYTES // 16 + 4 * tuples
    rows = corelin._gather_rows(dim, 8)
    expansion = (dim * dim + sym * sym) // 2 + max(rows * dim // 2, corelin._SLAB_BYTES // 16)
    return dim // 2 + max(keying, join, expansion) + (1 << 16)


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
    picks one n-bit label per block and copy.  Before the final Hadamard
    layer (if any) the moment is G^T G / 2^(tuple bits), G the signed
    key-by-label path matrix (`_class_tuples` keys the paths).

    A tuple's key is the XOR of its copies' key words and its sign the
    product of its copies' signs, so permuting the copies keeps both and
    permutes the digits of its label.  Every row of G is therefore constant
    on the multiset classes of Sym^t, and G^T G[x, y] = W^T W[a, b] for the
    classes a of x and b of y, where W is G read at each class's
    sorted-digit label.  The route builds only the tuples that reach such a
    label, merges them into integer weights per (key group, class) and
    forms the D x D Gram W^T W by a self-join within each key group
    (`_self_join`).  The final layer H^{(x) qt} commutes with copy
    permutations, so the rows of the moment's column pass are constant on
    classes too: one row per class is gathered from the Gram and
    transformed, the moment's other rows are copies of their class's row,
    and one row pass over the whole matrix ends the layer.  Every entry is
    an integer sum scaled by a power of two, so the moment is exact up to
    the final layer; it agrees with brute force up to rounding.

    The Gram, scaled in place by sqrt(c_a c_b) for the class sizes c, is
    V^T rho V for the moment rho before the final layer; as that layer
    maps Sym^t to itself, it is handed over with the moment as its
    `compressed` operator, whose spectrum is that of the moment's
    compression.
    """
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

    dim = 1 << (q * t)
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

    # row a < D of the matrix is class a's row, transformed by the final
    # layer's column pass before it is copied to the class's other labels
    matrix = np.empty((dim, dim))
    gram.take(classes, axis=1, out=matrix[:sym], mode="clip")  # "clip": no buffer for out
    if layout.final_layer:
        corelin._walsh(matrix[:sym], 1)  # H is symmetric: row r of M H is H applied to row r
    _copy_class_rows(matrix, classes)
    if layout.final_layer:
        corelin._walsh(matrix, 0)
    return _hand_over(matrix, gram, sizes)


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


def _distance_peak_entries(local_dim: int, copies: int, complex_: bool = False,
                           compress: bool = True) -> int:
    """Upper estimate of `_haar_distance`'s peak besides its two inputs, in
    16-byte units: with `compress`, the moment's compression, then, beside
    the compressed moment, the larger of `corelin.trace_distance`'s two
    phases; without it (a SymmetricMoment hands its D x D operator over),
    the two phases alone.  The component search holds the difference and at
    most three D x D bool arrays (the pattern, its transpose and one
    frontier gather).  The solve holds two squares: the difference and the
    eigensolver's copy of it when it is one block (the worst case), or else
    all the gathered blocks, at most one square together, beside the
    difference and then beside the copy of the block being solved.  numpy's
    linalg allocates that copy with `malloc`, which tracemalloc does not
    trace, so a measured peak leaves it out.  `complex_` is the moment's
    dtype; the Haar moment is real."""
    sym = corelin.symmetric_subspace_dimension(local_dim, copies)
    square = sym * sym if complex_ else sym * sym // 2
    phases = max(square + 3 * (sym * sym // 16), 2 * square)
    if not compress:
        return phases
    return max(corelin._compression_peak_entries(local_dim, copies, complex_), square + phases)


def _haar_distance(
    moment: DensityOperator, haar: DensityOperator, local_dim: int, copies: int
) -> float:
    """Trace distance between a d^t x d^t moment and the Haar moment's D x D
    compression to the symmetric subspace (which is I/D), taken on the
    moment's compression, so the eigensolve runs at D = C(d+t-1, t), not at
    d^t: a SymmetricMoment's own, which every route hands over, or else
    `corelin.symmetric_compression` of a plain DensityOperator."""
    compressed = moment.compressed if isinstance(moment, SymmetricMoment) else None
    check_complex_array(_distance_peak_entries(local_dim, copies, np.iscomplexobj(moment.matrix),
                                               compress=compressed is None),
                        f"distance stage in Sym^{copies} of ({local_dim})^{copies}")
    if compressed is None:
        compressed = corelin.symmetric_compression(moment, local_dim, copies)
    return corelin.trace_distance(compressed, haar)


def compare_to_haar(spec: MomentSpec, method: Method) -> MomentReport:
    """Compute the ensemble moment by the chosen route and its trace distance
    to the Haar moment.  Both moments lie in the symmetric subspace, so the
    distance is taken on their D x D compressions there: the Haar moment's
    (`corelin.symmetric_compression`) before the route runs, and the one
    that every route, pairing, brute force or sampled, forms on its way and
    hands over with its moment, which is never compressed again.  One dense
    eigensolve of the d^t x d^t difference from `haar_moment` is the oracle
    it is tested against.  Deterministic given the function-space seed."""
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
