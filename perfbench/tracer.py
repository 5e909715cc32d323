"""Span recorder for the traced pass.

`Recorder.patched()` replaces every public function of the prslab modules
below with a timing wrapper, in every module namespace that holds it (so
names imported into another module, such as `moments.prepare`, are wrapped
too), and restores the originals on exit.  prslab itself is not edited.

* A call of a plain function is one span.  A generator is timed per
  `next()`: each resumption is one span, a child of whatever span consumes it.
* Per-element helpers (PER_ELEMENT) are not wrapped; the counts they would
  give are derived from the arguments of the functions that call them.
* Spans are kept in memory (compact arrays) and written out by `dump`.
* A span's self time is its duration minus the durations of its children.

The per-layer metrics of BENCHMARK.json are computed from these spans by
`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
import weakref
from array import array
from contextlib import contextmanager

import numpy as np
from prslab.corelin import DensityOperator

MODULES = ("boolfn", "prsgen", "expand", "corelin", "moments", "combinatorics", "condcheck")
NAMESPACES = ("prslab",) + tuple(f"prslab.{m}" for m in MODULES)

PER_ELEMENT = frozenset({
    "boolfn.prf_eval",
    "combinatorics.in_good_set",
    "combinatorics.in_dist_set",
    "combinatorics.all_bit_strings",
    "combinatorics.recombination_elements",
})

JOB = "bench.job"  # root span of one job; its self time is the benchmark's own code
PAIRING = "moments.ensemble_moment_deltapair"
_MIB = float(1 << 20)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.job_labels: list[str] = []
        # one entry per span
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self._stack: list[list] = []   # [span index, time covered by children]
        self._job = -1
        self.counters: dict[str, float] = {}
        self._counted: dict[int, weakref.ref] = {}  # dense operators already counted

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def peak(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0.0), value)

    def enter(self, name_id: int) -> list:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_job.append(self._job)
        self.span_end.append(0.0)
        self.span_self.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        idx, covered = frame
        self._stack.pop()
        duration = end - self.span_start[idx]
        self.span_end[idx] = end
        self.span_self[idx] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def job(self, label: str):
        self._job = len(self.job_labels)
        self.job_labels.append(label)
        self._counted.clear()
        frame = self.enter(self.name_id(JOB))
        try:
            yield
        finally:
            self.exit(frame)
            self._job = -1

    # --- wrapping -----------------------------------------------------------

    def _count_dense(self, name: str, result) -> None:
        """Computed bytes of each d^t x d^t operator a public call returns, once."""
        if isinstance(result, DensityOperator):
            array_ = result.matrix
        elif name == "corelin.hadamard_conjugate" and isinstance(result, np.ndarray):
            array_ = result
        else:
            return
        seen = self._counted.get(id(array_))
        if seen is None or seen() is not array_:
            self._counted[id(array_)] = weakref.ref(array_)
            self.add("dense_bytes", array_.nbytes)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        on_call = ON_CALL.get(name)
        if inspect.isgeneratorfunction(fn):
            on_yield = ON_YIELD.get(name)

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if on_call:
                    on_call(self, *args, **kwargs)
                return self._iterate(nid, fn(*args, **kwargs), on_yield)
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call:
                on_call(self, *args, **kwargs)
            frame = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            self._count_dense(name, result)
            return result

        if name == PAIRING:
            @functools.wraps(fn)
            def pairing_wrapper(*args, **kwargs):
                tracemalloc.start()
                try:
                    return wrapper(*args, **kwargs)
                finally:
                    self.peak("pairing_peak_bytes", tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            return pairing_wrapper
        return wrapper

    def _iterate(self, nid: int, gen, on_yield):
        while True:
            frame = self.enter(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.exit(frame)
            if on_yield:
                on_yield(self)
            yield item

    @contextmanager
    def patched(self):
        """Wrap the public prslab functions for the duration of the block."""
        wrappers: dict[int, object] = {}
        restore = []
        for ns_name in NAMESPACES:
            ns = importlib.import_module(ns_name)
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                package, _, home = (obj.__module__ or "").rpartition(".")
                name = f"{home}.{obj.__name__}"
                if package != "prslab" or home not in MODULES or name in PER_ELEMENT:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(name, obj)
                restore.append((ns, attr, obj))
                setattr(ns, attr, wrappers[id(obj)])
        try:
            yield
        finally:
            for ns, attr, obj in restore:
                setattr(ns, attr, obj)

    # --- results ------------------------------------------------------------

    def totals(self, job: int | None = None) -> dict[str, list[float]]:
        """name -> [calls, inclusive seconds, self seconds], over one job or all."""
        out: dict[str, list[float]] = {}
        for k in range(len(self.span_start)):
            if job is not None and self.span_job[k] != job:
                continue
            entry = out.setdefault(self.names[self.span_name[k]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self.span_end[k] - self.span_start[k]
            entry[2] += self.span_self[k]
        return out

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["names"] = self.names
        payload["jobs"] = self.job_labels
        payload["spans"] = {
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "job": self.span_job.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


# --- counts derived from arguments -------------------------------------------

def _on_pairing(rec, spec, *args, **kwargs):
    bits = spec.n * spec.t if spec.source.value == "plain" else 2 * spec.n * spec.t
    rec.add("pairing_tuples", 2 ** bits)


def _on_trace_distance(rec, a, b, *args, **kwargs):
    rec.peak("eig_dim_max", a.dim)


def _on_good_members(rec, n, i, t):
    rec.add("tuples_scanned", 2 ** ((n + i) * t))


def _on_cond1(rec, gen_factory, witness, n, functions):
    rec.add("basis_checks", len(functions) << n)


def _on_cond2(rec, witness):
    rec.add("basis_checks", 1 << witness.n)


def _counter(name):
    return lambda rec, *args, **kwargs: rec.add(name, 1)


ON_CALL = {
    PAIRING: _on_pairing,
    "corelin.trace_distance": _on_trace_distance,
    "combinatorics.iter_good_members": _on_good_members,
    "condcheck.check_cond1": _on_cond1,
    "condcheck.check_cond2": _on_cond2,
    "boolfn.prf_truth_table": _counter("tables"),
    "boolfn.random_function": _counter("tables"),
}
ON_YIELD = {
    "boolfn.enumerate_all": _counter("tables"),
    "combinatorics.iter_good_members": _counter("good_members"),
}


# --- per-layer metrics ---------------------------------------------------------

def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    totals = rec.totals()

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    c = rec.counters.get
    scanned = c("tuples_scanned", 0.0)
    out = {
        "boolfn.enumerate_s": (incl("boolfn.enumerate_all"), "s"),
        "boolfn.draw_s": (incl("boolfn.prf_truth_table", "boolfn.random_function",
                               "boolfn.derive_keys"), "s"),
        "boolfn.tables": (c("tables", 0.0), "count"),
        "prsgen.prepare_s": (incl("prsgen.prepare"), "s"),
        "prsgen.apply_s": (self_("prsgen.apply_to_register", "prsgen.apply_to_state"), "s"),
        "prsgen.calls": (calls(*[n for n in totals if n.startswith("prsgen.")]), "count"),
        "expand.evaluate_s": (self_("expand.evaluate"), "s"),
        "expand.members": (calls("expand.evaluate"), "count"),
        "expand.closed_form_s": (incl("expand.closed_form_construction1"), "s"),
        "corelin.apply_layer_s": (self_("corelin.apply_layer"), "s"),
        "corelin.layers": (calls("corelin.apply_layer"), "count"),
        "corelin.materialize_s": (incl("corelin.materialize"), "s"),
        "corelin.unitarity_checks": (calls("corelin.materialize"), "count"),
        "corelin.projector_s": (incl("corelin.symmetric_projector"), "s"),
        "corelin.eig_s": (incl("corelin.trace_distance"), "s"),
        "corelin.eig_dim_max": (c("eig_dim_max", 0.0), "dim"),
        "corelin.hconj_s": (incl("corelin.hadamard_conjugate"), "s"),
        "corelin.dense_mib": (c("dense_bytes", 0.0) / _MIB, "MiB"),
        "moments.pairing_s": (self_(PAIRING), "s"),
        "moments.pairing_tuples": (c("pairing_tuples", 0.0), "count"),
        "moments.pairing_peak_mib": (c("pairing_peak_bytes", 0.0) / _MIB, "MiB"),
        "moments.accumulate_s": (self_("moments.ensemble_moment_over_functions"), "s"),
        "moments.members": (calls("moments.member_state"), "count"),
        "moments.haar_s": (self_("moments.haar_moment"), "s"),
        "combinatorics.census_s": (self_("combinatorics.good_census",
                                         "combinatorics.iter_good_members"), "s"),
        "combinatorics.recombine_s": (incl("combinatorics.recombine"), "s"),
        "combinatorics.lemma_s": (self_("combinatorics.dist_count",
                                        "combinatorics.dist_lower_bound",
                                        "combinatorics.perm_state_norm_sq",
                                        "combinatorics.perm_norm_bound"), "s"),
        "combinatorics.tuples_scanned": (scanned, "count"),
        "combinatorics.good_ratio": (c("good_members", 0.0) / scanned if scanned else 0.0, "ratio"),
        "condcheck.cond1_s": (self_("condcheck.check_cond1"), "s"),
        "condcheck.cond2_s": (incl("condcheck.check_cond2"), "s"),
        "condcheck.basis_checks": (c("basis_checks", 0.0), "count"),
    }
    for module in MODULES + ("bench",):
        prefix = f"{module}."
        out[f"{module}.self_s"] = (
            sum(v[2] for n, v in totals.items() if n.startswith(prefix)), "s")
    return out


# --- the baseline table of ROADMAP.md ----------------------------------------

C1N5 = "moments construction1 binary n=5 i=1 t=2 exhaustive deltapair"
PLAIN_N4 = "moments plain binary n=4 t=2 exhaustive bruteforce"
BRUTE_FORCE = "moments.ensemble_moment_bruteforce"

# (row, workload, job label, span measured, per call?, ROADMAP figure in seconds)
BASELINE_ROWS = (
    ("c1 n=5 i=1 t=2 pairing moment", "exact_pairing", C1N5, PAIRING, False, 8.9),
    ("c1 n=5 i=1 t=2 symmetric projector", "exact_pairing", C1N5,
     "corelin.symmetric_projector", False, 2.4),
    ("c1 n=5 i=1 t=2 eigvalsh distance", "exact_pairing", C1N5,
     "corelin.trace_distance", False, 16.2),
    ("plain n=4 t=2 brute force", "exhaustive_bruteforce", PLAIN_N4, BRUTE_FORCE, False, 4.75),
    ("enumerate_all(4, 2)", "exhaustive_bruteforce", PLAIN_N4,
     "boolfn.enumerate_all", False, 0.48),
    ("expand.evaluate per member, c1 n=3", "exhaustive_bruteforce",
     "moments construction1 binary n=3 i=1 t=2 exhaustive bruteforce",
     "expand.evaluate", True, 0.41e-3),
    ("good_census(4, 1, 3)", "lemma_checks", "good-census n=4 i=1 t=3",
     "combinatorics.good_census", False, 0.210),
    ("plain n=4 t=2 prf:512 brute force", "sampled_keyed",
     "moments plain binary n=4 t=2 prf:512 montecarlo", BRUTE_FORCE, False, 0.042),
)


def baseline_rows(rec: Recorder, workload: str) -> list[dict]:
    """The ROADMAP baseline rows this workload's traced pass measures.

    Times are inclusive span times; a row is flagged when it is more than 2x
    off the ROADMAP figure either way.
    """
    rows = []
    for row, row_workload, label, span, per_call, roadmap in BASELINE_ROWS:
        if row_workload != workload:
            continue
        calls, inclusive, _ = rec.totals(rec.job_labels.index(label))[span]
        measured = inclusive / calls if per_call else inclusive
        ratio = measured / roadmap
        rows.append({"row": row, "job": label, "measured_s": measured, "roadmap_s": roadmap,
                     "ratio": ratio, "off_by_2x": not 0.5 <= ratio <= 2.0})
    return rows
