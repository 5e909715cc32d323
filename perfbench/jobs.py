"""Job lists of the benchmark workloads and the correctness checks on their outputs.

A job calls the same public prslab functions that the matching `prslab`
subcommand calls, and returns a small dict of results.  Running a job is
timed; its oracle (an independent second route, computed once per run) and
its check are not.

Seed handling: the workload seed orders the jobs, and the sampled jobs derive
their PRF key seed or uniform-sampling seed from it.  Exhaustive jobs do not
depend on it, so their outputs are compared with golden values recorded from
the initial prslab code (golden.json).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from prslab import boolfn, combinatorics, condcheck, expand, moments
from prslab.cli import _partitions, _tuple_with_shape
from prslab.moments import (
    ExhaustiveAllFunctions,
    Method,
    MomentSpec,
    PrfKeys,
    Source,
    UniformSample,
)
from prslab.prsgen import PrsGenerator, PrsKind

GOLDEN_PATH = Path(__file__).with_name("golden.json")

GOLDEN_ATOL = 1e-9      # distance against the recorded value
ROUTE_ATOL = 1e-12      # brute force against pairing, entrywise
PURITY_ATOL = 1e-12     # Tr rho^2 against the Gram-matrix sum
EXPAND_ATOL = 1e-12     # circuit against closed form (as `prslab expand-check`)
KEEP_MATRIX_DIM = 1024  # moments up to this dimension are kept for the checks

BINARY, GENERAL = PrsKind.BINARY_PHASE, PrsKind.GENERAL_PHASE


@dataclass
class Job:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict, object], list[str]]
    oracle: Callable[[], object] | None = None
    golden_fields: tuple[str, ...] = ()
    golden: dict = field(default_factory=dict)

    def problems(self, result: dict, reference) -> list[str]:
        out = self.check(result, reference)
        for key in self.golden_fields:
            if key not in self.golden:
                out.append(f"no golden value for {key}")
                continue
            want, got = self.golden[key], result[key]
            if isinstance(want, float):
                if not abs(got - want) <= GOLDEN_ATOL:
                    out.append(f"{key} {got!r} differs from golden {want!r}")
            elif got != want:
                out.append(f"{key} {got!r} differs from golden {want!r}")
        return out


def same_outputs(a: dict, b: dict) -> bool:
    """Exact equality of two job results, arrays compared bit for bit."""
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                    and x.shape == y.shape and np.array_equal(x, y)):
                return False
        elif x != y:
            return False
    return True


def check_pass(job_list, results, oracles: dict, same_as=None) -> list[str]:
    """One line per failed job of a pass: it raised, or its outputs are wrong.

    `oracles` caches each job's oracle across passes, so each runs once.
    With `same_as`, the results must also equal that pass's results exactly.
    """
    failed = []
    for k, job in enumerate(job_list):
        result = results[k]
        if isinstance(result, Exception):
            failed.append(f"{job.label}: raised {result!r}")
            continue
        if job.label not in oracles:
            try:
                oracles[job.label] = job.oracle() if job.oracle else None
            except Exception as exc:  # a broken oracle fails the job in every pass
                oracles[job.label] = exc
        reference = oracles[job.label]
        if isinstance(reference, Exception):
            failed.append(f"{job.label}: oracle raised {reference!r}")
            continue
        found = job.problems(result, reference)
        if same_as is not None:
            expected = same_as[k]
            if isinstance(expected, Exception) or not same_outputs(result, expected):
                found.append("output differs from the untraced pass")
        if found:
            failed.append(f"{job.label}: {'; '.join(found)}")
    return failed


def derived_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# --- moments ----------------------------------------------------------------

_ROUTES = {
    Method.BRUTE_FORCE: moments.ensemble_moment_bruteforce,
    Method.DELTA_PAIRING: moments.ensemble_moment_deltapair,
}
_METHOD_NAMES = {
    Method.BRUTE_FORCE: "bruteforce",
    Method.DELTA_PAIRING: "deltapair",
    Method.MONTE_CARLO: "montecarlo",
}


def _spec_text(spec: MomentSpec) -> str:
    parts = [spec.source.value, spec.kind.value, f"n={spec.n}"]
    if spec.i is not None:
        parts.append(f"i={spec.i}")
    if spec.ell is not None:
        parts.append(f"ell={spec.ell}")
    parts.append(f"t={spec.t}")
    space = spec.function_space
    if isinstance(space, ExhaustiveAllFunctions):
        parts.append("exhaustive")
    else:
        parts.append(f"{space.descriptor()['space']}:{space.count}")
    return " ".join(parts)


def _gram_purity(spec: MomentSpec) -> float:
    """sum_ab |<psi_a|psi_b>|^(2t) / M^2 from the member states themselves."""
    states = np.array([
        moments.member_state(spec, fns).amplitudes for fns in moments.member_functions(spec)
    ])
    gram = states.conj() @ states.T
    return float(np.sum(np.abs(gram) ** (2 * spec.t)) / len(states) ** 2)


def moment_job(spec: MomentSpec, method: Method, cross: Method | None = None) -> Job:
    """`prslab moments`: one ensemble moment and its distance to the Haar moment.

    Exhaustive jobs check the distance against golden.json; with `cross` set,
    the other route's moment must agree entrywise; sampled jobs check the
    purity of the returned moment against the member states' Gram matrix.
    """
    sampled = not isinstance(spec.function_space, ExhaustiveAllFunctions)

    def run():
        report = moments.compare_to_haar(spec, method)
        matrix = report.moment.matrix
        return {
            "distance": report.haar_distance,
            "dim": report.moment.dim,
            "moment": matrix if matrix.shape[0] <= KEEP_MATRIX_DIM else None,
        }

    if sampled:
        def oracle():
            return _gram_purity(spec)

        def check(result, purity):
            got = float(np.sum(np.abs(result["moment"]) ** 2))
            if not abs(got - purity) <= PURITY_ATOL:
                return [f"Tr rho^2 {got!r} differs from the Gram sum {purity!r}"]
            return []
    elif cross is not None:
        def oracle():
            return _ROUTES[cross](spec).matrix

        def check(result, other):
            gap = float(np.max(np.abs(result["moment"] - other)))
            if not gap <= ROUTE_ATOL:
                return [f"{_METHOD_NAMES[cross]} route differs by {gap:.3e}"]
            return []
    else:
        oracle = None

        def check(result, _):
            return []

    label = f"moments {_spec_text(spec)} {_METHOD_NAMES[method]}"
    return Job(label, run, check, oracle, () if sampled else ("distance",))


# --- expand-check, lemmas, good-census, condition ----------------------------

def expand_check_job(n: int, i: int, samples: int | None, seed: int) -> Job:
    """`prslab expand-check`: expansion circuit against its closed form."""
    label = f"expand-check n={n} i={i} " + ("exhaustive" if samples is None else f"samples={samples}")

    def run():
        if samples is None:
            functions = list(boolfn.enumerate_all(n, 2))
        else:
            rng = np.random.default_rng(derived_seed(seed, label))
            functions = [boolfn.random_function(n, 2, rng) for _ in range(samples)]
        worst = 0.0
        for f in functions:
            circuit = expand.evaluate(expand.construction1(f, n, i, BINARY))
            direct = expand.closed_form_construction1(f, n, i)
            worst = max(worst, float(np.max(np.abs(circuit.amplitudes - direct.amplitudes))))
        return {"functions": len(functions), "max_deviation": worst}

    def check(result, _):
        if not result["max_deviation"] <= EXPAND_ATOL:
            return [f"circuit deviates from the closed form by {result['max_deviation']:.3e}"]
        return []

    return Job(label, run, check, golden_fields=("functions",))


def lemmas_job(max_n: int, max_t: int, max_perm_t: int) -> Job:
    """`prslab lemmas`: distinct-tuple counts and symmetrized-ket norms, exactly."""

    def run():
        rows = []
        ok_all = True
        for n in range(1, max_n + 1):
            for t in range(1, max_t + 1):
                exact = combinatorics.dist_count(n, t)
                bound = combinatorics.dist_lower_bound(n, t)
                ok_all &= exact >= bound
                rows.append(("dist_count", n, t, exact, str(bound)))
        for t in range(1, max_perm_t + 1):
            for shape in _partitions(t):
                norm_sq = combinatorics.perm_state_norm_sq(_tuple_with_shape(shape))
                bound = combinatorics.perm_norm_bound(t, len(shape))
                ok_all &= norm_sq <= bound
                rows.append(("perm_norm", t, "+".join(map(str, shape)), str(norm_sq), bound))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        return {"rows": len(rows), "digest": digest, "ok": bool(ok_all)}

    def check(result, _):
        return [] if result["ok"] else ["a counting bound fails"]

    return Job(f"lemmas max_n={max_n} max_t={max_t} perm_t={max_perm_t}", run, check,
               golden_fields=("rows", "digest"))


def census_job(n: int, i: int, t: int) -> Job:
    """`prslab good-census`: census of the good set and every pairing round trip."""

    def run():
        census = combinatorics.good_census(n, i, t)
        members = 0
        round_trips = True
        for x_prime, y in combinatorics.iter_good_members(n, i, t):
            members += 1
            round_trips &= combinatorics.recombine(x_prime, y).round_trip()
        return {
            "dist_size": census.dist_size,
            "good_size": census.good_size,
            "bound": str(census.bound),
            "members": members,
            "round_trips": bool(round_trips),
        }

    def check(result, _):
        out = []
        if not result["round_trips"]:
            out.append("a recombination round trip fails")
        if result["members"] != result["good_size"]:
            out.append(f"{result['members']} members iterated, census says {result['good_size']}")
        return out

    return Job(f"good-census n={n} i={i} t={t}", run, check,
               golden_fields=("dist_size", "good_size", "bound"))


def condition_job(witness_kind: str, n: int, samples: int | None, seed: int) -> Job:
    """`prslab condition`: both basis-factorization conditions for a shipped witness."""
    kind = BINARY if witness_kind == "binary" else GENERAL
    label = f"condition {witness_kind} n={n} " + ("exhaustive" if samples is None else f"samples={samples}")

    def run():
        if witness_kind == "binary":
            witness = condcheck.binary_phase_witness(n)
        else:
            witness = condcheck.general_phase_witness(n)
        m = kind.range_modulus(n)
        if samples is None:
            functions = list(boolfn.enumerate_all(n, m))
        else:
            rng = np.random.default_rng(derived_seed(seed, label))
            functions = [boolfn.random_function(n, m, rng) for _ in range(samples)]
        report1 = condcheck.check_cond1(lambda f: PrsGenerator(kind, n, f), witness, n, functions)
        report2 = condcheck.check_cond2(witness)
        return {
            "functions": len(functions),
            "cond1": report1.passed,
            "cond2": report2.passed,
            "max_deviation": max(report1.max_deviation, report2.max_deviation),
        }

    def check(result, _):
        return [] if result["cond1"] and result["cond2"] else ["a condition check fails"]

    return Job(label, run, check, golden_fields=("functions",))


# --- workloads --------------------------------------------------------------

def _spec(source, kind, n, t, space=None, i=None, ell=None) -> MomentSpec:
    return MomentSpec(Source(source), n, t, kind, i=i, ell=ell,
                      function_space=space or ExhaustiveAllFunctions())


def _exact_pairing(seed):
    pair, brute = Method.DELTA_PAIRING, Method.BRUTE_FORCE
    return [
        moment_job(_spec("construction1", BINARY, 5, 2, i=1), pair),
        moment_job(_spec("construction1", BINARY, 4, 2, i=1), pair),
        moment_job(_spec("plain", BINARY, 3, 3), pair, cross=brute),
        moment_job(_spec("plain", BINARY, 2, 4), pair, cross=brute),
    ]


def _exhaustive_bruteforce(seed):
    pair, brute = Method.DELTA_PAIRING, Method.BRUTE_FORCE
    return [
        moment_job(_spec("plain", BINARY, 4, 2), brute, cross=pair),
        moment_job(_spec("construction1", BINARY, 3, 2, i=1), brute, cross=pair),
        moment_job(_spec("construction2", BINARY, 2, 1), brute),
        moment_job(_spec("construction3", BINARY, 2, 1, ell=3), brute),
        moment_job(_spec("plain", GENERAL, 2, 2), brute),
    ]


# (source, kind, n, t, space, count, i, ell)
_SAMPLED = (
    ("plain", GENERAL, 6, 1, "prf", 1024, None, None),
    ("construction2", BINARY, 4, 1, "prf", 256, None, None),
    ("construction2", GENERAL, 2, 2, "prf", 512, None, None),
    ("construction3", GENERAL, 4, 1, "prf", 512, None, 2),
    ("construction1", GENERAL, 4, 1, "uniform", 512, 2, None),
    ("construction3", BINARY, 2, 2, "uniform", 512, None, 4),
    ("plain", BINARY, 4, 2, "prf", 512, None, None),
)


def _sampled_keyed(seed):
    jobs = []
    for source, kind, n, t, space, count, i, ell in _SAMPLED:
        # the space's own seed is derived from the workload seed and the point
        point = f"{source} {kind.value} n={n} i={i} ell={ell} t={t} {space}:{count}"
        cls = PrfKeys if space == "prf" else UniformSample
        spec = _spec(source, kind, n, t, cls(count, derived_seed(seed, point)), i=i, ell=ell)
        jobs.append(moment_job(spec, Method.MONTE_CARLO))
    return jobs


def _lemma_checks(seed):
    return [
        census_job(4, 1, 3),
        census_job(6, 2, 2),
        lemmas_job(6, 5, 7),
        condition_job("binary", 3, None, seed),
        condition_job("general", 5, 64, seed),
        expand_check_job(5, 2, 64, seed),
    ]


WORKLOADS = {
    "exact_pairing": _exact_pairing,
    "exhaustive_bruteforce": _exhaustive_bruteforce,
    "sampled_keyed": _sampled_keyed,
    "lemma_checks": _lemma_checks,
}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def build(workload: str, seed: int) -> tuple[list[Job], Job]:
    """The workload's jobs in seed order, and the cheapest one as warm-up.

    The warm-up is a separate instance of the last listed (cheapest) job.
    """
    make = WORKLOADS[workload]
    golden = load_golden()
    jobs = make(seed)
    for job in jobs:
        job.golden = golden.get(job.label, {})
    warmup = make(seed)[-1]
    random.Random(seed).shuffle(jobs)
    return jobs, warmup
