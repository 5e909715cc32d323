"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible with -s, or on failure)
before asserting, so a full run doubles as a printed scorecard.
"""

import itertools
import json
import math
from functools import reduce

import numpy as np

from prslab import boolfn, cli, combinatorics, condcheck, corelin, expand, moments
from prslab.combinatorics import dist_count, dist_lower_bound, perm_norm_bound, perm_state_norm_sq
from prslab.corelin import DensityOperator
from prslab.moments import (
    Method,
    MomentSpec,
    PrfKeys,
    Source,
    ensemble_moment_bruteforce,
    ensemble_moment_deltapair,
    haar_moment,
)
from prslab.prsgen import PrsGenerator, PrsKind

from conftest import haar_moment_monte_carlo, register_permutation_operator


def _verdict(num, name, passed, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_method_equivalence():
    worst = 0.0
    cases = 0
    for t in (1, 2):
        for n in (2, 3):
            spec = MomentSpec(Source.PLAIN, n=n, t=t)
            diff = np.max(np.abs(
                ensemble_moment_bruteforce(spec).matrix
                - ensemble_moment_deltapair(spec).matrix
            ))
            worst = max(worst, float(diff))
            cases += 1
        for n, i in ((2, 1), (3, 1), (3, 2)):
            spec = MomentSpec(Source.CONSTRUCTION1, n=n, t=t, i=i)
            diff = np.max(np.abs(
                ensemble_moment_bruteforce(spec).matrix
                - ensemble_moment_deltapair(spec).matrix
            ))
            worst = max(worst, float(diff))
            cases += 1
    _verdict(1, "method equivalence", worst <= 1e-12,
             f"{cases} grid points, max entrywise diff {worst:.2e}")


def test_criterion_2_plain_first_moment():
    worst = 0.0
    for n in (2, 3):
        moment = ensemble_moment_bruteforce(MomentSpec(Source.PLAIN, n=n, t=1))
        worst = max(worst, float(np.max(np.abs(moment.matrix - np.eye(1 << n) / (1 << n)))))
    _verdict(2, "plain first moment is maximally mixed", worst <= 1e-12,
             f"max deviation {worst:.2e}")


def test_criterion_3_haar_oracle():
    ok = True
    details = []
    for d, t in ((2, 2), (4, 2), (2, 3)):
        exact = haar_moment(d, t)
        trace_dev = abs(exact.trace().real - 1.0)
        sampled = haar_moment_monte_carlo(d, t, samples=100_000, seed=123)
        td = corelin.trace_distance(exact, sampled)
        ok &= trace_dev <= 1e-12 and td <= 2e-2
        details.append(f"D={d},t={t}: TD={td:.4f}")
    _verdict(3, "Haar oracle vs Monte Carlo", ok, "; ".join(details))


def test_criterion_4_expansion_trend():
    distances = []
    for n in (3, 4):
        spec = MomentSpec(Source.CONSTRUCTION1, n=n, t=2, i=1)
        report = moments.compare_to_haar(spec, Method.DELTA_PAIRING)
        distances.append(report.haar_distance)
    _verdict(4, "distance to Haar strictly decreases with width",
             distances[1] < distances[0],
             f"n=3: {distances[0]:.4f} -> n=4: {distances[1]:.4f}")


def test_criterion_5_circuit_vs_closed_form():
    worst = 0.0
    for f in boolfn.enumerate_all(2, 2):
        circuit = expand.evaluate(expand.construction1(f, 2, 1))
        direct = expand.closed_form_construction1(f, 2, 1)
        worst = max(worst, float(np.max(np.abs(circuit.amplitudes - direct.amplitudes))))
    rng = np.random.default_rng(42)
    for _ in range(100):
        f = boolfn.random_function(4, 2, rng)
        circuit = expand.evaluate(expand.construction1(f, 4, 2))
        direct = expand.closed_form_construction1(f, 4, 2)
        worst = max(worst, float(np.max(np.abs(circuit.amplitudes - direct.amplitudes))))
    _verdict(5, "circuit matches closed form", worst <= 1e-12,
             f"116 functions, max amplitude diff {worst:.2e}")


def test_criterion_6_counting_lemmas():
    bound_ok = all(
        dist_count(n, t) >= dist_lower_bound(n, t)
        for n in range(1, 9)
        for t in range(1, 9)
    )

    def partitions(t, smallest=1):
        if t == 0:
            yield ()
            return
        for first in range(smallest, t + 1):
            for rest in partitions(t - first, first):
                yield (first,) + rest

    def tuple_with_shape(shape):
        width = max(1, (len(shape) - 1).bit_length())
        out = []
        for value, mult in enumerate(shape):
            out.extend([format(value, f"0{width}b")] * mult)
        return tuple(out)

    norm_ok = True
    cross_ok = True
    for t in range(1, 6):
        for shape in partitions(t):
            elements = tuple_with_shape(shape)
            norm_sq = perm_state_norm_sq(elements)
            norm_ok &= norm_sq <= perm_norm_bound(t, len(shape))
            if t <= 4:
                local = 1 << len(elements[0])
                labels = [int(e, 2) for e in elements]
                base = np.zeros(local**t, dtype=complex)
                base[sum(v * local ** (t - 1 - j) for j, v in enumerate(labels))] = 1.0
                acc = np.zeros_like(base)
                for pi in itertools.permutations(range(t)):
                    acc += register_permutation_operator(local, t, pi) @ base
                dense = float(np.vdot(acc, acc).real) / math.factorial(t)
                cross_ok &= abs(dense - float(norm_sq)) <= 1e-12
    _verdict(6, "counting lemmas hold exactly", bound_ok and norm_ok and cross_ok,
             "64 falling-factorial cases; all multiset shapes t<=5; dense cross-check t<=4")


def _good_scan_int(n, i, t):
    """Independent recombination-set scan on integer bit arithmetic."""
    members = set()
    head_bits = n - i
    clash_bits = n - 2 * i
    for xs in itertools.product(range(1 << i), repeat=t):
        for ys in itertools.product(range(1 << n), repeat=t):
            heads = [y >> i for y in ys]
            if len(set(heads)) != t:
                continue
            if any(
                (y & ((1 << clash_bits) - 1)) == (y >> (n - clash_bits))
                for y in ys
            ):
                continue
            members.add((xs, ys))
    return members


def test_criterion_7_good_set_machinery():
    ok = True
    details = []
    for n, i, t in ((3, 1, 2), (4, 1, 2)):
        members = list(combinatorics.iter_good_members(n, i, t))
        member_set = set(members)
        round_trips = all(
            combinatorics.recombine(x_prime, y).round_trip() for x_prime, y in members
        )
        independent = _good_scan_int(n, i, t)
        as_ints = {
            (tuple(int(x, 2) for x in xp), tuple(int(v, 2) for v in y))
            for xp, y in members
        }
        count_match = as_ints == independent and len(members) == len(independent)
        non_members_rejected = True
        for xp in itertools.product(combinatorics.all_bit_strings(i), repeat=t):
            for y in itertools.product(combinatorics.all_bit_strings(n), repeat=t):
                if (xp, y) in member_set:
                    continue
                try:
                    combinatorics.recombine(xp, y)
                    non_members_rejected = False
                except ValueError:
                    pass
        ok &= round_trips and count_match and non_members_rejected
        details.append(f"({n},{i},{t}): {len(members)} members")
    _verdict(7, "recombination census and round-trips", ok, "; ".join(details))


def test_criterion_8_generalization_condition():
    ok = True
    details = []
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        witness = condcheck.binary_phase_witness(n)
        r1 = condcheck.check_cond1(
            lambda f: PrsGenerator(PrsKind.BINARY_PHASE, n, f),
            witness, n, boolfn.enumerate_all(n, 2),
        )
        r2 = condcheck.check_cond2(witness)
        ok &= r1.passed and r2.passed
        general = condcheck.general_phase_witness(n)
        functions = [boolfn.random_function(n, 1 << n, rng) for _ in range(64)]
        g1 = condcheck.check_cond1(
            lambda f: PrsGenerator(PrsKind.GENERAL_PHASE, n, f),
            general, n, functions,
        )
        g2 = condcheck.check_cond2(general)
        ok &= g1.passed and g2.passed
        details.append(f"n={n} ok")
    # negative controls must fail and locate their counterexamples
    n = 2
    good = condcheck.binary_phase_witness(n)
    modulus, table = good.u.parameters
    identity_rows = np.zeros_like(table)  # U_x = identity for every x, as U_0 is
    broken_family = condcheck.ConditionWitness(
        n, corelin.phase_diagonal_layer(good.u.target_qubits, modulus, identity_rows),
        good.v, good.w, good.scale,
    )
    neg1 = condcheck.check_cond1(
        lambda f: PrsGenerator(PrsKind.BINARY_PHASE, n, f),
        broken_family, n, boolfn.enumerate_all(n, 2),
    )
    unscaled = condcheck.ConditionWitness(n, good.u, good.v, good.w, 1.0)
    neg2 = condcheck.check_cond2(unscaled)
    ok &= (not neg1.passed) and len(neg1.failures) > 0
    ok &= (not neg2.passed) and len(neg2.failures) > 0
    _verdict(8, "generalization condition witnesses", ok,
             "; ".join(details) + "; negative controls located "
             f"{len(neg1.failures)}+{len(neg2.failures)} counterexamples")


def test_criterion_9_prf_substitution():
    t = 2
    spec_prf = MomentSpec(Source.PLAIN, n=3, t=t, function_space=PrfKeys(4096, seed=0))
    folded = np.array([
        reduce(np.kron, [moments.member_state(spec_prf, fns).amplitudes] * t)
        for fns in moments.member_functions(spec_prf)
    ])
    haar = haar_moment(8, t)
    d_prf = corelin.trace_distance(
        DensityOperator(folded.T @ folded.conj() / len(folded)), haar
    )
    batches = 16
    size = len(folded) // batches
    batch_distances = []
    for b in range(batches):
        seg = folded[b * size : (b + 1) * size]
        batch_distances.append(
            corelin.trace_distance(DensityOperator(seg.T @ seg.conj() / size), haar)
        )
    stderr = float(np.std(batch_distances, ddof=1) / math.sqrt(batches))
    d_exact = corelin.trace_distance(
        ensemble_moment_deltapair(MomentSpec(Source.PLAIN, n=3, t=t)), haar
    )
    gap = abs(d_prf - d_exact)
    _verdict(9, "keyed sample tracks the exact average", gap <= 5 * stderr,
             f"gap {gap:.4f} vs 5*SE {5 * stderr:.4f}")


def test_criterion_10_sweep_determinism(tmp_path):
    config = {
        "grid": {
            "source": ["plain", "construction1"],
            "kind": ["binary"],
            "n": [2, 3],
            "i": [1],
            "t": [1, 2],
            "space": ["exhaustive"],
            "method": ["deltapair"],
        },
        "seed": 0,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    contents = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["--config", str(cfg), "--out-dir", str(out),
                         "--canonical", "sweep"])
        assert code == 0
        contents.append((out / "sweep.csv").read_bytes())
    _verdict(10, "sweep reruns are byte-identical", contents[0] == contents[1],
             f"{len(contents[0])} bytes")
