"""Experiment runner: seeded, deterministic verification suites with CSV/JSON artifacts.

Configuration comes from an optional JSON file plus command-line flags; flags
win.  All floating-point output goes through one fixed formatter and every
random draw is seeded explicitly, so identical configurations reproduce
byte-identical artifacts (the runtime_ms column is zeroed under --canonical,
which is the only field that is not reproducible).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import budget, combinatorics, condcheck, expand, moments
from .budget import BudgetError
from .moments import ExhaustiveAllFunctions, Method, MomentSpec, PrfKeys, Source, UniformSample
from .prsgen import PrsGenerator, PrsKind

SCHEMA_LINE = "# schema=2"

MOMENT_COLUMNS = (
    "source", "kind", "n", "i", "t", "method", "seed", "haar_distance", "runtime_ms",
    "ell", "shared_key", "space",
)
SWEEP_COLUMNS = MOMENT_COLUMNS + ("method_equiv_max_diff",)


def fmt_value(value) -> str:
    """Fixed, locale-free rendering: '.' decimal, scientific below 1e-3."""
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) < 1e-3:
            return f"{value:.12e}"
        return f"{value:.12f}"
    if value is None:
        return ""
    return str(value)


def write_csv(path: Path, columns, rows) -> None:
    lines = [SCHEMA_LINE, ",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _parse_space(text: str, seed: int | None):
    """The function space a --space value names; the space checks its count and seed."""
    if text == "exhaustive":
        return ExhaustiveAllFunctions()
    for prefix, cls in (("prf:", PrfKeys), ("uniform:", UniformSample)):
        if text.startswith(prefix):
            digits = text[len(prefix):]
            if seed is None:
                raise ValueError(f"--seed is required for the sampled space {text!r}")
            return cls(int(digits) if digits.removeprefix("-").isdecimal() else digits, seed)
    raise ValueError(f"unknown function space {text!r}")


_METHODS = {
    "bruteforce": Method.BRUTE_FORCE,
    "deltapair": Method.DELTA_PAIRING,
    "montecarlo": Method.MONTE_CARLO,
}


def _space_text(space) -> str:
    """The function space as the CLI spells it: exhaustive, prf:COUNT or uniform:COUNT."""
    desc = space.descriptor()
    return f"{desc['space']}:{desc['count']}" if "count" in desc else desc["space"]


def _report_row(report: moments.MomentReport, canonical: bool):
    spec = report.spec
    return (
        spec.source.value,
        spec.kind.value,
        spec.n,
        spec.i,
        spec.t,
        report.method.value,
        report.seed,
        report.haar_distance,
        0 if canonical else report.runtime_ms,
        spec.ell,
        spec.shared_key,
        _space_text(spec.function_space),
    )


def _compare(methods, seed, source, kind, n, i, ell, t, space, shared_key):
    """The reports of one comparison per method at the point the flag values
    name; every method is refused or accepted before the first comparison.
    A report holds its moment's class Gram, so each later comparison runs
    under the budget less the Grams held, in whole MiB rounded up."""
    spec = MomentSpec(Source(source), n, t, PrsKind(kind), i=i, ell=ell,
                      function_space=_parse_space(space, seed), shared_key=shared_key)
    for method in methods:
        moments._check_method(spec, method)
    reports = [moments.compare_to_haar(spec, method) for method in methods[:1]]
    for method in methods[1:]:
        mib, held = budget.budget_mib(), -(-sum(r.moment.gram.nbytes for r in reports) >> 20)
        names = ", ".join(r.method.value for r in reports)
        origin = f"{mib} MiB less the {held} MiB that the {names} report's class Gram holds"
        with budget.limit(mib - held, origin):
            try:
                reports.append(moments.compare_to_haar(spec, method))
            except BudgetError as err:  # a refusal by the reduced budget says why
                raise BudgetError(f"{err}: {origin}") if str(err).endswith(" MiB") else err
    return reports


def cmd_moments(args, out_dir: Path) -> int:
    methods = (
        [Method.BRUTE_FORCE, Method.DELTA_PAIRING]
        if args.method == "both"
        else [_METHODS[args.method]]
    )
    reports = _compare(methods, args.seed, args.source, args.kind, args.n, args.i, args.ell,
                       args.t, args.space, args.shared_key)
    rows = [_report_row(report, args.canonical) for report in reports]
    payloads = [json.loads(report.to_json(canonical_runtime=args.canonical))
                for report in reports]
    write_csv(out_dir / "moments.csv", MOMENT_COLUMNS, rows)
    write_json(out_dir / "moments.json", payloads)
    return 0


def cmd_expand_check(args, out_dir: Path) -> int:
    space = _parse_space("exhaustive" if args.samples is None else f"uniform:{args.samples}",
                         args.seed)
    worst, count = 0.0, 0
    for count, (f,) in enumerate(space.members(args.n, 2), 1):
        circuit = expand.evaluate(expand.construction1(f, args.n, args.i))
        direct = expand.closed_form_construction1(f, args.n, args.i)
        worst = max(worst, float(np.max(np.abs(circuit.amplitudes - direct.amplitudes))))
    passed = worst <= 1e-12
    write_json(out_dir / "expand_check.json", {
        "n": args.n, "i": args.i, "functions": count,
        "max_deviation": worst, "passed": passed,
    })
    return 0 if passed else 1


def cmd_lemmas(args, out_dir: Path) -> int:
    if args.max_n < 1 or args.max_t < 1:  # an empty table would claim every bound holds
        raise ValueError(f"--max-n and --max-t must be >= 1, got {args.max_n} and {args.max_t}")
    rows = []
    ok_all = True
    for n in range(1, args.max_n + 1):
        for t in range(1, args.max_t + 1):
            exact = combinatorics.dist_count(n, t)
            bound = combinatorics.dist_lower_bound(n, t)
            ok = exact >= bound
            ok_all &= ok
            try:  # refused before anything is written
                rows.append(("dist_count", n, t, "", exact, float(bound), ok))
            except OverflowError:
                raise ValueError(f"the bound at n={n}, t={t} is past float range") from None
    for t in range(1, min(args.max_t, combinatorics._MAX_PERM_LEN) + 1):
        for shape in _partitions(t):
            elements = _tuple_with_shape(shape)
            norm_sq = combinatorics.perm_state_norm_sq(elements)
            bound = combinatorics.perm_norm_bound(t, len(shape))
            ok = norm_sq <= bound
            ok_all &= ok
            rows.append(
                ("perm_norm", "", t, "+".join(map(str, shape)), float(norm_sq), bound, ok)
            )
    write_csv(out_dir / "lemmas.csv",
              ("check", "n", "t", "detail", "value", "bound", "ok"), rows)
    return 0 if ok_all else 1


def _partitions(t: int, smallest: int = 1):
    if t == 0:
        yield ()
        return
    for first in range(smallest, t + 1):
        for rest in _partitions(t - first, first):
            yield (first,) + rest


def _tuple_with_shape(shape) -> list[str]:
    width = max(1, (len(shape) - 1).bit_length())
    elements = []
    for value, multiplicity in enumerate(shape):
        elements.extend([format(value, f"0{width}b")] * multiplicity)
    return elements


def cmd_good_census(args, out_dir: Path) -> int:
    n, i, t = args.n, args.i, args.t
    census = combinatorics.good_census(n, i, t)
    ok = True
    for x_prime, y in combinatorics.iter_good_members(n, i, t):
        witness = combinatorics.recombine(x_prime, y)
        ok &= witness.round_trip()
    write_csv(out_dir / "good_census.csv",
              ("n", "i", "t", "dist", "good", "bound", "slack"),
              [(census.n, census.i, census.t, census.dist_size, census.good_size,
                census.bound, census.slack)])
    return 0 if ok and census.good_size >= census.bound else 1


def cmd_condition(args, out_dir: Path) -> int:
    n, kind = args.n, PrsKind(args.witness)
    if args.samples < 1:  # refused on the enumerated path too, which draws no samples
        raise ValueError(f"--samples must be a whole number >= 1, got {args.samples}")
    witness = condcheck.phase_witness(kind, n)
    space = _parse_space("exhaustive" if kind is PrsKind.BINARY_PHASE and n <= 3
                         else f"uniform:{args.samples}", args.seed)
    functions = (f for (f,) in space.members(n, kind.range_modulus(n)))
    report1 = condcheck.check_cond1(lambda f: PrsGenerator(kind, n, f), witness, n, functions)
    report2 = condcheck.check_cond2(witness)
    payload = {
        "witness": args.witness,
        "passed": report1.passed and report2.passed,
        "reports": [json.loads(report1.to_json()), json.loads(report2.to_json())],
    }
    write_json(out_dir / f"condition_{args.witness}.json", payload)
    return 0 if payload["passed"] else 1


# each sweep grid axis with its default; every axis but the method spans the points
_GRID_AXES = {
    "source": ["plain"], "kind": ["binary"], "n": [], "i": [None], "ell": [None], "t": [1],
    "space": ["exhaustive"], "shared_key": [False], "method": ["bruteforce"],
}


def cmd_sweep(args, out_dir: Path) -> int:
    grid, seed = args.grid, args.seed
    flags = _flag_actions(build_parser(), "moments")  # a point's values are moments flags
    if not isinstance(grid, dict):
        raise ValueError("sweep needs a config file with a 'grid' object")
    axes = {name: grid.get(name, default) for name, default in _GRID_AXES.items()}
    for name, values in axes.items():
        if not isinstance(values, list):
            raise ValueError(f"sweep grid axis {name!r} must be a list, got {values!r}")
    method_names = axes.pop("method")
    for name in method_names:
        if not isinstance(name, str) or name not in _METHODS:
            raise ValueError(f"unknown sweep method {name!r}; expected one of {list(_METHODS)}")
    methods = [_METHODS[m] for m in method_names]
    points = sorted(
        itertools.product(*axes.values()),
        key=lambda p: tuple(str(v) for v in p),
    )
    rows, failures = [], []
    for point in points:
        point_desc = dict(zip(axes, point))
        try:
            for name, value in point_desc.items():
                _flag_value(flags[name], value)
            reports = _compare(methods, seed, **point_desc)
            equiv = None
            if len(reports) > 1:  # rho[x, y] = G[a, b]: the class Grams' gap is rho's
                grams = [r.moment.gram for r in reports]
                equiv = float(np.max(np.abs(grams[0] - grams[1])))
            for report in reports:
                rows.append(_report_row(report, args.canonical) + (equiv,))
        except (BudgetError, ValueError) as exc:
            failures.append({"point": point_desc, "error": str(exc)})
    rows.sort(key=lambda r: tuple(str(v) for v in r))
    write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    if failures:
        write_json(out_dir / "sweep_failures.json", failures)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prslab",
        description="verification suites for phase-state ensembles and their expansions",
    )
    parser.add_argument("--config", type=Path, help="JSON config file (flags win)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--budget-mib", type=int, default=None)
    parser.add_argument("--out-dir", type=Path, default=None)
    parser.add_argument("--canonical", action="store_true",
                        help="write runtime_ms as 0 for byte-stable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="one ensemble-vs-Haar comparison")
    p.set_defaults(func=cmd_moments)
    p.add_argument("--source", choices=[s.value for s in Source], required=True)
    p.add_argument("--kind", choices=[k.value for k in PrsKind], default="binary")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--space", default="exhaustive")
    p.add_argument("--method", choices=[*_METHODS, "both"], default="bruteforce")
    p.add_argument("--shared-key", action="store_true",
                   help="draw one function per member and reuse it for every "
                        "block (experimental variant, no agreement guarantee)")

    p = sub.add_parser("expand-check", help="circuit vs closed-form oracle")
    p.set_defaults(func=cmd_expand_check)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--samples", type=int, default=None,
                   help="sample count (default: exhaustive over all functions)")

    p = sub.add_parser("lemmas", help="exact counting bounds")
    p.set_defaults(func=cmd_lemmas)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-t", type=int, default=5,
                   help="largest t of the distinct-tuple rows; the perm-norm rows "
                        f"stop at t = min(max-t, {combinatorics._MAX_PERM_LEN})")

    p = sub.add_parser("good-census", help="recombination census and round-trips")
    p.set_defaults(func=cmd_good_census)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("condition", help="basis-factorization condition checks")
    p.set_defaults(func=cmd_condition)
    p.add_argument("--witness", choices=["binary", "general"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=64)

    p = sub.add_parser("sweep", help="grid of moment comparisons from a config file")
    p.set_defaults(func=cmd_sweep, grid=None)  # grid: the config file's grid object

    return parser


def _flag_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """dest -> action of each top-level flag and each flag of the subcommand."""
    actions = list(parser._actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            actions += action.choices[command]._actions
    return {action.dest: action for action in actions}


def _flag_value(action: argparse.Action, value):
    """A JSON value as the flag would hold it: true or false for a switch, a
    whole number for an int flag, a string (as a Path for a path flag)
    otherwise, and one of the flag's choices if it has them; null for an
    optional flag that is unset by default.  Any other value raises
    ValueError naming the flag."""
    if value is None and action.default is None and not action.required:
        return None
    if action.nargs == 0:
        ok, want = isinstance(value, bool), "true or false"
    elif action.type is int:
        ok, want = isinstance(value, int) and not isinstance(value, bool), "a whole number"
    else:
        ok, want = isinstance(value, str), "a string"
    if ok and action.choices is not None and value not in action.choices:
        ok, want = False, f"one of {list(action.choices)}"
    if not ok:
        raise ValueError(f"{action.dest.replace('_', '-')} must be {want}, got {value!r}")
    return Path(value) if action.type is Path else value


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> set[str]:
    """Fill the flags left unset, and the sweep's grid, from the config file,
    and return the names of the flags it filled.  A file that cannot be read,
    does not hold a JSON object or gives a flag a value it cannot take raises
    ValueError."""
    if args.config is None:
        return set()
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config {args.config} must hold a JSON object, "
                         f"got {type(config).__name__}")
    flags = _flag_actions(parser, args.command)
    filled = set()
    for key, value in config.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            continue
        current = getattr(args, attr)
        # identity checks: an explicit `--seed 0` must not look unset
        if current is None or current is False:
            setattr(args, attr, _flag_value(flags[attr], value) if attr in flags else value)
            filled.add(attr)
    return filled


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        from_config = _apply_config(args, parser)
        out_dir = Path(args.out_dir) if args.out_dir is not None else Path("prslab_out")
        out_dir.mkdir(parents=True, exist_ok=True)
        # resolved once, before any work; every check of the command reads it
        if args.budget_mib is None:
            mib, origin = budget.budget_mib(), budget.BUDGET_ENV_VAR
        elif "budget_mib" in from_config:
            mib, origin = args.budget_mib, f"budget-mib in {args.config}"
        else:
            mib, origin = args.budget_mib, "--budget-mib"
        with budget.limit(mib, origin):
            return args.func(args, out_dir)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ShapeError included
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
