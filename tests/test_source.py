"""Rules that every module of the package keeps."""

import ast
import importlib
import os
import subprocess
import sys
import typing
from pathlib import Path

import prslab
from prslab import moments
from prslab.expand import Layout


def test_no_assert_statements_in_the_package():
    # invariants raise explicitly, so that they also hold under python -O,
    # which strips every assert statement
    modules = sorted(Path(prslab.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _names_source(node):
    return (isinstance(node, ast.Name) and node.id == "Source"
            or isinstance(node, ast.Attribute) and node.attr in ("Source", "source"))


def test_source_members_are_read_only_in_expand_layout():
    # the sources differ only in their layouts: every other place reads the
    # layout, so a new route cannot branch on the source.  Naming a source's
    # value (spec.source.value) is allowed; reading a member such as
    # Source.PLAIN, or comparing a spec's source, is not
    modules = sorted(Path(prslab.__file__).parent.rglob("*.py"))
    inside_layout, offenders = set(), []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "expand.py":
            (layout,) = [node for node in tree.body
                         if isinstance(node, ast.FunctionDef) and node.name == "layout"]
            inside_layout = {id(node) for node in ast.walk(layout)}
        for node in ast.walk(tree):
            member = (isinstance(node, ast.Attribute) and _names_source(node.value)
                      and node.attr != "value")
            compared = isinstance(node, ast.Compare) and any(
                _names_source(sub) for sub in ast.walk(node))
            if (member or compared) and id(node) not in inside_layout:
                offenders.append(f"{path.name}:{node.lineno}")
    assert inside_layout, "expand.layout not found"
    assert offenders == []


SAMPLERS = {"enumerate_all", "random_function", "prf_truth_table", "derive_keys", "default_rng"}


def test_members_are_drawn_only_by_the_function_spaces():
    # one sampler: outside boolfn, only the function-space classes (the
    # FunctionSpace members and their bases) name a function that enumerates
    # or draws tables, so no command or route grows a second way to draw them
    space_classes = {cls.__name__ for space in typing.get_args(moments.FunctionSpace)
                     for cls in space.__mro__}
    modules = sorted(Path(prslab.__file__).parent.rglob("*.py"))
    allowed, offenders = set(), []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "moments.py":
            classes = [node for node in tree.body
                       if isinstance(node, ast.ClassDef) and node.name in space_classes]
            allowed = {id(node) for cls in classes for node in ast.walk(cls)}
        if path.name == "boolfn.py":
            continue
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if (isinstance(node, ast.Name) and node.id in SAMPLERS
                          or isinstance(node, ast.Attribute) and node.attr in SAMPLERS)
                      and id(node) not in allowed]
    assert allowed, "the function-space classes were not found in moments.py"
    assert offenders == []


def test_the_walsh_factors_are_read_only_by_the_walsh_kernel():
    # one Walsh loop: the Hadamard layer and the pairing moment's final
    # layer both run corelin._walsh, so no second factor loop grows back
    modules = sorted(Path(prslab.__file__).parent.rglob("*.py"))
    inside, offenders = set(), []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "corelin.py":
            (kernel,) = [node for node in tree.body
                         if isinstance(node, ast.FunctionDef) and node.name == "_walsh"]
            inside = {id(node) for node in ast.walk(kernel)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if (isinstance(node, ast.Name) and node.id == "_WALSH_FACTORS"
                          and isinstance(node.ctx, ast.Load)
                          or isinstance(node, ast.Attribute) and node.attr == "_WALSH_FACTORS")
                      and id(node) not in inside]
    assert inside, "corelin._walsh not found"
    assert offenders == []


def test_only_the_moment_s_matrix_expands_a_class_gram():
    # one expansion site: every route and the Haar oracle hand over a D x D
    # class Gram, and SymmetricMoment.matrix alone copies its class rows
    # out to the d^t x d^t matrix, on first read
    modules = sorted(Path(prslab.__file__).parent.rglob("*.py"))
    inside, offenders = set(), []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "moments.py":
            (moment,) = [node for node in tree.body
                         if isinstance(node, ast.ClassDef) and node.name == "SymmetricMoment"]
            (matrix,) = [node for node in moment.body
                         if isinstance(node, ast.FunctionDef) and node.name == "matrix"]
            inside = {id(node) for node in ast.walk(matrix)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and _names(node.func, "_copy_class_rows")
                      and id(node) not in inside]
    assert inside, "SymmetricMoment.matrix not found"
    assert offenders == []


def _names(node, name):
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def test_nothing_is_compressed_after_the_fact():
    # every moment, the Haar reference included, hands its Sym^t
    # compression over with it, so no module defines or calls a compressor,
    # and the moments module solves a distance only in compare_to_haar
    modules = sorted(Path(prslab.__file__).parent.rglob("*.py"))
    stage, offenders = [], []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if _names(node, "symmetric_compression")
                      or isinstance(node, ast.FunctionDef) and node.name == "symmetric_compression"]
        if path.name == "moments.py":
            stage = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "compare_to_haar"]
            inside = {id(node) for caller in stage for node in ast.walk(caller)}
            solves = [node for node in ast.walk(tree) if _names(node, "trace_distance")]
            offenders += [f"{path.name}:{node.lineno}" for node in solves
                          if id(node) not in inside]
            assert any(id(node) in inside for node in solves), "compare_to_haar solves no distance"
    assert stage, "moments.compare_to_haar not found"
    assert offenders == []


def test_the_cli_compares_only_in_one_helper():
    # cmd_moments and every sweep point run their refusals, then their
    # comparisons, through cli._compare, so the order is kept in one place
    path = Path(prslab.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (helper,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_compare"]
    inside = {id(node) for node in ast.walk(helper)}
    names = ("compare_to_haar", "_check_method")
    calls = [(name, node) for node in ast.walk(tree) for name in names if _names(node, name)]
    assert {name for name, node in calls if id(node) in inside} == set(names)
    assert [node.lineno for name, node in calls if id(node) not in inside] == []


def test_only_corelin_estimates_the_distance_peak():
    # trace_distance checks its own peak, so no other module models its
    # internals: no function outside corelin names both a distance and a peak
    modules = sorted(Path(prslab.__file__).parent.rglob("*.py"))
    offenders = [f"{path.name}:{node.lineno}" for path in modules if path.name != "corelin.py"
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.FunctionDef)
                 and "distance" in node.name and "peak" in node.name]
    assert offenders == []


def test_only_the_trace_distance_eigensolves():
    # one eigensolve site: both the component search and the character
    # split hand their blocks to corelin.trace_distance, which solves them
    modules = sorted(Path(prslab.__file__).parent.rglob("*.py"))
    inside, offenders = set(), []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "corelin.py":
            (solve,) = [node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "trace_distance"]
            inside = {id(node) for node in ast.walk(solve)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if _names(node, "eigvalsh") and id(node) not in inside]
    assert inside, "corelin.trace_distance not found"
    assert offenders == []


def test_the_symmetry_derivation_reads_only_the_layout():
    # expand.pauli_symmetries works from the layout alone, with no moment or
    # Gram: its one argument is read only for Layout's fields and properties
    tree = ast.parse((Path(prslab.__file__).parent / "expand.py").read_text(encoding="utf-8"))
    (derive,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "pauli_symmetries"]
    (arg,) = derive.args.args
    layout_names = set(Layout.__dataclass_fields__) | {
        name for name, value in vars(Layout).items() if isinstance(value, property)}
    read = {node.attr for node in ast.walk(derive) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == arg.arg}
    assert read and read <= layout_names
    names = {node.id for node in ast.walk(derive) if isinstance(node, ast.Name)}
    assert not names & {"moments", "corelin", "np"}


def test_only_corelin_maps_a_phase_table_to_phases():
    # corelin._phases is the one map from exponents to phases, read by the
    # phase layer, prepare and the condition checks, so no module but
    # corelin calls an exponential
    modules = sorted(Path(prslab.__file__).parent.rglob("*.py"))
    offenders = [f"{path.name}:{node.lineno}" for path in modules if path.name != "corelin.py"
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call) and _names(node.func, "exp")]
    assert offenders == []


class _Module:
    """One package module: its top-level definitions, what each of its
    names is bound to (a definition, `from .x import name`, or a package
    module by `from . import x`), and the code run at import time."""

    def __init__(self, tree):
        self.defs = {node.name: node for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        self.imported, self.modules = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        self.modules[alias.asname or alias.name] = alias.name
                    else:
                        self.imported[alias.asname or alias.name] = (node.module, alias.name)
        self.top_level = [node for node in tree.body
                          if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def unreached_public_names(package, entry_points=(("cli", "main"),)):
    """Public module-level functions and classes of `package` that no code
    reachable from its `__init__` imports or its entry points references.
    A reference is a Name bound in the referring module (to its own
    definition or to a `from .x import name`) or an attribute read off a
    package module (`expand.layout`); an attribute of any other object, a
    docstring or the definition itself is not one.  A local variable that
    shadows a module-level name still counts as a reference to it."""
    modules = {path.stem: _Module(ast.parse(path.read_text(encoding="utf-8"),
                                            filename=str(path)))
               for path in sorted(package.glob("*.py"))}
    todo = [(stem, node) for stem, module in modules.items() for node in module.top_level]
    reached = set()

    def reach(owner, name):
        # follow re-exports (moments imports Source from expand) to the definition
        while name not in modules[owner].defs and name in modules[owner].imported:
            owner, name = modules[owner].imported[name]
        if name in modules[owner].defs and (owner, name) not in reached:
            reached.add((owner, name))
            todo.append((owner, modules[owner].defs[name]))

    for owner, name in [*modules["__init__"].imported.values(), *entry_points]:
        reach(owner, name)
    while todo:
        stem, code = todo.pop()
        bound = modules[stem].modules
        for node in ast.walk(code):
            if isinstance(node, ast.Name):
                reach(stem, node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound):
                reach(bound[node.value.id], node.attr)
    public = [(stem, name) for stem, module in modules.items() for name in module.defs
              if not name.startswith("_")]
    assert len(public) >= 50
    return [f"{stem}:{name}" for stem, name in public if (stem, name) not in reached]


def test_every_public_name_is_reached_from_the_package_or_its_command():
    # a public function or class that no command or exported route reaches
    # is test scaffolding: it belongs in tests/conftest.py
    assert unreached_public_names(Path(prslab.__file__).parent) == []


def test_every_cache_is_bounded_and_private():
    # an unbounded cache (functools.cache, or lru_cache with maxsize=None)
    # grows with every distinct argument; perfbench's tracer wraps only plain
    # public functions, so a cached public function would drop out of traced
    # runs without a word
    offenders = []
    for path in sorted(Path(prslab.__file__).parent.glob("*.py")):
        module = (prslab if path.stem == "__init__"
                  else importlib.import_module(f"prslab.{path.stem}"))
        for name, obj in vars(module).items():
            if not hasattr(obj, "cache_parameters"):
                continue
            if not name.startswith("_"):
                offenders.append(f"{path.stem}.{name} is public")
            if type(obj.cache_parameters()["maxsize"]) is not int:
                offenders.append(f"{path.stem}.{name} has no integer maxsize")
    assert offenders == []


def _imports_scipy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "scipy")


def test_no_module_imports_scipy():
    # every command and route runs on numpy alone
    offenders = []
    for path in sorted(Path(prslab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if _imports_scipy(node)]
    assert offenders == []


SCIPY_FREE_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy, or of a submodule, raises
import prslab, prslab.cli
from prslab.moments import Method, MomentSpec, PrfKeys, Source, compare_to_haar
compare_to_haar(MomentSpec(Source.PLAIN, n=2, t=2), Method.BRUTE_FORCE)
compare_to_haar(MomentSpec(Source.PLAIN, n=2, t=2, function_space=PrfKeys(8, seed=1)),
                Method.MONTE_CARLO)
compare_to_haar(MomentSpec(Source.PLAIN, n=2, t=2), Method.DELTA_PAIRING)
compare_to_haar(MomentSpec(Source.CONSTRUCTION1, n=2, t=2, i=1), Method.DELTA_PAIRING)
"""


def test_every_route_runs_with_scipy_blocked():
    src = str(Path(prslab.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_SCRIPT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
