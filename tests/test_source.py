"""Rules that every module of the package keeps."""

import ast
from pathlib import Path

import prslab


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
