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
