"""Package surface: exported names and the oracle's independence."""

import ast
import pathlib

import quatmotion
from quatmotion import oracle


def test_oracle_imports_only_math_and_numpy():
    # the oracle is an independent derivation only while it reads no
    # package code, so its imports are pinned here
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math", "numpy"}


def test_every_export_resolves():
    missing = [name for name in quatmotion.__all__ if not hasattr(quatmotion, name)]
    assert missing == []
