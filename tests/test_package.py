import ast
from pathlib import Path

import rlnc_bounds

SRC = Path(rlnc_bounds.__file__).resolve().parent

PUBLIC = ["BoundSet", "ExactResult", "FieldSpec", "NetworkParams", "PerDeliveryTables",
          "SimEstimate", "StateSpaceExceeded", "estimate_pfail", "evaluate_all",
          "exact_pfail", "make_field", "rank_batch"]


def test_the_package_exports_exactly_the_public_names():
    assert sorted(rlnc_bounds.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(rlnc_bounds, name) is not None, name


def test_every_public_definition_is_exported_or_used_in_the_package():
    # a public top-level def or class that only the tests call belongs in
    # tests/support.py, or under a private name
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    stray = [f"{module}:{node.name}"
             for module, tree in trees.items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_")
             and node.name not in rlnc_bounds.__all__ and node.name not in used]
    assert stray == []
