import ast
from pathlib import Path

import rlnc_bounds

SRC = Path(rlnc_bounds.__file__).resolve().parent
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

PUBLIC = ["BoundSet", "ExactResult", "FieldSpec", "NetworkParams", "PerDeliveryTables",
          "SimEstimate", "StateSpaceExceeded", "estimate_pfail", "evaluate_all",
          "exact_pfail", "make_field", "rank_batch"]


def test_the_package_exports_exactly_the_public_names():
    assert sorted(rlnc_bounds.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(rlnc_bounds, name) is not None, name


def _trees(folder: Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(folder.glob("*.py"))}


def _used_names(trees) -> set[str]:
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_definition_is_exported_or_used_in_the_package():
    # a public top-level def or class that only the tests call belongs in
    # tests/support.py, or under a private name
    trees = _trees(SRC)
    used = _used_names(trees.values())
    stray = [f"{module}:{node.name}"
             for module, tree in trees.items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_")
             and node.name not in rlnc_bounds.__all__ and node.name not in used]
    assert stray == []


def test_every_private_definition_is_used_in_the_package_or_the_benchmark():
    # a private top-level def, class or constant that nothing reads is dead,
    # or belongs in tests/support.py if only the tests read it
    trees = _trees(SRC)
    used = _used_names([*trees.values(), *_trees(BENCHMARKS).values()])
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    stray = [f"{module}:{name}" for module, name in defined
             if name.startswith("_") and not name.startswith("__") and name not in used]
    assert stray == []
