"""Every name the package exports is used by the package or the benchmark, not only by tests."""

import ast
from pathlib import Path

import weierdim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(weierdim.__file__).resolve().parent
# kept for the graph-measure dimension formula that no subcommand reports yet
UNUSED_ALLOWED = {"dimension_from_transversal"}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _loads(node: ast.AST, skip: frozenset = frozenset()):
    """Names and attributes read under node, outside the bodies of definitions named in skip."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        skip = skip | {node.name}
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    if name is not None and isinstance(node.ctx, ast.Load) and name not in skip:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, skip)


def test_every_export_is_used_outside_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in sources:
        used.update(_loads(ast.parse(path.read_text())))
    unused = sorted(_exports() - used - UNUSED_ALLOWED)
    assert unused == [], f"exported but used only by tests: {unused}"
