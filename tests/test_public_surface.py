"""Every name the package exports, every module-level name of the package, and every field of
an exported dataclass, is used by the package or the benchmark, not only by tests."""

import ast
import dataclasses
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


def _field_reads(tree: ast.AST):
    """Attributes read under tree outside __post_init__; a called attribute is a method."""
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}

    def walk(node):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            return
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in called):
            yield node.attr
        for child in ast.iter_child_nodes(node):
            yield from walk(child)

    return walk(tree)


def _sources() -> list[ast.AST]:
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    return [ast.parse(path.read_text()) for path in paths]


def _used() -> set[str]:
    return {name for tree in _sources() for name in _loads(tree)}


def test_every_export_is_used_outside_tests():
    unused = sorted(_exports() - _used() - UNUSED_ALLOWED)
    assert unused == [], f"exported but used only by tests: {unused}"


def _module_names(tree: ast.AST):
    """Functions, classes, assigned constants and imports bound at the top level of tree."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)


def test_every_module_level_name_is_used_outside_tests():
    defined = {name for path in PACKAGE.glob("*.py")
               for name in _module_names(ast.parse(path.read_text()))}
    unused = sorted(defined - _used() - UNUSED_ALLOWED)
    assert unused == [], f"module-level names used only by tests: {unused}"


def test_every_dataclass_field_is_read_outside_tests():
    read = set()
    for tree in _sources():
        read.update(_field_reads(tree))
    fields = {f"{name}.{f.name}" for name in _exports()
              if isinstance(cls := getattr(weierdim, name), type) and dataclasses.is_dataclass(cls)
              for f in dataclasses.fields(cls)}
    unread = sorted(f for f in fields if f.split(".")[1] not in read)
    assert unread == [], f"dataclass fields written but read only by tests: {unread}"
