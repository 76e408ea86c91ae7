"""Every name the package exports, every module-level name of the package, and every field of
an exported dataclass, is used by the package or the benchmark, not only by tests; and every
export resolves to the object its submodule defines."""

import ast
import dataclasses
import importlib
from pathlib import Path

import weierdim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(weierdim.__file__).resolve().parent
# kept for the graph-measure dimension formula that no subcommand reports yet
UNUSED_ALLOWED = {"dimension_from_transversal"}
# module hooks: the import system and dir() call them, no code names them
MODULE_HOOKS = {"__getattr__", "__dir__"}


def _exports() -> set[str]:
    """The names of the package's export table."""
    return set(weierdim._EXPORTS)


def test_every_export_resolves_to_its_submodule():
    assert len(weierdim.__all__) == len(_exports()) > 0
    assert set(dir(weierdim)) >= _exports()
    for name, module in weierdim._EXPORTS.items():
        defined = getattr(importlib.import_module(f"weierdim.{module}"), name)
        assert getattr(weierdim, name) is defined


def _loads(node: ast.AST, skip: frozenset = frozenset()):
    """Names and attributes read under node, outside the bodies of definitions named in skip."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        skip = skip | {node.name}
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    if name is not None and isinstance(node.ctx, ast.Load) and name not in skip:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, skip)


def _sources() -> list[ast.AST]:
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
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
    unused = sorted(defined - _used() - UNUSED_ALLOWED - MODULE_HOOKS)
    assert unused == [], f"module-level names used only by tests: {unused}"


def _dataclass_fields() -> dict[str, set[str]]:
    """Field names of each exported dataclass, by class name."""
    return {name: {f.name for f in dataclasses.fields(cls)} for name in _exports()
            if isinstance(cls := getattr(weierdim, name), type) and dataclasses.is_dataclass(cls)}


def _named_class(annotation, classes) -> str | None:
    """The class an annotation names, through Optional[X] and X | None."""
    if isinstance(annotation, ast.Subscript) and getattr(annotation.value, "id", "") == "Optional":
        annotation = annotation.slice
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        annotation = annotation.left
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    name = getattr(annotation, "id", None)
    return name if name in classes else None


def _field_reads(trees: list[ast.AST], fields: dict[str, set[str]]):
    """(class, field) of every field read outside __post_init__; a called attribute is a method.

    An owner's class is known from a parameter annotation, from a method's self, or from an
    assignment of a call to a class or to a function whose return annotation names it; vars(x)
    reads every field of x's class."""
    classes = set(fields)
    returns = {c: c for c in classes}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (cls := _named_class(node.returns, classes)):
                returns[node.name] = cls
    reads = set()

    def class_of(node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            return returns.get(name)
        return None

    def scope(node, owner=None):
        """Reads under one top-level statement or method, with every binding it makes known."""
        env = {}
        for fn in (n for n in ast.walk(node) if isinstance(n, ast.FunctionDef)):
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            env.update((a.arg, c) for a in args if (c := _named_class(a.annotation, classes)))
        if owner is not None and node.args.args:
            env[node.args.args[0].arg] = owner
        for a in ast.walk(node):
            if (isinstance(a, ast.Assign) and len(a.targets) == 1
                    and isinstance(a.targets[0], ast.Name) and (c := class_of(a.value, env))):
                env[a.targets[0].id] = c
        called = {id(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
        for n in ast.walk(node):
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                    and id(n) not in called):
                if (c := class_of(n.value, env)) and n.attr in fields[c]:
                    reads.add((c, n.attr))
            elif (isinstance(n, ast.Call) and getattr(n.func, "id", "") == "vars" and n.args
                  and (c := class_of(n.args[0], env))):
                reads.update((c, f) for f in fields[c])

    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                owner = node.name if node.name in classes else None
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name != "__post_init__":
                        scope(item, owner)
            else:
                scope(node)
    return reads


def test_every_dataclass_field_is_read_outside_tests():
    """Per class: a field name that several classes hold (hi, depth, tail_bound) read on one of
    them covers no other."""
    fields = _dataclass_fields()
    reads = _field_reads(_sources(), fields)
    unread = sorted(f"{cls}.{name}" for cls, names in fields.items() for name in names
                    if (cls, name) not in reads)
    assert unread == [], f"dataclass fields written but read only by tests: {unread}"
