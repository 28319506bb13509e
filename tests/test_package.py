"""The package surface: ``__all__`` matches what ``__init__`` imports, and
no module imports a name it never uses."""

import ast
import sys
from pathlib import Path

import discretebm

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "discretebm"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name a module binds by an import, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _used(tree: ast.Module) -> set[str]:
    """Names a module reads, also inside quoted annotations, and the names
    its ``__all__`` exports."""
    used = set(_all(tree))
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def test_all_lists_every_public_import_and_each_resolves():
    tree = _tree(PACKAGE / "__init__.py")
    exported = _all(tree)
    assert len(exported) == len(set(exported))
    public = {name for name in _imported(tree) if not name.startswith("_")}
    assert set(exported) == public
    assert [name for name in exported if not hasattr(discretebm, name)] == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
        tree = _tree(path)
        used = _used(tree)
        unused += [
            f"{path.parent.name}/{path.name}:{line} {name}"
            for name, line in _imported(tree).items()
            if name not in used
        ]
    assert unused == []


def test_the_oracle_reads_only_the_public_package():
    # the oracle must not share the shortcuts of the code it checks: it
    # imports the standard library and public names of discretebm itself,
    # reads no underscored attribute (such as _atoms or _den), and compares
    # points by order.key alone
    tree = _tree(TESTS / "oracle.py")
    nodes = list(ast.walk(tree))
    imports = [(n.module, a.name) for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names]
    imports += [(a.name, None) for n in nodes if isinstance(n, ast.Import) for a in n.names]
    assert [
        (module, name)
        for module, name in imports
        if module.split(".")[0] not in sys.stdlib_module_names
        and (module != "discretebm" or name is None or name.startswith("_"))
    ] == []
    attributes = [n.attr for n in nodes if isinstance(n, ast.Attribute)]
    assert [a for a in attributes if a.startswith("_") or a in ("compare", "leq")] == []


def test_outside_input_reaches_a_validating_constructor():
    # ``_trusted`` builds a measure or coupling without a check, so only the
    # modules that sum its weights themselves may call it; the readers of
    # outside input (jsonio, cli) and verify, which checks what a caller
    # passes, may not normalize weights unchecked either
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                if name in ("_trusted", "_normalized"):
                    calls.append((path.name, name))
    trusted = {module for module, name in calls if name == "_trusted"}
    normalized = {module for module, name in calls if name == "_normalized"}
    assert trusted and trusted <= {"measures.py", "coupling.py"}
    assert normalized & {"jsonio.py", "cli.py", "verify.py"} == set()
    assert normalized  # the guard sees the calls it constrains
