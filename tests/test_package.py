"""Package-wide guards."""

import ast
import pathlib
import sys

import treehopf


def test_library_imports_only_the_standard_library():
    sources = sorted(pathlib.Path(treehopf.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside


def _annotation_names(tree):
    """Names read inside string annotations such as ``"Callable[[X], Y]"``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            notes = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                parsed = ast.parse(note.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def test_library_modules_use_every_name_they_import():
    sources = sorted(pathlib.Path(treehopf.__file__).parent.glob("*.py"))
    unused = []
    for path in sources:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _annotation_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [
                f"{path.name}:{node.lineno} imports {name}" for name in bound if name not in used
            ]
    assert not unused
