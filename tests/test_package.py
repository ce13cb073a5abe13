"""Package-wide guards."""

import ast
import pathlib
import sys

import treehopf

SOURCES = sorted(pathlib.Path(treehopf.__file__).parent.glob("*.py"))


def test_library_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
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
    unused = []
    for path in SOURCES:
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


def _is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "set")
        and not node.args
        and not node.keywords
    )


def test_library_modules_bind_no_module_level_memo_table():
    # a module-level empty container is a hand-written memo table; memos
    # that outlive a call go through functools.cache on the function that
    # computes the value
    tables = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and node.value is not None
        and _is_empty_container(node.value)
    ]
    assert not tables


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_only_trees_defines_tree_and_monomial_value_code():
    # the planar variant differs from the symmetric one by its ordering
    # rule only; a constructor, printer or product of its own would be a
    # second implementation of the shared value classes
    from treehopf.trees import _Monomial, _Tree

    subclasses = list(_subclasses(_Tree)) + list(_subclasses(_Monomial))
    assert {"PlanarTree", "PlanarWord"} <= {cls.__name__ for cls in subclasses}
    defined = [
        f"{cls.__module__}.{cls.__qualname__}.{name}"
        for cls in subclasses
        if cls.__module__ != "treehopf.trees"
        for name in ("__init__", "__str__", "__mul__")
        if name in vars(cls)
    ]
    assert not defined


def test_bruteforce_oracle_imports_nothing_from_the_library():
    # the oracle is only independent while it shares no code with treehopf
    path = pathlib.Path(__file__).with_name("bruteforce.py")
    modules = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert modules
    assert not [m for m in modules if m.startswith(".") or m.split(".")[0] == "treehopf"]


def test_only_hopf_reads_the_vertex_subset_formula():
    # the 2^|V| subset sum is an oracle: production Δ, S and the dual
    # products go through the root-constructor square instead
    oracle = {"_split_table", "_walk", "evaluate_exponents"}
    readers = []
    for path in SOURCES:
        if path.name == "hopf.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            readers += [f"{path.name}:{node.lineno} reads {name}" for name in names if name in oracle]
    assert not readers
