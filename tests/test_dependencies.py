import ast
import os
import subprocess
import sys
from pathlib import Path

import densedyn


def test_package_does_not_import_sortedcontainers():
    # the engine's label index is plain dicts read with min and max; a fresh
    # interpreter shows whether any module of the package pulls the old
    # dependency back in
    code = (
        "import importlib, sys\n"
        "import densedyn, densedyn.engine, densedyn.reducer\n"
        "importlib.import_module('densedyn.extract')\n"
        "print('sortedcontainers' in sys.modules)\n"
    )
    src = str(Path(densedyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_oracle_imports_nothing_from_the_package():
    # the oracle is the ground truth the dynamic structures are checked
    # against, so it shares no code with them
    path = Path(densedyn.__file__).with_name("oracle.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "densedyn":
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "densedyn" for a in node.names):
                found.append(ast.unparse(node))
    assert found == []


def _program_reads() -> tuple[set[str], set[str]]:
    """The attribute names and the bare names the program reads, in the
    package and in the benchmark's scripts (not its tests).  Function
    signatures do not count: a default that no caller overrides sets
    nothing."""
    paths = sorted(Path(densedyn.__file__).resolve().parent.glob("*.py"))
    bench = Path(__file__).resolve().parents[1] / "bench"
    paths += sorted(p for p in bench.glob("*.py") if not p.name.startswith("test_"))
    attrs, names = set(), set()
    for path in paths:
        todo = [ast.parse(path.read_text())]
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo += node.body + node.decorator_list
                continue
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            todo += ast.iter_child_nodes(node)
    return attrs, names


def test_public_surface_is_read_by_the_program():
    # a public method or export that only tests use belongs in the tests.
    # Methods are matched by attribute name, whatever object they are read
    # from, and exports by bare name.
    from densedyn.engine import OrientationEngine
    from densedyn.levels import LevelParams
    from densedyn.reducer import DirectedDensest, GridEntry

    attrs, names = _program_reads()
    unread = set(densedyn.__all__) - names
    for cls in (OrientationEngine, DirectedDensest, GridEntry, LevelParams):
        unread |= {
            name for name, member in vars(cls).items()
            if not name.startswith("_") and (callable(member) or isinstance(member, property))
            and name not in attrs
        }
    assert sorted(unread) == []


def _unread_locals(tree: ast.Module) -> list[str]:
    """``function:name`` for each local a function assigns and nothing in it,
    nested functions included, reads; ``_`` is the name for a value thrown
    away.  A name a nested function declares ``nonlocal`` or ``global`` is
    its outer scope's."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read, shared = set(), set(), set()
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # a nested scope: its reads count here, its stores are its own
                read |= {n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                continue
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                shared.update(node.names)
            elif isinstance(node, ast.Name):
                (read if isinstance(node.ctx, ast.Load) else stored).add(node.id)
            todo += ast.iter_child_nodes(node)
        found += [f"{fn.name}:{name}" for name in sorted(stored - read - shared - {"_"})]
    return found


def test_no_function_keeps_an_unread_local():
    # a local that nothing reads is what a deleted branch leaves behind
    root = Path(densedyn.__file__).resolve().parent
    found = []
    for path in sorted(root.glob("*.py")):
        found += [f"{path.stem}.{hit}" for hit in _unread_locals(ast.parse(path.read_text()))]
    assert found == []


def test_every_private_helper_is_read():
    # a module-level _name that no module of the package reads is dead code
    root = Path(densedyn.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    defined = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [f"{stem}.{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")]
    assert [d for d in defined if d.split(".")[1] not in read] == []
