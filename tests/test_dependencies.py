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
