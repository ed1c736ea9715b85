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
