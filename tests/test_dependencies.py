"""The package runs on numpy alone: importing it must not pull in scipy."""

import os
import subprocess
import sys
from pathlib import Path

import wallbounce


def test_import_does_not_load_scipy():
    code = (
        "import sys, wallbounce, wallbounce.cli, wallbounce.validation\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    # the child imports the same source tree as this process
    src = str(Path(wallbounce.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
