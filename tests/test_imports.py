"""The package's import graph stays numpy plus scipy.linalg: importing
every module must pull in none of scipy's heavier subpackages, whose
import time dominates a fresh process's first solve."""

import os
import subprocess
import sys
from pathlib import Path

import hypcap

HEAVY = ("scipy.optimize", "scipy.special", "scipy.sparse", "scipy.fft")


def test_package_imports_no_heavy_scipy():
    src = str(Path(hypcap.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import hypcap.capsolve, hypcap.condenser, hypcap.experiments, hypcap.hypgeom\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
