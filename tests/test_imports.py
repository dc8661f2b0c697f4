"""The package's import graph stays numpy plus scipy.linalg: importing
every module must pull in none of scipy's heavier subpackages, whose
import time dominates a fresh process's first solve.  Each module's
__all__ is exactly right both ways: every name in it exists, and every
public function or class the module defines is in it."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypcap

MODULES = (
    "hypcap.capsolve",
    "hypcap.condenser",
    "hypcap.experiments",
    "hypcap.hypgeom",
    "hypcap.specfun",
)
HEAVY = ("scipy.optimize", "scipy.special", "scipy.sparse", "scipy.fft")


def test_package_imports_no_heavy_scipy():
    src = str(Path(hypcap.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        f"import {', '.join(MODULES)}\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    }
    assert not defined - set(module.__all__), sorted(defined - set(module.__all__))
