"""Each public name has one import path: the module that defines it.

The package namespace holds only ``__version__`` and the submodules that were
imported, so importing one module loads no other, and every name in a
module's ``__all__`` is bound on that module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import cvcluster

PACKAGE = Path(cvcluster.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("__"))


def test_importing_one_module_loads_no_other():
    # A fresh interpreter: this session has imported every module already.
    script = (
        "import json, sys, cvcluster.graphs\n"
        "package = sys.modules['cvcluster']\n"
        "print(json.dumps([\n"
        "    sorted(name for name in sys.modules if name.split('.')[0] == 'cvcluster'),\n"
        "    sorted(name for name in vars(package) if not name.startswith('_')),\n"
        "    hasattr(package, '__version__'),\n"
        "]))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded, public, versioned = json.loads(run.stdout)
    assert loaded == ["cvcluster", "cvcluster.graphs"]
    assert public == ["graphs"]
    assert versioned


def test_every_exported_name_is_bound_on_its_module():
    missing = []
    for name in MODULES:
        module = importlib.import_module(f"cvcluster.{name}")
        missing += [
            f"{name}.{export}" for export in getattr(module, "__all__", ()) if not hasattr(module, export)
        ]
    assert missing == []
