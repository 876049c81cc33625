"""Import budget: each layer imports what it executes and nothing more.

``repro serve`` answers simulation requests, so its start-up must not
load the data-prep execution stack (engine, plan, codecs, shared
memory) or the client side of the service; the packages re-export their
public names lazily, and the op descriptions the simulator prices defer
the codecs to the code that runs them.  Each check runs in a fresh
interpreter, where ``sys.modules`` holds only what the imports loaded;
the ``dir()`` listing is also checked in this one.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

LAZY_PACKAGES = (
    "repro.analysis",
    "repro.core",
    "repro.dataprep",
    "repro.datasets",
    "repro.service",
)


def _run(script: str):
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC},
        check=True,
    )
    return json.loads(out.stdout)


def test_serve_imports_no_prep_execution_stack():
    loaded = _run(
        "import json, sys\n"
        "import repro.cli, repro.service.server\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    for name in (
        "repro.dataprep.engine",
        "repro.dataprep.plan",
        "repro.dataprep.jpeg.codec",
        "repro.dataprep.png.codec",
        "multiprocessing.shared_memory",
        "repro.datasets.video",
        "repro.service.client",
    ):
        assert name not in loaded, name
    # What the request kinds run loads at start-up, so no request pays
    # for an import.
    for name in (
        "repro.core.sweeps",
        "repro.core.analytical_batch",
        "repro.core.des",
        "repro.core.flowengine",
        "repro.core.faults",
    ):
        assert name in loaded, name


def test_prep_engine_import_loads_plan_and_codecs():
    loaded = _run(
        "import json, sys\n"
        "from repro.dataprep import PrepEngine\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    for name in (
        "repro.dataprep.plan",
        "repro.dataprep.jpeg.codec",
        "repro.dataprep.png.codec",
    ):
        assert name in loaded, name


def test_every_lazy_export_resolves_and_is_listed():
    problems = _run(
        "import importlib, json, types\n"
        f"packages = {LAZY_PACKAGES!r}\n"
        "problems = []\n"
        "for name in packages:\n"
        "    pkg = importlib.import_module(name)\n"
        "    listed = set(dir(pkg))\n"
        "    for export in pkg.__all__:\n"
        "        if export not in listed:\n"
        "            problems.append(f'{name}.{export} not in dir()')\n"
        "        value = getattr(pkg, export)\n"
        "        if isinstance(value, types.ModuleType):\n"
        "            problems.append(f'{name}.{export} is a module')\n"
        "    try:\n"
        "        getattr(pkg, 'no_such_name')\n"
        "        problems.append(f'{name}.no_such_name resolved')\n"
        "    except AttributeError:\n"
        "        pass\n"
        "# A re-export sharing its submodule's name survives the submodule\n"
        "# import (which binds the submodule on the package).\n"
        "from repro.core.autotune import autotune\n"
        "import repro.core\n"
        "if repro.core.autotune is not autotune:\n"
        "    problems.append('repro.core.autotune is not the function')\n"
        "print(json.dumps(problems))\n"
    )
    assert problems == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_dir_lists_every_lazy_export(package):
    pkg = importlib.import_module(package)
    listed = dir(pkg)
    assert listed == sorted(listed)
    assert set(pkg.__all__) <= set(listed)
