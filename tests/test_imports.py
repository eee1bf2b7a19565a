"""The package is its modules: importing `came_opt` loads none of them, and a
run's modules load neither the memory model, the CLI nor a process pool."""

import json
import os
import subprocess
import sys
from pathlib import Path

import came_opt

SRC = str(Path(came_opt.__file__).resolve().parent.parent)


def loaded_submodules(statement, prefix="came_opt."):
    """The modules named `prefix*` a fresh interpreter holds after running statement."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = (
        f"{statement}\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
        timeout=60,
    )
    return json.loads(done.stdout)


def test_package_import_loads_no_submodule():
    assert loaded_submodules("import came_opt") == []


def test_runner_loads_neither_memory_model_nor_cli():
    loaded = loaded_submodules("from came_opt import runner")
    assert "came_opt.runner" in loaded
    assert "came_opt.memory_model" not in loaded
    assert "came_opt.cli" not in loaded


def test_runner_loads_no_process_pool():
    loaded = loaded_submodules("from came_opt import runner", prefix="")
    assert "multiprocessing" not in loaded
    assert "concurrent.futures" not in loaded
