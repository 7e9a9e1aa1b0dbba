"""Cold start: the package front doors load only what a run uses.

Every figure runs as its own ``python -m repro`` process, so each pays the
imports of its set-up.  The front doors (``repro``, ``repro.experiments``,
``repro.workloads``, ``repro.protocols``, ``repro.verification`` and
``repro.queueing``) export their names lazily through a module
``__getattr__``.  These tests pin both halves of that: a fresh interpreter
that builds the perfbench shapes loads none of the sweep, service,
verification or specification modules, and every exported name still
resolves to the object its defining module holds.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The packages whose ``__init__`` exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.experiments",
    "repro.workloads",
    "repro.protocols",
    "repro.verification",
    "repro.queueing",
)

#: What building and running the ``locking`` and ``zipfian`` shapes must not
#: load (each entry with its submodules), besides any ``*.spec`` module.
NOT_ON_THE_SETUP_PATH = (
    "repro.experiments.scenario",
    "repro.experiments.study",
    "repro.experiments.parallel",
    "repro.experiments.service",
    "repro.experiments.jobstore",
    "repro.experiments.report",
    "repro.verification",
    "repro.protocols.complexity",
    "repro.workloads.streaming",
    "repro.workloads.patterns",
    "repro.workloads.trace",
    "sqlite3",
    "multiprocessing",
)

SETUP_PATH = """
import sys

import repro
from repro import _core
from repro.experiments.runner import QUICK, LockingWorkloadSpec, microbenchmark_config
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.traffic import ZipfianTrafficSpec

backends = [_core.PURE] + ([_core.COMPILED] if _core.compiled_available() else [])
for backend in backends:
    with _core.use_backend(backend):
        for protocol in ("snooping", "directory", "bash"):
            for spec in (
                LockingWorkloadSpec(num_locks=64, acquires_per_processor=4),
                ZipfianTrafficSpec(operations_per_processor=20),
            ):
                config = microbenchmark_config(
                    QUICK, protocol, 1600.0, num_processors=8, seed=1
                )
                MultiprocessorSystem(config, spec(1)).run()
print(backends)
print("\\n".join(sorted(sys.modules)))
"""


def test_setup_path_loads_only_what_it_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PATH],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    backends, *modules = done.stdout.splitlines()
    loaded = [
        module
        for module in modules
        for banned in NOT_ON_THE_SETUP_PATH
        if module == banned or module.startswith(banned + ".")
    ]
    loaded += [module for module in modules if module.endswith(".spec")]
    assert not loaded, f"the set-up path ({backends}) loaded {loaded}"
    assert "repro.system.multiprocessor" in modules


def typed_exports(package: str):
    """``(module, name)`` for every name the package's TYPE_CHECKING block imports."""
    module = importlib.import_module(package)
    tree = ast.parse(Path(module.__file__).read_text())
    (block,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
    ]
    return [
        (importlib.util.resolve_name("." * node.level + node.module, package), name.name)
        for node in block.body
        for name in node.names
    ]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_their_defining_objects(package, monkeypatch):
    module = importlib.import_module(package)
    exports = typed_exports(package)
    public = [name for name in module.__all__ if name != "__version__"]
    assert sorted(name for _, name in exports) == sorted(public)
    star = {}
    exec(f"from {package} import *", star)
    listed = dir(module)
    for defining, name in exports:
        expected = getattr(importlib.import_module(defining), name)
        # Drop any resolved copy so the read goes through __getattr__.
        monkeypatch.delattr(module, name, raising=False)
        assert getattr(module, name) is expected, name
        assert star[name] is expected, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
