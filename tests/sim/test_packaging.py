"""The packaging path builds the same extension as ``repro._core.build``.

``pip install`` compiles the extension through ``setup.py``; an in-place
build uses ``python -m repro._core.build``.  Both must compile the one
source list in ``build.py``: an extension built from a subset of it lacks
symbols and fails to load, so ``auto`` would quietly run pure.
"""

from __future__ import annotations

import fnmatch
import runpy
from pathlib import Path

import setuptools

from repro._core import build

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib

ROOT = Path(__file__).resolve().parents[2]


def _setup_kwargs(monkeypatch) -> dict:
    """Run ``setup.py`` with ``setuptools.setup`` captured; its keywords."""
    captured = {}
    monkeypatch.delenv("REPRO_SKIP_CEXT", raising=False)
    monkeypatch.setattr(setuptools, "setup", lambda **kwargs: captured.update(kwargs))
    runpy.run_path(str(ROOT / "setup.py"))
    return captured


def test_setup_py_compiles_the_build_source_list(monkeypatch):
    (extension,) = _setup_kwargs(monkeypatch)["ext_modules"]
    assert extension.name == "repro._core._cext"
    assert [ROOT / source for source in extension.sources] == list(build.SOURCES)
    assert [ROOT / header for header in extension.depends] == list(build.HEADERS)


def test_package_data_ships_every_build_input():
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    patterns = pyproject["tool"]["setuptools"]["package-data"]["repro._core"]
    missing = [
        path.name
        for path in (*build.SOURCES, *build.HEADERS)
        if not any(fnmatch.fnmatch(path.name, pattern) for pattern in patterns)
    ]
    assert not missing, f"package-data {patterns} does not ship {missing}"
