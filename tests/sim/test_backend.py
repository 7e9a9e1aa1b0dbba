"""Backend-selection contract of the compiled event core.

These tests pin the :mod:`repro._core` selection rules that everything else
(the ``backend`` test fixture, the interleaved benchmark A/B, the cache
key of sweep points) relies on:

* ``REPRO_BACKEND=pure`` must *bypass* the extension entirely — not just
  prefer the pure scheduler, but never import ``repro._core._cext`` — which
  only a subprocess can observe honestly;
* forcing ``compiled`` when the extension is missing fails loudly instead of
  silently falling back (a forced-compiled benchmark run that quietly ran
  pure would record nonsense);
* both backends produce bit-identical fired-event sequences.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro import _core

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC = REPO_ROOT / "src"

needs_compiled = pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)


def _run_python(code: str, env_overrides: dict) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop(_core.ENV_VAR, None)
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestPureBypass:
    def test_pure_env_keeps_extension_out_of_sys_modules(self):
        """REPRO_BACKEND=pure must never import repro._core._cext.

        This is the regression test for the lazy factory design: the pure
        selection path must not even *attempt* the extension import, so a
        broken or ABI-mismatched build can never take down a pure run.
        """
        code = (
            "import sys, json\n"
            "from repro.sim import Simulator, Scheduler, backend_info\n"
            "sim = Simulator()\n"
            "sim.scheduler.schedule_after(1, lambda: None, label='t')\n"
            "fired = sim.run()\n"
            "print(json.dumps({\n"
            "    'info': backend_info(),\n"
            "    'fired': fired,\n"
            "    'is_pure_class': type(sim.scheduler) is Scheduler,\n"
            "    'cext_imported': 'repro._core._cext' in sys.modules,\n"
            "}))\n"
        )
        proc = _run_python(code, {_core.ENV_VAR: "pure"})
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["cext_imported"] is False
        assert payload["is_pure_class"] is True
        assert payload["fired"] == 1
        assert payload["info"]["name"] == "pure"
        assert payload["info"]["selected_by"] == "env"
        assert payload["info"]["compiled_loaded"] is False

    def test_invalid_backend_name_fails_loudly(self):
        code = "from repro.sim import Simulator; Simulator()"
        proc = _run_python(code, {_core.ENV_VAR: "turbo"})
        assert proc.returncode != 0
        assert "BackendError" in proc.stderr
        assert "turbo" in proc.stderr

    def test_forced_compiled_without_extension_raises(self, monkeypatch):
        """REPRO_BACKEND=compiled with no extension is an error, not a fallback."""

        def unavailable():
            raise ImportError("extension hidden for test")

        monkeypatch.setattr(_core, "_compiled_class", None)
        monkeypatch.setattr(_core, "_compiled_factory", unavailable)
        with pytest.raises(_core.BackendError, match="python -m repro._core.build"):
            _core.set_backend("compiled")

    def test_stale_build_is_refused_whole(self, monkeypatch):
        """An extension lacking a type the Python side builds does not load.

        All three C files build into one module, so such a module is a stale
        build: ``auto`` falls back to pure and ``compiled`` fails loudly.
        """
        stale = types.ModuleType("repro._core._cext")
        stale.__file__ = "stale-build.so"
        stale.SchedulerBase = object
        monkeypatch.setattr(_core, "_cext", stale, raising=False)
        monkeypatch.setitem(sys.modules, "repro._core._cext", stale)
        monkeypatch.setattr(_core, "_ext", None)
        monkeypatch.setattr(_core, "_ext_attempted", False)
        monkeypatch.setattr(_core, "_import_error", None)
        with pytest.raises(ImportError, match="SequencerStep") as error:
            _core.load_extension()
        assert "stale-build.so" in str(error.value)
        assert "SchedulerBase" not in str(error.value)
        assert not _core.compiled_available()

    def test_set_backend_rejects_unknown_names(self):
        with pytest.raises(_core.BackendError, match="turbo"):
            _core.set_backend("turbo")


class TestBackendInfo:
    def test_info_shape(self):
        info = _core.backend_info()
        assert set(info) == {
            "name",
            "requested",
            "selected_by",
            "env_var",
            "compiled_loaded",
            "compiled_version",
            "compiled_import_error",
            "components",
            "handler_selections",
        }
        assert info["name"] in ("pure", "compiled")
        assert info["env_var"] == "REPRO_BACKEND"
        assert set(info["components"]) == {
            "event_core",
            "interconnect",
            "handlers",
            "issue_chain",
        }
        assert set(info["components"].values()) == {info["name"]}
        assert all(
            status in ("compiled", "declined")
            for status in info["handler_selections"].values()
        )

    def test_use_backend_restores_previous_selection(self):
        before = _core.backend_info()
        with _core.use_backend("pure") as active:
            assert active == "pure"
            assert _core.backend_info()["name"] == "pure"
        after = _core.backend_info()
        assert after["name"] == before["name"]
        assert after["selected_by"] == before["selected_by"]


@needs_compiled
class TestCompiledBackend:
    def test_compiled_scheduler_is_extension_subclass(self):
        ext = _core.load_extension()
        with _core.use_backend("compiled"):
            from repro.sim import Simulator

            sim = Simulator()
            assert isinstance(sim.scheduler, ext.SchedulerBase)
            assert _core.accelerator_for(sim.scheduler) is ext

    def test_accelerator_not_offered_to_pure_scheduler(self):
        from repro.sim.scheduler import Scheduler

        assert _core.accelerator_for(Scheduler()) is None

    def test_backends_produce_identical_traces(self):
        """Direct pure-vs-compiled A/B on one golden scenario, in process."""
        from .test_golden_trace import _load_golden, _replay

        golden = _load_golden()["snooping"]
        traces = {}
        for name in ("pure", "compiled"):
            with _core.use_backend(name):
                system, trace = _replay("snooping", golden["config"])
                traces[name] = (trace, system.simulator.now)
        assert traces["pure"] == traces["compiled"]

    def test_compiled_info_reports_version(self):
        with _core.use_backend("compiled"):
            info = _core.backend_info()
        assert info["compiled_loaded"] is True
        assert info["compiled_version"] == _core.load_extension().CORE_VERSION


@_core.stock
class _StockBase:
    def method(self):
        return 1


@_core.stock
class _StockLeaf(_StockBase):
    pass


class TestStockRule:
    """``is_stock``: the one rule gating every compiled fast path."""

    def test_unpatched_instances_and_classes_are_stock(self):
        leaf = _StockLeaf()
        leaf.data = 1  # plain instance state shadows nothing
        assert _core.is_stock(leaf, _StockBase, _StockLeaf)

    def test_unregistered_types_are_not_stock(self):
        class Subclass(_StockLeaf):
            pass

        assert not _core.is_stock(Subclass())
        assert not _core.is_stock(_StockLeaf(), object())

    def test_class_patch_anywhere_in_the_mro_is_not_stock(self, monkeypatch):
        monkeypatch.setattr(_StockBase, "method", lambda self: 2)
        assert not _core.is_stock(_StockLeaf())
        assert not _core.is_stock(_StockLeaf)

    def test_added_and_restored_attributes(self, monkeypatch):
        monkeypatch.setattr(_StockLeaf, "method", _StockBase.method, raising=False)
        assert not _core.is_stock(_StockLeaf())
        monkeypatch.undo()
        assert _core.is_stock(_StockLeaf())

    def test_instance_shadowing_a_method_is_not_stock(self):
        leaf = _StockLeaf()
        leaf.method = lambda: 2
        assert not _core.is_stock(leaf)
        assert _core.is_stock(_StockLeaf(), _StockLeaf)

    @pytest.mark.skipif(
        not _core.compiled_available(), reason="compiled extension not built"
    )
    def test_patch_after_a_cached_verdict_is_not_stock(self, monkeypatch):
        """A verdict cached under the type version tag does not outlive a patch."""
        _core.load_extension()
        assert _core.is_stock(_StockLeaf(), _StockLeaf)
        assert _core.is_stock(_StockLeaf())  # served from the cached verdict
        monkeypatch.setattr(_StockBase, "method", lambda self: 3)
        assert not _core.is_stock(_StockLeaf())
        assert not _core.is_stock(_StockBase)
        monkeypatch.undo()
        assert _core.is_stock(_StockLeaf(), _StockBase)
