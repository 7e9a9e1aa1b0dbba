"""Backend selection for the compiled event core.

The event engine ships two interchangeable backends:

* **pure** — the reference implementation: the heavily tuned pure-Python
  bucket-queue scheduler in :mod:`repro.sim.scheduler` plus the compiled
  Python closures in :mod:`repro.interconnect`.  Always available.
* **compiled** — :mod:`repro._core._cext`, a dependency-free hand-written
  CPython extension implementing the same scheduler (bit-identical event
  ordering, same observable data layout: ``_buckets`` dict, ``_times`` heap,
  tuple entries) plus C closure objects for the interconnect's per-hop
  pipeline.  Built on demand with any C compiler (``python -m
  repro._core.build`` or a ``pip install -e .`` on a machine with a
  toolchain); never a hard dependency.

  mypyc was the first candidate for this backend and Cython the second, but
  neither can express the engine's load-bearing idioms profitably — the
  polymorphic 2/3-tuple bucket entries, the per-``(type, node)`` closure
  tables that alias the scheduler's containers, and the cross-module
  monkey-free reset contract — and neither is installable as a build
  dependency in a hermetic environment.  A small hand-written extension
  against the exact same data layout is the terminus of that fallback chain:
  it needs nothing but a C compiler and keeps the pure implementation as the
  executable specification.

Selection is governed by ``$REPRO_BACKEND``:

* ``auto`` (default) — use the compiled backend when the extension imports,
  fall back to pure silently otherwise;
* ``pure`` — force the reference backend; the extension is never imported
  (contractual: tests pin that the module stays out of ``sys.modules``);
* ``compiled`` — require the extension; raise loudly if it is missing
  (a forced-compiled run silently falling back would invalidate benchmarks).

Resolution is *lazy* (first call to :func:`scheduler_class` /
:func:`backend_info`) and *switchable in process* via :func:`set_backend` /
:func:`use_backend`, which is what lets one pytest run and one interleaved
benchmark A/B exercise both backends.  Switching affects schedulers built
afterwards; live systems keep the backend they were built with.

This module deliberately imports no ``repro`` submodule at top level — it
sits below :mod:`repro.sim` in the layer diagram and must stay cycle-free.
"""

from __future__ import annotations

import contextlib
import os
from types import FunctionType
from typing import Callable, Dict, FrozenSet, Iterator, Optional, Tuple

#: Environment variable naming the requested backend.
ENV_VAR = "REPRO_BACKEND"

PURE = "pure"
COMPILED = "compiled"
AUTO = "auto"
_VALID = (AUTO, PURE, COMPILED)


class BackendError(RuntimeError):
    """A backend was requested that cannot be provided."""


#: Lazily resolved state.  ``_active`` is None until the first resolution.
_requested: Optional[str] = None
_active: Optional[str] = None
_selected_by: Optional[str] = None
_import_error: Optional[str] = None

#: The loaded extension module (``repro._core._cext``) or None.
_ext = None
_ext_attempted = False

#: Scheduler classes, provided by :mod:`repro.sim.scheduler` at its import:
#: the pure class directly, the compiled one as a zero-argument factory so
#: that ``REPRO_BACKEND=pure`` never even imports the extension.
_pure_class: Optional[type] = None
_compiled_factory: Optional[Callable[[], type]] = None
_compiled_class: Optional[type] = None


def provide(pure: type, compiled_factory: Callable[[], type]) -> None:
    """Register the scheduler classes (called by ``repro.sim.scheduler``)."""
    global _pure_class, _compiled_factory
    _pure_class = pure
    _compiled_factory = compiled_factory


#: Every type the Python side constructs from the extension.  All three C
#: files build into one module with one command, so a module lacking any of
#: them is a stale build: it is refused whole rather than half used.
REQUIRED_TYPES = (
    "SchedulerBase",
    "LinkPush",
    "Relay",
    "SwitchEnter",
    "UnorderedArrive",
    "UnorderedSend",
    "OrderedSend",
    "DataDeliver",
    "SnoopDeliver",
    "DirDeliver",
    "SequencerStep",
    "MemServe",
    "DirHome",
    "BashSample",
    "ZipfTable",
)


#: The ``CORE_VERSION`` of the extension this Python code is written
#: against.  The C side bumps it whenever a layout both sides share changes
#: (queue entries, the slots it reads): an older build has the same types
#: but reads and writes the old layout, so it is refused whole.
CORE_VERSION = "1.11.0"


def load_extension():
    """Import and return ``repro._core._cext``; raise ImportError if absent.

    Also raises ImportError when the module is a stale build: one lacking
    any of :data:`REQUIRED_TYPES` (naming them) or one whose
    ``CORE_VERSION`` is not :data:`CORE_VERSION` (naming both).  The import
    is attempted once; subsequent calls return the cached module or
    re-raise the cached failure.
    """
    global _ext, _ext_attempted, _import_error
    if _ext is not None:
        return _ext
    if _ext_attempted and _import_error is not None:
        raise ImportError(_import_error)
    _ext_attempted = True
    try:
        from . import _cext  # noqa: PLC0415 - deliberate lazy import
    except ImportError as error:
        _import_error = str(error)
        raise
    missing = [name for name in REQUIRED_TYPES if not hasattr(_cext, name)]
    if missing:
        _import_error = (
            f"{_cext.__file__} is a stale build lacking {', '.join(missing)}"
        )
        raise ImportError(_import_error)
    version = getattr(_cext, "CORE_VERSION", None)
    if version != CORE_VERSION:
        _import_error = (
            f"{_cext.__file__} is a stale build: its CORE_VERSION is "
            f"{version}, this code expects {CORE_VERSION}"
        )
        raise ImportError(_import_error)
    _ext = _cext
    return _ext


def extension_loaded():
    """The extension module if it has been imported, else None (no attempt)."""
    return _ext


def compiled_available() -> bool:
    """True when the compiled extension can be imported (tries the import)."""
    try:
        load_extension()
    except ImportError:
        return False
    return True


def _compiled_scheduler_class() -> type:
    """Build (once) and return the compiled Scheduler class."""
    global _compiled_class
    if _compiled_class is None:
        if _compiled_factory is None:
            # repro.sim.scheduler has not been imported yet; importing it
            # registers the factory (and cannot recurse back into resolution).
            import repro.sim.scheduler  # noqa: F401,PLC0415

            if _compiled_factory is None:  # pragma: no cover - defensive
                raise BackendError("no compiled scheduler factory registered")
        _compiled_class = _compiled_factory()
    return _compiled_class


def _resolve() -> None:
    """Resolve the active backend from ``$REPRO_BACKEND`` (first use only)."""
    global _requested, _active, _selected_by, _import_error
    if _active is not None:
        return
    requested = os.environ.get(ENV_VAR, AUTO).strip().lower() or AUTO
    if requested not in _VALID:
        raise BackendError(
            f"${ENV_VAR}={requested!r} is not a valid backend "
            f"(expected one of {', '.join(_VALID)})"
        )
    _requested = requested
    if requested == PURE:
        _active, _selected_by = PURE, "env"
        return
    if requested == COMPILED:
        try:
            _compiled_scheduler_class()
        except ImportError as error:
            raise BackendError(
                f"${ENV_VAR}=compiled but the extension is not available: "
                f"{error}\nBuild it with: python -m repro._core.build"
            ) from error
        _active, _selected_by = COMPILED, "env"
        return
    # auto: compiled when it imports, pure otherwise.
    try:
        _compiled_scheduler_class()
    except ImportError as error:
        _import_error = str(error)
        _active, _selected_by = PURE, "fallback"
        return
    _active, _selected_by = COMPILED, "auto"


def active_backend() -> str:
    """The active backend name (``pure`` or ``compiled``), resolving lazily."""
    _resolve()
    assert _active is not None
    return _active


def scheduler_class() -> type:
    """The Scheduler class of the active backend."""
    _resolve()
    if _active == COMPILED:
        return _compiled_scheduler_class()
    if _pure_class is None:
        import repro.sim.scheduler  # noqa: F401,PLC0415 - registers classes
    assert _pure_class is not None
    return _pure_class


def set_backend(name: str, selected_by: str = "forced") -> str:
    """Switch the active backend in process (benchmarks, the test fixture).

    ``compiled`` raises :class:`BackendError` when the extension is missing;
    ``auto`` re-runs the automatic selection.  Returns the resulting active
    backend name.  Only schedulers built *after* the switch are affected.
    """
    global _active, _selected_by
    if name not in _VALID:
        raise BackendError(
            f"unknown backend {name!r} (expected one of {', '.join(_VALID)})"
        )
    if name == AUTO:
        _active = None
        _resolve()
        return active_backend()
    if name == COMPILED:
        try:
            _compiled_scheduler_class()
        except ImportError as error:
            raise BackendError(
                f"compiled backend unavailable: {error}\n"
                "Build it with: python -m repro._core.build"
            ) from error
    _resolve()
    _active, _selected_by = name, selected_by
    return name


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Context manager form of :func:`set_backend`, restoring on exit."""
    _resolve()
    previous, previous_by = _active, _selected_by
    active = set_backend(name)
    try:
        yield active
    finally:
        set_backend(previous, selected_by=previous_by or "forced")


#: Per-handler compile/decline decisions recorded by the protocol dispatch
#: layer (``repro.protocols.dispatch``): ``"<Controller>.<MSG_TYPE>"`` ->
#: ``"compiled"`` | ``"declined"``.  A plain observational registry — the
#: newest decision for a key wins (a dispatch-cache invalidation recompiles
#: and re-records), and it is never consulted for behaviour.
_handler_selections: Dict[str, str] = {}


def note_handler_selection(name: str, status: str) -> None:
    """Record one per-handler compile/decline decision (dispatch layer)."""
    _handler_selections[name] = status


def handler_selections() -> Dict[str, str]:
    """A snapshot of the per-handler compile/decline decisions so far."""
    return dict(_handler_selections)


#: Each stock class's namespace as it was when the class was created.
_namespaces: Dict[type, dict] = {}
#: Stock class -> (its type version tag, every stock class in its MRO
#: unchanged?) at its last full comparison.  Any class-level assignment to
#: the class or to any base resets the class's own tag, so an unchanged
#: nonzero tag carries the verdict over.
_verdicts: Dict[type, Tuple[int, bool]] = {}
#: Stock class -> (the ``(class, namespace)`` pairs of every stock class in
#: its MRO, the names of every function those classes define).
_stock: Dict[type, Tuple[Tuple[Tuple[type, dict], ...], FrozenSet[str]]] = {}


def stock(cls: type) -> type:
    """Class decorator: register ``cls`` as a class the C fast paths mirror.

    Snapshots the class namespace at creation.  Apply it outermost, after
    any decorator that rebuilds the class (``@dataclass(slots=True)``).
    """
    _namespaces[cls] = dict(vars(cls))
    snapshots = tuple(
        (klass, _namespaces[klass]) for klass in cls.__mro__ if klass in _namespaces
    )
    functions = frozenset(
        name
        for _, namespace in snapshots
        for name, value in namespace.items()
        if isinstance(value, (FunctionType, staticmethod, classmethod))
    )
    _stock[cls] = (snapshots, functions)
    return cls


def is_stock(*objects) -> bool:
    """True when every object is exactly what the C fast paths mirror.

    For each object: its exact type is a :func:`stock` class, every stock
    class in that type's MRO still has its creation-time namespace (no
    class-level patch, added or deleted attribute), and no instance
    attribute shadows a function of those classes.  A class argument
    stands for its instances and gets the class-level checks only.

    The pure handlers are the specification; the compiled delivery objects
    and issue chain run only where this holds, so a test that patches a
    stock class (to inject a bug, or to count calls) always runs pure.
    """
    for obj in objects:
        if isinstance(obj, type):
            cls, instance_vars = obj, None
        else:
            cls, instance_vars = type(obj), getattr(obj, "__dict__", None)
        registered = _stock.get(cls)
        if registered is None:
            return False
        snapshots, functions = registered
        if not _classes_unchanged(cls, snapshots):
            return False
        if instance_vars and not functions.isdisjoint(instance_vars):
            return False
    return True


def _classes_unchanged(cls: type, snapshots) -> bool:
    """Does every stock class in ``cls``'s MRO still have its namespace?

    With the extension loaded the verdict is cached under ``cls``'s own
    type version tag (the one the C slot layouts trust), so a repeat check
    is one tag read and one dict probe; a tag of 0 or a changed tag
    compares the namespaces in full.
    """
    tag = _ext._type_version(cls) if _ext is not None else 0
    cached = _verdicts.get(cls)
    if tag and cached is not None and cached[0] == tag:
        return cached[1]
    unchanged = all(vars(klass) == namespace for klass, namespace in snapshots)
    if tag:
        _verdicts[cls] = (tag, unchanged)
    return unchanged


def accelerator_for(scheduler):
    """The extension module when ``scheduler`` is a compiled instance.

    The interconnect calls this once per network at construction: a compiled
    scheduler gets C closure objects for its per-hop pipeline, a pure one
    keeps the reference Python closures.  Keyed off the *instance* (not the
    active-backend global) so a system always gets closures matching its own
    scheduler, even if the backend was switched since it was built.
    """
    ext = _ext
    if ext is not None and isinstance(scheduler, ext.SchedulerBase):
        return ext
    return None


def backend_info() -> Dict[str, object]:
    """Everything the CLI / benchmarks surface about backend selection."""
    _resolve()
    ext = _ext
    version = getattr(ext, "CORE_VERSION", None) if ext is not None else None
    component = COMPILED if _active == COMPILED else PURE
    return {
        "name": _active,
        "requested": _requested,
        "selected_by": _selected_by,
        "env_var": ENV_VAR,
        "compiled_loaded": ext is not None,
        "compiled_version": version,
        "compiled_import_error": _import_error,
        "components": dict.fromkeys(
            ("event_core", "interconnect", "handlers", "issue_chain"), component
        ),
        "handler_selections": handler_selections(),
    }
