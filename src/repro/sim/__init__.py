"""Discrete-event simulation engine.

The engine ships two interchangeable backends — the pure-Python reference
implementation and the compiled ``repro._core`` event core — selected via
``$REPRO_BACKEND`` (``pure|compiled|auto``, default ``auto``: compiled when
the extension imports, pure otherwise).  :func:`active_scheduler_class`
resolves the selection lazily; see :mod:`repro._core` for the contract.
"""

from .._core import backend_info, set_backend, use_backend
from .arena import SimulationArena
from .component import Component
from .scheduler import Scheduler, active_scheduler_class
from .simulator import Simulator

__all__ = [
    "Component",
    "Scheduler",
    "SimulationArena",
    "Simulator",
    "active_scheduler_class",
    "backend_info",
    "set_backend",
    "use_backend",
]
