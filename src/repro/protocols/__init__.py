"""Coherence protocols: Snooping, Directory, and the BASH hybrid.

The names below load their modules on first use (see ``repro._exports``):
building a system loads the controllers, not the Table 1 specifications
behind ``complexity_table``.
"""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .base import CacheControllerBase, MemoryControllerBase
    from .bash.adaptive import BandwidthAdaptiveMechanism
    from .bash.cache_controller import BashCacheController
    from .bash.memory_controller import BashMemoryController
    from .complexity import complexity_table, format_table, protocol_specs
    from .directory.cache_controller import DirectoryCacheController
    from .directory.memory_controller import DirectoryMemoryController
    from .factory import create_controllers
    from .snooping.cache_controller import SnoopingCacheController
    from .snooping.memory_controller import SnoopingMemoryController

__all__ = [
    "CacheControllerBase",
    "MemoryControllerBase",
    "BandwidthAdaptiveMechanism",
    "BashCacheController",
    "BashMemoryController",
    "DirectoryCacheController",
    "DirectoryMemoryController",
    "SnoopingCacheController",
    "SnoopingMemoryController",
    "create_controllers",
    "complexity_table",
    "format_table",
    "protocol_specs",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("CacheControllerBase", "MemoryControllerBase"),
        ".bash.adaptive": ("BandwidthAdaptiveMechanism",),
        ".bash.cache_controller": ("BashCacheController",),
        ".bash.memory_controller": ("BashMemoryController",),
        ".complexity": ("complexity_table", "format_table", "protocol_specs"),
        ".directory.cache_controller": ("DirectoryCacheController",),
        ".directory.memory_controller": ("DirectoryMemoryController",),
        ".factory": ("create_controllers",),
        ".snooping.cache_controller": ("SnoopingCacheController",),
        ".snooping.memory_controller": ("SnoopingMemoryController",),
    },
)
