"""Exception hierarchy for the BASH reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so callers
can catch library failures without catching unrelated exceptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object was constructed with invalid values."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class ProtocolError(ReproError):
    """A coherence controller received an event it cannot legally handle."""


class NetworkError(ReproError):
    """An interconnect component was used incorrectly."""


class WorkloadError(ReproError):
    """A workload generator was configured or driven incorrectly."""


class VerificationError(ReproError):
    """A verification check (invariant, consistency, trace replay) failed."""


class JobStoreError(ReproError):
    """A durable job store was used incorrectly or is unreadable."""


class ServiceError(ReproError):
    """The fault-tolerant campaign service could not complete a campaign."""
