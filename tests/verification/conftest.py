"""Shared bug injections for the differential-checker tests."""

import pytest

from repro.coherence.state import MOSIState
from repro.interconnect.message import MessageType


@pytest.fixture
def lost_invalidation(monkeypatch):
    """Snooping sharers keep their stale copy when a GETM is snooped."""
    from repro.protocols.snooping.cache_controller import SnoopingCacheController

    original = SnoopingCacheController._serve_stable

    def never_invalidate(self, block, message):
        if (
            message.request_kind is MessageType.GETM
            and block.state is MOSIState.SHARED
        ):
            return  # bug: keep the stale shared copy
        return original(self, block, message)

    monkeypatch.setattr(SnoopingCacheController, "_serve_stable", never_invalidate)
