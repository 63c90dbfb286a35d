import threading

import pytest

from polystab import ensemble


class ChunkThreads:
    """Sets the CPUs the ensemble sees and records the threads that run its chunks."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.idents = set()
        chunk = ensemble._simulate_chunk

        def recorded(*args, **kwargs):
            self.idents.add(threading.get_ident())
            return chunk(*args, **kwargs)

        monkeypatch.setattr(ensemble, "_simulate_chunk", recorded)

    def use(self, n):
        """Make the ensemble see n usable CPUs and forget the threads recorded so far."""
        self._monkeypatch.setattr(ensemble, "_usable_cpus", lambda: n)
        self.idents.clear()


@pytest.fixture
def cpus(monkeypatch):
    return ChunkThreads(monkeypatch)
