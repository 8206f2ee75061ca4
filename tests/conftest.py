import subprocess

import pytest

from platefft import fieldio


@pytest.fixture
def split_writer(monkeypatch):
    """Make write_field split every non-constant field, as on two CPUs; yields the writer processes it starts."""
    monkeypatch.setattr(fieldio, "_CPUS", 2)
    monkeypatch.setattr(fieldio, "_SPLIT_MIN_ROWS", 1)
    spawned = []

    class RecordedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spawned.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordedPopen)
    return spawned
