import os
import pathlib
import sys
from concurrent.futures import Future

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def recording_pool(monkeypatch):
    """Swap a module's ProcessPoolExecutor for an inline fake.

    ``install(module, cpus)`` also fixes ``os.cpu_count()`` to ``cpus`` and
    returns the list of ``max_workers`` values the fake was built with; no
    process is ever started.
    """

    def install(module, cpus):
        created = []

        class InlinePool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(module, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return created

    return install
