import concurrent.futures
import os
import pathlib
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def recording_pool(monkeypatch):
    """Swap ``concurrent.futures.ProcessPoolExecutor`` for an inline fake.

    ``install(cpus)`` also fixes ``os.cpu_count()`` to ``cpus`` and
    returns a record of the fake's use: ``workers``, the ``max_workers`` of
    each pool built, and ``chunksizes``, the ``chunksize`` of each ``map``.
    No process is ever started.
    """

    def install(cpus):
        record = SimpleNamespace(workers=[], chunksizes=[])

        class InlinePool:
            def __init__(self, max_workers):
                record.workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                record.chunksizes.append(chunksize)
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return record

    return install
