"""The compiled residency loop's loader: build, cache, fallback.

:func:`repro.cache.native.residency_loop` compiles ``residency.c`` on
first use into ``~/.cache/repro-native``, so each test points ``HOME``
at its own directory and clears the memo before and after.
"""

from __future__ import annotations

import ctypes
import io
import json
import shutil
import subprocess

import numpy as np
import pytest

from repro.cache import native
from repro.engine import simulate
from repro.obs import log as obslog
from repro.service import ServiceState
from tests.conftest import make_trace

needs_compiler = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler on PATH",
)


@pytest.fixture
def home(tmp_path, monkeypatch):
    """An empty ``HOME`` and a cleared loader memo, restored afterwards."""
    monkeypatch.setenv("HOME", str(tmp_path))
    native.residency_loop.cache_clear()
    yield tmp_path
    native.residency_loop.cache_clear()


@pytest.fixture
def log_sink():
    """The structured log's records, captured in memory."""
    sink = io.StringIO()
    obslog.configure(stream=sink)
    try:
        yield sink
    finally:
        obslog.configure()


def _fallback_records(sink: io.StringIO) -> list[dict]:
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    return [r for r in records if r["event"] == "native-fallback"]


def test_no_compiler_falls_back_once(
    home, tmp_path_factory, monkeypatch, log_sink
):
    """With no compiler on PATH and nothing cached, the loader returns
    None, logs the reason once, and does not retry; the kernel then runs
    the Python loop with the per-access results."""
    monkeypatch.setenv("PATH", str(tmp_path_factory.mktemp("empty-path")))
    assert native.residency_loop() is None
    assert native.residency_loop() is None
    trace = make_trace(
        [[0, 1, 2], [2, 3], [0, 3, 1], [4]], file_sizes=[3, 1, 4, 1, 5]
    )
    assert simulate(trace, "file-lru", 6) == simulate(
        trace, "file-lru", 6, batch=False
    )
    records = _fallback_records(log_sink)
    assert len(records) == 1, records
    assert records[0]["logger"] == "repro.cache.native"
    assert records[0]["level"] == "warning"
    assert records[0]["reason"] == "no C compiler (cc or gcc) on PATH"


@needs_compiler
def test_warm_cache_loads_without_compiler(home, monkeypatch):
    """A library built once is loaded from the cache afterwards, with no
    compiler on PATH and without running one."""
    assert native.residency_loop() is not None
    built = sorted((home / ".cache" / "repro-native").iterdir())
    assert [p.suffix for p in built] == [".so"], built

    native.residency_loop.cache_clear()
    monkeypatch.setenv("PATH", str(home))

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"compiler run on a warm cache: {args}")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert native.residency_loop() is not None
    assert sorted((home / ".cache" / "repro-native").iterdir()) == built


@needs_compiler
def test_wrong_dtype_is_refused(home):
    """The argument types check each array, so an int32 array raises
    instead of being read as int64."""
    loop = native.residency_loop()
    files = np.zeros(2, dtype=np.int32)
    csum = np.zeros(3, dtype=np.int64)
    flags = np.zeros(1, dtype=np.uint8)
    links = np.empty(1, dtype=np.int64)
    state = np.array([0, 0, 0, 0, 0, 0, -1, -1], dtype=np.int64)
    with pytest.raises(ctypes.ArgumentError):
        loop(files, csum, 2, None, None, 0, links, 1, 10, 1, flags, links, links, state)


@pytest.mark.parametrize("policy", ["lru", "fifo", "gds"])
def test_service_never_calls_the_loader(policy, monkeypatch):
    """The service's advisors replay on Residency.replay: ingest and
    advise never build or load the compiled loop."""

    def loader():
        raise AssertionError("the service called residency_loop")

    monkeypatch.setattr(native, "residency_loop", loader)
    state = ServiceState(policy=policy, capacity_bytes=100)
    state.ingest([1, 2, 3], sizes=[10, 20, 30], site=0)
    state.ingest_batch([([2, 3], None, 0), ([4, 2**40], [5, 6], 1)])
    state.advise([1, 2, 4], site=0)
    state.advise([2**40], site=1)
