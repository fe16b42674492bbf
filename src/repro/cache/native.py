"""The batch kernel's compiled replay pass, built on first use.

:func:`residency_loop` compiles ``residency.c`` with ``cc`` (or ``gcc``)
into ``~/.cache/repro-native``, keyed by a hash of the source and the
machine, and loads its one function, ``replay_window``, with
:mod:`ctypes`; nothing compiles at import.  If that fails it logs one
``native-fallback`` warning and returns ``None``, and the kernel runs
:meth:`~repro.cache.batch.Residency.replay` and the numpy fold
(:func:`~repro.cache.base.fold_runs`) instead.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
from pathlib import Path

import numpy as np

from repro.obs.log import get_logger

SOURCE = Path(__file__).with_name("residency.c")


def _build(path: Path) -> None:
    """Compile :data:`SOURCE` to a temporary file, then move it to ``path``."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise RuntimeError("no C compiler (cc or gcc) on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    cmd = [compiler, "-O2", "-shared", "-fPIC", "-o", str(tmp), str(SOURCE)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            err = done.stderr.strip()
            raise RuntimeError(f"{compiler} exited {done.returncode}: {err}")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _array(dtype, flags="C_CONTIGUOUS", optional=False):
    """The ``argtypes`` entry for a 1-D ``dtype`` array with ``flags``;
    ``optional`` also lets ``None`` through, as a NULL pointer."""
    array = np.ctypeslib.ndpointer(dtype, ndim=1, flags=flags)
    if not optional:
        return array

    class Optional:
        @staticmethod
        def from_param(value):
            return None if value is None else array.from_param(value)

    return Optional


@functools.cache
def residency_loop():
    """The compiled ``replay_window`` (see ``residency.c``), or ``None``.

    Arrays of another dtype or layout, or a read-only ``hit_out``, raise
    ``ctypes.ArgumentError``.
    """
    try:
        source = SOURCE.read_bytes()
        key = hashlib.sha256(source + platform.machine().encode()).hexdigest()
        path = Path.home() / ".cache" / "repro-native" / f"residency-{key[:16]}.so"
        if not path.is_file():
            _build(path)
        function = ctypes.CDLL(str(path)).replay_window
    except (OSError, RuntimeError) as exc:
        get_logger("repro.cache.native").warning("native-fallback", reason=str(exc))
        return None
    writable = "C_CONTIGUOUS,WRITEABLE"
    i64, out64, n = _array(np.int64), _array(np.int64, writable), ctypes.c_int64
    function.argtypes = [
        i64, i64, n, _array(np.bool_, writable, optional=True),  # files .. hit_out
        _array(np.int64, optional=True), n, i64, n,  # labels .. n_groups
        n, ctypes.c_int, _array(np.uint8, writable),  # capacity, touch, resident
        out64, out64, out64,  # prev, next, state
    ]
    function.restype = n
    return function
