"""The batch kernel's compiled residency loop, built on first use.

:func:`residency_loop` compiles ``residency.c`` with ``cc`` (or ``gcc``)
into ``~/.cache/repro-native``, keyed by a hash of the source and the
machine, and loads it with :mod:`ctypes`; nothing compiles at import.
If that fails it logs one ``native-fallback`` warning and returns
``None``, and the kernel runs :meth:`~repro.cache.batch.Residency.replay`.
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


@functools.cache
def residency_loop():
    """The compiled ``residency_replay`` (see ``residency.c``), or ``None``.

    Arrays of another dtype or layout raise ``ctypes.ArgumentError``.
    """
    try:
        source = SOURCE.read_bytes()
        key = hashlib.sha256(source + platform.machine().encode()).hexdigest()
        path = Path.home() / ".cache" / "repro-native" / f"residency-{key[:16]}.so"
        if not path.is_file():
            _build(path)
        function = ctypes.CDLL(str(path)).residency_replay
    except (OSError, RuntimeError) as exc:
        get_logger("repro.cache.native").warning("native-fallback", reason=str(exc))
        return None
    i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS")
    n = ctypes.c_int64
    function.argtypes = [i64, n, i64, n, ctypes.c_int, u8, i64, i64, i64, i64]
    function.restype = None
    return function
