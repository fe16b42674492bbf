"""Shared utilities: byte units, seeded RNG plumbing, ASCII rendering,
and the ``name?param=value`` spec wire format (:mod:`repro.util.specs`).

These helpers are deliberately dependency-light; every other subpackage of
:mod:`repro` builds on them.  Nothing in here knows about traces, filecules
or caches.
"""

from repro.util.units import (
    KB,
    MB,
    GB,
    TB,
    PB,
    format_bytes,
    parse_size,
)
from repro.util.rng import as_generator, spawn_children, stable_seed
from repro.util.timeutil import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    day_index,
    span_days,
)
from repro.util.tables import render_table
from repro.util.ascii_plot import ascii_histogram, ascii_series, ascii_intervals

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "PB",
    "format_bytes",
    "parse_size",
    "as_generator",
    "spawn_children",
    "stable_seed",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "day_index",
    "span_days",
    "render_table",
    "ascii_histogram",
    "ascii_series",
    "ascii_intervals",
]
