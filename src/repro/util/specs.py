"""The ``name?param=value&...`` spec wire format, implemented once.

Policies and placements (:mod:`repro.registry`) and scenarios
(:mod:`repro.scenario`) are chosen by a string naming a catalog entry,
optionally followed by parameter overrides
(``working-set-prefetch?max_group_size=128``).  This module holds what
those catalogs share: the :class:`Selection` (name plus sorted
overrides, rendered by ``str()``), the :class:`Catalog` (registration,
lookup, listing, :meth:`~Catalog.parse` and default merging), and the
one value spelling, :func:`render_value` / :func:`coerce_value`.

``parse(str(selection)) == selection`` for every selection whose values
fit their defaults' types (a string value must hold none of the
format's delimiters).  A rendered number never contains ``+`` (the
separator of scenario compositions and hierarchy tiers), and a float
that is not finite has no spelling.  Entries need only ``name``,
``aliases`` and ``defaults``; each catalog raises its package's errors.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Generic, TypeVar

#: Spellings read as true and false, case-insensitively, for a boolean
#: parameter (and for the boolean environment knobs).
TRUE_SPELLINGS = frozenset(("1", "true", "yes", "on"))
FALSE_SPELLINGS = frozenset(("0", "false", "no", "off"))


def render_value(value: object) -> str:
    """``value``'s canonical spelling on the wire.

    Booleans render as ``true``/``false``; a float as its shortest
    round-tripping ``repr`` with the exponent's ``+`` dropped (``1e16``,
    which :func:`float` reads back unchanged); anything else with
    ``str``.  A non-finite float raises :class:`ValueError`.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {value!r}")
        return repr(float(value)).replace("e+", "e")
    return str(value)


def coerce_value(default: object, raw: str) -> object:
    """Read the wire text ``raw`` as a value of ``default``'s type.

    Raises :class:`ValueError` for text that type cannot take,
    including ``nan`` and ``inf`` for a float.
    """
    if isinstance(default, bool):
        lowered = raw.lower()
        if lowered in TRUE_SPELLINGS:
            return True
        if lowered in FALSE_SPELLINGS:
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {raw!r}")
        return value
    return raw


@dataclass(frozen=True)
class Selection:
    """A picklable (name, explicit-params) choice of one catalog entry.

    ``params`` holds only the caller's overrides (sorted by key);
    defaults stay implicit so two ways of spelling the same choice
    compare equal and render the same string.
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.name
        query = "&".join(f"{k}={render_value(v)}" for k, v in self.params)
        return f"{self.name}?{query}"


E = TypeVar("E")
S = TypeVar("S", bound=Selection)


@dataclass(eq=False, kw_only=True)
class Catalog(Generic[E, S]):
    """Entries registered under a canonical name and any aliases.

    ``kind`` names an entry in error messages (``"policy"``) and
    ``plural`` the listing an unknown name is answered with.
    ``selection`` is the :class:`Selection` subclass :meth:`parse`
    returns.  ``unknown_error`` is raised for a name no entry has and
    ``spec_error`` for a malformed string, an unknown parameter or a
    value its default's type cannot take.  ``loader``, if given, is
    called once, on the first lookup of a name not yet registered, to
    register entries that are loaded lazily.
    """

    kind: str
    plural: str
    selection: type[S]
    unknown_error: type[ValueError]
    spec_error: type[ValueError]
    loader: Callable[[], None] | None = None
    #: Canonical name or alias -> entry.
    _index: dict[str, E] = field(default_factory=dict, init=False, repr=False)

    def register(self, entry: E) -> None:
        """Add ``entry`` under its name and each of its aliases."""
        for i, key in enumerate((entry.name, *entry.aliases)):
            if key in self._index:
                what = "alias" if i else "name"
                raise ValueError(f"duplicate {self.kind} {what} {key!r}")
            self._index[key] = entry

    def load(self) -> None:
        """Run the lazy loader, if it has not run yet."""
        # Cleared before the call: the loader registers into, and may
        # look names up in, this catalog.
        loader, self.loader = self.loader, None
        if loader is not None:
            loader()

    def get(self, name: str) -> E:
        """The entry registered under ``name`` (canonical or alias)."""
        if name not in self._index:
            self.load()
        try:
            return self._index[name]
        except KeyError:
            known = ", ".join(self.names(include_aliases=True))
            raise self.unknown_error(
                f"unknown {self.kind} {name!r}; known {self.plural}: {known}"
            ) from None

    def entries(self, where: Callable[[E], bool] | None = None) -> list[E]:
        """Registered entries (those ``where`` accepts), by canonical name."""
        return [
            entry
            for key, entry in sorted(self._index.items())
            if key == entry.name and (where is None or where(entry))
        ]

    def names(
        self,
        *,
        include_aliases: bool = False,
        where: Callable[[E], bool] | None = None,
    ) -> list[str]:
        """Sorted canonical names (plus aliases) of the chosen entries."""
        chosen = self.entries(where)
        names = [entry.name for entry in chosen]
        if include_aliases:
            names.extend(alias for entry in chosen for alias in entry.aliases)
        return sorted(names)

    def parse(self, text: str | S) -> S:
        """Parse ``"name?param=value&..."`` into a canonical selection.

        A selection passes through once its name is checked.
        """
        if isinstance(text, self.selection):
            self.get(text.name)
            return text
        name, _, query = text.strip().partition("?")
        entry = self.get(name)
        params: dict[str, object] = {}
        for part in query.split("&"):
            if not part:
                continue
            key, sep, raw = part.partition("=")
            if not sep:
                raise self.spec_error(
                    f"malformed {self.kind} spec {text!r}: expected "
                    f"param=value, got {part!r}"
                )
            self._check_parameter(entry, key)
            try:
                params[key] = coerce_value(entry.defaults[key], raw)
            except ValueError as exc:
                raise self.spec_error(
                    f"bad value for {entry.name}?{key}: {exc}"
                ) from None
        return self.selection(entry.name, tuple(sorted(params.items())))

    def bound_params(
        self, selection: S, overrides: Mapping[str, object] | None = None
    ) -> dict[str, object]:
        """The entry's defaults, then the selection's params, then
        ``overrides``; each key must have a default."""
        entry = self.get(selection.name)
        merged = dict(entry.defaults)
        for key, value in (*selection.params, *(overrides or {}).items()):
            self._check_parameter(entry, key)
            merged[key] = value
        return merged

    def _check_parameter(self, entry: E, key: str) -> None:
        if key not in entry.defaults:
            valid = ", ".join(sorted(entry.defaults)) or "<none>"
            raise self.spec_error(
                f"{self.kind} {entry.name!r} has no parameter {key!r}; "
                f"valid parameters: {valid}"
            )
