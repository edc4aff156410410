"""Choice configuration files.

A :class:`Configuration` is the paper's "choice configuration file"
(Section 5.2): a mapping from parameter name to a
:class:`~repro.config.decision_tree.SizeDecisionTree`, the value of
that parameter for each input-size interval.  A bare value given to the
constructor (and so to :meth:`Configuration.with_entry` and to the
legacy ``{"kind": "value"}`` JSON form) becomes a tree with no levels,
one value for every size.  Configurations are immutable from the
outside; the mutators build modified copies via
:meth:`Configuration.with_entry`.  Immutability lets each value carry
its own content digest, computed on first use and kept for its
lifetime, and its hash likewise.

An execution never sees a :class:`Configuration` directly: it reads one
through a :class:`RecordingConfig`, which records every read as
``(name, n, value)``.  :meth:`Configuration.resolve` answers such a read
for any configuration, so the trial cache can tell whether another
configuration would have read exactly the same values.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterator, Mapping

from repro.config.decision_tree import SizeDecisionTree
from repro.errors import ConfigError

__all__ = ["Configuration", "ConfigEntry", "RecordingConfig"]

#: What the constructor accepts per entry: a tree, or a bare value that
#: it wraps as a tree with no levels.
ConfigEntry = Any  # SizeDecisionTree | float | int | str | bool

#: What :meth:`Configuration.resolve` returns for a lookup of a missing
#: entry; equal to no recorded value.
_ABSENT = object()


class Configuration:
    """An immutable assignment of values to every tunable parameter."""

    __slots__ = ("_entries", "_digest", "_hash")

    def __init__(self, entries: Mapping[str, ConfigEntry]):
        self._entries: dict[str, SizeDecisionTree] = {
            name: entry if isinstance(entry, SizeDecisionTree)
            else SizeDecisionTree([entry])
            for name, entry in entries.items()}
        self._digest: str | None = None
        self._hash: int | None = None

    def __getstate__(self):
        # String hashes differ between processes: never pickle _hash.
        return self._entries, self._digest

    def __setstate__(self, state) -> None:
        self._entries, self._digest = state
        self._hash = None

    @property
    def digest(self) -> str:
        """Stable content digest, computed once per value.

        Built from the sorted-key JSON serialisation, so structurally
        equal configurations digest identically across processes and
        runs — the key property the trial cache relies on.
        """
        if self._digest is None:
            self._digest = hashlib.sha256(
                self.dumps().encode()).hexdigest()[:32]
        return self._digest

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> SizeDecisionTree:
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigError(f"configuration has no entry {name!r}") from None

    def get(self, name: str, default: SizeDecisionTree | None = None
            ) -> SizeDecisionTree | None:
        return self._entries.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def lookup(self, name: str, n: float) -> Any:
        """Resolve entry ``name`` for input size ``n``."""
        return self[name].lookup(n)

    def resolve(self, name: str, n: float | None) -> Any:
        """The value the read ``(name, n)`` sees in this configuration.

        ``n=None`` is the containment check ``name in config`` (a
        bool); otherwise the entry resolved at ``n``, or a sentinel
        equal to no recorded value when the entry is missing.
        """
        if n is None:
            return name in self._entries
        entry = self._entries.get(name)
        return _ABSENT if entry is None else entry.lookup(n)

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_entry(self, name: str, value: ConfigEntry) -> "Configuration":
        if name not in self._entries:
            raise ConfigError(f"configuration has no entry {name!r}")
        entries = dict(self._entries)
        entries[name] = value
        return Configuration(entries)

    def with_entries(self, updates: Mapping[str, ConfigEntry]) -> "Configuration":
        entries = dict(self._entries)
        for name, value in updates.items():
            if name not in entries:
                raise ConfigError(f"configuration has no entry {name!r}")
            entries[name] = value
        return Configuration(entries)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {name: {"kind": "tree", **entry.to_json()}
                for name, entry in sorted(self._entries.items())}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Configuration":
        """Read :meth:`to_json`'s form, and the legacy
        ``{"kind": "value", "value": v}`` entry as a tree with no
        levels."""
        return cls({name: SizeDecisionTree.from_json(item)
                    if item.get("kind") == "tree" else item["value"]
                    for name, item in data.items()})

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "Configuration":
        return cls.from_json(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def load(cls, path) -> "Configuration":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    # ------------------------------------------------------------------
    # Equality / display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._entries == other._entries

    def identical(self, other: "Configuration") -> bool:
        """Equal entries whose tree leaves have the same types.

        ``==`` and the hash follow Python, so 1, 1.0 and True compare
        equal; a rule may branch on the type, so the trial cache keeps
        them apart, and the harness shares an execution only between
        identical configurations.
        """
        if self is other:
            return True
        if self != other:
            return False
        return all(type(mine) is type(leaf)
                   for name, entry in self._entries.items()
                   for mine, leaf in zip(entry.leaves,
                                         other._entries[name].leaves))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._entries.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Configuration({len(self._entries)} entries)"

    def describe(self, n: float | None = None) -> str:
        """Human-readable dump, optionally resolved at input size ``n``."""
        lines = []
        for name, entry in sorted(self._entries.items()):
            if n is None:
                lines.append(f"{name} = {entry!r}")
            else:
                lines.append(f"{name} = {entry.lookup(n)!r}  (at n={n})")
        return "\n".join(lines)


class RecordingConfig:
    """A configuration as one execution reads it.

    Offers only the two reads an execution needs, ``name in config``
    and :meth:`lookup`, and appends each to ``reads`` in order as
    ``(name, n, value)``: ``(name, None, present)`` for a containment
    check (and for a lookup of a missing entry, which then raises).
    Two executions on the same inputs and seed whose configurations
    resolve every recorded read to the same value run identically.
    """

    __slots__ = ("_config", "reads")

    def __init__(self, config: Configuration, reads: list | None = None):
        self._config = config
        self.reads: list[tuple[str, float | None, Any]] = \
            reads if reads is not None else []

    def __contains__(self, name: str) -> bool:
        present = self._config.resolve(name, None)
        self.reads.append((name, None, present))
        return present

    def lookup(self, name: str, n: float) -> Any:
        n = float(n)
        value = self._config.resolve(name, n)
        if value is _ABSENT:
            self.reads.append((name, None, False))
            raise ConfigError(f"configuration has no entry {name!r}")
        self.reads.append((name, n, value))
        return value
