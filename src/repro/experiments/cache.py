"""Persistent, content-addressed result cache for simulation cells.

Every cell — an experiment run, a fault-campaign run or a verification
scenario — is identified by a stable content hash of its full parameter
tuple.  Completed results (:class:`~repro.core.metrics.RunMetrics`,
``FaultRunResult`` or ``VerifyResult``) are written as one JSON file per
cell under a cache directory (default ``.rolo-cache/``), so re-running an
experiment across interpreter invocations never recomputes a cell, and
figure/table experiments that share runs (Fig. 10 + Tables I/IV/V) read the
same entries.

Cache entries are stamped with :data:`CACHE_SCHEMA_VERSION` and the package
version; entries written by a different schema or package version are
ignored (treated as misses) so code changes can never resurrect stale
results.

The same canonicalization (:func:`freeze`) backs the in-memory memo keys in
:mod:`repro.experiments.runner`, so memory and disk agree on what "the same
run" means.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from typing import Any, Dict, Iterator, Optional, Tuple

from repro import __version__
from repro.core.metrics import RunMetrics
from repro.traces.compiled import TRACE_COMPILER_VERSION

#: Bump whenever the meaning of a cached entry changes: result serialization
#: layout, simulation semantics, or the canonical key format.  Schema 2
#: stores every cell kind's result under one ``"result"`` field.
CACHE_SCHEMA_VERSION = 2

#: Default on-disk location, overridable per :class:`ResultCache`.
DEFAULT_CACHE_DIR = ".rolo-cache"


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------
def freeze(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical, hashable, order-stable structure.

    Handles the parameter vocabulary of the experiment suite: primitives,
    sequences, mappings, enums, and (possibly nested) dataclasses such as
    :class:`~repro.core.config.ArrayConfig`,
    :class:`~repro.disk.models.DiskSpec` and
    :class:`~repro.traces.synthetic.SyntheticTraceConfig`.  Dataclasses are
    keyed on their qualified class name plus a canonical field tuple, so
    two configs with equal fields freeze identically regardless of object
    identity or ``__repr__`` formatting.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return ("enum", type(obj).__name__, obj.name)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = tuple(
            (f.name, freeze(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
        return ("dataclass", type(obj).__name__, fields)
    if isinstance(obj, dict):
        return (
            "dict",
            tuple(sorted((str(k), freeze(v)) for k, v in obj.items())),
        )
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(freeze(v)) for v in obj)))
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def _jsonable(frozen: Any) -> Any:
    """Frozen structure -> a JSON-encodable equivalent (tuples -> lists)."""
    if isinstance(frozen, tuple):
        return [_jsonable(v) for v in frozen]
    return frozen


def cell_hash(key: Any) -> str:
    """Stable content hash of a (frozen or freezable) cell key.

    The trace-compiler version is folded into every hash: a compiled-trace
    rollout that changes lowering semantics makes all previous hashes
    unreachable, so stale payloads can never be mixed with fresh ones.
    """
    frozen = freeze(key)
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "trace_compiler": TRACE_COMPILER_VERSION,
            "key": _jsonable(frozen),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------
class ResultCache:
    """One directory of content-addressed cell results.

    Every entry stores one result's ``to_dict()`` under ``"result"``; the
    caller names the type to rebuild it with, so experiment, fault and
    verification cells share one layout.
    """

    def __init__(self, directory: str = DEFAULT_CACHE_DIR) -> None:
        self.directory = str(directory)
        self.hits = 0
        self.misses = 0

    def _path(self, key_hash: str) -> str:
        return os.path.join(self.directory, f"{key_hash}.json")

    def get(self, key: Any, result_type: type = RunMetrics) -> Any:
        """Cached ``result_type`` for ``key``, or ``None`` on miss/stale."""
        path = self._path(cell_hash(key))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            entry.get("schema_version") != CACHE_SCHEMA_VERSION
            or entry.get("package_version") != __version__
        ):
            self.misses += 1
            return None
        try:
            result = result_type.from_dict(entry["result"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: Any, result: Any) -> str:
        """Persist ``result.to_dict()`` under ``key``; returns the path.

        The write goes through a temp file + rename so a crashed or
        concurrent writer can never leave a torn entry (renames within a
        directory are atomic on POSIX, and concurrent writers of the same
        cell write identical bytes anyway).
        """
        key_hash = cell_hash(key)
        path = self._path(key_hash)
        entry = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "package_version": __version__,
            "key_hash": key_hash,
            "result": result.to_dict(),
        }
        os.makedirs(self.directory, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, separators=(",", ":"))
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------
    def _entries(self) -> Iterator[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in sorted(names):
            if name.endswith(".json"):
                yield os.path.join(self.directory, name)

    def info(self) -> Dict[str, Any]:
        """Entry count / byte size / version census of the cache dir."""
        entries = 0
        total_bytes = 0
        stale = 0
        for path in self._entries():
            entries += 1
            try:
                total_bytes += os.path.getsize(path)
                with open(path, "r", encoding="utf-8") as fh:
                    entry = json.load(fh)
            except (OSError, ValueError):
                stale += 1
                continue
            if (
                entry.get("schema_version") != CACHE_SCHEMA_VERSION
                or entry.get("package_version") != __version__
            ):
                stale += 1
        return {
            "directory": os.path.abspath(self.directory),
            "entries": entries,
            "stale_entries": stale,
            "total_bytes": total_bytes,
            "schema_version": CACHE_SCHEMA_VERSION,
            "package_version": __version__,
        }

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        return removed


# ----------------------------------------------------------------------
# Module-level default cache (configured by the CLI / tests)
# ----------------------------------------------------------------------
_active_cache: Optional[ResultCache] = None


def configure(
    directory: Optional[str] = None, enabled: bool = True
) -> Optional[ResultCache]:
    """Install (or disable) the process-wide persistent cache.

    The disk cache is opt-in: library users get the in-memory memo only,
    while the CLI enables persistence by default (``rolo run --no-cache``
    turns it off).  Returns the active cache, or ``None`` when disabled.
    """
    global _active_cache
    if not enabled:
        _active_cache = None
    else:
        _active_cache = ResultCache(directory or DEFAULT_CACHE_DIR)
    return _active_cache


def active_cache() -> Optional[ResultCache]:
    """The configured persistent cache, or ``None`` when disabled."""
    return _active_cache
