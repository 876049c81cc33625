"""Content-addressed result caching and in-process memoization.

The evaluation harness replays large grids of simulator runs (workload ×
architecture × accelerator count), and most of the cost of a point is
deterministic recomputation: topology construction, demand pricing, the
solver itself.  This module provides the two caching layers the sweep
engine (:mod:`repro.core.sweeps`) stacks on top of that grid:

* an **in-process memo** — a plain keyed registry for objects that are
  expensive to build and safe to share within one process (server
  models, per-server demand vectors).  It subsumes the old
  ``lru_cache``-based ``build_server_cached``;
* a **persistent on-disk result cache** — simulation results keyed by a
  content hash of *everything that determines the answer* (hardware
  config, architecture config, workload row, scale, engine), so a
  changed field can never serve a stale entry.  Entries carry a schema
  version; entries from older schemas (or corrupted files) are discarded
  on read, never trusted and never fatal.

Keys are built with :func:`fingerprint`, a canonical SHA-256 over a
JSON-stable encoding of dataclasses/enums/floats; :func:`canonicalize`
defines that encoding, and ``fingerprint`` emits the same bytes
directly, memoizing the text of frozen configs.  Bump
:data:`CACHE_VERSION` whenever the meaning of a cached result changes
(solver semantics, result schema, calibration constants) so old caches
self-invalidate.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import os
import threading
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro import obs
from repro.errors import ConfigError

#: Schema version stamped into every persistent entry.  Any change to
#: result dataclasses, solver behaviour, or calibrated constants that
#: affects cached values must bump this.
#: v2: DesResult normalized onto the shared SimulationOutcome schema
#: (resource_utilization + scenario identity + rate fields).
#: v3: the deprecated ``station_utilization`` alias is gone from
#: DesResult payloads, and the service layer stores whole-response
#: payloads keyed by request fingerprint in the same store.
#: v4: a traced DES run no longer switches to the reference solver, so
#: a ``sweep-point`` entry holds the same bits traced or not (v3 stores
#: may hold traced DES entries with the reference solver's bits); only
#: fault schedules still store whole-response payloads.
CACHE_VERSION = 4


# -- canonical fingerprinting ------------------------------------------------


def canonicalize(obj: Any) -> Any:
    """A JSON-encodable canonical form of ``obj``.

    Dataclasses carry their type name and every field (so adding or
    changing a field changes the fingerprint), enums their class and
    value, floats their exact ``repr``; dict keys are sorted.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return {"__float__": repr(obj)}
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": canonicalize(obj.value)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        body["__dataclass__"] = type(obj).__name__
        return body
    if isinstance(obj, dict):
        return {
            "__dict__": sorted(
                (str(k), canonicalize(v)) for k, v in obj.items()
            )
        }
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(canonicalize(v)) for v in obj)}
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    raise ConfigError(f"cannot fingerprint object of type {type(obj).__name__}")


#: The reference text encoding: ``canonicalize()`` then this encoder
#: (sorted keys, no whitespace, ASCII-escaped).  Reused, not rebuilt.
_ORACLE = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Canonical text of flat frozen dataclasses, keyed by ``id``.  Each
#: entry holds the object itself, so its id cannot be recycled while the
#: entry lives; the memo is emptied whenever it reaches
#: :data:`FRAGMENT_MEMO_SIZE` entries.  Lookups are lock-free; inserts
#: take the lock so concurrent callers cannot overrun the bound.
_FRAGMENTS: Dict[int, Tuple[Any, str]] = {}
_FRAGMENTS_LOCK = threading.Lock()
FRAGMENT_MEMO_SIZE = 1024


def _encode(obj: Any) -> str:
    """The text ``_ORACLE.encode(canonicalize(obj))`` would produce.

    Exact scalar, list and tuple types are emitted inline and dataclasses
    field by field; every other type (subclasses, enums, dicts, sets,
    bytes) goes through the oracle itself.
    """
    cls = type(obj)
    if cls is str:
        return _encode_str(obj)
    if cls is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if cls is float:
        return '{"__float__":"' + float.__repr__(obj) + '"}'
    if cls is bool:
        return "true" if obj else "false"
    if cls is list or cls is tuple:
        return "[" + ",".join([_encode(v) for v in obj]) + "]"
    entry = _FRAGMENTS.get(id(obj))
    if entry is not None:
        return entry[1]
    # canonicalize() tests the scalar and enum types before dataclasses.
    if hasattr(cls, "__dataclass_fields__") and not isinstance(
        obj, (int, str, float, enum.Enum)
    ):
        return _encode_dataclass(obj, cls)
    return _ORACLE.encode(canonicalize(obj))


def _encode_dataclass(obj: Any, cls: type) -> str:
    """Sorted-key object text of a dataclass; memoized when the class is
    frozen and every field is an immutable scalar or enum member."""
    body = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    text = {name: _encode(value) for name, value in body.items()}
    text["__dataclass__"] = _encode_str(cls.__name__)
    out = (
        "{"
        + ",".join([_encode_str(k) + ":" + text[k] for k in sorted(text)])
        + "}"
    )
    if cls.__dataclass_params__.frozen and all(
        map(_immutable, body.values())
    ):
        with _FRAGMENTS_LOCK:
            if len(_FRAGMENTS) >= FRAGMENT_MEMO_SIZE:
                _FRAGMENTS.clear()
            _FRAGMENTS[id(obj)] = (obj, out)
    return out


def _immutable(obj: Any) -> bool:
    """Whether ``obj`` is an exact immutable scalar or an enum member
    with such a value.  Only flat configs made of these are memoized;
    any other field shape is simply re-encoded on every call."""
    if isinstance(obj, enum.Enum):
        obj = obj.value
    return obj is None or type(obj) in (str, int, float, bool)


def fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``parts``.

    Byte-identical to hashing ``json.dumps(canonicalize(list(parts)),
    sort_keys=True, separators=(",", ":"))``, which stays the reference
    (tests pin the equivalence); the direct encoder skips building the
    canonical tree and reuses the memoized text of frozen configs.
    """
    return hashlib.sha256(_encode(parts).encode("ascii")).hexdigest()


# -- in-process memoization --------------------------------------------------

_MEMO: Dict[Any, Any] = {}


def memoized(key: Any, factory: Callable[[], Any]) -> Any:
    """Return the memoized value for ``key``, building it on first use.

    ``key`` must be hashable (frozen config dataclasses are); the value
    is shared by every caller, so factories must produce objects that
    are treated as read-only by convention.

    Reentrancy: concurrent service threads may race the first build of a
    key.  Both builds are valid (factories are pure), and ``setdefault``
    guarantees every caller still ends up sharing the *same* canonical
    object — the loser's copy is dropped.
    """
    try:
        return _MEMO[key]
    except KeyError:
        return _MEMO.setdefault(key, factory())


def clear_memo() -> None:
    """Drop every in-process memo entry (tests, benchmark cold starts)."""
    _MEMO.clear()


def memo_size() -> int:
    return len(_MEMO)


# -- persistent result cache -------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    discards: int = 0
    quarantined: int = 0


#: ``os.open`` flags of an entry read and of a put's private temp file
#: (``O_EXCL``: the name is new, as ``mkstemp`` guarantees).
_CLOEXEC = getattr(os, "O_CLOEXEC", 0)
_READ_FLAGS = os.O_RDONLY | _CLOEXEC
_CREATE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | _CLOEXEC
#: Bytes asked of each ``os.read``; an entry is a few KB, so one read
#: returns it whole and a second one sees EOF.
_READ_CHUNK = 1 << 16


def _read_file(path: str) -> bytes:
    """The whole content of ``path``: one ``open``, reads to EOF, one
    ``close``."""
    fd = os.open(path, _READ_FLAGS)
    try:
        chunks = []
        while True:
            chunk = os.read(fd, _READ_CHUNK)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    finally:
        os.close(fd)


class ResultCache:
    """A directory of JSON entries keyed by content hash.

    Entries are written atomically (temp file + rename) and validated on
    read: wrong schema version, unparseable JSON, or a payload that does
    not echo its own key are *discarded* (the lookup reports a miss)
    rather than raised — a corrupted cache must never poison or crash a
    sweep.  The invalid file itself is **quarantined**, renamed to
    ``<entry>.corrupt`` (counted as ``cache.quarantined``), so operators
    can see and inspect disk-tier rot instead of it silently vanishing;
    quarantined files are invisible to lookups and removed by
    :meth:`clear`.

    I/O per operation, on plain ``str`` paths and raw file descriptors:

    * ``get``: ``os.open``, ``os.read`` until EOF, ``os.close``, then
      ``json.loads`` on the bytes; a miss is one failed ``os.open``.
    * ``put``: one ``json.dumps``; ``os.open`` of a new
      ``.tmp-<pid>-<thread>-<n>.json`` in the entry's shard (mode
      ``0o600``, ``O_EXCL``), ``os.write`` until every byte is out,
      ``os.close`` and ``os.replace`` onto the entry.  A shard is
      created only when that ``os.open`` finds it missing, so a warm
      put makes no ``mkdir``.

    Concurrency: the directory may be **shared** by any number of
    threads and processes (several servers, sweeps) with no lock.  A
    writer never touches a file another one can see until its
    ``os.replace``, so a reader finds either no entry or a whole one;
    keys are content hashes, so concurrent writers of one key write
    equal bytes and the last rename wins harmlessly.
    """

    def __init__(self, directory: os.PathLike, version: int = CACHE_VERSION):
        self.directory = Path(directory)
        self.version = version
        self.stats = CacheStats()
        self._root = os.fspath(self.directory)
        self._tmp_seq = itertools.count()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached payload for ``key``, or None on miss."""
        path = f"{self._root}/{key[:2]}/{key}.json"
        with obs.span("cache.get", cat="cache"):
            try:
                raw = _read_file(path)
            except OSError:
                self.stats.misses += 1
                obs.inc("cache.misses")
                return None
            try:
                entry = json.loads(raw)
                if (
                    not isinstance(entry, dict)
                    or entry.get("version") != self.version
                    or entry.get("key") != key
                    or "result" not in entry
                ):
                    raise ValueError("stale or malformed cache entry")
            except (ValueError, TypeError):
                self.stats.discards += 1
                self.stats.misses += 1
                obs.inc("cache.discards")
                obs.inc("cache.misses")
                self._quarantine(path)
                return None
            self.stats.hits += 1
            obs.inc("cache.hits")
            return entry["result"]

    def put(self, key: str, result: dict) -> None:
        """Store ``result`` (a JSON-encodable dict) under ``key``."""
        shard = f"{self._root}/{key[:2]}"
        with obs.span("cache.put", cat="cache"):
            # One ``dumps`` call runs the C encoder; ``json.dump`` streams
            # through the pure-Python one.  The text is ASCII
            # (``ensure_ascii``), so its bytes are the ones a text-mode
            # write would put on disk.
            data = json.dumps(
                {"version": self.version, "key": key, "result": result}
            ).encode("ascii")
            tmp, fd = self._create_tmp(shard)
            try:
                try:
                    done = os.write(fd, data)
                    while done < len(data):
                        done += os.write(fd, memoryview(data)[done:])
                finally:
                    os.close(fd)
                os.replace(tmp, f"{shard}/{key}.json")
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        self.stats.stores += 1
        obs.inc("cache.stores")

    def _create_tmp(self, shard: str) -> Tuple[str, int]:
        """Create a new private temp file in ``shard``: its path and an
        fd open for writing.  A missing shard is created and the open
        retried once; a name left behind by a dead writer with the same
        pid and thread is skipped."""
        created = False
        while True:
            tmp = (
                f"{shard}/.tmp-{os.getpid()}-{threading.get_ident()}"
                f"-{next(self._tmp_seq)}.json"
            )
            try:
                return tmp, os.open(tmp, _CREATE_FLAGS, 0o600)
            except FileExistsError:
                continue
            except FileNotFoundError:
                if created:
                    raise
                os.makedirs(shard, exist_ok=True)
                created = True

    def _quarantine(self, path: str) -> None:
        """Move an invalid entry aside as ``<name>.corrupt`` instead of
        deleting it — evidence for operators, invisible to lookups (the
        original path is gone, so the key reads as a miss until
        rewritten).  A rename race (another reader quarantining the same
        file) is harmless; deletion is the fallback if rename fails."""
        try:
            os.replace(path, path + ".corrupt")
            self.stats.quarantined += 1
            obs.inc("cache.quarantined")
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _entries(self) -> Iterator[Path]:
        """Every live entry file.  Entries are named by their hex key;
        ``*.json`` also matches a writer's ``.tmp-*.json`` (pathlib globs
        match dot files), so dot files are skipped."""
        return (
            path for path in self.directory.glob("*/*.json")
            if not path.name.startswith(".")
        )

    def clear(self) -> int:
        """Delete every entry (quarantined ones too); returns the number
        of live entries removed.  A writer's temp file is left alone: it
        is no entry, and removing a live writer's would fail its put."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.directory.glob("*/*.json.corrupt"):
            try:
                path.unlink()
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())
