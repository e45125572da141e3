"""Persistent verdict cache for the batch-verification engine.

Alive-style pipelines re-verify near-identical queries constantly: the
same InstCombine rule is checked after every edit to an unrelated rule
in the same file, every CI run re-verifies the whole corpus, and
attribute/precondition inference issues families of queries that differ
only in one flag.  The cache makes all of those warm: a verdict
(status, kind, counterexample, query count, timing) is stored under the
job's content-addressed key and replayed instead of re-running the
refinement check.

Storage is a JSON-lines file (one entry per line, append-only) under
``~/.cache/alive-repro/`` by default; the location can be overridden
with the ``ALIVE_REPRO_CACHE_DIR`` environment variable or the
``--cache`` CLI flag.  The file is *crash-only*: there is no clean
shutdown it depends on, and any prefix of any write sequence must load
to a correct (if smaller) cache.  Concretely:

* every record carries a **CRC32** over its canonical JSON, so a
  corrupted-but-parseable line is detected, skipped and counted
  (``skipped_corrupt``) instead of replaying a wrong verdict;
* a **torn tail** (crash mid-append) is skipped and counted, and the
  next append first restores the line terminator so the torn fragment
  can never splice itself onto a good record;
* **compaction writes a temp file and atomically renames** it, so a
  crash mid-compaction leaves the old file intact;
* appends and compactions take an **advisory lock**
  (``<path>.lock``, ``flock``) so two engine processes sharing a cache
  cannot interleave partial lines;
* an unreadable file means an empty cache, and a failed write degrades
  to in-memory caching — the engine must never crash or wrongly answer
  because of cache state.

Soundness of reuse rests on the *semantics fingerprint*: a hash of the
source text of every module that can influence a verdict (IR parsing,
typing, semantics encoding, refinement, the whole SMT stack).  The
fingerprint is part of every job key, so editing the verifier — even a
one-line change to a definedness constraint — invalidates every cached
verdict at once.  Entries are self-describing (they store their
fingerprint) so a cache file shared across tool versions simply misses
instead of lying.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from contextlib import contextmanager
from typing import Dict, Optional

from .. import chaos

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: bump when the cache entry layout (not the verifier) changes
#: (2: per-record CRC32 for torn/corrupt-write detection)
ENGINE_SCHEMA_VERSION = 2

#: packages whose source defines the meaning of a verdict
_SEMANTIC_PACKAGES = ("core", "smt", "typing", "ir")

_fingerprint_memo: Optional[str] = None


def default_cache_dir() -> str:
    """Resolve the cache directory (env override > XDG > ``~/.cache``)."""
    env = os.environ.get("ALIVE_REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "alive-repro")


def semantics_fingerprint() -> str:
    """Hash of every source file that can influence a verdict.

    Memoized per process: the source tree does not change underneath a
    running engine.  ``ALIVE_REPRO_FINGERPRINT`` overrides the computed
    value (used by tests to simulate a semantics change).
    """
    global _fingerprint_memo
    env = os.environ.get("ALIVE_REPRO_FINGERPRINT")
    if env:
        return env
    if _fingerprint_memo is not None:
        return _fingerprint_memo
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    digest.update(b"schema:%d\n" % ENGINE_SCHEMA_VERSION)
    for package in _SEMANTIC_PACKAGES:
        pkg_dir = os.path.join(root, package)
        for name in sorted(os.listdir(pkg_dir)):
            if not name.endswith(".py"):
                continue
            path = os.path.join(pkg_dir, name)
            digest.update(("%s/%s\n" % (package, name)).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    _fingerprint_memo = digest.hexdigest()
    return _fingerprint_memo


def record_crc(entry: dict) -> int:
    """CRC32 over the canonical JSON of *entry*, minus its ``crc`` field.

    Computed from the parsed dict (not the stored bytes) so it is
    independent of on-disk whitespace and key order.
    """
    body = {k: v for k, v in entry.items() if k != "crc"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF


class ResultCache:
    """Persistent key → outcome store with versioned invalidation.

    Entries are dicts of plain data::

        {"key": ..., "fingerprint": ..., "outcome": CheckOutcome.to_dict(),
         "elapsed": ..., "name": ..., "crc": ...}

    Only entries whose fingerprint matches this cache's fingerprint are
    served; stale ones are ignored on load (and rewritten as the batch
    re-runs their jobs under fresh keys).  Entries whose CRC32 does not
    match their content are *corrupt* — skipped and counted, never
    served.  Pre-CRC entries (no ``crc`` field) are accepted for
    backward compatibility; the schema-version bump already invalidates
    them through the fingerprint in normal operation.
    """

    FILENAME = "results.jsonl"

    #: auto-compact on load when dead lines (stale fingerprint,
    #: corruption, duplicates, evictions) exceed this fraction of the file
    COMPACT_DEAD_FRACTION = 0.5

    def __init__(self, path: Optional[str] = None,
                 fingerprint: Optional[str] = None,
                 max_entries: Optional[int] = None):
        if path is None:
            path = os.path.join(default_cache_dir(), self.FILENAME)
        else:
            path = os.fspath(path)
            if os.path.isdir(path):
                path = os.path.join(path, self.FILENAME)
        self.path = path
        self.lock_path = path + ".lock"
        self.fingerprint = fingerprint or semantics_fingerprint()
        self.max_entries = max_entries if max_entries and max_entries > 0 \
            else None
        self._entries: Dict[str, dict] = {}
        self._writable = True
        self.loaded_lines = 0
        #: lines dropped on load because they were torn, unparseable,
        #: structurally wrong, or failed their CRC — recomputed, never
        #: served
        self.skipped_corrupt = 0
        #: lines dropped on load because their fingerprint is stale
        self.skipped_stale = 0
        self.auto_compacted = False
        #: True when the file's final record lacks its terminator (a
        #: torn append); the next append repairs it first so the torn
        #: fragment cannot splice onto a good record
        self._needs_newline = False
        self._load()

    @contextmanager
    def _locked(self):
        """Advisory exclusive lock around one write burst.

        Best effort: if the lock file cannot be opened (unwritable
        location) the write proceeds unlocked and the subsequent write
        failure degrades the cache to in-memory as usual.
        """
        handle = None
        if fcntl is not None:
            try:
                handle = open(self.lock_path, "a")
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                handle = None
        try:
            yield
        finally:
            if handle is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:  # pragma: no cover
                    pass
                handle.close()

    # ------------------------------------------------------------------
    # Loading / recovery
    # ------------------------------------------------------------------

    def _load(self) -> None:
        """Read the JSONL file, tolerating any form of corruption.

        The file is append-only, so across runs it accumulates *dead*
        lines: stale-fingerprint entries, superseded duplicates of a
        rewritten key, evicted entries, corrupt tails.  When more than
        :data:`COMPACT_DEAD_FRACTION` of the file is dead, it is
        compacted in place right after loading so the cache cannot
        grow without bound under a workload that keeps rewriting it.
        """
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return
        if not raw:
            return
        # a file not ending in "\n" has a torn final append; remember to
        # restore the terminator before the next append
        self._needs_newline = not raw.endswith(b"\n")
        for line in raw.split(b"\n"):
            line = line.strip()
            if not line:
                continue
            self.loaded_lines += 1
            try:
                entry = json.loads(line.decode("utf-8"))
                key = entry["key"]
                outcome = entry["outcome"]
            except (ValueError, TypeError, KeyError, UnicodeDecodeError):
                # torn or corrupt line: recompute rather than crash
                self.skipped_corrupt += 1
                continue
            if not isinstance(outcome, dict) or "status" not in outcome \
                    or not isinstance(key, str):
                self.skipped_corrupt += 1
                continue
            if "crc" in entry and entry["crc"] != record_crc(entry):
                self.skipped_corrupt += 1
                continue  # bit rot / in-place corruption: never serve
            if entry.get("fingerprint") != self.fingerprint:
                self.skipped_stale += 1
                continue  # verifier semantics changed: entry is stale
            # re-insert so dict order is last-write order (oldest first)
            self._entries.pop(key, None)
            self._entries[key] = entry
        self._evict_over_limit()
        dead = self.loaded_lines - len(self._entries)
        if (self.loaded_lines > 0
                and dead > self.COMPACT_DEAD_FRACTION * self.loaded_lines):
            self.compact()
            self.auto_compacted = True

    def _evict_over_limit(self) -> None:
        """Drop oldest-written entries beyond ``max_entries``."""
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[dict]:
        """The cached entry for *key*, or None."""
        return self._entries.get(key)

    def keys(self):
        """All cached job keys, oldest-written first."""
        return list(self._entries)

    def put(self, key: str, outcome: dict, elapsed: float = 0.0,
            name: str = "") -> None:
        """Record one verdict; persists unless the file is unwritable."""
        entry = {
            "key": key,
            "fingerprint": self.fingerprint,
            "outcome": outcome,
            "elapsed": elapsed,
            "name": name,
        }
        entry["crc"] = record_crc(entry)
        self._entries.pop(key, None)  # keep dict order == last-write order
        self._entries[key] = entry
        self._evict_over_limit()
        if not self._writable:
            return
        data = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        try:
            spec = chaos.fire("cache.append", key=key)
            if spec is not None:
                if spec.kind == chaos.KIND_ERROR:
                    raise OSError("chaos: injected cache write error")
                data = chaos.mangle_record(spec, data)
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with self._locked():
                with open(self.path, "ab") as handle:
                    if self._needs_newline:
                        handle.write(b"\n")
                    handle.write(data)
            self._needs_newline = not data.endswith(b"\n")
        except OSError:
            self._writable = False  # degrade to in-memory caching

    def install(self, entry) -> bool:
        """Adopt one complete entry replicated from a peer cache.

        The write-through path of the cluster's replicated cache tier:
        a coordinator ships whole entries (with fingerprint and CRC) to
        a key's ring successors.  Unlike :meth:`put`, which trusts its
        caller, ``install`` re-validates everything — shape, CRC,
        fingerprint, non-transience — because the entry crossed a
        network and a chaos plan may have corrupted it in flight.
        Returns True when the entry is (or already was) cached.
        """
        if not isinstance(entry, dict):
            return False
        key = entry.get("key")
        outcome = entry.get("outcome")
        if not isinstance(key, str) or not isinstance(outcome, dict) \
                or "status" not in outcome:
            return False
        if outcome.get("transient"):
            return False  # an abandoned job is not a verdict
        if entry.get("crc") != record_crc(entry):
            return False  # corrupted in flight: never adopt
        if entry.get("fingerprint") != self.fingerprint:
            return False  # peer runs different semantics: not ours
        if key in self._entries:
            return True  # already warm; no duplicate append
        self.put(key, outcome, elapsed=entry.get("elapsed", 0.0),
                 name=entry.get("name", ""))
        return True

    def compact(self) -> None:
        """Rewrite the file with only live (current-fingerprint) entries.

        Crash-safe by construction: the new contents go to a temp file
        which is atomically renamed over the old one, so an interrupted
        compaction (or an injected ``cache.compact`` fault) leaves the
        previous file byte-for-byte intact.
        """
        if not self._writable:
            return
        tmp = self.path + ".tmp"
        try:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            spec = chaos.fire("cache.compact")
            with self._locked():
                with open(tmp, "w") as handle:
                    for entry in self._entries.values():
                        handle.write(json.dumps(entry, sort_keys=True)
                                     + "\n")
                    if spec is not None \
                            and spec.kind == chaos.KIND_ERROR:
                        raise OSError("chaos: injected compaction failure")
                os.replace(tmp, self.path)
            self._needs_newline = False
        except OSError:
            self._writable = False
            try:
                os.unlink(tmp)
            except OSError:
                pass
