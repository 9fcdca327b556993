"""Content-addressed on-disk artifact store.

Blobs are addressed by the SHA-256 request key of
:mod:`repro.service.keys`, laid out git-style under the store root::

    root/
      objects/ab/abcdef....json     # header line, then the payload's JSON
      objects/tmp/                  # every write in progress (tmp files)
      quarantine/                   # corrupt blobs, moved aside
      index.log                     # recency log (advisory)

A blob is one ASCII header line, ``<salt> <key> <length> <sha256>``,
then the payload's JSON bytes verbatim: ``length`` and ``sha256`` are
those of the payload bytes.  :meth:`ArtifactStore.get_raw` checks the
header and returns the payload bytes as stored, so a service hit can be
relayed to its client without being decoded; :meth:`ArtifactStore.get`
is ``json.loads`` of them.

``index.log`` is append-only, one line per event: ``<key> <size>`` when
a blob is put or used, ``<key> -`` when it is removed (evicted,
quarantined, invalidated).  *Line order is recency*: the last line of a
key decides whether it is indexed, and the order of those last lines is
the LRU order.  A put appends its line (ahead of it, the blobs this
handle read since its last write) with one ``O_APPEND`` write; a handle
that only reads writes nothing.  In memory the index is a dict in the
same order beside a running byte total, so a put, a hit and an eviction
cost the same whatever the store holds.

Opening replays the log and **looks at no blob**.  An indexed blob that
has vanished (another process evicted or quarantined it) is dropped
where it is noticed anyway: ``get`` finds no file (a miss), eviction
unlinks nothing and forgets the entry.  A log with more than twice as
many lines as live keys is compacted (tmp + ``os.replace``) — on open,
and by a handle whose own appends take it past that line, which first
replays the log again so that other handles' events are kept.  A torn
last line is skipped and compacted away; a missing log, or one with any
other unparsable line, is rebuilt by scanning ``objects/``.  A directory
written before the log existed has an ``index.json``: it is read once,
as the initial order, and removed.

The log is advisory — the blobs are the truth.  A failed append or
compaction is ignored, and lines appended while another handle compacts
are lost; either way the blob is served, it is only unknown to the size
cap until the log is next rebuilt.

Guarantees:

* **Atomic writes** — a blob is written to a tmp file in
  ``objects/tmp/`` and ``os.replace``d into place, so readers (and
  concurrent writers of the same key: last rename wins, both contents
  identical by construction) never observe a torn blob at its final
  path.  A compacted ``index.log`` is written there too.
* **Corruption tolerance** — a blob whose header does not parse, names
  another key, or whose payload has the wrong length or digest (torn,
  bit-flipped, copied to the wrong path) is treated as a *miss* and
  moved into ``quarantine/`` so it cannot poison later reads (and so a
  corrupt file is preserved for inspection instead of being silently
  clobbered by the recomputation).
* **Version-salt invalidation** — every header records the
  :data:`~repro.service.keys.CODE_VERSION` salt it was written under; a
  mismatch is a miss and the stale blob is deleted.  So is a JSON
  envelope ``{salt, key, payload}`` written before the header layout:
  it is never read, only recomputed.
* **LRU size-capped eviction** — ``max_bytes`` caps the total blob
  size; inserting past the cap evicts least-recently-*used* blobs
  (reads refresh recency).  Recency is a *logical use counter* — the
  position in ``index.log`` — not a wall-clock stamp: ``time.time()``
  can step backwards (NTP, manual resets) and across machines two
  stores' clocks never agree, either of which would silently reorder
  eviction and throw away the hottest blob.  It survives reopen; a lost
  or garbled log is rebuilt by scanning ``objects/`` (recency degrades
  to file-mtime order, ties broken by key, and correctness is
  unaffected).
* **Shared directories** — index events are appended, never a rewrite
  of one handle's view, so handles (and processes) putting distinct
  keys into one directory all stay indexed and evictable.
* **Shared handles** — one lock guards a handle's index and counters,
  so threads share it; a put's tmp write, ``fsync`` and rename, and a
  get's read and check, run outside it.
* **Classified failure handling** — write and eviction I/O errors run
  through the :mod:`repro.resilience.errors` taxonomy: transient ones
  (``ENOSPC``, ``EIO``, ...) are retried under the shared
  :class:`~repro.resilience.retry.RetryPolicy` and then *degrade* (the
  result is served, just not persisted) instead of failing the caller;
  only fatal ones (permissions, read-only fs) raise.  Orphaned
  ``*.tmp`` files from writers that died between write and rename are
  cleaned on open after a grace period: they are all in
  ``objects/tmp/``, so an open lists that one directory, never the
  fan-out directories or the blobs.  (A store written before the tmp
  directory keeps its orphans beside the blobs, where no read sees
  them; a rebuild of the index, which scans ``objects/`` anyway,
  removes them.  An open that cannot make ``objects/tmp/``, as on a
  read-only mount, still serves every hit.)

Fault sites (active only under an armed
:class:`~repro.resilience.faults.FaultPlan`): ``store.torn_write``
truncates a blob's bytes before the rename, ``store.enospc`` raises at
the write, ``store.eio`` raises at the fsync.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ..resilience import faults
from ..resilience.errors import (
    classify_os_error,
    clean_orphan_tmps,
    log_tolerated,
)
from ..resilience.retry import RetryPolicy, retry_call
from .keys import CODE_VERSION

#: write/rename retry schedule: brief, because a put that cannot land
#: quickly should degrade (skip persistence) rather than stall serving
PUT_RETRY = RetryPolicy(max_attempts=3, base_s=0.01, cap_s=0.1, budget_s=1.0)

#: copied per blob: ``copy()`` skips the digest lookup and set-up that
#: ``hashlib.sha256(data)`` repeats on every put and every hit
_SHA256 = hashlib.sha256()
_KEY = re.compile(r"[0-9a-f]{64}")
#: one event of ``index.log``: ``<key> <size>`` or ``<key> -``
_EVENT = re.compile(r"^([0-9a-f]{64}) ([0-9]+|-)$", re.MULTILINE)


@dataclass
class StoreStats:
    """Counters since this handle was opened (not persisted)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    quarantined: int = 0
    invalidated: int = 0
    #: transient write failures retried / degraded to "not persisted"
    put_retries: int = 0
    put_failures: int = 0
    #: eviction unlinks absorbed by the taxonomy (transient, logged)
    evict_errors: int = 0
    #: orphaned tmp files removed at open
    tmp_cleaned: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _sha256(data) -> str:
    h = _SHA256.copy()
    h.update(data)
    return h.hexdigest()


def _blob(salt: str, key: str, data: bytes) -> bytes:
    """A blob: its header line, then the payload bytes ``data``."""
    return f"{salt} {key} {len(data)} {_sha256(data)}\n".encode() + data


def _payload(blob: bytes, key: str, salt: str) -> bytes | str:
    """The payload bytes of ``blob`` if it is ``key``'s under ``salt``;
    else ``"stale"`` (another salt, or a pre-header JSON envelope) or
    ``"corrupt"``."""
    if blob.startswith(b"{"):
        return "stale"
    nl = blob.find(b"\n")
    head = blob[:nl].rsplit(b" ", 3) if nl > 0 else ()
    if (len(head) != 4 or head[1] != key.encode()
            or head[2] != str(len(blob) - nl - 1).encode()
            or head[3] != _sha256(memoryview(blob)[nl + 1:]).encode()):
        return "corrupt"
    if head[0] != salt.encode():
        return "stale"
    return blob[nl + 1:]


@dataclass
class ArtifactStore:
    """One process's handle on a store directory.

    Safe for concurrent use by multiple processes: blob writes are
    atomic renames, reads tolerate missing/corrupt files, and index
    events are single ``O_APPEND`` writes, so handles on one directory
    do not lose each other's entries.  Safe for concurrent use by the
    threads of one process: a lock guards the index and the counters.
    """

    root: Path
    #: total blob-byte cap; None = unbounded
    max_bytes: int | None = None
    #: header salt; artifacts written under any other salt are stale
    salt: str = CODE_VERSION
    stats: StoreStats = field(default_factory=StoreStats)
    #: a tmp file older than this is an orphan (its writer is dead)
    tmp_grace_s: float = 600.0
    #: write/rename retry schedule for transient OSErrors
    retry: RetryPolicy = PUT_RETRY

    def __post_init__(self):
        self.root = Path(self.root)
        self._objects = os.path.join(self.root, "objects")
        self._tmp = os.path.join(self._objects, "tmp")
        self._log_path = os.path.join(self.root, "index.log")
        os.makedirs(self._objects, exist_ok=True)
        try:
            os.makedirs(self._tmp, exist_ok=True)
        except OSError:
            pass  # a store this process cannot write still serves reads
        self.stats.tmp_cleaned += clean_orphan_tmps(
            self._tmp, self.tmp_grace_s, recursive=False)
        #: guards everything below, and ``stats``
        self._lock = threading.Lock()
        #: per-key write-attempt sequence, so injected write faults fire
        #: on the first attempt and let the retry/recompute land clean
        self._fault_seq: Counter = Counter()
        #: key -> blob size, least recently used first
        self._index: dict[str, int] = {}
        self._total = 0
        #: events since this handle's last log write, in order: key ->
        #: size (used) or None (removed); bounded by the keys it touched
        self._unlogged: dict[str, int | None] = {}
        #: lines ``index.log`` holds as far as this handle knows
        self._log_lines = 0
        self._load_index()

    # -- paths ----------------------------------------------------------

    def _path(self, key: str) -> str:
        if not isinstance(key, str) or _KEY.fullmatch(key) is None:
            raise ValueError(f"malformed store key {key!r}")
        return f"{self._objects}/{key[:2]}/{key}.json"

    def _blob_path(self, key: str) -> Path:
        return Path(self._path(key))

    # -- index (under the lock) -----------------------------------------

    def _load_index(self) -> None:
        if not self._replay_log():
            self._rebuild_index()

    def _replay_log(self) -> bool:
        """Load ``index.log``: the last event of a key wins and line
        order is recency.  No blob is looked at — one that vanished is
        dropped where it is noticed, at ``get`` and at eviction.  False
        when there is no log or it does not parse."""
        try:
            with open(self._log_path, encoding="ascii") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError):
            return False
        # whatever follows the last newline is a torn append: skipped
        complete = text[: text.rfind("\n") + 1]
        events = _EVENT.findall(complete)
        if len(events) != complete.count("\n"):
            return False
        index: dict[str, int] = {}
        for key, size in events:
            index.pop(key, None)
            if size != "-":
                index[key] = int(size)
        self._index = index
        self._total = sum(index.values())
        self._log_lines = len(events)
        # compact a log that is mostly history, and one with a torn
        # tail (the next append would be glued to it)
        if len(complete) != len(text) or len(events) > 2 * len(index):
            self._write_log()
        return True

    def _rebuild_index(self) -> None:
        """Start a log from the pre-log ``index.json`` if the directory
        has one (read once, then removed), else from a directory scan."""
        legacy = self.root / "index.json"
        try:
            # ``used`` is a logical counter or an older wall-clock
            # float, either way only an order
            loaded = [
                (float(v["used"]), k, int(v["size"]))
                for k, v in json.loads(legacy.read_text())["entries"].items()
                if _KEY.fullmatch(k)
            ]
        except (OSError, json.JSONDecodeError, AttributeError, KeyError,
                TypeError, ValueError):
            # recency falls back to the blobs' mtime order (ties broken
            # by key, so the rebuild is deterministic for a given set of
            # files)
            loaded = []
            for p in Path(self._objects).glob("??/*.json"):
                try:
                    st = p.stat()
                except OSError:
                    continue
                if _KEY.fullmatch(p.stem):
                    loaded.append((st.st_mtime, p.stem, st.st_size))
        self._index = {k: size for _, k, size in sorted(loaded)}
        self._total = sum(self._index.values())
        self._write_log()
        legacy.unlink(missing_ok=True)
        # the orphans of writers from before ``objects/tmp/``, which
        # wrote beside the blobs
        self.stats.tmp_cleaned += clean_orphan_tmps(self.root,
                                                    self.tmp_grace_s)

    def _write_log(self) -> None:
        """Replace the log by one line per live key, in recency order."""
        tmp = f"{self._tmp}/index.log.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="ascii") as f:
                f.writelines(f"{k} {size}\n"
                             for k, size in self._index.items())
            os.replace(tmp, self._log_path)
            self._log_lines = len(self._index)
        except OSError:
            _unlink_missing_ok(tmp)  # advisory only

    def _append_log(self) -> None:
        """One ``O_APPEND`` write of every event since the last one; past
        twice as many lines as live keys, the log is replayed (with any
        other handle's events) and compacted."""
        lines = "".join(
            f"{k} {'-' if size is None else size}\n"
            for k, size in self._unlogged.items())
        n = len(self._unlogged)
        self._unlogged.clear()
        try:
            fd = os.open(self._log_path,
                         os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, lines.encode("ascii"))
            finally:
                os.close(fd)
        except OSError:
            return  # advisory only: the blobs are the truth
        self._log_lines += n
        if self._log_lines > 2 * len(self._index):
            self._load_index()

    def _used(self, key: str, size: int) -> None:
        """``key`` (``size`` bytes) is now the most recently used."""
        self._total += size - self._index.pop(key, 0)
        self._index[key] = size
        self._unlogged.pop(key, None)
        self._unlogged[key] = size

    def _removed(self, key: str) -> None:
        size = self._index.pop(key, None)
        if size is not None:
            self._total -= size
            self._unlogged.pop(key, None)
            self._unlogged[key] = None

    # -- public API -----------------------------------------------------

    def get_raw(self, key: str) -> bytes | None:
        """The stored payload for ``key`` as the JSON bytes that were
        put, checked against the blob's header; None on any kind of
        miss."""
        path = self._path(key)
        try:
            blob = _read_file(path)
        except OSError:
            with self._lock:
                self.stats.misses += 1
                self._removed(key)
            return None
        payload = _payload(blob, key, self.salt)
        if isinstance(payload, bytes):
            with self._lock:
                self.stats.hits += 1
                self._used(key, len(blob))
            return payload
        if payload == "stale":
            # written by a different code version: stale, not corrupt
            _unlink_missing_ok(path)
        else:
            self._quarantine_blob(key)
        with self._lock:
            self.stats.misses += 1
            self._removed(key)
            if payload == "stale":
                self.stats.invalidated += 1
            else:
                self.stats.quarantined += 1
        return None

    def get(self, key: str):
        """The stored payload for ``key``, or None on any kind of miss."""
        raw = self.get_raw(key)
        return None if raw is None else json.loads(raw)

    def put(self, key: str, payload) -> Path | None:
        """Store a JSON-serializable payload under ``key`` atomically.

        Transient write errors are retried under :attr:`retry`; if they
        persist the put *degrades* — the blob is simply not stored (a
        future read is a miss and recomputes) and ``None`` is returned.
        Only fatal errors raise.
        """
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # plain dumps, not canonical_json: blob *content* must round-trip
        # with dict insertion order intact (e.g. a ConfigResult's
        # t_passes map records pass execution order); only key
        # derivation needs canonical form
        blob = _blob(self.salt, key, json.dumps(payload).encode())

        def count_retry(attempt, delay, exc):
            with self._lock:
                self.stats.put_retries += 1

        try:
            retry_call(lambda: self._write_blob(path, key, blob),
                       policy=self.retry, on_retry=count_retry)
        except OSError as e:
            if classify_os_error(e) == "fatal":
                raise
            with self._lock:
                self.stats.put_failures += 1
            log_tolerated(f"store.put {key[:16]}", e)
            return None
        with self._lock:
            self._used(key, len(blob))
            self.stats.puts += 1
            if self.max_bytes is not None:
                self._evict_to(self.max_bytes, keep=key)
            self._append_log()
        return Path(path)

    def _write_blob(self, path: str, key: str, data: bytes) -> None:
        """tmp-write + fsync + atomic rename, with the write fault sites."""
        plan = faults.ARMED
        attempt = 0
        if plan is not None:
            with self._lock:
                attempt = self._fault_seq[key]
                self._fault_seq[key] += 1
            if plan.fire("store.torn_write", key, attempt):
                # a torn write is *silent*: the writer thinks it
                # succeeded, and only a later read detects + quarantines
                data = data[: max(1, len(data) // 2)]
        tmp = (f"{self._tmp}/{key[:16]}-{os.getpid()}"
               f"-{threading.get_ident()}.tmp")
        try:
            try:
                f = open(tmp, "wb")
            except FileNotFoundError:
                # the directory went away under this handle
                os.makedirs(self._tmp, exist_ok=True)
                f = open(tmp, "wb")
            with f:
                if plan is not None and plan.fire("store.enospc", key, attempt):
                    raise OSError(errno.ENOSPC, "injected: no space left")
                f.write(data)
                f.flush()
                if plan is not None and plan.fire("store.eio", key, attempt):
                    raise OSError(errno.EIO, "injected: I/O error at fsync")
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            _unlink_missing_ok(tmp)
            raise

    def contains(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def total_bytes(self) -> int:
        return self._total

    def __len__(self) -> int:
        return len(self._index)

    # -- maintenance ----------------------------------------------------

    def _quarantine_blob(self, key: str) -> None:
        quarantine = self.root / "quarantine"
        quarantine.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        try:
            os.replace(path,
                       quarantine / f"{key}-{os.getpid()}-{time.time_ns()}")
        except OSError:
            _unlink_missing_ok(path)  # raced: someone else moved it

    def _evict_to(self, max_bytes: int, keep: str | None = None) -> None:
        """Delete least-recently-used blobs until total size fits (under
        the lock).

        ``keep`` (the blob just written) is never evicted: a single
        entry larger than the cap stays until something newer lands.
        """
        evicted = []
        total = self._total
        try:
            for key, size in self._index.items():
                if total <= max_bytes:
                    break
                if key == keep:
                    continue
                try:
                    # (a blob already gone is evicted all the same)
                    self._blob_path(key).unlink(missing_ok=True)
                except OSError as err:
                    # a blob we cannot unlink right now is not fatal to
                    # the cache: classify, log, count, and move on (a
                    # later eviction will reconcile it)
                    if classify_os_error(err) == "fatal":
                        raise
                    self.stats.evict_errors += 1
                    log_tolerated(f"store.evict {key[:16]}", err)
                    continue
                evicted.append(key)
                total -= size
        finally:
            for key in evicted:
                self._removed(key)
            self.stats.evictions += len(evicted)


def _read_file(path: str, chunk: int = 1 << 16) -> bytes:
    """A file's bytes: for a blob, one ``open``, ``read`` and ``close``
    (``open(path, "rb").read()`` adds ``fstat``, ``ioctl``, ``lseek``
    and a second ``read``, each a release of the GIL)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        parts = [os.read(fd, chunk)]
        while len(parts[-1]) == chunk:
            parts.append(os.read(fd, chunk))
    finally:
        os.close(fd)
    return b"".join(parts)


def _unlink_missing_ok(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
