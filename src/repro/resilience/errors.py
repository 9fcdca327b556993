"""Structured error taxonomy for the fault-tolerant paths.

Every I/O-adjacent failure in the sweep/store/service stack falls into
one of three classes, and the handling rule is uniform:

* **Transient** — the operation may succeed if retried (``ENOSPC`` after
  eviction, ``EIO`` on a flaky disk, ``EAGAIN``, a dropped connection).
  Retried under a :class:`~repro.resilience.retry.RetryPolicy`; if the
  budget runs out the caller degrades (e.g. a result is served but not
  persisted) instead of crashing.
* **Corrupt** — the data is damaged but the system is healthy (torn
  blob, undecodable index).  Quarantined/skipped and recomputed;
  never retried in place (rereading torn bytes cannot help).
* **Fatal** — a programming error or an unrecoverable environment
  problem (permission denied on the store root, read-only filesystem).
  Raised: masking it would silently corrupt hours of results.

The classifier below maps ``OSError`` values onto the taxonomy; the
store's eviction path and the job engine's admission/persist paths used
to treat *any* ``OSError`` as fatal — now only genuinely fatal ones
propagate, the rest are logged and counted.
"""

from __future__ import annotations

import errno
import os
import stat
import sys
import time
from pathlib import Path


class TransientError(Exception):
    """Retryable: the same operation may succeed shortly."""


class CorruptArtifact(Exception):
    """Damaged data: quarantine/skip and recompute, do not retry."""


class FatalError(Exception):
    """Unrecoverable: must propagate to the operator."""


#: errno values where retrying (possibly after eviction/backoff) is sane
TRANSIENT_ERRNOS = frozenset({
    errno.ENOSPC, errno.EDQUOT, errno.EIO, errno.EAGAIN, errno.EINTR,
    errno.EBUSY, errno.ETIMEDOUT, errno.EMFILE, errno.ENFILE,
    errno.ESTALE, errno.ECONNRESET, errno.ECONNREFUSED, errno.EPIPE,
})


def classify_os_error(exc: OSError) -> str:
    """``"transient"`` or ``"fatal"`` for an ``OSError``.

    ``ENOENT`` during cleanup/eviction is transient (another process
    already removed the file — the desired state holds); ``EACCES`` /
    ``EROFS`` / ``EPERM`` are fatal (retrying cannot fix permissions).
    """
    if exc.errno in TRANSIENT_ERRNOS or exc.errno == errno.ENOENT:
        return "transient"
    return "fatal"


def classify_exception(exc: BaseException) -> str:
    """Map any exception onto the taxonomy: ``transient`` | ``corrupt``
    | ``fatal``."""
    if isinstance(exc, TransientError):
        return "transient"
    if isinstance(exc, CorruptArtifact):
        return "corrupt"
    if isinstance(exc, FatalError):
        return "fatal"
    if isinstance(exc, OSError):
        return classify_os_error(exc)
    return "fatal"


def log_tolerated(where: str, exc: BaseException) -> None:
    """One-line stderr note for a classified-and-absorbed failure."""
    print(f"  [resilience] {where}: tolerated {classify_exception(exc)} "
          f"{exc!r}", file=sys.stderr)


# ---------------------------------------------------------------------------
# orphaned-tmp cleanup
# ---------------------------------------------------------------------------

#: a tmp file younger than this may belong to a live writer; leave it
DEFAULT_TMP_GRACE_S = 600.0


def clean_orphan_tmps(root: Path, grace_s: float = DEFAULT_TMP_GRACE_S,
                      recursive: bool = True, now: float | None = None) -> int:
    """Remove ``*.tmp`` droppings left by a writer that died between its
    tmp write and the atomic rename.

    Both the artifact store and the ``sweep.json`` export write via
    ``tmp + os.replace``; a crash in the window strands the tmp file
    forever (a new writer picks a fresh pid-stamped name).  Called when
    a store handle opens and before a sweep export is saved.  Only files
    older than ``grace_s`` go: a fresh tmp may be another live process
    mid-write.
    Returns the number of files removed; errors while removing are
    tolerated (another janitor may have won the race).
    """
    now = time.time() if now is None else now
    removed = 0
    # os.scandir, not ``root.glob("**/*.tmp")``: a store has 256 fan-out
    # directories and thousands of blobs, and only their names are needed
    pending = [os.fspath(root)]
    while pending:
        try:
            with os.scandir(pending.pop()) as scan:
                entries = list(scan)
        except OSError:
            continue  # missing or unreadable: nothing to clean there
        for entry in entries:
            try:
                if entry.is_dir(follow_symlinks=False):
                    if recursive:
                        pending.append(entry.path)
                    continue
                if not entry.name.endswith(".tmp"):
                    continue
                st = os.stat(entry.path)
                if not stat.S_ISREG(st.st_mode) \
                        or now - st.st_mtime < grace_s:
                    continue
                os.unlink(entry.path)
                removed += 1
            except OSError as e:
                if classify_os_error(e) == "fatal":
                    raise
    return removed
