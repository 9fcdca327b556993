"""CI smoke-sweep gate: what the artifact store pays per operation does
not depend on what it holds.  Counts, not clocks.

Usage: ``store_scaling.py DIR A,B,...`` after the smoke sweep filled
``DIR`` with the cells of workloads ``A,B,...``.  Populates scratch
stores of 100 and 1000 synthetic keys and checks that

* every put appends the same number of bytes to ``index.log``,
* opening either store makes the same, small number of ``stat`` calls
  and lists the same, small number of directories (the tmp directory:
  never the fan-out directories or the blobs),
* a store directory holds one ``index.log`` and no ``index.json``,
* a reopened handle indexes all 1000 keys,

and that the smoke sweep's own directory reopens with one index entry
per cell.
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.service.keys import LEVELS, WIDTHS               # noqa: E402
from repro.service.store import ArtifactStore               # noqa: E402


def populate(root: str, n: int) -> set[int]:
    """Put ``n`` equal-sized blobs; the distinct log growths per put."""
    store = ArtifactStore(root)
    log = os.path.join(root, "index.log")
    growth, size = set(), os.path.getsize(log)
    for i in range(n):
        key = hashlib.sha256(str(i).encode()).hexdigest()
        if store.put(key, {"i": i % 10, "pad": "x" * 40}) is None:
            raise SystemExit(f"FAIL: put {i} degraded")
        size, before = os.path.getsize(log), size
        growth.add(size - before)
    return growth


def calls_per_open(root: str) -> tuple[int, int, int]:
    """(``stat``/``lstat`` calls made by one open, directories it
    listed, entries it indexed)."""
    stats, listings = [], []
    real = {name: getattr(os, name)
            for name in ("stat", "lstat", "scandir", "listdir")}

    def counted(calls, fn):
        return lambda *a, **kw: calls.append(a) or fn(*a, **kw)

    for name, fn in real.items():
        setattr(os, name, counted(
            stats if name.endswith("stat") else listings, fn))
    try:
        entries = len(ArtifactStore(root))
    finally:
        for name, fn in real.items():
            setattr(os, name, fn)
    return len(stats), len(listings), entries


def main(smoke_dir: str, names: str) -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        opens = {}
        for n in (100, 1000):
            root = os.path.join(tmp, f"s{n}")
            growth = populate(root, n)
            if len(growth) != 1:
                bad.append(f"{n} puts grew index.log by {sorted(growth)} bytes")
            opens[n] = calls_per_open(root)
            if sorted(os.listdir(root)) != ["index.log", "objects"]:
                bad.append(f"store of {n} holds {sorted(os.listdir(root))}")
        (small, dirs_small, _), (big, dirs_big, indexed) = \
            opens[100], opens[1000]
        if not small == big <= 4:
            bad.append(f"stat calls per open: {small} at 100 keys, "
                       f"{big} at 1000")
        if not dirs_small == dirs_big <= 1:
            bad.append(f"directories listed per open: {dirs_small} at 100 "
                       f"keys, {dirs_big} at 1000")
        if indexed != 1000:
            bad.append(f"reopened handle indexes {indexed} of 1000 keys")
        print(f"index.log bytes per put {sorted(growth)}, stat calls per "
              f"open {small} / {big}, directories listed per open "
              f"{dirs_small} / {dirs_big}, reopened handle indexes {indexed}")
    cells = len(names.split(",")) * len(LEVELS) * len(WIDTHS)
    smoke = len(ArtifactStore(smoke_dir))
    print(f"{smoke_dir}: {smoke} indexed of {cells} cells")
    if smoke != cells:
        bad.append(f"smoke store indexes {smoke} entries for {cells} cells")
    for line in bad:
        print(f"FAIL: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
