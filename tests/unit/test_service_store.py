"""Failure-mode tests for the content-addressed artifact store.

A persistent cache layer is only safe if every way it can rot degrades
to a *miss* (recompute) rather than serving garbage: concurrent
writers, torn blobs, size-pressure eviction, and code-version changes
are each pinned here.
"""

import hashlib
import json
import multiprocessing
import os
import random

import pytest

from repro.service.keys import request_key
from repro.service.store import ArtifactStore


def key_of(n: int) -> str:
    return hashlib.sha256(str(n).encode()).hexdigest()


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_get(self, store):
        k = key_of(1)
        store.put(k, {"cycles": 42, "t_passes": {"b": 1.0, "a": 2.0}})
        got = store.get(k)
        assert got == {"cycles": 42, "t_passes": {"b": 1.0, "a": 2.0}}
        # insertion order round-trips (ConfigResult.t_passes records
        # pass execution order)
        assert list(got["t_passes"]) == ["b", "a"]
        assert store.stats.hits == 1 and store.stats.puts == 1

    def test_absent_is_miss(self, store):
        assert store.get(key_of(2)) is None
        assert store.stats.misses == 1

    def test_malformed_key_rejected(self, store):
        with pytest.raises(ValueError, match="malformed"):
            store.get("../../etc/passwd")
        with pytest.raises(ValueError, match="malformed"):
            store.put("abc", {})
        good = key_of(1)
        for bad in (good.upper(), good[:63], good + "0", good + "\n",
                    good[:63] + "g", good.encode(), 7, None):
            for call in (store.get, store.contains, store._blob_path,
                         lambda k: store.put(k, {})):
                with pytest.raises(ValueError, match="malformed"):
                    call(bad)
        assert not (store.root / "index.log").read_text()

    def test_real_request_keys_address_blobs(self, store):
        k = request_key("run", "add", 4, 8)
        store.put(k, {"cycles": 1})
        assert store.get(k) == {"cycles": 1}

    def test_reopen_sees_existing_blobs(self, tmp_path):
        a = ArtifactStore(tmp_path / "s")
        a.put(key_of(3), {"x": 1})
        b = ArtifactStore(tmp_path / "s")
        assert b.get(key_of(3)) == {"x": 1}
        assert len(b) == 1


class TestCorruptionTolerance:
    def _blob_path(self, store, key):
        return store._blob_path(key)

    def test_truncated_blob_is_miss_and_quarantined(self, store):
        k = key_of(4)
        p = store.put(k, {"cycles": 9})
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])  # torn mid-write
        assert store.get(k) is None
        assert store.stats.quarantined == 1
        assert not p.exists()  # moved aside, cannot poison later reads
        assert list((store.root / "quarantine").iterdir())
        # and a recompute can re-populate the same key
        store.put(k, {"cycles": 9})
        assert store.get(k) == {"cycles": 9}

    def test_garbage_bytes_are_miss(self, store):
        k = key_of(5)
        p = self._blob_path(store, k)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(b"\xfe\xffnot json")
        assert store.get(k) is None
        assert store.stats.quarantined == 1

    def test_wrong_key_blob_is_miss(self, store):
        """A blob whose header names a different key (e.g. a file
        copied to the wrong path) must not be served."""
        k1, k2 = key_of(6), key_of(7)
        p1 = store.put(k1, {"v": 1})
        p2 = self._blob_path(store, k2)
        p2.parent.mkdir(parents=True, exist_ok=True)
        p2.write_bytes(p1.read_bytes())
        assert store.get(k2) is None
        assert store.get(k1) == {"v": 1}

    def test_a_blob_is_a_header_line_then_the_payload_bytes(self, store):
        k = key_of(8)
        payload = {"cycles": 42, "t_passes": {"b": 1.0, "a": 2.0}}
        data = json.dumps(payload).encode()
        blob = store.put(k, payload).read_bytes()
        assert blob == (f"{store.salt} {k} {len(data)} "
                        f"{hashlib.sha256(data).hexdigest()}\n").encode() + data
        assert store.get_raw(k) == data
        assert store.stats.hits == 1

    @staticmethod
    def _damage(store, k, how):
        p = store._blob_path(k)
        blob = p.read_bytes()
        if how == "truncated":
            p.write_bytes(blob[:-7])
        elif how == "bit-flip":
            flipped = bytearray(blob)
            flipped[-3] ^= 0x01                 # same length, one bit
            p.write_bytes(bytes(flipped))
        elif how == "wrong-key":
            ArtifactStore(store.root).put(key_of(99), {"v": 1})
            p.write_bytes(store._blob_path(key_of(99)).read_bytes())
        elif how == "other-salt":
            ArtifactStore(store.root, salt="code-v0").put(k, {"v": 1})
        elif how == "legacy-envelope":
            # what the store wrote before the header layout
            p.write_text(json.dumps({"salt": store.salt, "key": k,
                                     "payload": {"v": 1}}))
        return p

    @pytest.mark.parametrize("how,fate", [
        ("truncated", "quarantined"), ("bit-flip", "quarantined"),
        ("wrong-key", "quarantined"), ("other-salt", "invalidated"),
        ("legacy-envelope", "invalidated")])
    def test_each_damage_has_its_disposition(self, store, how, fate):
        k = key_of(9)
        store.put(k, {"v": 1})
        p = self._damage(store, k, how)
        assert store.get_raw(k) is None
        assert (store.stats.quarantined, store.stats.invalidated) == (
            (1, 0) if fate == "quarantined" else (0, 1))
        assert store.stats.misses == 1 and not p.exists()
        assert len(list((store.root / "quarantine").glob("*"))) == (
            fate == "quarantined")
        # and the recompute lands and is served
        store.put(k, {"v": 1})
        assert store.get(k) == {"v": 1}

    def test_torn_index_rebuilt_from_scan(self, tmp_path):
        a = ArtifactStore(tmp_path / "s")
        a.put(key_of(9), {"v": 1})
        a.put(key_of(10), {"v": 2})
        # garbage in the middle of the log (a torn *last* line is only
        # skipped: TestIndexLog) throws the whole log away
        log = tmp_path / "s" / "index.log"
        first, second = log.read_text().splitlines()
        log.write_text(f"{first}\n{{\"entries\": {{zzz\n{second}\n")
        os.utime(a._blob_path(key_of(9)), (2000.0, 2000.0))
        os.utime(a._blob_path(key_of(10)), (1000.0, 1000.0))
        b = ArtifactStore(tmp_path / "s")
        assert len(b) == 2
        assert b.get(key_of(9)) == {"v": 1}
        # rewritten whole, in the scan's mtime order
        assert log.read_text() == f"{second}\n{first}\n"


class TestVersionSalt:
    def test_salt_mismatch_is_miss_and_invalidates(self, tmp_path):
        old = ArtifactStore(tmp_path / "s", salt="code-v1")
        k = key_of(11)
        p = old.put(k, {"cycles": 7})
        new = ArtifactStore(tmp_path / "s", salt="code-v2")
        assert new.get(k) is None
        assert new.stats.invalidated == 1
        assert not p.exists()  # stale blob deleted, not quarantined
        assert new.stats.quarantined == 0
        new.put(k, {"cycles": 8})
        assert new.get(k) == {"cycles": 8}

    def test_default_salt_is_code_version(self, store):
        from repro.service.keys import CODE_VERSION

        assert store.salt == CODE_VERSION


class TestEviction:
    def test_size_cap_evicts_lru(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", max_bytes=1)
        pad = "x" * 200
        store.put(key_of(20), {"pad": pad})
        store.put(key_of(21), {"pad": pad})
        # cap of 1 byte: every insert evicts the previous entry
        assert store.get(key_of(20)) is None
        assert store.get(key_of(21)) == {"pad": pad}
        assert store.stats.evictions >= 1

    def test_reads_refresh_recency(self, tmp_path):
        import time

        # each blob is ~3.1KB with its header: two fit, three do not
        store = ArtifactStore(tmp_path / "s", max_bytes=7_000)
        pad = "x" * 3000
        store.put(key_of(30), {"pad": pad})
        time.sleep(0.01)
        store.put(key_of(31), {"pad": pad})
        time.sleep(0.01)
        assert store.get(key_of(30)) is not None  # 30 now most recent
        time.sleep(0.01)
        store.put(key_of(32), {"pad": pad})  # pushes size past the cap
        assert store.get(key_of(31)) is None  # 31 was least recently used
        assert store.get(key_of(30)) is not None
        assert store.get(key_of(32)) is not None

    def test_unbounded_store_never_evicts(self, store):
        for i in range(40, 60):
            store.put(key_of(i), {"i": i})
        assert len(store) == 20
        assert store.stats.evictions == 0
        assert store.total_bytes() > 0


def _writer(root, key, tag, n):
    s = ArtifactStore(root)
    for i in range(n):
        s.put(key, {"tag": tag, "i": i, "cycles": 123})


class TestConcurrentWriters:
    def test_two_processes_same_key(self, tmp_path):
        """Two processes hammering the same key: atomic tmp+rename means a
        reader always sees one writer's complete blob, never a torn mix."""
        root = tmp_path / "s"
        ArtifactStore(root)  # create layout up front
        k = key_of(70)
        ctx = multiprocessing.get_context("fork")
        ps = [ctx.Process(target=_writer, args=(root, k, tag, 25))
              for tag in ("a", "b")]
        for p in ps:
            p.start()
        for p in ps:
            p.join()
        assert all(p.exitcode == 0 for p in ps)
        got = ArtifactStore(root).get(k)
        assert got is not None and got["cycles"] == 123
        assert got["tag"] in ("a", "b") and got["i"] == 24

    def test_concurrent_distinct_keys_all_readable(self, tmp_path):
        root = tmp_path / "s"
        ArtifactStore(root)
        ctx = multiprocessing.get_context("fork")
        ps = [ctx.Process(target=_writer, args=(root, key_of(80 + j), str(j), 5))
              for j in range(4)]
        for p in ps:
            p.start()
        for p in ps:
            p.join()
        reader = ArtifactStore(root)
        for j in range(4):
            got = reader.get(key_of(80 + j))
            assert got == {"tag": str(j), "i": 4, "cycles": 123}


def _distinct_writer(root, base, n):
    s = ArtifactStore(root)
    for i in range(n):
        s.put(key_of(base + i), {"i": i, "pad": "x" * 64})


class TestSharedDirectory:
    """Handles on one directory do not lose each other's index entries:
    an event is one ``O_APPEND`` line, not a rewrite of one handle's
    view.  (An unindexed blob would be invisible to the size cap.)"""

    def _assert_all_evictable(self, root, keys):
        fresh = ArtifactStore(root, max_bytes=1)
        assert len(fresh) == len(keys)
        paths = [fresh._blob_path(k) for k in keys]
        assert all(p.exists() for p in paths)
        fresh.put(key_of(999), {"v": 0})
        assert fresh.stats.evictions == len(keys)
        assert not any(p.exists() for p in paths)

    def test_two_handles_both_indexed(self, tmp_path):
        root = tmp_path / "s"
        a, b = ArtifactStore(root), ArtifactStore(root)
        a.put(key_of(60), {"v": 1})
        b.put(key_of(61), {"v": 2})
        a.put(key_of(62), {"v": 3})
        self._assert_all_evictable(root, [key_of(i) for i in (60, 61, 62)])

    def test_forked_writers_of_distinct_keys_all_indexed(self, tmp_path):
        root = tmp_path / "s"
        ArtifactStore(root)
        ctx = multiprocessing.get_context("fork")
        ps = [ctx.Process(target=_distinct_writer, args=(root, 100 * j, 20))
              for j in (1, 2, 3)]
        for p in ps:
            p.start()
        for p in ps:
            p.join(60)
        assert all(not p.is_alive() and p.exitcode == 0 for p in ps)
        self._assert_all_evictable(
            root, [key_of(100 * j + i) for j in (1, 2, 3) for i in range(20)])


class TestIndexLog:
    """``index.log``: one appended line per event, line order is
    recency, and nothing about it costs in proportion to the store."""

    @pytest.fixture(scope="class")
    def thousand(self, tmp_path_factory):
        """A 1000-entry store and the log's size after each put."""
        root = tmp_path_factory.mktemp("thousand") / "s"
        store = ArtifactStore(root)
        sizes = []
        for i in range(1000):
            store.put(key_of(i), {"i": i % 10, "pad": "x" * 40})
            sizes.append((root / "index.log").stat().st_size)
        return root, sizes

    def test_a_put_appends_one_line_whatever_the_store_holds(self, thousand):
        root, sizes = thousand
        line = len(f"{key_of(0)} {ArtifactStore(root).total_bytes() // 1000}\n")
        assert sizes[9] - sizes[8] == sizes[999] - sizes[998] == line
        assert sizes[999] == 1000 * line
        assert sorted(p.name for p in root.iterdir()) == ["index.log",
                                                         "objects"]

    def test_open_stats_no_blob(self, thousand, tmp_path, monkeypatch):
        hundred = tmp_path / "s"
        small = ArtifactStore(hundred)
        for i in range(100):
            small.put(key_of(i), {"i": i})
        calls = []
        for name in ("stat", "lstat"):
            real = getattr(os, name)
            monkeypatch.setattr(
                os, name,
                lambda *a, _real=real, **kw: calls.append(a) or _real(*a, **kw))
        counts = []
        for root, n in ((hundred, 100), (thousand[0], 1000)):
            del calls[:]
            assert len(ArtifactStore(root)) == n
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 4, counts

    def test_torn_last_line_is_skipped(self, tmp_path):
        root = tmp_path / "s"
        a = ArtifactStore(root)
        for i in (1, 2, 3):
            a.put(key_of(i), {"v": i})
        log = root / "index.log"
        whole = log.read_text()
        # the tail of a line that would have parsed on its own
        log.write_text(whole + f"{key_of(1)} 7")
        b = ArtifactStore(root)
        assert list(b._index) == [key_of(1), key_of(2), key_of(3)]
        assert b.total_bytes() == a.total_bytes()
        # and the tail is gone, so the next append starts a line
        assert log.read_text() == whole
        b.put(key_of(4), {"v": 4})
        assert len(ArtifactStore(root)) == 4

    def test_compaction_keeps_order_and_halves_the_file(self, tmp_path):
        root = tmp_path / "s"
        a = ArtifactStore(root)
        for i in (1, 2, 3):
            a.put(key_of(i), {"v": i})
        size = a._index[key_of(1)]
        log = root / "index.log"
        # the history three handles leave that each read key 1 and then
        # put key 2 (one handle compacts its own: test below)
        with log.open("a") as f:
            f.write(f"{key_of(1)} {size}\n{key_of(2)} {size}\n" * 3)
        order = [key_of(3), key_of(1), key_of(2)]
        before = log.read_text()
        assert len(before.splitlines()) == 9    # > 2 x 3 live keys
        b = ArtifactStore(root)
        after = log.read_text()
        assert [ln.split()[0] for ln in after.splitlines()] == order
        assert list(b._index) == order and b.total_bytes() == a.total_bytes()
        assert 2 * len(after) <= len(before)
        # at twice the live keys or fewer, the log is left alone
        b.put(key_of(3), {"v": 3})
        grown = log.read_text()
        ArtifactStore(root)
        assert log.read_text() == grown and len(grown.splitlines()) == 4

    def test_a_long_lived_handle_compacts_its_own_log(self, tmp_path,
                                                      monkeypatch):
        """10 000 hit/put cycles on one handle: every cycle appends two
        lines, and the handle compacts the log once it holds more than
        twice as many lines as live keys, as an open would."""
        monkeypatch.setattr(os, "fsync", lambda fd: None)  # not under test
        root = tmp_path / "s"
        store = ArtifactStore(root)
        live = 8
        for i in range(live):
            store.put(key_of(i), {"v": i})
        log = root / "index.log"
        longest = 0
        for i in range(10_000):
            assert store.get(key_of(i % live)) is not None
            store.put(key_of((i + 3) % live), {"v": (i + 3) % live})
            longest = max(longest, log.read_bytes().count(b"\n"))
        assert longest <= 2 * live + 1
        assert list(ArtifactStore(root)._index) == list(store._index)

    def test_compaction_keeps_another_handles_events(self, tmp_path):
        root = tmp_path / "s"
        a, b = ArtifactStore(root), ArtifactStore(root)
        a.put(key_of(1), {"v": 1})
        b.put(key_of(2), {"v": 2})              # a has not seen this one
        for _ in range(3):
            assert a.get(key_of(1)) is not None
            a.put(key_of(3), {"v": 3})          # the third one compacts
        lines = (root / "index.log").read_text().splitlines()
        assert [ln.split()[0] for ln in lines] == [key_of(2), key_of(1),
                                                   key_of(3)]
        assert list(a._index) == [key_of(2), key_of(1), key_of(3)]

    def test_removals_are_logged(self, tmp_path):
        root = tmp_path / "s"
        a = ArtifactStore(root)
        a.put(key_of(1), {"v": 1})
        a.max_bytes = 2 * a.total_bytes()       # room for two blobs
        a.put(key_of(2), {"v": 2})
        a.put(key_of(3), {"v": 3})              # evicts 1
        lines = (root / "index.log").read_text().splitlines()
        assert lines[-1] == f"{key_of(1)} -"
        assert list(ArtifactStore(root)._index) == [key_of(2), key_of(3)]

    def test_a_reader_writes_nothing(self, tmp_path):
        root = tmp_path / "s"
        ArtifactStore(root).put(key_of(1), {"v": 1})
        before = (root / "index.log").read_bytes()
        stamp = (root / "index.log").stat().st_mtime_ns
        reader = ArtifactStore(root)
        assert reader.get(key_of(1)) == {"v": 1}
        assert reader.get(key_of(2)) is None
        assert (root / "index.log").read_bytes() == before
        assert (root / "index.log").stat().st_mtime_ns == stamp

    def test_blob_removed_behind_the_handle(self, tmp_path):
        """Open no longer verifies blobs; one that vanished is dropped
        where it is noticed — a miss at ``get``, a no-op at eviction."""
        root = tmp_path / "s"
        pad = "x" * 500
        writer = ArtifactStore(root)
        for i in range(1, 6):
            writer.put(key_of(i), {"pad": pad})
        each = writer.total_bytes() // 5
        writer._blob_path(key_of(1)).unlink()
        writer._blob_path(key_of(3)).unlink()

        s = ArtifactStore(root, max_bytes=3 * each)
        assert len(s) == 5                      # not verified at open
        assert s.get(key_of(3)) is None         # noticed: a plain miss
        assert s.stats.misses == 1 and s.stats.quarantined == 0
        assert len(s) == 4 and s.total_bytes() == 4 * each
        s.put(key_of(6), {"pad": pad})          # evicts 1 (gone) and 2
        assert s.stats.evict_errors == 0
        on_disk = sorted(p.stem for p in (root / "objects").glob("??/*.json"))
        assert on_disk == sorted(s._index) == sorted(
            key_of(i) for i in (4, 5, 6))
        assert s.total_bytes() == 3 * each == sum(
            s._blob_path(k).stat().st_size for k in s._index)

    def test_eviction_order_matches_the_use_counter_reference(self, tmp_path):
        """The store this replaced stamped every use with a counter and
        evicted in ``sorted(..., key=used)`` order; position in the
        recency dict must pick the same victims on a random trace."""
        rng = random.Random(23)
        store = ArtifactStore(tmp_path / "s", max_bytes=4_000)
        ref: dict[str, list[int]] = {}          # key -> [size, used]
        clock = 0

        def ref_evict(cap, keep=None):
            total = sum(size for size, _ in ref.values())
            for k, (size, _) in sorted(ref.items(), key=lambda kv: kv[1][1]):
                if total <= cap:
                    break
                if k != keep:
                    del ref[k]
                    total -= size

        for _ in range(200):
            k = key_of(rng.randrange(24))
            op = rng.random()
            clock += 1
            if op < 0.5:
                path = store.put(k, {"pad": "x" * rng.randrange(100, 900)})
                ref[k] = [path.stat().st_size, clock]
                ref_evict(store.max_bytes, keep=k)
            elif op < 0.9:
                assert (store.get(k) is not None) == (k in ref)
                if k in ref:
                    ref[k][1] = clock
            else:
                cap = rng.randrange(1_000, 4_000)
                store._evict_to(cap)
                ref_evict(cap)
            assert list(store._index) == sorted(ref, key=lambda k: ref[k][1])
            assert store.total_bytes() == sum(size for size, _ in ref.values())
        assert store.stats.evictions > 20
        # and the log replays to the same order
        store.put(key_of(99), {"pad": ""})
        assert list(ArtifactStore(tmp_path / "s")._index) == list(store._index)


class TestStoreResilience:
    """Classified write failures: retry, then degrade; never a wrong read."""

    def _armed(self, site, fires=1):
        from repro.resilience.faults import FaultPlan, FaultSite, armed

        return armed(FaultPlan(seed=0,
                               sites=(FaultSite(site, rate=1.0, fires=fires),)))

    def test_enospc_is_retried_and_the_put_lands(self, store):
        k = key_of(90)
        with self._armed("store.enospc"):
            assert store.put(k, {"v": 1}) is not None
        assert store.stats.put_retries == 1
        assert store.stats.put_failures == 0
        assert store.get(k) == {"v": 1}

    def test_eio_at_fsync_is_retried_and_the_put_lands(self, store):
        k = key_of(91)
        with self._armed("store.eio"):
            assert store.put(k, {"v": 2}) is not None
        assert store.stats.put_retries == 1
        assert store.get(k) == {"v": 2}

    def test_persistent_write_failure_degrades_instead_of_raising(self, store):
        # fires exceeds the put retry schedule: the put gives up quietly
        k = key_of(92)
        with self._armed("store.enospc", fires=99):
            assert store.put(k, {"v": 3}) is None
        assert store.stats.put_failures == 1
        assert store.get(k) is None          # a miss, not an error
        # no tmp droppings left behind by the failed attempts
        assert not list(store.root.glob("**/*.tmp"))

    def test_torn_write_is_detected_quarantined_and_recomputable(self, store):
        k = key_of(93)
        with self._armed("store.torn_write"):
            store.put(k, {"v": 4, "pad": "x" * 256})
            assert store.get(k) is None      # torn: miss + quarantine
            assert store.stats.quarantined == 1
            # the "recompute" writes again: attempt 1 is past the fault
            store.put(k, {"v": 4, "pad": "x" * 256})
            assert store.get(k) == {"v": 4, "pad": "x" * 256}

    def test_fatal_write_error_raises(self, store, monkeypatch):
        import errno as _errno

        def denied(self, *a, **kw):
            raise OSError(_errno.EACCES, "permission denied")

        monkeypatch.setattr(ArtifactStore, "_write_blob", denied)
        with pytest.raises(OSError):
            store.put(key_of(94), {"v": 5})

    def test_transient_eviction_error_is_absorbed(self, store, monkeypatch):
        import errno as _errno
        import pathlib

        store.max_bytes = 1  # force eviction on the next put
        store.put(key_of(95), {"v": "a" * 64})
        real_unlink = pathlib.Path.unlink

        def busy(self, *a, **kw):
            if self.suffix == ".json" and "objects" in self.parts:
                raise OSError(_errno.EBUSY, "busy")
            return real_unlink(self, *a, **kw)

        monkeypatch.setattr(pathlib.Path, "unlink", busy)
        store.put(key_of(96), {"v": "b" * 64})   # evicts -> EBUSY absorbed
        assert store.stats.evict_errors >= 1

    def test_orphaned_tmps_cleaned_on_open(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        ArtifactStore(root).put(key_of(1), {"v": 1})
        tmp = root / "objects" / "tmp"
        dead = tmp / "abcd-999-1.tmp"
        dead.write_text("torn half-write")
        os.utime(dead, (1.0, 1.0))
        fresh = tmp / "ef01-998-1.tmp"
        fresh.write_text("maybe live")
        listed = []
        real = os.scandir
        monkeypatch.setattr(os, "scandir", lambda path=".": (
            listed.append(str(path)) or real(path)))
        s = ArtifactStore(root)
        monkeypatch.undo()
        assert s.stats.tmp_cleaned == 1
        assert not dead.exists()
        assert fresh.exists()
        # an open lists the tmp directory and nothing else
        assert listed == [str(tmp)]
        assert s.get(key_of(1)) == {"v": 1}

    def test_writes_go_through_the_tmp_directory(self, store, monkeypatch):
        renamed = []
        real = os.replace
        monkeypatch.setattr(os, "replace",
                            lambda a, b: renamed.append((a, b)) or real(a, b))
        store.put(key_of(3), {"v": 3})
        store._write_log()
        tmp = store.root / "objects" / "tmp"
        assert [os.path.dirname(a) for a, _ in renamed] == [str(tmp)] * 2
        assert os.listdir(tmp) == []

    def test_a_put_recreates_a_removed_tmp_directory(self, store):
        os.rmdir(store.root / "objects" / "tmp")
        assert store.put(key_of(4), {"v": 4}) is not None
        assert store.get(key_of(4)) == {"v": 4}

    def test_a_store_written_before_the_tmp_directory(self, tmp_path):
        """The earlier layout: no ``objects/tmp/``, and a dead writer's
        tmp file beside the blobs of its fan-out directory and beside
        the log.  It opens, serves every blob, and a normal open leaves
        those orphans alone (it lists no fan-out directory); a rebuild
        of the index, which scans ``objects/``, removes them."""
        root = tmp_path / "old"
        writer = ArtifactStore(root)
        keys = [key_of(n) for n in range(40)]
        for n, k in enumerate(keys):
            writer.put(k, {"n": n})
        os.rmdir(root / "objects" / "tmp")
        orphans = [root / "objects" / keys[0][:2] / f".{keys[0][:16]}-9-9.tmp",
                   root / "index.log.9.tmp"]
        for orphan in orphans:
            orphan.write_text("half")
            os.utime(orphan, (1.0, 1.0))
        reader = ArtifactStore(root)
        assert len(reader) == 40
        assert [reader.get(k) for k in keys] == [{"n": n} for n in range(40)]
        assert reader.stats.hits == 40 and reader.stats.misses == 0
        assert all(orphan.exists() for orphan in orphans)
        (root / "index.log").unlink()
        rebuilt = ArtifactStore(root)
        assert rebuilt.stats.tmp_cleaned == 2
        assert not any(orphan.exists() for orphan in orphans)
        assert [rebuilt.get(k) for k in keys] == [{"n": n} for n in range(40)]


    def test_a_store_that_cannot_make_its_tmp_directory_still_serves(
            self, tmp_path, monkeypatch):
        """A store in the earlier layout (no ``objects/tmp/``) that this
        process cannot write, as on a read-only mount: it opens and
        serves every hit."""
        import errno

        root = tmp_path / "ro"
        writer = ArtifactStore(root)
        keys = [key_of(n) for n in range(10)]
        for n, k in enumerate(keys):
            writer.put(k, {"n": n})
        os.rmdir(root / "objects" / "tmp")
        tmp = str(root / "objects" / "tmp")
        real = os.makedirs

        def read_only(path, *args, **kwargs):
            if os.fspath(path) == tmp:
                raise OSError(errno.EROFS, "Read-only file system", tmp)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", read_only)
        reader = ArtifactStore(root)
        assert [reader.get(k) for k in keys] == [{"n": n} for n in range(10)]
        assert reader.stats.hits == 10 and reader.stats.misses == 0

class TestClockCorrectness:
    """LRU recency is a logical-use counter, never a wall-clock stamp.

    Regression: recency used to be ``time.time()``; a backwards clock
    step (NTP correction, manual reset) between a put and a refreshing
    read stamped the *hottest* blob as the oldest and evicted it first.
    """

    def test_recency_survives_a_backwards_wall_clock(self, tmp_path,
                                                     monkeypatch):
        import time as time_mod

        t = [1_000_000_000.0]

        def backwards():
            t[0] -= 100.0  # the wall clock is stepping backwards
            return t[0]

        monkeypatch.setattr(time_mod, "time", backwards)
        store = ArtifactStore(tmp_path / "s", max_bytes=7_000)
        pad = "x" * 3000  # ~3.1KB with its header: two fit, three do not
        store.put(key_of(70), {"pad": pad})
        store.put(key_of(71), {"pad": pad})
        assert store.get(key_of(70)) is not None  # 70 now most recent
        store.put(key_of(72), {"pad": pad})       # pushes past the cap
        # under wall-clock recency the refreshed 70 would carry the
        # *oldest* stamp and be evicted; the logical counter keeps it
        assert store.get(key_of(71)) is None
        assert store.get(key_of(70)) is not None
        assert store.get(key_of(72)) is not None

    def test_use_counter_persists_across_reopen(self, tmp_path):
        # the counter is position in ``index.log``: a read is logged
        # with the handle's next put
        pad = "x" * 3000  # ~3.1KB with its header: three fit, four do not
        store = ArtifactStore(tmp_path / "s", max_bytes=10_500)
        store.put(key_of(73), {"pad": pad})
        store.put(key_of(74), {"pad": pad})
        assert store.get(key_of(73)) is not None  # 74 is now the LRU
        store.put(key_of(75), {"pad": pad})       # persists the index

        reopened = ArtifactStore(tmp_path / "s", max_bytes=10_500)
        reopened.put(key_of(79), {"pad": pad})    # past the cap: evict LRU
        assert reopened.get(key_of(74)) is None
        assert reopened.get(key_of(73)) is not None
        assert reopened.get(key_of(75)) is not None

    def test_legacy_wall_clock_index_loads_as_rank(self, tmp_path):
        """A store directory written before the recency log has an
        ``index.json`` whose ``used`` fields are logical counters or,
        older still, wall-clock floats; either way they are read once,
        as an *order*, into the log, and the file is gone."""
        pad = "x" * 3000
        store = ArtifactStore(tmp_path / "s", max_bytes=7_000)
        store.put(key_of(76), {"pad": pad})
        store.put(key_of(77), {"pad": pad})
        # the directory as the old code would have left it: wall-clock
        # stamps, with 77 older than 76, and no log
        size = store.total_bytes() // 2
        (tmp_path / "s" / "index.log").unlink()
        (tmp_path / "s" / "index.json").write_text(json.dumps({"entries": {
            key_of(76): {"size": size, "used": 1_700_000_000.75},
            key_of(77): {"size": size, "used": 1_600_000_000.25},
        }}))

        reopened = ArtifactStore(tmp_path / "s", max_bytes=7_000)
        assert not (tmp_path / "s" / "index.json").exists()
        assert (tmp_path / "s" / "index.log").read_text() == (
            f"{key_of(77)} {size}\n{key_of(76)} {size}\n")
        reopened.put(key_of(78), {"pad": pad})
        assert reopened.get(key_of(77)) is None   # oldest by float order
        assert reopened.get(key_of(76)) is not None

    def test_scan_rebuild_ranks_deterministically_by_mtime(self, tmp_path):
        import os as _os

        pad = "x" * 3000
        store = ArtifactStore(tmp_path / "s", max_bytes=None)
        for i in (80, 81, 82):
            store.put(key_of(i), {"pad": pad})
        (tmp_path / "s" / "index.log").unlink()
        # make 81 the stale one on disk, regardless of write order
        for i, mtime in ((80, 3000.0), (81, 1000.0), (82, 2000.0)):
            p = store._blob_path(key_of(i))
            _os.utime(p, (mtime, mtime))

        rebuilt = ArtifactStore(tmp_path / "s", max_bytes=7_000)
        assert list(rebuilt._index) == [key_of(81), key_of(82), key_of(80)]
        rebuilt.put(key_of(83), {"pad": pad})
        assert rebuilt.get(key_of(81)) is None
        assert rebuilt.get(key_of(80)) is not None
