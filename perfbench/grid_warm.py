"""``grid_warm``: the artifact store alone.  Phase A puts the whole
committed grid into an empty store under the keys ``run_sweep`` uses;
phase B runs sweeps that are answered from it, each on a fresh handle as
a new ``repro sweep --store`` process would open one.  No compile or
simulator layer runs, so no compiler change may move this workload —
and a store change that buys reads with slower writes shows in phase A.

Phase A's end-to-end number is user-mode CPU time per put, not wall.
The wall of a put is the sandbox's virtual disk and the state of its
filesystem's allocator: after a store has been deleted, creating the
next few thousand files costs up to twice the kernel time, so the wall
of the same 960 puts moves between 1.4 s and 2.5 s from one minute to
the next whatever the program does.  A number like that can carry no
bound.  The part the program owns — encoding the blob, rewriting the
whole index on every put — is user-mode time and repeats; the wall stays
visible as the per-layer ``store.put_s``.
"""

from __future__ import annotations

import random
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict

from repro.experiments.sweep import ConfigResult, run_sweep
from repro.pipeline import Level
from repro.service.keys import request_key, workload_fingerprint
from repro.service.store import ArtifactStore

from common import (
    DATA_SEED, WIDTHS, Rep, corpus, reference_rows, scratch_dir,
    start_timing,
)
from spans import NULL

NAME = "grid_warm"


def result_key(name: str, level: int, width: int, fingerprint: str) -> str:
    """The key ``run_sweep(store=...)`` files a cell's result under."""
    return request_key("result", name, level, width, seed=DATA_SEED,
                       check=True, check_ir=False, disable=(),
                       fingerprint=fingerprint)


@contextmanager
def prepare(profile, seed, scratch=None):
    ws = corpus(profile.corpus, seed)
    reference = reference_rows()
    blobs = []
    for w in ws:
        fp = workload_fingerprint(w.name)
        for level in Level:
            for width in WIDTHS:
                row = reference[(w.name, int(level), width)]
                blobs.append((result_key(w.name, int(level), width, fp), row))
    random.Random(seed).shuffle(blobs)
    with scratch_dir(scratch) as tmp:
        yield {"workloads": ws, "blobs": blobs, "dir": tmp / "store",
               "sweeps": profile.sweeps}


def measure(state, tracer=None) -> Rep:
    rep = Rep(NAME)
    tr = tracer if tracer is not None else NULL
    blobs, root = state["blobs"], state["dir"]
    written = {(row["workload"], row["level"], row["width"]): row
               for _, row in blobs}

    # phase A: first touch — populate an empty store.  Timed in user-mode
    # CPU seconds, not wall: see the module docstring
    store = ArtifactStore(root)
    t0 = start_timing()
    user0 = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    for key, row in blobs:
        with tr.span("store.put"):
            path = store.put(key, row)
        if path is None:
            rep.fail(f"put degraded for {row['workload']}")
    user_s = resource.getrusage(resource.RUSAGE_SELF).ru_utime - user0
    rep.wall_s += time.perf_counter() - t0
    rep.first["populate"] = [user_s]
    rep.first_ops["populate"] = len(blobs)
    rep.attempted += len(blobs)
    layers = {"store.puts": store.stats.puts,
              "store.put_retries": store.stats.put_retries,
              "store.bytes": store.total_bytes(),
              "store.hits": 0, "store.misses": 0}

    # phase B: steady — sweeps answered from the store
    for _ in range(state["sweeps"]):
        t0 = start_timing()
        if tracer is None:
            handle = ArtifactStore(root)
            data = run_sweep(state["workloads"], store=handle, jobs=1,
                             check=True, seed=DATA_SEED)
            got = {k: asdict(r) for k, r in data.results.items()}
            computed = data.computed
        else:
            handle, got, computed = _staged_read(tr, root, state["workloads"])
        rep.timed("steady", "sweep", len(written), time.perf_counter() - t0)
        rep.attempted += len(written)
        layers["store.hits"] += handle.stats.hits
        layers["store.misses"] += handle.stats.misses
        if computed:
            rep.fail(f"{computed} config(s) missed the store", computed)
        _check_sweep(rep, got, written)
    rep.model_cycles = sum(r["cycles"] for r in got.values())
    if tracer is not None:
        secs, on_path, _ = tr.self_seconds()
        layers.update({f"{n}_s": s for n, s in secs.items()})
        layers["trace.coverage"] = on_path / rep.wall_s
        rep.layers = layers
    return rep


def _check_sweep(rep: Rep, got: dict, written: dict) -> None:
    """Phase B must return exactly what phase A wrote."""
    for key, row in written.items():
        if got.get(key) != row:
            rep.fail(f"{key}: payload differs from what was put")


def _staged_read(tr, root, ws):
    """The store half of ``run_sweep`` with a span per layer call."""
    with tr.span("store.open"):
        handle = ArtifactStore(root)
    got = {}
    missed = 0
    for w in ws:
        with tr.span("keys.fingerprint"):
            fp = workload_fingerprint(w.name)
        for level in Level:
            for width in WIDTHS:
                with tr.span("keys.request_key"):
                    key = result_key(w.name, int(level), width, fp)
                with tr.span("store.get"):
                    payload = handle.get(key)
                if payload is None:
                    missed += 1
                else:
                    got[(w.name, int(level), width)] = asdict(
                        ConfigResult(**payload))
    return handle, got, missed
