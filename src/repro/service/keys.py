"""Canonical configuration identity: one definition of "same config".

Three consumers need to agree on when two compile/run requests denote
the same work:

* the sweep (resuming from the store must never reuse a result
  computed under different parameters),
* the content-addressed artifact store (a hit must be byte-equivalent
  to recomputing), and
* the job engine's single-flight table (duplicate in-flight requests
  collapse onto one computation).

They all go through this module.  The identity of a request is a plain
dict with **every field present** (defaults filled in, never omitted)
and all set-valued fields sorted, serialized as canonical JSON (sorted
keys, fixed separators), and hashed with SHA-256 together with:

* the *canonicalized kernel source* of the workload (the FORTRAN-style
  pretty-printing of its AST — so editing a workload's kernel
  invalidates its artifacts while renames of Python internals do not),
* the full machine description (latencies, slot limits, speculation
  flags — not just the issue width), and
* :data:`CODE_VERSION`, a salt bumped whenever the compiler or
  simulator changes observable output, which invalidates every stored
  artifact at once.
"""

from __future__ import annotations

import hashlib
import json

from ..frontend.pretty import kernel_str
from ..machine import MachineConfig, to_description
from ..sim import ENGINE_VERSION
from ..workloads import get_workload

#: Compiler-side salt component: bump when compiled output changes
#: (pass behavior, scheduling, lowering).
COMPILER_VERSION = "repro-2026.08-pm5"

#: Bump when compiled output or simulation semantics change: every
#: artifact keyed under the old salt becomes unreachable (and is lazily
#: invalidated by the store).  The simulator engine version is folded
#: in directly — an engine rewrite (e.g. the block-compiled trace/replay
#: core) cannot forget to invalidate cached run/result artifacts,
#: because the salt moves with it.
CODE_VERSION = f"{COMPILER_VERSION}+{ENGINE_VERSION}"

#: Request kinds with distinct result payloads (a compile artifact is
#: not a run result, so they get distinct keys even for one config):
#: ``compile`` = scheduled-code artifact, ``run`` = the service's
#: simulate+check payload, ``result`` = the sweep's full ConfigResult
#: (timings and per-pass stats included).
KINDS = ("compile", "run", "result")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def workload_fingerprint(workload: str) -> str:
    """SHA-256 of the workload's canonicalized kernel source.

    The pretty-printed FORTRAN-style source is the canonical form: it
    captures arrays/scalars/outputs and the loop-nest body, and is
    stable under refactors of the Python builder that produce the same
    kernel.
    """
    src = kernel_str(get_workload(workload).build())
    return hashlib.sha256(src.encode()).hexdigest()


def request_identity(
    kind: str,
    workload: str,
    level: int,
    width: int,
    *,
    seed: int = 0,
    check: bool = True,
    check_ir: bool = False,
    disable: tuple[str, ...] = (),
    machine: MachineConfig | None = None,
    schedule_backend: str = "list",
) -> dict:
    """The canonical identity dict of one request, defaults filled in.

    ``disable`` is deduplicated and sorted (PassOptions semantics: the
    disable *set* is what matters).  ``machine`` defaults to the paper
    machine at ``width``; passing an explicit config must agree with
    ``width``.  ``schedule_backend`` ("list" or "optimal") is always
    materialized so heuristic and exact-scheduled artifacts never share
    a key.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown request kind {kind!r} (known: {KINDS})")
    if schedule_backend not in ("list", "optimal"):
        raise ValueError(
            f"unknown schedule backend {schedule_backend!r}"
        )
    if machine is None:
        machine = MachineConfig(issue_width=int(width))
    elif machine.issue_width != int(width):
        raise ValueError(
            f"machine issue_width {machine.issue_width} != width {width}"
        )
    return {
        "kind": kind,
        "workload": str(workload),
        "level": int(level),
        "width": int(width),
        "seed": int(seed),
        "check": bool(check),
        "check_ir": bool(check_ir),
        "disable": sorted(set(disable)),
        "machine": to_description(machine),
        "schedule_backend": str(schedule_backend),
    }


def request_key(
    kind: str,
    workload: str,
    level: int,
    width: int,
    *,
    seed: int = 0,
    check: bool = True,
    check_ir: bool = False,
    disable: tuple[str, ...] = (),
    machine: MachineConfig | None = None,
    schedule_backend: str = "list",
    fingerprint: str | None = None,
) -> str:
    """Content address of a request's result: SHA-256 hex digest over the
    canonical identity, the kernel-source fingerprint, and the
    code-version salt.

    ``fingerprint`` can be supplied to avoid rebuilding the kernel when
    the caller loops over many configurations of one workload.
    """
    ident = request_identity(
        kind, workload, level, width, seed=seed, check=check,
        check_ir=check_ir, disable=disable, machine=machine,
        schedule_backend=schedule_backend,
    )
    if fingerprint is None:
        fingerprint = workload_fingerprint(workload)
    payload = {"salt": CODE_VERSION, "kernel": fingerprint, "request": ident}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

