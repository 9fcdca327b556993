"""Canonical configuration identity: one definition of "same config".

Three consumers need to agree on when two compile/run requests denote
the same work:

* the sweep (resuming from the store must never reuse a result
  computed under different parameters),
* the content-addressed artifact store (a hit must be byte-equivalent
  to recomputing), and
* the job engine's single-flight table (duplicate in-flight requests
  collapse onto one computation).

They all go through this module, and so does every hop of the serving
path: a request is a :class:`CellRequest` (a sweep a
:class:`SweepRequest`), built and validated exactly once where it
enters the process — from a JSON body by ``from_body``, from Python by
the constructor — and passed around as a value that carries its own
``.key``.  Nothing outside this module assembles key fields by hand.

The identity of a request is a plain dict with **every field present** (defaults filled in, never omitted)
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

import functools
import hashlib
import json
from dataclasses import dataclass, field, fields

from ..frontend.pretty import kernel_str
from ..machine import MachineConfig, to_description
from ..pipeline import Level
from ..sim import ENGINE_VERSION
from ..workloads import get_workload

#: Compiler-side salt component: bump when compiled output changes
#: (pass behavior, scheduling, lowering).
COMPILER_VERSION = "repro-2026.10-pm6"

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

#: the grid axes: every transformation level, the paper's issue widths
#: (a sweep's defaults, and the only widths the HTTP boundary accepts)
LEVELS = tuple(int(lv) for lv in Level)
WIDTHS = (1, 2, 4, 8)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _content_text(fields: dict) -> str:
    """The canonical text :func:`content_key` hashes."""
    return canonical_json({"salt": CODE_VERSION, **fields})


def content_key(**fields) -> str:
    """SHA-256 content address of a computation's identity ``fields``
    under the :data:`CODE_VERSION` salt — the one digest every key of
    the artifact store is made with (request keys here, exact-solver
    keys in :mod:`repro.optsched`)."""
    return hashlib.sha256(_content_text(fields).encode()).hexdigest()


@functools.lru_cache(maxsize=256)
def workload_fingerprint(workload: str) -> str:
    """SHA-256 of the workload's canonicalized kernel source.

    The pretty-printed FORTRAN-style source is the canonical form: it
    captures arrays/scalars/outputs and the loop-nest body, and is
    stable under refactors of the Python builder that produce the same
    kernel.  Cached process-wide: a fingerprint is pure in the workload
    name within one process (``CODE_VERSION`` salts actual code
    changes), so no request rebuilds the kernel to be routed or looked
    up.  Unknown names raise ``KeyError`` (and are not cached).
    """
    src = kernel_str(get_workload(workload).build())
    return hashlib.sha256(src.encode()).hexdigest()


def _checked_machine(kind: str, width: int,
                     machine: MachineConfig | None) -> MachineConfig:
    """The machine a request names (the paper machine at ``width`` by
    default), after the checks identity and key share."""
    if kind not in KINDS:
        raise ValueError(f"unknown request kind {kind!r} (known: {KINDS})")
    if machine is None:
        return MachineConfig(issue_width=int(width))
    if machine.issue_width != int(width):
        raise ValueError(
            f"machine issue_width {machine.issue_width} != width {width}"
        )
    return machine


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
) -> dict:
    """The canonical identity dict of one request, defaults filled in.

    ``disable`` is deduplicated and sorted (PassOptions semantics: the
    disable *set* is what matters).  ``machine`` defaults to the paper
    machine at ``width``; passing an explicit config must agree with
    ``width``.
    """
    machine = _checked_machine(kind, width, machine)
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
    }


#: canonical JSON of a machine description by ``cache_key()`` — a
#: bounded, value-keyed process memo (oldest entry goes first) for the
#: explicit machines a caller names; the paper machine of a width is
#: :func:`_paper_machine_json`'s
_MACHINE_JSON: dict[tuple, str] = {}
_MACHINE_JSON_LIMIT = 64


def _machine_json(machine: MachineConfig) -> str:
    key = machine.cache_key()
    text = _MACHINE_JSON.get(key)
    if text is None:
        if len(_MACHINE_JSON) >= _MACHINE_JSON_LIMIT:
            del _MACHINE_JSON[next(iter(_MACHINE_JSON))]
        text = _MACHINE_JSON[key] = canonical_json(to_description(machine))
    return text


@functools.lru_cache(maxsize=64)
def _paper_machine_json(width: int) -> str:
    """Canonical JSON of the paper machine at ``width``: one
    ``MachineConfig`` per width and process, not one per key."""
    return canonical_json(to_description(MachineConfig(issue_width=width)))


#: the identity fields that differ between the keys of one template, in
#: the order :meth:`_KeyTemplate.digest` takes their canonical JSON
_HOLES = ("kernel", "workload", "level", "width", "machine")


class _KeyTemplate:
    """The canonical text of every request key that shares one set of
    options (kind, seed, check, check_ir, disable), cut at a hole for
    each field that varies per cell.

    The text is ``content_key``'s own, of ``request_identity``'s dict,
    made once with a marker string in each hole, so a key filled in here
    is byte-identical to ``content_key(kernel=..., request=
    request_identity(...))``; filling one in is a join and a SHA-256.
    Options whose JSON contains a marker (only a ``disable`` entry that
    names no pass could, and every request validates its ``disable``)
    are a ``ValueError``."""

    def __init__(self, kind: str, seed: int, check: bool, check_ir: bool,
                 disable: tuple[str, ...]):
        marks = {name: f"\0{name}" for name in _HOLES}
        ident = request_identity(kind, marks["workload"], 0, 0, seed=seed,
                                 check=check, check_ir=check_ir,
                                 disable=disable)
        ident.update(level=marks["level"], width=marks["width"],
                     machine=marks["machine"])
        text = _content_text({"kernel": marks["kernel"], "request": ident})
        holes = []  # (where, which, length) of each marker's JSON
        for i, name in enumerate(_HOLES):
            hole = json.dumps(marks[name])
            if text.count(hole) != 1:
                raise ValueError(f"request options contain {hole}")
            holes.append((text.index(hole), i, len(hole)))
        holes.sort()
        #: the text between the holes, and which hole follows each piece
        self._pieces, start = [], 0
        for at, _, length in holes:
            self._pieces.append(text[start:at])
            start = at + length
        self._pieces.append(text[start:])
        self._order = [i for _, i, _ in holes]

    def digest(self, *values: str) -> str:
        """The key of one cell from the canonical JSON of its
        :data:`_HOLES`: the kernel fingerprint, workload name, level,
        width and machine description."""
        p = self._pieces
        a, b, c, d, e = self._order
        return hashlib.sha256("".join((
            p[0], values[a], p[1], values[b], p[2], values[c], p[3],
            values[d], p[4], values[e], p[5])).encode()).hexdigest()


@functools.lru_cache(maxsize=64)
def _template(salt: str, kind: str, seed: int, check: bool, check_ir: bool,
              disable: tuple[str, ...]) -> _KeyTemplate:
    """The key template of one set of canonical options — a bounded,
    value-keyed process memo.  ``salt`` is :data:`CODE_VERSION` as the
    caller reads it, so a changed salt never meets an old template."""
    return _KeyTemplate(kind, seed, check, check_ir, disable)


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
    fingerprint: str | None = None,
) -> str:
    """Content address of a request's result: SHA-256 hex digest over the
    canonical identity, the kernel-source fingerprint, and the
    code-version salt — ``content_key(kernel=fingerprint,
    request=request_identity(...))``, filled into the memoized template
    of its options (:class:`_KeyTemplate`) instead of re-encoding the
    identity dict.

    ``fingerprint`` can be supplied to avoid rebuilding the kernel when
    the caller loops over many configurations of one workload.
    """
    template = _template(CODE_VERSION, kind, int(seed), bool(check),
                         bool(check_ir), tuple(sorted(set(disable))))
    if machine is None:
        machine_json = _paper_machine_json(int(width))
    else:
        machine_json = _machine_json(_checked_machine(kind, width, machine))
    if fingerprint is None:
        fingerprint = workload_fingerprint(workload)
    return template.digest(json.dumps(fingerprint), json.dumps(str(workload)),
                           str(int(level)), str(int(width)), machine_json)


# ---------------------------------------------------------------------------
# requests as values
# ---------------------------------------------------------------------------


@functools.cache
def _disableable() -> frozenset[str]:
    """The names ``disable`` may carry: registered, non-structural
    passes (imported lazily — the registry pulls in every transform)."""
    from ..passes.registry import ablatable_passes

    return frozenset(p.name for p in ablatable_passes())


def _validated(kind: str, workloads, levels, seed,
               disable) -> tuple[str, ...]:
    """Reject what no worker could compute, where the request is built —
    so a malformed one is never admitted, never reaches the fork pool
    and never feeds a healthy cell's circuit breaker.  Returns the
    canonical (deduplicated, sorted) disable set."""
    if kind not in KINDS:
        raise ValueError(f"unknown request kind {kind!r} (known: {KINDS})")
    # what numpy's default_rng takes as one unsigned 64-bit word
    if not _is(seed, int) or not 0 <= seed < 1 << 64:
        raise ValueError(f"bad seed {seed!r}: not an unsigned 64-bit integer")
    for w in workloads:
        try:
            workload_fingerprint(w)
        except KeyError:
            raise ValueError(f"unknown workload {w!r}") from None
    for lv in levels:
        if lv not in LEVELS:
            raise ValueError(f"bad level {lv!r}")
    if not disable:
        return ()
    unknown = set(disable) - _disableable()
    if unknown:
        raise ValueError(f"cannot disable {sorted(unknown)}: not a "
                         f"registered non-structural pass")
    return tuple(sorted(set(disable)))


_REQUIRED = object()


def _is(value, typ) -> bool:
    # a JSON boolean is not a JSON number, although bool subclasses int
    return isinstance(value, typ) and (typ is bool
                                       or not isinstance(value, bool))


def _take(body: dict, name: str, typ, default=_REQUIRED, *, each=False,
          among=None):
    """``body[name]`` if it has the JSON type asked for (``each``: a
    list of it, returned as a tuple) and, with ``among``, only values
    from it — validated, never coerced."""
    if name not in body:
        if default is _REQUIRED:
            raise ValueError(f"missing field {name!r}")
        return default
    value = body[name]
    # (a tuple cannot arrive as JSON: it is a Python caller's list)
    ok = (isinstance(value, (list, tuple)) and all(_is(v, typ) for v in value)
          if each else _is(value, typ))
    if not ok:
        raise ValueError(
            f"field {name!r} must be {'a list of ' if each else ''}"
            f"{getattr(typ, '__name__', 'number')}, got {value!r}")
    for v in value if each else (value,):
        if among is not None and v not in among:
            raise ValueError(f"bad {name.rstrip('s')} {v}")
    return tuple(value) if each else value


@dataclass(frozen=True, kw_only=True)
class _Options:
    """What a cell and a grid of cells have in common."""

    seed: int = 0
    check: bool = True
    check_ir: bool = False
    disable: tuple[str, ...] = ()
    #: per-request deadline in seconds — transport, not identity
    timeout: float | None = field(default=None, compare=False)

    @staticmethod
    def _options(body: dict) -> dict:
        timeout = _take(body, "timeout", (int, float), None)
        return {
            "seed": _take(body, "seed", int, 0),
            "check": _take(body, "check", bool, True),
            "check_ir": _take(body, "check_ir", bool, False),
            "disable": _take(body, "disable", str, (), each=True),
            "timeout": None if timeout is None else float(timeout),
        }

    def to_body(self) -> dict:
        """The JSON body ``from_body`` parses back to this request."""
        body = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v for k, v in body.items() if v is not None}


@dataclass(frozen=True)
class CellRequest(_Options):
    """One configuration to compile or run — the value every hop of the
    serving path passes around.  Construction validates (``ValueError``)
    and canonicalizes ``disable``; equality and hash are the identity
    fields, ``.key`` is the content address."""

    kind: str
    workload: str
    level: int
    width: int

    def __post_init__(self):
        object.__setattr__(self, "disable", _validated(
            self.kind, (self.workload,), (self.level,), self.seed,
            self.disable))

    @classmethod
    def from_body(cls, body: dict, kind: str | None = None) -> "CellRequest":
        """The one parser of a compile/run JSON body: strict JSON types,
        grid widths only.  ``kind`` comes from the URL path, else from
        the body (the peer protocol), else ``run``."""
        return cls(
            kind if kind is not None else _take(body, "kind", str, "run"),
            _take(body, "workload", str), _take(body, "level", int, 4),
            _take(body, "width", int, 8, among=WIDTHS),
            **cls._options(body),
        )

    @classmethod
    def _of_grid(cls, shared: dict, **own) -> "CellRequest":
        """A cell of a :class:`SweepRequest`, which validated the grid
        as a whole: built without re-running the checks per cell.
        ``shared`` is the grid's :class:`_Options` fields, ``own`` this
        class's (kind, workload, level, width)."""
        cell = object.__new__(cls)
        cell.__dict__.update(shared, **own)
        return cell

    @functools.cached_property
    def key(self) -> str:
        return request_key(
            self.kind, self.workload, self.level, self.width,
            seed=self.seed, check=self.check, check_ir=self.check_ir,
            disable=self.disable,
            fingerprint=workload_fingerprint(self.workload),
        )

    @property
    def cell(self) -> tuple:
        """Everything but the width: requests that agree on it share one
        width-sharded compilation."""
        return (self.kind, self.workload, self.level, self.seed,
                self.check, self.check_ir, self.disable)

    @property
    def label(self) -> str:
        return f"{self.workload}/L{self.level}/w{self.width}"


@dataclass(frozen=True)
class SweepRequest(_Options):
    """A grid of configurations; :meth:`cells` is the only place a grid
    is expanded (engine, router, sweep driver and chaos oracles alike)."""

    workloads: tuple[str, ...]
    levels: tuple[int, ...] = LEVELS
    widths: tuple[int, ...] = WIDTHS

    def __post_init__(self):
        for axis in ("workloads", "levels", "widths"):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        if self.configs == 0:
            raise ValueError("empty sweep")
        object.__setattr__(self, "disable", _validated(
            "run", self.workloads, self.levels, self.seed, self.disable))

    @classmethod
    def from_body(cls, body: dict) -> "SweepRequest":
        """The one parser of a sweep JSON body; levels and widths
        default to the full grid."""
        return cls(
            _take(body, "workloads", str, each=True),
            _take(body, "levels", int, LEVELS, each=True),
            _take(body, "widths", int, WIDTHS, each=True, among=WIDTHS),
            **cls._options(body),
        )

    @property
    def configs(self) -> int:
        return len(self.workloads) * len(self.levels) * len(self.widths)

    def cells(self, kind: str = "run") -> list[CellRequest]:
        """The grid's configurations in (workload, level, width) order.

        The grid was validated as a whole, so no cell is validated
        again; a cell derives its ``.key`` when it is asked for it."""
        if kind not in KINDS:
            raise ValueError(f"unknown request kind {kind!r} (known: {KINDS})")
        shared = {f.name: getattr(self, f.name) for f in fields(_Options)}
        return [CellRequest._of_grid(shared, kind=kind, workload=w,
                                     level=lv, width=wd)
                for w in self.workloads for lv in self.levels
                for wd in self.widths]
