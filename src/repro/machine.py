"""Machine model: the parameterized superscalar/VLIW node processor.

The paper's processor (Section 3.1) has:

* in-order issue with register interlocking;
* deterministic instruction latencies (Table 1, reproduced below);
* a configurable *issue rate* (1, 2, 4 or 8) with **no** restriction on the
  combination of instructions issued per cycle, except a single branch slot
  (Table 1's "branch: 1 / 1 slot");
* non-excepting (speculative) loads and floating-point instructions, so the
  compiler may hoist them above prior branches;
* a 100% cache hit rate (loads always take the Table-1 latency).

Issue semantics shared by the scheduler and the simulator:

* an instruction may issue at cycle ``t`` when every source register's
  pending write has completed (``ready[r] <= t``) — flow interlock;
* register reads happen at issue, so a write issued in the same cycle but
  later in program order does not disturb earlier readers (WAR is free
  under in-order issue);
* writes complete at ``issue + latency``; a later write to the same
  register must complete strictly after an earlier one (WAW interlock);
* a branch terminates its issue packet: the following instruction (taken
  target or fall-through) issues no earlier than the next cycle.  This
  both implements the single branch slot and the 1-cycle branch latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .ir.instructions import OP_INFO, Kind, Op


#: Table 1 of the paper, keyed by structural kind.
PAPER_LATENCIES: dict[Kind, int] = {
    Kind.INT_ALU: 1,
    Kind.INT_MUL: 3,
    Kind.INT_DIV: 10,
    Kind.FP_ALU: 3,
    Kind.FP_CVT: 3,
    Kind.FP_MUL: 3,
    Kind.FP_DIV: 10,
    Kind.LOAD: 2,
    Kind.STORE: 1,
    Kind.BRANCH: 1,
    Kind.JUMP: 1,
    Kind.HALT: 1,
    Kind.NOP: 1,
    # Lev5 vector extension: element-wise vector ops take the Table-1
    # latency of their per-lane scalar operation (fully parallel lanes);
    # vector loads/stores move `lanes` consecutive words at the scalar
    # memory latency; pack/unpack are 1-cycle register-file shuffles.
    Kind.VEC_IALU: 1,
    Kind.VEC_IMUL: 3,
    Kind.VEC_FALU: 3,
    Kind.VEC_FMUL: 3,
    Kind.VEC_FDIV: 10,
    Kind.VEC_LOAD: 2,
    Kind.VEC_STORE: 1,
    Kind.VEC_PACK: 1,
}

#: Register moves are plain ALU transfers and complete in one cycle even in
#: the FP file (they do not go through the 3-cycle FP adder).
_MOVE_LATENCY = 1

#: Default maximum superword width (elements per vector register) the SLP
#: pass may pack, and the size of the machine's vector register lanes.
DEFAULT_VECTOR_LANES = 4


@dataclass(frozen=True)
class MachineConfig:
    """A processor configuration.

    ``issue_width=0`` means unlimited issue (used for the paper's worked
    examples, which assume "a superscalar processor with infinite
    resources").
    """

    issue_width: int = 8
    latencies: dict[Kind, int] = field(default_factory=lambda: dict(PAPER_LATENCIES))
    #: branches per issue packet; only the paper's 1 is modelled (the list
    #: scheduler and both cycle models close a packet at any branch), so
    #: any other value is refused.  Kept as a field: it is part of every
    #: request key
    branch_slots: int = 1
    #: per-kind issue slot limits beyond the global width; empty means the
    #: paper's "no limitation on the combination of instructions" model.
    #: (Used by the slot-restriction ablation benchmark.)
    slot_limits: dict[Kind, int] = field(default_factory=dict)
    #: compiler may hoist non-excepting loads / FP ops above branches
    speculative_loads: bool = True
    speculative_fp: bool = True
    #: vector register width in elements — the widest superword the SLP
    #: pass (Lev5) may form; 0 disables vectorization entirely
    vector_lanes: int = DEFAULT_VECTOR_LANES

    def __post_init__(self):
        # a write completes no earlier than the cycle after its issue, and
        # a kind a packet may carry has at least one slot: the scheduler,
        # the solver and both simulator engines rely on both
        if min(self.latencies.values(), default=1) < 1:
            raise ValueError("latency below 1 cycle: " + ", ".join(
                k.name for k, v in self.latencies.items() if v < 1))
        if self.slot_limits and min(self.slot_limits.values()) < 1:
            raise ValueError("slot limit below 1: " + ", ".join(
                k.name for k, v in self.slot_limits.items() if v < 1))
        if self.branch_slots != 1:
            raise ValueError(
                f"branch_slots={self.branch_slots}: only 1 is modelled")

    def latency(self, op: Op) -> int:
        try:
            return self._op_latency[op]
        except AttributeError:
            # per-opcode view of ``latencies`` (moves included), built on
            # first use — request keys construct configurations they never
            # ask a latency of.  Not a field: equality, ``replace`` and
            # the cache keys keep seeing the per-kind table only.
            table = {
                op: self.latencies[info.kind]
                for op, info in OP_INFO.items()
                if info.kind in self.latencies
            }
            table[Op.MOV] = table[Op.FMOV] = _MOVE_LATENCY
            object.__setattr__(self, "_op_latency", table)
            return table[op]

    @property
    def unlimited(self) -> bool:
        return self.issue_width == 0

    def with_width(self, width: int) -> "MachineConfig":
        return replace(self, issue_width=width)

    def cache_key(self) -> tuple:
        """Hashable identity of this configuration (the dataclass itself is
        unhashable because of the latency/slot dicts).  Two configurations
        with equal keys produce identical compiled programs and schedules."""
        def by_kind(table: dict[Kind, int]) -> tuple:
            # (``_value_``, not the ``value`` descriptor: every request
            # key asks for this)
            return tuple(sorted([(k._value_, v) for k, v in table.items()]))

        return (
            self.issue_width,
            self.branch_slots,
            by_kind(self.latencies),
            by_kind(self.slot_limits),
            self.speculative_loads,
            self.speculative_fp,
            self.vector_lanes,
        )

    def latency_key(self) -> tuple:
        """Like :meth:`cache_key` but ignoring the issue width: the part of
        the configuration the *transformation* stages can observe.  Machines
        differing only in issue width share transformed (unscheduled) code."""
        return self.cache_key()[2:]


def to_description(config: MachineConfig) -> dict:
    """Serialize a configuration as a machine-description dictionary.

    The paper's compiler "utilizes a machine description file to generate
    code for a parameterized superscalar/VLIW node processor"; this is the
    equivalent knob surface (JSON-friendly)."""
    return {
        "issue_width": config.issue_width,
        "branch_slots": config.branch_slots,
        "latencies": {k.name: v for k, v in config.latencies.items()},
        "slot_limits": {k.name: v for k, v in config.slot_limits.items()},
        "speculative_loads": config.speculative_loads,
        "speculative_fp": config.speculative_fp,
        "vector_lanes": config.vector_lanes,
    }


def from_description(desc: dict) -> MachineConfig:
    """Build a configuration from a machine-description dictionary.

    Unspecified latencies default to Table 1; unknown kind names raise,
    and so does a ``branch_slots`` other than 1 (``ValueError``)."""
    latencies = dict(PAPER_LATENCIES)
    for name, v in desc.get("latencies", {}).items():
        latencies[Kind[name]] = int(v)
    slot_limits = {
        Kind[name]: int(v) for name, v in desc.get("slot_limits", {}).items()
    }
    return MachineConfig(
        issue_width=int(desc.get("issue_width", 8)),
        latencies=latencies,
        branch_slots=int(desc.get("branch_slots", 1)),
        slot_limits=slot_limits,
        speculative_loads=bool(desc.get("speculative_loads", True)),
        speculative_fp=bool(desc.get("speculative_fp", True)),
        vector_lanes=int(desc.get("vector_lanes", DEFAULT_VECTOR_LANES)),
    )


def load_description(path) -> MachineConfig:
    """Load a machine description from a JSON file."""
    import json
    from pathlib import Path

    return from_description(json.loads(Path(path).read_text()))


def issue1() -> MachineConfig:
    """The paper's base configuration (speedup denominator)."""
    return MachineConfig(issue_width=1)


def issue2() -> MachineConfig:
    return MachineConfig(issue_width=2)


def issue4() -> MachineConfig:
    return MachineConfig(issue_width=4)


def issue8() -> MachineConfig:
    return MachineConfig(issue_width=8)


def unlimited() -> MachineConfig:
    """Infinite-resource model used by the paper's worked examples."""
    return MachineConfig(issue_width=0)
