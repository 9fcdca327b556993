"""repro.sim — execution-driven cycle-accurate simulation."""

from .memory import Memory, SimMemoryError, WORD
from .executor import (
    ENGINE_VERSION, CompiledInstr, CompiledProgram, compile_instr,
    compiled_program,
)
from .simulator import (
    DEFAULT_ENGINE, RunResult, SimulationError, TracedRun, run_compiled,
    simulate,
)
from .blockgen import EngineUnsupported, ExecPlan, exec_plan, execute_plan
from .replay import (
    ReplaySpec, ReplayUnmapped, ReplayUnsupported, replay, replay_spec,
)
from .trace import render_packets, render_pipeline

__all__ = [
    "Memory", "SimMemoryError", "WORD",
    "ENGINE_VERSION", "CompiledInstr", "CompiledProgram", "compile_instr",
    "compiled_program",
    "DEFAULT_ENGINE", "RunResult", "SimulationError", "TracedRun",
    "run_compiled", "simulate",
    "EngineUnsupported", "ExecPlan", "exec_plan", "execute_plan",
    "ReplaySpec", "ReplayUnmapped", "ReplayUnsupported", "replay",
    "replay_spec",
    "render_packets", "render_pipeline",
]
