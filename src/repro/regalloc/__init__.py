"""repro.regalloc — register usage measurement (interference + coloring)."""

from .interference import (
    InterferenceGraph,
    RegisterNumbering,
    build_interference,
)
from .coloring import (
    ColoringError,
    RegisterUsage,
    color_class,
    count_registers,
    measure_register_usage,
    verify_coloring,
)

__all__ = [
    "InterferenceGraph", "RegisterNumbering", "build_interference",
    "ColoringError", "RegisterUsage", "color_class", "count_registers",
    "measure_register_usage", "verify_coloring",
]
