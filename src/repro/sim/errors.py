"""Simulation error types.

Defined in their own module so the block code of :mod:`repro.sim.blockgen`,
the replay of :mod:`repro.sim.replay` and the reference of
:mod:`repro.check` can raise the same exception without a circular
import.  :class:`~repro.sim.memory.SimMemoryError` lives with the
memory model; this module holds the execution-side error.
"""

from __future__ import annotations


class SimulationError(RuntimeError):
    pass
