"""repro — reproduction of Mahlke et al., "Compiler Code Transformations
for Superscalar-Based High-Performance Systems" (Supercomputing '92).

Public API quick reference:

* :func:`repro.harness.compile_kernel` / ``run_compiled_kernel`` — compile
  a kernel at a transformation level and simulate it;
* :class:`repro.pipeline.Level` — Conv / Lev1..Lev4, the paper's levels,
  plus Lev5 (SLP vectorization);
* :mod:`repro.machine` — ``issue1()/issue2()/issue4()/issue8()`` processor
  presets with the paper's Table-1 latencies;
* :mod:`repro.frontend` — the kernel language (``Kernel``, ``do``,
  ``assign``, ``aref``, ``var`` ...);
* :mod:`repro.workloads` — the 40-loop corpus of Table 2;
* :mod:`repro.experiments` — the sweep grid and figure renderers.
"""

from .machine import MachineConfig, issue1, issue2, issue4, issue8, unlimited
from .pipeline import Level

__version__ = "1.0.0"

__all__ = [
    "MachineConfig", "issue1", "issue2", "issue4", "issue8", "unlimited",
    "Level",
    "__version__",
]
