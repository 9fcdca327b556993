"""The 40-loop-nest workload corpus (Table 2 of the paper).

The paper's loops were extracted from the PERFECT club benchmarks, SPEC,
and vector library routines — FORTRAN sources we do not have.  Each
workload here is a synthetic kernel matched to its Table 2 row: same name,
approximate source-line count, nesting depth, loop type (the KAP
classification of the innermost loop), and presence of conditionals.  The
dependence *structure* (what makes a loop DOALL, DOACROSS, or serial) is
what drives every result in the paper, and it is preserved exactly.

Iteration counts are scaled down for simulation speed; the paper's counts
are kept as metadata (`paper_iters`).  Each workload carries a NumPy
reference implementation; every compiled configuration is checked against
it, so the transformation pipeline is continuously validated for
correctness, not just speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..frontend.ast import Kernel


@dataclass
class Workload:
    """One Table 2 row: kernel builder + data + reference semantics."""

    name: str
    suite: str                 # PERFECT | SPEC | VECTOR
    size_lines: int            # Table 2 "Size"
    paper_iters: int           # Table 2 "Iters" (innermost average)
    nest: int                  # Table 2 "Nest"
    loop_type: str             # doall | doacross | serial
    conds: bool                # Table 2 "Conds"
    build: Callable[[], Kernel]
    #: rng -> (arrays, scalars) input bindings
    data: Callable[[np.random.Generator], tuple[dict, dict]]
    #: (arrays, scalars) -> (expected arrays, expected scalars); receives
    #: private copies and may mutate them
    reference: Callable[[dict, dict], tuple[dict, dict]]
    rtol: float = 1e-9
    notes: str = ""

    def make_inputs(self, seed: int = 0) -> tuple[dict, dict]:
        arrays, scalars = self.data(np.random.default_rng(seed))
        return arrays, scalars


_REGISTRY: dict[str, Workload] = {}


def register(w: Workload) -> Workload:
    if w.name in _REGISTRY:
        raise ValueError(f"duplicate workload {w.name}")
    _REGISTRY[w.name] = w
    return w


def all_workloads() -> list[Workload]:
    """All 40 workloads, importing the suite modules on first use."""
    from . import perfect, spec, vector  # noqa: F401  (registration side effect)

    return list(_REGISTRY.values())


def get_workload(name: str) -> Workload:
    all_workloads()
    return _REGISTRY[name]


# ---------------------------------------------------------------------------
# data helpers: integer-valued floats keep most fp arithmetic exact, which
# makes reassociating transformations (accumulator expansion, tree height
# reduction) checkable with tight tolerances
# ---------------------------------------------------------------------------


def ints(rng: np.random.Generator, shape, lo: int = 1, hi: int = 9) -> np.ndarray:
    """Float array of small integers (exact fp arithmetic)."""
    return rng.integers(lo, hi + 1, shape).astype(np.float64)


def pos(rng: np.random.Generator, shape, lo: int = 1, hi: int = 4) -> np.ndarray:
    """Small positive values, safe divisors."""
    return rng.integers(lo, hi + 1, shape).astype(np.float64)


def near_one(rng: np.random.Generator, shape) -> np.ndarray:
    """Values near 1.0 so long products stay bounded."""
    return rng.choice(np.array([0.8, 0.9, 1.0, 1.1, 1.25]), shape)


def check_run(w: Workload, out_arrays: dict, out_scalars: dict,
              arrays_in: dict, scalars_in: dict) -> None:
    """Assert a run's outputs match the workload's reference."""
    exp_arrays, exp_scalars = w.reference(
        {k: np.array(v, dtype=np.float64, copy=True) for k, v in arrays_in.items()},
        dict(scalars_in),
    )
    for name, exp in exp_arrays.items():
        got = out_arrays[name]
        if not np.allclose(got, exp, rtol=w.rtol, atol=1e-12):
            bad = np.argwhere(~np.isclose(got, exp, rtol=w.rtol, atol=1e-12))
            raise AssertionError(
                f"{w.name}: array {name} mismatch at {bad[:5].tolist()}; "
                f"got {np.asarray(got).flat[0:4]} want {np.asarray(exp).flat[0:4]}"
            )
    for name, exp in exp_scalars.items():
        got = out_scalars[name]
        if not np.isclose(got, exp, rtol=w.rtol, atol=1e-12):
            raise AssertionError(f"{w.name}: scalar {name}: got {got} want {exp}")
