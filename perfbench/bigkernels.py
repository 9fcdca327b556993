"""The four ``trace_big`` kernels: corpus shapes at trace lengths the
corpus never reaches, with inputs and NumPy references of their own.

Inputs are small integers held in float64, so sums stay exact however
the compiler reassociates them and the reference check is equality.
The values come from the benchmark seed; the *control flow* does not:
``maxval_big`` sets its running maximum at 16 fixed positions whatever
the seed, so the dynamic instruction count — the workload's op count —
and the simulated cycles repeat exactly across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.frontend.ast import (
    ArrayDecl, Kernel, Ty, aref, assign, do, if_, var,
)

_F = Ty.FP
_RECORDS = 16


@dataclass
class BigKernel:
    name: str
    build: Callable[[], Kernel]
    #: rng -> (arrays, scalars)
    inputs: Callable[[np.random.Generator], tuple[dict, dict]]
    #: (arrays, scalars) -> (expected arrays, expected scalars)
    reference: Callable[[dict, dict], tuple[dict, dict]]


def _ints(rng, shape) -> np.ndarray:
    return rng.integers(1, 10, shape).astype(np.float64)


def kernels(n: int) -> list[BigKernel]:
    side = int(n ** 0.5)

    def daxpy():  # DOALL with stores
        i = var("i")
        return Kernel(
            "daxpy_big",
            arrays={"X": ArrayDecl(_F, (n,)), "Y": ArrayDecl(_F, (n,))},
            scalars={"a": _F},
            body=[do("i", 1, n, [
                assign(aref("Y", i), aref("Y", i) + var("a") * aref("X", i)),
            ], kind="doall")])

    def dot():  # serial FP reduction
        i = var("i")
        return Kernel(
            "dot_big",
            arrays={"A": ArrayDecl(_F, (n,)), "B": ArrayDecl(_F, (n,))},
            scalars={"s": _F}, outputs=["s"],
            body=[do("i", 1, n, [
                assign(var("s"), var("s") + aref("A", i) * aref("B", i)),
            ], kind="serial")])

    def maxval():  # search loop: a rarely taken side exit off the trace
        i, t = var("i"), var("t")
        return Kernel(
            "maxval_big",
            arrays={"A": ArrayDecl(_F, (n,))},
            scalars={"m": _F, "t": _F}, outputs=["m"],
            body=[do("i", 1, n, [
                assign(t, aref("A", i)),
                if_(t > var("m"), [assign(var("m"), t)], p_then=0.2),
            ], kind="serial")])

    def stencil():  # 2-deep nest, inner DOALL
        i, j = var("i"), var("j")
        return Kernel(
            "stencil_big",
            arrays={"A": ArrayDecl(_F, (side, side)),
                    "B": ArrayDecl(_F, (side, side))},
            scalars={},
            body=[do("j", 2, side - 1, [do("i", 2, side - 1, [
                assign(aref("B", i, j),
                       aref("A", i - 1, j) + aref("A", i + 1, j)
                       + aref("A", i, j - 1) + aref("A", i, j + 1)
                       - aref("A", i, j) * 4.0),
            ], kind="doall")])])

    def maxval_inputs(rng):
        a = _ints(rng, n)
        # values 1..9 never beat the first record (10), so the maximum is
        # set exactly at these positions
        a[:: n // _RECORDS] = 10.0 + np.arange(_RECORDS)
        return {"A": a}, {"m": 0.0}

    def stencil_ref(a, s):
        A = a["A"]
        B = np.zeros_like(A)
        B[1:-1, 1:-1] = (A[:-2, 1:-1] + A[2:, 1:-1] + A[1:-1, :-2]
                         + A[1:-1, 2:] - A[1:-1, 1:-1] * 4.0)
        return {"B": B}, {}

    return [
        BigKernel(
            "daxpy_big", daxpy,
            lambda rng: ({"X": _ints(rng, n), "Y": _ints(rng, n)}, {"a": 3.0}),
            lambda a, s: ({"Y": a["Y"] + s["a"] * a["X"]}, {})),
        BigKernel(
            "dot_big", dot,
            lambda rng: ({"A": _ints(rng, n), "B": _ints(rng, n)}, {"s": 0.0}),
            lambda a, s: ({}, {"s": s["s"] + float(np.dot(a["A"], a["B"]))})),
        BigKernel(
            "maxval_big", maxval, maxval_inputs,
            lambda a, s: ({}, {"m": max(s["m"], float(a["A"].max()))})),
        BigKernel(
            "stencil_big", stencil,
            lambda rng: ({"A": _ints(rng, (side, side)),
                          "B": np.zeros((side, side))}, {}),
            stencil_ref),
    ]


def mismatch(k: BigKernel, run, expected: tuple[dict, dict]) -> str | None:
    """First output of ``run`` that differs from ``expected``, the
    kernel's NumPy reference ``k.reference(arrays, scalars)``."""
    exp_arrays, exp_scalars = expected
    for name, exp in exp_arrays.items():
        if not np.array_equal(run.arrays[name], exp):
            return f"{k.name}: array {name} differs from the NumPy reference"
    for name, exp in exp_scalars.items():
        if run.scalars[name] != exp:
            return (f"{k.name}: scalar {name}: got {run.scalars[name]!r}, "
                    f"want {exp!r}")
    return None
