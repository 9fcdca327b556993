"""Test-only cases for the simulated-memory rule (``repro.sim.memory``),
shared by the executor tests: ``test_sim_engines.py`` runs them through
the block code (straight-line and loop-form) and the interpreter,
``test_check.py`` through the reference evaluator.

:func:`memory` binds one eight-word array ``A`` at ``BASE``; its eight
pad words follow and the top is ``TOP``.  Every case is one memory
instruction that takes its address from ``r3i`` (and a value from
``r4f``).  The negative address ``-0x40`` is word -16, which a list
index would silently wrap onto ``A[0]``: only an explicit guard catches
it.
"""

from __future__ import annotations

import numpy as np

from repro.sim import Memory

BASE = 0x1000
TOP = BASE + 16 * 4
NEGATIVE = -0x40

LOAD = "load from uninitialized address"
STORE = "store to unmapped address"

_VPACK = "r1vf = vpackf.4(r4f, r4f, r4f, r4f)\n  "

#: case -> (instructions, r3i, message prefix)
FAULTS = {
    "load-padding": ("r2f = MEM(r3i+0)", BASE + 8 * 4, LOAD),
    "load-below-first-array": ("r2f = MEM(r3i+0)", 0x800, LOAD),
    "load-past-top": ("r2f = MEM(r3i+0)", TOP, LOAD),
    "load-negative": ("r2f = MEM(r3i+0)", NEGATIVE, LOAD),
    "store-past-top": ("MEM(r3i+0) = r4f", TOP, STORE),
    "store-negative": ("MEM(r3i+0) = r4f", NEGATIVE, STORE),
    "vload-crosses-top": ("r1vf = vldf.4(r3i, 0)", TOP - 8, LOAD),
    "vload-negative": ("r1vf = vldf.4(r3i, 0)", NEGATIVE, LOAD),
    "vstore-crosses-top": (_VPACK + "vstf.4(r3i, 0, r1vf)", TOP - 8, STORE),
    "vstore-negative": (_VPACK + "vstf.4(r3i, 0, r1vf)", NEGATIVE, STORE),
}

#: case -> r3i of a store inside [0, TOP) that is accepted
ACCEPTED = {
    "below-first-array": 100,
    "padding": BASE + 8 * 4,
    "last-word-below-top": TOP - 4,
}

#: the store, then a load of the word it wrote
STORE_THEN_LOAD = "MEM(r3i+0) = r4f\n  r5f = MEM(r3i+0)"


def memory() -> Memory:
    m = Memory()
    m.bind_array("A", np.arange(8.0))
    return m


def function_text(ops: str, form: str) -> str:
    """``ops`` as a straight-line block or inside a self-loop block."""
    if form == "straight":
        return f"function t:\nA:\n  {ops}\n  halt\n"
    return (f"function t:\nA:\n  r1i = 0\nL:\n  {ops}\n"
            "  r1i = r1i + 1\n  blt (r1i 4) L\n  halt\n")
