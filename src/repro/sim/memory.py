"""Simulated memory and symbol table.

The modeled machine is word-addressed for our purposes: every array element
(integer or floating point) occupies one 4-byte word, matching the paper's
figures where array strides are 4 bytes (``r1i = r1i + 4``).  The paper
assumes a 100% cache hit rate, so loads always take the Table-1 latency and
memory is a flat store.

Arrays are bound FORTRAN-style: column-major, 1-based subscripts by
convention of the frontend (the lowering handles index arithmetic; memory
itself is flat).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: bytes per element / addressing granularity
WORD = 4


class SimMemoryError(RuntimeError):
    pass


class Memory:
    """Flat word-granular memory with array binding helpers."""

    def __init__(self) -> None:
        self._words: dict[int, float | int] = {}
        self._next_base = 0x1000  # leave low addresses unused
        self._arrays: dict[str, tuple[int, int]] = {}  # name -> (base, n_words)
        self.symbols: dict[str, int] = {}

    # -- raw access ---------------------------------------------------------

    def load(self, addr: int) -> float | int:
        if addr % WORD:
            raise SimMemoryError(f"unaligned load at {addr:#x}")
        try:
            return self._words[addr // WORD]
        except KeyError:
            raise SimMemoryError(f"load from uninitialized address {addr:#x}") from None

    def store(self, addr: int, value: float | int) -> None:
        if addr % WORD:
            raise SimMemoryError(f"unaligned store at {addr:#x}")
        self._words[addr // WORD] = value

    # -- array binding --------------------------------------------------------

    def bind_array(self, name: str, data: np.ndarray) -> int:
        """Copy ``data`` into memory (column-major order) and create a symbol
        for its base address.  Returns the base address."""
        flat = np.asarray(data).flatten(order="F")
        n = flat.size
        base = self._next_base
        self._next_base += (n + 8) * WORD  # pad between arrays
        w = base // WORD
        # tolist() converts to native int/float in one pass (the simulator
        # computes in exact Python semantics, never numpy scalars)
        self._words.update(zip(range(w, w + n), flat.tolist()))
        self._arrays[name] = (base, n)
        self.symbols[name] = base
        return base

    def read_array(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Read an array back out of memory (column-major)."""
        base, n = self._arrays[name]
        want = int(np.prod(shape))
        if want > n:
            raise SimMemoryError(f"array {name} has {n} words, asked for {want}")
        w = base // WORD
        flat = np.fromiter(map(self._words.__getitem__, range(w, w + want)),
                           dtype, count=want)
        return flat.reshape(shape, order="F")

    def array_base(self, name: str) -> int:
        return self._arrays[name][0]

    def __len__(self) -> int:
        return len(self._words)
