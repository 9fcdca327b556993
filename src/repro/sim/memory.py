"""Simulated memory and symbol table.

The modeled machine is word-addressed for our purposes: every array element
(integer or floating point) occupies one 4-byte word, matching the paper's
figures where array strides are 4 bytes (``r1i = r1i + 4``).  The paper
assumes a 100% cache hit rate, so loads always take the Table-1 latency and
memory is a flat store.

Arrays are bound FORTRAN-style: column-major, 1-based subscripts by
convention of the frontend (the lowering handles index arithmetic; memory
itself is flat).

The store is one Python list of words, indexed by ``address >> 2``: 1024
unbound (``None``) words below ``0x1000``, then each bound array's words
followed by 8 unbound pad words.  Its length is the *top*.  Every executor
(the block code, the interpreter, the reference evaluator) applies one
rule:

* a load from a word that is not bound — padding, below the first array,
  at or past the top, or a negative address — raises ``load from
  uninitialized address``, on every lane of a vector load;
* a store inside ``[0, top)`` is accepted (padding and the low region
  included); a store at a negative address or at or past the top raises
  ``store to unmapped address``.
"""

from __future__ import annotations

import numpy as np

#: bytes per element / addressing granularity
WORD = 4

#: unbound words below the first array (addresses ``[0, 0x1000)``)
_LOW_WORDS = 0x1000 // WORD
#: unbound words after each array
_PAD_WORDS = 8


class SimMemoryError(RuntimeError):
    pass


class Memory:
    """Flat word-granular memory with array binding helpers."""

    def __init__(self) -> None:
        self._words: list = [None] * _LOW_WORDS
        self._arrays: dict[str, tuple[int, int]] = {}  # name -> (base, n_words)
        self.symbols: dict[str, int] = {}

    # -- raw access ---------------------------------------------------------

    def load(self, addr: int) -> float | int:
        if addr % WORD:
            raise SimMemoryError(f"unaligned load at {addr:#x}")
        w = addr // WORD
        v = self._words[w] if 0 <= w < len(self._words) else None
        if v is None:
            raise SimMemoryError(f"load from uninitialized address {addr:#x}")
        return v

    def store(self, addr: int, value: float | int) -> None:
        if addr % WORD:
            raise SimMemoryError(f"unaligned store at {addr:#x}")
        w = addr // WORD
        if not 0 <= w < len(self._words):
            raise SimMemoryError(f"store to unmapped address {addr:#x}")
        self._words[w] = value

    # -- array binding --------------------------------------------------------

    def bind_array(self, name: str, data: np.ndarray) -> int:
        """Copy ``data`` into memory (column-major order) and create a symbol
        for its base address.  Returns the base address."""
        flat = np.asarray(data).ravel(order="F")
        words = self._words
        base = len(words) * WORD
        # tolist() converts to native int/float in one pass (the simulator
        # computes in exact Python semantics, never numpy scalars)
        words.extend(flat.tolist())
        words.extend([None] * _PAD_WORDS)
        self._arrays[name] = (base, flat.size)
        self.symbols[name] = base
        return base

    def read_array(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Read an array back out of memory (column-major)."""
        base, n = self._arrays[name]
        want = int(np.prod(shape))
        if want > n:
            raise SimMemoryError(f"array {name} has {n} words, asked for {want}")
        w = base // WORD
        flat = np.fromiter(self._words[w:w + want], dtype, count=want)
        return flat.reshape(shape, order="F")

    def array_base(self, name: str) -> int:
        return self._arrays[name][0]
