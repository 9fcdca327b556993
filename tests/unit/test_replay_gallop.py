"""The replay's period skip gallops: it compares chunks of 16, 32, 64 ...
periods and must stop at exactly the period where the steady state
breaks — at the chunk boundaries and around them, and when the trace
ends inside a period.

Two layers: the matcher against a brute-force count on synthetic
traces, and loop nests whose inner steady state breaks after a chosen
number of periods, timed by the compiled engine and by the reference
at widths 1/2/4/8 and on a slot-limited machine.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.ir import parse_function
from repro.ir.instructions import Kind
from repro.machine import MachineConfig
from repro.sim import Memory, simulate

# the package re-exports the function ``replay`` under the module's name
replay_mod = importlib.import_module("repro.sim.replay")

MACHINES = [MachineConfig(issue_width=w) for w in (1, 2, 4, 8)] + [
    MachineConfig(issue_width=4,
                  slot_limits={Kind.FP_ALU: 1, Kind.FP_MUL: 1}),
]


def _brute_force(arr: np.ndarray, j: int, i: int) -> int:
    p = i - j
    m = 0
    while (i + (m + 1) * p <= arr.size
           and (arr[i + m * p: i + (m + 1) * p] == arr[j:i]).all()):
        m += 1
    return m


@pytest.mark.parametrize("tail", ["mismatch", "partial", "end"])
@pytest.mark.parametrize("m", [0, 1, 15, 16, 17, 47, 48, 49, 200])
@pytest.mark.parametrize("p", [1, 3])
def test_periods_stop_at_the_first_mismatching_period(p, m, tail):
    pattern = list(range(5, 5 + p))
    rest = {
        # a broken period, then matching ones the count must not reach
        "mismatch": pattern[:-1] + [99] + pattern * 20,
        # the trace ends inside a period (empty for p = 1)
        "partial": pattern[:-1],
        "end": [],
    }[tail]
    arr = np.array([1, 2] + pattern + pattern * m + rest, dtype=np.int64)
    j, i = 2, 2 + p
    assert replay_mod._periods(arr, j, i) == _brute_force(arr, j, i) == m


#: an outer loop around an inner self-loop of ``{k}`` iterations; the
#: inner (segment, state) pair recurs on the third back edge, so each
#: outer iteration skips exactly ``k - 3`` one-segment periods
SELF_NEST = """
function self_nest:
A:
  r1i = 0
O:
  r2i = 0
I:
  r4f = r4f + r5f
  r6f = r4f * r5f
  r2i = r2i + 1
  blt (r2i {k}) I
O2:
  r1i = r1i + 1
  blt (r1i 3) O
  halt
"""

#: the inner loop spans two blocks: two-segment periods, and a trace
#: that ends by falling off the last block
TWO_BLOCK_NEST = """
function two_block_nest:
A:
  r1i = 0
O:
  r2i = 0
I1:
  r4f = r4f + r5f
  r2i = r2i + 1
I2:
  r6f = r4f * r5f
  blt (r2i {k}) I1
O2:
  r1i = r1i + 1
  blt (r1i 3) O
"""


@pytest.fixture
def skips(monkeypatch):
    """Every period skip as ``(period, periods skipped, ends inside a
    period)``."""
    seen = []
    real = replay_mod._periods

    def spy(arr, j, i):
        m = real(arr, j, i)
        p = i - j
        seen.append((p, m, (arr.size - i) % p != 0
                     and arr.size - i - m * p < p))
        return m

    monkeypatch.setattr(replay_mod, "_periods", spy)
    return seen


def _assert_engines_agree(text: str, machine: MachineConfig) -> None:
    f = parse_function(text)
    interp, compiled = (
        simulate(f, machine, Memory(), fregs={4: 0.0, 5: 1.0}, engine=e)
        for e in ("interp", "auto"))
    assert (compiled.cycles, compiled.instructions) == (
        interp.cycles, interp.instructions), (f.name, machine)
    assert repr(compiled.fregs) == repr(interp.fregs)


@pytest.mark.parametrize("periods", [1, 15, 16, 17, 48])
def test_nest_breaks_after_exactly_n_periods(periods, skips):
    """Each inner loop skips exactly ``periods`` one-segment periods,
    and the pairs recorded before a skip survive it: the outer loop's
    period (an outer iteration of ``periods + 5`` segments) is found
    and its last whole iteration skipped too.  Each candidate that does
    not repeat is refused after one period (a 0 entry)."""
    n, outer = periods, periods + 5
    for machine in MACHINES:
        skips.clear()
        _assert_engines_agree(SELF_NEST.format(k=periods + 3), machine)
        if machine.issue_width == 1:
            # the outer period is already steady after one iteration
            want = [(1, n, False), (outer, 1, True), (outer, 0, True),
                    (outer + 5, 0, True), (1, n, False),
                    (2 * outer, 0, True)]
        else:
            want = [(1, n, False), (5, 0, False), (1, n, False),
                    (outer, 1, True), (outer, 0, True)]
        assert skips == want, machine


def test_nest_ends_inside_a_period(skips):
    # two inner iterations: the period is a whole outer iteration, and
    # the trace ends (with the halt) one segment into the next one
    for machine in MACHINES:
        skips.clear()
        _assert_engines_agree(SELF_NEST.format(k=2), machine)
        want = [(4, 1, True), (4, 0, True)]
        if machine.issue_width == 1:
            want.append((8, 0, True))
        assert skips == want, machine


@pytest.mark.parametrize("k", [2, 3, 4, 17, 18, 19, 20, 50, 51])
def test_two_segment_periods(k, skips):
    for machine in MACHINES:
        _assert_engines_agree(TWO_BLOCK_NEST.format(k=k), machine)
    assert skips
