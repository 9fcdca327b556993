"""Every registered pass fires somewhere, and compiled code has no dead blocks.

Compiles the 40 corpus loops once at Lev5 (every pass enabled) on the
issue-8 machine.  A non-structural pass that rewrites nothing on any of
them is dead weight in ``--disable-pass``, the ablation table and the
request key, so it fails here instead of coming back silently; the
census behind this rule is DESIGN.md §10.2.  The conv-phase output of
the same loops is kept too, because that is where unreachable blocks
used to be swept.
"""

from collections import Counter

import pytest

from repro.harness import compile_kernel, lower_conv
from repro.ir import reachable_labels
from repro.machine import issue8
from repro.passes.registry import ablatable_passes
from repro.pipeline import Level
from repro.workloads import all_workloads


@pytest.fixture(scope="module")
def corpus_conv():
    return {w.name: lower_conv(w.build()) for w in all_workloads()}


@pytest.fixture(scope="module")
def corpus_lev5():
    return {w.name: compile_kernel(w.build(), Level.LEV5, issue8())
            for w in all_workloads()}


def test_every_ablatable_pass_fires_on_some_loop(corpus_lev5):
    fired = Counter()
    for ck in corpus_lev5.values():
        fired.update({s.name for s in ck.report.stats if s.rewrites > 0})
    dead = [p.name for p in ablatable_passes() if fired[p.name] == 0]
    assert not dead, f"passes that rewrite nothing on the corpus: {dead}"


def test_compiled_functions_have_no_unreachable_blocks(corpus_conv,
                                                       corpus_lev5):
    for stage, corpus in (("conv", corpus_conv), ("lev5", corpus_lev5)):
        for name, k in corpus.items():
            func = k.lowered.func
            dead = {b.label for b in func.blocks} - reachable_labels(func)
            assert not dead, f"{name} {stage}: unreachable blocks {sorted(dead)}"
