"""Seeded random loop-nest fuzzing with test-case shrinking.

The 40 corpus kernels pin down the paper's numbers, but they visit a fixed
set of shapes.  The fuzzer generates random kernels from a small template
algebra — elementwise fp, reductions, guarded stores, integer div/rem
chains, searches, optional outer loop, static or symbolic trip counts —
and pushes each through the full differential oracle
(:func:`repro.check.oracle.check_workload`).  Three templates are
vector-shaped on purpose — isomorphic elementwise pairs, same-array
load/store smoothing, and an integer reduction — so the Lev5 SLP
packer (and its aliasing and cost-model refusals) is fuzzed too.

Every generated case is checked against an **AST-level interpreter**
(:func:`interpret_kernel`) that never sees the compiler at all, so the
fuzzer also differentially tests the lowering itself, not just the
transformations.

Cases are described by a :class:`CaseSpec` rather than a raw kernel so a
failure can be *shrunk*: :func:`shrink_kernel` greedily drops statements
and halves trip counts while the divergence persists, and reports the
minimal spec (which is reproducible from its seed alone).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..frontend.ast import (
    ArrayDecl, ArrayRef, Assign, Bin, Cmp, Const, Cvt, Do, If, Kernel, Neg,
    Stmt, Ty, VarRef, aref, assign, do, if_, var,
)
from ..ir.instructions import Op
from ..pipeline import ALL_LEVELS, Level
from ..sim.executor import ALU_SEMANTICS
from ..workloads import Workload
from .oracle import DEFAULT_WIDTHS, Divergence, check_workload

_IDIV = ALU_SEMANTICS[Op.DIV]
_IREM = ALU_SEMANTICS[Op.REM]


# ---------------------------------------------------------------------------
# AST interpreter: the compiler-free reference for generated kernels
# ---------------------------------------------------------------------------


def interpret_kernel(kernel: Kernel, arrays: dict, scalars: dict):
    """Execute a kernel by walking its AST — no lowering, no IR, no
    simulator.  Semantics match the language definition: column-major
    1-based arrays, truncating integer division, IEEE double fp,
    ``DO`` loops running ``lo..hi`` inclusive (callers guarantee a
    positive trip count, as the corpus contract requires).
    """
    arrs = {}
    for name, decl in kernel.arrays.items():
        a = np.array(arrays[name], copy=True)
        a = a.astype(np.int64 if decl.ty is Ty.INT else np.float64)
        arrs[name] = a.reshape(decl.dims, order="F") if a.ndim == 1 else a
    env: dict[str, float | int] = {}
    for name, ty in kernel.scalars.items():
        v = scalars.get(name, 0)
        env[name] = float(v) if ty is Ty.FP else int(v)

    def ev(e):
        if isinstance(e, Const):
            return e.value
        if isinstance(e, VarRef):
            return env[e.name]
        if isinstance(e, ArrayRef):
            idx = tuple(int(ev(i)) - 1 for i in e.idxs)
            v = arrs[e.name][idx]
            return int(v) if kernel.arrays[e.name].ty is Ty.INT else float(v)
        if isinstance(e, Neg):
            return -ev(e.e)
        if isinstance(e, Cvt):
            return float(ev(e.e))
        if isinstance(e, Bin):
            a, b = ev(e.l), ev(e.r)
            both_int = isinstance(a, int) and isinstance(b, int)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "/":
                return _IDIV(a, b) if both_int else a / b
            if e.op == "%":
                return _IREM(a, b)
        raise TypeError(f"cannot interpret {e!r}")

    def cond(c: Cmp) -> bool:
        a, b = ev(c.l), ev(c.r)
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
                "==": a == b, "!=": a != b}[c.op]

    def run(stmts):
        for s in stmts:
            if isinstance(s, Assign):
                v = ev(s.value)
                if isinstance(s.target, VarRef):
                    ty = kernel.scalars.get(s.target.name)
                    env[s.target.name] = float(v) if ty is Ty.FP else v
                else:
                    idx = tuple(int(ev(i)) - 1 for i in s.target.idxs)
                    arrs[s.target.name][idx] = v
            elif isinstance(s, If):
                run(s.then if cond(s.cond) else s.els)
            elif isinstance(s, Do):
                lo, hi = int(ev(s.lo)), int(ev(s.hi))
                for v in range(lo, hi + 1):
                    env[s.var] = v
                    run(s.body)
            else:
                raise TypeError(f"cannot interpret {s!r}")

    run(kernel.body)
    out_scalars = {name: env[name] for name in kernel.outputs}
    return arrs, out_scalars


# ---------------------------------------------------------------------------
# case specification and templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseSpec:
    """A reproducible fuzz case: everything the builder needs, nothing else.

    Shrinking produces reduced copies of this (fewer statements, smaller
    trips); the kernel and its data are deterministic functions of the
    spec, so a reported spec IS the reproducer.
    """

    seed: int
    trip: int                   # inner loop trip count (>= 1)
    outer: int                  # outer loop trip count; 0 = no outer loop
    stmts: tuple[str, ...]      # template names, in body order
    symbolic_bound: bool        # hi = n (input scalar) vs a constant
    consts: tuple[int, ...]     # c0..c4; c2, c3 are nonzero divisors
    p_then: float = 0.5


#: template name -> (doall-safe, arrays used {name: Ty}, scalars {name: Ty},
#: input scalar names, output scalar names)
_TEMPLATES: dict[str, tuple[bool, dict, dict, tuple, tuple]] = {
    "axpy": (True, {"A": Ty.FP, "B": Ty.FP, "C": Ty.FP}, {"x": Ty.FP},
             ("x",), ()),
    "tri": (True, {"A": Ty.FP, "B": Ty.FP, "D": Ty.FP}, {"x": Ty.FP},
            ("x",), ()),
    "guard": (True, {"A": Ty.FP, "B": Ty.FP, "E": Ty.FP}, {"x": Ty.FP},
              ("x",), ()),
    "imath": (True, {"JI": Ty.INT, "KI": Ty.INT, "LI": Ty.INT}, {}, (), ()),
    "dot": (False, {"A": Ty.FP, "B": Ty.FP}, {"s": Ty.FP}, ("s",), ("s",)),
    "amax": (False, {"A": Ty.FP}, {"mx": Ty.FP}, ("mx",), ("mx",)),
    # vector-shaped templates: unrolled copies are isomorphic with
    # adjacent memory, so Lev5 SLP packing fires on them
    "pair": (True, {"A": Ty.FP, "B": Ty.FP, "C2": Ty.FP, "D2": Ty.FP,
                    "F": Ty.FP, "G": Ty.FP}, {}, (), ()),
    "smooth": (True, {"A": Ty.FP, "B": Ty.FP}, {"x": Ty.FP}, ("x",), ()),
    "isum": (False, {"JI": Ty.INT}, {"k": Ty.INT}, ("k",), ("k",)),
}


def _template_body(name: str, spec: CaseSpec) -> list[Stmt]:
    i = var("i")
    c = spec.consts
    if name == "axpy":
        return [assign(aref("C", i), var("x") * aref("A", i) + aref("B", i))]
    if name == "tri":
        # deep fp expression tree: tree height reduction fodder
        e = (aref("A", i) * var("x") + aref("B", i)) * aref("A", i) \
            + aref("B", i) * float(c[0])
        return [assign(aref("D", i), e)]
    if name == "guard":
        return [if_(aref("A", i) > float(c[1]),
                    [assign(aref("E", i), aref("A", i) * var("x"))],
                    [assign(aref("E", i), aref("B", i) + 1.0)],
                    p_then=spec.p_then)]
    if name == "imath":
        # truncating div/rem over possibly negative dividends: the
        # strength-reduction sequences must round toward zero
        return [
            assign(aref("KI", i), (aref("JI", i) * c[0] + c[1]) / c[2]),
            assign(aref("LI", i), aref("JI", i) % c[3] + aref("KI", i) * c[4]),
        ]
    if name == "dot":
        return [assign(var("s"), var("s") + aref("A", i) * aref("B", i))]
    if name == "pair":
        # two interleaved elementwise streams: the packer must form the
        # F and G components independently (different ops, disjoint
        # arrays) even though their statements alternate in the body
        return [
            assign(aref("F", i), aref("A", i) + aref("B", i)),
            assign(aref("G", i), aref("C2", i) - aref("D2", i)),
        ]
    if name == "smooth":
        # loads and stores the same array at the same index: a packed
        # load of B must not be hoisted across a packed store to B
        return [assign(aref("B", i), (aref("B", i) + aref("A", i)) * var("x"))]
    if name == "isum":
        # integer reduction: exercises exact (bit-identical) integer
        # accumulator packing, not just the fp reassociating variant
        return [assign(var("k"), var("k") + aref("JI", i))]
    if name == "amax":
        return [if_(aref("A", i) > var("mx"),
                    [assign(var("mx"), aref("A", i))], p_then=0.25)]
    raise KeyError(name)


def build_kernel(spec: CaseSpec) -> Kernel:
    """Deterministically build the kernel a spec describes."""
    arrays: dict[str, ArrayDecl] = {}
    scalars: dict[str, Ty] = {}
    outputs: list[str] = []
    doall = True
    body: list[Stmt] = []
    for t in spec.stmts:
        t_doall, t_arrays, t_scalars, _ins, t_outs = _TEMPLATES[t]
        doall = doall and t_doall
        for aname, ty in t_arrays.items():
            arrays.setdefault(aname, ArrayDecl(ty, (spec.trip,)))
        scalars.update(t_scalars)
        for o in t_outs:
            if o not in outputs:
                outputs.append(o)
        body.extend(_template_body(t, spec))

    hi = var("n") if spec.symbolic_bound else Const(spec.trip)
    if spec.symbolic_bound:
        scalars["n"] = Ty.INT
    inner = do("i", 1, hi, body, kind="doall" if doall else "serial")
    nest = [do("j", 1, spec.outer, [inner])] if spec.outer else [inner]
    return Kernel(f"fuzz{spec.seed}", nest, arrays=arrays, scalars=scalars,
                  outputs=outputs)


def _case_data(spec: CaseSpec):
    """Deterministic input bindings for a spec (own rng stream, so the
    same spec always reproduces the same run)."""
    kernel = build_kernel(spec)
    rng = np.random.default_rng(spec.seed + 0x5EED)
    arrays: dict[str, np.ndarray] = {}
    for name, decl in kernel.arrays.items():
        if decl.ty is Ty.INT:
            # negative values included: div/rem truncation is direction-
            # sensitive, and zero-free divisors are the templates' job
            arrays[name] = rng.integers(-9, 10, decl.dims).astype(np.int64)
        else:
            # small integer-valued floats keep fp arithmetic exact
            arrays[name] = rng.integers(-4, 5, decl.dims).astype(np.float64)
    scalars: dict[str, float | int] = {}
    for name, ty in kernel.scalars.items():
        if name == "i" or name == "j":
            continue
        if name == "n":
            scalars[name] = spec.trip
        elif name == "mx":
            scalars[name] = -1.0e9
        elif ty is Ty.FP:
            scalars[name] = float(rng.integers(-3, 4))
        else:
            scalars[name] = int(rng.integers(-3, 4))
    return arrays, scalars


def build_workload(spec: CaseSpec) -> Workload:
    """Wrap a spec as a corpus-shaped :class:`Workload` so the oracle can
    treat fuzz cases and Table 2 kernels identically."""
    kernel = build_kernel(spec)
    inner = kernel.inner_do()
    return Workload(
        name=kernel.name,
        suite="FUZZ",
        size_lines=len(spec.stmts),
        paper_iters=spec.trip,
        nest=2 if spec.outer else 1,
        loop_type=inner.kind,
        conds=any(t in ("guard", "amax") for t in spec.stmts),
        build=lambda: build_kernel(spec),
        data=lambda rng: _case_data(spec),
        reference=lambda arrays, scalars: interpret_kernel(
            build_kernel(spec), arrays, scalars
        ),
    )


def random_spec(seed: int) -> CaseSpec:
    rng = np.random.default_rng(seed)
    names = list(_TEMPLATES)
    k = int(rng.integers(1, 4))
    stmts = tuple(rng.choice(names, size=k, replace=False))
    # trip counts straddle the unroll factor: below it, exact multiples,
    # and off-by-one remainders all occur
    trip = int(rng.integers(1, 25))
    c2, c3 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    consts = (int(rng.integers(-6, 7)), int(rng.integers(-6, 7)), c2, c3,
              int(rng.integers(-6, 7)))
    return CaseSpec(
        seed=seed,
        trip=trip,
        outer=int(rng.integers(0, 4)),
        stmts=stmts,
        symbolic_bound=bool(rng.integers(0, 2)),
        consts=consts,
        p_then=float(rng.choice([0.1, 0.5, 0.9])),
    )


def random_workload(seed: int) -> Workload:
    """A random fuzz workload, fully determined by its seed."""
    return build_workload(random_spec(seed))


# ---------------------------------------------------------------------------
# shrinking and the fuzz driver
# ---------------------------------------------------------------------------


@dataclass
class FuzzFailure:
    """A diverging fuzz case, before and after shrinking."""

    spec: CaseSpec
    divergences: list[Divergence]
    shrunk_spec: CaseSpec
    shrunk_divergences: list[Divergence]

    def __str__(self) -> str:
        s = self.shrunk_spec
        head = (f"fuzz seed {s.seed}: trip={s.trip} outer={s.outer} "
                f"stmts={list(s.stmts)} symbolic={s.symbolic_bound} "
                f"consts={list(s.consts)}")
        return head + "".join(f"\n  {d}" for d in self.shrunk_divergences)


def _reductions(spec: CaseSpec):
    """Candidate one-step reductions, most aggressive first."""
    if len(spec.stmts) > 1:
        for i in range(len(spec.stmts)):
            yield dataclasses.replace(
                spec, stmts=spec.stmts[:i] + spec.stmts[i + 1:]
            )
    if spec.outer:
        yield dataclasses.replace(spec, outer=0)
        if spec.outer > 1:
            yield dataclasses.replace(spec, outer=1)
    if spec.trip > 1:
        yield dataclasses.replace(spec, trip=spec.trip // 2)
        yield dataclasses.replace(spec, trip=spec.trip - 1)
    if spec.symbolic_bound:
        yield dataclasses.replace(spec, symbolic_bound=False)


def _check_spec(spec: CaseSpec, levels, widths, check_ir) -> list[Divergence]:
    try:
        # the oracle times every generated program on both the engine
        # and the reference, so the fuzzer also hunts for block-code /
        # replay divergence on adversarial kernels
        _, divs = check_workload(build_workload(spec), levels, widths,
                                 seed=0, check_ir=check_ir)
    except Exception as e:  # noqa: BLE001 - crashes are findings too
        divs = [Divergence(f"fuzz{spec.seed}", "-", 0, "compile-error",
                           repr(e))]
    return divs


def shrink_kernel(
    spec: CaseSpec,
    levels: tuple[Level, ...] = tuple(ALL_LEVELS),
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    check_ir: bool = True,
) -> tuple[CaseSpec, list[Divergence]]:
    """Greedily minimize a diverging spec while it keeps diverging."""
    best = spec
    best_divs = _check_spec(spec, levels, widths, check_ir)
    improved = True
    while improved:
        improved = False
        for cand in _reductions(best):
            divs = _check_spec(cand, levels, widths, check_ir)
            if divs:
                best, best_divs = cand, divs
                improved = True
                break
    return best, best_divs


def fuzz(
    n_cases: int = 50,
    seed: int = 0,
    levels: tuple[Level, ...] = tuple(ALL_LEVELS),
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    check_ir: bool = True,
    shrink: bool = True,
    verbose: bool = False,
) -> list[FuzzFailure]:
    """Run ``n_cases`` seeded fuzz cases through the differential oracle.

    Returns the (shrunk) failures; an empty list means every case agreed
    with the AST interpreter at every level and width.
    """
    failures: list[FuzzFailure] = []
    for case in range(n_cases):
        spec = random_spec(seed + case)
        divs = _check_spec(spec, levels, widths, check_ir)
        if divs:
            if shrink:
                small, small_divs = shrink_kernel(spec, levels, widths,
                                                  check_ir)
            else:
                small, small_divs = spec, divs
            failures.append(FuzzFailure(spec, divs, small, small_divs))
            if verbose:
                print(f"  case {case} (seed {spec.seed}) DIVERGES -> "
                      f"shrunk to trip={small.trip} stmts={list(small.stmts)}")
        elif verbose and (case + 1) % 10 == 0:
            print(f"  {case + 1}/{n_cases} cases ok")
    return failures
