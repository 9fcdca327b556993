"""Abstract syntax for the FORTRAN-like kernel language.

The 40 loop nests of the evaluation (Table 2) are written in this small
language: scalar and array declarations, ``DO`` loops with unit step,
``IF`` statements, and arithmetic over int/fp expressions.  Arrays are
column-major with 1-based subscripts, like the FORTRAN sources the paper
extracted its loops from.

Construction helpers keep kernels readable::

    i = var("i")
    body = [assign(aref("C", i), aref("A", i) + aref("B", i))]
    k = Kernel("add", arrays={...}, body=[do("i", 1, var("n"), body)])
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Ty(enum.Enum):
    INT = "int"
    FP = "fp"


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class; operators build ``Bin`` nodes."""

    def __add__(self, other):
        return Bin("+", self, wrap(other))

    def __radd__(self, other):
        return Bin("+", wrap(other), self)

    def __sub__(self, other):
        return Bin("-", self, wrap(other))

    def __rsub__(self, other):
        return Bin("-", wrap(other), self)

    def __mul__(self, other):
        return Bin("*", self, wrap(other))

    def __rmul__(self, other):
        return Bin("*", wrap(other), self)

    def __truediv__(self, other):
        return Bin("/", self, wrap(other))

    def __rtruediv__(self, other):
        return Bin("/", wrap(other), self)

    def __mod__(self, other):
        return Bin("%", self, wrap(other))

    def __neg__(self):
        return Neg(self)

    # comparisons build conditions (not booleans)
    def __lt__(self, other):
        return Cmp("<", self, wrap(other))

    def __le__(self, other):
        return Cmp("<=", self, wrap(other))

    def __gt__(self, other):
        return Cmp(">", self, wrap(other))

    def __ge__(self, other):
        return Cmp(">=", self, wrap(other))

    def eq(self, other):
        return Cmp("==", self, wrap(other))


@dataclass(eq=False)
class Const(Expr):
    value: float | int

    @property
    def is_int(self) -> bool:
        return isinstance(self.value, int)


@dataclass(eq=False)
class VarRef(Expr):
    name: str


@dataclass(eq=False)
class ArrayRef(Expr):
    name: str
    idxs: tuple


@dataclass(eq=False)
class Bin(Expr):
    op: str  # + - * / %
    l: Expr
    r: Expr


@dataclass(eq=False)
class Neg(Expr):
    e: Expr


@dataclass(eq=False)
class Cvt(Expr):
    """Explicit int -> fp conversion (FLOAT(e))."""

    e: Expr


@dataclass(eq=False)
class Cmp:
    op: str  # < <= > >= == !=
    l: Expr
    r: Expr


def wrap(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(v)
    raise TypeError(f"cannot use {v!r} in an expression")


def var(name: str) -> VarRef:
    return VarRef(name)


def aref(name: str, *idxs) -> ArrayRef:
    return ArrayRef(name, tuple(wrap(i) for i in idxs))


def flt(e) -> Cvt:
    return Cvt(wrap(e))


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


class Stmt:
    pass


@dataclass(eq=False)
class Assign(Stmt):
    target: VarRef | ArrayRef
    value: Expr


@dataclass(eq=False)
class If(Stmt):
    cond: Cmp
    then: list
    els: list = field(default_factory=list)
    #: static probability the THEN side executes (trace selection hint)
    p_then: float = 0.5


@dataclass(eq=False)
class Do(Stmt):
    """``DO var = lo, hi`` with unit step; executes at least once when
    lo <= hi (the corpus guarantees non-zero trip counts)."""

    var: str
    lo: Expr
    hi: Expr
    body: list
    #: KAP-style classification of THIS loop: 'doall', 'doacross', 'serial'
    kind: str = "serial"


def assign(target, value) -> Assign:
    return Assign(target, wrap(value))


def do(v: str, lo, hi, body: list, kind: str = "serial") -> Do:
    return Do(v, wrap(lo), wrap(hi), body, kind)


def if_(cond: Cmp, then: list, els: list | None = None, p_then: float = 0.5) -> If:
    return If(cond, then, els or [], p_then)


# ---------------------------------------------------------------------------
# kernel container
# ---------------------------------------------------------------------------


@dataclass
class ArrayDecl:
    ty: Ty
    dims: tuple[int, ...]  # concrete extents, column-major

    @property
    def size(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n


@dataclass
class Kernel:
    """A loop-nest kernel: declarations + statements.

    ``scalars`` maps names to types; input scalars are bound by the
    harness, ``outputs`` lists the scalars read back after the run.
    """

    name: str
    body: list
    arrays: dict[str, ArrayDecl] = field(default_factory=dict)
    scalars: dict[str, Ty] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    def inner_do(self) -> Do:
        """The innermost DO loop (the evaluation target)."""
        d = None
        stmts = self.body
        while True:
            dos = [s for s in stmts if isinstance(s, Do)]
            if not dos:
                break
            d = dos[-1]
            stmts = d.body
        if d is None:
            raise ValueError(f"kernel {self.name} has no loop")
        return d

    def nest_depth(self) -> int:
        def depth(stmts) -> int:
            best = 0
            for s in stmts:
                if isinstance(s, Do):
                    best = max(best, 1 + depth(s.body))
                elif isinstance(s, If):
                    best = max(best, depth(s.then), depth(s.els))
            return best

        return depth(self.body)
