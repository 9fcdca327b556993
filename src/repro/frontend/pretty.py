"""FORTRAN-style pretty printer for kernel ASTs.

Renders the corpus kernels the way the paper's loop nests would appear in
their original sources — handy for inspecting workloads (`python -m repro
show <name>`) and for documentation.
"""

from __future__ import annotations

from .ast import (
    ArrayRef,
    Assign,
    Bin,
    Cmp,
    Const,
    Cvt,
    Do,
    Expr,
    If,
    Kernel,
    Neg,
    Stmt,
    VarRef,
)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}

_CMP_F77 = {"<": ".LT.", "<=": ".LE.", ">": ".GT.", ">=": ".GE.",
            "==": ".EQ.", "!=": ".NE."}


def expr_str(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, ArrayRef):
        return f"{e.name}({', '.join(expr_str(i) for i in e.idxs)})"
    if isinstance(e, Neg):
        return f"-{expr_str(e.e, 3)}"
    if isinstance(e, Cvt):
        return f"FLOAT({expr_str(e.e)})"
    if isinstance(e, Bin):
        p = _PREC[e.op]
        s = f"{expr_str(e.l, p)} {e.op} {expr_str(e.r, p + (e.op in '-/%'))}"
        return f"({s})" if p < parent_prec else s
    raise TypeError(f"cannot render {e!r}")


def cond_str(c: Cmp) -> str:
    return f"{expr_str(c.l)} {_CMP_F77[c.op]} {expr_str(c.r)}"


def stmt_lines(s: Stmt, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(s, Assign):
        return [f"{pad}{expr_str(s.target)} = {expr_str(s.value)}"]
    if isinstance(s, If):
        # the branch probability shapes the superblock trace, so it is
        # part of the source a kernel is identified by
        out = [f"{pad}IF ({cond_str(s.cond)}) THEN  ! p={s.p_then!r}"]
        for st in s.then:
            out.extend(stmt_lines(st, indent + 1))
        if s.els:
            out.append(f"{pad}ELSE")
            for st in s.els:
                out.extend(stmt_lines(st, indent + 1))
        out.append(f"{pad}ENDIF")
        return out
    if isinstance(s, Do):
        tag = f"  ! {s.kind}" if s.kind else ""
        out = [f"{pad}DO {s.var} = {expr_str(s.lo)}, {expr_str(s.hi)}{tag}"]
        for st in s.body:
            out.extend(stmt_lines(st, indent + 1))
        out.append(f"{pad}ENDDO")
        return out
    raise TypeError(f"cannot render {s!r}")


def kernel_str(k: Kernel) -> str:
    lines = [f"SUBROUTINE {k.name.replace('-', '_')}"]
    for name, decl in k.arrays.items():
        dims = ", ".join(str(d) for d in decl.dims)
        ty = "REAL" if decl.ty.value == "fp" else "INTEGER"
        lines.append(f"  {ty} {name}({dims})")
    for name, ty in k.scalars.items():
        tname = "REAL" if ty.value == "fp" else "INTEGER"
        lines.append(f"  {tname} {name}")
    if k.outputs:
        lines.append(f"  ! outputs: {', '.join(k.outputs)}")
    lines.append("")
    for s in k.body:
        lines.extend(stmt_lines(s, 1))
    lines.append("END")
    return "\n".join(lines)
