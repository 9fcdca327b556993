"""Unit tests for the IR: operands, instructions, blocks, functions,
printer/parser round-trips, and the verifier."""

import pytest

from repro.ir import (
    Block,
    FImm,
    Function,
    FunctionBuilder,
    Imm,
    Instr,
    Kind,
    Label,
    Op,
    OP_INFO,
    ParseError,
    Reg,
    RegClass,
    Sym,
    VerifyError,
    format_function,
    format_instr,
    fp_reg,
    int_reg,
    make,
    parse_function,
    parse_instr,
    parse_operand,
    verify_function,
    verify_instr,
)


class TestOperands:
    def test_reg_identity(self):
        assert Reg(1, RegClass.INT) == int_reg(1)
        assert int_reg(1) != fp_reg(1)
        assert {int_reg(1), int_reg(1)} == {int_reg(1)}

    def test_reg_rendering(self):
        assert str(int_reg(3)) == "r3i"
        assert str(fp_reg(12)) == "r12f"

    def test_class_predicates(self):
        assert int_reg(1).is_int and not int_reg(1).is_fp
        assert fp_reg(1).is_fp and not fp_reg(1).is_int

    def test_immediates(self):
        assert str(Imm(-4)) == "-4"
        assert str(FImm(3.2)) == "3.2"
        assert Imm(4) != FImm(4.0)

    def test_sym_and_label(self):
        assert str(Sym("A")) == "A"
        assert str(Label("L1")) == "L1"


class TestInstr:
    def test_make_checks_arity(self):
        with pytest.raises(ValueError):
            make(Op.ADD, int_reg(1), (Imm(1),))
        with pytest.raises(ValueError):
            make(Op.ADD, None, (Imm(1), Imm(2)))
        with pytest.raises(ValueError):
            make(Op.BLT, None, (Imm(1), Imm(2)))  # no target

    def test_defs_and_uses(self):
        ins = make(Op.ADD, int_reg(1), (int_reg(2), Imm(4)))
        assert list(ins.reg_defs()) == [int_reg(1)]
        assert list(ins.reg_uses()) == [int_reg(2)]

    def test_replace_uses(self):
        ins = make(Op.FADD, fp_reg(1), (fp_reg(2), fp_reg(3)))
        ins.replace_uses({fp_reg(2): fp_reg(9)})
        assert ins.srcs == (fp_reg(9), fp_reg(3))

    def test_copy_is_fresh_but_identical(self):
        ins = make(Op.LD, int_reg(1), (Sym("A"), Imm(0)))
        ins.tag = 3
        ins.prob = 0.25
        c = ins.copy()
        assert c is not ins and c.uid != ins.uid
        assert (c.op, c.dest, c.srcs, c.tag, c.prob) == (
            ins.op, ins.dest, ins.srcs, 3, 0.25
        )

    def test_structural_predicates(self):
        st = make(Op.STF, None, (Sym("A"), Imm(0), fp_reg(1)))
        assert st.is_store and st.is_mem and not st.is_load
        br = make(Op.BLT, None, (int_reg(1), Imm(5)), Label("L"))
        assert br.is_branch and br.is_control
        halt = Instr(Op.HALT)
        assert halt.is_control and not halt.is_branch
        assert make(Op.DIV, int_reg(1), (int_reg(2), int_reg(3))).may_trap

    def test_every_opcode_has_info(self):
        for op in Op:
            assert op in OP_INFO

    @pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
    def test_predicate_table(self, op):
        # the per-opcode tables behind the predicates, against the
        # definition over the opcode's structural kind
        k = OP_INFO[op].kind
        ins = Instr(op)
        assert ins.is_control == (k in (Kind.BRANCH, Kind.JUMP, Kind.HALT))
        assert ins.is_load == (k in (Kind.LOAD, Kind.VEC_LOAD))
        assert ins.is_store == (k in (Kind.STORE, Kind.VEC_STORE))
        assert ins.is_mem == (ins.is_load or ins.is_store)
        assert ins.is_vector == k.name.startswith("VEC_")
        assert ins.is_branch == (k is Kind.BRANCH)


class TestPrinterParser:
    CASES = [
        "r2f = MEM(A+r1i)",
        "r2i = MEM(r1i+8)",
        "r4i = MEM(r1i-8)",
        "MEM(C+r1i) = r4f",
        "MEM(B) = r2i",
        "r4f = r2f + r3f",
        "r1i = r1i + 4",
        "r3i = r2i >> 2",
        "r3i = r2i >>> 2",
        "r1i = r2i",
        "r5f = 3.2",
        "r1f = itof(r2i)",
        "r2i = ftoi(r1f)",
        "blt (r1i r5i) L1",
        "fbge (r1f 13.2) L2",
        "jmp exit",
        "halt",
        "nop",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        ins = parse_instr(text)
        assert format_instr(ins) == text
        again = parse_instr(format_instr(ins))
        assert format_instr(again) == text

    def test_binop_selected_by_dest_class(self):
        assert parse_instr("r1i = r2i + r3i").op is Op.ADD
        assert parse_instr("r1f = r2f + r3f").op is Op.FADD

    def test_negative_immediates(self):
        ins = parse_instr("r1i = r2i + -4")
        assert ins.srcs[1] == Imm(-4)

    def test_parse_operand_kinds(self):
        assert parse_operand("r3i") == int_reg(3)
        assert parse_operand("r3f") == fp_reg(3)
        assert parse_operand("-7") == Imm(-7)
        assert parse_operand("2.5") == FImm(2.5)
        assert parse_operand("ABC") == Sym("ABC")

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_instr("r1i = r2f ?? r3f")
        with pytest.raises(ParseError):
            parse_instr("??")

    def test_function_round_trip(self):
        text = """function t:
entry:
  r1i = 0
L1:
  r2f = MEM(A+r1i)
  MEM(B+r1i) = r2f
  r1i = r1i + 4
  blt (r1i r5i) L1
exit:
  halt"""
        f = parse_function(text)
        assert format_function(f) == text


class TestFunction:
    def test_successors_and_predecessors(self):
        f = parse_function(
            """
function t:
A:
  blt (r1i r2i) C
B:
  jmp D
C:
  nop
D:
  halt
"""
        )
        bm = f.block_map()
        assert f.successors(bm["A"]) == ["C", "B"]
        assert f.successors(bm["B"]) == ["D"]
        assert f.successors(bm["C"]) == ["D"]
        preds = f.predecessors()
        assert sorted(preds["D"]) == ["B", "C"]

    def test_halt_stops_fallthrough(self):
        f = parse_function("function t:\nA:\n  halt\nB:\n  nop\n")
        assert f.successors(f.get_block("A")) == []

    def test_new_reg_is_fresh(self):
        f = parse_function("function t:\nA:\n  r7i = r3i + 1\n")
        r = f.new_int_reg()
        assert r.id > 7

    def test_retarget(self):
        f = parse_function("function t:\nA:\n  jmp B\nB:\n  halt\nC:\n  halt\n")
        f.retarget("B", "C")
        assert f.get_block("A").instrs[0].target.name == "C"

    def test_duplicate_label_rejected(self):
        f = Function("t")
        f.add_block("A")
        with pytest.raises(ValueError):
            f.add_block("A")


class TestVerifier:
    def test_wrong_operand_class(self):
        ins = Instr(Op.FADD, fp_reg(1), (fp_reg(2), int_reg(3)))
        with pytest.raises(VerifyError):
            verify_instr(ins)

    def test_missing_target(self):
        ins = Instr(Op.BLT, srcs=(int_reg(1), int_reg(2)))
        with pytest.raises(VerifyError):
            verify_instr(ins)

    def test_unknown_target_label(self):
        f = parse_function("function t:\nA:\n  jmp Z\n")
        with pytest.raises(VerifyError):
            verify_function(f)

    def test_jump_must_terminate_block(self):
        f = Function("t")
        b = f.add_block("A")
        b.append(Instr(Op.JMP, target=Label("A")))
        b.append(Instr(Op.NOP))
        with pytest.raises(VerifyError):
            verify_function(f)

    def test_duplicate_instruction_object(self):
        f = Function("t")
        b = f.add_block("A")
        ins = Instr(Op.NOP)
        b.append(ins)
        b.append(ins)
        with pytest.raises(VerifyError):
            verify_function(f)


class TestBuilder:
    def test_simple_loop_builds_and_verifies(self):
        fb = FunctionBuilder("t")
        fb.block("entry")
        i = fb.mov(0)
        fb.block("L1")
        x = fb.ldf("A", i)
        y = fb.fmul(x, 2.0)
        fb.stf("B", i, y)
        fb.add(i, 4, dest=i)
        fb.blt(i, 40, "L1")
        fb.block("exit")
        fb.nop()
        f = fb.build()
        assert f.n_instrs() == 7

    def test_dest_class_checked(self):
        fb = FunctionBuilder("t")
        fb.block("entry")
        with pytest.raises(ValueError):
            fb.add(1, 2, dest=fp_reg(1))
