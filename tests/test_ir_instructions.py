"""Unit tests for the IR instruction set."""

import pickle

import pytest

from repro.errors import IRError
from repro.ir import (
    BARRIER_OPS,
    TERMINATORS,
    Barrier,
    BlockRef,
    FuncRef,
    Imm,
    Instruction,
    Opcode,
    Reg,
    make,
)


class TestOperands:
    def test_reg_identity(self):
        assert Reg("a") == Reg("a")
        assert Reg("a") != Reg("b")
        assert hash(Reg("a")) == hash(Reg("a"))

    def test_operand_reprs(self):
        assert repr(Reg("x")) == "%x"
        assert repr(Barrier("b0")) == "$b0"
        assert repr(BlockRef("bb")) == "^bb"
        assert repr(FuncRef("f")) == "@f"

    def test_imm_holds_ints_and_floats(self):
        assert Imm(3).value == 3
        assert Imm(2.5).value == 2.5


class TestOpcodeHash:
    def test_unpickled_members_are_the_members(self):
        table = {opcode: opcode.value for opcode in Opcode}
        for opcode in Opcode:
            copy = pickle.loads(pickle.dumps(opcode))
            assert copy is opcode
            assert copy in table and table[copy] == opcode.value
        copies = pickle.loads(pickle.dumps(BARRIER_OPS))
        assert copies == BARRIER_OPS
        assert Opcode.BSYNC in copies and Opcode.ADD not in copies


class TestInstruction:
    def test_requires_opcode_enum(self):
        with pytest.raises(IRError):
            Instruction("add", dst=Reg("x"))

    def test_uses_and_defs(self):
        instr = make(Opcode.ADD, Reg("d"), Reg("a"), Imm(1))
        assert instr.defs() == [Reg("d")]
        assert instr.uses() == [Reg("a")]

    def test_no_dst_defs_empty(self):
        instr = make(Opcode.ST, None, Reg("addr"), Reg("v"))
        assert instr.defs() == []
        assert set(instr.uses()) == {Reg("addr"), Reg("v")}

    def test_terminator_property(self):
        for opcode in TERMINATORS:
            assert Instruction(opcode).is_terminator
        assert not make(Opcode.ADD, Reg("d"), Reg("a"), Reg("b")).is_terminator

    def test_block_targets_of_cbr(self):
        instr = make(Opcode.CBR, None, Reg("p"), BlockRef("t"), BlockRef("f"))
        assert instr.block_targets() == ["t", "f"]

    def test_replace_block_target(self):
        instr = make(Opcode.CBR, None, Reg("p"), BlockRef("t"), BlockRef("f"))
        instr.replace_block_target("t", "mid")
        assert instr.block_targets() == ["mid", "f"]

    def test_replace_leaves_other_targets(self):
        instr = make(Opcode.BRA, None, BlockRef("x"))
        instr.replace_block_target("y", "z")
        assert instr.block_targets() == ["x"]

    def test_barrier_operand(self):
        instr = make(Opcode.BSSY, None, Barrier("b0"))
        assert instr.barrier_operand() == Barrier("b0")

    def test_barrier_operand_register_indirect(self):
        instr = make(Opcode.BSYNC, None, Reg("bt"))
        assert instr.barrier_operand() == Reg("bt")

    def test_barrier_operand_on_non_barrier_op_raises(self):
        with pytest.raises(IRError):
            make(Opcode.ADD, Reg("d"), Reg("a"), Reg("b")).barrier_operand()

    def test_barrier_operand_missing_raises(self):
        with pytest.raises(IRError):
            Instruction(Opcode.BSSY).barrier_operand()

    def test_is_barrier_op(self):
        for opcode in BARRIER_OPS:
            assert Instruction(opcode, dst=Reg("d") if opcode is Opcode.BARCNT else None,
                               operands=[Barrier("b")]).is_barrier_op
        assert make(Opcode.BMOV, Reg("d"), Barrier("b")).is_barrier_op

    def test_copy_is_deep_enough(self):
        instr = make(Opcode.ADD, Reg("d"), Reg("a"), Imm(1), origin="sr")
        clone = instr.copy()
        clone.operands[1] = Imm(2)
        clone.attrs["origin"] = "x"
        assert instr.operands[1] == Imm(1)
        assert instr.attrs["origin"] == "sr"

    def test_equality_ignores_attrs(self):
        a = make(Opcode.ADD, Reg("d"), Reg("a"), Imm(1), origin="sr")
        b = make(Opcode.ADD, Reg("d"), Reg("a"), Imm(1))
        assert a == b
        assert hash(a) == hash(b)

    def test_repr_shows_dst_and_operands(self):
        text = repr(make(Opcode.ADD, Reg("d"), Reg("a"), Imm(1)))
        assert "%d" in text and "add" in text
