"""Unit tests for the mini-IR containers and the kernel builder."""

import pytest

from repro.errors import IRError
from repro.ir import (
    BasicBlock,
    Const,
    Function,
    Instruction,
    KernelBuilder,
    Module,
    Param,
    Reg,
    SharedDecl,
    as_value,
)


class TestValues:
    def test_reg_renders_with_percent(self):
        assert str(Reg("x")) == "%x"

    def test_const_bool_renders_as_keyword(self):
        assert str(Const(True)) == "true"
        assert str(Const(False)) == "false"

    def test_as_value_coerces_strings_and_numbers(self):
        assert as_value("foo") == Reg("foo")
        assert as_value(3) == Const(3)
        assert as_value(2.5) == Const(2.5)

    def test_as_value_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            as_value(object())

    def test_reg_requires_nonempty_name(self):
        with pytest.raises(ValueError):
            Reg("")


class TestInstruction:
    def test_requires_destination_when_opcode_produces_value(self):
        with pytest.raises(ValueError):
            Instruction("add", dest=None, operands=[Const(1), Const(2)])

    def test_rejects_destination_for_void_opcodes(self):
        with pytest.raises(ValueError):
            Instruction("store", dest="x", operands=[Reg("b"), Const(0), Const(1)])

    def test_arity_is_enforced(self):
        with pytest.raises(ValueError):
            Instruction("add", dest="x", operands=[Const(1)])

    def test_clone_preserves_uid_duplicate_does_not(self):
        inst = Instruction("add", dest="x", operands=[Const(1), Const(2)])
        assert inst.clone().uid == inst.uid
        assert inst.duplicate().uid != inst.uid

    def test_replace_operand(self):
        inst = Instruction("add", dest="x", operands=[Reg("a"), Reg("b")])
        inst.replace_operand(1, Const(5))
        assert inst.operands[1] == Const(5)

    def test_replace_operand_out_of_range(self):
        inst = Instruction("add", dest="x", operands=[Reg("a"), Reg("b")])
        with pytest.raises(IndexError):
            inst.replace_operand(2, Const(5))

    def test_branch_targets(self):
        br = Instruction("br", attrs={"target": "done"})
        cond = Instruction("condbr", operands=[Reg("p")],
                           attrs={"true_target": "a", "false_target": "b"})
        ret = Instruction("ret")
        assert br.branch_targets() == ("done",)
        assert cond.branch_targets() == ("a", "b")
        assert ret.branch_targets() == ()

    def test_used_and_defined_registers(self):
        inst = Instruction("add", dest="x", operands=[Reg("a"), Const(2)])
        assert inst.used_registers() == ("a",)
        assert inst.defined_register() == "x"


class TestContainers:
    def test_duplicate_block_label_rejected(self):
        func = Function("k")
        func.add_block(BasicBlock("entry"))
        with pytest.raises(IRError):
            func.add_block(BasicBlock("entry"))

    def test_duplicate_param_rejected(self):
        with pytest.raises(IRError):
            Function("k", params=[Param("a"), Param("a")])

    def test_entry_is_first_block(self):
        func = Function("k")
        func.add_block(BasicBlock("first"))
        func.add_block(BasicBlock("second"))
        assert func.entry_label == "first"

    def test_find_instruction_by_uid(self):
        func = Function("k")
        block = func.add_block(BasicBlock("entry"))
        inst = block.append(Instruction("add", dest="x", operands=[Const(1), Const(2)]))
        block.append(Instruction("ret"))
        found = func.find_instruction(inst.uid)
        assert found is not None
        found_block, index = found
        assert found_block is block and index == 0
        assert func.find_instruction(10**9) is None

    def test_module_clone_is_deep(self):
        func = Function("k")
        block = func.add_block(BasicBlock("entry"))
        inst = block.append(Instruction("add", dest="x", operands=[Const(1), Const(2)]))
        block.append(Instruction("ret"))
        module = Module("m")
        module.add_function(func)
        clone = module.clone()
        clone_inst = clone.get_function("k").blocks["entry"].instructions[0]
        clone_inst.replace_operand(0, Const(99))
        assert inst.operands[0] == Const(1)
        assert clone_inst.uid == inst.uid

    def test_module_fork_is_copy_on_write(self):
        module = Module("m")
        for name in ("a", "b"):
            func = module.add_function(Function(name))
            func.add_block(BasicBlock("entry")).append(Instruction("ret"))
        fork = module.fork()
        assert fork.function_order() == ("a", "b")
        assert fork.get_function("a") is module.get_function("a")
        written = fork.writable("a")
        assert written is not module.get_function("a")
        assert fork.writable("a") is written  # cloned once, then owned
        assert fork.get_function("a") is written
        assert fork.get_function("b") is module.get_function("b")
        written.blocks["entry"].insert(0, Instruction("nop"))
        assert module.get_function("a").instruction_count() == 1
        assert module.writable("a") is module.get_function("a")  # owns all

    def test_instruction_count(self):
        func = Function("k")
        block = func.add_block(BasicBlock("entry"))
        block.append(Instruction("nop"))
        block.append(Instruction("ret"))
        assert func.instruction_count() == 2

    def test_shared_decl_validation(self):
        with pytest.raises(ValueError):
            SharedDecl("sh", 0)
        with pytest.raises(ValueError):
            SharedDecl("sh", 8, dtype="double")


class TestBuilder:
    def test_builder_produces_terminated_blocks(self):
        b = KernelBuilder("k", params=[Param("out", "buffer"), Param("n", "scalar")])
        b.block("entry")
        tid = b.tid_x()
        b.store(b.reg("out"), tid, tid)
        func = b.build()
        assert func.blocks["entry"].terminator is not None
        assert func.blocks["entry"].terminator.opcode == "ret"

    def test_if_then_creates_merge_block(self):
        b = KernelBuilder("k", params=[Param("out", "buffer")])
        b.block("entry")
        tid = b.tid_x()
        cond = b.lt(tid, 4)
        with b.if_then(cond):
            b.store(b.reg("out"), tid, 1)
        b.ret()
        func = b.build()
        labels = func.block_order()
        assert len(labels) == 3
        assert func.blocks[labels[0]].terminator.opcode == "condbr"

    def test_if_then_else_merges(self):
        b = KernelBuilder("k", params=[Param("out", "buffer")])
        b.block("entry")
        tid = b.tid_x()
        cond = b.lt(tid, 4)
        then_cm, else_cm = b.if_then_else(cond)
        with then_cm:
            b.store(b.reg("out"), tid, 1)
        with else_cm:
            b.store(b.reg("out"), tid, 2)
        b.ret()
        func = b.build()
        assert len(func.block_order()) == 4

    def test_for_range_structure(self):
        b = KernelBuilder("k", params=[Param("out", "buffer")])
        b.block("entry")
        with b.for_range("i", 0, 8) as i:
            b.store(b.reg("out"), i, i)
        b.ret()
        func = b.build()
        # entry, header, body, exit
        assert len(func.block_order()) == 4

    def test_source_locations_attached(self):
        b = KernelBuilder("k", params=[Param("out", "buffer")], source_file="demo.cu")
        b.block("entry")
        b.loc(42)
        tid = b.tid_x()
        b.store(b.reg("out"), tid, tid)
        func = b.build()
        first = func.blocks["entry"].instructions[0]
        assert first.loc is not None
        assert first.loc.file == "demo.cu" and first.loc.line == 42

    def test_fresh_names_do_not_collide(self):
        b = KernelBuilder("k", params=[Param("out", "buffer")])
        b.block("entry")
        regs = {b.add(1, 2).name for _ in range(50)}
        assert len(regs) == 50
