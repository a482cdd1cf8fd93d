"""The instruction table in seam.wasm.opcodes: its parse, and each row's
stack effect and memory requirement checked against the reference engine."""

import pytest

from seam.errors import SeamError
from seam.wasm import decode_module, validate_module
from seam.wasm import opcodes as op

from conftest import have_node
from diffharness import node_validates
from wasmgen import ModuleBuilder

_IMMEDIATE = {op.IMM_I32: 0, op.IMM_I64: 0, op.IMM_F32: 0.0, op.IMM_F64: 0.0}


def test_table_has_one_row_per_operator():
    assert len(op.OPS) == 185
    assert len(op.BY_BYTE) == 177 and len(op.BY_FC) == 8
    assert set(op.OPS.values()) == set(op.BY_BYTE.values()) | set(op.BY_FC.values())
    assert op.BY_BYTE[0x6A].c == "{0} + {1}"
    assert op.BY_FC[0].name == "i32.trunc_sat_f32_s"


@pytest.mark.parametrize("row, error", [
    ("6A   i32.add   imm      i32 i32 -> i32  {0} + {1}", "unknown immediate"),
    ("6A   i32.add   -        i32 i33 -> i32  {0} + {1}", "bad stack effect"),
    ("6A   i32.add   -        i32 i32 -> i32", "C template"),
    ("0C   br        u32      -               {0}", "C template"),
    ("41   i32.const s32      -> i32          {0}", "C template"),
    ("28   i32.peek  memarg   i32 -> i32      *{p}", "no access width"),
])
def test_malformed_rows_are_refused(row, error):
    with pytest.raises(ValueError, match=error):
        op._parse(row)


def test_access_width_comes_from_the_name_or_the_type():
    widths = {name: row.width for name, row in op.OPS.items() if row.width}
    assert len(widths) == 23
    assert widths["i64.load8_u"] == 1 and widths["i32.store16"] == 2
    assert widths["i64.load32_s"] == 4 and widths["f64.store"] == 8 and widths["f32.load"] == 4
    assert {name for name, row in op.OPS.items() if row.memory} == set(widths) | {"memory.size", "memory.grow"}


def _operator_module(row: op.Op, memory: bool) -> bytes:
    """One exported function that takes the row's operands as parameters
    and returns what the row leaves."""
    if row.width:
        instr = (row.name, 0, 0)
    elif row.imm in _IMMEDIATE:
        instr = (row.name, _IMMEDIATE[row.imm])
    else:
        instr = (row.name,)
    b = ModuleBuilder()
    if memory:
        b.set_memory(1)
    body = [("local.get", k) for k in range(len(row.params))] + [instr]
    b.add_func(list(row.params), list(row.results), [], body, export="f")
    return b.build()


@pytest.mark.skipif(not have_node(), reason="reference engine unavailable")
def test_every_operator_validates_like_the_reference(tmp_path):
    """Every row with a stack effect, with a memory and without one: seam
    accepts exactly the modules the reference engine accepts."""
    cases = [(row.name, memory) for row in op.OPS.values() if row.params is not None
             for memory in (True, False)]
    corpus = [_operator_module(op.OPS[name], memory) for name, memory in cases]
    assert len(corpus) == 330
    ref = node_validates(corpus, tmp_path)
    disagreements = []
    for (name, memory), data, ref_ok in zip(cases, corpus, ref):
        try:
            validate_module(decode_module(data))
            mine_ok = True
        except SeamError:
            mine_ok = False
        if mine_ok != ref_ok:
            disagreements.append(f"{name} {'with' if memory else 'without'} memory: "
                                 f"seam {'accepts' if mine_ok else 'rejects'}")
    assert not disagreements, disagreements
