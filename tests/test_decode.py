import pytest

from seam.errors import MalformedBinary, UnsupportedFeature
from seam.wasm import decode_module
from seam.wasm.model import FuncType

from wasmgen import ModuleBuilder, empty_module


def test_empty_module_decodes_to_empty():
    m = decode_module(empty_module())
    assert m.types == []
    assert m.imports == []
    assert m.functions == []
    assert m.memory is None
    assert m.exports == []


def test_canonical_wasi_shape():
    # the canonical input: one WASI import plus an exported _start
    b = ModuleBuilder()
    fd_write = b.add_import("wasi_snapshot_preview1", "fd_write", ["i32", "i32", "i32", "i32"], ["i32"])
    b.add_func([], [], [], [("i32.const", 0), ("drop",)], export="_start")
    m = decode_module(b.build())
    assert len(m.imports) == 1
    assert m.imports[0].module == "wasi_snapshot_preview1"
    assert m.imports[0].name == "fd_write"
    assert len(m.exports) == 1
    assert m.exports[0].name == "_start"
    assert m.func_type(fd_write) == FuncType(("i32", "i32", "i32", "i32"), ("i32",))


def test_version_2_rejected():
    data = b"\x00asm\x02\x00\x00\x00"
    with pytest.raises(MalformedBinary) as ei:
        decode_module(data)
    assert "version" in str(ei.value)


def test_bad_magic_rejected():
    with pytest.raises(MalformedBinary):
        decode_module(b"\x00bsm\x01\x00\x00\x00")


def test_empty_input_rejected():
    with pytest.raises(MalformedBinary):
        decode_module(b"")


def test_truncated_section_rejected():
    b = ModuleBuilder()
    b.add_func([], ["i32"], [], [("i32.const", 7)], export="f")
    data = b.build()
    with pytest.raises(MalformedBinary):
        decode_module(data[:-3])


def test_section_order_enforced():
    # memory section before type section
    crafted = bytearray(b"\x00asm\x01\x00\x00\x00")
    mem_payload = b"\x01\x00\x01"
    type_payload = b"\x01\x60\x00\x00"
    crafted += bytes([5, len(mem_payload)]) + mem_payload
    crafted += bytes([1, len(type_payload)]) + type_payload
    with pytest.raises(MalformedBinary) as ei:
        decode_module(bytes(crafted))
    assert "out of order" in str(ei.value)


def test_duplicate_section_rejected():
    crafted = bytearray(b"\x00asm\x01\x00\x00\x00")
    type_payload = b"\x01\x60\x00\x00"
    crafted += bytes([1, len(type_payload)]) + type_payload
    crafted += bytes([1, len(type_payload)]) + type_payload
    with pytest.raises(MalformedBinary):
        decode_module(bytes(crafted))


def test_overlong_leb_rejected():
    # u32 with 6 bytes of continuation
    crafted = b"\x00asm\x01\x00\x00\x00" + bytes([1]) + b"\x86\x80\x80\x80\x80\x80\x00"
    with pytest.raises(MalformedBinary) as ei:
        decode_module(crafted)
    assert "too long" in str(ei.value) or "unexpected" in str(ei.value)


def test_leb_spare_bits_rejected():
    # section size u32 encoded in 5 bytes with nonzero spare bits in the last
    crafted = b"\x00asm\x01\x00\x00\x00" + bytes([1]) + b"\x80\x80\x80\x80\x70"
    with pytest.raises(MalformedBinary):
        decode_module(crafted)


def test_structured_instruction_tree():
    b = ModuleBuilder()
    b.add_func(
        ["i32"], ["i32"], ["i32"],
        [
            ("block", "i32", [
                ("local.get", 0),
                ("if", "i32", [("i32.const", 1)], [("i32.const", 2)]),
            ]),
        ],
        export="f",
    )
    m = decode_module(b.build())
    # structure is marked in one flat list, closed by the function's end
    assert m.functions[0].body == [
        ("block", "i32"),
        ("local.get", 0),
        ("if", "i32"), ("i32.const", 1), ("else",), ("i32.const", 2), ("end",),
        ("end",),
        ("end",),
    ]


@pytest.mark.parametrize("code", [
    b"\x05",                          # else outside any if
    b"\x02\x40\x05\x0b",              # else inside a block
    b"\x41\x01\x04\x40\x05\x05\x0b",  # a second else
])
def test_stray_else_rejected(code):
    b = ModuleBuilder()
    b.add_func([], [], [], code)
    with pytest.raises(MalformedBinary, match="unexpected else"):
        decode_module(b.build())


def test_code_after_the_final_end_rejected():
    b = ModuleBuilder()
    b.add_func([], [], [], b"\x0b\x01")  # end, then a nop inside the body's size
    with pytest.raises(MalformedBinary, match="size mismatch"):
        decode_module(b.build())


@pytest.mark.parametrize("init, error", [
    (("block", None, []), MalformedBinary),             # one instruction, not a constant
    (("raw", b"\x41\x01\x41\x02"), UnsupportedFeature),  # two constants
])
def test_const_expr_error_classes(init, error):
    b = ModuleBuilder()
    b.add_global("i32", False, init)
    with pytest.raises(error):
        decode_module(b.build())


def test_float_consts_decoded_bit_exact():
    nan_bits = 0x7FC00001
    b = ModuleBuilder()
    b.add_func([], ["f32"], [], [("f32.const_bits", nan_bits)], export="f")
    m = decode_module(b.build())
    assert m.functions[0].body[0] == ("f32.const", nan_bits)


def test_memory_limits():
    b = ModuleBuilder()
    b.set_memory(2, 17)
    m = decode_module(b.build())
    assert m.memory.initial_pages == 2
    assert m.memory.max_pages == 17
    assert m.memory.effective_max == 17

    b2 = ModuleBuilder()
    b2.set_memory(1)
    assert decode_module(b2.build()).memory.effective_max == 65536


def test_memory_over_ceiling_rejected():
    b = ModuleBuilder()
    b.set_memory(65537)
    with pytest.raises(MalformedBinary):
        decode_module(b.build())


def test_memory_min_above_max_rejected():
    b = ModuleBuilder()
    b.set_memory(5, 2)
    with pytest.raises(MalformedBinary):
        decode_module(b.build())


@pytest.mark.parametrize(
    "payload,feature",
    [
        (b"\x01\x60\x00\x02\x7f\x7f", "multi-value"),  # two results
        (b"\x01\x60\x01\x7b\x00", "simd"),  # v128 param
    ],
)
def test_unsupported_type_features(payload, feature):
    crafted = b"\x00asm\x01\x00\x00\x00" + bytes([1, len(payload)]) + payload
    with pytest.raises(UnsupportedFeature) as ei:
        decode_module(crafted)
    assert ei.value.name == feature


def test_non_function_import_rejected():
    # memory import: module "env", kind 0x02
    payload = (
        bytes([1]) + b"\x03env" + b"\x03mem" + b"\x02" + b"\x00\x01"
    )
    crafted = (
        b"\x00asm\x01\x00\x00\x00"
        + bytes([2, len(payload)])
        + payload
    )
    with pytest.raises(UnsupportedFeature) as ei:
        decode_module(crafted)
    assert "import" in ei.value.name


def test_threads_and_simd_opcodes_rejected():
    b = ModuleBuilder()
    b.add_func([], [], [], [("raw", b"\xfe\x00\x00\x00")])  # atomic prefix
    with pytest.raises(UnsupportedFeature) as ei:
        decode_module(b.build())
    assert ei.value.name == "threads"


def test_bulk_memory_opcode_rejected():
    b = ModuleBuilder()
    b.set_memory(1)
    b.add_func([], [], [], [("raw", b"\xfc\x0a\x00\x00")])  # memory.copy
    with pytest.raises(UnsupportedFeature) as ei:
        decode_module(b.build())
    assert ei.value.name == "bulk-memory"


def test_unknown_opcode_is_malformed():
    b = ModuleBuilder()
    b.add_func([], [], [], [("raw", b"\x27")])
    with pytest.raises(MalformedBinary):
        decode_module(b.build())


def test_function_body_size_mismatch():
    b = ModuleBuilder()
    b.add_func([], [], [], [("nop",)])
    data = bytearray(b.build())
    # grow the declared body size without adding bytes
    # code section: id 10; find it
    idx = data.find(bytes([10]))
    with pytest.raises(MalformedBinary):
        decode_module(bytes(data[: idx + 2]) + b"\x7f" + bytes(data[idx + 3 :]))


def test_export_unknown_index_rejected():
    b = ModuleBuilder()
    b.add_export("f", "func", 3)
    with pytest.raises(MalformedBinary):
        decode_module(b.build())


def test_code_func_count_mismatch():
    crafted = bytearray(b"\x00asm\x01\x00\x00\x00")
    crafted += bytes([1, 4]) + b"\x01\x60\x00\x00"  # one type
    crafted += bytes([3, 2]) + b"\x01\x00"  # one func decl
    # no code section
    with pytest.raises(MalformedBinary) as ei:
        decode_module(bytes(crafted))
    assert "inconsistent" in str(ei.value)


def test_custom_sections_skipped():
    b = ModuleBuilder()
    b.add_func([], [], [], [("nop",)], export="f")
    data = bytearray(b.build())
    name = b"\x04note"
    payload = name + b"arbitrary bytes"
    custom = bytes([0, len(payload)]) + payload
    # custom sections may appear anywhere: inject after the header
    data[8:8] = custom
    m = decode_module(bytes(data))
    assert m.exports[0].name == "f"


def test_data_segment_decoding():
    b = ModuleBuilder()
    b.set_memory(1)
    b.add_data(16, b"hello")
    m = decode_module(b.build())
    assert m.data_segments[0].offset == ("i32.const", 16)
    assert m.data_segments[0].data == b"hello"


def test_table_and_elements():
    b = ModuleBuilder()
    f = b.add_func([], ["i32"], [], [("i32.const", 3)])
    b.set_table(4, 4)
    b.add_elem(1, [f, f])
    m = decode_module(b.build())
    assert m.table.initial == 4
    assert m.elements[0].func_indices == (f, f)


def test_start_section():
    b = ModuleBuilder()
    f = b.add_func([], [], [], [("nop",)])
    b.set_start(f)
    assert decode_module(b.build()).start == f


def test_elem_without_table_rejected():
    b = ModuleBuilder()
    b.add_func([], [], [], [("nop",)])
    b.add_elem(0, [0])
    with pytest.raises(MalformedBinary):
        decode_module(b.build())


def test_invalid_utf8_name_rejected():
    payload = bytes([1]) + bytes([2, 0xC3, 0x28]) + b"\x01x" + b"\x00\x00"
    crafted = b"\x00asm\x01\x00\x00\x00" + bytes([1, 4]) + b"\x01\x60\x00\x00"
    crafted += bytes([2, len(payload)]) + payload
    with pytest.raises(MalformedBinary) as ei:
        decode_module(crafted)
    assert "UTF-8" in str(ei.value)
