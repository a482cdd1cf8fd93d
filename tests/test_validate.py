import pytest

from seam.errors import ValidationError
from seam.wasm import decode_module, validate_module

from wasmgen import ModuleBuilder


def check(builder: ModuleBuilder):
    return validate_module(decode_module(builder.build()))


def test_simple_add_valid():
    b = ModuleBuilder()
    b.add_func([], ["i32"], [], [("i32.const", 1), ("i32.const", 2), ("i32.add",)], export="f")
    vm = check(b)
    assert vm.module.exports[0].name == "f"


def test_wrong_result_type_rejected():
    b = ModuleBuilder()
    b.add_func([], ["i32"], [], [("f64.const", 1.0)], export="f")
    with pytest.raises(ValidationError) as ei:
        check(b)
    assert "expected i32" in str(ei.value)


def test_branch_depth_out_of_range():
    b = ModuleBuilder()
    b.add_func([], [], [], [("block", None, [("block", None, [("br", 5)])])])
    with pytest.raises(ValidationError) as ei:
        check(b)
    assert "depth 5" in str(ei.value)
    assert ei.value.instr_index == 2  # the br, counted in the flat body


def test_stack_underflow():
    b = ModuleBuilder()
    b.add_func([], [], [], [("i32.add",)])
    with pytest.raises(ValidationError) as ei:
        check(b)
    assert "underflow" in str(ei.value)


def test_leftover_value_rejected():
    b = ModuleBuilder()
    b.add_func([], [], [], [("i32.const", 1)])
    with pytest.raises(ValidationError):
        check(b)


def test_unreachable_makes_stack_polymorphic():
    b = ModuleBuilder()
    b.add_func([], ["i32"], [], [("unreachable",), ("i32.add",)], export="f")
    check(b)


def test_code_after_br_is_polymorphic():
    # dead code pops from a polymorphic stack, but concrete results still
    # have to match the block type
    b = ModuleBuilder()
    b.add_func([], ["i32"], [], [
        ("block", "i32", [("i32.const", 1), ("br", 0), ("i32.add",)]),
    ], export="f")
    check(b)


def test_dead_code_result_still_typechecked():
    b = ModuleBuilder()
    b.add_func([], ["i32"], [], [
        ("block", "i32", [("i32.const", 1), ("br", 0), ("f32.add",)]),
    ], export="f")
    with pytest.raises(ValidationError):
        check(b)


def test_if_without_else_needs_empty_result():
    b = ModuleBuilder()
    b.add_func(["i32"], ["i32"], [], [
        ("local.get", 0),
        ("if", "i32", [("i32.const", 1)], []),
    ], export="f")
    with pytest.raises(ValidationError):
        check(b)


def test_select_type_mismatch():
    b = ModuleBuilder()
    b.add_func([], ["i32"], [], [
        ("i32.const", 1), ("f64.const", 2.0), ("i32.const", 0), ("select",),
    ])
    with pytest.raises(ValidationError) as ei:
        check(b)
    assert "select" in str(ei.value)


def test_local_index_out_of_range():
    b = ModuleBuilder()
    b.add_func(["i32"], [], ["i64"], [("local.get", 2), ("drop",)])
    with pytest.raises(ValidationError) as ei:
        check(b)
    assert "local 2" in str(ei.value)


def test_global_set_immutable_rejected():
    b = ModuleBuilder()
    b.add_global("i32", False, ("i32.const", 1))
    b.add_func([], [], [], [("i32.const", 2), ("global.set", 0)])
    with pytest.raises(ValidationError) as ei:
        check(b)
    assert "immutable" in str(ei.value)


def test_mutable_global_roundtrip_valid():
    b = ModuleBuilder()
    b.add_global("i64", True, ("i64.const", 9))
    b.add_func([], ["i64"], [], [("global.get", 0), ("i64.const", 1), ("i64.add",),
                                 ("global.set", 0), ("global.get", 0)], export="f")
    check(b)


def test_call_indirect_without_table():
    b = ModuleBuilder()
    t = b.type_index([], ["i32"])
    b.add_func([], ["i32"], [], [("i32.const", 0), ("call_indirect", t)])
    with pytest.raises(ValidationError) as ei:
        check(b)
    assert "table" in str(ei.value)


def test_call_arg_mismatch():
    b = ModuleBuilder()
    callee = b.add_func(["i64"], ["i64"], [], [("local.get", 0)])
    b.add_func([], ["i64"], [], [("i32.const", 1), ("call", callee)])
    with pytest.raises(ValidationError):
        check(b)


def test_br_table_inconsistent_targets():
    b = ModuleBuilder()
    b.add_func([], ["i32"], [], [
        ("block", "i32", [
            ("block", None, [
                ("i32.const", 1),
                ("i32.const", 0),
                ("br_table", [0], 1),
            ]),
            ("i32.const", 2),
        ]),
    ])
    with pytest.raises(ValidationError) as ei:
        check(b)
    assert "br_table" in str(ei.value)


def test_br_table_consistent_targets_valid():
    b = ModuleBuilder()
    b.add_func(["i32"], ["i32"], [], [
        ("block", "i32", [
            ("block", "i32", [
                ("i32.const", 7),
                ("local.get", 0),
                ("br_table", [0], 1),
            ]),
        ]),
    ], export="f")
    check(b)


def test_alignment_over_natural_rejected():
    b = ModuleBuilder()
    b.set_memory(1)
    b.add_func([], ["i32"], [], [("i32.const", 0), ("i32.load", 3, 0)])
    with pytest.raises(ValidationError) as ei:
        check(b)
    assert "alignment" in str(ei.value)


def test_memory_op_without_memory_rejected():
    b = ModuleBuilder()
    b.add_func([], ["i32"], [], [("i32.const", 0), ("i32.load", 2, 0)])
    with pytest.raises(ValidationError):
        check(b)


def test_duplicate_export_names_rejected():
    b = ModuleBuilder()
    f = b.add_func([], [], [], [("nop",)])
    b.add_export("dup", "func", f)
    b.add_export("dup", "func", f)
    with pytest.raises(ValidationError) as ei:
        check(b)
    assert "duplicate" in str(ei.value).lower()


def test_start_signature_enforced():
    b = ModuleBuilder()
    f = b.add_func([], ["i32"], [], [("i32.const", 1)])
    b.set_start(f)
    with pytest.raises(ValidationError) as ei:
        check(b)
    assert "start" in str(ei.value)


def test_global_init_type_mismatch():
    b = ModuleBuilder()
    b.add_global("i32", False, ("i64.const", 1))
    with pytest.raises(ValidationError):
        check(b)


def test_loop_label_takes_no_values():
    # br to a loop label re-enters the loop and so carries nothing, even
    # when the loop has a result type
    b = ModuleBuilder()
    b.add_func(["i32"], ["i32"], [], [
        ("loop", "i32", [
            ("local.get", 0),
            ("br_if", 0),
            ("i32.const", 42),
        ]),
    ], export="f")
    check(b)


def test_type_ids_deduplicate_structurally():
    b = ModuleBuilder()
    t0 = b.type_index(["i32"], ["i32"])
    b.add_func(["i32"], ["i32"], [], [("local.get", 0)])
    vm = check(b)
    assert len(vm.type_ids) == len(set(vm.type_ids.values()))
    assert min(vm.type_ids.values()) == 1
