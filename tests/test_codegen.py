"""Object-level contracts of the compiler plus executed spec examples.

Executed cases use the full pipeline (compile + link + SEAM_INVOKE) so the
guard-region bounds checks, the call-depth budget, grow semantics, and trap
classes are observed end to end.
"""

import json
import re
import struct
import subprocess

import pytest

from seam import elf
from seam.codegen import ALLOWED_UNRESOLVED, compile_module, write_artifact
from seam.codegen.ctext import CALL_DEPTH_LIMIT
from seam.driver import BuildPlan, cmd_build
from seam.errors import CodegenError, UnsupportedImportModule
from seam.wasm import decode_module, validate_module
from seam.wasm import opcodes as op

from diffharness import build_module_exe, run_exe_export
from wasmgen import ModuleBuilder, empty_module


def vm_of(b: ModuleBuilder):
    return validate_module(decode_module(b.build()))


def test_empty_module_object():
    art = compile_module(validate_module(decode_module(empty_module())))
    assert "wasm_init" in art.symbols.defined
    assert set(art.symbols.unresolved) == {"memory_base", "memory_grow", "runtime_trap"}


def test_canonical_wasi_module_symbols():
    b = ModuleBuilder()
    b.add_import("wasi_snapshot_preview1", "fd_write", ["i32", "i32", "i32", "i32"], ["i32"])
    b.add_func([], [], [], [
        ("i32.const", 1), ("i32.const", 0), ("i32.const", 0), ("i32.const", 4),
        ("call", 0), ("drop",),
    ], export="_start")
    art = compile_module(vm_of(b))
    assert {"wasm__start", "wasm_init"} <= set(art.symbols.defined)
    assert {"fd_write", "memory_base", "memory_grow"} <= set(art.symbols.unresolved)


def test_non_wasi_import_module_rejected():
    b = ModuleBuilder()
    b.add_import("env", "print", ["i32"], [])
    b.add_func([], [], [], [("i32.const", 1), ("call", 0)], export="_start")
    with pytest.raises(UnsupportedImportModule) as ei:
        compile_module(vm_of(b))
    assert ei.value.module == "env"


def test_manifest_deterministic():
    b = ModuleBuilder()
    b.add_import("wasi_snapshot_preview1", "random_get", ["i32", "i32"], ["i32"])
    b.set_memory(1, 4)
    b.add_func([], ["i32"], [], [("i32.const", 5)], export="run")
    vm = vm_of(b)
    a1 = compile_module(vm)
    a2 = compile_module(vm)
    assert a1.symbols.to_dict() == a2.symbols.to_dict()


def test_object_symbols_match_manifest(tmp_path):
    b = ModuleBuilder()
    b.add_import("wasi_snapshot_preview1", "clock_time_get", ["i32", "i64", "i32"], ["i32"])
    b.set_memory(2, 4)
    b.add_func([], ["i64"], [], [("i64.const", -1)], export="run")
    art = compile_module(vm_of(b))
    obj = tmp_path / "m.o"
    manifest = write_artifact(art, obj)
    defined, undefined = elf.symbols(obj)
    assert set(art.symbols.defined) <= defined
    assert undefined == set(art.symbols.unresolved)
    assert undefined <= ALLOWED_UNRESOLVED
    data = json.loads(manifest.read_text())
    assert set(data) == {"defined", "unresolved"}
    assert not (set(data["defined"]) & set(data["unresolved"]))


_EXOTIC_NAMES = ["run-fn.v2", "étage", 'a"b', "a\\b", '"', "\\", "\n"]


def test_exotic_export_names_become_exact_symbols(tmp_path):
    # names with dashes, dots, UTF-8, quotes, backslashes and control
    # characters still surface as wasm_<name> verbatim
    b = ModuleBuilder()
    for k, name in enumerate(_EXOTIC_NAMES):
        b.add_func([], ["i32"], [], [("i32.const", k + 1)], export=name)
    art = compile_module(vm_of(b))
    obj = tmp_path / "m.o"
    write_artifact(art, obj)
    defined, _ = elf.symbols(obj)
    assert {f"wasm_{name}" for name in _EXOTIC_NAMES} <= defined
    exe = build_module_exe(b.build(), tmp_path, "exotic")
    for k, name in enumerate(_EXOTIC_NAMES):
        assert run_exe_export(exe, name) == ("value", "i32", k + 1), name


def test_export_name_holding_nul_is_a_codegen_error():
    b = ModuleBuilder()
    b.add_func([], ["i32"], [], [("i32.const", 1)], export="a\0b")
    with pytest.raises(CodegenError, match="U\\+0000"):
        compile_module(vm_of(b))


def test_large_initial_memory(tmp_path):
    # 512 pages (32 MiB) committed at boot; data lands near the top
    b = ModuleBuilder()
    b.set_memory(512, 1024)
    top = 512 * 65536 - 8
    b.add_data(top, b"\x2a")
    b.add_func([], ["i32"], [], [("i32.const", top), ("i32.load8_u", 0, 0)], export="run")
    exe = build_module_exe(b.build(), tmp_path, "bigmem")
    assert run_exe_export(exe, "run") == ("value", "i32", 0x2A)


def test_export_name_colliding_with_reserved_symbol():
    b = ModuleBuilder()
    b.add_func([], [], [], [("nop",)], export="init")
    with pytest.raises(CodegenError):
        compile_module(vm_of(b))


# -- executed examples ------------------------------------------------------


def _mem_probe_module():
    """load/store probes over a 1-page memory with max 5 pages."""
    b = ModuleBuilder()
    b.set_memory(1, 5)
    b.add_func([], ["i32"], [], [("i32.const", 0), ("i32.load", 2, 0)], export="load0")
    b.add_func([], ["i32"], [], [("i32.const", 65535), ("i32.load8_u", 0, 0)], export="load_last")
    b.add_func([], ["i32"], [], [("i32.const", 65533), ("i32.load", 2, 0)], export="load_oob")
    b.add_func([], ["i32"], [], [("memory.size",)], export="size")
    b.add_func([], ["i32"], [], [("i32.const", 3), ("memory.grow",)], export="grow3")
    b.add_func([], ["i32"], [], [
        ("i32.const", 3), ("memory.grow",), ("drop",), ("memory.size",),
    ], export="size_after_grow")
    b.add_func([], ["i32"], [], [
        # at max: grow(4) + grow(1) -> failure sentinel
        ("i32.const", 4), ("memory.grow",), ("drop",),
        ("i32.const", 1), ("memory.grow",),
    ], export="grow_past_max")
    b.add_func([], ["i32"], [], [
        # newly committed pages read as zero
        ("i32.const", 1), ("memory.grow",), ("drop",),
        ("i32.const", 70000), ("i32.load", 2, 0),
    ], export="zero_fill")
    return b.build()


@pytest.fixture(scope="module")
def mem_exe(tmp_path_factory):
    td = tmp_path_factory.mktemp("memprobe")
    return build_module_exe(_mem_probe_module(), td, "memprobe")


def test_load_in_bounds(mem_exe):
    assert run_exe_export(mem_exe, "load0") == ("value", "i32", 0)


def test_load_last_byte_in_bounds(mem_exe):
    assert run_exe_export(mem_exe, "load_last") == ("value", "i32", 0)


def test_load_out_of_bounds_traps(mem_exe):
    assert run_exe_export(mem_exe, "load_oob") == ("trap", 1)


def test_memory_size(mem_exe):
    assert run_exe_export(mem_exe, "size") == ("value", "i32", 1)


def test_grow_returns_previous_size(mem_exe):
    assert run_exe_export(mem_exe, "grow3") == ("value", "i32", 1)
    assert run_exe_export(mem_exe, "size_after_grow") == ("value", "i32", 4)


def test_grow_past_max_returns_sentinel(mem_exe):
    assert run_exe_export(mem_exe, "grow_past_max") == ("value", "i32", 0xFFFFFFFF)


def test_grow_zero_fills(mem_exe):
    assert run_exe_export(mem_exe, "zero_fill") == ("value", "i32", 0)


def _trap_module():
    b = ModuleBuilder()
    b.add_func([], ["i32"], [], [("i32.const", 1), ("i32.const", 0), ("i32.div_u",)],
               export="divzero")
    b.add_func([], ["i32"], [], [("i32.const", -0x80000000), ("i32.const", -1), ("i32.div_s",)],
               export="overflow")
    b.add_func([], ["i32"], [], [("i32.const", -0x80000000), ("i32.const", -1), ("i32.rem_s",)],
               export="rem_min_no_trap")
    b.add_func([], [], [], [("unreachable",)], export="boom")
    b.add_func([], ["i64"], [], [("i64.const", 1), ("i64.const", 0), ("i64.rem_u",)],
               export="rem64zero")
    return b.build()


@pytest.fixture(scope="module")
def trap_exe(tmp_path_factory):
    td = tmp_path_factory.mktemp("traps")
    return build_module_exe(_trap_module(), td, "traps")


def test_div_by_zero_trap_class(trap_exe):
    assert run_exe_export(trap_exe, "divzero") == ("trap", 2)


def test_div_overflow_trap_class(trap_exe):
    assert run_exe_export(trap_exe, "overflow") == ("trap", 3)


def test_rem_intmin_minus1_is_zero(trap_exe):
    assert run_exe_export(trap_exe, "rem_min_no_trap") == ("value", "i32", 0)


def test_unreachable_trap_class(trap_exe):
    assert run_exe_export(trap_exe, "boom") == ("trap", 4)


def test_rem64_by_zero(trap_exe):
    assert run_exe_export(trap_exe, "rem64zero") == ("trap", 2)


def test_data_segment_out_of_bounds_traps_at_init(tmp_path):
    b = ModuleBuilder()
    b.set_memory(1, 1)
    b.add_data(65530, b"0123456789")  # spills past the single page
    b.add_func([], ["i32"], [], [("i32.const", 1)], export="run")
    exe = build_module_exe(b.build(), tmp_path, "dataoob")
    assert run_exe_export(exe, "run") == ("trap", 1)


def test_float_result_bits_exact(tmp_path):
    b = ModuleBuilder()
    b.add_func([], ["f32"], [], [
        ("f32.const", 1.5), ("f32.const", 0.25), ("f32.add",),
    ], export="addf")
    b.add_func([], ["f64"], [], [
        ("f64.const", -0.0), ("f64.const", 0.0), ("f64.min",),
    ], export="minzero")
    b.add_func([], ["i64"], [], [
        ("f64.const", -1.0), ("i64.reinterpret_f64",),
    ], export="negbits")
    exe = build_module_exe(b.build(), tmp_path, "floats")
    assert run_exe_export(exe, "addf") == ("value", "f32", struct.unpack("<I", struct.pack("<f", 1.75))[0])
    assert run_exe_export(exe, "minzero") == ("value", "f64", 0x8000000000000000)
    assert run_exe_export(exe, "negbits") == ("value", "i64", 0xBFF0000000000000)


def test_call_indirect_dispatch(tmp_path):
    b = ModuleBuilder()
    f1 = b.add_func([], ["i32"], [], [("i32.const", 11)])
    f2 = b.add_func([], ["i32"], [], [("i32.const", 22)])
    b.set_table(4, 4)
    b.add_elem(0, [f1, f2])
    t = b.type_index([], ["i32"])
    b.add_func(["i32"], ["i32"], [], [("local.get", 0), ("call_indirect", t)])
    b.add_func([], ["i32"], [], [("i32.const", 0), ("call_indirect", t)], export="slot0")
    b.add_func([], ["i32"], [], [("i32.const", 1), ("call_indirect", t)], export="slot1")
    b.add_func([], ["i32"], [], [("i32.const", 2), ("call_indirect", t)], export="null_slot")
    b.add_func([], ["i32"], [], [("i32.const", 9), ("call_indirect", t)], export="oob_slot")
    t64 = b.type_index([], ["i64"])
    b.add_func([], ["i64"], [], [("i32.const", 0), ("call_indirect", t64)], export="wrong_type")
    exe = build_module_exe(b.build(), tmp_path, "indirect")
    assert run_exe_export(exe, "slot0") == ("value", "i32", 11)
    assert run_exe_export(exe, "slot1") == ("value", "i32", 22)
    assert run_exe_export(exe, "null_slot") == ("trap", 5)
    assert run_exe_export(exe, "oob_slot") == ("trap", 6)
    assert run_exe_export(exe, "wrong_type") == ("trap", 5)


def loaded_index(slots: list[int], b: ModuleBuilder) -> list:
    """Memory 0 holds slots as u32s; the k-th entry's load is the operand
    sequence returned for each slot, so cc cannot fold the call_indirect
    that takes it, and the table array stays in the guest object."""
    b.set_memory(1, 1)
    b.add_data(0, struct.pack(f"<{len(slots)}I", *slots))
    return [[("i32.const", 4 * k), ("i32.load", 2, 0)] for k in range(len(slots))]


def build_with_tables(wasm: bytes, tmp_path, name: str) -> tuple:
    """The executable, and the sr_tab arrays its guest object defines."""
    (tmp_path / f"{name}.wasm").write_bytes(wasm)
    exe = tmp_path / name
    cmd_build(BuildPlan(wasm=tmp_path / f"{name}.wasm", output=exe, keep_intermediates=True))
    nm = subprocess.run(["nm", str(tmp_path / f"{name}.build" / "guest.o")],
                        capture_output=True, text=True, check=True).stdout
    return exe, {line.split()[-1] for line in nm.splitlines() if " sr_tab" in line}


def test_call_indirect_dispatch_through_a_loaded_index(tmp_path):
    b = ModuleBuilder()
    f1 = b.add_func([], ["i32"], [], [("i32.const", 11)])
    f2 = b.add_func([], ["i32"], [], [("i32.const", 22)])
    b.set_table(4, 4)
    b.add_elem(0, [f1, f2])
    t, t64 = b.type_index([], ["i32"]), b.type_index([], ["i64"])
    index = loaded_index([0, 1, 2, 9, 0], b)
    for k, name in enumerate(["slot0", "slot1", "null_slot", "oob_slot"]):
        b.add_func([], ["i32"], [], [*index[k], ("call_indirect", t)], export=name)
    b.add_func([], ["i64"], [], [*index[4], ("call_indirect", t64)], export="wrong_type")
    exe, tables = build_with_tables(b.build(), tmp_path, "indirect")
    assert tables
    assert run_exe_export(exe, "slot0") == ("value", "i32", 11)
    assert run_exe_export(exe, "slot1") == ("value", "i32", 22)
    assert run_exe_export(exe, "null_slot") == ("trap", 5)
    assert run_exe_export(exe, "oob_slot") == ("trap", 6)
    assert run_exe_export(exe, "wrong_type") == ("trap", 5)


def test_start_function_runs_before_start_export(tmp_path):
    b = ModuleBuilder()
    b.set_memory(1, 1)
    g = b.add_global("i32", True, ("i32.const", 0))
    init = b.add_func([], [], [], [("i32.const", 77), ("global.set", g)])
    b.set_start(init)
    b.add_func([], ["i32"], [], [("global.get", g)], export="run")
    exe = build_module_exe(b.build(), tmp_path, "startfn")
    assert run_exe_export(exe, "run") == ("value", "i32", 77)


def test_stack_exhaustion_traps(tmp_path):
    b = ModuleBuilder()
    rec = b.add_func(["i32"], ["i32"], [], [("local.get", 0), ("i32.const", 1),
                                            ("i32.add",), ("call", 0)])
    b.add_func([], ["i32"], [], [("i32.const", 0), ("call", rec)], export="run")
    exe = build_module_exe(b.build(), tmp_path, "stackex")
    assert run_exe_export(exe, "run") == ("trap", 7)



# -- guard region and call-depth budget ---------------------------------------

_ALIGN = {1: 0, 2: 1, 4: 2, 8: 3}
_CONST = {"i32": ("i32.const", 7), "i64": ("i64.const", 7),
          "f32": ("f32.const", 7.0), "f64": ("f64.const", 7.0)}
_WIDTH = {name: row.width for name, row in op.OPS.items() if row.width}
_LOADS = [n for n in _WIDTH if ".load" in n]


def _access(name: str, addr: int, offset: int = 0) -> list:
    """One memory access at addr+offset; a load leaves its value."""
    width = _WIDTH[name]
    body = [("i32.const", addr)]
    if ".store" in name:
        body.append(_CONST[op.OPS[name].params[1]])
    return body + [(name, _ALIGN[width], offset)]


def _access_sig(name: str) -> list:
    return list(op.OPS[name].results)


def _guard_module():
    """Every access width at the edge of committed memory (1 page of max 2),
    before and after memory.grow, plus dead loads and the largest address."""
    b = ModuleBuilder()
    b.set_memory(1, 2)
    grow = [("i32.const", 1), ("memory.grow",), ("drop",)]
    for name, width in _WIDTH.items():
        res = _access_sig(name)
        b.add_func([], res, [], _access(name, 65536 - width), export=f"{name}/last")
        # the access straddles the end: its first byte is in bounds
        b.add_func([], res, [], _access(name, 65536 - width, 1), export=f"{name}/edge")
        b.add_func([], res, [], grow + _access(name, 2 * 65536 - width, 1), export=f"{name}/grown_edge")
        b.add_func([], res, [], grow + _access(name, 2 * 65536 - width), export=f"{name}/grown_last")
    for name in _LOADS:
        b.add_func([], [], [], _access(name, 70000) + [("drop",)], export=f"{name}/dead")
    b.add_func([], ["i64"], [], [("i32.const", -1), ("i64.load", 3, 0xFFFFFFFF)], export="max_ea")
    b.add_func([], ["i64"], [], grow + [
        ("i32.const", 65536), ("i64.const", 0x0123456789ABCDEF), ("i64.store", 3, 100),
        ("i32.const", 65536), ("i64.load", 3, 100),
    ], export="grown_rw")
    return b.build()


@pytest.fixture(scope="module")
def guard_exe(tmp_path_factory):
    td = tmp_path_factory.mktemp("guard")
    return build_module_exe(_guard_module(), td, "guard")


def test_edge_accesses_of_every_width_trap(guard_exe):
    for name in _WIDTH:
        assert run_exe_export(guard_exe, f"{name}/last")[0] == "value", name
        assert run_exe_export(guard_exe, f"{name}/edge") == ("trap", 1), name


def test_edge_accesses_after_grow_trap(guard_exe):
    for name in _WIDTH:
        assert run_exe_export(guard_exe, f"{name}/grown_last")[0] == "value", name
        assert run_exe_export(guard_exe, f"{name}/grown_edge") == ("trap", 1), name


def test_grown_page_is_readable_and_writable(guard_exe):
    assert run_exe_export(guard_exe, "grown_rw") == ("value", "i64", 0x0123456789ABCDEF)


def test_largest_effective_address_traps(guard_exe):
    assert run_exe_export(guard_exe, "max_ea") == ("trap", 1)


def test_dead_out_of_bounds_loads_trap(guard_exe):
    for name in _LOADS:
        assert run_exe_export(guard_exe, f"{name}/dead") == ("trap", 1), name


def test_emitted_c_has_no_inline_checks_and_keeps_every_load():
    art = compile_module(validate_module(decode_module(_guard_module())))
    src = art.c_source
    assert "sr_mem_bytes" not in src and "sr_depth" not in src
    lines = src.splitlines()
    loads = [i for i, l in enumerate(lines) if re.match(r"\s+\w+ t\d+ = .*\(mb \+ a\d+\)", l)]
    n_loads = sum(".load" in name for name in _WIDTH) * 4 + len(_LOADS) + 2
    assert len(loads) == n_loads
    for i in loads:
        var = re.match(r"\s+\w+ (t\d+) =", lines[i]).group(1)
        assert re.fullmatch(rf"\s+SR_KEEP_[IF]\({var}\);", lines[i + 1]), lines[i:i + 2]
    assert '#define SR_KEEP_I(v) __asm__("" :: "r"(v))' in src


def _depth_module():
    """Export <kind><n> nests exactly n Wasm frames: itself, then chain(n - 1),
    which returns at 1 and otherwise calls itself with n - 1, directly or
    through the table."""
    b = ModuleBuilder()
    t = b.type_index(["i32"], ["i32"])
    chains = {}
    for kind, call in (("direct", ("call", 0)), ("indirect", ("call_indirect", t))):
        idx = len(chains)
        recurse = [("local.get", 0), ("i32.const", 1), ("i32.sub",)]
        recurse += [("i32.const", 1), call] if kind == "indirect" else [("call", idx)]
        chains[kind] = b.add_func(["i32"], ["i32"], [], [
            ("local.get", 0), ("i32.const", 1), ("i32.le_u",),
            ("if", "i32", [("local.get", 0)], recurse + [("i32.const", 1), ("i32.add",)]),
        ])
    b.set_table(2, 2)
    b.add_elem(0, [chains["direct"], chains["indirect"]])
    for kind, fi in chains.items():
        for n in (CALL_DEPTH_LIMIT, CALL_DEPTH_LIMIT + 1):
            b.add_func([], ["i32"], [], [("i32.const", n - 1), ("call", fi)], export=f"{kind}{n}")
    return b.build()


def test_call_depth_limit_is_exact(tmp_path):
    exe = build_module_exe(_depth_module(), tmp_path, "depth")
    for kind in ("direct", "indirect"):
        assert run_exe_export(exe, f"{kind}{CALL_DEPTH_LIMIT}") == ("value", "i32", CALL_DEPTH_LIMIT - 1)
        assert run_exe_export(exe, f"{kind}{CALL_DEPTH_LIMIT + 1}") == ("trap", 7)


# -- instantiation: tables, data and globals are link-time constants ----------


def _wasm_init_bytes(b: ModuleBuilder, tmp_path) -> int:
    obj = tmp_path / "init.o"
    write_artifact(compile_module(vm_of(b)), obj)
    return elf.function_sizes(obj)["wasm_init"]


def test_element_segment_past_table_end_traps_at_init(tmp_path):
    b = ModuleBuilder()
    f = b.add_func([], ["i32"], [], [("i32.const", 1)], export="run")
    b.set_table(4, 4)
    b.add_elem(0, [f])
    b.add_elem(3, [f, f])  # slot 4 does not exist
    exe = build_module_exe(b.build(), tmp_path, "elemoob")
    assert run_exe_export(exe, "run") == ("trap", 6)


def test_later_element_segment_overwrites_earlier(tmp_path):
    b = ModuleBuilder()
    fs = [b.add_func([], ["i32"], [], [("i32.const", v)]) for v in (11, 22, 33, 44)]
    b.set_table(4, 4)
    b.add_elem(0, fs[:3])
    b.add_elem(1, [fs[3]])
    t = b.type_index([], ["i32"])
    for slot in range(4):
        b.add_func([], ["i32"], [], [("i32.const", slot), ("call_indirect", t)], export=f"slot{slot}")
    exe = build_module_exe(b.build(), tmp_path, "elemover")
    assert [run_exe_export(exe, f"slot{s}") for s in range(3)] == [
        ("value", "i32", 11), ("value", "i32", 44), ("value", "i32", 33)]
    assert run_exe_export(exe, "slot3") == ("trap", 5)


def test_slot_called_under_its_own_and_another_signature(tmp_path):
    b = ModuleBuilder()
    add = b.add_func(["i32", "i32"], ["i32"], [], [("local.get", 0), ("local.get", 1), ("i32.add",)])
    b.set_table(1, 1)
    b.add_elem(0, [add])
    own = b.type_index(["i32", "i32"], ["i32"])
    other = b.type_index(["i32"], ["i32"])
    b.add_func([], ["i32"], [], [("i32.const", 40), ("i32.const", 2), ("i32.const", 0),
                                 ("call_indirect", own)], export="own")
    b.add_func([], ["i32"], [], [("i32.const", 40), ("i32.const", 0),
                                 ("call_indirect", other)], export="other")
    exe = build_module_exe(b.build(), tmp_path, "sigs")
    assert run_exe_export(exe, "own") == ("value", "i32", 42)
    assert run_exe_export(exe, "other") == ("trap", 5)


def test_later_element_segment_overwrites_earlier_through_a_loaded_index(tmp_path):
    b = ModuleBuilder()
    fs = [b.add_func([], ["i32"], [], [("i32.const", v)]) for v in (11, 22, 33, 44)]
    b.set_table(4, 4)
    b.add_elem(0, fs[:3])
    b.add_elem(1, [fs[3]])
    t = b.type_index([], ["i32"])
    index = loaded_index([0, 1, 2, 3], b)
    for slot in range(4):
        b.add_func([], ["i32"], [], [*index[slot], ("call_indirect", t)], export=f"slot{slot}")
    exe, tables = build_with_tables(b.build(), tmp_path, "elemover")
    assert tables
    assert [run_exe_export(exe, f"slot{s}") for s in range(3)] == [
        ("value", "i32", 11), ("value", "i32", 44), ("value", "i32", 33)]
    assert run_exe_export(exe, "slot3") == ("trap", 5)


def test_slot_called_under_its_own_and_another_signature_through_a_loaded_index(tmp_path):
    # a one-slot table leaves one possible index, which cc folds like a
    # constant, so slot 1 holds a function of the other signature
    b = ModuleBuilder()
    add = b.add_func(["i32", "i32"], ["i32"], [], [("local.get", 0), ("local.get", 1), ("i32.add",)])
    dbl = b.add_func(["i32"], ["i32"], [], [("local.get", 0), ("i32.const", 1), ("i32.shl",)])
    b.set_table(2, 2)
    b.add_elem(0, [add, dbl])
    own = b.type_index(["i32", "i32"], ["i32"])
    other = b.type_index(["i32"], ["i32"])
    index = loaded_index([0, 0, 1], b)
    b.add_func([], ["i32"], [], [("i32.const", 40), ("i32.const", 2), *index[0],
                                 ("call_indirect", own)], export="own")
    b.add_func([], ["i32"], [], [("i32.const", 40), *index[1],
                                 ("call_indirect", other)], export="other")
    b.add_func([], ["i32"], [], [("i32.const", 40), *index[2],
                                 ("call_indirect", other)], export="other1")
    exe, tables = build_with_tables(b.build(), tmp_path, "sigs")
    assert tables
    assert run_exe_export(exe, "own") == ("value", "i32", 42)
    assert run_exe_export(exe, "other") == ("trap", 5)
    assert run_exe_export(exe, "other1") == ("value", "i32", 80)


def test_table_ends_at_its_last_function(tmp_path):
    """Each signature's table stops after its last function, so the empty
    tail of a 65536-slot table costs neither slots nor relocations; an
    index past the cut traps 5 inside the Wasm table and 6 past it."""
    def module(size: int) -> bytes:
        b = ModuleBuilder()
        f0 = b.add_func([], ["i32"], [], [("i32.const", 11)])
        f1 = b.add_func(["i32"], ["i32"], [], [("local.get", 0), ("i32.const", 1), ("i32.add",)])
        b.set_table(size, size)
        b.add_elem(0, [f0, f1])
        ta, tb = b.type_index([], ["i32"]), b.type_index(["i32"], ["i32"])
        # each index is loaded from memory, so cc cannot fold the call away
        # and drop the table with it
        b.set_memory(1, 1)
        slots = (0, 1, 2, 65535, 65536)
        b.add_data(0, struct.pack(f"<{len(slots)}I", *slots))
        for k, slot in enumerate(slots):
            index = [("i32.const", 4 * k), ("i32.load", 2, 0)]
            b.add_func([], ["i32"], [], [*index, ("call_indirect", ta)], export=f"a{slot}")
            b.add_func([], ["i32"], [], [("i32.const", 41), *index, ("call_indirect", tb)],
                       export=f"b{slot}")
        return b.build()

    big = build_module_exe(module(65536), tmp_path, "big")
    small = build_module_exe(module(4), tmp_path, "small")
    assert big.stat().st_size <= 1.1 * small.stat().st_size
    assert run_exe_export(big, "a0") == ("value", "i32", 11)
    assert run_exe_export(big, "b1") == ("value", "i32", 42)
    for export, trap in [("a1", 5), ("b0", 5), ("a2", 5), ("b2", 5), ("a65535", 5), ("b65535", 5),
                         ("a65536", 6), ("b65536", 6)]:
        assert run_exe_export(big, export) == ("trap", trap), export
    assert [run_exe_export(small, e) for e in ("a2", "b2", "a65535")] == [("trap", 5), ("trap", 5), ("trap", 6)]


def test_later_data_segment_overwrites_earlier(tmp_path):
    b = ModuleBuilder()
    b.set_memory(1, 1)
    b.add_data(0, b"AAAAAAAA")
    b.add_data(2, b"BB")
    b.add_data(5, b"C")
    b.add_func([], ["i64"], [], [("i32.const", 0), ("i64.load", 3, 0)], export="run")
    exe = build_module_exe(b.build(), tmp_path, "dataover")
    assert run_exe_export(exe, "run") == ("value", "i64", int.from_bytes(b"AABBACAA", "little"))


@pytest.mark.parametrize("offset, outcome", [(65536, ("value", "i32", 1)), (65537, ("trap", 1))])
def test_empty_data_segment_at_memory_end(tmp_path, offset, outcome):
    b = ModuleBuilder()
    b.set_memory(1, 1)
    b.add_data(offset, b"")
    b.add_func([], ["i32"], [], [("i32.const", 1)], export="run")
    exe = build_module_exe(b.build(), tmp_path, "dataend")
    assert run_exe_export(exe, "run") == outcome


_GLOBAL_BITS = [
    ("i32", ("i32.const", -2), 0xFFFFFFFE),
    ("i64", ("i64.const", -(1 << 40)), (1 << 64) - (1 << 40)),
    ("f32", ("f32.const_bits", 0x3FC00000), 0x3FC00000),
    ("f32", ("f32.const_bits", 0x7FC12345), 0x7FC12345),  # quiet NaN, payload
    ("f32", ("f32.const_bits", 0xFF800001), 0xFF800001),  # signalling NaN, sign set
    ("f64", ("f64.const_bits", 0x8000000000000000), 0x8000000000000000),
    ("f64", ("f64.const_bits", 0x7FF8000000012345), 0x7FF8000000012345),
    ("f64", ("f64.const_bits", 0xFFF0000000000001), 0xFFF0000000000001),
]


def test_globals_read_back_bit_exact(tmp_path):
    b = ModuleBuilder()
    for k, (vt, init, _) in enumerate(_GLOBAL_BITS):
        for mutable in (False, True):
            g = b.add_global(vt, mutable, init)
            b.add_func([], [vt], [], [("global.get", g)], export=f"g{k}_{'mut' if mutable else 'const'}")
    exe = build_module_exe(b.build(), tmp_path, "globals")
    for k, (vt, _, bits) in enumerate(_GLOBAL_BITS):
        for kind in ("const", "mut"):
            assert run_exe_export(exe, f"g{k}_{kind}") == ("value", vt, bits), (k, kind)


def test_immutable_globals_are_constants():
    b = ModuleBuilder()
    b.add_global("i32", False, ("i32.const", 5))
    b.add_global("f64", True, ("f64.const_bits", 0x7FF8000000012345))
    src = compile_module(vm_of(b)).c_source
    assert "static const uint32_t g0 = 0x5u;" in src
    assert "static uint64_t g1 = 0x7ff8000000012345ull;" in src


def test_large_data_segment_reads_back_exactly(tmp_path):
    import random

    data = random.Random(256).randbytes(256 * 1024)
    at = 4096
    b = ModuleBuilder()
    b.set_memory(5, 5)
    b.add_data(at, data)
    # x = rotl(x, 5) ^ word over every 32-bit word of the segment
    b.add_func([], ["i32"], ["i32", "i32"], [
        ("block", None, [("loop", None, [
            ("local.get", 0), ("i32.const", len(data)), ("i32.ge_u",), ("br_if", 1),
            ("local.get", 1), ("i32.const", 5), ("i32.rotl",),
            ("local.get", 0), ("i32.load", 2, at), ("i32.xor",), ("local.set", 1),
            ("local.get", 0), ("i32.const", 4), ("i32.add",), ("local.set", 0),
            ("br", 0),
        ])]),
        ("local.get", 1),
    ], export="digest")
    exe = build_module_exe(b.build(), tmp_path, "bigdata")
    x = 0
    for k in range(0, len(data), 4):
        x = ((x << 5 | x >> 27) & 0xFFFFFFFF) ^ int.from_bytes(data[k:k + 4], "little")
    assert run_exe_export(exe, "digest") == ("value", "i32", x)


def test_wasm_init_code_does_not_grow_with_segments_or_slots(tmp_path):
    def with_data(n: int) -> ModuleBuilder:
        b = ModuleBuilder()
        b.set_memory(1, 1)
        for k in range(n):
            b.add_data(k * 100, bytes([k]) * 10)
        return b

    def with_table(n: int) -> ModuleBuilder:
        b = ModuleBuilder()
        f = b.add_func([], ["i32"], [], [("i32.const", 1)])
        b.set_table(n, n)
        b.add_elem(0, [f] * n)
        t = b.type_index([], ["i32"])
        b.add_func(["i32"], ["i32"], [], [("local.get", 0), ("call_indirect", t)], export="run")
        return b

    assert _wasm_init_bytes(with_data(64), tmp_path) <= _wasm_init_bytes(with_data(1), tmp_path)
    assert _wasm_init_bytes(with_table(256), tmp_path) <= _wasm_init_bytes(with_table(4), tmp_path)
