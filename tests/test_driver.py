"""Toolchain driver and CLI flows: compile, pack, build, run, exit codes."""

import json
import os
import shutil
import signal
import struct
import subprocess
import sys
from collections import Counter

import pytest

from seam import elf, runtime
from seam.cli import main as cli_main
from seam.codegen import ABI, ALLOWED_UNRESOLVED, BUCKET, NOSYS, compile_wasm_file
from seam.codegen.symbols import _parse
from seam.driver import (
    BuildPlan,
    check_no_wasm_engine_dependency,
    cmd_build,
    cmd_run,
    link_executable,
)
from seam.errors import AbiViolation, LinkError
from seam.profiler import BUCKETS
from seam.runtime import C_DIR, CFLAGS, abi_header, link_image, runtime_image, runtime_objects
from seam.tarfs import pack_dir
from seam.wasm.model import FuncType

from wasmgen import ModuleBuilder, empty_module


def run_cli(args) -> int:
    return cli_main([str(a) for a in args])


def test_cli_compile_writes_object_and_manifest(guest_wasm, tmp_path, capsys):
    out = tmp_path / "hello.o"
    rc = run_cli(["compile", guest_wasm["hello"], "-o", out])
    assert rc == 0
    assert out.is_file()
    manifest = tmp_path / "hello.symbols.json"
    data = json.loads(manifest.read_text())
    assert "fd_write" in data["unresolved"]
    printed = capsys.readouterr().out
    assert "fd_write" in printed  # unresolved list is printed


def test_cli_compile_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.wasm"
    bad.write_bytes(b"\x00asm\x02\x00\x00\x00")
    rc = run_cli(["compile", bad, "-o", tmp_path / "bad.o"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "version" in err and "0x4" in err  # diagnostic names the byte offset


def test_cli_pack_deterministic(www_dir, tmp_path, capsys):
    t1, t2 = tmp_path / "a.tar", tmp_path / "b.tar"
    assert run_cli(["pack", www_dir, "-o", t1]) == 0
    assert run_cli(["pack", www_dir, "-o", t2]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    assert "(4 entries)" in capsys.readouterr().out  # 3 files and assets/


def test_cli_refuses_trees_the_runtime_cannot_mount(tmp_path, capsys):
    long_path = tmp_path / "long" / ("a" * 100) / ("b" * 54) / ("c" * 99)  # 255 bytes
    long_path.parent.mkdir(parents=True)
    long_path.touch()
    many = tmp_path / "many"
    many.mkdir()
    for i in range(8192):
        (many / f"{i:04x}").touch()
    wasm = tmp_path / "empty.wasm"
    wasm.write_bytes(empty_module())
    for tree, why in [(tmp_path / "long", "254-byte limit"), (many, "limit of 8191")]:
        assert run_cli(["pack", tree, "-o", tmp_path / "x.tar"]) == 1
        assert why in capsys.readouterr().err
        assert run_cli(["build", wasm, "-o", tmp_path / "x", "--fs", tree]) == 1
        assert why in capsys.readouterr().err


def test_cli_pack_missing_dir(tmp_path):
    assert run_cli(["pack", tmp_path / "absent", "-o", tmp_path / "x.tar"]) == 1


def test_cli_build_and_run_roundtrip(guest_wasm, tmp_path, capsys):
    exe = tmp_path / "hello"
    assert run_cli(["build", guest_wasm["hello"], "-o", exe]) == 0
    out = capsys.readouterr().out
    assert "symbol audit" in out and "unresolved after link: none" in out
    audit = json.loads((tmp_path / "hello.audit.json").read_text())
    assert audit["unresolved"] == []
    assert set(audit["resolved"]) <= ALLOWED_UNRESOLVED
    proc = subprocess.run([str(exe)], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "hello\n"


def test_cli_run_forwards_guest_exit(built):
    assert run_cli(["run", built["exit7"]]) == 7


def test_cli_run_forwards_trap_exit(built):
    assert run_cli(["run", built["oob"]]) == 129


def test_cli_run_guest_args(built, capfd):
    rc = run_cli(["run", built["fib"], "--", "10"])
    assert rc == 0
    assert capfd.readouterr().out.strip() == "55"


def test_build_keep_intermediates(guest_wasm, tmp_path):
    exe = tmp_path / "hello"
    rc = run_cli(["build", guest_wasm["hello"], "-o", exe, "--keep"])
    assert rc == 0
    build_dir = tmp_path / "hello.build"
    assert (build_dir / "guest.o").is_file()
    assert (build_dir / "guest.symbols.json").is_file()


def test_build_with_fs_embeds_image(guest_wasm, www_dir, tmp_path, capfd):
    exe = tmp_path / "readfile"
    assert run_cli(["build", guest_wasm["readfile"], "-o", exe, "--fs", www_dir, "--keep"]) == 0
    assert (tmp_path / "readfile.build" / "fs.tar").is_file()
    defined, _ = elf.symbols(exe)
    assert {"fs_image_start", "fs_image_size"} <= defined
    proc = subprocess.run([str(exe)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (www_dir / "index.html").read_text()


def test_run_fs_override(built, www_dir, tmp_path):
    alt = tmp_path / "alt"
    alt.mkdir()
    (alt / "index.html").write_text("override wins\n")
    tar = tmp_path / "alt.tar"
    tar.write_bytes(pack_dir(alt))
    proc = cmd_run(built["readfile"], fs_override=tar, capture=True)
    assert proc.returncode == 0
    assert proc.stdout == "override wins\n"


def cat_guest(tmp_path, name: str):
    """A guest that prints the first 64 bytes of the tar file `name`, or exits
    with path_open's errno."""
    b = ModuleBuilder()
    path_open = b.add_import("wasi_snapshot_preview1", "path_open",
                             ["i32", "i32", "i32", "i32", "i32", "i64", "i64", "i32", "i32"],
                             ["i32"])
    fd_read = b.add_import("wasi_snapshot_preview1", "fd_read",
                           ["i32", "i32", "i32", "i32"], ["i32"])
    fd_write = b.add_import("wasi_snapshot_preview1", "fd_write",
                            ["i32", "i32", "i32", "i32"], ["i32"])
    proc_exit = b.add_import("wasi_snapshot_preview1", "proc_exit", ["i32"], [])
    b.set_memory(1, 1)
    # 0: iovec {buf=64, len=64}; 16: fd; 20: nread; 24: nwritten; 32: path
    b.add_data(0, struct.pack("<II", 64, 64))
    b.add_data(32, name.encode())
    b.add_func([], [], ["i32"], [
        ("i32.const", 3), ("i32.const", 0), ("i32.const", 32), ("i32.const", len(name.encode())),
        ("i32.const", 0), ("i64.const", 0), ("i64.const", 0), ("i32.const", 0),
        ("i32.const", 16), ("call", path_open), ("local.tee", 0),
        ("if", None, [("local.get", 0), ("call", proc_exit)], []),
        ("i32.const", 16), ("i32.load", 2, 0), ("i32.const", 0), ("i32.const", 1),
        ("i32.const", 20), ("call", fd_read), ("drop",),
        ("i32.const", 4), ("i32.const", 20), ("i32.load", 2, 0), ("i32.store", 2, 0),
        ("i32.const", 1), ("i32.const", 0), ("i32.const", 1), ("i32.const", 24),
        ("call", fd_write), ("drop",),
    ], export="_start")
    wasm = tmp_path / "cat.wasm"
    wasm.write_bytes(b.build())
    return wasm


@pytest.mark.parametrize("name", ['q"uote', "back\\slash"])
def test_fs_build_keeps_intermediates_at_any_output_path(www_dir, tmp_path, name):
    exe = tmp_path / name
    wasm = cat_guest(tmp_path, "index.html")
    assert run_cli(["build", wasm, "-o", exe, "--fs", www_dir, "--keep"]) == 0
    assert (tmp_path / f"{name}.build" / "fs.tar").is_file()
    proc = subprocess.run([str(exe)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (www_dir / "index.html").read_text()


def test_seam_fs_overrides_the_embedded_image_at_boot(www_dir, tmp_path):
    exe = tmp_path / "cat"
    cmd_build(BuildPlan(wasm=cat_guest(tmp_path, "index.html"), output=exe, fs_dir=www_dir))
    alt = tmp_path / "alt"
    alt.mkdir()
    (alt / "index.html").write_text("override wins\n")
    tar = tmp_path / "alt.tar"
    tar.write_bytes(pack_dir(alt))
    proc = cmd_run(exe, fs_override=tar, capture=True)
    assert (proc.returncode, proc.stdout) == (0, "override wins\n")
    image = bytearray(tar.read_bytes())
    image[0] ^= 0xFF  # the header checksum no longer matches
    tar.write_bytes(image)
    proc = cmd_run(exe, fs_override=tar, capture=True)
    assert proc.returncode == 1
    assert "seam-rt: corrupt tar image (SEAM_FS)" in proc.stderr
    assert proc.stdout == ""


def test_readfile_without_fs_gets_noent(built):
    proc = cmd_run(built["readfile"], capture=True)
    assert proc.returncode == 44  # guest forwards NOENT via proc_exit


def test_guest_env_plumbing(rt):
    # GUEST_ENV is consumed by the runtime; checked via the ctypes surface
    rt.boot(env="A=1,B=2")
    assert rt.lib.environ_sizes_get(0, 4) == 0
    assert rt.u32(0) == 2


def test_unknown_wasi_import_fails_link(tmp_path, capsys):
    b = ModuleBuilder()
    b.add_import("wasi_snapshot_preview1", "totally_not_wasi", [], [])
    b.add_func([], [], [], [("call", 0)], export="_start")
    wasm = tmp_path / "unknown.wasm"
    wasm.write_bytes(b.build())
    assert run_cli(["build", wasm, "-o", tmp_path / "x"]) == 1
    assert "totally_not_wasi" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("imports", [
    [("rt_fd_get", ["i32"], ["i64"])],
    [("runtime_trap", ["i32"], [])],
    [("getpid", [], ["i32"])],
    [("fd_write", ["i32"], ["i32"])],
    [("proc_exit", ["i32"], ["i32"])],
    [("fd_write", ["i32"] * 4, ["i32"]), ("fd_write", ["i32"], ["i32"])],
], ids=["runtime-internal", "runtime-hook", "libc", "fd_write-type", "proc_exit-type",
        "fd_write-twice"])
def test_import_outside_the_abi_fails_at_compile(imports, tmp_path):
    b = ModuleBuilder()
    for name, params, results in imports:
        b.add_import("wasi_snapshot_preview1", name, params, results)
    wasm = tmp_path / "bad.wasm"
    wasm.write_bytes(b.build())
    with pytest.raises(AbiViolation):
        compile_wasm_file(wasm)
    assert run_cli(["build", wasm, "-o", tmp_path / "x"]) == 1


def test_runtime_defines_every_abi_row_once():
    assert len(ABI) == 55 and len(NOSYS) == 23 and NOSYS <= set(ABI)
    defined = Counter(sym for obj in runtime_objects() for sym in elf.symbols(obj)[0])
    assert {name: defined[name] for name in ABI} == dict.fromkeys(ABI, 1)
    # and once, strong, in the image that also holds libc, which has its
    # own sched_yield: a weak alias of __sched_yield that must lose
    image = runtime_image(runtime_objects())
    bindings = Counter(elf.definitions(image))
    assert {name: bindings[name, elf.STB_GLOBAL] for name in ABI} == dict.fromkeys(ABI, 1)
    assert not {name for name, bind in bindings if name in ABI and bind != elf.STB_GLOBAL}
    funcs = elf.function_addresses(image)
    assert funcs["sched_yield"] != funcs.get("__sched_yield")


def test_every_implemented_row_has_a_profile_bucket():
    assert set(ABI) - NOSYS - set(BUCKET) == {"proc_exit"}  # never returns
    assert set(BUCKET.values()) <= set(BUCKETS)
    for bad in ("fd_close i32 -> i32 packets", "fd_close i32 -> i32"):
        with pytest.raises(ValueError, match="fd_close"):
            _parse(bad)


def test_cc_checks_each_body_against_its_row(tmp_path, monkeypatch):
    def syntax_check() -> subprocess.CompletedProcess:
        (tmp_path / "abi.h").write_text(abi_header())
        return subprocess.run(["cc", *CFLAGS, f"-I{tmp_path}", "-fsyntax-only",
                               str(C_DIR / "wasi_core.c")], capture_output=True, text=True)

    assert syntax_check().returncode == 0
    monkeypatch.setitem(ABI, "fd_write", FuncType(("i32", "i64", "i32", "i32"), ("i32",)))
    proc = syntax_check()
    assert proc.returncode != 0
    assert "conflicting types" in proc.stderr and "wasi_fd_write" in proc.stderr


def test_warm_runtime_objects_start_no_subprocess(monkeypatch):
    """The compiler's identity is asked once per process, not per build."""
    runtime_objects()

    def no_process(*args, **kwargs):
        raise AssertionError(f"started a process: {args}")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    assert all(obj.exists() for obj in runtime_objects())


def test_stack_is_not_executable_with_or_without_fs(www_dir, tmp_path):
    wasm = tmp_path / "empty.wasm"
    wasm.write_bytes(empty_module())
    for exe, fs in [(tmp_path / "plain", None), (tmp_path / "withfs", www_dir)]:
        cmd_build(BuildPlan(wasm=wasm, output=exe, fs_dir=fs))
        # exactly one PT_GNU_STACK, without PF_X
        assert [flags & elf.PF_X for kind, flags in elf.program_headers(exe)
                if kind == elf.PT_GNU_STACK] == [0], exe.name


def hello_guest(tmp_path):
    """A guest that prints "hi" on a line of its own and exits 3."""
    b = ModuleBuilder()
    fd_write = b.add_import("wasi_snapshot_preview1", "fd_write",
                            ["i32", "i32", "i32", "i32"], ["i32"])
    proc_exit = b.add_import("wasi_snapshot_preview1", "proc_exit", ["i32"], [])
    b.set_memory(1, 1)
    # 0: iovec {buf=16, len=3}; 8: nwritten; 16: the text
    b.add_data(0, struct.pack("<II", 16, 3) + b"\0" * 8 + b"hi\n")
    b.add_func([], [], [], [
        ("i32.const", 1), ("i32.const", 0), ("i32.const", 1), ("i32.const", 8),
        ("call", fd_write), ("drop",), ("i32.const", 3), ("call", proc_exit),
    ], export="_start")
    wasm = tmp_path / "hello.wasm"
    wasm.write_bytes(b.build())
    return wasm


def test_executable_is_a_self_contained_static_pie(tmp_path):
    exe = tmp_path / "hello"
    cmd_build(BuildPlan(wasm=hello_guest(tmp_path), output=exe))
    assert elf.elf_type(exe) == elf.ET_DYN  # position independent: ASLR applies
    assert elf.PT_INTERP not in [kind for kind, _ in elf.program_headers(exe)]
    assert elf.needed_libs(exe) == []
    assert check_no_wasm_engine_dependency(exe) == []
    plain = subprocess.run([str(exe)], capture_output=True, text=True)
    # a dynamic executable would warn about the preload on stderr
    bare = subprocess.run(["env", "-i", "LD_LIBRARY_PATH=/nonexistent",
                           "LD_PRELOAD=/nonexistent.so", str(exe)], capture_output=True, text=True)
    assert (plain.returncode, plain.stdout, plain.stderr) == (3, "hi\n", "")
    assert (bare.returncode, bare.stdout, bare.stderr) == (3, "hi\n", "")


def test_guest_placement_does_not_depend_on_the_runtime(tmp_path):
    """1.7 KB more cold runtime code leaves every guest function at the
    same offset modulo a page: the guest's .text starts on one."""
    b = ModuleBuilder()
    b.set_memory(1, 1)
    for i in range(6):
        b.add_func(["i32"], ["i32"], [], [("local.get", 0), ("i32.const", i), ("i32.add",)],
                   export=f"f{i}")
    b.add_func([], [], [], [], export="_start")
    wasm = tmp_path / "g.wasm"
    wasm.write_bytes(b.build())
    cmd_build(BuildPlan(wasm=wasm, output=tmp_path / "g", keep_intermediates=True))
    guest = tmp_path / "g.build" / "guest.o"
    (tmp_path / "cold.c").write_text(
        '__attribute__((cold, used)) void extra_cold(void) { __asm__ volatile(".fill 1712, 1, 0x90"); }\n')
    subprocess.run(["cc", *CFLAGS, "-c", "-o", str(tmp_path / "cold.o"), str(tmp_path / "cold.c")],
                   check=True)
    placed = []
    for name, extra in [("plain", []), ("cold", [tmp_path / "cold.o"])]:
        image = tmp_path / f"{name}.image.o"
        link_image("cc", [*runtime_objects(), *extra], image)
        link_executable("cc", tmp_path / name, [guest, image])
        placed.append(elf.function_addresses(tmp_path / name))
    offsets = elf.function_addresses(guest)  # offsets into the guest's .text
    assert len(offsets) >= 7 and "extra_cold" in placed[1]
    assert placed[0]["main"] != placed[1]["main"]  # the runtime code after it moved
    for funcs in placed:
        assert {name: funcs[name] % 4096 for name in offsets} == {n: v % 4096 for n, v in offsets.items()}


def test_missing_static_libc_is_a_named_error(tmp_path, monkeypatch, capsys):
    real = runtime._print_file_name
    monkeypatch.setattr(runtime, "_print_file_name",
                        lambda cc, name: name if name == "libc.a" else real(cc, name))
    wasm = hello_guest(tmp_path)
    with pytest.raises(LinkError, match="libc.a not found: install the C library's static archive"):
        cmd_build(BuildPlan(wasm=wasm, output=tmp_path / "h"))
    assert run_cli(["build", wasm, "-o", tmp_path / "h"]) == 1
    assert "libc.a not found" in capsys.readouterr().err
    assert not (tmp_path / "h").exists()


def test_libc_identity_keys_the_runtime_cache(tmp_path, monkeypatch):
    """image.o is published with the objects of its entry, and a libc.a of
    another path, size or mtime gets a new entry."""
    objects = runtime_objects()
    assert runtime_image(objects).is_file()
    real = runtime._print_file_name
    libc = tmp_path / "libc.a"
    shutil.copyfile(real("cc", "libc.a"), libc)
    monkeypatch.setattr(runtime, "_print_file_name",
                        lambda cc, name: str(libc) if name == "libc.a" else real(cc, name))
    moved = runtime.runtime_entry()
    st = libc.stat()
    os.utime(libc, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    touched = runtime.runtime_entry()
    assert len({objects[0].parent, moved, touched}) == 3


def test_unimplemented_but_preview1_name_builds_and_nosys(tmp_path, capfd):
    # fd_pread resolves against the NOSYS stub and reports 52 at runtime
    b = ModuleBuilder()
    fd_pread = b.add_import("wasi_snapshot_preview1", "fd_pread",
                            ["i32", "i32", "i32", "i64", "i32"], ["i32"])
    proc_exit = b.add_import("wasi_snapshot_preview1", "proc_exit", ["i32"], [])
    b.set_memory(1, 1)
    b.add_func([], [], [], [
        ("i32.const", 4), ("i32.const", 0), ("i32.const", 0),
        ("i64.const", 0), ("i32.const", 64),
        ("call", fd_pread),
        ("call", proc_exit),
    ], export="_start")
    wasm = tmp_path / "stubby.wasm"
    wasm.write_bytes(b.build())
    exe = tmp_path / "stubby"
    cmd_build(BuildPlan(wasm=wasm, output=exe))
    proc = subprocess.run([str(exe)], capture_output=True, text=True)
    assert proc.returncode == 52  # NOSYS surfaced through proc_exit
    assert "fd_pread" in proc.stderr  # logged once


def test_env_import_fails_at_compile(tmp_path, capsys):
    b = ModuleBuilder()
    b.add_import("env", "foo", [], [])
    b.add_func([], [], [], [("call", 0)], export="_start")
    wasm = tmp_path / "envimp.wasm"
    wasm.write_bytes(b.build())
    rc = run_cli(["build", wasm, "-o", tmp_path / "x"])
    assert rc == 1
    assert "env" in capsys.readouterr().err


def test_executable_is_engine_free(built):
    libs = check_no_wasm_engine_dependency(built["hello"])
    assert all("wasm" not in l.lower() for l in libs)


def test_audit_is_hermetic(guest_wasm, tmp_path):
    e1, e2 = tmp_path / "a", tmp_path / "b"
    cmd_build(BuildPlan(wasm=guest_wasm["httpd"], output=e1))
    cmd_build(BuildPlan(wasm=guest_wasm["httpd"], output=e2))
    a1 = json.loads((tmp_path / "a.audit.json").read_text())
    a2 = json.loads((tmp_path / "b.audit.json").read_text())
    assert a1 == a2


def test_seam_linker_env_respected(guest_wasm, tmp_path, monkeypatch):
    fake = tmp_path / "fakelinker"
    fake.write_text("#!/bin/sh\nexit 9\n")
    fake.chmod(0o755)
    monkeypatch.setenv("SEAM_LINKER", str(fake))
    with pytest.raises(LinkError):
        cmd_build(BuildPlan(wasm=guest_wasm["hello"], output=tmp_path / "h"))


def test_trap_messages_and_exit_codes(tmp_path):
    cases = [
        ([("i32.const", 70000), ("i32.load", 2, 0), ("drop",)], 129, "out of bounds"),
        ([("i32.const", 1), ("i32.const", 0), ("i32.div_u",), ("drop",)], 130, "divide by zero"),
        ([("unreachable",)], 132, "unreachable"),
    ]
    for i, (body, status, needle) in enumerate(cases):
        b = ModuleBuilder()
        b.set_memory(1, 1)
        b.add_func([], [], [], body, export="_start")
        wasm = tmp_path / f"trap{i}.wasm"
        wasm.write_bytes(b.build())
        exe = tmp_path / f"trap{i}"
        cmd_build(BuildPlan(wasm=wasm, output=exe))
        proc = subprocess.run([str(exe)], capture_output=True, text=True)
        assert proc.returncode == status
        assert needle in proc.stderr


def test_large_frames_exhaust_the_stack_as_a_trap(tmp_path):
    # 800 i64 locals live across the recursive call make ~6.4 KiB frames, so
    # the guest stack runs out at depth ~40000, under the call-depth budget;
    # the stack guard must turn that into trap 7, not a SIGSEGV
    n = 800
    b = ModuleBuilder()
    b.set_memory(1, 1)
    rec = 0
    body = [("local.get", 0), ("i32.eqz",), ("if", None, [("return",)], [])]
    for i in range(n):
        body += [("i32.const", 0), ("i64.load", 3, 8 * i), ("local.set", 1 + i)]
    body += [("local.get", 0), ("i32.const", 1), ("i32.sub",), ("call", rec)]
    body += [("i32.const", 0), ("local.get", 1)]
    for i in range(1, n):
        body += [("local.get", 1 + i), ("i64.add",)]
    body += [("i64.store", 3, 0)]
    assert b.add_func(["i32"], [], ["i64"] * n, body) == rec
    b.add_func([], [], [], [("i32.const", 45000), ("call", rec)], export="_start")
    wasm = tmp_path / "frames.wasm"
    wasm.write_bytes(b.build())
    exe = tmp_path / "frames"
    cmd_build(BuildPlan(wasm=wasm, output=exe))
    proc = subprocess.run([str(exe)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 135
    assert "call stack exhausted" in proc.stderr


def test_call_indirect_to_imported_wasi_function(tmp_path):
    b = ModuleBuilder()
    fd_write = b.add_import("wasi_snapshot_preview1", "fd_write",
                            ["i32", "i32", "i32", "i32"], ["i32"])
    proc_exit = b.add_import("wasi_snapshot_preview1", "proc_exit", ["i32"], [])
    b.set_memory(1, 1)
    b.set_table(2, 2)
    b.add_elem(1, [fd_write])
    import struct as _s

    b.add_data(0, _s.pack("<II", 16, 3) + b"\0" * 8 + b"hi\n")  # iovec {buf=16, len=3}
    t = b.type_index(["i32", "i32", "i32", "i32"], ["i32"])
    b.add_func([], [], [], [
        ("i32.const", 1), ("i32.const", 0), ("i32.const", 1), ("i32.const", 8),
        ("i32.const", 1), ("call_indirect", t),
        ("i32.const", 8), ("i32.load", 2, 0), ("i32.const", 100), ("i32.mul",), ("i32.add",),
        ("call", proc_exit),
    ], export="_start")
    wasm = tmp_path / "indwasi.wasm"
    wasm.write_bytes(b.build())
    exe = tmp_path / "indwasi"
    cmd_build(BuildPlan(wasm=wasm, output=exe))
    proc = subprocess.run([str(exe)], capture_output=True, text=True)
    assert proc.stdout == "hi\n"
    assert proc.returncode == 3 * 100 % 256  # errno 0 + nwritten 3 * 100


def test_fault_outside_guard_regions_still_kills(tmp_path):
    # the guest announces itself, then blocks reading stdin; a SIGSEGV that
    # is no Wasm fault must kill it by that signal, not exit as a trap
    b = ModuleBuilder()
    fd_write = b.add_import("wasi_snapshot_preview1", "fd_write",
                            ["i32", "i32", "i32", "i32"], ["i32"])
    fd_read = b.add_import("wasi_snapshot_preview1", "fd_read",
                           ["i32", "i32", "i32", "i32"], ["i32"])
    b.set_memory(1, 1)
    import struct as _s

    b.add_data(0, _s.pack("<II", 16, 6) + b"\0" * 8 + b"ready\n")
    b.add_func([], [], [], [
        ("i32.const", 1), ("i32.const", 0), ("i32.const", 1), ("i32.const", 8),
        ("call", fd_write), ("drop",),
        ("i32.const", 0), ("i32.const", 0), ("i32.const", 1), ("i32.const", 8),
        ("call", fd_read), ("drop",),
    ], export="_start")
    wasm = tmp_path / "blocked.wasm"
    wasm.write_bytes(b.build())
    exe = tmp_path / "blocked"
    cmd_build(BuildPlan(wasm=wasm, output=exe))
    proc = subprocess.Popen([str(exe)], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"ready\n"
        proc.send_signal(signal.SIGSEGV)
        assert proc.wait(timeout=10) == -signal.SIGSEGV
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()


def test_fd_read_on_closed_stdin_reports_eof(tmp_path):
    # guest exits with the byte count fd_read(0) produced; /dev/null -> 0
    b = ModuleBuilder()
    fd_read = b.add_import("wasi_snapshot_preview1", "fd_read",
                           ["i32", "i32", "i32", "i32"], ["i32"])
    proc_exit = b.add_import("wasi_snapshot_preview1", "proc_exit", ["i32"], [])
    b.set_memory(1, 1)
    import struct as _s

    b.add_data(0, _s.pack("<II", 64, 32))  # iovec {buf=64, len=32}
    b.add_func([], [], [], [
        ("i32.const", 0), ("i32.const", 0), ("i32.const", 1), ("i32.const", 8),
        ("call", fd_read), ("drop",),
        ("i32.const", 8), ("i32.load", 2, 0),
        ("call", proc_exit),
    ], export="_start")
    wasm = tmp_path / "stdin.wasm"
    wasm.write_bytes(b.build())
    exe = tmp_path / "stdin"
    cmd_build(BuildPlan(wasm=wasm, output=exe))
    proc = subprocess.run([str(exe)], stdin=subprocess.DEVNULL, capture_output=True)
    assert proc.returncode == 0  # nread 0 at EOF


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "seam.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("compile", "pack", "build", "run", "bench", "profile"):
        assert sub in proc.stdout


def test_cli_bench_against_reference_server(tmp_path, capsys):
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class RefServer(ThreadingHTTPServer):
        request_queue_size = 128

    class H(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Length", "2")
            self.end_headers()
            self.wfile.write(b"ok")

        def log_message(self, *a):
            pass

    srv = RefServer(("127.0.0.1", 0), H)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    out = tmp_path / "report.json"
    try:
        rc = run_cli(["bench", "--url", f"http://127.0.0.1:{srv.server_address[1]}/",
                      "--threads", "1", "--connections", "2", "--duration", "1",
                      "--json", out])
    finally:
        srv.shutdown()
    assert rc == 0
    assert "requests/sec" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["total_requests"] > 0


def test_cli_bench_unreachable_is_input_error(capsys):
    rc = run_cli(["bench", "--url", "http://127.0.0.1:1/", "--duration", "1",
                  "--threads", "1", "--connections", "1"])
    assert rc == 1


def test_cli_profile_compute_guest(built, tmp_path, capsys):
    out = tmp_path / "profile.json"
    rc = run_cli(["profile", built["fib"], "--json", out, "--", "30"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "guest-code execution" in printed
    report = json.loads(out.read_text())
    assert report["percent"]["guest"] > 50
