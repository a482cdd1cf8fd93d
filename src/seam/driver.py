"""Toolchain driver: compile, pack, link, run.

cmd_build is the unikernel-style pipeline: Wasm -> relocatable object with
unresolved WASI/memory symbols -> static-PIE link against the runtime image,
the runtime pre-linked with libc (plus an optional tar image object) -> one
self-contained executable that loads no shared library. The symbol audit
that makes the seam mechanically checkable is written next to the
executable as <out>.audit.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from . import elf
from .codegen import ALLOWED_UNRESOLVED, compile_wasm_file, write_artifact
from .errors import LinkError, SeamError
from .runtime import runtime_image, runtime_objects
from .tarfs import pack, pack_dir


@dataclass
class BuildPlan:
    wasm: Path
    output: Path
    fs_dir: Path | None = None
    guest_args: list[str] = field(default_factory=list)
    guest_env: list[str] = field(default_factory=list)
    keep_intermediates: bool = False
    linker: str | None = None
    cc: str = "cc"

    def __post_init__(self):
        self.wasm = Path(self.wasm)
        self.output = Path(self.output)
        if self.fs_dir is not None:
            self.fs_dir = Path(self.fs_dir)
        if not self.wasm.is_file():
            raise SeamError(f"input wasm not found: {self.wasm}")


def default_linker() -> str:
    return os.environ.get("SEAM_LINKER", "cc")


def cmd_compile(wasm: str | Path, out_obj: str | Path, cc: str = "cc", quiet: bool = False) -> Path:
    """Compile one .wasm to an object + symbol manifest; returns manifest path."""
    art = compile_wasm_file(wasm, cc=cc)
    manifest_path = write_artifact(art, out_obj)
    if not quiet:
        print(f"compiled {wasm} -> {out_obj}")
        print("unresolved symbols:")
        for name in sorted(art.symbols.unresolved):
            print(f"  U {name}")
    return manifest_path


def cmd_pack(dir_path: str | Path, out_tar: str | Path) -> int:
    """Pack a directory into a deterministic ustar image; returns entry count."""
    image, count = pack(dir_path)
    Path(out_tar).write_bytes(image)
    return count


def _fs_image_asm(image_size: int) -> str:
    # .incbin keeps the embedding exact and fast for any image size; it names
    # the image relative to the build directory, where the assembler runs, so
    # no output path has to survive assembler quoting. The GNU-stack note
    # keeps the linked executable's stack non-executable
    return (
        '  .section .rodata\n'
        '  .global fs_image_start\n'
        '  .align 16\n'
        'fs_image_start:\n'
        '  .incbin "fs.tar"\n'
        '  .global fs_image_size\n'
        '  .align 8\n'
        'fs_image_size:\n'
        f'  .quad {image_size}\n'
        '  .section .note.GNU-stack,"",@progbits\n'
    )


def link_executable(linker: str, output: Path, inputs: list[Path]):
    """Link a static PIE from inputs that carry their own start files and
    libc, the runtime image last; the guest object goes first, so its
    .text follows only the image's cold and startup code."""
    proc = subprocess.run([linker, "-static-pie", "-nostdlib", "-o", str(output), *map(str, inputs)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise LinkError(f"linker failed:\n{proc.stderr}")


def cmd_build(plan: BuildPlan) -> dict:
    """Compile + pack + link into one executable; returns the symbol audit."""
    build_dir = Path(str(plan.output) + ".build")
    tmp_ctx = None
    if plan.keep_intermediates:
        build_dir.mkdir(parents=True, exist_ok=True)
    else:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="seam-build-")
        build_dir = Path(tmp_ctx.name)
    try:
        guest_obj = build_dir / "guest.o"
        art = compile_wasm_file(plan.wasm, cc=plan.cc)
        write_artifact(art, guest_obj)

        link_inputs = [guest_obj]
        if plan.fs_dir is not None:
            image = pack_dir(plan.fs_dir)
            (build_dir / "fs.tar").write_bytes(image)
            (build_dir / "fs_image.s").write_text(_fs_image_asm(len(image)))
            fs_obj = build_dir / "fs_image.o"
            proc = subprocess.run([plan.cc, "-c", "-o", "fs_image.o", "fs_image.s"],
                                  cwd=build_dir, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SeamError(f"fs image assembly failed:\n{proc.stderr}")
            link_inputs.append(fs_obj)

        image = runtime_image(runtime_objects(cc=plan.cc))

        # audit before linking: the guest may leave only ABI functions and
        # runtime hooks unresolved, and the runtime defines every one
        audit = {"resolved": {}, "unresolved": []}
        for sym in sorted(art.symbols.unresolved):
            if sym in ALLOWED_UNRESOLVED:
                audit["resolved"][sym] = "runtime"
            else:
                audit["unresolved"].append(sym)
        if audit["unresolved"]:
            raise LinkError(
                f"symbols outside the ABI left unresolved: {', '.join(audit['unresolved'])}",
                unresolved=audit["unresolved"],
            )

        link_executable(plan.linker or default_linker(), plan.output, [*link_inputs, image])

        audit_path = Path(str(plan.output) + ".audit.json")
        audit_path.write_text(json.dumps(audit, indent=2, sort_keys=True) + "\n")
        return audit
    finally:
        if tmp_ctx is not None:
            tmp_ctx.cleanup()


def cmd_run(exe: str | Path, guest_args: list[str] | None = None,
            fs_override: str | Path | None = None, guest_env: list[str] | None = None,
            invoke: str | None = None, capture: bool = False) -> subprocess.CompletedProcess:
    """Execute a built artifact, forwarding the guest's exit status."""
    exe = Path(exe)
    if not exe.is_file():
        raise SeamError(f"executable not found: {exe}")
    env = dict(os.environ)
    argv0 = exe.name
    env["GUEST_ARGS"] = " ".join([argv0, *(guest_args or [])])
    if guest_env:
        env["GUEST_ENV"] = ",".join(guest_env)
    if fs_override is not None:
        env["SEAM_FS"] = str(fs_override)
    if invoke is not None:
        env["SEAM_INVOKE"] = invoke
    return subprocess.run([str(exe)], env=env, capture_output=capture, text=capture)


def check_no_wasm_engine_dependency(exe: str | Path) -> list[str]:
    """The executable must not load any Wasm engine at runtime; returns the
    dynamic library list for the audit trail, empty for a static PIE."""
    libs = elf.needed_libs(exe)
    offenders = [l for l in libs if "wasm" in l.lower() or "wamr" in l.lower()]
    if offenders:
        raise LinkError(f"executable depends on a Wasm engine: {offenders}")
    return libs
