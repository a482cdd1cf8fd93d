"""Drive the C backend: validated module -> relocatable native object."""

from __future__ import annotations

import json
import platform
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .. import elf
from ..errors import CodegenError
from ..wasm import ValidatedModule, decode_module, validate_module
from .ctext import CGen
from .symbols import SymbolManifest

_ARCH_ALIASES = {"x86_64": "x86_64", "amd64": "x86_64", "aarch64": "aarch64", "arm64": "aarch64"}

# closed-world compile flags: the object may reference nothing but the
# declared externs, so builtins/libcalls/stack protector must stay off and
# float rounding ops must lower to instructions. Stack-clash protection
# probes every page of a large frame, so no frame can step over the guard
# region under the guest stack (it only adds inline probes, no symbols).
# -fPIE is the default of most compilers but not all, and the guest is
# linked into a static PIE.
_BASE_CFLAGS = [
    "-c", "-O2", "-g0",
    "-ffreestanding", "-fno-builtin", "-fno-stack-protector", "-fstack-clash-protection",
    "-fno-asynchronous-unwind-tables", "-fno-math-errno", "-ffp-contract=off",
    "-fno-strict-aliasing", "-fPIE",
]
_ARCH_CFLAGS = {
    "x86_64": ["-msse4.1", "-mpopcnt"],
    "aarch64": [],
}


def host_target() -> str:
    return _ARCH_ALIASES.get(platform.machine().lower(), platform.machine().lower())


@dataclass
class ObjectArtifact:
    object_bytes: bytes
    symbols: SymbolManifest
    c_source: str  # kept for --keep debugging


def _cc(cc: str, args: list[str], cwd: Path):
    proc = subprocess.run([cc, *args], cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise CodegenError(f"{cc} failed:\n{proc.stderr.strip()}")


def compile_module(vm: ValidatedModule, cc: str = "cc") -> ObjectArtifact:
    """Compile a validated module to a relocatable object.

    WASI imports and the linear-memory/trap hooks stay unresolved; exports
    are defined as wasm_<name>, plus wasm_init / wasm_memory_spec /
    wasm_exports for the runtime's boot sequence.
    """
    gen = CGen(vm)
    source = gen.emit()
    with tempfile.TemporaryDirectory(prefix="seamcc-") as td:
        tdp = Path(td)
        (tdp / "mod.c").write_text(source)
        flags = _BASE_CFLAGS + _ARCH_CFLAGS.get(host_target(), [])
        _cc(cc, [*flags, "-o", "mod.o", "mod.c"], tdp)
        obj = (tdp / "mod.o").read_bytes()
        defined, unresolved = gen.manifest_symbols()
        got_defined, got_undef = elf.symbols(tdp / "mod.o")

    # the object must agree with the computed manifest: nothing extra may
    # leak in (a stray libcall would break the link-closure contract)
    if got_undef - set(unresolved):
        raise CodegenError(
            f"object references symbols outside the ABI: {sorted(got_undef - set(unresolved))}"
        )
    missing = set(defined) - got_defined
    if missing:
        raise CodegenError(f"object is missing expected symbols: {sorted(missing)}")

    manifest = SymbolManifest(defined=defined, unresolved=unresolved)
    return ObjectArtifact(object_bytes=obj, symbols=manifest, c_source=source)


def compile_wasm_file(path: str | Path, cc: str = "cc") -> ObjectArtifact:
    data = Path(path).read_bytes()
    return compile_module(validate_module(decode_module(data)), cc=cc)


def write_artifact(art: ObjectArtifact, out_obj: str | Path) -> Path:
    """Write the object plus its symbol manifest JSON alongside."""
    out_obj = Path(out_obj)
    out_obj.write_bytes(art.object_bytes)
    manifest_path = out_obj.with_suffix(out_obj.suffix + ".symbols.json") if out_obj.suffix != ".o" \
        else out_obj.with_name(out_obj.stem + ".symbols.json")
    manifest_path.write_text(json.dumps(art.symbols.to_dict(), indent=2) + "\n")
    return manifest_path

