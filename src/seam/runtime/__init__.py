"""Build orchestration for the C runtime that resolves compiled objects' symbols.

The runtime sources ship as package data. `runtime_objects` compiles them
once per (source-hash, cc) into a cache directory and returns the object
list for the static link. `test_shared_lib` builds the same sources minus
the executable entry as a shared library, which the test suite loads with
ctypes to drive WASI functions directly. Both write `abi.h`, generated
from the ABI table, next to their outputs for abi.c and the wasi_*.c units.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

from ..codegen.ctext import CTYPE
from ..codegen.symbols import ABI, BUCKET, NOSYS
from ..errors import SeamError

C_DIR = Path(__file__).parent / "c"

# main.c is the executable entry; every other unit is shared with the
# ctypes test build
ENTRY_SOURCE = "main.c"
LIB_SOURCES = [
    "trap.c",
    "mem.c",
    "fdtable.c",
    "tarfs.c",
    "profile.c",
    "wasi_core.c",
    "wasi_poll.c",
    "wasi_sock.c",
    "abi.c",
]

CFLAGS = ["-O2", "-g0", "-std=c11", "-D_GNU_SOURCE", "-Wall", "-Wextra", "-pthread",
          "-fno-strict-aliasing"]


def cache_dir() -> Path:
    root = os.environ.get("SEAM_CACHE") or os.path.join(
        os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache")), "seam"
    )
    p = Path(root)
    p.mkdir(parents=True, exist_ok=True)
    return p


def abi_header() -> str:
    """The C side of the ABI table. It declares every row, and for each row
    with a profile bucket the hand-written body wasi_<name>, so cc checks
    every WASI definition against its row. SEAM_ABI_NOSYS(X) expands
    X(name, (params)) per NOSYS row; SEAM_ABI_ENTRIES(X) expands
    X(name, bucket, (params), (args)) per row with a bucket. Only abi.c and
    the wasi_*.c units include it: libc declares `int sched_yield(void)`,
    which clashes with the row."""
    def params(sig) -> str:
        return "(" + (", ".join(f"{CTYPE[t]} a{i}" for i, t in enumerate(sig.params)) or "void") + ")"

    def args(sig) -> str:
        return "(" + ", ".join(f"a{i}" for i in range(len(sig.params))) + ")"

    def proto(name, sig) -> str:
        return f"{CTYPE[sig.results[0]] if sig.results else 'void'} {name}{params(sig)};"

    def xmacro(name, rows) -> list[str]:
        return [f"#define {name}(X) \\", " \\\n".join(f"    X({row})" for row in rows)]

    stubs = [f"{name}, {params(sig)}" for name, sig in ABI.items() if name in NOSYS]
    entries = [f"{name}, P_{bucket.upper()}, {params(ABI[name])}, {args(ABI[name])}"
               for name, bucket in BUCKET.items()]
    return "\n".join([
        "/* generated from seam.codegen.symbols.ABI */",
        "#ifndef SEAM_ABI_H", "#define SEAM_ABI_H", "#include <stdint.h>",
        *(proto(name, sig) for name, sig in ABI.items()),
        *(proto(f"wasi_{name}", ABI[name]) for name in BUCKET),
        *xmacro("SEAM_ABI_NOSYS", stubs), *xmacro("SEAM_ABI_ENTRIES", entries),
        "#endif", "",
    ])


@functools.lru_cache(maxsize=None)
def _cc_version(cc: str) -> bytes:
    """The compiler's identity, asked once per process and compiler name."""
    try:
        return subprocess.run([cc, "--version"], capture_output=True).stdout[:200]
    except OSError as e:
        raise SeamError(f"C compiler {cc!r} not runnable: {e}") from e


def _source_key(cc: str, extra: tuple[str, ...] = ()) -> str:
    h = hashlib.sha256()
    for name in [ENTRY_SOURCE, "rt.h", *LIB_SOURCES]:
        h.update(name.encode())
        h.update((C_DIR / name).read_bytes())
    h.update(abi_header().encode())
    h.update(" ".join(CFLAGS).encode())
    h.update(" ".join(extra).encode())
    h.update(cc.encode())
    h.update(_cc_version(cc))
    return h.hexdigest()[:16]


def _compile(cc: str, src: Path, out: Path, extra: list[str]):
    proc = subprocess.run(
        [cc, *CFLAGS, *extra, "-c", "-o", str(out), str(src)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SeamError(f"runtime compile failed for {src.name}:\n{proc.stderr}")


def _publish(tmp: Path, final: Path):
    """Atomically move a fully built cache entry into place; concurrent
    builders race benignly (first rename wins, the rest discard)."""
    try:
        os.rename(tmp, final)
    except OSError:
        if not final.exists():
            raise
        shutil.rmtree(tmp, ignore_errors=True)


def runtime_objects(cc: str = "cc") -> list[Path]:
    """Compile (or reuse) the runtime objects for static linking."""
    key = _source_key(cc)
    out_dir = cache_dir() / f"rt-{key}"
    names = [ENTRY_SOURCE, *LIB_SOURCES]
    if not out_dir.exists():
        tmp = Path(tempfile.mkdtemp(prefix=f"rt-{key}.", dir=cache_dir()))
        (tmp / "abi.h").write_text(abi_header())
        for src_name in names:
            _compile(cc, C_DIR / src_name, tmp / (Path(src_name).stem + ".o"), [f"-I{tmp}"])
        _publish(tmp, out_dir)
    return [out_dir / (Path(s).stem + ".o") for s in names]


def test_shared_lib(cc: str = "cc") -> Path:
    """Build the runtime (minus the entry) as a shared library for ctypes."""
    key = _source_key(cc, ("shared",))
    out_dir = cache_dir() / f"rtso-{key}"
    lib = out_dir / "libseamrt.so"
    if not lib.exists():
        tmp = Path(tempfile.mkdtemp(prefix=f"rtso-{key}.", dir=cache_dir()))
        (tmp / "abi.h").write_text(abi_header())
        srcs = [str(C_DIR / s) for s in LIB_SOURCES]
        proc = subprocess.run(
            [cc, *CFLAGS, f"-I{tmp}", "-fPIC", "-shared", "-o", str(tmp / "libseamrt.so"), *srcs],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise SeamError(f"runtime shared build failed:\n{proc.stderr}")
        _publish(tmp, out_dir)
    return lib
