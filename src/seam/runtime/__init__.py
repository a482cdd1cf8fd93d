"""Build orchestration for the C runtime that resolves compiled objects' symbols.

The runtime sources ship as package data. `runtime_objects` compiles them
once per cache key, in one `cc -c`, into a cache entry and returns the
object list. From those same objects the entry gets two links before it is
published: `image.o`, the start file and the objects pre-linked (`cc -r`)
into one relocatable object, so that linking a guest into a self-contained
static PIE only has to place the guest and resolve its few ABI symbols; and
`libseamrt.so`, every unit but the executable entry, which the test suite
loads with ctypes to drive WASI functions directly (`test_shared_lib`). No
C library is linked into either: the runtime makes its own system calls
(sys.h). The entry also holds `abi.h`, generated from the ABI table, which
abi.c and the wasi_*.c units include.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

from ..codegen.compile import CC
from ..codegen.ctext import c_decl, c_params
from ..codegen.symbols import ABI, BUCKET, NOSYS
from ..errors import LinkError, SeamError

C_DIR = Path(__file__).parent / "c"

# main.c, the executable entry, comes first; every other unit is also
# linked into the shared library for the ctypes tests
SOURCES = [
    "main.c",
    "mem.c",
    "fdtable.c",
    "tarfs.c",
    "profile.c",
    "wasi_core.c",
    "wasi_poll.c",
    "wasi_sock.c",
    "abi.c",
    "sys.c",
]
# the process entry, _start, which only image.o holds: a link of the
# objects against a C library takes that library's start files instead
START = "start.c"

# one set of objects serves the static-PIE image and the shared library:
# -fPIC for the library, and no semantic interposition, so that calls
# within a unit still inline and bind locally as under -fPIE. The process
# has no thread-local storage, so no stack protector, which reads its
# canary there; no unwinder, so no unwind tables; and sys.c's string
# functions must not become calls to themselves
CFLAGS = ["-O2", "-g0", "-std=c11", "-Wall", "-Wextra", "-fno-strict-aliasing", "-fPIC",
          "-fno-semantic-interposition", "-fno-stack-protector", "-fno-asynchronous-unwind-tables",
          "-fno-tree-loop-distribute-patterns"]

_IMAGE = "image.o"
_SHARED = "libseamrt.so"


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
    the wasi_*.c units include it."""
    def args(sig) -> str:
        return "(" + ", ".join(f"a{i}" for i in range(len(sig.params))) + ")"

    def xmacro(name, rows) -> list[str]:
        return [f"#define {name}(X) \\", " \\\n".join(f"    X({row})" for row in rows)]

    stubs = [f"{name}, {c_params(sig)}" for name, sig in ABI.items() if name in NOSYS]
    entries = [f"{name}, P_{bucket.upper()}, {c_params(ABI[name])}, {args(ABI[name])}"
               for name, bucket in BUCKET.items()]
    return "\n".join([
        "/* generated from seam.codegen.symbols.ABI */",
        "#ifndef SEAM_ABI_H", "#define SEAM_ABI_H", "#include <stdint.h>",
        *(f"{c_decl(sig, name)};" for name, sig in ABI.items()),
        *(f"{c_decl(ABI[name], f'wasi_{name}')};" for name in BUCKET),
        *xmacro("SEAM_ABI_NOSYS", stubs), *xmacro("SEAM_ABI_ENTRIES", entries),
        "#endif", "",
    ])


@functools.lru_cache(maxsize=None)
def _cc_version() -> str:
    """cc's identity, asked once per process."""
    try:
        return subprocess.run([CC, "--version"], capture_output=True, text=True).stdout.strip()
    except OSError as e:
        raise SeamError(f"C compiler {CC!r} not runnable: {e}") from e


def _run(argv: list[str], error: type[SeamError], what: str, cwd: Path | None = None):
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise error(f"{what} failed:\n{proc.stderr}")


def _publish(tmp: Path, final: Path):
    """Atomically move a fully built cache entry into place; concurrent
    builders race benignly (first rename wins, the rest discard)."""
    try:
        os.rename(tmp, final)
    except OSError:
        if not final.exists():
            raise
        shutil.rmtree(tmp, ignore_errors=True)


def link_image(objects: list[Path], out: Path):
    """Pre-link the start file that runtime_objects places beside
    objects[0], and the objects, into one relocatable object."""
    start = objects[0].parent / (Path(START).stem + ".o")
    _run([CC, "-r", "-nostdlib", "-o", str(out), str(start), *map(str, objects)],
         LinkError, "runtime image link")


def runtime_entry() -> Path:
    """The cache directory of the runtime built with CC: the key covers the
    sources, the flags and the compiler's identity."""
    h = hashlib.sha256()
    for name in [*SOURCES, START, "rt.h", "sys.h"]:
        h.update(name.encode())
        h.update((C_DIR / name).read_bytes())
    h.update(abi_header().encode())
    h.update(" ".join(CFLAGS).encode())
    h.update(CC.encode())
    h.update(_cc_version().encode())
    return cache_dir() / f"rt-{h.hexdigest()[:16]}"


def runtime_objects() -> list[Path]:
    """Compile (or reuse) the runtime objects, and with them the image and
    the shared library: one cc -c for every unit, two links."""
    out_dir = runtime_entry()
    objects = [Path(s).stem + ".o" for s in SOURCES]
    if not out_dir.exists():
        tmp = Path(tempfile.mkdtemp(prefix=f"{out_dir.name}.", dir=cache_dir()))
        (tmp / "abi.h").write_text(abi_header())
        # without -o, cc writes each unit's object into its working directory
        _run([CC, *CFLAGS, f"-I{tmp}", "-c", *(str(C_DIR / s) for s in [*SOURCES, START])],
             SeamError, "runtime compile", cwd=tmp)
        link_image([tmp / o for o in objects], tmp / _IMAGE)
        _run([CC, "-shared", "-o", _SHARED, *objects[1:]],
             SeamError, "runtime shared link", cwd=tmp)
        _publish(tmp, out_dir)
    return [out_dir / o for o in objects]


def runtime_image(objects: list[Path]) -> Path:
    """The runtime image pre-linked from objects, as runtime_objects returned them."""
    return objects[0].parent / _IMAGE


def test_shared_lib() -> Path:
    """The runtime minus its entry as a shared library, which the tests load with ctypes."""
    return runtime_objects()[0].parent / _SHARED
