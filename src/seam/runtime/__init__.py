"""Build orchestration for the C runtime that resolves compiled objects' symbols.

The runtime sources ship as package data. `runtime_objects` compiles them
once per cache key, in one `cc -c`, into a cache entry and returns the
object list. From those same objects the entry gets two links before it is
published: `image.o`, the objects pre-linked (`cc -r`) with the C library's
static-PIE start files, libgcc and libc.a, so that linking a guest into a
self-contained static PIE only has to place the guest and resolve its few
ABI symbols; and `libseamrt.so`, every unit but the executable entry,
which the test suite loads with ctypes to drive WASI functions directly
(`test_shared_lib`). The entry also holds `abi.h`, generated from the ABI
table, which abi.c and the wasi_*.c units include.
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
from ..errors import LinkError, SeamError, ToolchainMissing

C_DIR = Path(__file__).parent / "c"

# main.c, the executable entry, comes first; every other unit is also
# linked into the shared library for the ctypes tests
SOURCES = [
    "main.c",
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

# one set of objects serves the static-PIE image and the shared library:
# -fPIC for the library, and no semantic interposition, so that calls
# within a unit still inline and bind locally as under -fPIE
CFLAGS = ["-O2", "-g0", "-std=c11", "-D_GNU_SOURCE", "-Wall", "-Wextra",
          "-fno-strict-aliasing", "-fPIC", "-fno-semantic-interposition"]

# image.o's inputs around the runtime objects, in link order: the start
# files ahead, the archives as one group, the end files last
_IMAGE = "image.o"
_SHARED = "libseamrt.so"
START_FILES = ["rcrt1.o", "crti.o", "crtbeginS.o"]
ARCHIVES = ["libgcc.a", "libgcc_eh.a", "libc.a"]
END_FILES = ["crtendS.o", "crtn.o"]


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
def _ask_cc(arg: str) -> str:
    """cc's answer to one query, asked once per process: its identity
    (--version), or where it finds one start file or archive
    (-print-file-name=X, answered with the bare name when it has none)."""
    try:
        return subprocess.run([CC, arg], capture_output=True, text=True).stdout.strip()
    except OSError as e:
        raise SeamError(f"C compiler {CC!r} not runnable: {e}") from e


def _link_files() -> dict[str, Path]:
    """The image's start files and archives; a static PIE has no fallback."""
    files = {}
    for name in [*START_FILES, *ARCHIVES, *END_FILES]:
        path = Path(_ask_cc(f"-print-file-name={name}"))
        if not path.is_absolute() or not path.is_file():
            raise ToolchainMissing(f"{name} not found: install the C library's static archive "
                                   "(libc6-dev, or glibc-static on Fedora)")
        files[name] = path
    return files


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
    """Pre-link objects with the static-PIE start files, libgcc and libc.a
    into one relocatable object."""
    files = _link_files()

    def paths(names: list[str]) -> list[str]:
        return [str(files[name]) for name in names]

    _run([CC, "-r", "-nostdlib", "-o", str(out), *paths(START_FILES), *map(str, objects),
          "-Wl,--start-group", *paths(ARCHIVES), "-Wl,--end-group", *paths(END_FILES)],
         LinkError, "runtime image link")


def runtime_entry() -> Path:
    """The cache directory of the runtime built with CC and its libc: the
    key covers the sources, the flags, the compiler's identity and each
    start file's and archive's path, size and mtime."""
    h = hashlib.sha256()
    for name in SOURCES + ["rt.h"]:
        h.update(name.encode())
        h.update((C_DIR / name).read_bytes())
    h.update(abi_header().encode())
    h.update(" ".join(CFLAGS).encode())
    h.update(CC.encode())
    h.update(_ask_cc("--version").encode())
    for p in _link_files().values():
        st = p.stat()
        h.update(f"{p}:{st.st_size}:{st.st_mtime_ns}".encode())
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
        _run([CC, *CFLAGS, f"-I{tmp}", "-c", *(str(C_DIR / s) for s in SOURCES)],
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
