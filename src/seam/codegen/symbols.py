"""Symbol ABI shared by the compiler and the runtime.

The object a compile produces leaves exactly these names unresolved: the
`ABI` functions it imports and the three runtime hooks. Everything it
defines is prefixed wasm_. `ABI` is the one statement of the WASI
interface: the compiler, the build audit, the runtime's generated C
prototypes, NOSYS stubs and profiled entries (`BUCKET`), and the tests'
ctypes facade derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..wasm.model import FuncType

# the profile's six buckets, in the order of rt.h's P_* buckets; an ABI row
# charges its time to one of them
BUCKETS = ("guest", "wasi", "memory", "timer", "socket", "hostio")

# the three hooks the compiled object expects from the runtime
RUNTIME_HOOKS = ("memory_base", "memory_grow", "runtime_trap")

# symbols the compiled object always defines
RESERVED_DEFINED = ("wasm_init", "wasm_memory_spec", "wasm_exports", "wasm_exports_count")

WASI_MODULE = "wasi_snapshot_preview1"

# One row per function: name, Wasm params -> results, then either NOSYS
# (the runtime links a stub that returns errno 52) or the profile bucket
# the row's generated runtime entry charges its time to. proc_exit never
# returns, so it is the one implemented row without a bucket. Types follow
# the preview1 witx (filesize, offset, timestamp and rights are i64;
# pointers, lengths, fds and flags are i32). sock_open and the rows after
# it are the WasmEdge-style socket extension of docs/sock-abi.md.
_TABLE = """
args_get                i32 i32                                 -> i32 wasi
args_sizes_get          i32 i32                                 -> i32 wasi
clock_res_get           i32 i32                                 -> i32 timer
clock_time_get          i32 i64 i32                             -> i32 timer
environ_get             i32 i32                                 -> i32 wasi
environ_sizes_get       i32 i32                                 -> i32 wasi
fd_advise               i32 i64 i64 i32                         -> i32 NOSYS
fd_allocate             i32 i64 i64                             -> i32 NOSYS
fd_close                i32                                     -> i32 wasi
fd_datasync             i32                                     -> i32 NOSYS
fd_fdstat_get           i32 i32                                 -> i32 wasi
fd_fdstat_set_flags     i32 i32                                 -> i32 wasi
fd_fdstat_set_rights    i32 i64 i64                             -> i32 NOSYS
fd_filestat_get         i32 i32                                 -> i32 wasi
fd_filestat_set_size    i32 i64                                 -> i32 NOSYS
fd_filestat_set_times   i32 i64 i64 i32                         -> i32 NOSYS
fd_pread                i32 i32 i32 i64 i32                     -> i32 NOSYS
fd_prestat_dir_name     i32 i32 i32                             -> i32 wasi
fd_prestat_get          i32 i32                                 -> i32 wasi
fd_pwrite               i32 i32 i32 i64 i32                     -> i32 NOSYS
fd_read                 i32 i32 i32 i32                         -> i32 wasi
fd_readdir              i32 i32 i32 i64 i32                     -> i32 wasi
fd_renumber             i32 i32                                 -> i32 NOSYS
fd_seek                 i32 i64 i32 i32                         -> i32 wasi
fd_sync                 i32                                     -> i32 NOSYS
fd_tell                 i32 i32                                 -> i32 NOSYS
fd_write                i32 i32 i32 i32                         -> i32 wasi
path_create_directory   i32 i32 i32                             -> i32 NOSYS
path_filestat_get       i32 i32 i32 i32 i32                     -> i32 wasi
path_filestat_set_times i32 i32 i32 i32 i64 i64 i32             -> i32 NOSYS
path_link               i32 i32 i32 i32 i32 i32 i32             -> i32 NOSYS
path_open               i32 i32 i32 i32 i32 i64 i64 i32 i32     -> i32 wasi
path_readlink           i32 i32 i32 i32 i32 i32                 -> i32 NOSYS
path_remove_directory   i32 i32 i32                             -> i32 NOSYS
path_rename             i32 i32 i32 i32 i32 i32                 -> i32 NOSYS
path_symlink            i32 i32 i32 i32 i32                     -> i32 NOSYS
path_unlink_file        i32 i32 i32                             -> i32 NOSYS
poll_oneoff             i32 i32 i32 i32                         -> i32 wasi
proc_exit               i32                                     ->
proc_raise              i32                                     -> i32 NOSYS
random_get              i32 i32                                 -> i32 wasi
sched_yield                                                     -> i32 wasi
sock_accept             i32 i32 i32                             -> i32 socket
sock_recv               i32 i32 i32 i32 i32 i32                 -> i32 socket
sock_send               i32 i32 i32 i32 i32                     -> i32 socket
sock_shutdown           i32 i32                                 -> i32 socket
sock_open               i32 i32 i32                             -> i32 socket
sock_bind               i32 i32 i32                             -> i32 socket
sock_listen             i32 i32                                 -> i32 socket
sock_connect            i32 i32 i32                             -> i32 socket
sock_getlocaladdr       i32 i32 i32 i32                         -> i32 socket
sock_getpeeraddr        i32 i32 i32 i32                         -> i32 socket
sock_getaddrinfo        i32 i32 i32 i32 i32 i32 i32 i32         -> i32 NOSYS
sock_getsockopt         i32 i32 i32 i32 i32                     -> i32 NOSYS
sock_setsockopt         i32 i32 i32 i32 i32                     -> i32 NOSYS
"""


def _parse(table: str) -> tuple[dict[str, FuncType], frozenset[str], dict[str, str]]:
    abi, nosys, bucket = {}, set(), {}
    for line in table.strip().splitlines():
        (name, *params), results = (side.split() for side in line.split("->"))
        if results:
            last = results.pop()
            if last == "NOSYS":
                nosys.add(name)
            elif last in BUCKETS:
                bucket[name] = last
            else:
                raise ValueError(f"ABI row {name}: {last!r} is neither NOSYS nor a bucket")
        abi[name] = FuncType(params=tuple(params), results=tuple(results))
    return abi, frozenset(nosys), bucket


ABI, NOSYS, BUCKET = _parse(_TABLE)
ALLOWED_UNRESOLVED = frozenset(ABI) | frozenset(RUNTIME_HOOKS)


@dataclass
class SymbolManifest:
    defined: list[str] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"defined": sorted(self.defined), "unresolved": sorted(self.unresolved)}
