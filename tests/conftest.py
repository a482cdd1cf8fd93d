import ctypes
import os
import shutil
import socket
import struct
import subprocess
from pathlib import Path

import pytest

from seam.codegen import ABI
from seam.driver import BuildPlan, cmd_build
from seam.runtime import test_shared_lib

TESTS = Path(__file__).parent
GUEST_SRC = TESTS / "fixtures" / "guest_src"
GUEST_NAMES = ["hello", "exit7", "oob", "fib", "sleep", "readfile", "httpd"]

CLANG_WASM_FLAGS = [
    "--target=wasm32", "-mcpu=mvp", "-msign-ext", "-mnontrapping-fptoint",
    "-mmutable-globals", "-nostdlib", "-O2", "-fno-builtin", "-Wall",
    "-Wl,--export=_start", "-Wl,-z,stack-size=131072",
]


def have_wasm_clang() -> bool:
    return shutil.which("clang") is not None and shutil.which("wasm-ld") is not None


def have_node() -> bool:
    return shutil.which("node") is not None


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture(scope="session")
def guest_wasm(tmp_path_factory) -> dict:
    """Guest fixtures compiled to .wasm by the stock clang wasm32 backend."""
    if not have_wasm_clang():
        pytest.skip("clang/wasm-ld unavailable for guest fixtures")
    out = tmp_path_factory.mktemp("guest-wasm")
    paths = {}
    for name in GUEST_NAMES:
        dst = out / f"{name}.wasm"
        proc = subprocess.run(
            ["clang", *CLANG_WASM_FLAGS, "-o", str(dst), str(GUEST_SRC / f"{name}.c")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"guest {name} failed to compile:\n{proc.stderr}"
        paths[name] = dst
    return paths


@pytest.fixture(scope="session")
def built(guest_wasm, tmp_path_factory) -> dict:
    """Guest fixtures linked into executables (no embedded filesystem)."""
    out = tmp_path_factory.mktemp("guest-exe")
    exes = {}
    for name, wasm in guest_wasm.items():
        exe = out / name
        cmd_build(BuildPlan(wasm=wasm, output=exe))
        exes[name] = exe
    return exes


@pytest.fixture(scope="session")
def www_dir(tmp_path_factory) -> Path:
    www = tmp_path_factory.mktemp("www")
    (www / "index.html").write_text("<html><body>seam test page</body></html>\n")
    (www / "data.bin").write_bytes(bytes(range(256)) * 64)
    sub = www / "assets"
    sub.mkdir()
    (sub / "style.css").write_text("body { color: black }\n")
    return www


@pytest.fixture(scope="session")
def httpd_exe(guest_wasm, www_dir, tmp_path_factory) -> Path:
    exe = tmp_path_factory.mktemp("httpd") / "httpd"
    cmd_build(BuildPlan(wasm=guest_wasm["httpd"], output=exe, fs_dir=www_dir))
    return exe


class TarNode(ctypes.Structure):
    _fields_ = [
        ("path", ctypes.c_char_p),
        ("is_dir", ctypes.c_uint8),
        ("content", ctypes.POINTER(ctypes.c_uint8)),
        ("size", ctypes.c_uint64),
        ("mtime", ctypes.c_uint64),
        ("parent", ctypes.c_int32),
    ]


class FdEntry(ctypes.Structure):
    """rt.h `fd_entry`, so a test can point a guest fd at a host fd it owns."""
    _fields_ = [
        ("kind", ctypes.c_uint8),
        ("sstate", ctypes.c_uint8),
        ("host_fd", ctypes.c_int),
        ("fdflags", ctypes.c_uint16),
        ("node", ctypes.c_void_p),
        ("cursor", ctypes.c_uint64),
    ]


class RuntimeLib:
    """ctypes facade over the runtime shared build for direct WASI testing."""

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path), mode=os.RTLD_LOCAL)
        self.lib = lib
        u32, u64 = ctypes.c_uint32, ctypes.c_uint64
        lib.rt_mem_reset.restype = ctypes.c_int
        lib.rt_mem_reset.argtypes = [u32, u32]
        lib.memory_base.restype = ctypes.c_void_p
        lib.memory_grow.restype = u32
        lib.memory_grow.argtypes = [u32]
        lib.rt_mem_committed_bytes.restype = u64
        lib.rt_fs_mount.restype = ctypes.c_int
        lib.rt_fs_mount.argtypes = [ctypes.c_void_p, u64]
        lib.rt_fs_lookup_at.restype = ctypes.POINTER(TarNode)
        lib.rt_fs_lookup_at.argtypes = [ctypes.c_void_p, ctypes.c_char_p,
                                        ctypes.c_size_t, ctypes.POINTER(ctypes.c_int)]
        for name, sig in ABI.items():
            fn = getattr(lib, name)
            fn.restype = u32 if sig.results else None
            fn.argtypes = [{"i32": u32, "i64": u64}[t] for t in sig.params]
        self.fdt = (FdEntry * 1024).in_dll(lib, "rt_fdt")
        self.fs_nodes = ctypes.pointer(TarNode.in_dll(lib, "rt_fs_nodes"))
        self.fs_count = ctypes.c_int.in_dll(lib, "rt_fs_count")
        self.tar_image = None  # the buffer the mounted nodes point into
        self.environ = None  # the block the runtime's getenv reads

    def boot(self, initial_pages=4, max_pages=16, tar: bytes | None = None,
             args: str = "", env: str = ""):
        """Fresh linear memory + filesystem + fd table, like the exe boot path."""
        assert self.lib.rt_mem_reset(initial_pages, max_pages) == 0
        if tar is not None:
            assert self.mount(tar) == 0
        else:
            self.lib.rt_fs_mount(None, 0)
        self.set_environ({"GUEST_ARGS": args, "GUEST_ENV": env})
        self.lib.rt_fd_init()
        self.lib.rt_args_init()

    def set_environ(self, variables: dict[str, str]):
        """Hand the runtime an environment block, as main hands it the
        process's own; its getenv reads nothing else. Empty values are left
        out, and the block lives until the next call."""
        entries = [f"{k}={v}".encode() for k, v in variables.items() if v]
        self.environ = (ctypes.c_char_p * (len(entries) + 1))(*entries, None)
        self.lib.rt_set_environ(self.environ)

    # tar filesystem helpers
    def mount(self, image: bytes) -> int:
        """rt_fs_mount over a copy of image that lives until the next mount."""
        self.tar_image = ctypes.create_string_buffer(image, len(image))
        return self.lib.rt_fs_mount(self.tar_image, len(image))

    def lookup(self, path: str, base: TarNode | None = None) -> tuple[TarNode | None, int]:
        """rt_fs_lookup_at from base (the root when None): (node, 0) or (None, WASI errno)."""
        raw = path.encode()
        werr = ctypes.c_int(-1)
        node = self.lib.rt_fs_lookup_at(None if base is None else ctypes.addressof(base),
                                        raw, len(raw), ctypes.byref(werr))
        return (node.contents if node else None), werr.value

    @staticmethod
    def content(node: TarNode) -> bytes:
        return ctypes.string_at(node.content, node.size)

    def files(self) -> dict[str, bytes]:
        """Every mounted file's path and content, read from the image buffer."""
        nodes = [self.fs_nodes[i] for i in range(self.fs_count.value)]
        return {n.path.decode(): self.content(n) for n in nodes if not n.is_dir}

    # linear memory helpers
    def base(self) -> int:
        return self.lib.memory_base()

    def write(self, addr: int, data: bytes):
        ctypes.memmove(self.base() + addr, data, len(data))

    def read(self, addr: int, n: int) -> bytes:
        return ctypes.string_at(self.base() + addr, n)

    def u32(self, addr: int) -> int:
        return struct.unpack("<I", self.read(addr, 4))[0]

    def u64(self, addr: int) -> int:
        return struct.unpack("<Q", self.read(addr, 8))[0]

    def put_u32(self, addr: int, v: int):
        self.write(addr, struct.pack("<I", v))

    def iovec(self, addr: int, buf_addr: int, length: int):
        self.write(addr, struct.pack("<II", buf_addr, length))

    def str_in(self, addr: int, s: str) -> int:
        raw = s.encode()
        self.write(addr, raw)
        return len(raw)


@pytest.fixture(scope="session")
def rt() -> RuntimeLib:
    return RuntimeLib(test_shared_lib())


@pytest.fixture()
def rtb(rt) -> RuntimeLib:
    """Runtime rebooted with plain defaults for each test."""
    rt.boot()
    return rt
