"""WASI core functions driven directly against the runtime via ctypes.

Layout notes: iovec {buf u32, len u32}; fdstat 24 B; filestat 64 B;
prestat 8 B; dirent 24 B + name. Addresses below are linear-memory offsets.
"""

import fcntl
import io
import json
import os
import socket
import struct
import subprocess
import sys
import tarfile

import pytest

from seam.codegen import ABI, NOSYS

from conftest import FdEntry

W_SUCCESS, W_BADF, W_INVAL, W_ISDIR, W_NOENT, W_ROFS, W_SPIPE, W_NOSYS, W_NOTDIR = \
    0, 8, 28, 31, 44, 69, 70, 52, 54


def make_tar(files: dict, dirs: list = ()) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tf:
        for d in dirs:
            info = tarfile.TarInfo(d)
            info.type = tarfile.DIRTYPE
            tf.addfile(info)
        for name, data in files.items():
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tf.addfile(info, io.BytesIO(data))
    return buf.getvalue()


SAMPLE = {"index.html": b"<h1>hi</h1>", "www/a.txt": b"abc", "www/b.txt": b"B" * 700}


@pytest.fixture()
def rtfs(rt):
    rt.boot(initial_pages=4, max_pages=8, tar=make_tar(SAMPLE, dirs=["www"]),
            args="app --flag", env="K=V,X=Y")
    return rt


# ---- fd_write ----


def test_fd_write_stdout(rtfs, capfd):
    rtfs.write(64, b"hi\n")
    rtfs.iovec(0, 64, 3)
    assert rtfs.lib.fd_write(1, 0, 1, 32) == W_SUCCESS
    assert rtfs.u32(32) == 3
    assert capfd.readouterr().out == "hi\n"


def test_fd_write_gathers_iovecs(rtfs, capfd):
    rtfs.write(64, b"hello ")
    rtfs.write(96, b"world\n")
    rtfs.iovec(0, 64, 6)
    rtfs.iovec(8, 96, 6)
    assert rtfs.lib.fd_write(1, 0, 2, 32) == W_SUCCESS
    assert rtfs.u32(32) == 12
    assert capfd.readouterr().out == "hello world\n"


def test_stdio_read_keeps_count_after_error(rtb):
    """1100 one-byte iovecs over a non-blocking pipe holding 1024 bytes: the
    first readv fills 1024 iovecs, the second meets EAGAIN, and the guest
    gets the 1024 bytes, not the errno."""
    r, w = os.pipe()
    os.set_blocking(r, False)
    data = bytes(range(256)) * 4
    try:
        os.write(w, data)
        rtb.fdt[0].host_fd = r
        for i in range(1100):
            rtb.iovec(8 * i, 16384 + i, 1)
        assert rtb.lib.fd_read(0, 0, 1100, 12000) == W_SUCCESS
        assert rtb.u32(12000) == len(data)
        assert rtb.read(16384, len(data)) == data
    finally:
        rtb.fdt[0].host_fd = 0
        os.close(r)
        os.close(w)


NONBLOCK_STDIN_READER = """
import json, os, sys
sys.path[:0] = json.loads(sys.argv[1])
from conftest import RuntimeLib
from seam.runtime import test_shared_lib
rt = RuntimeLib(test_shared_lib())
rt.boot()
r, w = os.pipe()
rt.fdt[0].host_fd = r
assert rt.lib.fd_fdstat_set_flags(0, 0x4) == 0
rt.iovec(0, 64, 16)
print(rt.lib.fd_read(0, 0, 1, 32))
"""


def test_nonblocking_stdin_read_is_again():
    """NONBLOCK set on fd 0 reaches its host fd: fd_read on an empty pipe
    returns AGAIN (6). In a child, so that a read that blocks fails the
    test by the timeout instead of hanging the suite."""
    proc = subprocess.run([sys.executable, "-c", NONBLOCK_STDIN_READER, json.dumps(sys.path)],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "6"


def test_stdio_write_keeps_count_after_error(rt):
    """Two iovecs of 3/4 of a non-blocking pipe's capacity each: writev
    fills the pipe, the retry meets EAGAIN, and the guest gets the count
    the pipe took, not the errno."""
    rt.boot(initial_pages=16, max_pages=16)
    r, w = os.pipe()
    os.set_blocking(w, False)
    half = fcntl.fcntl(w, fcntl.F_GETPIPE_SZ) * 3 // 4
    data = bytes(i * 7 % 251 for i in range(2 * half))
    try:
        rt.write(65536, data)
        rt.iovec(0, 65536, half)
        rt.iovec(8, 65536 + half, half)
        rt.fdt[1].host_fd = w
        assert rt.lib.fd_write(1, 0, 2, 32) == W_SUCCESS
        n = rt.u32(32)
        assert half < n < len(data)
        assert os.read(r, len(data)) == data[:n]
    finally:
        rt.fdt[1].host_fd = 1
        os.close(r)
        os.close(w)


def test_fd_write_bad_fd(rtfs):
    rtfs.iovec(0, 64, 1)
    assert rtfs.lib.fd_write(99, 0, 1, 32) == W_BADF


def test_fd_write_tar_file_is_rofs(rtfs):
    path_len = rtfs.str_in(256, "index.html")
    assert rtfs.lib.path_open(3, 0, 256, path_len, 0, 0, 0, 0, 512) == W_SUCCESS
    fd = rtfs.u32(512)
    rtfs.iovec(0, 64, 1)
    assert rtfs.lib.fd_write(fd, 0, 1, 32) == W_ROFS


# ---- fd_read / fd_seek ----


def open_path(rt, path: str, oflags=0, fdflags=0):
    n = rt.str_in(256, path)
    rc = rt.lib.path_open(3, 0, 256, n, oflags, 0, 0, fdflags, 512)
    return rc, rt.u32(512)


def test_tar_read_cursor(rtfs):
    rc, fd = open_path(rtfs, "www/a.txt")
    assert rc == W_SUCCESS
    rtfs.iovec(0, 1024, 2)
    assert rtfs.lib.fd_read(fd, 0, 1, 32) == W_SUCCESS
    assert rtfs.u32(32) == 2
    assert rtfs.read(1024, 2) == b"ab"
    assert rtfs.lib.fd_read(fd, 0, 1, 32) == W_SUCCESS
    assert rtfs.u32(32) == 1
    assert rtfs.read(1024, 1) == b"c"
    assert rtfs.lib.fd_read(fd, 0, 1, 32) == W_SUCCESS
    assert rtfs.u32(32) == 0  # EOF


def test_read_dir_fd_is_isdir(rtfs):
    rtfs.iovec(0, 1024, 16)
    assert rtfs.lib.fd_read(3, 0, 1, 32) == W_ISDIR


def test_fd_seek_tar_file(rtfs):
    rc, fd = open_path(rtfs, "www/b.txt")
    assert rtfs.lib.fd_seek(fd, 100, 0, 32) == W_SUCCESS  # SET
    assert rtfs.u64(32) == 100
    assert rtfs.lib.fd_seek(fd, -50, 1, 32) == W_SUCCESS  # CUR
    assert rtfs.u64(32) == 50
    assert rtfs.lib.fd_seek(fd, 0, 2, 32) == W_SUCCESS  # END
    assert rtfs.u64(32) == 700
    assert rtfs.lib.fd_seek(fd, -701, 1, 32) == W_INVAL
    assert rtfs.lib.fd_seek(fd, 1, 2, 32) == W_INVAL  # beyond size
    assert rtfs.lib.fd_seek(fd, 0, 9, 32) == W_INVAL  # bad whence


def test_fd_seek_stdio_is_spipe(rtfs):
    assert rtfs.lib.fd_seek(1, 0, 0, 32) == W_SPIPE


# ---- args / environ ----


def test_args_sizes_and_get(rtfs):
    assert rtfs.lib.args_sizes_get(0, 4) == W_SUCCESS
    argc, bufsz = rtfs.u32(0), rtfs.u32(4)
    assert argc == 2
    assert bufsz == len(b"app\x00--flag\x00")
    assert rtfs.lib.args_get(16, 64) == W_SUCCESS
    p0, p1 = rtfs.u32(16), rtfs.u32(20)
    assert rtfs.read(p0, 4) == b"app\x00"
    assert rtfs.read(p1, 7) == b"--flag\x00"


def test_single_arg_counted_bytes(rt):
    rt.boot(args="app")
    assert rt.lib.args_sizes_get(0, 4) == W_SUCCESS
    assert rt.u32(0) == 1
    assert rt.u32(4) == 4  # "app\0"


def test_environ(rtfs):
    assert rtfs.lib.environ_sizes_get(0, 4) == W_SUCCESS
    assert rtfs.u32(0) == 2
    assert rtfs.lib.environ_get(16, 64) == W_SUCCESS
    assert rtfs.read(rtfs.u32(16), 4) == b"K=V\x00"


# ---- clocks / random / misc ----


def test_clock_monotonicity(rtb):
    assert rtb.lib.clock_time_get(1, 0, 0) == W_SUCCESS
    t1 = rtb.u64(0)
    assert rtb.lib.clock_time_get(1, 0, 8) == W_SUCCESS
    t2 = rtb.u64(8)
    assert t2 >= t1 > 0


def test_clock_realtime_plausible(rtb):
    assert rtb.lib.clock_time_get(0, 0, 0) == W_SUCCESS
    # after 2020-01-01 in nanoseconds
    assert rtb.u64(0) > 1_577_836_800 * 10**9


def test_clock_bad_id(rtb):
    assert rtb.lib.clock_time_get(5, 0, 0) == W_INVAL
    assert rtb.lib.clock_res_get(9, 0) == W_INVAL


def test_clock_res(rtb):
    assert rtb.lib.clock_res_get(1, 0) == W_SUCCESS
    assert 0 < rtb.u64(0) <= 10**9


def test_random_get_fills_and_varies(rtb):
    assert rtb.lib.random_get(0, 64) == W_SUCCESS
    a = rtb.read(0, 64)
    assert rtb.lib.random_get(0, 64) == W_SUCCESS
    b = rtb.read(0, 64)
    assert a != b  # 2^-512 false-failure probability


def test_sched_yield(rtb):
    assert rtb.lib.sched_yield() == W_SUCCESS


def test_nosys_stub(rtb):
    for name in sorted(NOSYS):
        assert getattr(rtb.lib, name)(*[0] * len(ABI[name].params)) == W_NOSYS, name


# ---- fdstat / filestat / prestat ----


def test_fdstat_stdio(rtb):
    assert rtb.lib.fd_fdstat_get(1, 0) == W_SUCCESS
    stat = rtb.read(0, 24)
    assert stat[0] == 2  # character device
    rights = struct.unpack("<Q", stat[8:16])[0]
    assert rights & (1 << 6)  # fd_write


def test_fdstat_bad_fd(rtb):
    assert rtb.lib.fd_fdstat_get(77, 0) == W_BADF


def test_prestat_contract(rtb):
    assert rtb.lib.fd_prestat_get(3, 0) == W_SUCCESS
    tag = rtb.read(0, 1)[0]
    name_len = rtb.u32(4)
    assert tag == 0 and name_len == 1
    assert rtb.lib.fd_prestat_dir_name(3, 64, 1) == W_SUCCESS
    assert rtb.read(64, 1) == b"/"
    assert rtb.lib.fd_prestat_get(4, 0) == W_BADF
    assert rtb.lib.fd_prestat_get(1, 0) == W_BADF


def test_filestat_tar_file(rtfs):
    rc, fd = open_path(rtfs, "www/b.txt")
    assert rtfs.lib.fd_filestat_get(fd, 0) == W_SUCCESS
    stat = rtfs.read(0, 64)
    assert stat[16] == 4  # regular file
    assert struct.unpack("<Q", stat[32:40])[0] == 700


RIGHTS = {name: 1 << bit for name, bit in [
    ("fd_read", 1), ("fd_seek", 2), ("fd_tell", 5), ("fd_write", 6), ("path_open", 13),
    ("fd_readdir", 14), ("path_filestat_get", 18), ("fd_filestat_get", 21),
    ("poll_fd_readwrite", 27), ("sock_shutdown", 28), ("sock_accept", 29)]}


def rights(*names: str) -> int:
    return sum(RIGHTS[name] for name in names)


DIR_RIGHTS = rights("path_open", "fd_readdir", "path_filestat_get", "fd_filestat_get")


def test_fdstat_and_filestat_on_every_fd_kind(rtfs):
    """fd_fdstat_get's file type, fdflags and rights (base and inheriting
    alike), and fd_filestat_get's file type and size, on each kind of fd."""
    _, tar_dir = open_path(rtfs, "www", oflags=2)
    _, tar_file = open_path(rtfs, "www/b.txt", fdflags=1)
    host, peer = socket.socketpair()
    with host, peer:
        sock = tar_file + 1
        rtfs.fdt[sock] = FdEntry(kind=4, sstate=3, host_fd=host.fileno())  # connected
        kinds = [  # fd, filetype, fdflags, rights, filestat size
            (0, 2, 0, rights("fd_read", "poll_fd_readwrite"), 0),
            (1, 2, 0, rights("fd_write", "poll_fd_readwrite"), 0),
            (2, 2, 0, rights("fd_write", "poll_fd_readwrite"), 0),
            (3, 3, 0, DIR_RIGHTS, 0),
            (tar_dir, 3, 0, DIR_RIGHTS, 0),
            (tar_file, 4, 1, rights("fd_read", "fd_seek", "fd_tell", "fd_filestat_get",
                                    "poll_fd_readwrite"), 700),
            (sock, 6, 0, rights("fd_read", "fd_write", "poll_fd_readwrite", "sock_shutdown",
                                "sock_accept"), 0),
        ]
        for fd, filetype, fdflags, base, size in kinds:
            rtfs.write(0, b"\xaa" * 24)
            assert rtfs.lib.fd_fdstat_get(fd, 0) == W_SUCCESS, fd
            assert struct.unpack("<BxHxxxxQQ", rtfs.read(0, 24)) == (filetype, fdflags, base, base), fd
            rtfs.write(64, b"\xaa" * 64)
            assert rtfs.lib.fd_filestat_get(fd, 64) == W_SUCCESS, fd
            stat = rtfs.read(64, 64)
            assert (stat[16], struct.unpack_from("<Q", stat, 32)[0]) == (filetype, size), fd
        rtfs.fdt[sock] = FdEntry()  # the socket object closes its fd


def test_path_filestat(rtfs):
    n = rtfs.str_in(256, "www")
    assert rtfs.lib.path_filestat_get(3, 0, 256, n, 0) == W_SUCCESS
    assert rtfs.read(0, 64)[16] == 3  # directory
    n = rtfs.str_in(256, "missing")
    assert rtfs.lib.path_filestat_get(3, 0, 256, n, 0) == W_NOENT


# ---- path_open ----


def test_path_open_lowest_free_index(rtfs):
    rc, fd = open_path(rtfs, "index.html")
    assert (rc, fd) == (W_SUCCESS, 4)  # pristine table: first free is 4
    rc, fd2 = open_path(rtfs, "www/a.txt")
    assert (rc, fd2) == (W_SUCCESS, 5)
    assert rtfs.lib.fd_close(4) == W_SUCCESS
    rc, fd3 = open_path(rtfs, "www/b.txt")
    assert (rc, fd3) == (W_SUCCESS, 4)  # lowest free index reused


def test_path_open_missing(rtfs):
    rc, _ = open_path(rtfs, "missing.txt")
    assert rc == W_NOENT


def test_path_open_creat_is_rofs(rtfs):
    rc, _ = open_path(rtfs, "new.txt", oflags=0x1)  # CREAT
    assert rc == W_ROFS
    rc, _ = open_path(rtfs, "index.html", oflags=0x8)  # TRUNC
    assert rc == W_ROFS


def test_path_open_escape_rejected(rtfs):
    n = rtfs.str_in(256, "../etc")
    assert rtfs.lib.path_open(3, 0, 256, n, 0, 0, 0, 0, 512) == W_INVAL


def test_path_open_directory_flag(rtfs):
    rc, fd = open_path(rtfs, "www", oflags=0x2)  # DIRECTORY
    assert rc == W_SUCCESS
    n = rtfs.str_in(256, "index.html")
    assert rtfs.lib.path_open(3, 0, 256, n, 0x2, 0, 0, 0, 512) == W_NOTDIR


def test_path_open_relative_to_opened_dir(rtfs):
    rc, dirfd = open_path(rtfs, "www", oflags=0x2)
    n = rtfs.str_in(256, "a.txt")
    assert rtfs.lib.path_open(dirfd, 0, 256, n, 0, 0, 0, 0, 512) == W_SUCCESS
    fd = rtfs.u32(512)
    rtfs.iovec(0, 1024, 8)
    assert rtfs.lib.fd_read(fd, 0, 1, 32) == W_SUCCESS
    assert rtfs.read(1024, 3) == b"abc"


def test_fd_close_bad(rtb):
    assert rtb.lib.fd_close(44) == W_BADF


def test_fd_table_exhaustion(rtfs):
    # 1024-entry table, 4 reserved: opening beyond capacity reports NFILE
    W_NFILE = 41
    opened = 0
    rc = 0
    while opened < 2000:
        rc, _ = open_path(rtfs, "index.html")
        if rc != 0:
            break
        opened += 1
    assert rc == W_NFILE
    assert opened == 1020
    assert rtfs.lib.fd_close(4) == 0
    rc, fd = open_path(rtfs, "index.html")
    assert (rc, fd) == (0, 4)  # freed slot is reusable immediately


# ---- fd_readdir ----


def test_readdir_lists_children(rtfs):
    rc, fd = open_path(rtfs, "www", oflags=0x2)
    assert rtfs.lib.fd_readdir(fd, 0, 4096, 0, 8192) == W_SUCCESS
    used = rtfs.u32(8192)
    buf = rtfs.read(0, used)
    names = []
    off = 0
    while off < used:
        d_next, d_ino = struct.unpack_from("<QQ", buf, off)
        namlen = struct.unpack_from("<I", buf, off + 16)[0]
        ftype = buf[off + 20]
        names.append((buf[off + 24 : off + 24 + namlen].decode(), ftype))
        off += 24 + namlen
    assert sorted(n for n, _ in names) == ["a.txt", "b.txt"]
    assert all(t == 4 for _, t in names)


def test_readdir_cookie_resumes(rtfs):
    rc, fd = open_path(rtfs, "www", oflags=0x2)
    assert rtfs.lib.fd_readdir(fd, 0, 4096, 1, 8192) == W_SUCCESS
    used = rtfs.u32(8192)
    namlen = struct.unpack_from("<I", rtfs.read(0, used), 16)[0]
    assert used == 24 + namlen  # exactly one entry left after cookie 1


def test_readdir_on_file_is_notdir(rtfs):
    rc, fd = open_path(rtfs, "index.html")
    assert rtfs.lib.fd_readdir(fd, 0, 4096, 0, 8192) == W_NOTDIR


# ---- poll_oneoff edges (its 20-case table is tests/test_poll.py) ----

EVT_CLOCK, EVT_FD_READ, EVT_FD_WRITE = 0, 1, 2
# apart from each other for 128 subscriptions, which test_poll.py's layout
# is not: its events start inside the 43rd subscription
POLL_SUBS, POLL_EVENTS, POLL_NEVENTS = 16384, 32768, 40960


def poll_subs(rt, subs: list) -> list:
    """poll_oneoff over (userdata, tag, fd or clock id, timeout ns, flags)
    subscriptions; the events as (userdata, errno, type, nbytes) in order."""
    for i, (userdata, tag, ident, timeout, flags) in enumerate(subs):
        rt.write(POLL_SUBS + 48 * i,
                 struct.pack("<QB7xI4xQQH6x", userdata, tag, ident, timeout, 0, flags))
    assert rt.lib.poll_oneoff(POLL_SUBS, POLL_EVENTS, len(subs), POLL_NEVENTS) == W_SUCCESS
    return [struct.unpack_from("<QHB5xQ", rt.read(POLL_EVENTS + 32 * k, 32))
            for k in range(rt.u32(POLL_NEVENTS))]


def test_poll_answers_128_mixed_subscriptions(rtfs):
    """128, the most one call takes: a write-ready socket, then tar files,
    bad fds and due clocks in turn. Each gets exactly its one event."""
    from test_poll import connected_pair
    _, fd = open_path(rtfs, "www/b.txt")
    cfd, py = connected_pair(rtfs)
    try:
        subs = [(0, EVT_FD_WRITE, cfd, 0, 0)]
        want = [(0, W_SUCCESS, EVT_FD_WRITE, 65536)]
        for i in range(1, 128):
            sub, event = [((EVT_FD_READ, fd), (W_SUCCESS, EVT_FD_READ, 700)),
                          ((EVT_FD_READ, 1000 + i), (W_BADF, EVT_FD_READ, 0)),
                          ((EVT_CLOCK, 1), (W_SUCCESS, EVT_CLOCK, 0))][i % 3]
            subs.append((i, *sub, 0, 0))
            want.append((i, *event))
        assert sorted(poll_subs(rtfs, subs)) == want
    finally:
        py.close()


def test_poll_reports_due_clock_with_ready_tar_file(rtfs):
    """An absolute monotonic clock already past and a ready tar file: both
    are reported, the file first (events known at entry precede clocks)."""
    _, fd = open_path(rtfs, "www/a.txt")
    evs = poll_subs(rtfs, [(1, EVT_CLOCK, 1, 1, 1), (2, EVT_FD_READ, fd, 0, 0)])
    assert evs == [(2, W_SUCCESS, EVT_FD_READ, 3), (1, W_SUCCESS, EVT_CLOCK, 0)]


def test_poll_clock_past_the_range_never_fires(rtfs):
    """A relative timeout of 2^64-1 ns never comes, rather than wrapping
    around to now: the 1 ms clock beside it fires alone."""
    evs = poll_subs(rtfs, [(1, EVT_CLOCK, 1, 2**64 - 1, 0), (2, EVT_CLOCK, 1, 1_000_000, 0)])
    assert evs == [(2, W_SUCCESS, EVT_CLOCK, 0)]
