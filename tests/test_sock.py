"""WasmEdge-compatible socket layer: loopback behavior plus the exhaustive
(state, operation) table. Python sockets play the remote peer."""

import ctypes
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import FdEntry, free_port
from seam.driver import BuildPlan, cmd_build
from wasmgen import ModuleBuilder

W_SUCCESS, W_ADDRINUSE, W_AFNOSUPPORT, W_AGAIN, W_BADF, W_INVAL, W_ISCONN, W_NOTCONN = \
    0, 3, 5, 6, 8, 28, 30, 53

ADDR_REC = 0      # wasi_address record {buf_ptr, buf_len}
ADDR_BUF = 16     # 4 raw IPv4 bytes
OUT = 512         # result cells
IOV = 32
DATA = 1024


def set_addr(rt, ip: str):
    rt.write(ADDR_BUF, socket.inet_aton(ip))
    rt.write(ADDR_REC, struct.pack("<II", ADDR_BUF, 4))


def sock_open(rt, af=1, ty=2):
    rc = rt.lib.sock_open(af, ty, OUT)
    return rc, rt.u32(OUT)


def bind_local(rt, fd, port=0):
    set_addr(rt, "127.0.0.1")
    return rt.lib.sock_bind(fd, ADDR_REC, port)


def local_port(rt, fd) -> int:
    rt.write(ADDR_REC, struct.pack("<II", ADDR_BUF, 4))
    assert rt.lib.sock_getlocaladdr(fd, ADDR_REC, OUT + 8, OUT + 12) == W_SUCCESS
    return rt.u32(OUT + 12)


def rt_listener(rt):
    rc, fd = sock_open(rt)
    assert rc == W_SUCCESS
    assert bind_local(rt, fd) == W_SUCCESS
    assert rt.lib.sock_listen(fd, 8) == W_SUCCESS
    return fd, local_port(rt, fd)


def rt_connect_to(rt, port) -> int:
    rc, fd = sock_open(rt)
    assert rc == W_SUCCESS
    set_addr(rt, "127.0.0.1")
    assert rt.lib.sock_connect(fd, ADDR_REC, port) == W_SUCCESS
    return fd


def recv_into(rt, fd, n, flags=0):
    rt.iovec(IOV, DATA, n)
    rc = rt.lib.sock_recv(fd, IOV, 1, flags, OUT, OUT + 4)
    return rc, rt.u32(OUT)


def send_bytes(rt, fd, data: bytes):
    rt.write(DATA + 4096, data)
    rt.iovec(IOV + 16, DATA + 4096, len(data))
    rc = rt.lib.sock_send(fd, IOV + 16, 1, 0, OUT)
    return rc, rt.u32(OUT)


# ---- open validation ----


def test_open_inet4_stream(rtb):
    rc, fd = sock_open(rtb)
    assert rc == W_SUCCESS
    assert fd == 4  # lowest free index


def test_open_inet6_rejected(rtb):
    rc, _ = sock_open(rtb, af=2)
    assert rc == W_AFNOSUPPORT


def test_open_unspec_rejected(rtb):
    rc, _ = sock_open(rtb, af=0)
    assert rc == W_AFNOSUPPORT


def test_open_dgram_rejected(rtb):
    rc, _ = sock_open(rtb, ty=1)
    assert rc == W_INVAL


# ---- loopback flows ----


def test_echo_roundtrip(rtb):
    lfd, port = rt_listener(rtb)
    py = socket.create_connection(("127.0.0.1", port), timeout=5)
    try:
        assert rtb.lib.sock_accept(lfd, 0, OUT + 16) == W_SUCCESS
        cfd = rtb.u32(OUT + 16)
        py.sendall(b"ping")
        time.sleep(0.05)
        rc, n = recv_into(rtb, cfd, 64)
        assert (rc, n) == (W_SUCCESS, 4)
        assert rtb.read(DATA, 4) == b"ping"
        rc, n = send_bytes(rtb, cfd, b"pong")
        assert (rc, n) == (W_SUCCESS, 4)
        assert py.recv(16) == b"pong"
    finally:
        py.close()


def test_recv_after_peer_close_is_eof(rtb):
    lfd, port = rt_listener(rtb)
    py = socket.create_connection(("127.0.0.1", port), timeout=5)
    assert rtb.lib.sock_accept(lfd, 0, OUT + 16) == W_SUCCESS
    cfd = rtb.u32(OUT + 16)
    py.close()
    time.sleep(0.05)
    rc, n = recv_into(rtb, cfd, 64)
    assert (rc, n) == (W_SUCCESS, 0)


def test_shutdown_wr_peer_sees_eof(rtb):
    lfd, port = rt_listener(rtb)
    py = socket.create_connection(("127.0.0.1", port), timeout=5)
    try:
        assert rtb.lib.sock_accept(lfd, 0, OUT + 16) == W_SUCCESS
        cfd = rtb.u32(OUT + 16)
        assert rtb.lib.sock_shutdown(cfd, 2) == W_SUCCESS  # WR
        assert py.recv(16) == b""
    finally:
        py.close()


def test_shutdown_invalid_how_bits(rtb):
    lfd, port = rt_listener(rtb)
    py = socket.create_connection(("127.0.0.1", port), timeout=5)
    try:
        assert rtb.lib.sock_accept(lfd, 0, OUT + 16) == W_SUCCESS
        cfd = rtb.u32(OUT + 16)
        assert rtb.lib.sock_shutdown(cfd, 0) == W_INVAL
        assert rtb.lib.sock_shutdown(cfd, 9) == W_INVAL
    finally:
        py.close()


def test_nonblocking_recv_returns_again(rtb):
    lfd, port = rt_listener(rtb)
    py = socket.create_connection(("127.0.0.1", port), timeout=5)
    try:
        assert rtb.lib.sock_accept(lfd, 0, OUT + 16) == W_SUCCESS
        cfd = rtb.u32(OUT + 16)
        assert rtb.lib.fd_fdstat_set_flags(cfd, 0x4) == W_SUCCESS  # NONBLOCK
        rc, _ = recv_into(rtb, cfd, 16)
        assert rc == W_AGAIN
    finally:
        py.close()


def test_nonblocking_accept_returns_again(rtb):
    lfd, _port = rt_listener(rtb)
    assert rtb.lib.fd_fdstat_set_flags(lfd, 0x4) == W_SUCCESS
    assert rtb.lib.sock_accept(lfd, 0, OUT + 16) == W_AGAIN


def test_ephemeral_bind_reports_port(rtb):
    rc, fd = sock_open(rtb)
    rtb.write(ADDR_BUF, socket.inet_aton("0.0.0.0"))
    rtb.write(ADDR_REC, struct.pack("<II", ADDR_BUF, 4))
    assert rtb.lib.sock_bind(fd, ADDR_REC, 0) == W_SUCCESS
    assert local_port(rtb, fd) > 0


def test_bind_same_port_addrinuse(rtb):
    _lfd, port = rt_listener(rtb)
    rc, fd2 = sock_open(rtb)
    set_addr(rtb, "127.0.0.1")
    assert rtb.lib.sock_bind(fd2, ADDR_REC, port) == W_ADDRINUSE


def test_getpeeraddr(rtb):
    lfd, port = rt_listener(rtb)
    cfd = rt_connect_to(rtb, port)
    rtb.write(ADDR_REC, struct.pack("<II", ADDR_BUF, 4))
    assert rtb.lib.sock_getpeeraddr(cfd, ADDR_REC, OUT + 8, OUT + 12) == W_SUCCESS
    assert rtb.read(ADDR_BUF, 4) == socket.inet_aton("127.0.0.1")
    assert rtb.u32(OUT + 8) == 4  # address type IPv4
    assert rtb.u32(OUT + 12) == port


def test_recv_peek_does_not_consume(rtb):
    lfd, port = rt_listener(rtb)
    py = socket.create_connection(("127.0.0.1", port), timeout=5)
    try:
        assert rtb.lib.sock_accept(lfd, 0, OUT + 16) == W_SUCCESS
        cfd = rtb.u32(OUT + 16)
        py.sendall(b"abcd")
        time.sleep(0.05)
        rc, n = recv_into(rtb, cfd, 64, flags=0x1)  # RECV_PEEK
        assert (rc, n) == (W_SUCCESS, 4)
        rc, n = recv_into(rtb, cfd, 64)
        assert (rc, n) == (W_SUCCESS, 4)
    finally:
        py.close()


def test_fd_read_write_delegate_to_socket(rtb):
    """WASI preview1 fd_read/fd_write work directly on socket fds."""
    lfd, port = rt_listener(rtb)
    py = socket.create_connection(("127.0.0.1", port), timeout=5)
    try:
        assert rtb.lib.sock_accept(lfd, 0, OUT + 16) == W_SUCCESS
        cfd = rtb.u32(OUT + 16)
        py.sendall(b"via-fd-read")
        time.sleep(0.05)
        rtb.iovec(IOV, DATA, 64)
        assert rtb.lib.fd_read(cfd, IOV, 1, OUT) == W_SUCCESS
        assert rtb.u32(OUT) == 11
        assert rtb.read(DATA, 11) == b"via-fd-read"
        rtb.write(DATA + 100, b"via-fd-write")
        rtb.iovec(IOV + 16, DATA + 100, 12)
        assert rtb.lib.fd_write(cfd, IOV + 16, 1, OUT) == W_SUCCESS
        assert py.recv(32) == b"via-fd-write"
    finally:
        py.close()


def accept_peer(rt, lfd, port, flags=0, rcvbuf=None):
    """A Python peer connected to the runtime listener; returns (peer, fd)."""
    py = socket.socket()
    py.settimeout(5)
    if rcvbuf is not None:
        py.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    py.connect(("127.0.0.1", port))
    assert rt.lib.sock_accept(lfd, flags, OUT + 16) == W_SUCCESS
    return py, rt.u32(OUT + 16)


def recv_exactly(py, n: int) -> bytes:
    got = bytearray()
    while len(got) < n:
        chunk = py.recv(n - len(got))
        assert chunk, f"peer closed after {len(got)} of {n} bytes"
        got += chunk
    return bytes(got)


SENTINEL = b"\xaa" * 32


@pytest.mark.parametrize("datalen_at, flags_at", [(16, 20), (0, 8), (8, 0)])
def test_recv_out_cells(rtb, datalen_at, flags_at):
    """ro_datalen is a u32 and ro_flags a u16 (preview1 roflags); both are
    written wherever they sit, address 0 included, and nothing around them."""
    lfd, port = rt_listener(rtb)
    py, cfd = accept_peer(rtb, lfd, port)
    try:
        py.sendall(b"abc")
        rtb.write(0, SENTINEL)
        rtb.iovec(IOV, DATA, 64)
        assert rtb.lib.sock_recv(cfd, IOV, 1, 0, datalen_at, flags_at) == W_SUCCESS
        want = bytearray(SENTINEL)
        want[datalen_at:datalen_at + 4] = struct.pack("<I", 3)
        want[flags_at:flags_at + 2] = b"\0\0"
        assert rtb.read(0, 32) == bytes(want)
    finally:
        py.close()


def test_fd_read_on_socket_writes_only_nread(rtb):
    lfd, port = rt_listener(rtb)
    py, cfd = accept_peer(rtb, lfd, port)
    try:
        py.sendall(b"abc")
        rtb.write(0, SENTINEL)
        rtb.iovec(IOV, DATA, 64)
        assert rtb.lib.fd_read(cfd, IOV, 1, 0) == W_SUCCESS
        assert rtb.read(0, 32) == struct.pack("<I", 3) + SENTINEL[4:]
    finally:
        py.close()


def test_recv_peek_spans_iovecs(rtb):
    """A peek fills the iovecs in order, like a read, and consumes nothing."""
    lfd, port = rt_listener(rtb)
    py, cfd = accept_peer(rtb, lfd, port)
    try:
        py.sendall(b"abcdefgh")
        rtb.iovec(IOV, DATA, 4)
        rtb.iovec(IOV + 8, DATA + 100, 4)
        for ri_flags in (0x1 | 0x2, 0x2):  # RECV_PEEK | RECV_WAITALL, then RECV_WAITALL
            rtb.write(DATA, b"\0" * 128)
            assert rtb.lib.sock_recv(cfd, IOV, 2, ri_flags, OUT, OUT + 4) == W_SUCCESS
            assert rtb.u32(OUT) == 8
            assert rtb.read(DATA, 4) + rtb.read(DATA + 100, 4) == b"abcdefgh"
    finally:
        py.close()


TCPI_DATA_SEGS_IN = 152  # offset of tcpi_data_segs_in in Linux struct tcp_info


def data_segs_in(py) -> int:
    info = py.getsockopt(socket.IPPROTO_TCP, socket.TCP_INFO, 256)
    return struct.unpack_from("<I", info, TCPI_DATA_SEGS_IN)[0]


def test_gathered_send_is_one_segment(rtb):
    """Header and body in two iovecs leave as one TCP segment although the
    runtime sets TCP_NODELAY: one sendmsg, not one send per iovec. The peer
    counts data-carrying segments only, so ACKs cannot blur the count."""
    lfd, port = rt_listener(rtb)
    py, cfd = accept_peer(rtb, lfd, port)
    try:
        header, body = b"H" * 100, b"B" * 200
        rtb.write(DATA, header)
        rtb.write(DATA + 1000, body)
        rtb.iovec(IOV, DATA, len(header))
        rtb.iovec(IOV + 8, DATA + 1000, len(body))
        before = data_segs_in(py)
        assert rtb.lib.sock_send(cfd, IOV, 2, 0, OUT) == W_SUCCESS
        assert rtb.u32(OUT) == 300
        assert recv_exactly(py, 300) == header + body
        assert data_segs_in(py) - before == 1
    finally:
        py.close()


IOVS = 8192  # long iovec arrays, clear of the cells above


def test_blocking_send_over_iov_max(rt):
    """3000 iovecs (three syscalls' worth) of 200 bytes, gathered from
    memory in reverse order, arrive complete and in iovec order while the
    peer drains them concurrently."""
    rt.boot(initial_pages=16, max_pages=16)
    count, size, base = 3000, 200, 65536
    data = bytes(i * 7 % 251 for i in range(count * size))
    for i in range(count):
        src = base + (count - 1 - i) * size
        rt.write(src, data[i * size:(i + 1) * size])
        rt.iovec(IOVS + 8 * i, src, size)
    lfd, port = rt_listener(rt)
    py, cfd = accept_peer(rt, lfd, port)
    got = []
    reader = threading.Thread(target=lambda: got.append(recv_exactly(py, len(data))))
    reader.start()
    try:
        assert rt.lib.sock_send(cfd, IOVS, count, 0, OUT) == W_SUCCESS
        assert rt.u32(OUT) == len(data)
        reader.join(10)
        assert got == [data]
    finally:
        py.close()
        reader.join(10)


def test_nonblocking_partial_send_crosses_iovecs(rt):
    """A non-blocking socket with small buffers takes part of a 1 MB,
    1000-iovec send; so_datalen is exactly the prefix the peer reads."""
    rt.boot(initial_pages=32, max_pages=32)
    count, size, base = 1000, 1000, 65536
    data = bytes(i * 13 % 251 for i in range(count * size))
    rt.write(base, data)
    for i in range(count):
        rt.iovec(IOVS + 8 * i, base + i * size, size)
    lfd, port = rt_listener(rt)
    py, cfd = accept_peer(rt, lfd, port, flags=0x4, rcvbuf=4096)  # NONBLOCK
    try:
        with socket.fromfd(rt.fdt[cfd].host_fd, socket.AF_INET, socket.SOCK_STREAM) as host:
            host.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        assert rt.lib.sock_send(cfd, IOVS, count, 0, OUT) == W_SUCCESS
        sent = rt.u32(OUT)
        assert size < sent < len(data)
        assert recv_exactly(py, sent) == data[:sent]
        py.settimeout(0.2)
        with pytest.raises(socket.timeout):
            py.recv(1)
    finally:
        py.close()


OOB_SENDER = """
import json, sys
sys.path[:0] = json.loads(sys.argv[1])
from conftest import RuntimeLib
from seam.runtime import test_shared_lib
import test_sock as t
rt = RuntimeLib(test_shared_lib())
rt.boot()
fd = t.rt_connect_to(rt, int(sys.argv[2]))
for i in range(1099):
    rt.iovec(t.IOVS + 8 * i, t.DATA, 1)
rt.iovec(t.IOVS + 8 * 1099, rt.lib.rt_mem_committed_bytes(), 1)
rt.lib.sock_send(fd, t.IOVS, 1100, 0, t.OUT)
"""


def test_out_of_bounds_iovec_traps_before_any_byte_moves():
    """Iovec 1099 of 1100 lies past linear memory, in the second IOV_MAX
    chunk: the send traps (exit 129) and the peer receives nothing."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(30)
        child = subprocess.Popen([sys.executable, "-c", OOB_SENDER, json.dumps(sys.path),
                                  str(listener.getsockname()[1])], stderr=subprocess.PIPE)
        try:
            peer, _ = listener.accept()
            with peer:
                peer.settimeout(30)
                assert peer.recv(4096) == b""
        finally:
            _, err = child.communicate(timeout=30)
    assert child.returncode == 129, err.decode()
    assert b"out of bounds" in err


# ---- exhaustive state-machine table ----

STATES = ("created", "bound", "listening", "connected", "shut")


def make_state(rt, state: str, py_listener):
    rc, fd = sock_open(rt)
    assert rc == W_SUCCESS
    if state == "created":
        return fd
    if state in ("bound", "listening"):
        assert bind_local(rt, fd) == W_SUCCESS
        if state == "listening":
            assert rt.lib.sock_listen(fd, 4) == W_SUCCESS
        return fd
    set_addr(rt, "127.0.0.1")
    assert rt.lib.sock_connect(fd, ADDR_REC, py_listener.getsockname()[1]) == W_SUCCESS
    peer, _ = py_listener.accept()
    with peer:  # closed before the operation, so a second shutdown meets ENOTCONN
        if state == "shut":
            assert rt.lib.sock_shutdown(fd, 3) == W_SUCCESS
    return fd


OPS = {
    "bind": lambda rt, fd: bind_local(rt, fd),
    "listen": lambda rt, fd: rt.lib.sock_listen(fd, 4),
    "accept": lambda rt, fd: rt.lib.sock_accept(fd, 0, OUT + 16),
    "connect": lambda rt, fd: (set_addr(rt, "127.0.0.1"),
                               rt.lib.sock_connect(fd, ADDR_REC, 1))[1],
    "send": lambda rt, fd: send_bytes(rt, fd, b"x")[0],
    "recv": lambda rt, fd: recv_into(rt, fd, 4)[0],
    "shutdown": lambda rt, fd: rt.lib.sock_shutdown(fd, 3),
    "fd_write": lambda rt, fd: (rt.iovec(IOV + 16, DATA + 4096, 1),
                                rt.lib.fd_write(fd, IOV + 16, 1, OUT))[1],
    "fd_read": lambda rt, fd: (rt.iovec(IOV, DATA, 4), rt.lib.fd_read(fd, IOV, 1, OUT))[1],
}

# expected errno for every (operation, state); None marks blocking/successful
# paths exercised by the loopback tests above instead
EXPECTED = {
    "bind": {"created": W_SUCCESS, "bound": W_INVAL, "listening": W_INVAL,
             "connected": W_INVAL, "shut": W_INVAL},
    "listen": {"created": W_INVAL, "bound": W_SUCCESS, "listening": W_INVAL,
               "connected": W_INVAL, "shut": W_INVAL},
    "accept": {"created": W_INVAL, "bound": W_INVAL, "listening": None,
               "connected": W_INVAL, "shut": W_INVAL},
    "connect": {"created": None, "bound": None, "listening": W_INVAL,
                "connected": W_ISCONN, "shut": W_INVAL},
    "send": {"created": W_NOTCONN, "bound": W_NOTCONN, "listening": W_NOTCONN,
             "connected": None, "shut": W_NOTCONN},
    "recv": {"created": W_NOTCONN, "bound": W_NOTCONN, "listening": W_NOTCONN,
             "connected": None, "shut": None},
    # a second full shutdown surfaces the host's ENOTCONN, as POSIX allows
    "shutdown": {"created": W_NOTCONN, "bound": W_NOTCONN, "listening": W_NOTCONN,
                 "connected": W_SUCCESS, "shut": W_NOTCONN},
}
# preview1 fd_write/fd_read on a socket follow sock_send/sock_recv's rules
EXPECTED["fd_write"] = EXPECTED["send"]
EXPECTED["fd_read"] = EXPECTED["recv"]


def test_state_machine_table(rtb):
    py_listener = socket.socket()
    py_listener.bind(("127.0.0.1", 0))
    py_listener.listen(8)
    failures = []
    try:
        for op_name, by_state in EXPECTED.items():
            for state, expect in by_state.items():
                if expect is None:
                    continue
                rtb.boot()
                fd = make_state(rtb, state, py_listener)
                got = OPS[op_name](rtb, fd)
                if got != expect:
                    failures.append(f"{op_name} on {state}: got {got}, want {expect}")
    finally:
        py_listener.close()
    assert not failures, "\n".join(failures)


def test_ops_on_non_socket_fds(rtb):
    # fd 3 is the preopen dir; 99 is free
    assert rtb.lib.sock_listen(3, 4) == 57  # NOTSOCK
    assert rtb.lib.sock_listen(99, 4) == W_BADF
    assert rtb.lib.sock_send(3, 0, 0, 0, OUT) == 57
    assert rtb.lib.sock_recv(3, IOV, 0, 0, OUT, OUT + 4) == 57
    assert rtb.lib.sock_shutdown(99, 3) == W_BADF
    assert rtb.lib.fd_read(3, IOV, 0, OUT) == 31  # ISDIR
    assert rtb.lib.fd_write(3, IOV, 0, OUT) == 31


def test_wasmedge_abi_fixture_runs_unchanged(httpd_exe):
    """ABI compatibility: the server guest was compiled by stock clang against
    the documented socket extension (docs/sock-abi.md) with zero fixture-side
    modification; it must link and serve as-is."""
    import os
    import subprocess
    import urllib.request

    from conftest import free_port

    port = free_port()
    env = dict(os.environ)
    env["GUEST_ARGS"] = f"httpd {port}"
    server = subprocess.Popen([str(httpd_exe)], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=0.25):
                    break
            except OSError:
                time.sleep(0.05)
        body = urllib.request.urlopen(f"http://127.0.0.1:{port}/index.html",
                                      timeout=5).read()
        assert b"seam test page" in body
    finally:
        server.terminate()
        server.wait(timeout=10)


# ---- held sends: a turn's later small sends leave together ----
#
# A turn runs between two flush points. Its first send to a blocking socket
# leaves at once; later sends to that socket that fit the 16 KiB buffer are
# held until the next flush point (docs/sock-abi.md, "When bytes reach the
# host").

W_CONNRESET, W_PIPE = 15, 64


def wait_zero(rt):
    """poll_oneoff on one relative 0 ns clock: a flush point that never blocks."""
    from test_poll import poll, sub_clock  # test_poll imports this module
    sub_clock(rt, 0, 1, 0)
    assert len(poll(rt, 1)) == 1


def assert_nothing_more(py):
    py.settimeout(0.05)
    with pytest.raises(socket.timeout):
        py.recv(1)
    py.settimeout(5)


def test_later_sends_of_a_turn_leave_in_one_segment(rtb):
    """8 sends of 100 B in one turn reach the peer in order as 2 data
    segments: the first send, then the 7 held ones at the flush point."""
    lfd, port = rt_listener(rtb)
    py, cfd = accept_peer(rtb, lfd, port)
    try:
        msgs = [bytes([65 + i]) * 100 for i in range(8)]
        before = data_segs_in(py)
        for m in msgs:
            assert send_bytes(rtb, cfd, m) == (W_SUCCESS, 100)
        wait_zero(rtb)
        assert recv_exactly(py, 800) == b"".join(msgs)
        assert data_segs_in(py) - before == 2
    finally:
        py.close()


def test_first_send_of_a_turn_leaves_at_once(rtb):
    """The peer reads a turn's first send with no further runtime call, and
    after a flush point the next send is a first send again."""
    lfd, port = rt_listener(rtb)
    py, cfd = accept_peer(rtb, lfd, port)
    try:
        assert send_bytes(rtb, cfd, b"first") == (W_SUCCESS, 5)
        assert recv_exactly(py, 5) == b"first"
        assert send_bytes(rtb, cfd, b"held") == (W_SUCCESS, 4)
        assert_nothing_more(py)
        wait_zero(rtb)
        assert recv_exactly(py, 4) == b"held"
        assert send_bytes(rtb, cfd, b"again") == (W_SUCCESS, 5)
        assert recv_exactly(py, 5) == b"again"
    finally:
        py.close()


def flush_by_recv_elsewhere(rt, lfd, port, cfd, capfd):
    other, ofd = accept_peer(rt, lfd, port)
    other.sendall(b"x")
    assert recv_into(rt, ofd, 16) == (W_SUCCESS, 1)
    other.close()


def flush_by_accept(rt, lfd, port, cfd, capfd):
    accept_peer(rt, lfd, port)[0].close()


def flush_by_stdout(rt, lfd, port, cfd, capfd):
    rt.write(DATA + 2048, b"ok\n")
    rt.iovec(IOV + 24, DATA + 2048, 3)
    assert rt.lib.fd_write(1, IOV + 24, 1, OUT + 8) == W_SUCCESS
    assert capfd.readouterr().out == "ok\n"


FLUSH_POINTS = {
    "poll_oneoff": lambda rt, lfd, port, cfd, capfd: wait_zero(rt),
    "sock_recv_on_another_socket": flush_by_recv_elsewhere,
    "sock_accept": flush_by_accept,
    "fd_write_to_stdout": flush_by_stdout,
    "sock_shutdown_wr": lambda rt, lfd, port, cfd, capfd: rt.lib.sock_shutdown(cfd, 2),
    "fd_close": lambda rt, lfd, port, cfd, capfd: rt.lib.fd_close(cfd),
    "sched_yield": lambda rt, lfd, port, cfd, capfd: rt.lib.sched_yield(),
}


@pytest.mark.parametrize("point", FLUSH_POINTS)
def test_held_send_reaches_the_peer_at_each_flush_point(rtb, capfd, point):
    lfd, port = rt_listener(rtb)
    py, cfd = accept_peer(rtb, lfd, port)
    try:
        assert send_bytes(rtb, cfd, b"first") == (W_SUCCESS, 5)
        assert send_bytes(rtb, cfd, b"held") == (W_SUCCESS, 4)
        assert recv_exactly(py, 5) == b"first"
        assert_nothing_more(py)
        assert FLUSH_POINTS[point](rtb, lfd, port, cfd, capfd) in (None, W_SUCCESS)
        assert recv_exactly(py, 4) == b"held"
        if point in ("sock_shutdown_wr", "fd_close"):  # the held bytes go ahead of the FIN
            assert py.recv(16) == b""
    finally:
        py.close()


def test_two_sockets_in_one_turn_keep_their_own_order(rtb):
    lfd, port = rt_listener(rtb)
    pa, fa = accept_peer(rtb, lfd, port)
    pb, fb = accept_peer(rtb, lfd, port)
    try:
        sent = {fa: b"", fb: b""}
        for i, fd in enumerate([fa, fa, fb, fb, fa, fb, fa, fa, fb]):
            msg = b"%d-%d;" % (fd, i)
            assert send_bytes(rtb, fd, msg) == (W_SUCCESS, len(msg))
            sent[fd] += msg
        wait_zero(rtb)
        assert recv_exactly(pa, len(sent[fa])) == sent[fa]
        assert recv_exactly(pb, len(sent[fb])) == sent[fb]
        assert_nothing_more(pa)
        assert_nothing_more(pb)
    finally:
        pa.close()
        pb.close()


def test_send_bigger_than_the_free_room_arrives_after_the_held_bytes(rtb):
    """10 KiB is held; the next 10 KiB does not fit the 16 KiB buffer, so the
    held bytes leave first and it follows uncopied; 20 KiB is never held."""
    lfd, port = rt_listener(rtb)
    py, cfd = accept_peer(rtb, lfd, port)
    try:
        msgs = [b"first", bytes(i % 251 for i in range(10240)),
                bytes(i % 241 for i in range(10240)), bytes(i % 239 for i in range(20480))]
        for m in msgs:
            assert send_bytes(rtb, cfd, m) == (W_SUCCESS, len(m))
        assert recv_exactly(py, sum(map(len, msgs))) == b"".join(msgs)
        wait_zero(rtb)
        assert_nothing_more(py)
    finally:
        py.close()


def test_nonblocking_socket_sends_are_never_held(rtb):
    lfd, port = rt_listener(rtb)
    py, cfd = accept_peer(rtb, lfd, port, flags=0x4)  # NONBLOCK
    try:
        for m in (b"one", b"two", b"three"):
            assert send_bytes(rtb, cfd, m) == (W_SUCCESS, len(m))
        assert recv_exactly(py, 11) == b"onetwothree"
    finally:
        py.close()


@pytest.mark.parametrize("next_call", ["send", "recv"])
def test_peer_reset_while_bytes_are_held(rtb, next_call):
    """The peer resets with a send held; the flush at the next flush point
    fails and drops it, and the guest's next call on the socket reports the
    reset: an errno on a send, EOF on a recv. A failed send ends the turn,
    so the send after it is not held either."""
    lfd, port = rt_listener(rtb)
    py, cfd = accept_peer(rtb, lfd, port)
    assert send_bytes(rtb, cfd, b"first") == (W_SUCCESS, 5)
    assert send_bytes(rtb, cfd, b"held") == (W_SUCCESS, 4)
    py.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    py.close()  # unread bytes and linger 0: an RST
    time.sleep(0.05)
    wait_zero(rtb)
    if next_call == "send":
        for _ in range(2):
            assert send_bytes(rtb, cfd, b"after")[0] in (W_PIPE, W_CONNRESET)
    else:
        assert recv_into(rtb, cfd, 16) == (W_SUCCESS, 0)


def test_boot_frees_every_entry_and_drops_held_bytes(rt):
    """A re-boot clears each fd entry in use, leaving every entry from 4 on
    free and zero, and forgets the last turn: what it held is dropped, and
    a socket put in the held socket's entry starts a turn of its own."""
    rt.boot()
    lfd, port = rt_listener(rt)
    py, cfd = accept_peer(rt, lfd, port)
    try:
        for _ in range(3):
            assert sock_open(rt)[0] == W_SUCCESS
        assert send_bytes(rt, cfd, b"first") == (W_SUCCESS, 5)
        assert send_bytes(rt, cfd, b"held") == (W_SUCCESS, 4)
        rt.boot()
        assert [e.kind for e in rt.fdt[:4]] == [1, 1, 1, 3]
        free = bytes(ctypes.sizeof(FdEntry))
        assert all(bytes(e) == free for e in rt.fdt[4:])
        host, peer = socket.socketpair()
        with host, peer:
            rt.fdt[cfd] = FdEntry(kind=4, sstate=3, host_fd=host.fileno())  # connected socket
            assert send_bytes(rt, cfd, b"new") == (W_SUCCESS, 3)
            peer.settimeout(5)
            assert recv_exactly(peer, 3) == b"new"
            wait_zero(rt)
            assert_nothing_more(peer)
            rt.boot()
        assert recv_exactly(py, 5) == b"first"
        assert_nothing_more(py)
    finally:
        py.close()


# ---- held sends at process exit ----

EXIT_STATUS = {"return": 0, "proc_exit": 3, "trap": 128 + 4, "sigterm": 128 + 15}


def two_sends_guest(tmp_path, port: int, how: str, ready_port: int):
    """A guest that connects to 127.0.0.1:port and sends "hello " and
    "world\\n" in one turn, so the second is held, then ends as `how` says:
    _start returns, proc_exit(3), unreachable, or (for SIGTERM) it listens
    on ready_port, which is no flush point, and spins."""
    b = ModuleBuilder()
    rows = [("sock_open", 3), ("sock_connect", 3), ("sock_send", 5), ("sock_bind", 3),
            ("sock_listen", 2)]
    fn = {name: b.add_import("wasi_snapshot_preview1", name, ["i32"] * n, ["i32"])
          for name, n in rows}
    fn["proc_exit"] = b.add_import("wasi_snapshot_preview1", "proc_exit", ["i32"], [])
    b.set_memory(1, 1)
    # 0: address record {16, 4}; 16: 127.0.0.1; 32, 40: iovecs; 64, 128: the
    # two messages; 200: the connected socket's fd; 204: so_datalen; 208: the
    # listener's fd
    b.add_data(0, struct.pack("<II", 16, 4) + bytes(8) + socket.inet_aton("127.0.0.1"))
    b.add_data(32, struct.pack("<IIII", 64, 6, 128, 6))
    b.add_data(64, b"hello ")
    b.add_data(128, b"world\n")

    def call(name, *args):
        return [*args, ("call", fn[name])] + ([("drop",)] if name != "proc_exit" else [])

    def i32(*vs):
        return [("i32.const", v) for v in vs]

    fd, lfd = [("i32.const", 200), ("i32.load", 2, 0)], [("i32.const", 208), ("i32.load", 2, 0)]
    tails = {
        "return": [],
        "proc_exit": call("proc_exit", *i32(3)),
        "trap": [("unreachable",)],
        "sigterm": [*call("sock_open", *i32(1, 2, 208)), *call("sock_bind", *lfd, *i32(0, ready_port)),
                    *call("sock_listen", *lfd, *i32(1)), ("loop", None, [("br", 0)])],
    }
    b.add_func([], [], [], [
        *call("sock_open", *i32(1, 2, 200)),
        *call("sock_connect", *fd, *i32(0, port)),
        *call("sock_send", *fd, *i32(32, 1, 0, 204)),
        *call("sock_send", *fd, *i32(40, 1, 0, 204)),
        *tails[how],
    ], export="_start")
    wasm = tmp_path / "two_sends.wasm"
    wasm.write_bytes(b.build())
    return wasm


def wait_listening(port: int):
    deadline = time.monotonic() + 10
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return
        except OSError:
            assert time.monotonic() < deadline, f"nothing listens on {port}"
            time.sleep(0.01)


@pytest.mark.parametrize("how", EXIT_STATUS)
def test_held_send_leaves_on_every_exit_path(tmp_path, how):
    """Whether _start returns, calls proc_exit, traps or is stopped by
    SIGTERM, the held send reaches the peer ahead of the FIN. With
    SEAM_PROFILE=1 too, where the profiler charges that flush to socket
    and then writes its report."""
    ready_port = free_port()
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(30)
        exe = tmp_path / "two_sends"
        wasm = two_sends_guest(tmp_path, listener.getsockname()[1], how, ready_port)
        cmd_build(BuildPlan(wasm=wasm, output=exe))
        for profile in ("0", "1"):
            env = dict(os.environ, SEAM_PROFILE=profile,
                       SEAM_PROFILE_OUT=str(tmp_path / "profile.json"))
            child = subprocess.Popen([str(exe)], env=env, stderr=subprocess.PIPE)
            try:
                peer, _ = listener.accept()
                with peer:
                    peer.settimeout(30)
                    assert recv_exactly(peer, 6) == b"hello "
                    if how == "sigterm":
                        wait_listening(ready_port)
                        child.terminate()
                    assert recv_exactly(peer, 6) == b"world\n"
                    assert peer.recv(16) == b""
            finally:
                _, err = child.communicate(timeout=30)
            assert child.returncode == EXIT_STATUS[how], (profile, err.decode())


def flood_guest(tmp_path, port: int):
    """A guest that connects to 127.0.0.1:port and, turn after turn, sends
    one 4-byte record, then three 4 KiB sends of records that are held, then
    calls sched_yield, which flushes the 12 KiB. Record i is the u32 i, so
    the stream shows any byte sent twice. Against a peer that does not read,
    it ends up blocked in a flush."""
    b = ModuleBuilder()
    rows = [("sock_open", 3, 1), ("sock_connect", 3, 1), ("sock_send", 5, 1), ("sched_yield", 0, 1)]
    fn = {name: b.add_import("wasi_snapshot_preview1", name, ["i32"] * n, ["i32"] * r)
          for name, n, r in rows}
    b.set_memory(1, 1)
    # 0: address record; 16: 127.0.0.1; 32, 40: iovecs of 4 B and 4 KiB at
    # 1024; 200: the socket's fd; 204: so_datalen
    b.add_data(0, struct.pack("<II", 16, 4) + bytes(8) + socket.inet_aton("127.0.0.1"))
    b.add_data(32, struct.pack("<IIII", 1024, 4, 1024, 4096))
    seq, addr, k = 0, 1, 2

    def call(name, *args):
        return [*args, ("call", fn[name]), ("drop",)]

    def i32(*vs):
        return [("i32.const", v) for v in vs]

    def fill(records):  # the next `records` sequence numbers at 1024
        return [*i32(1024), ("local.set", addr), ("loop", None, [
            ("local.get", addr), ("local.get", seq), ("i32.store", 2, 0),
            ("local.get", seq), *i32(1), ("i32.add",), ("local.set", seq),
            ("local.get", addr), *i32(4), ("i32.add",), ("local.tee", addr),
            *i32(1024 + 4 * records), ("i32.lt_u",), ("br_if", 0)])]

    fd = [("i32.const", 200), ("i32.load", 2, 0)]
    b.add_func([], [], ["i32"] * 3, [
        *call("sock_open", *i32(1, 2, 200)),
        *call("sock_connect", *fd, *i32(0, port)),
        ("loop", None, [
            *fill(1), *call("sock_send", *fd, *i32(32, 1, 0, 204)),
            *i32(3), ("local.set", k),
            ("loop", None, [
                *fill(1024), *call("sock_send", *fd, *i32(40, 1, 0, 204)),
                ("local.get", k), *i32(1), ("i32.sub",), ("local.tee", k), ("br_if", 0)]),
            *call("sched_yield"),
            ("br", 0)]),
    ], export="_start")
    wasm = tmp_path / "flood.wasm"
    wasm.write_bytes(b.build())
    return wasm


def wait_all_threads_sleep(pid: int):
    """Until every thread of pid has slept on two looks 50 ms apart."""
    deadline, still = time.monotonic() + 20, 0
    while still < 2:
        assert time.monotonic() < deadline, "the guest never blocked"
        time.sleep(0.05)
        tasks = os.listdir(f"/proc/{pid}/task")
        states = [Path(f"/proc/{pid}/task/{t}/stat").read_text().rsplit(")", 1)[1].split()[0]
                  for t in tasks]
        still = still + 1 if all(st == "S" for st in states) else 0


def test_sigterm_while_a_flush_blocks_exits_and_repeats_no_byte(tmp_path):
    """The peer stops reading, so the guest blocks inside a flush's send.
    SIGTERM then exits with 143 at once; the exit's flush finds the bytes
    already claimed, so it neither blocks again nor sends them twice: the
    stream the peer reads is records 0, 1, 2, ... with none repeated."""
    with socket.socket() as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(30)
        exe = tmp_path / "flood"
        cmd_build(BuildPlan(wasm=flood_guest(tmp_path, listener.getsockname()[1]), output=exe))
        for profile in ("0", "1"):
            env = dict(os.environ, SEAM_PROFILE=profile,
                       SEAM_PROFILE_OUT=str(tmp_path / "profile.json"))
            child = subprocess.Popen([str(exe)], env=env, stderr=subprocess.PIPE)
            try:
                peer, _ = listener.accept()
                with peer:
                    wait_all_threads_sleep(child.pid)
                    child.terminate()
                    try:
                        child.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        pytest.fail("SIGTERM did not stop a guest blocked in a flush")
                    peer.settimeout(30)
                    stream = bytearray()
                    while chunk := peer.recv(1 << 20):
                        stream += chunk
            finally:
                child.kill()
                _, err = child.communicate(timeout=30)
            assert child.returncode == 128 + 15, (profile, err.decode())
            n = len(stream) // 4
            assert n > 4096, "the socket buffers held less than one turn"
            assert list(struct.unpack(f"<{n}I", stream[:4 * n])) == list(range(n)), profile
