"""WasmEdge-compatible socket layer: loopback behavior plus the exhaustive
(state, operation) table. Python sockets play the remote peer."""

import json
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

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
    peer.setblocking(False)
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
    assert rtb.lib.sock_shutdown(99, 3) == W_BADF


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
