"""Keep-alive HTTP/1.1 load generator with latency percentiles.

One selectors loop holds `connections` non-blocking keep-alive sockets,
each with exactly one GET outstanding (a closed loop, like wrk's -c), so
`connections` is the number of requests in flight. It records per-request
latency in microseconds, from the send to the full response, and errors
by class (connect, timeout, non-2xx, body mismatch when an expected body
is pinned); a socket that errs is closed and dialled again. At the end of
the run no request is sent, and those in flight are waited for.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import time
from dataclasses import dataclass, field
from urllib.parse import urlparse

from .errors import TargetUnreachable

ERROR_CLASSES = ("connect", "timeout", "non_2xx", "body_mismatch")
TIMEOUT_S = 5.0  # a connect or a response that takes longer is a timeout
_SWEEP_S = 0.1  # how often sockets are checked against TIMEOUT_S
_CONTENT_LENGTH = re.compile(rb"\r\ncontent-length[ \t]*:[ \t]*(\d+)", re.IGNORECASE)


@dataclass
class LoadConfig:
    url: str
    connections: int = 16
    duration_s: float = 5.0
    expected_body: bytes | None = None

    def __post_init__(self):
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if self.duration_s < 1:
            raise ValueError("duration must be >= 1 s")


@dataclass
class LoadReport:
    total_requests: int
    duration_s: float
    requests_per_sec: float
    bytes_per_sec: float
    latency_p50_us: int
    latency_p90_us: int
    latency_p99_us: int
    client_cpu_us_per_req: float
    errors: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "total_requests": self.total_requests,
            "duration_s": round(self.duration_s, 3),
            "requests_per_sec": round(self.requests_per_sec, 1),
            "bytes_per_sec": round(self.bytes_per_sec, 1),
            "latency_us": {
                "p50": self.latency_p50_us,
                "p90": self.latency_p90_us,
                "p99": self.latency_p99_us,
            },
            "client_cpu_us_per_req": round(self.client_cpu_us_per_req, 2),
            "errors": dict(self.errors),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_table(self) -> str:
        d = self.to_dict()
        lines = [
            f"{'requests':<16}{d['total_requests']:>14}",
            f"{'duration (s)':<16}{d['duration_s']:>14}",
            f"{'requests/sec':<16}{d['requests_per_sec']:>14}",
            f"{'bytes/sec':<16}{d['bytes_per_sec']:>14}",
            f"{'latency p50':<16}{self.latency_p50_us:>12}us",
            f"{'latency p90':<16}{self.latency_p90_us:>12}us",
            f"{'latency p99':<16}{self.latency_p99_us:>12}us",
            f"{'client cpu/req':<16}{d['client_cpu_us_per_req']:>12}us",
        ]
        for k in ERROR_CLASSES:
            lines.append(f"{'err ' + k:<16}{self.errors.get(k, 0):>14}")
        return "\n".join(lines)


class _Conn:
    """One socket's state: `out` is the part of the request still to send
    (None until the connect completes), `t0` the monotonic ns at which the
    connect or the request began."""

    __slots__ = ("sock", "out", "t0", "buf")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.out: bytes | None = None
        self.t0 = time.monotonic_ns()
        self.buf = bytearray()


def _percentile(sorted_us: list[int], q: float) -> int:
    if not sorted_us:
        return 0
    i = min(len(sorted_us) - 1, int(q * len(sorted_us)))
    return sorted_us[i]


def run_load(cfg: LoadConfig) -> LoadReport:
    """Drive the target for the configured duration and aggregate a report."""
    u = urlparse(cfg.url)
    if u.scheme != "http" or not u.hostname:
        raise ValueError(f"only http:// URLs are supported: {cfg.url}")
    request = (f"GET {u.path or '/'} HTTP/1.1\r\nHost: {u.hostname}\r\n"
               f"Connection: keep-alive\r\n\r\n").encode()
    try:
        first = socket.create_connection((u.hostname, u.port or 80), timeout=TIMEOUT_S)
    except OSError as e:
        raise TargetUnreachable(f"cannot reach {cfg.url}: {e}") from e
    first.setblocking(False)
    family, peer = first.family, first.getpeername()

    sel = selectors.DefaultSelector()
    latencies: list[int] = []
    errors = dict.fromkeys(ERROR_CLASSES, 0)
    rx = 0
    running = True

    def dial(sock: socket.socket | None = None):
        if sock is None:
            sock = socket.socket(family, socket.SOCK_STREAM)
            sock.setblocking(False)
            sock.connect_ex(peer)  # a failed connect shows as an error at the first send
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sel.register(sock, selectors.EVENT_WRITE, _Conn(sock))

    def close(c: _Conn):
        sel.unregister(c.sock)
        c.sock.close()

    def fail(c: _Conn, cls: str):
        errors[cls] += 1
        close(c)
        if running:
            dial()

    def send(c: _Conn):
        if c.out is None:
            c.out, c.t0 = request, time.monotonic_ns()
        n = c.sock.send(c.out)
        c.out = c.out[n:]
        if not c.out:
            sel.modify(c.sock, selectors.EVENT_READ, c)

    def receive(c: _Conn):
        nonlocal rx
        chunk = c.sock.recv(65536)
        if not chunk:
            raise ConnectionError("peer closed mid-response")
        buf = c.buf
        buf += chunk
        head = buf.find(b"\r\n\r\n")
        if head < 0:
            return
        m = _CONTENT_LENGTH.search(buf, 0, head)
        end = head + 4 + (int(m[1]) if m else 0)
        if len(buf) < end:
            return
        latencies.append((time.monotonic_ns() - c.t0) // 1000)
        rx += end
        status = int(buf[9:12])  # HTTP/1.x NNN
        if status < 200 or status >= 300:
            errors["non_2xx"] += 1
        elif cfg.expected_body is not None and buf[head + 4:end] != cfg.expected_body:
            errors["body_mismatch"] += 1
        del buf[:end]
        if not running:
            close(c)
            return
        c.t0 = time.monotonic_ns()
        n = c.sock.send(request)
        if n < len(request):
            c.out = request[n:]
            sel.modify(c.sock, selectors.EVENT_WRITE, c)

    cpu0 = time.process_time()
    start = time.monotonic()
    sweep, stop = start + _SWEEP_S, start + cfg.duration_s
    try:
        dial(first)
        for _ in range(cfg.connections - 1):
            dial()
        while sel.get_map():
            now = time.monotonic()
            if running and now >= stop:
                running = False
                for key in list(sel.get_map().values()):
                    if key.events == selectors.EVENT_WRITE:  # no request in flight
                        close(key.data)
            if now >= sweep:
                sweep = now + _SWEEP_S
                late = time.monotonic_ns() - int(TIMEOUT_S * 1e9)
                for key in list(sel.get_map().values()):
                    if key.data.t0 < late:
                        fail(key.data, "timeout")
            timeout = min(sweep, stop) - now if running else sweep - now
            for key, mask in sel.select(max(timeout, 0.0)):
                c = key.data
                try:
                    if mask & selectors.EVENT_WRITE:
                        send(c)
                    else:
                        receive(c)
                except OSError:
                    fail(c, "connect")
    finally:
        for key in list(sel.get_map().values()):
            key.fileobj.close()
        sel.close()
    elapsed = time.monotonic() - start
    cpu = time.process_time() - cpu0

    lats = sorted(latencies)
    total = len(lats)
    return LoadReport(
        total_requests=total,
        duration_s=elapsed,
        requests_per_sec=total / elapsed if elapsed > 0 else 0.0,
        bytes_per_sec=rx / elapsed if elapsed > 0 else 0.0,
        latency_p50_us=_percentile(lats, 0.50),
        latency_p90_us=_percentile(lats, 0.90),
        latency_p99_us=_percentile(lats, 0.99),
        client_cpu_us_per_req=cpu * 1e6 / total if total else 0.0,
        errors=errors,
    )
