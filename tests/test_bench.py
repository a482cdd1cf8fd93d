"""Load generator correctness against a known-good reference HTTP server."""

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import seam.bench
from seam.bench import LoadConfig, run_load, _percentile
from seam.errors import TargetUnreachable


class _CountingServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.hits = 0
        self.lock = threading.Lock()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body are two writes; with Nagle on, the body would wait
    # for the client's delayed ACK (40 ms)
    disable_nagle_algorithm = True
    BODY = b"reference body"

    def do_GET(self):
        with self.server.lock:
            self.server.hits += 1
        if self.path == "/slow":
            time.sleep(0.05)
        elif self.path == "/hang":
            time.sleep(3)
            self.close_connection = True
            return
        elif self.path == "/close":
            self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Length", str(len(self.BODY)))
        self.end_headers()
        self.wfile.write(self.BODY)

    def log_message(self, *args):
        pass


@pytest.fixture()
def ref_server():
    srv = _CountingServer(("127.0.0.1", 0), _Handler)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def test_request_count_matches_server_exactly(ref_server):
    port = ref_server.server_address[1]
    cfg = LoadConfig(url=f"http://127.0.0.1:{port}/", connections=4, duration_s=1)
    report = run_load(cfg)
    assert report.total_requests > 0
    assert report.total_requests == ref_server.hits


def test_latency_percentiles_nondecreasing(ref_server):
    port = ref_server.server_address[1]
    report = run_load(LoadConfig(url=f"http://127.0.0.1:{port}/", connections=4,
                                 duration_s=1))
    assert 0 < report.latency_p50_us <= report.latency_p90_us <= report.latency_p99_us


def test_expected_body_verification(ref_server):
    port = ref_server.server_address[1]
    ok = run_load(LoadConfig(url=f"http://127.0.0.1:{port}/", connections=1, duration_s=1,
                             expected_body=_Handler.BODY))
    assert ok.errors["body_mismatch"] == 0
    bad = run_load(LoadConfig(url=f"http://127.0.0.1:{port}/", connections=1, duration_s=1,
                              expected_body=b"wrong"))
    assert bad.errors["body_mismatch"] == bad.total_requests > 0


def test_unreachable_target_raises():
    with pytest.raises(TargetUnreachable):
        run_load(LoadConfig(url="http://127.0.0.1:1/", connections=1, duration_s=1))


def test_config_invariants():
    with pytest.raises(ValueError):
        LoadConfig(url="http://x/", connections=0)
    with pytest.raises(ValueError):
        LoadConfig(url="http://x/", duration_s=0.1)
    # a wrk-scale configuration is accepted
    LoadConfig(url="http://x/", connections=800, duration_s=60)


def test_percentile_helper():
    assert _percentile([], 0.5) == 0
    xs = sorted([5, 1, 9, 3, 7])
    assert _percentile(xs, 0.0) == 1
    assert _percentile(xs, 0.5) == 5
    assert _percentile(xs, 0.99) == 9


def test_report_rendering(ref_server):
    port = ref_server.server_address[1]
    report = run_load(LoadConfig(url=f"http://127.0.0.1:{port}/", connections=1,
                                 duration_s=1))
    table = report.render_table()
    assert "requests/sec" in table and "latency p99" in table and "client cpu/req" in table
    d = report.to_dict()
    assert d["client_cpu_us_per_req"] > 0
    assert set(d["errors"]) == {"connect", "timeout", "non_2xx", "body_mismatch"}
    assert d["latency_us"]["p50"] <= d["latency_us"]["p99"]


def test_connections_are_requests_in_flight(ref_server):
    # 8 connections with one 50 ms request each in flight: ~160 in 1 s
    port = ref_server.server_address[1]
    report = run_load(LoadConfig(url=f"http://127.0.0.1:{port}/slow", connections=8,
                                 duration_s=1))
    assert report.total_requests >= 100
    assert report.total_requests == ref_server.hits
    assert sum(report.errors.values()) == 0


def test_a_late_response_is_a_timeout_and_the_socket_redials(ref_server, monkeypatch):
    monkeypatch.setattr(seam.bench, "TIMEOUT_S", 0.3)
    port = ref_server.server_address[1]
    report = run_load(LoadConfig(url=f"http://127.0.0.1:{port}/hang", connections=2,
                                 duration_s=1))
    assert report.total_requests == 0
    # each socket times out, dials again and sends again: at least 2 rounds
    assert report.errors["timeout"] >= 4
    assert ref_server.hits >= 4


def test_a_closed_connection_is_a_connect_error_and_the_socket_redials(ref_server):
    port = ref_server.server_address[1]
    report = run_load(LoadConfig(url=f"http://127.0.0.1:{port}/close", connections=2,
                                 duration_s=1))
    # the server closes after each response, so every second request finds
    # the socket closed; each redial answers one request more
    assert report.total_requests > 10
    assert report.errors["connect"] >= report.total_requests - 2
    assert report.errors["non_2xx"] == report.errors["timeout"] == 0
