"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Tolerances are pinned here, not configurable.
"""

import json
import random
import subprocess
import time

import pytest

from seam.bench import LoadConfig, run_load
from seam.codegen import ABI, NOSYS, RUNTIME_HOOKS
from seam.driver import BuildPlan, check_no_wasm_engine_dependency, cmd_build, cmd_compile
from seam.profiler import profile_run
from seam.tarfs import pack_dir

from conftest import free_port, have_node
import test_poll
from diffharness import run_differential_module
from genprograms import generate_corpus


def done(line: str):
    print(f"\nACCEPTANCE {line}")


# -- 1. semantics differential suite -----------------------------------------


@pytest.mark.skipif(not have_node(), reason="reference engine unavailable")
def test_criterion_differential_semantics(tmp_path):
    """>=1000 generated programs agree bit-for-bit (NaN by class) with the
    reference engine on result bits or trap class; 100% required, < 5 min."""
    t0 = time.monotonic()
    corpus = generate_corpus(seed=42, n_modules=40, exports_per_module=24)
    total = sum(len(exports) for _, exports in corpus)
    assert total >= 1000, f"corpus too small: {total}"
    problems = []
    for i, (data, exports) in enumerate(corpus):
        problems += run_differential_module(data, exports, tmp_path, f"acc{i}")
    elapsed = time.monotonic() - t0
    assert not problems, (
        f"{len(problems)}/{total} disagreements with the reference engine:\n"
        + "\n".join(problems[:25])
    )
    assert elapsed < 300, f"suite took {elapsed:.0f}s (budget 300s)"
    done(f"differential-semantics: PASS ({total} programs, 100% agreement, {elapsed:.0f}s)")


# -- 2. ABI seam audit --------------------------------------------------------


def test_criterion_abi_seam_audit(guest_wasm, www_dir, tmp_path):
    """HTTP fixture: unresolved symbols exactly within the implemented ABI
    rows plus the runtime hooks at compile; zero unresolved after the
    static link."""
    obj = tmp_path / "httpd.o"
    manifest_path = cmd_compile(guest_wasm["httpd"], obj, quiet=True)
    manifest = json.loads(manifest_path.read_text())
    allowed = (set(ABI) - NOSYS) | set(RUNTIME_HOOKS)
    extra = set(manifest["unresolved"]) - allowed
    assert not extra, f"symbols outside the ABI seam: {sorted(extra)}"

    exe = tmp_path / "httpd"
    audit = cmd_build(BuildPlan(wasm=guest_wasm["httpd"], output=exe, fs_dir=www_dir))
    assert audit["unresolved"] == []
    assert set(audit["resolved"]) == set(manifest["unresolved"])
    check_no_wasm_engine_dependency(exe)
    done(f"abi-seam-audit: PASS ({len(audit['resolved'])} symbols resolved, 0 unresolved)")


# -- 3. linear memory contract ------------------------------------------------


def test_criterion_linear_memory_contract(rt):
    """Random grow sequences: constant base, correct previous-size returns,
    0xFFFFFFFF at max, zero fill. 100% of trials."""
    rng = random.Random(0x5EED)
    trials = 150
    for _ in range(trials):
        initial = rng.randint(0, 8)
        maximum = initial + rng.randint(0, 12)
        rt.boot(initial_pages=initial, max_pages=maximum)
        base = rt.base()
        committed = initial
        for _ in range(rng.randint(1, 16)):
            delta = rng.randint(0, 5)
            prev = rt.lib.memory_grow(delta)
            if committed + delta > maximum:
                assert prev == 0xFFFFFFFF
            else:
                assert prev == committed
                if delta:
                    assert rt.read(committed * 65536, 128) == b"\x00" * 128
                    assert rt.read((committed + delta) * 65536 - 128, 128) == b"\x00" * 128
                committed += delta
            assert rt.base() == base
            assert rt.lib.memory_grow(0) == committed
    done(f"linear-memory-contract: PASS ({trials} random grow sequences)")


# -- 4. tarfs round-trip + read-only ------------------------------------------


def test_criterion_tarfs_roundtrip(rt, tmp_path):
    """100 randomized directory trees mount back byte-identical through the
    runtime's reader; CREAT/TRUNC/write attempts return ROFS."""
    rng = random.Random(0x7A12)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_-."
    trees = 100
    for t in range(trees):
        root = tmp_path / f"tree{t}"
        root.mkdir()
        tree = {}
        for _ in range(rng.randint(1, 10)):
            parts = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12))).strip(".")
                or "x"
                for _ in range(rng.randint(1, 3))
            ]
            rel = "/".join(parts)
            if rel in tree or any(k.startswith(rel + "/") or rel.startswith(k + "/")
                                  for k in tree):
                continue
            tree[rel] = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 4096)))
        for rel, content in tree.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_bytes(content)
        assert rt.mount(pack_dir(root)) == 0, f"tree {t} does not mount"
        assert rt.files() == {"/" + k: v for k, v in tree.items()}, f"tree {t} mismatch"

    # read-only violations through the WASI surface
    img = pack_dir(tmp_path / "tree0")
    rt.boot(tar=img)
    W_ROFS = 69
    n = rt.str_in(256, "newfile")
    assert rt.lib.path_open(3, 0, 256, n, 0x1, 0, 0, 0, 512) == W_ROFS  # CREAT
    some = next(iter(rt.files()))
    n = rt.str_in(256, some.lstrip("/"))
    assert rt.lib.path_open(3, 0, 256, n, 0x8, 0, 0, 0, 512) == W_ROFS  # TRUNC
    assert rt.lib.path_open(3, 0, 256, n, 0, 0, 0, 0, 512) == 0
    fd = rt.u32(512)
    rt.iovec(0, 1024, 4)
    assert rt.lib.fd_write(fd, 0, 1, 32) == W_ROFS  # write to a tar file
    done(f"tarfs-roundtrip: PASS ({trees} trees byte-identical via rt_fs_mount; ROFS enforced)")


# -- 5. end-to-end evaluation shape at desk scale ------------------------------


def test_criterion_end_to_end_bench(httpd_exe, www_dir):
    """Evaluation shape at desk scale: static-file server built from the
    Wasm fixture with a packed www/, loaded at 16 connections (16 requests
    in flight) for 5 s over loopback: 0 errors, all bodies byte-identical,
    > 100 req/s. Absolute cross-runtime numbers are machine-bound; a
    reported-not-asserted comparison against an external server stands in
    for them."""
    port = free_port()
    import os

    env = dict(os.environ)
    env["GUEST_ARGS"] = f"httpd {port}"
    server = subprocess.Popen([str(httpd_exe)], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        _wait_port(port)
        expected = (www_dir / "index.html").read_bytes()
        report = run_load(LoadConfig(url=f"http://127.0.0.1:{port}/index.html",
                                     connections=16, duration_s=5,
                                     expected_body=expected))
        assert sum(report.errors.values()) == 0, report.errors
        assert report.requests_per_sec > 100, report.requests_per_sec
        # every packed file served byte-identically
        import urllib.request

        for rel in ("index.html", "data.bin", "assets/style.css"):
            body = urllib.request.urlopen(
                f"http://127.0.0.1:{port}/{rel}", timeout=5).read()
            assert body == (www_dir / rel).read_bytes(), rel

        # comparison-scripting mode: report (never assert) a ratio vs. an
        # external reference server driven through the same URL-only harness
        ratio_line = _external_comparison(report)
    finally:
        server.terminate()
        server.wait(timeout=10)
    done(f"end-to-end-bench: PASS ({report.requests_per_sec:.0f} req/s, 0 errors; {ratio_line})")


def _wait_port(port, timeout=10.0):
    import socket

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.25):
                return
        except OSError:
            time.sleep(0.05)
    raise AssertionError(f"server never opened port {port}")


def _external_comparison(seam_report) -> str:
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class RefServer(ThreadingHTTPServer):
        request_queue_size = 128  # swallow the 16-connection burst

    class H(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # headers and body leave in two sends; with Nagle on, the second
        # waits for the client's delayed ACK of the first
        disable_nagle_algorithm = True

        def do_GET(self):
            body = b"x" * 64
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):
            pass

    srv = RefServer(("127.0.0.1", 0), H)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        ref = run_load(LoadConfig(url=f"http://127.0.0.1:{srv.server_address[1]}/",
                                  connections=16, duration_s=2))
    finally:
        srv.shutdown()
        srv.server_close()
    ratio = seam_report.requests_per_sec / max(ref.requests_per_sec, 1.0)
    return (f"reported ratio vs python http.server: {ratio:.2f}x "
            f"({seam_report.requests_per_sec:.0f} vs {ref.requests_per_sec:.0f} req/s)")


# -- 6. profile shape ----------------------------------------------------------


def test_criterion_profile_shape(built, httpd_exe):
    """Compute-only guest: guest bucket > 90%. I/O-heavy guest: packet/socket
    + WASI > 50%. Buckets sum to 100 +/- 5 with the remainder explicit."""
    compute = profile_run(built["fib"], guest_args=["31"])
    cpct = compute.percentages()
    assert cpct["guest"] > 90.0, cpct
    assert abs(sum(cpct.values()) - 100.0) <= 5.0

    port = free_port()
    io_rep = profile_run(httpd_exe, guest_args=[str(port)],
                         load=LoadConfig(url=f"http://127.0.0.1:{port}/index.html",
                                         connections=16, duration_s=3))
    ipct = io_rep.percentages()
    assert ipct["socket"] + ipct["wasi"] > 50.0, ipct
    assert abs(sum(ipct.values()) - 100.0) <= 5.0
    done(
        "profile-shape: PASS "
        f"(compute guest {cpct['guest']:.1f}%; io socket+wasi "
        f"{ipct['socket'] + ipct['wasi']:.1f}%)"
    )


# -- 7. poll_oneoff conformance --------------------------------------------------


def test_criterion_poll_oneoff_table(rt):
    """The 20-case POSIX-poll-equivalence table passes 100%."""
    cases = sorted(
        (name, fn) for name, fn in vars(test_poll).items()
        if name.startswith("test_") and callable(fn)
    )
    assert len(cases) == 20, f"table has {len(cases)} cases, expected 20"
    for name, fn in cases:
        rt.boot()
        fn(rt)
    done(f"poll-oneoff-table: PASS ({len(cases)}/20 cases)")
