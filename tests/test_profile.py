"""Six-bucket profiler: shape checks on targeted micro-runs."""

import struct
import subprocess

import pytest

from seam.bench import LoadConfig
from seam.driver import BuildPlan, cmd_build
from seam.errors import ProfileDisabled
from seam.profiler import BUCKETS, profile_run

from conftest import free_port
from wasmgen import ModuleBuilder


def test_compute_guest_dominated_by_guest_bucket(built):
    report = profile_run(built["fib"], guest_args=["30"])
    pct = report.percentages()
    assert pct["guest"] > 90.0
    assert abs(sum(pct.values()) - 100.0) <= 5.0


def test_idle_guest_dominated_by_timer(built):
    report = profile_run(built["sleep"], guest_args=["250"])
    pct = report.percentages()
    assert pct["timer"] + pct["wasi"] > 80.0
    assert pct["guest"] < 10.0


def test_io_guest_dominated_by_socket_and_wasi(httpd_exe):
    port = free_port()
    report = profile_run(
        httpd_exe, guest_args=[str(port)],
        load=LoadConfig(url=f"http://127.0.0.1:{port}/index.html", connections=8,
                        duration_s=2),
    )
    pct = report.percentages()
    assert pct["socket"] + pct["wasi"] > 50.0
    assert report.load is not None and report.load.total_requests > 0


def test_buckets_sum_to_total(built):
    report = profile_run(built["fib"], guest_args=["25"])
    assert sum(report.buckets.values()) + report.unattributed_ns == pytest.approx(
        report.total_ns, rel=0.01
    )
    assert set(report.buckets) == set(BUCKETS)


def test_report_table_mirrors_six_rows(built):
    report = profile_run(built["fib"], guest_args=["20"])
    table = report.render_table()
    for label in ("guest-code execution", "WASI function execution", "memory management",
                  "timer", "packet/socket processing", "host-I/O driver"):
        assert label in table


def test_profile_disabled_when_no_report(built, tmp_path, monkeypatch):
    # simulate an uninstrumented executable: run without SEAM_PROFILE then
    # hand profile_run a report path that never appears
    from seam import profiler

    missing = tmp_path / "never.json"
    with pytest.raises(ProfileDisabled):
        profiler._parse_report(missing)


def test_profiling_overhead_documented(built, capsys):
    """Measures (and records in the test log) the throughput delta with
    profiling enabled at desk scale; informational per the bench design."""
    import time

    def run_once(profile: bool) -> float:
        import os

        env = dict(os.environ)
        env["GUEST_ARGS"] = "fib 27"
        if profile:
            env["SEAM_PROFILE"] = "1"
            env["SEAM_PROFILE_OUT"] = "/dev/null"
        else:
            env.pop("SEAM_PROFILE", None)
        t0 = time.monotonic()
        subprocess.run([str(built["fib"])], env=env, capture_output=True, check=True)
        return time.monotonic() - t0

    run_once(False)  # warm caches
    base = min(run_once(False) for _ in range(3))
    prof = min(run_once(True) for _ in range(3))
    delta = 100.0 * (prof - base) / base
    print(f"\nprofiling overhead at desk scale: {delta:+.1f}% "
          f"(plain {base*1000:.1f} ms, profiled {prof*1000:.1f} ms)")


def test_every_scope_kind_keeps_the_discipline(tmp_path):
    """A guest built without clang enters every bucket: the rows of each
    bucket (wasi, timer, socket), hostio in random_get and in rt_iov_xfer's
    stdio fd_write, timer in poll_oneoff's clock sleep, and memory. Every
    nanosecond of the run is charged to exactly one bucket or to
    unattributed, so they sum to the total exactly."""
    b = ModuleBuilder()
    wasi = {name: b.add_import("wasi_snapshot_preview1", name, params, ["i32"])
            for name, params in [("random_get", ["i32"] * 2), ("fd_write", ["i32"] * 4),
                                 ("poll_oneoff", ["i32"] * 4),
                                 ("clock_time_get", ["i32", "i64", "i32"]),
                                 ("sock_open", ["i32"] * 3)]}
    b.set_memory(1, 2)
    b.add_data(0, struct.pack("<II", 16, 3) + bytes(8) + b"ok\n")  # iovec -> "ok\n"
    # a 2 ms relative clock subscription on the monotonic clock
    b.add_data(64, struct.pack("<QB7xIIQQH6x", 7, 0, 1, 0, 2_000_000, 0, 0))
    calls = [("random_get", [200, 16]), ("fd_write", [1, 0, 1, 24]),
             ("poll_oneoff", [64, 128, 1, 160]), ("clock_time_get", [1, 0, 232]),
             ("sock_open", [1, 2, 240])]
    body = [("i32.const", 1), ("memory.grow",), ("drop",)]
    for name, args in calls:
        consts = [("i64.const" if (name, i) == ("clock_time_get", 1) else "i32.const", a)
                  for i, a in enumerate(args)]
        body += [*consts, ("call", wasi[name]), ("drop",)]
    b.add_func([], [], [], body, export="_start")
    wasm = tmp_path / "scopes.wasm"
    wasm.write_bytes(b.build())
    cmd_build(BuildPlan(wasm=wasm, output=tmp_path / "scopes"))
    report = profile_run(tmp_path / "scopes")
    assert report.buckets["timer"] >= 2_000_000
    assert all(report.buckets[k] > 0 for k in BUCKETS), report.buckets
    assert sum(report.buckets.values()) + report.unattributed_ns == report.total_ns
