"""Six-bucket runtime cost profile, shaped like the unikernel's table:
guest code, WASI functions, memory management, timer, packet/socket
processing, host-I/O driver.

The instrumentation lives in the runtime (activated by SEAM_PROFILE=1);
this module runs an executable under it, optionally drives HTTP load at
the same time, and renders the collected buckets.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .bench import LoadConfig, LoadReport, run_load
from .codegen.symbols import BUCKETS
from .driver import guest_environ
from .errors import ProfileDisabled, SeamError

BUCKET_LABELS = {
    "guest": "guest-code execution",
    "wasi": "WASI function execution",
    "memory": "memory management",
    "timer": "timer",
    "socket": "packet/socket processing",
    "hostio": "host-I/O driver",
}


@dataclass
class ProfileReport:
    total_ns: int
    buckets: dict  # bucket -> ns
    unattributed_ns: int
    load: LoadReport | None = None

    def percentages(self) -> dict:
        total = self.total_ns or 1
        out = {k: 100.0 * self.buckets.get(k, 0) / total for k in BUCKETS}
        out["unattributed"] = 100.0 * self.unattributed_ns / total
        return out

    def to_dict(self) -> dict:
        d = {
            "total_ns": self.total_ns,
            "buckets_ns": {k: self.buckets.get(k, 0) for k in BUCKETS},
            "unattributed_ns": self.unattributed_ns,
            "percent": {k: round(v, 2) for k, v in self.percentages().items()},
        }
        if self.load is not None:
            d["load"] = self.load.to_dict()
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_table(self) -> str:
        pct = self.percentages()
        width = max(len(v) for v in BUCKET_LABELS.values())
        lines = [f"{'classification':<{width + 2}}{'elapsed ns':>16}  {'share':>7}"]
        for k in BUCKETS:
            lines.append(
                f"{BUCKET_LABELS[k]:<{width + 2}}{self.buckets.get(k, 0):>16,}  {pct[k]:>6.2f}%"
            )
        lines.append(
            f"{'(unattributed)':<{width + 2}}{self.unattributed_ns:>16,}  {pct['unattributed']:>6.2f}%"
        )
        return "\n".join(lines)


def _parse_report(path: Path) -> ProfileReport:
    if not path.is_file() or path.stat().st_size == 0:
        raise ProfileDisabled(
            "no profile report was produced; the executable lacks instrumentation "
            "or exited abnormally"
        )
    raw = json.loads(path.read_text())
    return ProfileReport(
        total_ns=int(raw["total_ns"]),
        buckets={k: int(v) for k, v in raw["buckets"].items()},
        unattributed_ns=int(raw["unattributed_ns"]),
    )


def _wait_for_port(host: str, port: int, timeout_s: float, proc: subprocess.Popen):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SeamError(f"server exited early with status {proc.returncode}")
        try:
            with socket.create_connection((host, port), timeout=0.25):
                return
        except OSError:
            time.sleep(0.05)
    raise SeamError(f"server never opened {host}:{port}")


def profile_run(exe: str | Path, load: LoadConfig | None = None,
                guest_args: list[str] | None = None,
                timeout_s: float = 120.0) -> ProfileReport:
    """Run an executable with profiling enabled; optionally drive HTTP load
    against it (server mode) while it runs."""
    exe = Path(exe)
    if not exe.is_file():
        raise SeamError(f"executable not found: {exe}")
    with tempfile.TemporaryDirectory(prefix="seam-prof-") as td:
        report_path = Path(td) / "profile.json"
        env = dict(os.environ, **guest_environ(exe, guest_args))
        env["SEAM_PROFILE"] = "1"
        env["SEAM_PROFILE_OUT"] = str(report_path)

        if load is None:
            proc = subprocess.run([str(exe)], env=env, timeout=timeout_s,
                                  capture_output=True)
            if proc.returncode != 0:
                raise SeamError(
                    f"guest exited with status {proc.returncode}:\n"
                    f"{proc.stderr.decode(errors='replace')}"
                )
            return _parse_report(report_path)

        from urllib.parse import urlparse

        u = urlparse(load.url)
        server = subprocess.Popen([str(exe)], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _wait_for_port(u.hostname, u.port or 80, 10.0, server)
            report = run_load(load)
        finally:
            server.send_signal(signal.SIGTERM)  # runtime flushes the profile on exit
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        out = _parse_report(report_path)
        out.load = report
        return out
