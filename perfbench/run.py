"""seam end-to-end benchmark: build, serve and compute, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports seam from ./src, builds its own
tools and inputs under ./.bench_build/perfbench, and prints one JSON object
as the last line of standard output. Every run passes through the whole
pipeline: set-up (inputs, guest builds, tar pack, server up), then rounds
of a corpus build, the kernels and two serving phases until the seconds
are used. The workload decides the inputs and how much of a round each
part gets; see README.md next to this file for every metric.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
the same phases with seam's layers wrapped in spans and the server under
SEAM_PROFILE=1, plus the calibration runs, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
import guests  # noqa: E402

# Every round builds the corpus `build_reps` times, runs each kernel
# `kernel_reps` times and serves one unloaded and one pipelined phase of
# `serve_s` seconds; rounds repeat until the run's seconds are used.
# Interleaving spreads each metric's samples over the whole run.
WORKLOADS = {
    "serve_small": {"site": "small", "corpus": False, "serve_s": 0.6, "kernel_reps": 1, "build_reps": 2},
    "serve_large": {"site": "large", "corpus": False, "serve_s": 0.6, "kernel_reps": 1, "build_reps": 2},
    "kernels": {"site": "small", "corpus": False, "serve_s": 0.5, "kernel_reps": 2, "build_reps": 2},
    "build": {"site": "small", "corpus": True, "serve_s": 0.5, "kernel_reps": 1, "build_reps": 1},
}
MIN_ROUNDS = 3
SETUP_REPS = 5
WARMUP_S = 0.1
SLICE_S = 0.1              # the load generator's WINDOW_NS
BOOT_REPS = 15
PIPELINE = (2, 8)          # connections, requests in flight per connection
UNLOADED = (2, 1)

END_TO_END = {
    "rps": "req/s", "lat_p50_us": "us", "lat_p99_us": "us", "server_cpu_us_per_req": "us",
    "server_rss_mb": "MiB", "memloop_ms": "ms", "fib_ms": "ms", "indirect_ms": "ms",
    "grow_ms": "ms", "build_s": "s", "code_bytes": "bytes", "setup_s": "s",
}


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ helpers

def low_quartile(xs):
    """First quartile of repeated cost samples.

    On a shared host, other tenants slow whole stretches of a run by up to
    2x; the fast quartile of many samples moves far less between runs than
    their median, and a slower program still moves it by the same factor.
    """
    return statistics.quantiles(xs, n=4, method="inclusive")[0] if len(xs) > 1 else xs[0]


def quiet(samples: list[tuple[float, int]]) -> float:
    """low_quartile of the (cost, steal) samples taken while the least CPU was stolen.

    Samples whose steal count (ticks the hypervisor ran someone else on
    this machine's CPUs) is above the lowest quarter of steal counts are
    dropped first; on a quiet host that drops nothing.
    """
    cutoff = sorted(st for _, st in samples)[len(samples) // 4]
    return low_quartile([v for v, st in samples if st <= cutoff])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def text_bytes(obj: bytes) -> int:
    """Size of the .text sections of an ELF64 relocatable object."""
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum, shstrndx = struct.unpack_from("<HHH", obj, 0x3A)
    secs = [struct.unpack_from("<IIQQQQ", obj, shoff + i * shentsize) for i in range(shnum)]
    strtab_off = secs[shstrndx][4]
    total = 0
    for name, _type, _flags, _addr, _off, size in secs:
        end = obj.index(b"\x00", strtab_off + name)
        sname = obj[strtab_off + name:end].decode()
        if sname == ".text" or sname.startswith(".text."):
            total += size
    return total


def slice_stats(runs: list[dict]) -> dict:
    """Pool the 100 ms slices of several load-generator runs; see quiet()."""
    slices = [x for r in runs for x in r["slices"] if x["n"]]

    def q(cost):
        return quiet([(cost(x), x["steal"]) for x in slices])

    return {
        "rps": 1 / q(lambda x: SLICE_S / x["n"]),
        "p50": q(lambda x: x["p50"]),
        "p99": q(lambda x: x["p99"]),
        "server_us_per_req": q(lambda x: x["server_ns"] / x["n"]) / 1000,
    }


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def pinned(core: int):
    return lambda: os.sched_setaffinity(0, {core})


def schedstat_ns(pid: int) -> int:
    """Run time of every thread of a process, from /proc/<pid>/task/*/schedstat."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        with contextlib.suppress(OSError):
            total += int((task / "schedstat").read_text().split()[0])
    return total


def proc_status(pid: int, key: str) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise BenchError(f"{key} missing from /proc/{pid}/status")


def voluntary_switches(pid: int) -> int:
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        with contextlib.suppress(OSError):
            for line in (task / "status").read_text().splitlines():
                if line.startswith("voluntary_ctxt_switches:"):
                    total += int(line.split()[1])
    return total


def tcp_out_segs() -> int:
    lines = [l.split() for l in Path("/proc/net/snmp").read_text().splitlines() if l.startswith("Tcp:")]
    return int(lines[1][lines[0].index("OutSegs")])


def cpu_times(cpu: str = "cpu") -> list[int]:
    """The /proc/stat counters of one CPU ("cpu0") or of all ("cpu")."""
    for line in Path("/proc/stat").read_text().splitlines():
        fields = line.split()
        if fields[0] == cpu:
            return [int(x) for x in fields[1:]]
    raise BenchError(f"{cpu} missing from /proc/stat")


def steal(cpu: str) -> int:
    return cpu_times(cpu)[7]


def run_meta(cores: tuple[int, int]) -> dict:
    try:
        git = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (no git)"
    h = hashlib.sha256()
    for p in sorted((SRC / "seam").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".c", ".h"):
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    cc = subprocess.run(["cc", "--version"], capture_output=True, text=True).stdout.splitlines()
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "cc": cc[0] if cc else "unknown",
        "python": platform.python_version(),
        "pinning": {"generator_and_driver": cores[0], "server_and_kernels": cores[1]},
    }


# ------------------------------------------------------------------ tracing

class Tracer:
    """Spans around seam's public functions: name, start, end, parent, module."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.module = None

    def wrap(self, owner, attr: str, name: str, on_result=None):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self.stack[-1] if self.stack else None, "module": self.module}
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = orig(*args, **kwargs)
                if on_result:
                    span.update(on_result(result))
                return result
            finally:
                self.stack.pop()
                span["end"] = time.perf_counter()

        setattr(owner, attr, wrapper)
        return orig

    @contextlib.contextmanager
    def installed(self, seam):
        """Wrap each layer's public entry points where the pipeline looks them up."""
        compile_mod = sys.modules["seam.codegen.compile"]
        targets = [
            (compile_mod, "decode_module", "wasm.decode", None),
            (compile_mod, "validate_module", "wasm.validate", None),
            (compile_mod.CGen, "emit", "codegen.emit", lambda src: {"c_bytes": len(src)}),
            (compile_mod, "compile_module", "codegen.compile_module",
             lambda art: {"obj_text_bytes": text_bytes(art.object_bytes)}),
            (seam.driver, "compile_wasm_file", "driver.compile", None),
            (seam.driver, "pack_dir", "tarfs.pack", lambda img: {"image_bytes": len(img)}),
            (seam.driver, "runtime_objects", "runtime.objects", None),
            (seam.driver, "cmd_build", "driver.cmd_build", None),
        ]
        saved = [(owner, attr, self.wrap(owner, attr, name, hook)) for owner, attr, name, hook in targets]
        try:
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    def self_ms(self, name: str) -> float:
        """Σ self time (span minus its children) of every span with this name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return 1000 * sum(s["end"] - s["start"] - child[i]
                          for i, s in enumerate(self.spans) if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def total(self, name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in self.spans if s["name"] == name)


# ------------------------------------------------------------------ the run

class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.name = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer() if trace else None
        cores = sorted(os.sched_getaffinity(0))
        self.cores = (cores[0], cores[1] if len(cores) > 1 else cores[0])
        os.sched_setaffinity(0, {self.cores[0]})  # the generator's core
        self.dir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.inputs: dict[str, str] = {}
        self.metrics: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.procs: list[subprocess.Popen] = []

    # -- accounting
    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    # -- tools
    def prepare(self):
        """Untimed: build the benchmark's native tools and warm seam's runtime cache."""
        if not (SRC / "seam").is_dir():
            raise BenchError(f"seam sources not found under {SRC}")
        tmp = WORK / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)  # seam's and cc's scratch files stay in the checkout
        os.environ["SEAM_CACHE"] = str(WORK / "seam-cache")
        sys.path.insert(0, str(SRC))
        import tempfile
        tempfile.tempdir = str(tmp)
        import seam.driver  # noqa: F401
        import seam.runtime
        self.seam = sys.modules["seam"]
        self.tools = {
            "loadgen": self.tool("loadgen.c", []),
            "nullsrv": self.tool("nullsrv.c", []),
            "kernels_native": self.tool("kernels_native.c", guests.twin_flags(guests.KERNEL_SIZES)),
        }
        seam.runtime.runtime_objects()
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def tool(self, src: str, flags: list[str]) -> Path:
        source = HERE / "native" / src
        key = sha256(source.read_bytes() + " ".join(flags).encode())[:16]
        exe = WORK / "tools" / f"{Path(src).stem}-{key}"
        if not exe.exists():
            exe.parent.mkdir(parents=True, exist_ok=True)
            tmp = exe.with_suffix(f".tmp{os.getpid()}")
            subprocess.run(["cc", "-O2", "-Wall", *flags, "-o", str(tmp), str(source)], check=True)
            os.replace(tmp, exe)
        return exe

    # -- inputs
    def make_inputs(self, root: Path) -> dict:
        """Write every seeded input under root; returns paths and sha256 digests."""
        files, seq = guests.site(self.seed, self.w["site"])
        www = root / "www"
        digests = {}
        for rel, data in files.items():
            p = www / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_bytes(data)
            digests[f"www/{rel}"] = sha256(data)
        # expected responses, computed here from the generated bytes
        exp = root / "expect"
        exp.mkdir()
        paths = sorted(set(seq))
        index = {p: i for i, p in enumerate(paths)}
        bodies, lines = bytearray(), []
        for p in paths:
            rel = "index.html" if p == "/" else p[1:]
            status, body = (200, files[rel]) if rel in files else (404, b"not found\n")
            lines.append(f"{status} {len(body)} {len(bodies)} {p}\n")
            bodies += body
        (exp / "entries.txt").write_text("".join(lines))
        (exp / "bodies.bin").write_bytes(bodies)
        (exp / "seq.txt").write_text("".join(f"{index[p]}\n" for p in seq))
        for name in ("entries.txt", "bodies.bin", "seq.txt"):
            digests[f"expect/{name}"] = sha256((exp / name).read_bytes())
        modules = {"httpd.wasm": guests.httpd_wasm(),
                   "kernels.wasm": guests.kernels_wasm(guests.kernel_params(self.seed))}
        if self.w["corpus"]:
            modules.update(guests.corpus(self.seed))
        for name, data in modules.items():
            (root / name).write_bytes(data)
            digests[name] = sha256(data)
        return {"root": root, "www": www, "expect": exp, "modules": list(modules), "digests": digests}

    def build(self, inp: dict, wasm: str, out: Path) -> tuple[Path, int]:
        """seam build of one module; returns the executable and its guest .text size."""
        from seam.driver import BuildPlan, cmd_build
        if self.tracer:
            self.tracer.module = wasm
        fs = inp["www"] if wasm == "httpd.wasm" else None
        plan = BuildPlan(wasm=inp["root"] / wasm, output=out, fs_dir=fs, keep_intermediates=True)
        audit = cmd_build(plan)
        self.check(audit["unresolved"] == [] and out.is_file(), f"build audit of {wasm}")
        code = text_bytes((Path(str(out) + ".build") / "guest.o").read_bytes())
        return out, code

    # -- processes
    def start_server(self, argv: list[str], env: dict | None = None) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                preexec_fn=pinned(self.cores[1]))
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen):
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs.remove(proc)

    def wait_answer(self, port: int, proc: subprocess.Popen):
        """Block until the server answers one GET for index.html."""
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise BenchError(f"server exited with {proc.returncode} during start-up")
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                    s.sendall(b"GET / HTTP/1.1\r\n\r\n")
                    if s.recv(64).startswith(b"HTTP/1.1 200"):
                        return
            except OSError:
                time.sleep(0.002)
        raise BenchError("server did not answer within 20 s")

    def seam_server(self, exe: Path, extra_env: dict | None = None):
        port = free_port()
        env = dict(os.environ, GUEST_ARGS=f"httpd {port}", **(extra_env or {}))
        proc = self.start_server([str(exe)], env)
        self.wait_answer(port, proc)
        return proc, port

    def null_server(self, inp: dict):
        port = free_port()
        proc = self.start_server([str(self.tools["nullsrv"]), str(port), str(inp["www"])])
        self.wait_answer(port, proc)
        return proc, port

    def drive(self, port: int, shape: tuple[int, int], seconds: float, inp: dict,
              server: subprocess.Popen, spans: Path | None = None) -> dict:
        """One closed-loop phase from the native generator on the other core."""
        argv = [str(self.tools["loadgen"]), str(port), str(shape[0]), str(shape[1]),
                str(WARMUP_S), f"{seconds:.3f}", str(inp["expect"]), str(server.pid)]
        if spans:
            argv.append(str(spans))
        vcsw, segs = voluntary_switches(server.pid), tcp_out_segs()
        proc = subprocess.run(argv, capture_output=True, text=True, preexec_fn=pinned(self.cores[0]),
                              timeout=seconds + 60)
        if proc.returncode != 0:
            raise BenchError(f"load generator failed: {proc.stderr.strip()}")
        r = json.loads(proc.stdout)
        r["out_segs"] = tcp_out_segs() - segs
        r["server_vcsw"] = voluntary_switches(server.pid) - vcsw
        self.attempted += r["completed"] + r["failed"]
        self.failed += r["failed"]
        if r["failed"]:
            self.problems.append(f"{r['failed']} failed requests")
        return r

    def setup(self) -> tuple[dict, subprocess.Popen, int]:
        """Timed several times: inputs, guest builds, pack, server up; keeps the last."""
        times, digests, codes = [], [], []
        for rep in range(SETUP_REPS):
            root = self.dir / f"setup{rep}"
            t0 = time.perf_counter()
            root.mkdir()
            inp = self.make_inputs(root)
            httpd, c1 = self.build(inp, "httpd.wasm", root / "httpd")
            kern, c2 = self.build(inp, "kernels.wasm", root / "kernels")
            proc, port = self.seam_server(httpd)
            times.append(time.perf_counter() - t0)
            digests.append(inp["digests"])
            codes.append(c1 + c2)
            if rep < SETUP_REPS - 1:
                self.stop(proc)
        self.check(all(d == digests[0] for d in digests) and len(set(codes)) == 1,
                   "same seed gave different inputs or code size")
        self.inputs = digests[0]
        self.metrics["setup_s"] = statistics.median(times)
        inp["exes"] = {"httpd": httpd, "kernels": kern}
        return inp, proc, port

    def timed(self, argv: list[str], env: dict | None = None) -> tuple[tuple[float, int], str]:
        """Spawn-to-exit wall time and steal ticks of one run on the kernels' core."""
        cpu = f"cpu{self.cores[1]}"
        st, t0 = steal(cpu), time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              preexec_fn=pinned(self.cores[1]), timeout=60)
        sample = (time.perf_counter() - t0, steal(cpu) - st)
        return sample, proc.stdout.strip() if proc.returncode == 0 else f"exit {proc.returncode}"

    def invoke(self, exe: Path, export: str, env_extra: dict | None = None):
        return self.timed([str(exe)], dict(os.environ, SEAM_INVOKE=export, **(env_extra or {})))

    def native(self, name: str, twin: str = "kernels_native"):
        return self.timed([str(self.tools[twin]), *guests.kernel_argv(name, self.params)])

    # -- one round: a corpus build, the kernels, the serving phases
    def round(self, n: int, inp: dict, servers: dict, s: dict):
        for _ in range(self.w["build_reps"]):
            out = self.dir / "build"
            out.mkdir()
            cpu = f"cpu{self.cores[0]}"
            st, t0 = steal(cpu), time.perf_counter()
            with self.tracer.installed(self.seam) if self.trace else contextlib.nullcontext():
                built = [self.build(inp, m, out / Path(m).stem) for m in inp["modules"]]
            s["build"].append((time.perf_counter() - t0, steal(cpu) - st))
            s["code"].append(sum(code for _, code in built))
            s["exe_bytes"].append(sum(exe.stat().st_size for exe, _ in built))
            shutil.rmtree(out)

        for _ in range(self.w["kernel_reps"]):
            for k in guests.KERNELS:
                sample, got = self.invoke(inp["exes"]["kernels"], k)
                self.check(got == self.expected[k], f"kernel {k}: seam {got} != native {self.expected[k]}")
                s[k].append(sample)
                if self.trace:
                    s[f"native.{k}"].append(self.native(k)[0])

        each = self.w["serve_s"]
        proc, port = servers["seam"]
        s["unloaded"].append(self.drive(port, UNLOADED, each, inp, proc))
        s["piped"].append(self.drive(port, PIPELINE, each, inp, proc))
        if self.trace:
            # the same two phases in a fresh server under the profiler
            prof = self.dir / f"httpd.profile{n}.json"
            proc, port = self.seam_server(inp["exes"]["httpd"],
                                          {"SEAM_PROFILE": "1", "SEAM_PROFILE_OUT": str(prof)})
            spans = self.dir / "client.spans" if n == 0 else None
            s["traced_unloaded"].append(self.drive(port, UNLOADED, each, inp, proc, spans=spans))
            s["traced_piped"].append(self.drive(port, PIPELINE, each, inp, proc))
            self.stop(proc)
            s["profile"].append(json.loads(prof.read_text())["buckets"])
            # the floor: a native server of the same shape on the same core
            proc, port = servers["null"]
            s["null_piped"].append(self.drive(port, PIPELINE, each, inp, proc))

    def run(self) -> dict:
        cpu0 = cpu_times()
        self.prepare()
        self.meta = run_meta(self.cores)
        self.params = guests.kernel_params(self.seed)
        self.expected = {k: self.native(k)[1] for k in guests.KERNELS}
        s: dict[str, list] = collections.defaultdict(list)
        try:
            inp, proc, port = self.setup()
            servers = {"seam": (proc, port)}
            if self.trace:
                servers["null"] = self.null_server(inp)
            deadline = time.perf_counter() + self.seconds
            n = 0
            while n < MIN_ROUNDS or time.perf_counter() < deadline:
                self.round(n, inp, servers, s)
                n += 1
            self.metrics["server_rss_mb"] = proc_status(proc.pid, "VmHWM") / 1024
            if self.trace:
                self.once_layers(inp)
        finally:
            for p in list(self.procs):
                self.stop(p)
        self.summarize(s)
        if self.trace:
            d = [b - a for a, b in zip(cpu0, cpu_times())]
            self.layer["host.steal_pct"] = 100 * d[7] / max(1, sum(d[:8]))
            self.layer["error_rate"] = self.failed / self.attempted
            self.write_trace()
        return self.result()

    def summarize(self, s: dict):
        """Pool every round's samples; costs take quiet() of their samples."""
        M = self.metrics
        builds = len(s["build"])
        self.check(len(set(s["code"])) == 1, "rebuilding the same corpus changed code size")
        M["build_s"] = quiet(s["build"])
        M["code_bytes"] = s["code"][0]
        for k in guests.KERNELS:
            M[f"{k}_ms"] = 1000 * quiet(s[k])
        un, piped = slice_stats(s["unloaded"]), slice_stats(s["piped"])
        M["rps"] = piped["rps"]
        M["lat_p50_us"] = un["p50"]
        M["lat_p99_us"] = un["p99"]
        M["server_cpu_us_per_req"] = piped["server_us_per_req"]
        if not self.trace:
            return
        L = self.layer
        tr = self.tracer
        for name, span in [("wasm.decode_ms", "wasm.decode"), ("wasm.validate_ms", "wasm.validate"),
                           ("codegen.emit_ms", "codegen.emit"), ("codegen.cc_ms", "codegen.compile_module"),
                           ("driver.link_ms", "driver.cmd_build"), ("tarfs.pack_ms", "tarfs.pack")]:
            L[name] = tr.self_ms(span) / builds  # per corpus build
        L["runtime.objects_warm_ms"] = tr.self_ms("runtime.objects") / tr.count("runtime.objects")
        L["codegen.c_bytes"] = tr.total("codegen.emit", "c_bytes") / builds
        L["codegen.obj_text_bytes"] = tr.total("codegen.compile_module", "obj_text_bytes") / builds
        L["driver.exe_bytes"] = s["exe_bytes"][0]
        L["tarfs.image_bytes"] = tr.total("tarfs.pack", "image_bytes") / builds
        for k in guests.KERNELS:
            native = quiet(s[f"native.{k}"])
            L[f"kernel.{k}.native_ms"] = 1000 * native
            L[f"kernel.{k}.x_native"] = quiet(s[k]) / native
        unloaded, piped_runs = s["unloaded"], s["piped"]
        L["net.out_segs_per_req"] = sum(r["out_segs"] for r in unloaded) / sum(r["completed"] for r in unloaded)
        L["server.ctxsw_per_req"] = (sum(r["server_vcsw"] for r in unloaded)
                                     / sum(r["completed"] for r in unloaded))
        L["client.cpu_us_per_req"] = (sum(r["cpu_ns"] for r in piped_runs)
                                      / sum(r["window_completed"] for r in piped_runs) / 1000)
        L["client.lat_p999_us"] = statistics.median([r["lat_us"]["p999"] for r in unloaded])
        served = sum(r["completed"] for r in s["traced_unloaded"] + s["traced_piped"])
        for b in ("guest", "wasi", "socket", "memory", "timer", "hostio"):
            L[f"profile.{b}_ns_per_req"] = sum(p[b] for p in s["profile"]) / served
        traced = slice_stats(s["traced_piped"])
        L["profile.overhead_pct"] = 100 * (traced["server_us_per_req"] / piped["server_us_per_req"] - 1)
        null = slice_stats(s["null_piped"])
        L["gen.null_rps"] = null["rps"]
        L["gen.null_cpu_us_per_req"] = null["server_us_per_req"]

    def once_layers(self, inp: dict):
        """Trace-only measurements made once: boot, grow's memory bucket, cold runtime build."""
        L = self.layer
        exe = inp["exes"]["kernels"]
        boots = []
        for _ in range(BOOT_REPS):
            sample, out = self.invoke(exe, "nop")
            self.check(out == f"i32:0x{self.params['nop']:08x}", "null export result")
            boots.append(sample)
        L["runtime.boot_ms"] = 1000 * quiet(boots)
        prof = self.dir / "grow.profile.json"
        _, out = self.invoke(exe, "grow", {"SEAM_PROFILE": "1", "SEAM_PROFILE_OUT": str(prof)})
        self.check(out == self.expected["grow"], "profiled grow run")
        L["kernel.grow.memory_ns_per_page"] = (json.loads(prof.read_text())["buckets"]["memory"]
                                               / guests.KERNEL_SIZES["GROW_PAGES"])
        L["wasm.in_bytes"] = sum((inp["root"] / m).stat().st_size for m in inp["modules"])
        cold = self.dir / "cold-cache"
        os.environ["SEAM_CACHE"] = str(cold)
        try:
            t0 = time.perf_counter()
            self.seam.runtime.runtime_objects()
            L["runtime.objects_cold_ms"] = 1000 * (time.perf_counter() - t0)
        finally:
            os.environ["SEAM_CACHE"] = str(WORK / "seam-cache")
            shutil.rmtree(cold, ignore_errors=True)

    def write_trace(self):
        """Spans are kept in memory during the run and written once here."""
        client = []
        spans = self.dir / "client.spans"
        if spans.exists():
            for line in spans.read_text().splitlines():
                conn, ent, send, first, last = map(int, line.split())
                client.append({"name": "client.request", "conn": conn, "entry": ent,
                               "send_ns": send, "first_byte_ns": first, "last_byte_ns": last})
        out = WORK / f"trace-{self.name}.json"
        out.write_text(json.dumps({"build": self.tracer.spans, "client": client}) + "\n")

    def result(self) -> dict:
        if self.trace:
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in sorted(self.layer.items())}
        else:
            metrics = {k: {"value": self.metrics[k], "unit": u} for k, u in END_TO_END.items()}
        return {"correct": self.failed == 0, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


LAYER_UNITS = {
    "wasm.decode_ms": "ms", "wasm.validate_ms": "ms", "wasm.in_bytes": "bytes",
    "codegen.emit_ms": "ms", "codegen.c_bytes": "bytes", "codegen.cc_ms": "ms",
    "codegen.obj_text_bytes": "bytes", "driver.link_ms": "ms", "driver.exe_bytes": "bytes",
    "runtime.objects_cold_ms": "ms", "runtime.objects_warm_ms": "ms",
    "tarfs.pack_ms": "ms", "tarfs.image_bytes": "bytes", "runtime.boot_ms": "ms",
    **{f"kernel.{k}.native_ms": "ms" for k in guests.KERNELS},
    **{f"kernel.{k}.x_native": "ratio" for k in guests.KERNELS},
    "kernel.grow.memory_ns_per_page": "ns",
    "net.out_segs_per_req": "count", "server.ctxsw_per_req": "count",
    **{f"profile.{b}_ns_per_req": "ns" for b in ("guest", "wasi", "socket", "memory", "timer", "hostio")},
    "profile.overhead_pct": "%",
    "gen.null_rps": "req/s", "gen.null_cpu_us_per_req": "us",
    "client.cpu_us_per_req": "us", "client.lat_p999_us": "us",
    "host.steal_pct": "%", "error_rate": "ratio",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        res = bench.run()
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        bench.cleanup()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for k, v in bench.meta.items():
        print(f"meta {k}: {v}")
    for name, digest in sorted(bench.inputs.items()):
        print(f"input {digest}  {name}")
    for p in bench.problems:
        print(f"FAILED {p}")
    print(f"error_rate {bench.failed / bench.attempted:.6g} ({bench.failed} of {bench.attempted} operations)")
    for k, m in res["metrics"].items():
        print(f"{k:<34}{m['value']:>16.6g} {m['unit']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
