"""Quick self-check of the benchmark's guests, tools and checks.

    python3 perfbench/selfcheck.py [--seed N]

Runs every correctness check the benchmark relies on, in seconds:
- httpd guest: keep-alive, pipelined requests, 404s, "/" -> "/index.html",
  byte-identical bodies, and exactly one two-iovec sock_send per response
  (counted by linking the guest with a --wrap=sock_send probe);
- the load generator accepts the guest's responses and rejects a corrupted
  expected body;
- kernels guest: every export equals its native C twin and, once, what
  node computes for the same .wasm as an independent engine;
- build corpus: every module builds with zero unresolved symbols;
- the same seed yields byte-identical inputs twice.
Prints one PASS/FAIL line per check; exits 1 if any failed.
"""

from __future__ import annotations

import argparse
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

import guests
from run import Bench, BenchError, text_bytes

NODE_RUN = r"""
const fs = require('fs');
const [file, name] = process.argv.slice(1);  // node -e: argv[1] is the first argument
const inst = new WebAssembly.Instance(new WebAssembly.Module(fs.readFileSync(file)), {});
const v = inst.exports[name]() >>> 0;
console.log('i32:0x' + v.toString(16).padStart(8, '0'));
"""


class Check:
    def __init__(self):
        self.failed = 0

    def __call__(self, ok: bool, what: str):
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        self.failed += not ok


def recv_response(sock: socket.socket, buf: bytearray) -> tuple[int, bytes]:
    """Read one HTTP/1.1 response (status, body) off a keep-alive socket."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise BenchError("connection closed mid-response")
        buf += chunk
    head = bytes(buf).partition(b"\r\n\r\n")[0]
    status = int(head.split(b" ")[1])
    length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
    del buf[:len(head) + 4]
    while len(buf) < length:
        buf += sock.recv(65536)
    body = bytes(buf[:length])
    del buf[:length]
    return status, body


def link_probed_httpd(b: Bench, inp: dict, out: Path) -> Path:
    """The httpd guest linked like seam build does, plus the sock_send probe."""
    from seam.codegen import compile_wasm_file, write_artifact
    from seam.runtime import runtime_objects
    from seam.tarfs import pack_dir
    write_artifact(compile_wasm_file(inp["root"] / "httpd.wasm"), out / "guest.o")
    (out / "fs.tar").write_bytes(pack_dir(inp["www"]))
    (out / "fs.s").write_text(
        "  .section .rodata\n  .global fs_image_start\n  .align 16\nfs_image_start:\n"
        f'  .incbin "{out / "fs.tar"}"\n  .global fs_image_size\n  .align 8\n'
        f"fs_image_size:\n  .quad {(out / 'fs.tar').stat().st_size}\n"
        '  .section .note.GNU-stack,"",@progbits\n')
    exe = out / "httpd-probed"
    subprocess.run(["cc", "-o", str(exe), str(out / "guest.o"), str(out / "fs.s"),
                    str(Path(__file__).parent / "native" / "sendcount.c"),
                    *map(str, runtime_objects()), "-pthread", "-Wl,--wrap=sock_send"], check=True)
    return exe


def check_httpd(b: Bench, inp: dict, out: Path, check: Check):
    files, _ = guests.site(b.seed, b.w["site"])
    exe = link_probed_httpd(b, inp, out)
    counts = out / "sendcount.txt"
    proc, port = b.seam_server(exe, {"SENDCOUNT_OUT": str(counts)})
    present = sorted(files)[:6]
    responses = 1  # the readiness probe
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            buf = bytearray()
            ok = True
            for rel in present:  # keep-alive: one request at a time on one connection
                s.sendall(f"GET /{rel} HTTP/1.1\r\n\r\n".encode())
                ok &= recv_response(s, buf) == (200, files[rel])
                responses += 1
            check(ok, f"keep-alive: {len(present)} sequential requests, bodies byte-identical")
            batch = ["/" + r for r in present] + ["/", "/missing/none.html"] * 2
            s.sendall(b"".join(f"GET {p} HTTP/1.1\r\nHost: x\r\n\r\n".encode() for p in batch))
            got = [recv_response(s, buf) for _ in batch]
            responses += len(batch)
            want = [(200, files[p[1:]]) if p[1:] in files else
                    (200, files["index.html"]) if p == "/" else (404, b"not found\n") for p in batch]
            check(got == want, f"pipelined: {len(batch)} requests in one write answered in order")
            check(got[len(present)] == (200, files["index.html"]), '"/" serves /index.html')
            check(got[len(present) + 1] == (404, b"not found\n"), "missing path answers 404 not found")
        # the load generator's own checks, against the guest
        good = b.drive(port, (2, 4), 0.3, inp, proc)
        check(good["failed"] == 0 and good["completed"] > 0,
              f"load generator: {good['completed']} responses verified, 0 failed")
        responses += good["completed"]
    finally:
        b.stop(proc)
    calls, one, two, more = map(int, counts.read_text().split())
    check(calls == two == responses and one == more == 0,
          f"one two-iovec sock_send per response ({responses} responses, {calls} sends, {two} with 2 iovecs)")
    # ... and against a corrupted expected body, served by the null server
    bad = out / "expect-corrupt"
    shutil.copytree(inp["expect"], bad)
    body = bytearray((bad / "bodies.bin").read_bytes())
    body[len(body) // 2] ^= 0xFF
    (bad / "bodies.bin").write_bytes(body)
    proc, port = b.null_server(inp)
    try:
        r = b.drive(port, (1, 1), 0.3, dict(inp, expect=bad), proc)
    finally:
        b.stop(proc)
    check(r["failed"] > 0, f"load generator rejects a corrupted expected body ({r['failed']} failed)")
    b.failed -= r["failed"]


def check_kernels(b: Bench, inp: dict, check: Check):
    exe = inp["exes"]["kernels"]
    for k in guests.KERNELS:
        _, seam_out = b.invoke(exe, k)
        _, native_out = b.native(k)
        check(seam_out == native_out, f"kernel {k}: seam {seam_out} == native twin {native_out}")
    _, nop = b.invoke(exe, "nop")
    check(nop == f"i32:0x{b.params['nop']:08x}", "null export returns its seeded constant")
    # once more at check sizes, with node as an independent engine
    small = inp["root"] / "kernels-check.wasm"
    small.write_bytes(guests.kernels_wasm(b.params, guests.CHECK_SIZES))
    exe, _ = b.build(dict(inp, root=small.parent), small.name, small.with_suffix(""))
    b.tools["twin_check"] = b.tool("kernels_native.c", guests.twin_flags(guests.CHECK_SIZES))
    node = shutil.which("node")
    for k in guests.KERNELS:
        _, seam_out = b.invoke(exe, k)
        _, native_out = b.native(k, "twin_check")
        if not node:
            check(seam_out == native_out, f"kernel {k} (check sizes): seam == twin; node not found")
            continue
        js = subprocess.run([node, "-e", NODE_RUN, str(small), k],
                            capture_output=True, text=True, timeout=60).stdout.strip()
        check(seam_out == native_out == js, f"kernel {k} (check sizes): seam {seam_out} == twin == node {js}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    check = Check()
    b = Bench("build", args.seed, 0, False)
    t0 = time.perf_counter()
    try:
        b.prepare()
        b.params = guests.kernel_params(args.seed)
        inputs = [b.make_inputs(b.dir / name) for name in ("a", "b")]
        check(inputs[0]["digests"] == inputs[1]["digests"],
              f"seed {args.seed} gives identical bytes twice ({len(inputs[0]['digests'])} inputs)")
        inp = inputs[0]
        codes = []
        for name in inp["modules"]:
            exe, code = b.build(inp, name, b.dir / Path(name).stem)
            codes.append(code)
        check(b.failed == 0, f"{len(inp['modules'])} modules built, zero unresolved symbols")
        again = sum(text_bytes((b.dir / f"{Path(n).stem}.build" / "guest.o").read_bytes())
                    for n in inp["modules"])
        check(again == sum(codes) and all(codes), f"code_bytes repeats: {sum(codes)}")
        inp["exes"] = {"kernels": b.dir / "kernels"}
        check_kernels(b, inp, check)
        out = b.dir / "probe"
        out.mkdir()
        check_httpd(b, inp, out, check)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        check(False, f"self-check aborted: {e}")
    finally:
        for p in list(b.procs):
            b.stop(p)
        b.cleanup()
    print(f"{'ok' if not check.failed else f'{check.failed} FAILED'} in {time.perf_counter() - t0:.1f} s")
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
