"""seam: compile Wasm to native objects, link them with the WASI runtime,
run the result, and benchmark/profile it.

Exit codes: 0 success, 1 input error (including an import outside the
WASI ABI or with another type), 2 usage, 3 link error; `seam run`
forwards the guest's exit status (128+code for traps).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import LoadConfig, run_load
from .driver import BuildPlan, cmd_build, cmd_compile, cmd_pack, cmd_run
from .errors import LinkError, SeamError, TargetUnreachable, ToolchainMissing
from .profiler import profile_run

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_USAGE = 2
EXIT_LINK = 3


def _split_guest_args(argv: list[str]) -> tuple[list[str], list[str]]:
    if "--" in argv:
        i = argv.index("--")
        return argv[:i], argv[i + 1 :]
    return argv, []


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="seam", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a .wasm to a relocatable object")
    c.add_argument("wasm", type=Path)
    c.add_argument("-o", "--output", type=Path, required=True)

    k = sub.add_parser("pack", help="pack a directory into a deterministic ustar image")
    k.add_argument("dir", type=Path)
    k.add_argument("-o", "--output", type=Path, required=True)

    b = sub.add_parser("build", help="compile, pack, and link one executable")
    b.add_argument("wasm", type=Path)
    b.add_argument("-o", "--output", type=Path, required=True)
    b.add_argument("--fs", type=Path, default=None, help="directory to embed as the tar filesystem")
    b.add_argument("--keep", action="store_true", help="keep intermediates under <out>.build/")
    b.add_argument("--linker", default=None, help="cc-compatible static-PIE link driver (default: $SEAM_LINKER or cc)")

    r = sub.add_parser("run", help="run a built executable")
    r.add_argument("exe", type=Path)
    r.add_argument("--fs", type=Path, default=None, help="tar image overriding the embedded one")
    r.add_argument("--invoke", default=None, help="call a nullary export instead of _start")
    r.add_argument("--env", action="append", default=[], help="guest env K=V (repeatable)")

    n = sub.add_parser("bench", help="HTTP load against a URL")
    n.add_argument("--url", required=True)
    n.add_argument("--threads", type=int, default=2)
    n.add_argument("--connections", type=int, default=16)
    n.add_argument("--duration", type=float, default=5.0)
    n.add_argument("--json", type=Path, default=None, help="also write the report as JSON")

    f = sub.add_parser("profile", help="run with instrumentation and print the six-bucket profile")
    f.add_argument("exe", type=Path)
    f.add_argument("--url", default=None, help="drive HTTP load at this URL while profiling")
    f.add_argument("--threads", type=int, default=2)
    f.add_argument("--connections", type=int, default=16)
    f.add_argument("--duration", type=float, default=5.0)
    f.add_argument("--fs", type=Path, default=None)
    f.add_argument("--json", type=Path, default=None)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv, guest_args = _split_guest_args(argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "compile":
            cmd_compile(args.wasm, args.output)
            return EXIT_OK
        if args.command == "pack":
            n = cmd_pack(args.dir, args.output)
            print(f"packed {args.dir} -> {args.output} ({n} entries)")
            return EXIT_OK
        if args.command == "build":
            plan = BuildPlan(wasm=args.wasm, output=args.output, fs_dir=args.fs,
                             keep_intermediates=args.keep, linker=args.linker)
            audit = cmd_build(plan)
            print(f"built {args.output}")
            print("symbol audit:")
            for sym, provider in sorted(audit["resolved"].items()):
                print(f"  {sym} <- {provider}")
            print("unresolved after link: none")
            return EXIT_OK
        if args.command == "run":
            proc = cmd_run(args.exe, guest_args=guest_args, fs_override=args.fs,
                           guest_env=args.env, invoke=args.invoke)
            return proc.returncode
        if args.command == "bench":
            cfg = LoadConfig(url=args.url, threads=args.threads,
                             connections=args.connections, duration_s=args.duration)
            report = run_load(cfg)
            print(report.render_table())
            if args.json:
                args.json.write_text(report.to_json() + "\n")
            return EXIT_OK
        if args.command == "profile":
            load = None
            if args.url:
                load = LoadConfig(url=args.url, threads=args.threads,
                                  connections=args.connections, duration_s=args.duration)
            report = profile_run(args.exe, load=load, guest_args=guest_args,
                                 fs_override=args.fs)
            print(report.render_table())
            if report.load is not None:
                print()
                print(report.load.render_table())
            if args.json:
                args.json.write_text(report.to_json() + "\n")
            return EXIT_OK
        parser.error(f"unknown command {args.command}")
    except ToolchainMissing as e:
        print(f"seam: error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except LinkError as e:
        print(f"seam: link error: {e}", file=sys.stderr)
        return EXIT_LINK
    except (TargetUnreachable, SeamError, ValueError, OSError) as e:
        print(f"seam: error: {e}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
