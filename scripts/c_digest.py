#!/usr/bin/env python3
"""Print one sha256 over the C that seam emits for a fixed set of modules.

    python3 scripts/c_digest.py

The modules are the benchmark's inputs (perfbench's httpd guest, kernels
guest and build corpus, at seeds 1 and 7) and the Tier-1
differential corpora of tests/genprograms.py (seed 1234 with 10 modules,
seed 42 with 40, 24 exports each). Each one is decoded, validated and
lowered to C; the digest covers every module's C text, in order. A
refactor of the front end or of C emission that keeps the digest keeps
the emitted C, and with it every benchmark number that depends on it,
byte for byte. Nothing is compiled, so no C compiler is needed.
"""

import hashlib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench"), str(REPO / "tests")]

import guests  # noqa: E402
from genprograms import generate_corpus  # noqa: E402
from seam.codegen.ctext import CGen  # noqa: E402
from seam.wasm import decode_module, validate_module  # noqa: E402


def modules() -> list[bytes]:
    out: list[bytes] = []
    for seed in (1, 7):
        out += [guests.httpd_wasm(), guests.kernels_wasm(guests.kernel_params(seed))]
        out.extend(guests.corpus(seed).values())
    for seed, n in ((1234, 10), (42, 40)):
        out.extend(data for data, _ in generate_corpus(seed=seed, n_modules=n, exports_per_module=24))
    return out


def main() -> None:
    h = hashlib.sha256()
    mods = modules()
    for data in mods:
        h.update(CGen(validate_module(decode_module(data))).emit().encode())
    print(f"{h.hexdigest()}  ({len(mods)} modules)")


if __name__ == "__main__":
    main()
