"""The benchmark's inputs, all derived from one seed.

- `httpd_wasm()`: the static-file server guest (port from argv[1]).
- `kernels_wasm(params)` / `kernel_params(seed)`: the four compute kernels
  plus a null export; `kernels_native.c` is their hand-written C twin.
- `corpus(seed)`: generated modules for the build workload.
- `site(seed, shape)`: the files served, and the request path sequence.

The guests are written in the emitter's instruction language; the httpd
guest mirrors the C fixture in the test suite: one poll_oneoff loop,
keep-alive, pipelined requests, 404s, "/" -> "/index.html", and header and
body gathered into one two-iovec sock_send.
"""

from __future__ import annotations

import random

from wasmemit import (Module, call, get, i32, i64, if_, load8, load32, op, set_, store8,
                      store32, while_)

WASI = "wasi_snapshot_preview1"

# ---------------------------------------------------------------- httpd guest

MAX_CONNS = 64
REQ_BUF = 2048
FILE_BUF = 256 * 1024

# linear-memory layout
ARGC, ARGBUF_SZ, NW, NSENT, NREAD, FDOUT, NEV, LFD = 0, 4, 8, 12, 16, 20, 24, 28
ADDR, ADDRB, IOV, RIOV = 32, 40, 48, 64
ARGV, ARGBUF = 128, 256          # 16 argv slots, 512-byte arg buffer
HEAD = 1024                       # response header scratch (256 bytes)
STRS = 1280
CONN_FD = 2048
CONN_LEN = CONN_FD + 4 * MAX_CONNS
SUBS = 4096                       # (MAX_CONNS + 1) x 48-byte subscriptions
EVENTS = 8192                     # (MAX_CONNS + 1) x 32-byte events
CONN_BUF = 16384
FILE_AT = CONN_BUF + MAX_CONNS * REQ_BUF
HTTPD_PAGES = (FILE_AT + FILE_BUF + 65535) // 65536

STRINGS = {
    "s200": b"HTTP/1.1 200 OK\r\nContent-Length: ",
    "s404": b"HTTP/1.1 404 Not Found\r\nContent-Length: ",
    "s405": b"HTTP/1.1 405 Method Not Allowed\r\nContent-Length: ",
    "tail": b"\r\nConnection: keep-alive\r\n\r\n",
    "index": b"/index.html",
    "notfound": b"not found\n",
    "listening": b"listening\n",
}


def _layout_strings() -> dict[str, tuple[int, int]]:
    at, out = STRS, {}
    for name, s in STRINGS.items():
        out[name] = (at, len(s))
        at += len(s)
    assert at <= CONN_FD
    return out


def _import_wasi(m: Module):
    sigs = {
        "args_sizes_get": (["i32"] * 2, ["i32"]),
        "args_get": (["i32"] * 2, ["i32"]),
        "fd_write": (["i32"] * 4, ["i32"]),
        "fd_read": (["i32"] * 4, ["i32"]),
        "fd_close": (["i32"], ["i32"]),
        "path_open": (["i32", "i32", "i32", "i32", "i32", "i64", "i64", "i32", "i32"], ["i32"]),
        "poll_oneoff": (["i32"] * 4, ["i32"]),
        "proc_exit": (["i32"], []),
        "sock_open": (["i32"] * 3, ["i32"]),
        "sock_bind": (["i32"] * 3, ["i32"]),
        "sock_listen": (["i32"] * 2, ["i32"]),
        "sock_accept": (["i32"] * 3, ["i32"]),
        "sock_recv": (["i32"] * 6, ["i32"]),
        "sock_send": (["i32"] * 5, ["i32"]),
    }
    for name, (params, results) in sigs.items():
        m.import_func(WASI, name, params, results)


def _exit_unless_ok(code: int, expr):
    return if_(op("i32.ne", expr, i32(0)), [call("proc_exit", i32(code))])


def httpd_wasm() -> bytes:
    m = Module()
    _import_wasi(m)
    strs = _layout_strings()
    m.set_memory(HTTPD_PAGES, HTTPD_PAGES)
    for name, (at, _) in strs.items():
        m.add_data(at, STRINGS[name])

    def s_ptr(name):
        return i32(strs[name][0])

    def s_len(name):
        return i32(strs[name][1])

    # copy(dst, src, n): forward byte copy, safe for dst < src overlap
    m.func("copy", [("dst", "i32"), ("src", "i32"), ("n", "i32")], [], [("i", "i32")], [
        while_("c", op("i32.lt_u", get("i"), get("n")), [
            store8(op("i32.add", get("dst"), get("i")), load8(op("i32.add", get("src"), get("i")))),
            set_("i", op("i32.add", get("i"), i32(1))),
        ]),
    ])

    # utoa(v, out) -> digits written
    m.func("utoa", [("v", "i32"), ("out", "i32")], ["i32"], [("n", "i32"), ("t", "i32"), ("i", "i32")], [
        set_("n", i32(1)), set_("t", get("v")),
        while_("d", op("i32.ge_u", get("t"), i32(10)), [
            set_("t", op("i32.div_u", get("t"), i32(10))),
            set_("n", op("i32.add", get("n"), i32(1))),
        ]),
        set_("i", get("n")),
        ("loop", None, [
            set_("i", op("i32.sub", get("i"), i32(1))),
            store8(op("i32.add", get("out"), get("i")),
                   op("i32.add", i32(48), op("i32.rem_u", get("v"), i32(10)))),
            set_("v", op("i32.div_u", get("v"), i32(10))),
            get("v"), ("br_if", "w"),
        ], "w"),
        get("n"),
    ])

    # send_response(fd, prefix, prefix_len, body, body_len): header and body
    # in one gathered sock_send, then finish any partial write
    m.func("send_response",
           [("fd", "i32"), ("pre", "i32"), ("plen", "i32"), ("body", "i32"), ("blen", "i32")], [],
           [("n", "i32"), ("want", "i32"), ("sent", "i32"), ("more", "i32")], [
        call("copy", i32(HEAD), get("pre"), get("plen")),
        set_("n", op("i32.add", get("plen"),
                     call("utoa", get("blen"), op("i32.add", i32(HEAD), get("plen"))))),
        call("copy", op("i32.add", i32(HEAD), get("n")), s_ptr("tail"), s_len("tail")),
        set_("n", op("i32.add", get("n"), s_len("tail"))),
        store32(i32(IOV), i32(HEAD)), store32(i32(IOV), get("n"), 4),
        store32(i32(IOV), get("body"), 8), store32(i32(IOV), get("blen"), 12),
        set_("want", op("i32.add", get("n"), get("blen"))),
        if_(op("i32.ne", call("sock_send", get("fd"), i32(IOV),
                              [i32(2), i32(1), get("blen"), ("select",)], i32(0), i32(NSENT)),
               i32(0)), [("return",)]),
        set_("sent", load32(i32(NSENT))),
        while_("p", op("i32.lt_u", get("sent"), get("want")), [
            if_(op("i32.lt_u", get("sent"), get("n")), [
                store32(i32(RIOV), op("i32.add", i32(HEAD), get("sent"))),
                store32(i32(RIOV), op("i32.sub", get("n"), get("sent")), 4),
            ], [
                store32(i32(RIOV), op("i32.add", get("body"), op("i32.sub", get("sent"), get("n")))),
                store32(i32(RIOV), op("i32.sub", get("want"), get("sent")), 4),
            ]),
            if_(op("i32.ne", call("sock_send", get("fd"), i32(RIOV), i32(1), i32(0), i32(NSENT)),
                   i32(0)), [("return",)]),
            set_("more", load32(i32(NSENT))),
            if_(op("i32.eqz", get("more")), [("return",)]),
            set_("sent", op("i32.add", get("sent"), get("more"))),
        ]),
    ])

    # serve_path(fd, path, len): "/" -> "/index.html"; open relative to the
    # preopen at fd 3 with the leading slash stripped; 404 when absent
    m.func("serve_path", [("fd", "i32"), ("p", "i32"), ("len", "i32")], [],
           [("file", "i32"), ("total", "i32"), ("nr", "i32")], [
        if_(op("i32.and", op("i32.eq", get("len"), i32(1)),
               op("i32.eq", load8(get("p")), i32(ord("/")))), [
            set_("p", s_ptr("index")), set_("len", s_len("index")),
        ]),
        if_(op("i32.ne", call("path_open", i32(3), i32(0), op("i32.add", get("p"), i32(1)),
                              op("i32.sub", get("len"), i32(1)), i32(0), i64(0x1FFFFFFF), i64(0),
                              i32(0), i32(FDOUT)), i32(0)), [
            call("send_response", get("fd"), s_ptr("s404"), s_len("s404"),
                 s_ptr("notfound"), s_len("notfound")),
            ("return",),
        ]),
        set_("file", load32(i32(FDOUT))),
        ("block", None, [("loop", None, [
            store32(i32(RIOV), op("i32.add", i32(FILE_AT), get("total"))),
            store32(i32(RIOV), op("i32.sub", i32(FILE_BUF), get("total")), 4),
            op("i32.ne", call("fd_read", get("file"), i32(RIOV), i32(1), i32(NREAD)), i32(0)),
            ("br_if", "rd.end"),
            set_("nr", load32(i32(NREAD))),
            op("i32.eqz", get("nr")), ("br_if", "rd.end"),
            set_("total", op("i32.add", get("total"), get("nr"))),
            op("i32.eq", get("total"), i32(FILE_BUF)), ("br_if", "rd.end"),
            ("br", "rd"),
        ], "rd")], "rd.end"),
        call("fd_close", get("file")), ("drop",),
        call("send_response", get("fd"), s_ptr("s200"), s_len("s200"), i32(FILE_AT), get("total")),
    ])

    # handle_request(fd, buf, len) -> bytes consumed, 0 while incomplete
    m.func("handle_request", [("fd", "i32"), ("buf", "i32"), ("len", "i32")], ["i32"],
           [("end", "i32"), ("i", "i32"), ("p1", "i32")], [
        while_("s", op("i32.lt_u", op("i32.add", get("i"), i32(3)), get("len")), [
            if_(op("i32.eq", load32(op("i32.add", get("buf"), get("i"))), i32(0x0A0D0A0D)), [
                set_("end", op("i32.add", get("i"), i32(4))), ("br", "s.end"),
            ]),
            set_("i", op("i32.add", get("i"), i32(1))),
        ]),
        if_(op("i32.eqz", get("end")), [i32(0), ("return",)]),
        if_(op("i32.eq", load32(get("buf")), i32(0x20544547)), [  # "GET "
            set_("p1", i32(4)),
            while_("q", op("i32.and", op("i32.lt_u", get("p1"), get("len")),
                           op("i32.ne", load8(op("i32.add", get("buf"), get("p1"))), i32(32))), [
                set_("p1", op("i32.add", get("p1"), i32(1))),
            ]),
            call("serve_path", get("fd"), op("i32.add", get("buf"), i32(4)),
                 op("i32.sub", get("p1"), i32(4))),
        ], [
            call("send_response", get("fd"), s_ptr("s405"), s_len("s405"), i32(0), i32(0)),
        ]),
        get("end"),
    ])

    def conn_fd_at(i):
        return op("i32.add", i32(CONN_FD), op("i32.shl", i, i32(2)))

    def conn_len_at(i):
        return op("i32.add", i32(CONN_LEN), op("i32.shl", i, i32(2)))

    m.func("conn_close", [("i", "i32")], [], [], [
        call("fd_close", load32(conn_fd_at(get("i")))), ("drop",),
        store32(conn_fd_at(get("i")), i32(-1)),
        store32(conn_len_at(get("i")), i32(0)),
    ])

    def zero_sub(at):
        return [store32(at, i32(0), off) for off in range(0, 48, 4)]

    # the port comes from argv[1], like the C fixture's arg_u32(1, 8080)
    parse_port = [
        set_("port", i32(8080)),
        if_(op("i32.and",
               op("i32.eqz", call("args_sizes_get", i32(ARGC), i32(ARGBUF_SZ))),
               op("i32.and",
                  op("i32.and", op("i32.gt_u", load32(i32(ARGC)), i32(1)),
                     op("i32.le_u", load32(i32(ARGC)), i32(16))),
                  op("i32.le_u", load32(i32(ARGBUF_SZ)), i32(512)))), [
            if_(op("i32.eqz", call("args_get", i32(ARGV), i32(ARGBUF))), [
                set_("s", load32(i32(ARGV), 4)),
                set_("v", i32(0)), set_("any", i32(0)),
                while_("dg", op("i32.lt_u", op("i32.sub", load8(get("s")), i32(48)), i32(10)), [
                    set_("v", op("i32.add", op("i32.mul", get("v"), i32(10)),
                                 op("i32.sub", load8(get("s")), i32(48)))),
                    set_("any", i32(1)),
                    set_("s", op("i32.add", get("s"), i32(1))),
                ]),
                if_(get("any"), [set_("port", get("v"))]),
            ]),
        ]),
    ]

    accept = [
        if_(op("i32.eqz", call("sock_accept", get("lfd"), i32(0), i32(FDOUT))), [
            set_("cfd", load32(i32(FDOUT))),
            set_("slot", i32(-1)), set_("i", i32(0)),
            while_("fs", op("i32.lt_u", get("i"), i32(MAX_CONNS)), [
                if_(op("i32.eq", load32(conn_fd_at(get("i"))), i32(-1)), [
                    set_("slot", get("i")), ("br", "fs.end"),
                ]),
                set_("i", op("i32.add", get("i"), i32(1))),
            ]),
            if_(op("i32.eq", get("slot"), i32(-1)), [
                call("fd_close", get("cfd")), ("drop",),
            ], [
                store32(conn_fd_at(get("slot")), get("cfd")),
                store32(conn_len_at(get("slot")), i32(0)),
            ]),
        ]),
    ]

    buf_of = op("i32.add", i32(CONN_BUF), op("i32.mul", get("i"), i32(REQ_BUF)))
    readable = [
        set_("i", op("i32.wrap_i64", get("who"))),
        set_("cfd", load32(conn_fd_at(get("i")))),
        op("i32.eq", get("cfd"), i32(-1)), ("br_if", "ev"),
        set_("len", load32(conn_len_at(get("i")))),
        if_(op("i32.ge_u", get("len"), i32(REQ_BUF)), [  # oversized request
            call("conn_close", get("i")), ("br", "ev"),
        ]),
        store32(i32(RIOV), op("i32.add", buf_of, get("len"))),
        store32(i32(RIOV), op("i32.sub", i32(REQ_BUF), get("len")), 4),
        if_(op("i32.ne", call("sock_recv", get("cfd"), i32(RIOV), i32(1), i32(0), i32(NREAD), i32(0)),
               i32(0)), [call("conn_close", get("i")), ("br", "ev")]),
        set_("nr", load32(i32(NREAD))),
        if_(op("i32.eqz", get("nr")), [call("conn_close", get("i")), ("br", "ev")]),
        set_("len", op("i32.add", get("len"), get("nr"))),
        ("block", None, [("loop", None, [
            set_("used", call("handle_request", get("cfd"), buf_of, get("len"))),
            op("i32.eqz", get("used")), ("br_if", "hr.end"),
            call("copy", buf_of, op("i32.add", buf_of, get("used")),
                 op("i32.sub", get("len"), get("used"))),
            set_("len", op("i32.sub", get("len"), get("used"))),
            ("br", "hr"),
        ], "hr")], "hr.end"),
        store32(conn_len_at(get("i")), get("len")),
    ]

    main_loop = ("loop", None, [
        zero_sub(i32(SUBS)),
        [i32(SUBS), i64(MAX_CONNS), ("i64.store", 3, 0)],  # listener sentinel
        store8(i32(SUBS), i32(1), 8),
        store32(i32(SUBS), get("lfd"), 16),
        set_("nsubs", i32(1)), set_("i", i32(0)),
        while_("sb", op("i32.lt_u", get("i"), i32(MAX_CONNS)), [
            set_("cfd", load32(conn_fd_at(get("i")))),
            if_(op("i32.ne", get("cfd"), i32(-1)), [
                set_("sp", op("i32.add", i32(SUBS), op("i32.mul", get("nsubs"), i32(48)))),
                zero_sub(get("sp")),
                [get("sp"), op("i64.extend_i32_u", get("i")), ("i64.store", 3, 0)],
                store8(get("sp"), i32(1), 8),
                store32(get("sp"), get("cfd"), 16),
                set_("nsubs", op("i32.add", get("nsubs"), i32(1))),
            ]),
            set_("i", op("i32.add", get("i"), i32(1))),
        ]),
        _exit_unless_ok(5, call("poll_oneoff", i32(SUBS), i32(EVENTS), get("nsubs"), i32(NEV))),
        set_("nev", load32(i32(NEV))), set_("e", i32(0)),
        while_("evl", op("i32.lt_u", get("e"), get("nev")), [
            set_("ev", op("i32.add", i32(EVENTS), op("i32.shl", get("e"), i32(5)))),
            set_("e", op("i32.add", get("e"), i32(1))),
            ("block", None, [
                [get("ev"), ("i32.load16_u", 1, 8)], ("br_if", "ev"),
                set_("who", [get("ev"), ("i64.load", 3, 0)]),
                if_(op("i64.eq", get("who"), i64(MAX_CONNS)), [accept, ("br", "ev")]),
                readable,
            ], "ev"),
        ]),
        ("br", "main"),
    ], "main")

    m.func("_start", [], [], [
        ("port", "i32"), ("s", "i32"), ("v", "i32"), ("any", "i32"), ("lfd", "i32"),
        ("i", "i32"), ("cfd", "i32"), ("slot", "i32"), ("nsubs", "i32"), ("sp", "i32"),
        ("nev", "i32"), ("e", "i32"), ("ev", "i32"), ("len", "i32"), ("nr", "i32"),
        ("used", "i32"), ("who", "i64"),
    ], [
        parse_port,
        _exit_unless_ok(2, call("sock_open", i32(1), i32(2), i32(LFD))),
        set_("lfd", load32(i32(LFD))),
        store32(i32(ADDR), i32(ADDRB)), store32(i32(ADDR), i32(4), 4), store32(i32(ADDRB), i32(0)),
        _exit_unless_ok(3, call("sock_bind", get("lfd"), i32(ADDR), get("port"))),
        _exit_unless_ok(4, call("sock_listen", get("lfd"), i32(64))),
        while_("ic", op("i32.lt_u", get("i"), i32(MAX_CONNS)), [
            store32(conn_fd_at(get("i")), i32(-1)),
            set_("i", op("i32.add", get("i"), i32(1))),
        ]),
        store32(i32(IOV), s_ptr("listening")), store32(i32(IOV), s_len("listening"), 4),
        call("fd_write", i32(1), i32(IOV), i32(1), i32(NW)), ("drop",),
        main_loop,
    ], export="_start")
    return m.build()


# -------------------------------------------------------------- compute kernels

# Work per kernel is fixed (the seed only picks data and constants), so the
# run time does not depend on the seed. The C twin is compiled with the same
# sizes; see kernels_native.c.
KERNEL_SIZES = {
    "MEM_WORDS": 1 << 12,     # memloop buffer: 16 KiB at linear address 65536
    "MEM_PASSES": 8000,
    "FIB_N": 36,
    "IND_ITERS": 70_000_000,
    "GROW_PAGES": 49152,      # one Wasm page per memory.grow, one byte touched each
}
# the same kernels at sizes small enough for a quick cross-check in node,
# whose page-by-page memory.grow is far slower than seam's
CHECK_SIZES = {"MEM_WORDS": 1 << 12, "MEM_PASSES": 40, "FIB_N": 20,
               "IND_ITERS": 100_000, "GROW_PAGES": 256}
KERNELS = ("memloop", "fib", "indirect", "grow")
MEM_AT = 65536


def base_pages(sizes: dict) -> int:
    """Initial memory: page 0 for scratch, then the memloop buffer."""
    return 1 + (sizes["MEM_WORDS"] * 4 + 65535) // 65536


def twin_flags(sizes: dict) -> list[str]:
    """cc flags that give the C twin the same sizes as the guest."""
    return [f"-D{k}={v}u" for k, v in sizes.items()] + [f"-DBASE_PAGES={base_pages(sizes)}u"]


def kernel_params(seed: int) -> dict[str, int]:
    """Seed-derived data and constants; the C twin takes them as argv."""
    rng = random.Random(f"kernels/{seed}")
    return {
        "mem_seed": rng.getrandbits(32),
        "mem_k": rng.getrandbits(32) | 1,
        "fib_c": rng.randrange(1, 1000),
        "ind_k": [rng.getrandbits(32) | 1 for _ in range(8)],
        "ind_perm": rng.sample(range(8), 8),
        "ind_seed": rng.getrandbits(32),
        "grow_touch": rng.randrange(0, 65536),
        "nop": rng.getrandbits(31),
    }


def kernel_argv(name: str, p: dict) -> list[str]:
    """Arguments of the C twin for one kernel (the twin's main documents them)."""
    if name == "memloop":
        return [name, str(p["mem_seed"]), str(p["mem_k"])]
    if name == "fib":
        return [name, str(p["fib_c"])]
    if name == "indirect":
        return [name, str(p["ind_seed"]), *map(str, p["ind_perm"]), *map(str, p["ind_k"])]
    if name == "grow":
        return [name, str(p["grow_touch"])]
    raise ValueError(name)


def _indirect_op(k: int, kc: int):
    a, i = get("a"), get("i")
    return [
        op("i32.add", a, op("i32.xor", i, i32(kc))),
        op("i32.xor", a, op("i32.mul", i, i32(kc))),
        op("i32.add", op("i32.rotl", a, i32(5)), i32(kc)),
        op("i32.add", op("i32.mul", a, i32(kc)), i),
        op("i32.xor", op("i32.shr_u", a, i32(3)), op("i32.add", i, i32(kc))),
        op("i32.sub", a, op("i32.or", i, i32(kc))),
        op("i32.rotl", op("i32.xor", a, i32(kc)), i32(11)),
        op("i32.xor", op("i32.add", a, i32(kc)), op("i32.shl", i, i32(2))),
    ][k]


def kernels_wasm(p: dict, s: dict = KERNEL_SIZES) -> bytes:
    m = Module()
    base = base_pages(s)
    m.set_memory(base, base + s["GROW_PAGES"])
    words = s["MEM_WORDS"]

    def word(idx):
        return op("i32.add", i32(MEM_AT), op("i32.shl", idx, i32(2)))

    # each load's address depends on the value the previous iteration
    # computed, so the loop runs at load latency: a throughput-bound variant
    # varied 2x between runs with the other tenants of a shared core
    m.func("memloop", [], ["i32"], [("i", "i32"), ("x", "i32"), ("y", "i32"), ("pass", "i32")], [
        set_("x", i32(p["mem_seed"])),
        while_("fill", op("i32.lt_u", get("i"), i32(words)), [
            set_("x", op("i32.add", op("i32.mul", get("x"), i32(1664525)), i32(1013904223))),
            store32(word(get("i")), get("x")),
            set_("i", op("i32.add", get("i"), i32(1))),
        ]),
        set_("x", i32(0)),
        while_("pass", op("i32.lt_u", get("pass"), i32(s["MEM_PASSES"])), [
            set_("i", i32(0)),
            while_("w", op("i32.lt_u", get("i"), i32(words)), [
                set_("y", load32(word(op("i32.and", op("i32.xor", get("i"), get("x")), i32(words - 1))))),
                set_("x", op("i32.add", op("i32.add", op("i32.mul", get("y"), i32(p["mem_k"])),
                                                  op("i32.shr_u", get("x"), i32(13))), get("pass"))),
                store32(word(get("i")), get("x")),
                set_("i", op("i32.add", get("i"), i32(1))),
            ]),
            set_("pass", op("i32.add", get("pass"), i32(1))),
        ]),
        set_("x", i32(0)), set_("i", i32(0)),
        while_("sum", op("i32.lt_u", get("i"), i32(words)), [
            set_("x", op("i32.xor", op("i32.rotl", get("x"), i32(5)), load32(word(get("i"))))),
            set_("i", op("i32.add", get("i"), i32(1))),
        ]),
        get("x"),
    ], export="memloop")

    m.func("fib_rec", [("n", "i32")], ["i32"], [], [
        if_(op("i32.lt_u", get("n"), i32(2)), [op("i32.add", get("n"), i32(p["fib_c"])), ("return",)]),
        op("i32.add", call("fib_rec", op("i32.sub", get("n"), i32(1))),
           call("fib_rec", op("i32.sub", get("n"), i32(2)))),
    ])
    m.func("fib", [], ["i32"], [], [call("fib_rec", i32(s["FIB_N"]))], export="fib")

    for k in range(8):
        m.func(f"op{k}", [("a", "i32"), ("i", "i32")], ["i32"], [], [_indirect_op(k, p["ind_k"][k])])
    m.set_table([f"op{k}" for k in p["ind_perm"]])
    op_type = m.type_index(["i32", "i32"], ["i32"])
    m.func("indirect", [], ["i32"], [("i", "i32"), ("acc", "i32")], [
        set_("acc", i32(p["ind_seed"])),
        while_("ind", op("i32.lt_u", get("i"), i32(s["IND_ITERS"])), [
            set_("acc", [get("acc"), get("i"), op("i32.and", get("i"), i32(7)),
                         ("call_indirect", op_type)]),
            set_("i", op("i32.add", get("i"), i32(1))),
        ]),
        get("acc"),
    ], export="indirect")

    touch = p["grow_touch"]
    m.func("grow", [], ["i32"], [("n", "i32"), ("r", "i32"), ("acc", "i32")], [
        while_("g", op("i32.lt_u", get("n"), i32(s["GROW_PAGES"])), [
            set_("r", [i32(1), ("memory.grow",)]),
            if_(op("i32.eq", get("r"), i32(-1)), [i32(-1), ("return",)]),
            store8(op("i32.add", op("i32.shl", get("r"), i32(16)), i32(touch)), get("n")),
            set_("n", op("i32.add", get("n"), i32(1))),
        ]),
        set_("n", i32(0)),
        while_("c", op("i32.lt_u", get("n"), i32(s["GROW_PAGES"])), [
            set_("acc", op("i32.add", op("i32.mul", get("acc"), i32(31)),
                           load8(op("i32.add", op("i32.shl", op("i32.add", get("n"), i32(base)),
                                                  i32(16)), i32(touch))))),
            set_("n", op("i32.add", get("n"), i32(1))),
        ]),
        op("i32.add", get("acc"), ("memory.size",)),
    ], export="grow")

    m.func("nop", [], ["i32"], [], [i32(p["nop"])], export="nop")
    return m.build()


# ------------------------------------------------------------ build corpus

CORPUS_KB = (1, 2, 4, 8, 16)


# operators of one class compile to code of the same size
I32_CLASSES = [["i32.add", "i32.sub", "i32.xor", "i32.and", "i32.or"],
               ["i32.shl", "i32.shr_u", "i32.shr_s", "i32.rotl", "i32.rotr"],
               ["i32.eq", "i32.ne", "i32.lt_u", "i32.ge_s", "i32.gt_u"],
               ["i32.mul"]]
I64_CLASSES = [["i64.add", "i64.sub", "i64.xor", "i64.or"], ["i64.shl", "i64.shr_u", "i64.rotl"],
               ["i64.mul"]]


class _CodeGen:
    """Random structured integer code; every function is (i32, i32) -> i32.

    `shape` draws the structure (statement kinds, nesting, callees, which
    operator class), `vals` draws the seed's part: the operator within its
    class and the constants, always of the same encoded width. So the
    amount of code, and its compile time, does not depend on the seed.
    """

    def __init__(self, shape: random.Random, vals: random.Random, callees: list[str], ftype: int,
                 table_size: int):
        self.r = shape
        self.v = vals
        self.callees = callees
        self.ftype = ftype
        self.table_size = table_size
        self.locals32 = ["a", "b", "x", "y", "z"]
        self.locals64 = ["w", "v"]

    def c32(self):
        return i32(self.v.randrange(1 << 28, 1 << 31))

    def e32(self, depth: int):
        r = self.r
        if depth <= 0 or r.random() < 0.25:
            return get(r.choice(self.locals32)) if r.random() < 0.7 else self.c32()
        k = r.randrange(10)
        if k < 5:
            name = self.v.choice(r.choice(I32_CLASSES))
            return op(name, self.e32(depth - 1), self.e32(depth - 1))
        if k == 5:
            return load32(op("i32.and", self.e32(depth - 1), i32(0xFFFC)), r.randrange(0, 64, 4))
        if k == 6:
            return op("i32.wrap_i64", self.e64(depth - 1))
        if k == 7 and self.callees:
            return call(r.choice(self.callees), self.e32(depth - 1), self.e32(depth - 1))
        if k == 8 and self.table_size:
            return [self.e32(depth - 1), self.e32(depth - 1),
                    op("i32.rem_u", self.e32(depth - 1), i32(self.table_size)),
                    ("call_indirect", self.ftype)]
        return [self.e32(depth - 1), self.e32(depth - 1), self.e32(depth - 1), ("select",)]

    def e64(self, depth: int):
        r = self.r
        if depth <= 0 or r.random() < 0.3:
            return get(r.choice(self.locals64)) if r.random() < 0.6 else i64(self.v.randrange(1 << 56, 1 << 62))
        if r.random() < 0.3:
            return op("i64.extend_i32_u", self.e32(depth - 1))
        return op(self.v.choice(r.choice(I64_CLASSES)), self.e64(depth - 1), self.e64(depth - 1))

    def stmts(self, n: int, depth: int) -> list:
        r = self.r
        out = []
        for _ in range(n):
            k = r.randrange(8)
            if k < 3:
                out.append(set_(r.choice(self.locals32), self.e32(3)))
            elif k == 3:
                out.append(set_(r.choice(self.locals64), self.e64(3)))
            elif k == 4:
                out.append(store32(op("i32.and", self.e32(2), i32(0xFFFC)), self.e32(3)))
            elif k == 5 and depth > 0:
                out.append(if_(self.e32(2), self.stmts(r.randrange(1, 4), depth - 1),
                               self.stmts(r.randrange(0, 3), depth - 1)))
            elif k == 6 and depth > 0:
                c = f"c{depth}"
                out.append([set_(c, i32(r.randrange(2, 9))),
                            ("loop", None, [self.stmts(r.randrange(1, 4), depth - 1),
                                            set_(c, op("i32.sub", get(c), i32(1))),
                                            get(c), ("br_if", 0)])])
            else:
                out.append(set_("x", op("i32.add", get("x"), self.e32(2))))
        return out

    def body(self) -> list:
        return [self.stmts(self.r.randrange(6, 14), 3),
                op("i32.xor", get("x"), op("i32.wrap_i64", get("w")))]


def corpus_module(seed: int, index: int, kb: int) -> bytes:
    """One generated module of at least `kb` KiB of Wasm."""
    shape = random.Random(f"corpus-shape/{index}")
    vals = random.Random(f"corpus/{seed}/{index}")
    m = Module()
    m.set_memory(1, 1)
    ftype = m.type_index(["i32", "i32"], ["i32"])
    table = [f"f{i}" for i in range(4)]
    m.set_table(table)
    names: list[str] = []
    while True:
        i = len(names)
        g = _CodeGen(shape, vals, list(names), ftype, len(table))
        m.func(f"f{i}", [("a", "i32"), ("b", "i32")], ["i32"],
               [("x", "i32"), ("y", "i32"), ("z", "i32"), ("w", "i64"), ("v", "i64"),
                ("c1", "i32"), ("c2", "i32"), ("c3", "i32")],
               g.body(), export=f"f{i}" if i % 4 == 0 else None)
        names.append(f"f{i}")
        if len(names) >= len(table):
            wasm = m.build()
            if len(wasm) >= kb * 1024:
                return wasm


def corpus(seed: int) -> dict[str, bytes]:
    """Generated modules (small up to one large), keyed by file name."""
    return {f"gen{i}_{kb}k.wasm": corpus_module(seed, i, kb) for i, kb in enumerate(CORPUS_KB)}


# -------------------------------------------------------------------- site

SITES = {
    # files, size range in bytes, share of 404 requests, share of "/" requests
    "small": (200, (256, 4096), 0.05, 0.05),
    "large": (6, (64 * 1024, 192 * 1024), 0.0, 0.05),
}
REQUEST_SEQ = 4096


def site(seed: int, shape: str) -> tuple[dict[str, bytes], list[str]]:
    """Files (relative path -> bytes) and the request path sequence.

    Sizes are stratified over the range and every file is requested equally
    often, so bytes per request barely depend on the seed; the seed picks
    names, contents, which size goes to which file, and the request order.
    """
    n_files, (lo, hi), p404, pindex = SITES[shape]
    rng = random.Random(f"site/{shape}/{seed}")
    sizes = [lo + int((hi - lo) * (i + 0.4 + 0.2 * rng.random()) / n_files) for i in range(n_files)]
    index_size = sizes.pop(n_files // 2)  # "/" is requested often: keep it mid-range
    rng.shuffle(sizes)
    sizes.insert(0, index_size)
    files: dict[str, bytes] = {"index.html": rng.randbytes(index_size)}
    dirs = ["", "css/", "js/", "img/", "docs/v1/"]
    while len(files) < n_files:
        name = f"{rng.choice(dirs)}f{rng.getrandbits(32):08x}.{rng.choice(['html', 'css', 'js', 'bin'])}"
        if name not in files:
            files[name] = rng.randbytes(sizes[len(files)])
    paths = sorted(files)
    n404, nindex = round(p404 * REQUEST_SEQ), round(pindex * REQUEST_SEQ)
    seq = [f"/missing/{rng.getrandbits(24):06x}.html" for _ in range(n404)] + ["/"] * nindex
    seq += ["/" + paths[i % n_files] for i in range(REQUEST_SEQ - len(seq))]
    rng.shuffle(seq)
    return files, seq
