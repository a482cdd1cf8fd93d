"""Lower a validated module to a single C translation unit.

The emitted C depends only on stdint.h and the three runtime hooks
(memory_base / memory_grow / runtime_trap); compiled with the flag set in
compile.py it produces an object whose undefined symbols are exactly the
module's WASI imports plus those hooks.

Lowering model: every value pushed on the Wasm operand stack becomes a
fresh single-assignment C temporary, so Wasm evaluation order is the
statement order and the optimizer sees plain scalar code. Blocks become
labels, branches become gotos that first store the block result.

Safety model: the generated C carries no bounds check and no global depth
counter.
- Memory. A Wasm effective address is a u32 base plus a u32 offset, so
  every access lies in [0, 2^33 + 6). The runtime reserves 2^33 + 64 KiB
  PROT_NONE behind the memory base and commits pages only as the module's
  memory grows, so an out-of-bounds access faults inside that reservation
  and the runtime's SIGSEGV handler turns the fault into trap 1. Each load
  is followed by an empty asm that consumes its value (SR_KEEP_I/F), so a
  load whose result is dropped still executes and still faults.
- Call depth. Every internal function takes a uint32_t budget `sr_d` as
  its first argument, traps 7 when it is 0, and passes sr_d - 1 to its
  callees, direct or indirect. Entry points (export aliases, the start
  function, the wasm_exports table) pass CALL_DEPTH_LIMIT, so the depth
  at which a module traps does not depend on frame sizes. Imports take no
  budget; a table slot that holds one goes through a thunk that drops it.
  A guard region under the guest stack (runtime main.c) turns an overflow
  by very large frames into trap 7 too.

Instantiation happens at build time. The tables (one per signature that a
call_indirect names), the data segments and the globals are link-time
constants; wasm_init keeps only the element-fit trap, one bounds-checked
copy loop over the data segments and the start call.
"""

from __future__ import annotations

from ..errors import AbiViolation, CodegenError, UnsupportedImportModule
from ..wasm import opcodes as op
from ..wasm.model import FuncType, Module, ValidatedModule
from .symbols import ABI, RESERVED_DEFINED, RUNTIME_HOOKS, WASI_MODULE

CTYPE = {"i32": "uint32_t", "i64": "uint64_t", "f32": "float", "f64": "double"}
SIGCHAR = {"i32": "i", "i64": "I", "f32": "f", "f64": "F"}
ZERO = {"i32": "0u", "i64": "0ull", "f32": "0.0f", "f64": "0.0"}
# a float global is stored as its bit pattern, so its static initializer is
# an integer constant and keeps every bit, NaN payloads included
GLOBAL_CTYPE = {"i32": "uint32_t", "i64": "uint64_t", "f32": "uint32_t", "f64": "uint64_t"}
_GLOBAL_GET = {"i32": "{}", "i64": "{}", "f32": "sr_f32_frombits({})", "f64": "sr_f64_frombits({})"}
_GLOBAL_SET = {"i32": "{}", "i64": "{}", "f32": "sr_f32_tobits({})", "f64": "sr_f64_tobits({})"}


def c_params(sig: FuncType, arg: str | None = "a", budget: bool = False) -> str:
    """The C parameter list of a Wasm signature: parameter j is named
    {arg}{j}, or unnamed when arg is None; budget puts the call-depth
    budget (uint32_t sr_d) first; no parameters is (void)."""
    params = [CTYPE[t] + (f" {arg}{j}" if arg else "") for j, t in enumerate(sig.params)]
    if budget:
        params.insert(0, "uint32_t sr_d" if arg else "uint32_t")
    return f"({', '.join(params) or 'void'})"


def c_decl(sig: FuncType, name: str, arg: str | None = "a", budget: bool = False) -> str:
    """`rett name(params)` for a Wasm signature, the parameters as c_params gives them."""
    return f"{CTYPE[sig.results[0]] if sig.results else 'void'} {name}{c_params(sig, arg, budget)}"


TRAP_OOB = 1
TRAP_UNREACHABLE = 4
TRAP_CALL_TYPE = 5
TRAP_TABLE_OOB = 6
TRAP_STACK = 7

CALL_DEPTH_LIMIT = 50000

PRELUDE = r"""
#include <stdint.h>

extern uint8_t *memory_base(void);
extern uint32_t memory_grow(uint32_t delta_pages);
extern void runtime_trap(uint32_t code) __attribute__((noreturn));

/* the guest's .text starts on a 4 KiB boundary, so where its code lands
   modulo a page or fetch window does not depend on the runtime and libc
   code the linker places ahead of it; at offset 0 the directive adds no
   bytes, only the section's alignment */
__asm__(".pushsection .text\n\t.p2align 12\n\t.popsection");

__attribute__((used)) static void *const sr_keep[] = {
    (void *)&memory_base, (void *)&memory_grow, (void *)&runtime_trap,
};

struct sr_export { const char *name; const char *sig; void (*fn)(void); };

typedef struct { uint16_t v; } __attribute__((packed)) sr_u16u;
typedef struct { uint32_t v; } __attribute__((packed)) sr_u32u;
typedef struct { uint64_t v; } __attribute__((packed)) sr_u64u;

/* a load whose result is dead must still run (and fault out of bounds):
   an asm that consumes the value keeps it, as wasm2c's FORCE_READ does */
#define SR_KEEP_I(v) __asm__("" :: "r"(v))
#if defined(__x86_64__)
#define SR_KEEP_F(v) __asm__("" :: "x"(v))
#elif defined(__aarch64__)
#define SR_KEEP_F(v) __asm__("" :: "w"(v))
#else
#define SR_KEEP_F(v) __asm__("" :: "m"(v))
#endif

static inline float sr_f32_frombits(uint32_t b) { union { uint32_t i; float f; } u; u.i = b; return u.f; }
static inline uint32_t sr_f32_tobits(float f) { union { uint32_t i; float f; } u; u.f = f; return u.i; }
static inline double sr_f64_frombits(uint64_t b) { union { uint64_t i; double f; } u; u.i = b; return u.f; }
static inline uint64_t sr_f64_tobits(double f) { union { uint64_t i; double f; } u; u.f = f; return u.i; }

static inline uint32_t sr_i32_div_s(uint32_t a, uint32_t b) {
    if ((int32_t)b == 0) runtime_trap(2);
    if ((int32_t)a == INT32_MIN && (int32_t)b == -1) runtime_trap(3);
    return (uint32_t)((int32_t)a / (int32_t)b);
}
static inline uint32_t sr_i32_div_u(uint32_t a, uint32_t b) {
    if (b == 0u) runtime_trap(2);
    return a / b;
}
static inline uint32_t sr_i32_rem_s(uint32_t a, uint32_t b) {
    if ((int32_t)b == 0) runtime_trap(2);
    if ((int32_t)b == -1) return 0u;
    return (uint32_t)((int32_t)a % (int32_t)b);
}
static inline uint32_t sr_i32_rem_u(uint32_t a, uint32_t b) {
    if (b == 0u) runtime_trap(2);
    return a % b;
}
static inline uint64_t sr_i64_div_s(uint64_t a, uint64_t b) {
    if ((int64_t)b == 0) runtime_trap(2);
    if ((int64_t)a == INT64_MIN && (int64_t)b == -1) runtime_trap(3);
    return (uint64_t)((int64_t)a / (int64_t)b);
}
static inline uint64_t sr_i64_div_u(uint64_t a, uint64_t b) {
    if (b == 0ull) runtime_trap(2);
    return a / b;
}
static inline uint64_t sr_i64_rem_s(uint64_t a, uint64_t b) {
    if ((int64_t)b == 0) runtime_trap(2);
    if ((int64_t)b == -1) return 0ull;
    return (uint64_t)((int64_t)a % (int64_t)b);
}
static inline uint64_t sr_i64_rem_u(uint64_t a, uint64_t b) {
    if (b == 0ull) runtime_trap(2);
    return a % b;
}

/* float rounding must never become a libm call (the object links against
 * nothing); use the rounding instructions directly where we know them */
#if defined(__x86_64__)
#define SR_ROUND64(name, imm) \
    static inline double name(double x) { double r; __asm__("roundsd $" #imm ", %1, %0" : "=x"(r) : "x"(x)); return r; }
#define SR_ROUND32(name, imm) \
    static inline float name(float x) { float r; __asm__("roundss $" #imm ", %1, %0" : "=x"(r) : "x"(x)); return r; }
SR_ROUND64(sr_f64_nearest_, 8)  /* 8 = imm: use bits[1:0]=00 nearest-even, suppress exceptions */
SR_ROUND64(sr_f64_floor_, 9)
SR_ROUND64(sr_f64_ceil_, 10)
SR_ROUND64(sr_f64_trunc_, 11)
SR_ROUND32(sr_f32_nearest_, 8)
SR_ROUND32(sr_f32_floor_, 9)
SR_ROUND32(sr_f32_ceil_, 10)
SR_ROUND32(sr_f32_trunc_, 11)
#elif defined(__aarch64__)
#define SR_ROUND64(name, insn) \
    static inline double name(double x) { double r; __asm__(insn " %d0, %d1" : "=w"(r) : "w"(x)); return r; }
#define SR_ROUND32(name, insn) \
    static inline float name(float x) { float r; __asm__(insn " %s0, %s1" : "=w"(r) : "w"(x)); return r; }
SR_ROUND64(sr_f64_nearest_, "frintn")
SR_ROUND64(sr_f64_floor_, "frintm")
SR_ROUND64(sr_f64_ceil_, "frintp")
SR_ROUND64(sr_f64_trunc_, "frintz")
SR_ROUND32(sr_f32_nearest_, "frintn")
SR_ROUND32(sr_f32_floor_, "frintm")
SR_ROUND32(sr_f32_ceil_, "frintp")
SR_ROUND32(sr_f32_trunc_, "frintz")
#else
static inline double sr_f64_trunc_(double x) {
    if (!(x == x) || x >= 4503599627370496.0 || x <= -4503599627370496.0) return x;
    double t = (double)(int64_t)x;
    return t == 0.0 ? __builtin_copysign(t, x) : t;
}
static inline double sr_f64_floor_(double x) {
    double t = sr_f64_trunc_(x);
    return (x < 0.0 && t != x) ? t - 1.0 : t;
}
static inline double sr_f64_ceil_(double x) {
    double t = sr_f64_trunc_(x);
    return (x > 0.0 && t != x) ? t + 1.0 : t;
}
static inline double sr_f64_nearest_(double x) {
    if (!(x == x) || x >= 4503599627370496.0 || x <= -4503599627370496.0) return x;
    double f = sr_f64_floor_(x), c = sr_f64_ceil_(x);
    double df = x - f, dc = c - x;
    double r = df < dc ? f : (dc < df ? c : (sr_f64_trunc_(f / 2.0) * 2.0 == f ? f : c));
    return r == 0.0 ? __builtin_copysign(r, x) : r;
}
static inline float sr_f32_trunc_(float x) {
    if (!(x == x) || x >= 8388608.0f || x <= -8388608.0f) return x;
    float t = (float)(int32_t)x;
    return t == 0.0f ? __builtin_copysignf(t, x) : t;
}
static inline float sr_f32_floor_(float x) {
    float t = sr_f32_trunc_(x);
    return (x < 0.0f && t != x) ? t - 1.0f : t;
}
static inline float sr_f32_ceil_(float x) {
    float t = sr_f32_trunc_(x);
    return (x > 0.0f && t != x) ? t + 1.0f : t;
}
static inline float sr_f32_nearest_(float x) {
    if (!(x == x) || x >= 8388608.0f || x <= -8388608.0f) return x;
    float f = sr_f32_floor_(x), c = sr_f32_ceil_(x);
    float df = x - f, dc = c - x;
    float r = df < dc ? f : (dc < df ? c : (sr_f32_trunc_(f / 2.0f) * 2.0f == f ? f : c));
    return r == 0.0f ? __builtin_copysignf(r, x) : r;
}
#endif

static inline uint32_t sr_i32_clz(uint32_t v) { return v ? (uint32_t)__builtin_clz(v) : 32u; }
static inline uint32_t sr_i32_ctz(uint32_t v) { return v ? (uint32_t)__builtin_ctz(v) : 32u; }
static inline uint64_t sr_i64_clz(uint64_t v) { return v ? (uint64_t)__builtin_clzll(v) : 64ull; }
static inline uint64_t sr_i64_ctz(uint64_t v) { return v ? (uint64_t)__builtin_ctzll(v) : 64ull; }
static inline uint32_t sr_i32_popcnt(uint32_t v) {
    v = v - ((v >> 1) & 0x55555555u);
    v = (v & 0x33333333u) + ((v >> 2) & 0x33333333u);
    return (((v + (v >> 4)) & 0x0f0f0f0fu) * 0x01010101u) >> 24;
}
static inline uint64_t sr_i64_popcnt(uint64_t v) {
    return (uint64_t)sr_i32_popcnt((uint32_t)v) + (uint64_t)sr_i32_popcnt((uint32_t)(v >> 32));
}
static inline uint32_t sr_i32_rotl(uint32_t a, uint32_t n) { n &= 31u; return n ? ((a << n) | (a >> (32u - n))) : a; }
static inline uint32_t sr_i32_rotr(uint32_t a, uint32_t n) { n &= 31u; return n ? ((a >> n) | (a << (32u - n))) : a; }
static inline uint64_t sr_i64_rotl(uint64_t a, uint64_t n) { n &= 63u; return n ? ((a << n) | (a >> (64u - n))) : a; }
static inline uint64_t sr_i64_rotr(uint64_t a, uint64_t n) { n &= 63u; return n ? ((a >> n) | (a << (64u - n))) : a; }

/* min/max follow Wasm: NaN if either side is NaN, and -0 orders below +0
   (bitwise or/and merges the sign bits of equal magnitudes) */
static inline float sr_f32_min(float a, float b) {
    if (a != a || b != b) return sr_f32_frombits(0x7fc00000u);
    if (a == b) return sr_f32_frombits(sr_f32_tobits(a) | sr_f32_tobits(b));
    return a < b ? a : b;
}
static inline float sr_f32_max(float a, float b) {
    if (a != a || b != b) return sr_f32_frombits(0x7fc00000u);
    if (a == b) return sr_f32_frombits(sr_f32_tobits(a) & sr_f32_tobits(b));
    return a > b ? a : b;
}
static inline double sr_f64_min(double a, double b) {
    if (a != a || b != b) return sr_f64_frombits(0x7ff8000000000000ull);
    if (a == b) return sr_f64_frombits(sr_f64_tobits(a) | sr_f64_tobits(b));
    return a < b ? a : b;
}
static inline double sr_f64_max(double a, double b) {
    if (a != a || b != b) return sr_f64_frombits(0x7ff8000000000000ull);
    if (a == b) return sr_f64_frombits(sr_f64_tobits(a) & sr_f64_tobits(b));
    return a > b ? a : b;
}

/* trapping float->int: promote to double (exact for f32), truncate, then
   range-check against the exact type bounds */
static inline uint32_t sr_i32_trunc_s(double d) {
    if (d != d) runtime_trap(3);
    d = sr_f64_trunc_(d);
    if (d < -2147483648.0 || d > 2147483647.0) runtime_trap(3);
    return (uint32_t)(int32_t)d;
}
static inline uint32_t sr_i32_trunc_u(double d) {
    if (d != d) runtime_trap(3);
    d = sr_f64_trunc_(d);
    if (d < 0.0 || d > 4294967295.0) runtime_trap(3);
    return (uint32_t)d;
}
static inline uint64_t sr_i64_trunc_s(double d) {
    if (d != d) runtime_trap(3);
    d = sr_f64_trunc_(d);
    if (d < -9223372036854775808.0 || d >= 9223372036854775808.0) runtime_trap(3);
    return (uint64_t)(int64_t)d;
}
static inline uint64_t sr_i64_trunc_u(double d) {
    if (d != d) runtime_trap(3);
    d = sr_f64_trunc_(d);
    if (d < 0.0 || d >= 18446744073709551616.0) runtime_trap(3);
    return (uint64_t)d;
}
static inline uint32_t sr_i32_trunc_sat_s(double d) {
    if (d != d) return 0u;
    d = sr_f64_trunc_(d);
    if (d < -2147483648.0) return 0x80000000u;
    if (d > 2147483647.0) return 0x7fffffffu;
    return (uint32_t)(int32_t)d;
}
static inline uint32_t sr_i32_trunc_sat_u(double d) {
    if (d != d) return 0u;
    d = sr_f64_trunc_(d);
    if (d < 0.0) return 0u;
    if (d > 4294967295.0) return 0xffffffffu;
    return (uint32_t)d;
}
static inline uint64_t sr_i64_trunc_sat_s(double d) {
    if (d != d) return 0ull;
    d = sr_f64_trunc_(d);
    if (d < -9223372036854775808.0) return 0x8000000000000000ull;
    if (d >= 9223372036854775808.0) return 0x7fffffffffffffffull;
    return (uint64_t)(int64_t)d;
}
static inline uint64_t sr_i64_trunc_sat_u(double d) {
    if (d != d) return 0ull;
    d = sr_f64_trunc_(d);
    if (d < 0.0) return 0ull;
    if (d >= 18446744073709551616.0) return 0xffffffffffffffffull;
    return (uint64_t)d;
}
"""


# each byte as it stands in a C string: printable ASCII as itself, any
# other byte as a three-digit octal escape, which cannot run into the next
# character; '?' is escaped too, so no trigraph can form
_C_BYTE = [chr(b) if 32 <= b < 127 and chr(b) not in '"\\?' else f"\\{b:03o}" for b in range(256)]


def _c_string(s: str) -> str:
    """A C string literal of the UTF-8 bytes of s, on one line."""
    return '"' + "".join([_C_BYTE[b] for b in s.encode("utf-8")]) + '"'


def _c_bytes(data: bytes) -> str:
    """A C string literal of exactly these bytes, 64 to a line."""
    if not data:
        return '""'
    esc = _C_BYTE
    return "\n".join('"' + "".join([esc[b] for b in data[k:k + 64]]) + '"'
                     for k in range(0, len(data), 64))


def _const_bits(instr: tuple) -> str:
    """The value of a constant expression as an unsigned C constant; a
    float constant as its bit pattern."""
    name, val = instr[0], instr[1]
    if name in ("i32.const", "f32.const"):
        return f"{val & 0xFFFFFFFF:#x}u"
    return f"{val & 0xFFFFFFFFFFFFFFFF:#x}ull"


def _sig_string(ft: FuncType) -> str:
    return "".join(SIGCHAR[p] for p in ft.params) + ":" + "".join(SIGCHAR[r] for r in ft.results)


class _Block:
    __slots__ = ("bid", "kind", "rt", "height")

    def __init__(self, bid: int, kind: str, rt: str | None, height: int):
        self.bid = bid
        self.kind = kind  # "func" | "block" | "loop" | "if"
        self.rt = rt
        self.height = height  # operand stack height at entry


class _FuncEmitter:
    def __init__(self, gen: "CGen", func_index: int):
        self.gen = gen
        self.m = gen.m
        self.func_index = func_index
        self.ftype = self.m.func_type(func_index)
        self.fb = self.m.functions[func_index - self.m.num_imported_funcs]
        self.local_types = list(self.ftype.params) + list(self.fb.locals)
        self.lines: list[str] = []
        self.ntmp = 0
        self.nblock = 0
        self.stack: list[tuple[str, str]] = []
        self.blocks: list[_Block] = [_Block(-1, "func", self.ftype.results[0] if self.ftype.results else None, 0)]
        self.dead = False
        self.uses_mem = any(op.OPS[ins[0]].width for ins in self.fb.body)

    # -- emission helpers --------------------------------------------------

    def line(self, s: str):
        self.lines.append("    " + s)

    def tmp(self, vt: str, expr: str) -> str:
        v = f"t{self.ntmp}"
        self.ntmp += 1
        self.line(f"{CTYPE[vt]} {v} = {expr};")
        return v

    def push(self, var: str, vt: str):
        self.stack.append((var, vt))

    def pop(self) -> tuple[str, str]:
        return self.stack.pop()

    def push_expr(self, vt: str, expr: str):
        self.push(self.tmp(vt, expr), vt)

    def emit_return(self):
        if self.ftype.results:
            v, _ = self.pop()
            self.line(f"return {v};")
        else:
            self.line("return;")

    def branch_stmts(self, depth: int) -> str:
        """C statements realizing a branch to the given label depth (peeks
        the stack; used by br, br_if taken-arm, and br_table cases)."""
        target = self.blocks[-1 - depth]
        if target.kind == "func":
            if target.rt:
                v, _ = self.stack[-1]
                return f"return {v};"
            return "return;"
        if target.kind == "loop":
            return f"goto L{target.bid}_c;"
        if target.rt:
            v, _ = self.stack[-1]
            return f"b{target.bid} = {v}; goto L{target.bid}_e;"
        return f"goto L{target.bid}_e;"

    # -- structured control -------------------------------------------------

    def enter_block(self, kind: str, rt: str | None):
        cv = self.pop()[0] if kind == "if" else None
        blk = _Block(self.nblock, kind, rt, len(self.stack))
        self.nblock += 1
        if rt:
            self.line(f"{CTYPE[rt]} b{blk.bid} = {ZERO[rt]};")
        if kind == "loop":
            self.line(f"L{blk.bid}_c:;")
        elif kind == "if":
            self.line(f"if ({cv}) {{")
        self.blocks.append(blk)

    def close_body(self, blk: _Block):
        """Store the fallthrough result and reset the virtual stack."""
        if not self.dead and blk.rt:
            v, _ = self.pop()
            self.line(f"b{blk.bid} = {v};")
        del self.stack[blk.height:]
        self.dead = False

    def exit_block(self):
        blk = self.blocks.pop()
        self.close_body(blk)
        if blk.kind == "if":
            self.line("}")
        if blk.kind != "loop":
            self.line(f"L{blk.bid}_e:;")
        if blk.rt:
            self.push(f"b{blk.bid}", blk.rt)

    def emit(self, ins: tuple):
        name = ins[0]
        gen = self.gen

        if name == "br":
            self.line(self.branch_stmts(ins[1]))
            self.dead = True
            return
        if name == "br_if":
            cv, _ = self.pop()
            self.line(f"if ({cv}) {{ {self.branch_stmts(ins[1])} }}")
            return
        if name == "br_table":
            iv, _ = self.pop()
            targets, default = ins[1], ins[2]
            self.line(f"switch ({iv}) {{")
            for i, t in enumerate(targets):
                self.line(f"    case {i}u: {self.branch_stmts(t)}")
            self.line(f"    default: {self.branch_stmts(default)}")
            self.line("}")
            self.dead = True
            return
        if name == "return":
            self.emit_return()
            self.dead = True
            return
        if name == "unreachable":
            self.line(f"runtime_trap({TRAP_UNREACHABLE}u);")
            self.dead = True
            return
        if name == "nop":
            return

        if name == "call":
            callee = ins[1]
            sig = self.m.func_type(callee)
            args = [self.pop()[0] for _ in sig.params][::-1]
            callexpr = gen.call_expr(callee, "sr_d - 1u", args)
            if sig.results:
                self.push_expr(sig.results[0], callexpr)
            else:
                self.line(callexpr + ";")
            return
        if name == "call_indirect":
            # the slot's type is checked at build time: the call goes through
            # the table of this signature, whose slots that hold a function of
            # any other type (or none) point at a stub that traps 5; the
            # table ends at its last function, and an index past that end
            # traps 6 past the Wasm table and 5 within it
            sig = self.m.types[ins[1]]
            tid = gen.vm.type_ids[sig]
            gen.indirect_tids.add(tid)
            iv, _ = self.pop()
            args = [self.pop()[0] for _ in sig.params][::-1]
            end = gen.table_ends.get(tid, 0)
            if end == gen.table_size:
                self.line(f"if ({iv} >= {end}u) runtime_trap({TRAP_TABLE_OOB}u);")
            else:
                self.line(f"if ({iv} >= {end}u) runtime_trap({iv} >= {gen.table_size}u ? "
                          f"{TRAP_TABLE_OOB}u : {TRAP_CALL_TYPE}u);")
            callexpr = f"sr_tab{tid}[{iv}]({', '.join(['sr_d - 1u', *args])})"
            if sig.results:
                self.push_expr(sig.results[0], callexpr)
            else:
                self.line(callexpr + ";")
            return

        if name == "drop":
            self.pop()
            return
        if name == "select":
            cv, _ = self.pop()
            v2, t2 = self.pop()
            v1, t1 = self.pop()
            self.push_expr(t1 if t1 else t2, f"{cv} ? {v1} : {v2}")
            return
        if name == "local.get":
            vt = self.local_types[ins[1]]
            self.push_expr(vt, f"l{ins[1]}")
            return
        if name == "local.set":
            v, _ = self.pop()
            self.line(f"l{ins[1]} = {v};")
            return
        if name == "local.tee":
            v, vt = self.stack[-1]
            self.line(f"l{ins[1]} = {v};")
            return
        if name == "global.get":
            vt = self.m.globals[ins[1]].valtype
            self.push_expr(vt, _GLOBAL_GET[vt].format(f"g{ins[1]}"))
            return
        if name == "global.set":
            v, _ = self.pop()
            vt = self.m.globals[ins[1]].valtype
            self.line(f"g{ins[1]} = {_GLOBAL_SET[vt].format(v)};")
            return

        if name == "i32.const":
            self.push_expr("i32", f"{ins[1] & 0xFFFFFFFF}u")
            return
        if name == "i64.const":
            self.push_expr("i64", f"{ins[1] & 0xFFFFFFFFFFFFFFFF}ull")
            return
        if name == "f32.const":
            self.push_expr("f32", f"sr_f32_frombits({ins[1]:#x}u)")
            return
        if name == "f64.const":
            self.push_expr("f64", f"sr_f64_frombits({ins[1]:#x}ull)")
            return

        # every other operator is its table row's C template
        row = op.OPS[name]
        args = [self.pop()[0] for _ in row.params][::-1]
        if row.width:
            ea = f"a{self.ntmp}"
            self.ntmp += 1
            self.line(f"uint64_t {ea} = (uint64_t){args[0]} + {ins[2]}ull;")
            text = row.c.format(p=f"(mb + {ea})", v=args[-1])
        else:
            text = row.c.format(*args)
        if not row.results:  # a store
            self.line(text + ";")
            return
        self.push_expr(row.results[0], text)
        if row.width:
            self.line(f"SR_KEEP_{'F' if row.results[0][0] == 'f' else 'I'}({self.stack[-1][0]});")

    # -- whole function -----------------------------------------------------

    def emit_func(self) -> str:
        # each call_indirect target starts its own 32-byte fetch window:
        # small table functions packed at 16-byte offsets ran an indirect-call
        # loop ~10% slower on x86_64
        align = "__attribute__((aligned(32))) " if self.func_index in self.gen.table_funcs else ""
        head = f"{align}static {c_decl(self.ftype, f'wf{self.func_index}', 'l', budget=True)} {{"
        self.line(f"if (sr_d == 0u) runtime_trap({TRAP_STACK}u);")
        if self.uses_mem:
            self.line("uint8_t *const mb = memory_base();")
        nparams = len(self.ftype.params)
        for i, t in enumerate(self.fb.locals):
            self.line(f"{CTYPE[t]} l{nparams + i} = {ZERO[t]};")
        body = self.fb.body
        skip = 0  # blocks opened inside dead code that is being skipped
        for i, ins in enumerate(body[:-1]):
            name = ins[0]
            if self.dead and (skip or name not in ("else", "end")):
                # code after a branch is never reached: skip it up to the
                # else or end of the block it is in
                if name in ("block", "loop", "if"):
                    skip += 1
                elif name == "end":
                    skip -= 1
                continue
            if name in ("block", "loop", "if"):
                self.enter_block(name, ins[1])
            elif name == "end":
                self.exit_block()
            elif name == "else":
                blk = self.blocks[-1]
                self.close_body(blk)
                # an empty else without a result prints nothing
                if blk.rt or body[i + 1][0] != "end":
                    self.line("} else {")
            else:
                self.emit(ins)
        # the function's own end: fall through to a return
        if not self.dead:
            self.emit_return()
        return head + "\n" + "\n".join(self.lines) + "\n}"


class CGen:
    """Whole-module C emission."""

    def __init__(self, vm: ValidatedModule):
        self.vm = vm
        self.m: Module = vm.module
        self.table_size = self.m.table.initial if self.m.table else 0
        self._check_imports()
        self.slots, self.elems_fit = self._apply_elements()
        self.table_funcs = {fi for fi in self.slots if fi is not None}
        # per signature, one past the last slot that holds a function of it
        self.table_ends = {vm.type_ids[self.m.func_type(fi)]: k + 1
                           for k, fi in enumerate(self.slots) if fi is not None}
        self.indirect_tids: set[int] = set()  # filled while functions are emitted

    def _apply_elements(self) -> tuple[list[int | None], bool]:
        """The table after instantiation: element segments applied in order,
        a later one overwriting an earlier one. False when a segment does
        not fit; instantiation then traps 6 before any table is used."""
        slots: list[int | None] = [None] * self.table_size
        for seg in self.m.elements:
            off = seg.offset[1] & 0xFFFFFFFF
            if off + len(seg.func_indices) > self.table_size:
                return slots, False
            slots[off:off + len(seg.func_indices)] = seg.func_indices
        return slots, True

    def _check_imports(self):
        """Only ABI functions, each with its ABI type, may stay unresolved."""
        for imp in self.m.imports:
            if imp.module != WASI_MODULE:
                raise UnsupportedImportModule(imp.module)
            if imp.name not in ABI:
                raise AbiViolation(imp.name, "is not in the WASI ABI")
            sig = self.m.types[imp.type_index]
            if sig != ABI[imp.name]:
                raise AbiViolation(imp.name, f"has type {sig}; the WASI ABI says {ABI[imp.name]}")

    def call_expr(self, func_index: int, budget: str, args: list[str]) -> str:
        """A call to any function: internal ones take the depth budget
        first, imports are called by their WASI name without it."""
        if func_index < self.m.num_imported_funcs:
            return f"{self.m.imports[func_index].name}({', '.join(args)})"
        return f"wf{func_index}({', '.join([budget, *args])})"

    def table_fn(self, func_index: int) -> str:
        """What a table slot points at: every entry takes the budget."""
        if func_index < self.m.num_imported_funcs:
            return f"sr_thunk_{self.m.imports[func_index].name}"
        return f"wf{func_index}"

    def exported_funcs(self) -> list[tuple[str, int]]:
        return [(e.name, e.index) for e in self.m.exports if e.kind == "func"]

    def emit(self) -> str:
        m = self.m
        parts = [PRELUDE]

        # imported WASI functions, declared once per distinct field name;
        # the keep array forces the undefined symbol into the object even
        # when an import is never called, so object and manifest agree
        declared: list[str] = []
        for imp in m.imports:
            if imp.name in declared:
                continue
            declared.append(imp.name)
            parts.append(f"extern {c_decl(m.types[imp.type_index], imp.name, None)};")
        if declared:
            refs = ", ".join(f"(void *)&{n}" for n in declared)
            parts.append(
                f"__attribute__((used)) static void *const sr_keep_imports[] = {{{refs}}};"
            )

        # imports reachable through the table get a thunk with the table's
        # calling convention, which drops the budget
        thunks = {self.table_fn(fi): fi for fi in sorted(self.table_funcs) if fi < m.num_imported_funcs}
        for thunk, fi in thunks.items():
            sig = m.func_type(fi)
            call = self.call_expr(fi, "", [f"a{j}" for j in range(len(sig.params))])
            parts.append(f"static {c_decl(sig, thunk, budget=True)} "
                         f"{{ (void)sr_d; {'return ' if sig.results else ''}{call}; }}")

        for i, g in enumerate(m.globals):
            qual = "static " if g.mutable else "static const "
            parts.append(f"{qual}{GLOBAL_CTYPE[g.valtype]} g{i} = {_const_bits(g.init)};")
        for i in range(len(m.functions)):
            fi = m.num_imported_funcs + i
            parts.append(f"static {c_decl(m.func_type(fi), f'wf{fi}', None, budget=True)};")

        funcs = [_FuncEmitter(self, m.num_imported_funcs + i).emit_func() for i in range(len(m.functions))]
        parts.extend(self._emit_tables())
        parts.extend(funcs)
        parts.extend(self._emit_data())
        parts.append(self._emit_init())
        parts.extend(self._emit_exports())
        parts.append(self._emit_memory_spec())
        return "\n\n".join(parts) + "\n"

    def _emit_tables(self) -> list[str]:
        """One constant table per signature that a call_indirect names, cut
        after its last function of that signature (at least one slot). A
        slot holds its function when the function has that signature, and
        otherwise the signature's stub, which traps 5 (null slots too)."""
        parts: list[str] = []
        sigs = {tid: sig for sig, tid in self.vm.type_ids.items()}
        for tid in sorted(self.indirect_tids):
            sig = sigs[tid]
            parts.append(f"__attribute__((cold)) static {c_decl(sig, f'sr_nofn{tid}', budget=True)} "
                         f"{{ (void)sr_d; runtime_trap({TRAP_CALL_TYPE}u); }}")
            fill = [self.table_fn(fi) if fi is not None and self.vm.type_ids[self.m.func_type(fi)] == tid
                    else f"sr_nofn{tid}" for fi in self.slots[:self.table_ends.get(tid, 0)]]
            fill = fill or [f"sr_nofn{tid}"]
            rows = ",\n    ".join(", ".join(fill[k:k + 8]) for k in range(0, len(fill), 8))
            table = c_decl(sig, f"(*const sr_tab{tid}[{len(fill)}])", None, budget=True)
            parts.append(f"static {table} = {{\n    {rows},\n}};")
        return parts

    def _emit_data(self) -> list[str]:
        """Every data segment's bytes in one string, and per segment where
        its bytes go: {offset in memory, length, offset in the string}."""
        segs = self.m.data_segments
        if not segs:
            return []
        blob = b"".join(seg.data for seg in segs)
        rows, at = [], 0
        for seg in segs:
            rows.append(f"{{{seg.offset[1] & 0xFFFFFFFF}u, {len(seg.data)}u, {at}u}}")
            at += len(seg.data)
        return [
            f"static const uint8_t sr_data[{max(len(blob), 1)}] =\n{_c_bytes(blob)};",
            f"static const struct sr_seg {{ uint32_t off, len, at; }} sr_segs[{len(segs)}] = {{\n    "
            + ",\n    ".join(rows) + ",\n};",
        ]

    def _emit_init(self) -> str:
        """What instantiation leaves to run time: the element-fit trap, the
        copy of the data segments into memory (in order, each one checked
        against the memory's size) and the start call. Tables and globals
        are link-time constants."""
        m = self.m
        lines = ["void wasm_init(void) {"]
        if not self.elems_fit:
            lines.append(f"    runtime_trap({TRAP_TABLE_OOB}u);")
        if m.data_segments:
            # the empty asm hides the table and its length from the optimizer,
            # so the loop is the same code for any number of segments
            lines += [
                "    uint8_t *const mb = memory_base();",
                "    const uint64_t mem_bytes = (uint64_t)memory_grow(0u) << 16;",
                "    const struct sr_seg *seg = sr_segs;",
                f"    uint32_t nsegs = {len(m.data_segments)}u;",
                '    __asm__("" : "+r"(seg), "+r"(nsegs));',
                "    for (uint32_t s = 0; s < nsegs; s++) {",
                "        const uint64_t off = seg[s].off, len = seg[s].len;",
                "        const uint8_t *src = sr_data + seg[s].at;",
                f"        if (off + len > mem_bytes) runtime_trap({TRAP_OOB}u);",
                "        for (uint64_t k = 0; k < len; k++) mb[off + k] = src[k];",
                "    }",
            ]
        if m.start is not None:
            lines.append(f"    {self.call_expr(m.start, f'{CALL_DEPTH_LIMIT}u', [])};")
        lines.append("}")
        return "\n".join(lines)

    def _emit_exports(self) -> list[str]:
        m = self.m
        parts: list[str] = []
        entries: list[str] = []
        for name, idx in self.exported_funcs():
            sym = f"wasm_{name}"
            if sym in RESERVED_DEFINED:
                raise CodegenError(f"export {name!r} collides with reserved runtime symbol {sym}")
            if "\0" in name:
                raise CodegenError(f"export {name!r} holds U+0000, which no ELF symbol name can")
            sig = m.func_type(idx)
            call = self.call_expr(idx, f"{CALL_DEPTH_LIMIT}u", [f"a{j}" for j in range(len(sig.params))])
            alias = f"sr_exp_{_mangle(name)}"
            # exotic export names need GAS quoted-symbol syntax in the label:
            # escaped for the assembler first, then for the C string around it
            gas = sym.replace("\\", "\\\\").replace('"', '\\"')
            label = sym if _is_c_ident(sym) else f'\\"{_c_string(gas)[1:-1]}\\"'
            decl = c_decl(sig, alias)
            parts.append(f'{decl} __asm__("{label}");')
            parts.append(f"{decl} {{ {'return ' if sig.results else ''}{call}; }}")
            entries.append(f"{{{_c_string(name)}, {_c_string(_sig_string(sig))}, (void (*)(void)){alias}}}")
        if entries:
            parts.append("const struct sr_export wasm_exports[] = {\n    " + ",\n    ".join(entries) + ",\n};")
        else:
            parts.append("const struct sr_export wasm_exports[1] = {{0, 0, 0}};")
        parts.append(f"const uint32_t wasm_exports_count = {len(entries)}u;")
        return parts

    def _emit_memory_spec(self) -> str:
        if self.m.memory is None:
            return "const uint32_t wasm_memory_spec[2] = {0u, 0u};"
        spec = self.m.memory
        return f"const uint32_t wasm_memory_spec[2] = {{{spec.initial_pages}u, {spec.effective_max}u}};"

    def manifest_symbols(self) -> tuple[list[str], list[str]]:
        defined = sorted(set(RESERVED_DEFINED) | {f"wasm_{n}" for n, _ in self.exported_funcs()})
        unresolved = sorted({imp.name for imp in self.m.imports} | set(RUNTIME_HOOKS))
        return defined, unresolved


def _mangle(name: str) -> str:
    return "".join(ch if ch.isalnum() else f"_{ord(ch):02x}_" for ch in name)


def _is_c_ident(name: str) -> bool:
    if not name:
        return False
    ok_first = name[0].isalpha() or name[0] == "_"
    return ok_first and all(ch.isalnum() or ch == "_" for ch in name)
