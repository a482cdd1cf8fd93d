"""Minimal Wasm binary emitter for the benchmark's guests and build corpus.

It carries its own opcode tables so the benchmark's inputs do not depend on
seam's decoder or on the test suite. Instructions are tuples, and lists of
them nest freely (they are flattened):

    ("i32.const", 5)  ("i32.add",)  ("i32.load", align, offset)
    ("block", None, [...], "label")  ("loop", None, [...], "label")
    ("if", None, [...then], [...else])  ("br", "label")  ("br_if", 0)
    ("local.get", "name")  ("call", "func_name")

Branch targets may be label strings, resolved against the enclosing
blocks; locals and callees may be names, resolved per function.
"""

from __future__ import annotations

VALTYPE = {"i32": 0x7F, "i64": 0x7E}

NO_IMM = """
unreachable:00 nop:01 return:0f drop:1a select:1b
i32.eqz:45 i32.eq:46 i32.ne:47 i32.lt_s:48 i32.lt_u:49 i32.gt_s:4a i32.gt_u:4b
i32.le_s:4c i32.le_u:4d i32.ge_s:4e i32.ge_u:4f
i64.eqz:50 i64.eq:51 i64.ne:52 i64.lt_s:53 i64.lt_u:54 i64.gt_s:55 i64.gt_u:56
i64.le_s:57 i64.le_u:58 i64.ge_s:59 i64.ge_u:5a
i32.clz:67 i32.ctz:68 i32.popcnt:69 i32.add:6a i32.sub:6b i32.mul:6c
i32.div_s:6d i32.div_u:6e i32.rem_s:6f i32.rem_u:70 i32.and:71 i32.or:72
i32.xor:73 i32.shl:74 i32.shr_s:75 i32.shr_u:76 i32.rotl:77 i32.rotr:78
i64.clz:79 i64.ctz:7a i64.popcnt:7b i64.add:7c i64.sub:7d i64.mul:7e
i64.div_s:7f i64.div_u:80 i64.rem_s:81 i64.rem_u:82 i64.and:83 i64.or:84
i64.xor:85 i64.shl:86 i64.shr_s:87 i64.shr_u:88 i64.rotl:89 i64.rotr:8a
i32.wrap_i64:a7 i64.extend_i32_s:ac i64.extend_i32_u:ad
i32.extend8_s:c0 i32.extend16_s:c1 i64.extend8_s:c2 i64.extend16_s:c3
i64.extend32_s:c4
"""
OP_NO_IMM = {n: int(c, 16) for n, c in (e.rsplit(":", 1) for e in NO_IMM.split())}

OP_MEM = {
    "i32.load": 0x28, "i64.load": 0x29,
    "i32.load8_s": 0x2C, "i32.load8_u": 0x2D, "i32.load16_s": 0x2E, "i32.load16_u": 0x2F,
    "i64.load8_u": 0x31, "i64.load16_u": 0x33, "i64.load32_u": 0x35,
    "i32.store": 0x36, "i64.store": 0x37, "i32.store8": 0x3A, "i32.store16": 0x3B,
    "i64.store8": 0x3C, "i64.store16": 0x3D, "i64.store32": 0x3E,
}

OP_LOCAL = {"local.get": 0x20, "local.set": 0x21, "local.tee": 0x22}


def uleb(v: int) -> bytes:
    out = bytearray()
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def sleb(v: int) -> bytes:
    out = bytearray()
    while True:
        b = v & 0x7F
        v >>= 7
        done = (v == 0 and not (b & 0x40)) or (v == -1 and (b & 0x40))
        out.append(b if done else b | 0x80)
        if done:
            return bytes(out)


def _s32(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v & 0x80000000 else v


def _s64(v: int) -> int:
    v &= 0xFFFFFFFFFFFFFFFF
    return v - (1 << 64) if v & (1 << 63) else v


def flatten(items):
    for it in items:
        if isinstance(it, list):
            yield from flatten(it)
        else:
            yield it


class _Asm:
    """Assembles one function body, resolving names and labels."""

    def __init__(self, local_index: dict[str, int], func_index: dict[str, int]):
        self.local_index = local_index
        self.func_index = func_index
        self.labels: list[str | None] = []
        self.out = bytearray()

    def _depth(self, target) -> int:
        if isinstance(target, int):
            return target
        for depth, name in enumerate(reversed(self.labels)):
            if name == target:
                return depth
        raise ValueError(f"wasmemit: no enclosing label {target!r}")

    def _block(self, opcode: int, rt, body, label):
        self.out.append(opcode)
        self.out.append(0x40 if rt is None else VALTYPE[rt])
        self.labels.append(label)
        self.body(body)
        self.labels.pop()

    def body(self, instrs):
        out = self.out
        for ins in flatten(instrs):
            name = ins[0]
            if name in OP_NO_IMM:
                out.append(OP_NO_IMM[name])
            elif name in OP_LOCAL:
                idx = ins[1] if isinstance(ins[1], int) else self.local_index[ins[1]]
                out.append(OP_LOCAL[name])
                out += uleb(idx)
            elif name in OP_MEM:
                out.append(OP_MEM[name])
                out += uleb(ins[1]) + uleb(ins[2])
            elif name in ("block", "loop"):
                self._block(0x02 if name == "block" else 0x03, ins[1], ins[2],
                            ins[3] if len(ins) > 3 else None)
                out.append(0x0B)
            elif name == "if":
                self._block(0x04, ins[1], ins[2], ins[4] if len(ins) > 4 else None)
                if len(ins) > 3 and ins[3]:
                    out.append(0x05)
                    self.labels.append(ins[4] if len(ins) > 4 else None)
                    self.body(ins[3])
                    self.labels.pop()
                out.append(0x0B)
            elif name in ("br", "br_if"):
                out.append(0x0C if name == "br" else 0x0D)
                out += uleb(self._depth(ins[1]))
            elif name == "call":
                idx = ins[1] if isinstance(ins[1], int) else self.func_index[ins[1]]
                out.append(0x10)
                out += uleb(idx)
            elif name == "call_indirect":
                out.append(0x11)
                out += uleb(ins[1]) + b"\x00"
            elif name == "memory.size":
                out += b"\x3f\x00"
            elif name == "memory.grow":
                out += b"\x40\x00"
            elif name == "i32.const":
                out.append(0x41)
                out += sleb(_s32(ins[1]))
            elif name == "i64.const":
                out.append(0x42)
                out += sleb(_s64(ins[1]))
            else:
                raise ValueError(f"wasmemit: unknown instruction {name}")


class Module:
    """Collects imports, functions, memory, a table and data; build() encodes."""

    def __init__(self):
        self.types: list[tuple[tuple, tuple]] = []
        self.imports: list[tuple[str, str, int]] = []
        self.funcs: list[dict] = []
        self.func_index: dict[str, int] = {}
        self.memory: tuple[int, int | None] | None = None
        self.table: list[str] | None = None
        self.exports: list[tuple[str, int, int]] = []  # (name, kind, index)
        self.datas: list[tuple[int, bytes]] = []

    def type_index(self, params, results) -> int:
        key = (tuple(params), tuple(results))
        if key not in self.types:
            self.types.append(key)
        return self.types.index(key)

    def import_func(self, module: str, name: str, params, results):
        if self.funcs:
            raise ValueError("imports must precede functions")
        self.func_index[name] = len(self.imports)
        self.imports.append((module, name, self.type_index(params, results)))

    def func(self, name: str, params: list[tuple[str, str]], results: list[str],
             locals_: list[tuple[str, str]], body, export: str | None = None) -> int:
        """Declare a function; params/locals are (name, valtype) pairs."""
        idx = len(self.imports) + len(self.funcs)
        self.func_index[name] = idx
        self.funcs.append({
            "type": self.type_index([t for _, t in params], results),
            "params": params, "locals": locals_, "body": body,
        })
        if export is not None:
            self.exports.append((export, 0, idx))
        return idx

    def set_memory(self, initial: int, maximum: int | None = None):
        self.memory = (initial, maximum)

    def set_table(self, func_names: list[str]):
        """A funcref table of exactly these functions, placed at offset 0."""
        self.table = list(func_names)

    def add_data(self, offset: int, data: bytes):
        self.datas.append((offset, bytes(data)))

    @staticmethod
    def _section(sec_id: int, payload: bytes) -> bytes:
        return bytes([sec_id]) + uleb(len(payload)) + payload

    @staticmethod
    def _vec(items: list[bytes]) -> bytes:
        return uleb(len(items)) + b"".join(items)

    @staticmethod
    def _name(s: str) -> bytes:
        raw = s.encode()
        return uleb(len(raw)) + raw

    @staticmethod
    def _limits(lo: int, hi: int | None) -> bytes:
        return b"\x00" + uleb(lo) if hi is None else b"\x01" + uleb(lo) + uleb(hi)

    def _code(self, f: dict) -> bytes:
        names = [n for n, _ in f["params"]] + [n for n, _ in f["locals"]]
        a = _Asm({n: i for i, n in enumerate(names)}, self.func_index)
        a.body(f["body"])
        groups: list[list] = []
        for _, vt in f["locals"]:
            if groups and groups[-1][1] == vt:
                groups[-1][0] += 1
            else:
                groups.append([1, vt])
        body = self._vec([uleb(n) + bytes([VALTYPE[vt]]) for n, vt in groups]) + bytes(a.out) + b"\x0b"
        return uleb(len(body)) + body

    def build(self) -> bytes:
        out = bytearray(b"\x00asm\x01\x00\x00\x00")
        out += self._section(1, self._vec([
            b"\x60" + self._vec([bytes([VALTYPE[p]]) for p in ps])
            + self._vec([bytes([VALTYPE[r]]) for r in rs])
            for ps, rs in self.types
        ]))
        if self.imports:
            out += self._section(2, self._vec([
                self._name(mod) + self._name(name) + b"\x00" + uleb(t)
                for mod, name, t in self.imports
            ]))
        out += self._section(3, self._vec([uleb(f["type"]) for f in self.funcs]))
        if self.table is not None:
            n = len(self.table)
            out += self._section(4, self._vec([b"\x70" + self._limits(n, n)]))
        if self.memory is not None:
            out += self._section(5, self._vec([self._limits(*self.memory)]))
        if self.exports:
            out += self._section(7, self._vec([
                self._name(name) + bytes([kind]) + uleb(idx) for name, kind, idx in self.exports
            ]))
        if self.table:
            out += self._section(9, self._vec([
                b"\x00\x41\x00\x0b" + self._vec([uleb(self.func_index[f]) for f in self.table])
            ]))
        out += self._section(10, self._vec([self._code(f) for f in self.funcs]))
        if self.datas:
            out += self._section(11, self._vec([
                b"\x00\x41" + sleb(_s32(off)) + b"\x0b" + uleb(len(d)) + d for off, d in self.datas
            ]))
        return bytes(out)


# --- expression helpers: each returns an instruction list -------------------

def get(name):
    return ("local.get", name)


def set_(name, *expr):
    return [*expr, ("local.set", name)]


def i32(v):
    return ("i32.const", v)


def i64(v):
    return ("i64.const", v)


def op(name, *args):
    return [*args, (name,)]


def load32(addr, off=0):
    return [addr, ("i32.load", 2, off)]


def load8(addr, off=0):
    return [addr, ("i32.load8_u", 0, off)]


def store32(addr, value, off=0):
    return [addr, value, ("i32.store", 2, off)]


def store8(addr, value, off=0):
    return [addr, value, ("i32.store8", 0, off)]


def call(name, *args):
    return [*args, ("call", name)]


def if_(cond, then, else_=None):
    return [cond, ("if", None, then, else_ or [])]


def while_(label: str, cond, body):
    """while (cond) body; ("br", label) continues, ("br", label + ".end") breaks."""
    return ("block", None, [
        ("loop", None, [cond, ("i32.eqz",), ("br_if", label + ".end"), *body, ("br", label)], label),
    ], label + ".end")
