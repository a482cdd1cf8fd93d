"""Independent test-side Wasm binary emitter.

Builds .wasm bytes directly from the binary format rules. Deliberately
does not import the package's opcode tables: this encoder is the other
side of the decode round-trip and the source of every generated fixture,
so it carries its own tables. Instructions use the same tuple mini
language the decoder produces:

    ("i32.const", 5)
    ("i32.add",)
    ("block", "i32", [ ... ])
    ("if", None, [ ... ], [ ... ])
    ("br_table", [0, 1], 0)
    ("f64.const_bits", 0x7ff8000000000000)    # bit-exact floats
    ("i32.load", align, offset)

plus ("raw", b"...") as an escape hatch for malformed-input tests.
"""

from __future__ import annotations

import struct

VALTYPE = {"i32": 0x7F, "i64": 0x7E, "f32": 0x7D, "f64": 0x7C}


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
        if not done:
            b |= 0x80
        out.append(b)
        if done:
            return bytes(out)


NO_IMM = """
unreachable:00 nop:01 return:0f drop:1a select:1b
i32.eqz:45 i32.eq:46 i32.ne:47 i32.lt_s:48 i32.lt_u:49 i32.gt_s:4a i32.gt_u:4b
i32.le_s:4c i32.le_u:4d i32.ge_s:4e i32.ge_u:4f
i64.eqz:50 i64.eq:51 i64.ne:52 i64.lt_s:53 i64.lt_u:54 i64.gt_s:55 i64.gt_u:56
i64.le_s:57 i64.le_u:58 i64.ge_s:59 i64.ge_u:5a
f32.eq:5b f32.ne:5c f32.lt:5d f32.gt:5e f32.le:5f f32.ge:60
f64.eq:61 f64.ne:62 f64.lt:63 f64.gt:64 f64.le:65 f64.ge:66
i32.clz:67 i32.ctz:68 i32.popcnt:69 i32.add:6a i32.sub:6b i32.mul:6c
i32.div_s:6d i32.div_u:6e i32.rem_s:6f i32.rem_u:70 i32.and:71 i32.or:72
i32.xor:73 i32.shl:74 i32.shr_s:75 i32.shr_u:76 i32.rotl:77 i32.rotr:78
i64.clz:79 i64.ctz:7a i64.popcnt:7b i64.add:7c i64.sub:7d i64.mul:7e
i64.div_s:7f i64.div_u:80 i64.rem_s:81 i64.rem_u:82 i64.and:83 i64.or:84
i64.xor:85 i64.shl:86 i64.shr_s:87 i64.shr_u:88 i64.rotl:89 i64.rotr:8a
f32.abs:8b f32.neg:8c f32.ceil:8d f32.floor:8e f32.trunc:8f f32.nearest:90
f32.sqrt:91 f32.add:92 f32.sub:93 f32.mul:94 f32.div:95 f32.min:96 f32.max:97
f32.copysign:98
f64.abs:99 f64.neg:9a f64.ceil:9b f64.floor:9c f64.trunc:9d f64.nearest:9e
f64.sqrt:9f f64.add:a0 f64.sub:a1 f64.mul:a2 f64.div:a3 f64.min:a4 f64.max:a5
f64.copysign:a6
i32.wrap_i64:a7 i32.trunc_f32_s:a8 i32.trunc_f32_u:a9 i32.trunc_f64_s:aa
i32.trunc_f64_u:ab i64.extend_i32_s:ac i64.extend_i32_u:ad i64.trunc_f32_s:ae
i64.trunc_f32_u:af i64.trunc_f64_s:b0 i64.trunc_f64_u:b1
f32.convert_i32_s:b2 f32.convert_i32_u:b3 f32.convert_i64_s:b4
f32.convert_i64_u:b5 f32.demote_f64:b6 f64.convert_i32_s:b7
f64.convert_i32_u:b8 f64.convert_i64_s:b9 f64.convert_i64_u:ba
f64.promote_f32:bb i32.reinterpret_f32:bc i64.reinterpret_f64:bd
f32.reinterpret_i32:be f64.reinterpret_i64:bf
i32.extend8_s:c0 i32.extend16_s:c1 i64.extend8_s:c2 i64.extend16_s:c3
i64.extend32_s:c4
"""
OP_NO_IMM = {}
for entry in NO_IMM.split():
    name, code = entry.rsplit(":", 1)
    OP_NO_IMM[name] = int(code, 16)

OP_TRUNC_SAT = {
    "i32.trunc_sat_f32_s": 0, "i32.trunc_sat_f32_u": 1,
    "i32.trunc_sat_f64_s": 2, "i32.trunc_sat_f64_u": 3,
    "i64.trunc_sat_f32_s": 4, "i64.trunc_sat_f32_u": 5,
    "i64.trunc_sat_f64_s": 6, "i64.trunc_sat_f64_u": 7,
}

OP_IDX = {
    "br": 0x0C, "br_if": 0x0D, "call": 0x10,
    "local.get": 0x20, "local.set": 0x21, "local.tee": 0x22,
    "global.get": 0x23, "global.set": 0x24,
}

OP_MEM = {
    "i32.load": 0x28, "i64.load": 0x29, "f32.load": 0x2A, "f64.load": 0x2B,
    "i32.load8_s": 0x2C, "i32.load8_u": 0x2D, "i32.load16_s": 0x2E, "i32.load16_u": 0x2F,
    "i64.load8_s": 0x30, "i64.load8_u": 0x31, "i64.load16_s": 0x32, "i64.load16_u": 0x33,
    "i64.load32_s": 0x34, "i64.load32_u": 0x35,
    "i32.store": 0x36, "i64.store": 0x37, "f32.store": 0x38, "f64.store": 0x39,
    "i32.store8": 0x3A, "i32.store16": 0x3B,
    "i64.store8": 0x3C, "i64.store16": 0x3D, "i64.store32": 0x3E,
}

BLOCK_OPS = {"block": 0x02, "loop": 0x03, "if": 0x04}


def _blocktype(rt: str | None) -> bytes:
    return bytes([0x40 if rt is None else VALTYPE[rt]])


def asm(instrs: list | tuple) -> bytes:
    """Assemble an instruction list (without the trailing end).

    Iterative, so a tree of any depth assembles: `todo` holds what is still
    to be written, last item first; a nested body is spread onto it with the
    raw bytes (else, end) that follow it."""
    out = bytearray()
    todo: list = list(reversed(instrs))
    while todo:
        ins = todo.pop()
        if isinstance(ins, bytes):
            out += ins
            continue
        name = ins[0]
        if name in OP_NO_IMM:
            out.append(OP_NO_IMM[name])
        elif name in OP_TRUNC_SAT:
            out.append(0xFC)
            out += uleb(OP_TRUNC_SAT[name])
        elif name in OP_IDX:
            out.append(OP_IDX[name])
            out += uleb(ins[1])
        elif name in OP_MEM:
            out.append(OP_MEM[name])
            out += uleb(ins[1]) + uleb(ins[2])
        elif name in BLOCK_OPS:
            out.append(BLOCK_OPS[name])
            out += _blocktype(ins[1])
            todo.append(b"\x0b")
            if name == "if" and len(ins) > 3 and ins[3]:
                todo.extend(reversed(ins[3]))
                todo.append(b"\x05")
            todo.extend(reversed(ins[2]))
        elif name == "br_table":
            out.append(0x0E)
            out += uleb(len(ins[1]))
            for t in ins[1]:
                out += uleb(t)
            out += uleb(ins[2])
        elif name == "call_indirect":
            out.append(0x11)
            out += uleb(ins[1]) + b"\x00"
        elif name == "memory.size":
            out += b"\x3f\x00"
        elif name == "memory.grow":
            out += b"\x40\x00"
        elif name == "i32.const":
            out.append(0x41)
            out += sleb(ins[1])
        elif name == "i64.const":
            out.append(0x42)
            out += sleb(ins[1])
        elif name == "f32.const":
            out.append(0x43)
            out += struct.pack("<f", ins[1])
        elif name == "f32.const_bits":
            out.append(0x43)
            out += struct.pack("<I", ins[1])
        elif name == "f64.const":
            out.append(0x44)
            out += struct.pack("<d", ins[1])
        elif name == "f64.const_bits":
            out.append(0x44)
            out += struct.pack("<Q", ins[1])
        elif name == "raw":
            out += ins[1]
        else:
            raise ValueError(f"wasmgen: unknown instruction {name}")
    return bytes(out)


class ModuleBuilder:
    KIND = {"func": 0, "table": 1, "memory": 2, "global": 3}

    def __init__(self):
        self.types: list[tuple[tuple, tuple]] = []
        self.imports: list[tuple[str, str, int]] = []
        self.funcs: list[tuple[int, list[str], bytes]] = []
        self.table: tuple[int, int | None] | None = None
        self.memory: tuple[int, int | None] | None = None
        self.globals: list[tuple[str, bool, bytes]] = []
        self.exports: list[tuple[str, str, int]] = []
        self.start: int | None = None
        self.elems: list[tuple[int, list[int]]] = []
        self.datas: list[tuple[int, bytes]] = []

    def type_index(self, params, results) -> int:
        key = (tuple(params), tuple(results))
        if key not in self.types:
            self.types.append(key)
        return self.types.index(key)

    def add_import(self, module: str, name: str, params, results) -> int:
        if self.funcs:
            raise ValueError("imports must be declared before functions")
        self.imports.append((module, name, self.type_index(params, results)))
        return len(self.imports) - 1

    def add_func(self, params, results, local_types, body, export: str | None = None) -> int:
        code = body if isinstance(body, (bytes, bytearray)) else asm(body)
        self.funcs.append((self.type_index(params, results), list(local_types), bytes(code)))
        idx = len(self.imports) + len(self.funcs) - 1
        if export is not None:
            self.exports.append((export, "func", idx))
        return idx

    def set_memory(self, initial: int, maximum: int | None = None, export: str | None = None):
        self.memory = (initial, maximum)
        if export is not None:
            self.exports.append((export, "memory", 0))

    def set_table(self, initial: int, maximum: int | None = None):
        self.table = (initial, maximum)

    def add_elem(self, offset: int, func_indices: list[int]):
        self.elems.append((offset, list(func_indices)))

    def add_global(self, valtype: str, mutable: bool, init_instr: tuple) -> int:
        self.globals.append((valtype, mutable, asm([init_instr]) + b"\x0b"))
        return len(self.globals) - 1

    def add_data(self, offset: int, data: bytes):
        self.datas.append((offset, data))

    def add_export(self, name: str, kind: str, idx: int):
        self.exports.append((name, kind, idx))

    def set_start(self, idx: int):
        self.start = idx

    @staticmethod
    def _section(sec_id: int, payload: bytes) -> bytes:
        return bytes([sec_id]) + uleb(len(payload)) + payload

    @staticmethod
    def _vec(items: list[bytes]) -> bytes:
        return uleb(len(items)) + b"".join(items)

    @staticmethod
    def _name(s: str) -> bytes:
        raw = s.encode("utf-8")
        return uleb(len(raw)) + raw

    @staticmethod
    def _limits(lo: int, hi: int | None) -> bytes:
        if hi is None:
            return b"\x00" + uleb(lo)
        return b"\x01" + uleb(lo) + uleb(hi)

    def build(self) -> bytes:
        out = bytearray(b"\x00asm\x01\x00\x00\x00")
        if self.types:
            items = [
                b"\x60" + self._vec([bytes([VALTYPE[p]]) for p in ps])
                + self._vec([bytes([VALTYPE[r]]) for r in rs])
                for ps, rs in self.types
            ]
            out += self._section(1, self._vec(items))
        if self.imports:
            items = [
                self._name(mod) + self._name(name) + b"\x00" + uleb(tidx)
                for mod, name, tidx in self.imports
            ]
            out += self._section(2, self._vec(items))
        if self.funcs:
            out += self._section(3, self._vec([uleb(t) for t, _, _ in self.funcs]))
        if self.table is not None:
            out += self._section(4, self._vec([b"\x70" + self._limits(*self.table)]))
        if self.memory is not None:
            out += self._section(5, self._vec([self._limits(*self.memory)]))
        if self.globals:
            items = [
                bytes([VALTYPE[vt], 1 if mut else 0]) + init
                for vt, mut, init in self.globals
            ]
            out += self._section(6, self._vec(items))
        if self.exports:
            items = [
                self._name(name) + bytes([self.KIND[kind]]) + uleb(idx)
                for name, kind, idx in self.exports
            ]
            out += self._section(7, self._vec(items))
        if self.start is not None:
            out += self._section(8, uleb(self.start))
        if self.elems:
            items = [
                b"\x00" + asm([("i32.const", off)]) + b"\x0b" + self._vec([uleb(f) for f in funcs])
                for off, funcs in self.elems
            ]
            out += self._section(9, self._vec(items))
        if self.funcs:
            bodies = []
            for _, local_types, code in self.funcs:
                groups = []
                for vt in local_types:
                    if groups and groups[-1][1] == vt:
                        groups[-1][0] += 1
                    else:
                        groups.append([1, vt])
                locals_bytes = self._vec([uleb(n) + bytes([VALTYPE[vt]]) for n, vt in groups])
                body = locals_bytes + code + b"\x0b"
                bodies.append(uleb(len(body)) + body)
            out += self._section(10, self._vec(bodies))
        if self.datas:
            items = [
                b"\x00" + asm([("i32.const", off)]) + b"\x0b" + uleb(len(d)) + d
                for off, d in self.datas
            ]
            out += self._section(11, self._vec(items))
        return bytes(out)


def empty_module() -> bytes:
    """The 8-byte header-only module."""
    return b"\x00asm\x01\x00\x00\x00"
