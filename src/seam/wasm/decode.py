"""Binary .wasm decoder for the supported feature set.

Strict by construction: canonical-or-padded LEB128 with bit-width limits,
section ordering, exact section sizes, UTF-8 names, and index range checks
are all enforced here with byte offsets in every error. Known proposal
opcodes outside the feature set raise UnsupportedFeature; anything else
is MalformedBinary.
"""

from __future__ import annotations

import struct

from ..errors import MalformedBinary, UnsupportedFeature
from . import opcodes as op
from .model import (
    DataSegment,
    ElemSegment,
    Export,
    FuncBody,
    FuncType,
    GlobalSpec,
    Import,
    MemorySpec,
    Module,
    TableSpec,
    MAX_PAGES,
)

MAGIC = b"\x00asm"
VERSION = 1

_VALTYPE_BYTES = {0x7F: "i32", 0x7E: "i64", 0x7D: "f32", 0x7C: "f64"}
_EXPORT_KINDS = {0: "func", 1: "table", 2: "memory", 3: "global"}

# hard cap shared with mainstream engines so the validation oracle agrees
_MAX_LOCALS = 50000


class Reader:
    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, start: int = 0, end: int | None = None):
        self.data = data
        self.pos = start
        self.end = len(data) if end is None else end

    def eof(self) -> bool:
        return self.pos >= self.end

    def byte(self) -> int:
        if self.pos >= self.end:
            raise MalformedBinary(self.pos, "unexpected end")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def take(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise MalformedBinary(self.pos, "unexpected end")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return bytes(chunk)

    def uleb(self, bits: int) -> int:
        result = 0
        shift = 0
        start = self.pos
        max_bytes = (bits + 6) // 7
        for i in range(max_bytes):
            b = self.byte()
            result |= (b & 0x7F) << shift
            if not (b & 0x80):
                # bits of the last byte beyond the target width must be zero
                spare = 7 - (bits - shift) if bits - shift < 7 else 0
                if spare > 0 and (b & 0x7F) >> (7 - spare):
                    raise MalformedBinary(start, "integer too large")
                return result
            shift += 7
        raise MalformedBinary(start, "integer representation too long")

    def sleb(self, bits: int) -> int:
        result = 0
        shift = 0
        start = self.pos
        max_bytes = (bits + 6) // 7
        for i in range(max_bytes):
            b = self.byte()
            result |= (b & 0x7F) << shift
            shift += 7
            if not (b & 0x80):
                remaining = bits - (shift - 7)
                if remaining < 7:
                    # unused high bits must propagate the sign bit
                    sign_bit = 1 << (remaining - 1)
                    spare_mask = (0x7F ^ (sign_bit - 1)) & 0x7F
                    spare = b & spare_mask
                    if (b & sign_bit) and spare != spare_mask:
                        raise MalformedBinary(start, "integer too large")
                    if not (b & sign_bit) and spare != 0:
                        raise MalformedBinary(start, "integer too large")
                if b & 0x40:
                    result |= -1 << shift
                return self._wrap_signed(result, bits)
        raise MalformedBinary(start, "integer representation too long")

    @staticmethod
    def _wrap_signed(v: int, bits: int) -> int:
        v &= (1 << bits) - 1
        if v & (1 << (bits - 1)):
            v -= 1 << bits
        return v

    def u32(self) -> int:
        return self.uleb(32)

    def name(self) -> str:
        n = self.u32()
        start = self.pos
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedBinary(start, "invalid UTF-8 in name") from None

    def valtype(self) -> str:
        start = self.pos
        b = self.byte()
        if b in _VALTYPE_BYTES:
            return _VALTYPE_BYTES[b]
        if b == 0x7B:
            raise UnsupportedFeature("simd", start)
        if b in (0x70, 0x6F):
            raise UnsupportedFeature("reference-types", start)
        raise MalformedBinary(start, f"unknown value type {b:#04x}")


def _read_limits(r: Reader, what: str, ceiling: int | None) -> tuple[int, int | None]:
    start = r.pos
    flag = r.byte()
    if flag == 0x00:
        lo, hi = r.u32(), None
    elif flag == 0x01:
        lo, hi = r.u32(), r.u32()
    elif flag == 0x03:
        raise UnsupportedFeature("threads", start)
    elif flag in (0x04, 0x05, 0x07):
        raise UnsupportedFeature("memory64", start)
    else:
        raise MalformedBinary(start, f"invalid limits flag {flag:#04x}")
    if ceiling is not None:
        if lo > ceiling or (hi is not None and hi > ceiling):
            raise MalformedBinary(start, f"{what} size exceeds {ceiling} pages")
    if hi is not None and lo > hi:
        raise MalformedBinary(start, f"{what} size minimum greater than maximum")
    return lo, hi


def _read_blocktype(r: Reader) -> str | None:
    # single-byte forms are special-cased in the grammar; only type indices
    # (multi-value, out of scope) take the multi-byte s33 path
    start = r.pos
    b = r.data[r.pos] if r.pos < r.end else None
    if b == 0x40:
        r.byte()
        return None
    if b in _VALTYPE_BYTES:
        return _VALTYPE_BYTES[r.byte()]
    if b == 0x7B:
        raise UnsupportedFeature("simd", start)
    if b in (0x70, 0x6F):
        raise UnsupportedFeature("reference-types", start)
    v = r.sleb(33)
    if v >= 0:
        raise UnsupportedFeature("multi-value", start)
    raise MalformedBinary(start, f"invalid block type {v}")


def _read_memarg(r: Reader) -> tuple[int, int]:
    start = r.pos
    align = r.u32()
    if align >= 0x40:
        raise UnsupportedFeature("multi-memory", start)
    offset = r.u32()
    return align, offset


def _read_instrs(r: Reader) -> list:
    """Decode a flat instruction list up to and including the end that
    closes depth 0."""
    out: list = []
    # one entry per open block: True while it is an if that takes an else
    takes_else: list[bool] = []
    while True:
        start = r.pos
        b = r.byte()
        if b == 0xFC:
            sub = r.u32()
            if sub in op.FC_OPCODES:
                out.append((op.FC_OPCODES[sub],))
                continue
            if sub <= 17:
                raise UnsupportedFeature("bulk-memory", start)
            raise MalformedBinary(start, f"unknown 0xFC opcode {sub}")
        if b in op.PROPOSAL_OPCODES:
            raise UnsupportedFeature(op.PROPOSAL_OPCODES[b], start)
        if b not in op.OPCODES:
            raise MalformedBinary(start, f"unknown opcode {b:#04x}")
        name, imm = op.OPCODES[b]

        if name == "end":
            out.append((name,))
            if not takes_else:
                return out
            takes_else.pop()
        elif name == "else":
            if not (takes_else and takes_else[-1]):
                raise MalformedBinary(start, "unexpected else")
            takes_else[-1] = False
            out.append((name,))
        elif imm == op.IMM_BLOCK:
            out.append((name, _read_blocktype(r)))
            takes_else.append(name == "if")
        elif imm == op.IMM_NONE:
            out.append((name,))
        elif imm == op.IMM_INDEX:
            out.append((name, r.u32()))
        elif imm == op.IMM_MEMARG:
            align, offset = _read_memarg(r)
            out.append((name, align, offset))
        elif imm == op.IMM_BR_TABLE:
            targets = [r.u32() for _ in range(r.u32())]
            out.append((name, targets, r.u32()))
        elif imm == op.IMM_CALL_INDIRECT:
            typeidx = r.u32()
            tbl = r.byte()
            if tbl != 0x00:
                raise UnsupportedFeature("reference-types", r.pos - 1)
            out.append((name, typeidx))
        elif imm == op.IMM_MEM_ZERO:
            if r.byte() != 0x00:
                raise MalformedBinary(r.pos - 1, "zero byte expected")
            out.append((name,))
        elif imm == op.IMM_I32:
            out.append((name, r.sleb(32)))
        elif imm == op.IMM_I64:
            out.append((name, r.sleb(64)))
        elif imm == op.IMM_F32:
            out.append((name, struct.unpack("<I", r.take(4))[0]))
        elif imm == op.IMM_F64:
            out.append((name, struct.unpack("<Q", r.take(8))[0]))
        else:  # pragma: no cover - table is closed
            raise AssertionError(imm)


def _read_const_expr(r: Reader, context: str) -> tuple:
    """MVP constant expressions are a single const instruction plus end."""
    body = _read_instrs(r)[:-1]
    if not body:
        raise MalformedBinary(r.pos, f"missing constant expression in {context}")
    # a block with all it holds is one instruction
    depth = top = 0
    for ins in body:
        top += depth == 0
        depth += (ins[0] in ("block", "loop", "if")) - (ins[0] == "end")
    if top > 1:
        raise UnsupportedFeature("extended-const", r.pos)
    instr = body[0]
    if instr[0] not in ("i32.const", "i64.const", "f32.const", "f64.const", "global.get"):
        raise MalformedBinary(r.pos, f"non-constant instruction {instr[0]} in {context}")
    return instr


def decode_module(data: bytes) -> Module:
    """Decode a binary Wasm module.

    Raises MalformedBinary for format violations and UnsupportedFeature for
    constructs outside MVP+sign-extension+trunc-sat.
    """
    if not data:
        raise MalformedBinary(0, "empty input")
    r = Reader(data)
    if r.take(4) != MAGIC:
        raise MalformedBinary(0, "bad magic (expected \\0asm)")
    version = struct.unpack("<I", r.take(4))[0]
    if version != VERSION:
        raise MalformedBinary(4, f"unsupported version {version} (expected 1)")

    m = Module()
    func_type_indices: list[int] = []
    code_bodies: list[tuple[tuple[str, ...], list]] = []
    last_section = 0

    while not r.eof():
        sec_start = r.pos
        sec_id = r.byte()
        size = r.u32()
        content_start = r.pos
        content_end = content_start + size
        if content_end > r.end:
            raise MalformedBinary(sec_start, "section extends past end of input")
        sr = Reader(data, content_start, content_end)

        if sec_id == 0:
            sr.name()  # custom section: parse the name, skip the payload
            r.pos = content_end
            continue
        if sec_id == 12:
            raise UnsupportedFeature("bulk-memory", sec_start)
        if sec_id == 13:
            raise UnsupportedFeature("exception-handling", sec_start)
        if sec_id > 13:
            raise MalformedBinary(sec_start, f"unknown section id {sec_id}")
        if sec_id <= last_section:
            raise MalformedBinary(sec_start, f"section {sec_id} out of order")
        last_section = sec_id

        if sec_id == 1:
            for _ in range(sr.u32()):
                tstart = sr.pos
                if sr.byte() != 0x60:
                    raise MalformedBinary(tstart, "expected func type (0x60)")
                params = tuple(sr.valtype() for _ in range(sr.u32()))
                results = tuple(sr.valtype() for _ in range(sr.u32()))
                if len(results) > 1:
                    raise UnsupportedFeature("multi-value", tstart)
                m.types.append(FuncType(params, results))
        elif sec_id == 2:
            for _ in range(sr.u32()):
                mod = sr.name()
                name = sr.name()
                kstart = sr.pos
                kind = sr.byte()
                if kind != 0x00:
                    raise UnsupportedFeature("non-function imports", kstart)
                tidx = sr.u32()
                if tidx >= len(m.types):
                    raise MalformedBinary(kstart, f"unknown type index {tidx}")
                m.imports.append(Import(mod, name, tidx))
        elif sec_id == 3:
            for _ in range(sr.u32()):
                istart = sr.pos
                tidx = sr.u32()
                if tidx >= len(m.types):
                    raise MalformedBinary(istart, f"unknown type index {tidx}")
                func_type_indices.append(tidx)
        elif sec_id == 4:
            count = sr.u32()
            if count > 1:
                raise UnsupportedFeature("reference-types", sr.pos)
            if count == 1:
                estart = sr.pos
                et = sr.byte()
                if et == 0x6F:
                    raise UnsupportedFeature("reference-types", estart)
                if et != 0x70:
                    raise MalformedBinary(estart, f"invalid element type {et:#04x}")
                lo, hi = _read_limits(sr, "table", None)
                m.table = TableSpec(lo, hi)
        elif sec_id == 5:
            count = sr.u32()
            if count > 1:
                raise UnsupportedFeature("multi-memory", sr.pos)
            if count == 1:
                lo, hi = _read_limits(sr, "memory", MAX_PAGES)
                m.memory = MemorySpec(lo, hi)
        elif sec_id == 6:
            for _ in range(sr.u32()):
                vt = sr.valtype()
                mstart = sr.pos
                mut = sr.byte()
                if mut not in (0, 1):
                    raise MalformedBinary(mstart, f"invalid mutability flag {mut:#04x}")
                init = _read_const_expr(sr, "global initializer")
                m.globals.append(GlobalSpec(vt, bool(mut), init))
        elif sec_id == 7:
            for _ in range(sr.u32()):
                name = sr.name()
                kstart = sr.pos
                kind = sr.byte()
                if kind not in _EXPORT_KINDS:
                    raise MalformedBinary(kstart, f"invalid export kind {kind:#04x}")
                idx = sr.u32()
                m.exports.append(Export(name, _EXPORT_KINDS[kind], idx))
        elif sec_id == 8:
            m.start = sr.u32()
        elif sec_id == 9:
            for _ in range(sr.u32()):
                tstart = sr.pos
                tag = sr.u32()
                if tag in (1, 2, 3):
                    raise UnsupportedFeature("bulk-memory", tstart)
                if tag in (4, 5, 6, 7):
                    raise UnsupportedFeature("reference-types", tstart)
                if tag != 0:
                    raise MalformedBinary(tstart, f"invalid element segment tag {tag}")
                offset = _read_const_expr(sr, "element offset")
                funcs = tuple(sr.u32() for _ in range(sr.u32()))
                m.elements.append(ElemSegment(offset, funcs))
        elif sec_id == 10:
            count = sr.u32()
            for _ in range(count):
                body_size = sr.u32()
                body_start = sr.pos
                body_end = body_start + body_size
                if body_end > sr.end:
                    raise MalformedBinary(body_start, "function body extends past section")
                br = Reader(data, body_start, body_end)
                locals_: list[str] = []
                for _ in range(br.u32()):
                    n = br.u32()
                    vt = br.valtype()
                    if len(locals_) + n > _MAX_LOCALS:
                        raise MalformedBinary(body_start, "too many locals")
                    locals_.extend([vt] * n)
                body = _read_instrs(br)
                if br.pos != body_end:
                    raise MalformedBinary(br.pos, "function body size mismatch")
                code_bodies.append((tuple(locals_), body))
                sr.pos = body_end
        elif sec_id == 11:
            for _ in range(sr.u32()):
                tstart = sr.pos
                tag = sr.u32()
                if tag in (1, 2):
                    raise UnsupportedFeature("bulk-memory", tstart)
                if tag != 0:
                    raise MalformedBinary(tstart, f"invalid data segment tag {tag}")
                offset = _read_const_expr(sr, "data offset")
                m.data_segments.append(DataSegment(offset, sr.take(sr.u32())))

        if sr.pos != content_end:
            raise MalformedBinary(sr.pos, f"section {sec_id} size mismatch")
        r.pos = content_end

    if len(func_type_indices) != len(code_bodies):
        raise MalformedBinary(len(data), "function and code section have inconsistent lengths")
    for tidx, (locals_, body) in zip(func_type_indices, code_bodies):
        m.functions.append(FuncBody(tidx, locals_, body))

    # remaining index range checks that need the whole module
    nfuncs = len(m.imports) + len(m.functions)
    for e in m.exports:
        limit = {
            "func": nfuncs,
            "table": 1 if m.table else 0,
            "memory": 1 if m.memory else 0,
            "global": len(m.globals),
        }[e.kind]
        if e.index >= limit:
            raise MalformedBinary(len(data), f"export {e.name!r}: unknown {e.kind} index {e.index}")
    if m.start is not None and m.start >= nfuncs:
        raise MalformedBinary(len(data), f"unknown start function index {m.start}")
    for seg in m.elements:
        if m.table is None:
            raise MalformedBinary(len(data), "element segment without table")
        for fi in seg.func_indices:
            if fi >= nfuncs:
                raise MalformedBinary(len(data), f"element segment: unknown function index {fi}")
    if m.data_segments and m.memory is None:
        raise MalformedBinary(len(data), "data segment without memory")
    return m
