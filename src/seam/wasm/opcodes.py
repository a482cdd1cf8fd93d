"""The instruction table: each supported Wasm operator, stated once.

Supported: MVP core plus sign-extension operators and non-trapping
float-to-int conversions (the 0xFC 0..7 subspace). Anything else decodes
to UnsupportedFeature.

`_TABLE` has one row per operator, parsed once at import into `OPS` (by
name), `BY_BYTE` and `BY_FC` (by code). The columns:

- code: the opcode byte in hex, or `FC` and the 0xFC subopcode (`6A`, `FC00`);
- name: the text-format name, which decoded instructions carry;
- immediate: what follows the code in the binary, one of the IMM_* kinds;
- stack effect: `params -> results`, e.g. `i32 i32 -> i32`; `-` for
  control, variable access and calls, which validate.py types itself;
- C: the expression ctext.py lowers the operator to. `{0}` and `{1}` are
  the operands, deepest first. A load reads through `{p}`, the effective
  address as a `uint8_t *`; a store is a statement that writes `{v}` there.
  The `*.const` rows have none, as ctext.py formats their immediates.

decode.py reads the code and the immediate. validate.py applies any stack
effect the same way; every `memarg` and `memzero` row requires a memory,
and a `memarg` row's alignment must not exceed its `width`, which comes
from the name (`load8` is 1 byte, `store32` 4) or else from the value
type. ctext.py formats the C.

To add an operator, add its row. Only a new immediate kind needs a case in
decode.py, and only an operator without a stack effect needs its own case
in validate.py and ctext.py.
"""

from __future__ import annotations

import re
from typing import NamedTuple

# immediate kinds, as the table's third column spells them
IMM_NONE = "-"
IMM_INDEX = "u32"          # single LEB u32 index
IMM_MEMARG = "memarg"      # align u32, offset u32
IMM_BLOCK = "block"        # block type byte / s33
IMM_BR_TABLE = "brtable"   # vec(u32), u32 default
IMM_CALL_INDIRECT = "callind"  # type index u32, table index u32 (must be 0)
IMM_MEM_ZERO = "memzero"   # single 0x00 byte (memory.size/grow)
IMM_I32 = "s32"            # the *.const immediates: signed LEBs, IEEE bits
IMM_I64 = "s64"
IMM_F32 = "f32"
IMM_F64 = "f64"
_CONSTS = (IMM_I32, IMM_I64, IMM_F32, IMM_F64)
_IMMS = (IMM_NONE, IMM_INDEX, IMM_MEMARG, IMM_BLOCK, IMM_BR_TABLE, IMM_CALL_INDIRECT,
         IMM_MEM_ZERO, *_CONSTS)
_VALTYPES = ("i32", "i64", "f32", "f64")

_TABLE = """
00   unreachable          -        -
01   nop                  -        -
02   block                block    -
03   loop                 block    -
04   if                   block    -
05   else                 -        -
0B   end                  -        -
0C   br                   u32      -
0D   br_if                u32      -
0E   br_table             brtable  -
0F   return               -        -
10   call                 u32      -
11   call_indirect        callind  -
1A   drop                 -        -
1B   select               -        -
20   local.get            u32      -
21   local.set            u32      -
22   local.tee            u32      -
23   global.get           u32      -
24   global.set           u32      -
28   i32.load             memarg   i32 -> i32      ((const sr_u32u *){p})->v
29   i64.load             memarg   i32 -> i64      ((const sr_u64u *){p})->v
2A   f32.load             memarg   i32 -> f32      sr_f32_frombits(((const sr_u32u *){p})->v)
2B   f64.load             memarg   i32 -> f64      sr_f64_frombits(((const sr_u64u *){p})->v)
2C   i32.load8_s          memarg   i32 -> i32      (uint32_t)(int32_t)(int8_t)*{p}
2D   i32.load8_u          memarg   i32 -> i32      (uint32_t)*{p}
2E   i32.load16_s         memarg   i32 -> i32      (uint32_t)(int32_t)(int16_t)((const sr_u16u *){p})->v
2F   i32.load16_u         memarg   i32 -> i32      (uint32_t)((const sr_u16u *){p})->v
30   i64.load8_s          memarg   i32 -> i64      (uint64_t)(int64_t)(int8_t)*{p}
31   i64.load8_u          memarg   i32 -> i64      (uint64_t)*{p}
32   i64.load16_s         memarg   i32 -> i64      (uint64_t)(int64_t)(int16_t)((const sr_u16u *){p})->v
33   i64.load16_u         memarg   i32 -> i64      (uint64_t)((const sr_u16u *){p})->v
34   i64.load32_s         memarg   i32 -> i64      (uint64_t)(int64_t)(int32_t)((const sr_u32u *){p})->v
35   i64.load32_u         memarg   i32 -> i64      (uint64_t)((const sr_u32u *){p})->v
36   i32.store            memarg   i32 i32 ->      ((sr_u32u *){p})->v = (uint32_t){v}
37   i64.store            memarg   i32 i64 ->      ((sr_u64u *){p})->v = {v}
38   f32.store            memarg   i32 f32 ->      ((sr_u32u *){p})->v = sr_f32_tobits({v})
39   f64.store            memarg   i32 f64 ->      ((sr_u64u *){p})->v = sr_f64_tobits({v})
3A   i32.store8           memarg   i32 i32 ->      *{p} = (uint8_t){v}
3B   i32.store16          memarg   i32 i32 ->      ((sr_u16u *){p})->v = (uint16_t){v}
3C   i64.store8           memarg   i32 i64 ->      *{p} = (uint8_t){v}
3D   i64.store16          memarg   i32 i64 ->      ((sr_u16u *){p})->v = (uint16_t){v}
3E   i64.store32          memarg   i32 i64 ->      ((sr_u32u *){p})->v = (uint32_t){v}
3F   memory.size          memzero  -> i32          memory_grow(0u)
40   memory.grow          memzero  i32 -> i32      memory_grow({0})
41   i32.const            s32      -> i32
42   i64.const            s64      -> i64
43   f32.const            f32      -> f32
44   f64.const            f64      -> f64
45   i32.eqz              -        i32 -> i32      ({0} == 0u)
46   i32.eq               -        i32 i32 -> i32  ({0} == {1})
47   i32.ne               -        i32 i32 -> i32  ({0} != {1})
48   i32.lt_s             -        i32 i32 -> i32  ((int32_t){0} < (int32_t){1})
49   i32.lt_u             -        i32 i32 -> i32  ({0} < {1})
4A   i32.gt_s             -        i32 i32 -> i32  ((int32_t){0} > (int32_t){1})
4B   i32.gt_u             -        i32 i32 -> i32  ({0} > {1})
4C   i32.le_s             -        i32 i32 -> i32  ((int32_t){0} <= (int32_t){1})
4D   i32.le_u             -        i32 i32 -> i32  ({0} <= {1})
4E   i32.ge_s             -        i32 i32 -> i32  ((int32_t){0} >= (int32_t){1})
4F   i32.ge_u             -        i32 i32 -> i32  ({0} >= {1})
50   i64.eqz              -        i64 -> i32      ({0} == 0ull)
51   i64.eq               -        i64 i64 -> i32  ({0} == {1})
52   i64.ne               -        i64 i64 -> i32  ({0} != {1})
53   i64.lt_s             -        i64 i64 -> i32  ((int64_t){0} < (int64_t){1})
54   i64.lt_u             -        i64 i64 -> i32  ({0} < {1})
55   i64.gt_s             -        i64 i64 -> i32  ((int64_t){0} > (int64_t){1})
56   i64.gt_u             -        i64 i64 -> i32  ({0} > {1})
57   i64.le_s             -        i64 i64 -> i32  ((int64_t){0} <= (int64_t){1})
58   i64.le_u             -        i64 i64 -> i32  ({0} <= {1})
59   i64.ge_s             -        i64 i64 -> i32  ((int64_t){0} >= (int64_t){1})
5A   i64.ge_u             -        i64 i64 -> i32  ({0} >= {1})
5B   f32.eq               -        f32 f32 -> i32  ({0} == {1})
5C   f32.ne               -        f32 f32 -> i32  ({0} != {1})
5D   f32.lt               -        f32 f32 -> i32  ({0} < {1})
5E   f32.gt               -        f32 f32 -> i32  ({0} > {1})
5F   f32.le               -        f32 f32 -> i32  ({0} <= {1})
60   f32.ge               -        f32 f32 -> i32  ({0} >= {1})
61   f64.eq               -        f64 f64 -> i32  ({0} == {1})
62   f64.ne               -        f64 f64 -> i32  ({0} != {1})
63   f64.lt               -        f64 f64 -> i32  ({0} < {1})
64   f64.gt               -        f64 f64 -> i32  ({0} > {1})
65   f64.le               -        f64 f64 -> i32  ({0} <= {1})
66   f64.ge               -        f64 f64 -> i32  ({0} >= {1})
67   i32.clz              -        i32 -> i32      sr_i32_clz({0})
68   i32.ctz              -        i32 -> i32      sr_i32_ctz({0})
69   i32.popcnt           -        i32 -> i32      sr_i32_popcnt({0})
6A   i32.add              -        i32 i32 -> i32  {0} + {1}
6B   i32.sub              -        i32 i32 -> i32  {0} - {1}
6C   i32.mul              -        i32 i32 -> i32  {0} * {1}
6D   i32.div_s            -        i32 i32 -> i32  sr_i32_div_s({0}, {1})
6E   i32.div_u            -        i32 i32 -> i32  sr_i32_div_u({0}, {1})
6F   i32.rem_s            -        i32 i32 -> i32  sr_i32_rem_s({0}, {1})
70   i32.rem_u            -        i32 i32 -> i32  sr_i32_rem_u({0}, {1})
71   i32.and              -        i32 i32 -> i32  {0} & {1}
72   i32.or               -        i32 i32 -> i32  {0} | {1}
73   i32.xor              -        i32 i32 -> i32  {0} ^ {1}
74   i32.shl              -        i32 i32 -> i32  {0} << ({1} & 31u)
75   i32.shr_s            -        i32 i32 -> i32  (uint32_t)((int32_t){0} >> ({1} & 31u))
76   i32.shr_u            -        i32 i32 -> i32  {0} >> ({1} & 31u)
77   i32.rotl             -        i32 i32 -> i32  sr_i32_rotl({0}, {1})
78   i32.rotr             -        i32 i32 -> i32  sr_i32_rotr({0}, {1})
79   i64.clz              -        i64 -> i64      sr_i64_clz({0})
7A   i64.ctz              -        i64 -> i64      sr_i64_ctz({0})
7B   i64.popcnt           -        i64 -> i64      sr_i64_popcnt({0})
7C   i64.add              -        i64 i64 -> i64  {0} + {1}
7D   i64.sub              -        i64 i64 -> i64  {0} - {1}
7E   i64.mul              -        i64 i64 -> i64  {0} * {1}
7F   i64.div_s            -        i64 i64 -> i64  sr_i64_div_s({0}, {1})
80   i64.div_u            -        i64 i64 -> i64  sr_i64_div_u({0}, {1})
81   i64.rem_s            -        i64 i64 -> i64  sr_i64_rem_s({0}, {1})
82   i64.rem_u            -        i64 i64 -> i64  sr_i64_rem_u({0}, {1})
83   i64.and              -        i64 i64 -> i64  {0} & {1}
84   i64.or               -        i64 i64 -> i64  {0} | {1}
85   i64.xor              -        i64 i64 -> i64  {0} ^ {1}
86   i64.shl              -        i64 i64 -> i64  {0} << ({1} & 63u)
87   i64.shr_s            -        i64 i64 -> i64  (uint64_t)((int64_t){0} >> ({1} & 63u))
88   i64.shr_u            -        i64 i64 -> i64  {0} >> ({1} & 63u)
89   i64.rotl             -        i64 i64 -> i64  sr_i64_rotl({0}, {1})
8A   i64.rotr             -        i64 i64 -> i64  sr_i64_rotr({0}, {1})
8B   f32.abs              -        f32 -> f32      __builtin_fabsf({0})
8C   f32.neg              -        f32 -> f32      -{0}
8D   f32.ceil             -        f32 -> f32      sr_f32_ceil_({0})
8E   f32.floor            -        f32 -> f32      sr_f32_floor_({0})
8F   f32.trunc            -        f32 -> f32      sr_f32_trunc_({0})
90   f32.nearest          -        f32 -> f32      sr_f32_nearest_({0})
91   f32.sqrt             -        f32 -> f32      __builtin_sqrtf({0})
92   f32.add              -        f32 f32 -> f32  {0} + {1}
93   f32.sub              -        f32 f32 -> f32  {0} - {1}
94   f32.mul              -        f32 f32 -> f32  {0} * {1}
95   f32.div              -        f32 f32 -> f32  {0} / {1}
96   f32.min              -        f32 f32 -> f32  sr_f32_min({0}, {1})
97   f32.max              -        f32 f32 -> f32  sr_f32_max({0}, {1})
98   f32.copysign         -        f32 f32 -> f32  __builtin_copysignf({0}, {1})
99   f64.abs              -        f64 -> f64      __builtin_fabs({0})
9A   f64.neg              -        f64 -> f64      -{0}
9B   f64.ceil             -        f64 -> f64      sr_f64_ceil_({0})
9C   f64.floor            -        f64 -> f64      sr_f64_floor_({0})
9D   f64.trunc            -        f64 -> f64      sr_f64_trunc_({0})
9E   f64.nearest          -        f64 -> f64      sr_f64_nearest_({0})
9F   f64.sqrt             -        f64 -> f64      __builtin_sqrt({0})
A0   f64.add              -        f64 f64 -> f64  {0} + {1}
A1   f64.sub              -        f64 f64 -> f64  {0} - {1}
A2   f64.mul              -        f64 f64 -> f64  {0} * {1}
A3   f64.div              -        f64 f64 -> f64  {0} / {1}
A4   f64.min              -        f64 f64 -> f64  sr_f64_min({0}, {1})
A5   f64.max              -        f64 f64 -> f64  sr_f64_max({0}, {1})
A6   f64.copysign         -        f64 f64 -> f64  __builtin_copysign({0}, {1})
A7   i32.wrap_i64         -        i64 -> i32      (uint32_t){0}
A8   i32.trunc_f32_s      -        f32 -> i32      sr_i32_trunc_s((double){0})
A9   i32.trunc_f32_u      -        f32 -> i32      sr_i32_trunc_u((double){0})
AA   i32.trunc_f64_s      -        f64 -> i32      sr_i32_trunc_s({0})
AB   i32.trunc_f64_u      -        f64 -> i32      sr_i32_trunc_u({0})
AC   i64.extend_i32_s     -        i32 -> i64      (uint64_t)(int64_t)(int32_t){0}
AD   i64.extend_i32_u     -        i32 -> i64      (uint64_t){0}
AE   i64.trunc_f32_s      -        f32 -> i64      sr_i64_trunc_s((double){0})
AF   i64.trunc_f32_u      -        f32 -> i64      sr_i64_trunc_u((double){0})
B0   i64.trunc_f64_s      -        f64 -> i64      sr_i64_trunc_s({0})
B1   i64.trunc_f64_u      -        f64 -> i64      sr_i64_trunc_u({0})
B2   f32.convert_i32_s    -        i32 -> f32      (float)(int32_t){0}
B3   f32.convert_i32_u    -        i32 -> f32      (float){0}
B4   f32.convert_i64_s    -        i64 -> f32      (float)(int64_t){0}
B5   f32.convert_i64_u    -        i64 -> f32      (float){0}
B6   f32.demote_f64       -        f64 -> f32      (float){0}
B7   f64.convert_i32_s    -        i32 -> f64      (double)(int32_t){0}
B8   f64.convert_i32_u    -        i32 -> f64      (double){0}
B9   f64.convert_i64_s    -        i64 -> f64      (double)(int64_t){0}
BA   f64.convert_i64_u    -        i64 -> f64      (double){0}
BB   f64.promote_f32      -        f32 -> f64      (double){0}
BC   i32.reinterpret_f32  -        f32 -> i32      sr_f32_tobits({0})
BD   i64.reinterpret_f64  -        f64 -> i64      sr_f64_tobits({0})
BE   f32.reinterpret_i32  -        i32 -> f32      sr_f32_frombits({0})
BF   f64.reinterpret_i64  -        i64 -> f64      sr_f64_frombits({0})
C0   i32.extend8_s        -        i32 -> i32      (uint32_t)(int32_t)(int8_t){0}
C1   i32.extend16_s       -        i32 -> i32      (uint32_t)(int32_t)(int16_t){0}
C2   i64.extend8_s        -        i64 -> i64      (uint64_t)(int64_t)(int8_t){0}
C3   i64.extend16_s       -        i64 -> i64      (uint64_t)(int64_t)(int16_t){0}
C4   i64.extend32_s       -        i64 -> i64      (uint64_t)(int64_t)(int32_t){0}
FC00 i32.trunc_sat_f32_s  -        f32 -> i32      sr_i32_trunc_sat_s((double){0})
FC01 i32.trunc_sat_f32_u  -        f32 -> i32      sr_i32_trunc_sat_u((double){0})
FC02 i32.trunc_sat_f64_s  -        f64 -> i32      sr_i32_trunc_sat_s({0})
FC03 i32.trunc_sat_f64_u  -        f64 -> i32      sr_i32_trunc_sat_u({0})
FC04 i64.trunc_sat_f32_s  -        f32 -> i64      sr_i64_trunc_sat_s((double){0})
FC05 i64.trunc_sat_f32_u  -        f32 -> i64      sr_i64_trunc_sat_u((double){0})
FC06 i64.trunc_sat_f64_s  -        f64 -> i64      sr_i64_trunc_sat_s({0})
FC07 i64.trunc_sat_f64_u  -        f64 -> i64      sr_i64_trunc_sat_u({0})
"""


class Op(NamedTuple):
    name: str
    imm: str
    params: tuple[str, ...] | None  # None: validate.py types the operator itself
    results: tuple[str, ...]
    c: str | None                   # None: ctext.py lowers the operator itself
    width: int                      # bytes a memarg row accesses; 0 for the rest
    memory: bool                    # requires the module's memory


def _parse(table: str) -> tuple[dict[str, Op], dict[int, Op], dict[int, Op]]:
    ops, by_byte, by_fc = {}, {}, {}
    for line in table.strip().splitlines():
        cells = line.split()
        code, name, imm = cells[:3]
        if imm not in _IMMS:
            raise ValueError(f"opcode row {name}: unknown immediate {imm!r}")
        params, results, n = None, (), 4
        if cells[3] != "-":
            arrow = cells.index("->")
            n = arrow + 1
            while n < len(cells) and cells[n] in _VALTYPES:
                n += 1
            params, results = tuple(cells[3:arrow]), tuple(cells[arrow + 1:n])
            if not set(params) <= set(_VALTYPES):
                raise ValueError(f"opcode row {name}: bad stack effect")
        c = line.split(None, n)[n] if n < len(cells) else None
        if (c is None) != (params is None or imm in _CONSTS):
            raise ValueError(f"opcode row {name}: a C template goes with each non-const stack effect")
        width = 0
        if imm == IMM_MEMARG:
            m = re.fullmatch(r"[if](32|64)\.(?:load|store)(8|16|32)?(?:_[su])?", name)
            if m is None:
                raise ValueError(f"opcode row {name}: no access width")
            width = int(m[2] or m[1]) // 8
        row = Op(name, imm, params, results, c, width, imm in (IMM_MEMARG, IMM_MEM_ZERO))
        ops[name] = row
        if code.startswith("FC"):
            by_fc[int(code[2:], 16)] = row
        else:
            by_byte[int(code, 16)] = row
    return ops, by_byte, by_fc


OPS, BY_BYTE, BY_FC = _parse(_TABLE)

# opcode prefixes / leading bytes that identify known out-of-scope proposals,
# so rejection can name the feature instead of calling the byte malformed
PROPOSAL_OPCODES: dict[int, str] = {
    0x06: "exception-handling",
    0x07: "exception-handling",
    0x08: "exception-handling",
    0x09: "exception-handling",
    0x0A: "exception-handling",
    0x12: "tail-call",
    0x13: "tail-call",
    0x14: "function-references",
    0x19: "exception-handling",
    0x1C: "reference-types",
    0x25: "reference-types",
    0x26: "reference-types",
    0xD0: "reference-types",
    0xD1: "reference-types",
    0xD2: "reference-types",
    0xFD: "simd",
    0xFE: "threads",
}
