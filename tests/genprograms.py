"""Seeded generator of self-contained Wasm differential programs.

Each generated module carries a bank of helper functions (some reachable
through a funcref table filled by two overlapping element segments), a
memory initialized by overlapping data segments, mutable globals, an
immutable global of each type, and N nullary exported functions run_<k>
returning one value. Outcomes (result bits or trap class) are compared
between the AoT pipeline and the reference engine.

Everything is generated from the independent test-side encoder; the
generator never touches the package's decoder or codegen.
"""

from __future__ import annotations

import random

from wasmgen import ModuleBuilder

ALL_TYPES = ("i32", "i64", "f32", "f64")

I32_POOL = [0, 1, 2, -1, -2, 7, 0x7FFFFFFF, -0x80000000, 0xFFFF, 255, 65536, -12345]
I64_POOL = [0, 1, -1, 0x7FFFFFFFFFFFFFFF, -0x8000000000000000, 1 << 32, -(1 << 40), 42]
F32_BITS_POOL = [
    0x00000000, 0x80000000, 0x3F800000, 0xBF800000, 0x3F000000,  # 0,-0,1,-1,0.5
    0x7F800000, 0xFF800000, 0x7FC00000,                          # inf,-inf,nan
    0x00000001, 0x007FFFFF, 0x7F7FFFFF, 0x4B000000, 0xCB000000,
]
F64_BITS_POOL = [
    0x0000000000000000, 0x8000000000000000, 0x3FF0000000000000, 0xBFF0000000000000,
    0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
    0x0000000000000001, 0x7FEFFFFFFFFFFFFF, 0x4330000000000000, 0x3FE0000000000000,
]

I32_UNOPS = ["i32.clz", "i32.ctz", "i32.popcnt", "i32.eqz", "i32.extend8_s", "i32.extend16_s"]
I32_BINOPS = ["i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor",
              "i32.shl", "i32.shr_s", "i32.shr_u", "i32.rotl", "i32.rotr"]
I64_UNOPS = ["i64.clz", "i64.ctz", "i64.popcnt", "i64.extend8_s", "i64.extend16_s", "i64.extend32_s"]
I64_BINOPS = ["i64.add", "i64.sub", "i64.mul", "i64.and", "i64.or", "i64.xor",
              "i64.shl", "i64.shr_s", "i64.shr_u", "i64.rotl", "i64.rotr"]
F_UNOPS = ["abs", "neg", "ceil", "floor", "trunc", "nearest", "sqrt"]
F_BINOPS = ["add", "sub", "mul", "div", "min", "max", "copysign"]
CMPS = {
    "i32": ["i32.eq", "i32.ne", "i32.lt_s", "i32.lt_u", "i32.gt_s", "i32.gt_u",
            "i32.le_s", "i32.le_u", "i32.ge_s", "i32.ge_u"],
    "i64": ["i64.eq", "i64.ne", "i64.lt_s", "i64.lt_u", "i64.gt_s", "i64.gt_u",
            "i64.le_s", "i64.le_u", "i64.ge_s", "i64.ge_u"],
    "f32": ["f32.eq", "f32.ne", "f32.lt", "f32.gt", "f32.le", "f32.ge"],
    "f64": ["f64.eq", "f64.ne", "f64.lt", "f64.gt", "f64.le", "f64.ge"],
}
CONVERSIONS = {  # result type -> [(op, source type)]
    "i32": [("i32.wrap_i64", "i64"),
            ("i32.trunc_sat_f32_s", "f32"), ("i32.trunc_sat_f32_u", "f32"),
            ("i32.trunc_sat_f64_s", "f64"), ("i32.trunc_sat_f64_u", "f64"),
            ("i32.reinterpret_f32", "f32")],
    "i64": [("i64.extend_i32_s", "i32"), ("i64.extend_i32_u", "i32"),
            ("i64.trunc_sat_f32_s", "f32"), ("i64.trunc_sat_f64_u", "f64"),
            ("i64.reinterpret_f64", "f64")],
    "f32": [("f32.convert_i32_s", "i32"), ("f32.convert_i32_u", "i32"),
            ("f32.convert_i64_s", "i64"), ("f32.convert_i64_u", "i64"),
            ("f32.demote_f64", "f64"), ("f32.reinterpret_i32", "i32")],
    "f64": [("f64.convert_i32_s", "i32"), ("f64.convert_i32_u", "i32"),
            ("f64.convert_i64_s", "i64"), ("f64.convert_i64_u", "i64"),
            ("f64.promote_f32", "f32"), ("f64.reinterpret_i64", "i64")],
}
TRAPPING_TRUNCS = {
    "i32": [("i32.trunc_f32_s", "f32"), ("i32.trunc_f64_u", "f64")],
    "i64": [("i64.trunc_f64_s", "f64"), ("i64.trunc_f32_u", "f32")],
}
SIGCHAR = {"i32": "i", "i64": "I", "f32": "f", "f64": "F"}

# global indices: two mutable accumulators, then one immutable constant of
# each type
MUTABLE_GLOBAL = {"i32": 0, "i64": 1}
IMMUTABLE_GLOBAL = {t: 2 + k for k, t in enumerate(ALL_TYPES)}

# fixed local layout for generated functions (after any params)
LOCAL_TYPES = ["i32", "i32", "i64", "f32", "f64", "i32"]  # last i32 is the loop counter


class _FuncGen:
    def __init__(self, mod: "ModuleGen", params: list[str], budget: int):
        self.mod = mod
        self.rng = mod.rng
        self.params = params
        self.nlocals = len(params)
        self.local_index = {t: [] for t in ALL_TYPES}
        for i, t in enumerate(params):
            self.local_index[t].append(i)
        self.extra_base = len(params)
        # the last local is the loop counter; keep it out of the general
        # pool so generated code cannot clobber loop control
        for i, t in enumerate(LOCAL_TYPES[:-1]):
            self.local_index[t].append(self.extra_base + i)
        self.counter_local = self.extra_base + len(LOCAL_TYPES) - 1
        self.budget = budget

    def spend(self, n: int = 1) -> bool:
        self.budget -= n
        return self.budget > 0

    def const(self, t: str) -> list:
        r = self.rng
        if t == "i32":
            v = r.choice(I32_POOL) if r.random() < 0.6 else r.randint(-(2**31), 2**31 - 1)
            return [("i32.const", v)]
        if t == "i64":
            v = r.choice(I64_POOL) if r.random() < 0.6 else r.randint(-(2**63), 2**63 - 1)
            return [("i64.const", v)]
        if t == "f32":
            bits = r.choice(F32_BITS_POOL) if r.random() < 0.7 else r.getrandbits(32)
            return [("f32.const_bits", bits)]
        bits = r.choice(F64_BITS_POOL) if r.random() < 0.7 else r.getrandbits(64)
        return [("f64.const_bits", bits)]

    def addr(self) -> list:
        # masked so addr+offset stays inside the first page
        return self.expr("i32", 1) + [("i32.const", 32767), ("i32.and",)]

    def expr(self, t: str, depth: int) -> list:
        r = self.rng
        if depth <= 0 or not self.spend():
            return self.const(t)
        roll = r.random()
        if roll < 0.16:
            return self.const(t)
        if roll < 0.26:  # binop
            if t in ("i32", "i64"):
                op = r.choice(I32_BINOPS if t == "i32" else I64_BINOPS)
            else:
                op = f"{t}.{r.choice(F_BINOPS)}"
            return self.expr(t, depth - 1) + self.expr(t, depth - 1) + [(op,)]
        if roll < 0.34:  # unop
            if t == "i32":
                op = r.choice(I32_UNOPS)
                return self.expr("i32", depth - 1) + [(op,)]
            if t == "i64":
                op = r.choice(I64_UNOPS)
                return self.expr("i64", depth - 1) + [(op,)]
            op = f"{t}.{r.choice(F_UNOPS)}"
            return self.expr(t, depth - 1) + [(op,)]
        if roll < 0.40:  # conversion
            op, src = r.choice(CONVERSIONS[t])
            return self.expr(src, depth - 1) + [(op,)]
        if roll < 0.45 and t == "i32":  # comparison
            st = r.choice(ALL_TYPES)
            return self.expr(st, depth - 1) + self.expr(st, depth - 1) + [(r.choice(CMPS[st]),)]
        if roll < 0.50:  # select
            return (self.expr(t, depth - 1) + self.expr(t, depth - 1)
                    + self.expr("i32", depth - 1) + [("select",)])
        if roll < 0.56:  # if/else
            return self.expr("i32", depth - 1) + [
                ("if", t, self.expr(t, depth - 1), self.expr(t, depth - 1))
            ]
        if roll < 0.61:  # block with conditional early exit
            return [("block", t,
                     self.expr(t, depth - 1) + self.expr("i32", depth - 1)
                     + [("br_if", 0), ("drop",)] + self.expr(t, depth - 1))]
        if roll < 0.65:  # br_table across two nested blocks
            inner = (self.expr(t, depth - 1) + self.expr("i32", depth - 1)
                     + [("i32.const", 3), ("i32.and",), ("br_table", [0, 1, 0], 1)])
            return [("block", t, [("block", t, inner)])]
        if roll < 0.70:  # loads, every width/sign variant
            loads = {
                "i32": [("i32.load", 2, 4), ("i32.load8_u", 0, 1), ("i32.load8_s", 0, 2),
                        ("i32.load16_s", 1, 2), ("i32.load16_u", 1, 6)],
                "i64": [("i64.load", 3, 8), ("i64.load8_s", 0, 3), ("i64.load8_u", 0, 5),
                        ("i64.load16_s", 1, 0), ("i64.load16_u", 1, 2),
                        ("i64.load32_s", 2, 4), ("i64.load32_u", 2, 0)],
                "f32": [("f32.load", 2, 16), ("f32.load", 0, 1)],
                "f64": [("f64.load", 3, 24), ("f64.load", 1, 2)],
            }[t]
            return self.addr() + [r.choice(loads)]
        if roll < 0.745:  # local reuse
            li = r.choice(self.local_index[t])
            return [("local.get", li)]
        if roll < 0.78:  # globals: the mutable accumulators, the immutable constants
            if t in MUTABLE_GLOBAL and r.random() < 0.5:
                return [("global.get", MUTABLE_GLOBAL[t])]
            return [("global.get", IMMUTABLE_GLOBAL[t])]
        if roll < 0.84:  # division / remainder, occasionally trapping
            if t in ("i32", "i64"):
                op = r.choice([f"{t}.div_s", f"{t}.div_u", f"{t}.rem_s", f"{t}.rem_u"])
                p = r.random()
                if p < 0.80:
                    den = [(f"{t}.const", r.choice([1, 2, 3, 7, -1, 255, -12345]))]
                elif p < 0.88:
                    den = [(f"{t}.const", 0)]
                else:
                    den = self.expr(t, depth - 1)
                return self.expr(t, depth - 1) + den + [(op,)]
            return self.expr(t, depth - 1) + self.expr(t, depth - 1) + [(f"{t}.div",)]
        if roll < 0.87 and t in TRAPPING_TRUNCS:  # trapping float->int
            op, src = r.choice(TRAPPING_TRUNCS[t])
            p = r.random()
            if p < 0.72:
                operand = [(f"{src}.const", float(r.randint(0, 1000)))]
            else:
                operand = self.expr(src, depth - 1)
            return operand + [(op,)]
        if roll < 0.91 and t == "i32":  # memory.size / bounded memory.grow
            return [("memory.size",)] if r.random() < 0.7 else \
                [("i32.const", r.choice([0, 1])), ("memory.grow",)]
        if roll < 0.96 and self.mod.helpers_by_type[t]:  # direct call
            hidx, params, _ = r.choice(self.mod.helpers_by_type[t])
            out = []
            for pt in params:
                out += self.expr(pt, depth - 1)
            return out + [("call", hidx)]
        if self.mod.table_slots_by_type[t]:  # indirect call
            slot, tidx, params = r.choice(self.mod.table_slots_by_type[t])
            p = r.random()
            if p < 0.70:
                idx = slot
            elif p < 0.80:
                other = [s for s, ti, _ in self.mod.all_table_slots if ti != tidx]
                idx = r.choice(other) if other else slot
            elif p < 0.90:
                idx = r.choice(self.mod.null_slots)  # uninitialized slots
            else:
                idx = r.randint(8, 40)  # out of bounds
            out = []
            for pt in params:
                out += self.expr(pt, depth - 1)
            return out + [("i32.const", idx), ("call_indirect", tidx)]
        return self.const(t)

    def loop_expr(self, t: str) -> list:
        """Bounded accumulator loop: result collected in a local."""
        r = self.rng
        acc = r.choice(self.local_index[t])
        n = r.randint(1, 8)
        body_op = {"i32": "i32.add", "i64": "i64.xor", "f32": "f32.add", "f64": "f64.mul"}[t]
        return (
            self.expr(t, 1) + [("local.set", acc), ("i32.const", n), ("local.set", self.counter_local)]
            + [("block", None, [("loop", None,
                [("local.get", acc)] + self.expr(t, 1) + [(body_op,), ("local.set", acc),
                 ("local.get", self.counter_local), ("i32.const", 1), ("i32.sub",),
                 ("local.tee", self.counter_local), ("br_if", 0)])])]
            + [("local.get", acc)]
        )

    def statements(self) -> list:
        r = self.rng
        out: list = []
        for _ in range(r.randint(0, 3)):
            kind = r.random()
            if kind < 0.4:
                t = r.choice(ALL_TYPES)
                store = r.choice({
                    "i32": [("i32.store", 2, 8), ("i32.store8", 0, 3), ("i32.store16", 1, 10)],
                    "i64": [("i64.store", 3, 16), ("i64.store8", 0, 7),
                            ("i64.store16", 1, 18), ("i64.store32", 2, 20)],
                    "f32": [("f32.store", 2, 32)],
                    "f64": [("f64.store", 3, 40)],
                }[t])
                out += self.addr() + self.expr(t, 2) + [store]
            elif kind < 0.7:
                t = r.choice(ALL_TYPES)
                out += self.expr(t, 2) + [("local.set", r.choice(self.local_index[t]))]
            else:
                gt = r.choice(["i32", "i64"])
                out += self.expr(gt, 2) + [("global.set", MUTABLE_GLOBAL[gt])]
        return out

    def body(self, result: str) -> list:
        out = self.statements()
        r = self.rng
        if r.random() < 0.15:  # conditional early return
            out += self.expr("i32", 1) + [
                ("if", None, self.expr(result, 1) + [("return",)], []),
            ]
        if r.random() < 0.25:
            out += self.loop_expr(result)
        elif r.random() < 0.12:  # unconditional br out of a block
            out += [("block", result, self.expr(result, 2) + [("br", 0)])]
        else:
            out += self.expr(result, r.randint(2, 4))
        return out


class ModuleGen:
    def __init__(self, seed: int, n_exports: int):
        self.rng = random.Random(seed)
        self.b = ModuleBuilder()
        self.n_exports = n_exports
        self.helpers_by_type: dict[str, list] = {t: [] for t in ALL_TYPES}
        self.table_slots_by_type: dict[str, list] = {t: [] for t in ALL_TYPES}
        self.all_table_slots: list = []
        self.null_slots: list[int] = []
        self.exports: list[tuple[str, str]] = []

    def _add_helpers(self):
        r = self.rng
        helper_sigs = []
        for t in ALL_TYPES:
            nparams = r.randint(1, 3)
            params = [r.choice(ALL_TYPES) for _ in range(nparams)]
            helper_sigs.append((params, t))
        table_funcs = []
        for params, result in helper_sigs:
            fg = _FuncGen(self, params, budget=30)
            body = fg.expr(result, 2)
            idx = self.b.add_func(params, [result], LOCAL_TYPES, body)
            self.helpers_by_type[result].append((idx, params, result))
            table_funcs.append((idx, params, result))
        # bounded recursion helper: rec(n) = n <= 0 ? 1 : n * rec(n-1);
        # the index is known before the body is assembled (imports are fixed)
        rec_params = ["i32"]
        rec_idx = len(self.b.imports) + len(self.b.funcs)
        rec_body = [
            ("local.get", 0), ("i32.const", 0), ("i32.le_s",),
            ("if", "i32",
             [("i32.const", 1)],
             [("local.get", 0),
              ("local.get", 0), ("i32.const", 1), ("i32.sub",), ("call", rec_idx),
              ("i32.mul",)]),
        ]
        assert self.b.add_func(rec_params, ["i32"], [], rec_body) == rec_idx
        self.helpers_by_type["i32"].append((rec_idx, rec_params, "i32"))

        # slot 0 stays null; the first segment puts the first half of the
        # helpers at slot 1, followed by decoys (helpers of another type)
        # that the second segment overwrites with the other half
        self.b.set_table(8, 8)
        half = len(table_funcs) // 2
        decoys = [table_funcs[(half + k + 1) % len(table_funcs)][0] for k in range(r.randint(1, half))]
        self.b.add_elem(1, [idx for idx, _, _ in table_funcs[:half]] + decoys)
        self.b.add_elem(1 + half, [idx for idx, _, _ in table_funcs[half:]])
        for k, (idx, params, result) in enumerate(table_funcs):
            tidx = self.b.type_index(params, [result])
            self.table_slots_by_type[result].append((1 + k, tidx, params))
            self.all_table_slots.append((1 + k, tidx, params))
        self.null_slots = [0] + list(range(1 + len(table_funcs), 8))

    def build(self) -> tuple[bytes, list[tuple[str, str]]]:
        r = self.rng
        self.b.set_memory(1, 2)
        self.b.add_global("i32", True, ("i32.const", r.randint(-100, 100)))
        self.b.add_global("i64", True, ("i64.const", r.randint(-100, 100)))
        consts = _FuncGen(self, [], budget=0)
        for t in ALL_TYPES:
            self.b.add_global(t, False, consts.const(t)[0])
        seed_bytes = bytes(r.getrandbits(8) for _ in range(256))
        self.b.add_data(0, seed_bytes)
        for _ in range(r.randint(2, 4)):  # later segments overwrite earlier bytes
            self.b.add_data(r.randrange(0, 320), bytes(r.getrandbits(8) for _ in range(r.randint(0, 48))))
        self._add_helpers()
        for k in range(self.n_exports):
            t = r.choice(ALL_TYPES)
            name = f"run_{k}"
            if r.random() < 0.02:  # deep recursion: stack exhaustion on both sides
                body = [("i32.const", 1 << 20), ("call", self._rec_index())]
                t = "i32"
            elif r.random() < 0.03:
                body = [("unreachable",)]
                t = "i32"
            elif r.random() < 0.05:  # deliberate out-of-bounds access
                body = [("i32.const", r.choice([65533, 65536, 131068, -1])), ("i32.load", 2, 0)]
                t = "i32"
            else:
                fg = _FuncGen(self, [], budget=60)
                body = fg.body(t)
            self.b.add_func([], [t], LOCAL_TYPES, body, export=name)
            self.exports.append((name, SIGCHAR[t]))
        return self.b.build(), self.exports

    def _rec_index(self) -> int:
        for idx, params, result in self.helpers_by_type["i32"]:
            if params == ["i32"]:
                return idx
        raise AssertionError("recursion helper missing")


# operator coverage module: one export per numeric operator and per
# load/store variant, with operands chosen to avoid traps (the random
# corpus owns trap coverage)
_SAFE_OPERAND = {
    "i32": [("i32.const", 0x12345678), ("i32.const", 7), ("i32.const", -13)],
    "i64": [("i64.const", 0x123456789ABCDEF0 - 2**63), ("i64.const", 11), ("i64.const", -7)],
    "f32": [("f32.const", 123.5), ("f32.const", -0.375), ("f32.const", 2.0)],
    "f64": [("f64.const", 99.75), ("f64.const", -1234.0625), ("f64.const", 3.0)],
}

_LOADS = [
    ("i32.load", 2), ("i32.load8_s", 0), ("i32.load8_u", 0), ("i32.load16_s", 1),
    ("i32.load16_u", 1), ("i64.load", 3), ("i64.load8_s", 0), ("i64.load8_u", 0),
    ("i64.load16_s", 1), ("i64.load16_u", 1), ("i64.load32_s", 2), ("i64.load32_u", 2),
    ("f32.load", 2), ("f64.load", 3),
]
_STORES = [
    ("i32.store", 2, "i32.load", "i32"), ("i32.store8", 0, "i32.load8_u", "i32"),
    ("i32.store16", 1, "i32.load16_u", "i32"), ("i64.store", 3, "i64.load", "i64"),
    ("i64.store8", 0, "i64.load8_u", "i64"), ("i64.store16", 1, "i64.load16_u", "i64"),
    ("i64.store32", 2, "i64.load32_u", "i64"), ("f32.store", 2, "f32.load", "f32"),
    ("f64.store", 3, "f64.load", "f64"),
]


def coverage_module(seed: int) -> tuple[bytes, list[tuple[str, str]]]:
    from seam.wasm.opcodes import OPS

    # every operator with a stack effect except loads and stores, which
    # _LOADS and _STORES cover with in-bounds addresses
    rules = {n: (r.params, r.results) for n, r in OPS.items() if r.params is not None and not r.width}

    rng = random.Random(seed)
    b = ModuleBuilder()
    b.set_memory(1, 2)
    b.add_data(0, bytes(rng.getrandbits(8) for _ in range(256)))
    exports: list[tuple[str, str]] = []
    n = 0

    def add(body, result):
        nonlocal n
        name = f"cov_{n}"
        b.add_func([], [result], [], body, export=name)
        exports.append((name, SIGCHAR[result]))
        n += 1

    for op in sorted(rules):
        params, results = rules[op]
        if op.endswith(".const"):
            add([_SAFE_OPERAND[results[0]][1]], results[0])
            continue
        body = []
        for k, p in enumerate(params):
            pick = 1 if ("div" in op or "rem" in op) and k == len(params) - 1 else k % 3
            body.append(_SAFE_OPERAND[p][pick])
        if op == "memory.grow":
            body = [("i32.const", 0)]
        body.append((op,))
        add(body, results[0])

    for load, align in _LOADS:
        t = load.split(".")[0]
        add([("i32.const", rng.randrange(0, 64)), (load, align, rng.randrange(0, 8))], t)
    for store, align, back, t in _STORES:
        v = _SAFE_OPERAND[t][0]
        addr = rng.randrange(64, 128)
        add([("i32.const", addr), v, (store, align, 0),
             ("i32.const", addr), (back, align, 0)], t)
    return b.build(), exports


def generate_corpus(seed: int, n_modules: int, exports_per_module: int,
                    include_coverage: bool = True):
    """Returns [(module_bytes, [(export_name, sigchar), ...]), ...]."""
    out = []
    for k in range(n_modules):
        mg = ModuleGen(seed * 1000 + k, exports_per_module)
        out.append(mg.build())
    if include_coverage:
        out.append(coverage_module(seed))
    return out
