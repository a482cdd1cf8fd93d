"""Any nesting depth builds: the decoder, the validator and the C emitter
each walk a function as one flat loop, so no depth reaches a recursion
limit.

Three shapes, each written in wasmgen's tree format (whose encoder is
iterative too):
- blocks: n nested result blocks, each adding 1 to its inner block's value;
- ifs: n nested ifs with else arms, the innermost reaching `unreachable`;
- br_table: n nested blocks left by one n-target br_table, the shape a
  C switch of n cases lowers to.

The front end takes depth 20000 here; building and running (cc, then Node
for reference) uses depth 5000 to keep the C compiler's time small.
"""

import pytest

from seam.codegen.ctext import CGen
from seam.wasm import decode_module, validate_module

from conftest import have_node
from diffharness import build_module_exe, run_exe_export, run_node_exports
from wasmgen import ModuleBuilder

FRONT_END_DEPTH = 20000
RUN_DEPTH = 5000


def _value(v: int) -> tuple:
    return ("value", "i32", v)


def _with_exports(b: ModuleBuilder, func: int, outcomes: dict) -> tuple[bytes, dict]:
    """Export `call<x>` = func(x) per argument x; returns the module and
    each export's expected outcome."""
    for x in outcomes:
        b.add_func([], ["i32"], [], [("i32.const", x), ("call", func)], export=f"call{x}")
    return b.build(), {f"call{x}": out for x, out in outcomes.items()}


def blocks_module(n: int) -> bytes:
    body = [("i32.const", 0)]
    for _ in range(n):
        body = [("block", "i32", body), ("i32.const", 1), ("i32.add",)]
    b = ModuleBuilder()
    b.add_func([], ["i32"], [], body, export="blocks")
    return b.build()


def ifs_module(n: int) -> tuple[bytes, dict]:
    """f(x): level k returns k when x is 0, and otherwise decrements x and
    goes one level deeper; so f(x) = x for x < n, and f(n) reaches the
    innermost unreachable."""
    body = [("unreachable",)]
    for k in reversed(range(n)):
        dec = [("local.get", 0), ("i32.const", 1), ("i32.sub",), ("local.set", 0)]
        body = [("local.get", 0), ("if", None, dec + body, [("i32.const", k), ("return",)])]
    b = ModuleBuilder()
    f = b.add_func(["i32"], ["i32"], [], body + [("i32.const", -1)])
    return _with_exports(b, f, {0: _value(0), n // 2: _value(n // 2), n - 1: _value(n - 1),
                                n: ("trap", 4)})


def br_table_module(n: int) -> tuple[bytes, dict]:
    """g(x) returns 3x + 1 from case x (the default is case n - 1), except
    that case n // 3 divides by zero."""
    body = [("local.get", 0), ("br_table", list(range(n)), n - 1)]
    for k in range(n):
        case = [("i32.const", 3 * k + 1)] if k != n // 3 else [
            ("i32.const", 1), ("i32.const", 0), ("i32.div_u",)]
        body = [("block", None, body), *case, ("return",)]
    b = ModuleBuilder()
    g = b.add_func(["i32"], ["i32"], [], body)
    return _with_exports(b, g, {0: _value(1), n // 2: _value(3 * (n // 2) + 1), n // 3: ("trap", 2),
                                n + 5: _value(3 * (n - 1) + 1)})


SHAPES = {
    "blocks": blocks_module,
    "ifs": lambda n: ifs_module(n)[0],
    "br_table": lambda n: br_table_module(n)[0],
}


@pytest.mark.parametrize("shape", SHAPES)
def test_front_end_takes_any_depth(shape):
    n = FRONT_END_DEPTH
    m = decode_module(SHAPES[shape](n))
    body = m.functions[0].body
    opened = sum(ins[0] in ("block", "if") for ins in body)
    assert opened == n
    assert sum(ins[0] == "end" for ins in body) == n + 1
    assert body[-1] == ("end",)
    src = CGen(validate_module(m)).emit()
    # every block and if gets its own label; none is cut off
    assert f"L{n - 1}_e:;" in src and f"L{n}_e:;" not in src


needs_node = pytest.mark.skipif(not have_node(), reason="reference engine unavailable")


@needs_node
@pytest.mark.parametrize("make", [ifs_module, br_table_module], ids=["ifs", "br_table"])
def test_deep_module_runs_like_the_reference(make, tmp_path):
    data, expect = make(RUN_DEPTH)
    exe = build_module_exe(data, tmp_path, "deep")
    ref = run_node_exports(tmp_path / "deep.wasm", [(name, "i") for name in expect])
    for name, outcome in expect.items():
        assert (run_exe_export(exe, name), ref[name]) == (outcome, outcome), name
