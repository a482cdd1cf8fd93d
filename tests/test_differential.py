"""Differential semantics against the reference engine on a moderate corpus.

The full 1000-program run is the acceptance criterion (test_acceptance.py);
this module keeps a quicker 240-program pass for day-to-day runs, plus the
instruction-coverage audit of the generator.
"""

import pytest

from seam.wasm import decode_module, validate_module
from seam.wasm import opcodes as op

from conftest import have_node
from diffharness import build_module_exe, run_differential_module, run_exe_export, run_node_exports
from genprograms import generate_corpus
from wasmgen import ModuleBuilder

pytestmark = pytest.mark.skipif(not have_node(), reason="reference engine unavailable")


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(seed=1234, n_modules=10, exports_per_module=24)


def test_generated_modules_validate(corpus):
    for data, _ in corpus:
        validate_module(decode_module(data))


def test_generator_covers_instruction_set(corpus):
    """The differential corpus must exercise every numeric operator, every
    load/store variant, and the full control vocabulary."""
    seen = {ins[0] for data, _ in corpus for fb in decode_module(data).functions for ins in fb.body}
    required = set(op.TYPE_RULES) | set(op.MEM_ACCESS_WIDTH) | {
        "block", "loop", "if", "br", "br_if", "br_table", "return",
        "call", "call_indirect", "drop", "select", "unreachable",
        "local.get", "local.set", "local.tee", "global.get", "global.set",
    }
    missing = required - seen
    assert not missing, f"generator never produced: {sorted(missing)}"


def test_differential_agreement(corpus, tmp_path):
    problems = []
    total = 0
    for i, (data, exports) in enumerate(corpus):
        problems += run_differential_module(data, exports, tmp_path, f"m{i}")
        total += len(exports)
    assert total >= 240
    assert not problems, f"{len(problems)}/{total} disagreements:\n" + "\n".join(problems[:20])


def test_trap_classes_observed(corpus, tmp_path):
    """The corpus actually exercises traps, not just values (both sides
    agreeing on 'no trap anywhere' would be a weak pass)."""
    classes = set()
    for i, (data, exports) in enumerate(corpus):
        exe = tmp_path / f"m{i}"
        if not exe.exists():
            exe = build_module_exe(data, tmp_path, f"m{i}")
        for name, _sig in exports:
            out = run_exe_export(exe, name)
            if out[0] == "trap":
                classes.add(out[1])
    assert {1, 2} <= classes, f"too few trap classes seen: {classes}"


def _instantiation_trap_module(what: str) -> bytes:
    b = ModuleBuilder()
    f = b.add_func([], ["i32"], [], [("i32.const", 1)], export="run")
    if what == "data":
        b.set_memory(1, 1)
        b.add_data(65535, b"ab")  # the second byte lies past the memory's end
    else:
        b.set_table(2, 2)
        b.add_elem(1, [f, f])  # slot 2 does not exist
    return b.build()


@pytest.mark.parametrize("what, trap", [("data", 1), ("elem", 6)])
def test_instantiation_trap_matches_the_reference(what, trap, tmp_path):
    data = _instantiation_trap_module(what)
    exe = build_module_exe(data, tmp_path, what)
    assert run_exe_export(exe, "run") == ("trap", trap)
    assert run_node_exports(tmp_path / f"{what}.wasm", [("run", "i")]) == {"run": ("trap", trap)}
