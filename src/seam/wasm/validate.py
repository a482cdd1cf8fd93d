"""Type checking per the core validation rules.

Runs the usual two-stack algorithm (value stack with an Unknown marker for
unreachable code, control-frame stack for labels) in one pass over the
flat instruction list the decoder produces, as the spec's appendix does.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from . import opcodes as op
from .model import FuncType, Module, ValidatedModule

_UNKNOWN = None  # value-stack entry of unknowable type inside dead code


@dataclass
class _Frame:
    kind: str  # "func" | "block" | "loop" | "if" | "else"
    end_types: tuple[str, ...]
    height: int
    unreachable: bool = False

    @property
    def label_types(self) -> tuple[str, ...]:
        # a branch to a loop re-enters the top, which takes no values in MVP
        return () if self.kind == "loop" else self.end_types


class _FuncChecker:
    def __init__(self, m: Module, func_index: int):
        self.m = m
        self.func_index = func_index
        ftype = m.func_type(func_index)
        body = m.functions[func_index - m.num_imported_funcs]
        self.locals = ftype.params + body.locals
        self.results = ftype.results
        self.vals: list[str | None] = []
        self.ctrls: list[_Frame] = [_Frame("func", self.results, 0)]
        self.at = 0  # flat index of the instruction being checked

    def fail(self, reason: str):
        raise ValidationError(self.func_index, self.at, reason)

    # -- stack primitives ------------------------------------------------

    def push(self, *types: str | None):
        self.vals.extend(types)

    def pop_any(self) -> str | None:
        frame = self.ctrls[-1]
        if len(self.vals) == frame.height:
            if frame.unreachable:
                return _UNKNOWN
            self.fail("stack underflow")
        return self.vals.pop()

    def pop(self, expect: str) -> None:
        got = self.pop_any()
        if got is not _UNKNOWN and got != expect:
            self.fail(f"type mismatch: expected {expect}, got {got}")

    def pop_many(self, types: tuple[str, ...]):
        for t in reversed(types):
            self.pop(t)

    def set_unreachable(self):
        frame = self.ctrls[-1]
        del self.vals[frame.height :]
        frame.unreachable = True

    def push_frame(self, kind: str, end_types: tuple[str, ...]):
        self.ctrls.append(_Frame(kind, end_types, len(self.vals)))

    def pop_frame(self) -> _Frame:
        frame = self.ctrls[-1]
        self.pop_many(frame.end_types)
        if len(self.vals) != frame.height:
            self.fail("values remaining on stack at end of block")
        self.ctrls.pop()
        return frame

    def label(self, depth: int) -> _Frame:
        if depth >= len(self.ctrls):
            self.fail(f"branch depth {depth} exceeds nesting {len(self.ctrls) - 1}")
        return self.ctrls[-1 - depth]

    # -- instruction dispatch ---------------------------------------------

    def check(self, instr: tuple):
        name = instr[0]

        row = op.OPS[name]
        if row.params is not None:
            if row.memory and self.m.memory is None:
                self.fail(f"{name} without memory")
            if row.width and (1 << instr[1]) > row.width:
                self.fail(f"{name}: alignment 2**{instr[1]} exceeds natural alignment {row.width}")
            self.pop_many(row.params)
            self.push(*row.results)
            return

        if name == "nop":
            return
        if name == "unreachable":
            self.set_unreachable()
            return
        if name in ("block", "loop", "if"):
            if name == "if":
                self.pop("i32")
            rt = instr[1]
            self.push_frame(name, (rt,) if rt else ())
            return
        if name == "else":
            # the decoder admits an else only right inside an if
            self.push_frame("else", self.pop_frame().end_types)
            return
        if name == "end":
            frame = self.pop_frame()
            if frame.kind == "if" and frame.end_types:
                self.fail("if with a result has no else")
            self.push(*frame.end_types)
            return
        if name == "br":
            frame = self.label(instr[1])
            self.pop_many(frame.label_types)
            self.set_unreachable()
            return
        if name == "br_if":
            self.pop("i32")
            frame = self.label(instr[1])
            self.pop_many(frame.label_types)
            self.push(*frame.label_types)
            return
        if name == "br_table":
            targets, default = instr[1], instr[2]
            self.pop("i32")
            expected = self.label(default).label_types
            for t in targets:
                if self.label(t).label_types != expected:
                    self.fail("br_table targets have inconsistent label types")
            self.pop_many(expected)
            self.set_unreachable()
            return
        if name == "return":
            self.pop_many(self.results)
            self.set_unreachable()
            return
        if name == "call":
            idx = instr[1]
            if idx >= self.m.num_imported_funcs + len(self.m.functions):
                self.fail(f"call to unknown function {idx}")
            sig = self.m.func_type(idx)
            self.pop_many(sig.params)
            self.push(*sig.results)
            return
        if name == "call_indirect":
            if self.m.table is None:
                self.fail("call_indirect without table")
            tidx = instr[1]
            if tidx >= len(self.m.types):
                self.fail(f"call_indirect to unknown type {tidx}")
            sig = self.m.types[tidx]
            self.pop("i32")
            self.pop_many(sig.params)
            self.push(*sig.results)
            return
        if name == "drop":
            self.pop_any()
            return
        if name == "select":
            self.pop("i32")
            a = self.pop_any()
            b = self.pop_any()
            if a is not _UNKNOWN and b is not _UNKNOWN and a != b:
                self.fail(f"select operands differ: {a} vs {b}")
            self.push(a if a is not _UNKNOWN else b)
            return
        if name in ("local.get", "local.set", "local.tee"):
            idx = instr[1]
            if idx >= len(self.locals):
                self.fail(f"unknown local {idx}")
            vt = self.locals[idx]
            if name == "local.get":
                self.push(vt)
            elif name == "local.set":
                self.pop(vt)
            else:
                self.pop(vt)
                self.push(vt)
            return
        if name in ("global.get", "global.set"):
            idx = instr[1]
            if idx >= len(self.m.globals):
                self.fail(f"unknown global {idx}")
            g = self.m.globals[idx]
            if name == "global.get":
                self.push(g.valtype)
            else:
                if not g.mutable:
                    self.fail(f"global.set on immutable global {idx}")
                self.pop(g.valtype)
            return
        self.fail(f"unhandled instruction {name}")  # pragma: no cover

    def run(self):
        body = self.m.functions[self.func_index - self.m.num_imported_funcs]
        # the function's own final end closes the func frame
        for self.at, instr in enumerate(body.body):
            self.check(instr)


def _check_const(m: Module, instr: tuple, expect: str, what: str):
    name = instr[0]
    if name == "global.get":
        # MVP allows only imported immutable globals here, and function-only
        # imports are admitted, so no global can ever be referenced
        raise ValidationError(None, None, f"{what}: global.get is not a supported constant")
    const_type = name.split(".")[0]
    if const_type != expect:
        raise ValidationError(None, None, f"{what}: expected {expect} constant, got {name}")


def validate_module(m: Module) -> ValidatedModule:
    """Type-check a decoded module; returns it marked validated."""
    seen_exports: set[str] = set()
    for e in m.exports:
        if e.name in seen_exports:
            raise ValidationError(None, None, f"duplicate export name {e.name!r}")
        seen_exports.add(e.name)

    for i, g in enumerate(m.globals):
        _check_const(m, g.init, g.valtype, f"global {i} initializer")
    for i, seg in enumerate(m.elements):
        _check_const(m, seg.offset, "i32", f"element segment {i} offset")
    for i, seg in enumerate(m.data_segments):
        _check_const(m, seg.offset, "i32", f"data segment {i} offset")

    if m.start is not None:
        sig = m.func_type(m.start)
        if sig.params or sig.results:
            raise ValidationError(None, None, f"start function must be [] -> [], got {sig}")

    for func_index in range(m.num_imported_funcs, m.num_imported_funcs + len(m.functions)):
        _FuncChecker(m, func_index).run()

    type_ids: dict[FuncType, int] = {}
    for t in m.types:
        if t not in type_ids:
            type_ids[t] = len(type_ids) + 1
    return ValidatedModule(m, type_ids)
