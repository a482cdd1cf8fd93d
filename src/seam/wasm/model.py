"""In-memory module representation produced by the decoder.

A function body is one flat list of ``(name, *immediates)`` tuples in
binary order. Structured control is marked, not nested:

    ("block", result_type)  ("loop", result_type)  ("if", result_type)
    ("else",)  ("end",)

so any nesting depth costs no recursion to walk. The function's own
closing ("end",) is the last entry. ``result_type`` is one of
"i32" | "i64" | "f32" | "f64" | None (empty).
f32/f64 const immediates hold the raw IEEE-754 bit pattern as an int so
NaN payloads survive decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

VAL_TYPES = ("i32", "i64", "f32", "f64")

PAGE_SIZE = 65536
MAX_PAGES = 65536  # 4 GiB ceiling of the 32-bit linear address space

Instr = tuple


@dataclass(frozen=True)
class FuncType:
    params: tuple[str, ...]
    results: tuple[str, ...]

    def __str__(self) -> str:
        p = ", ".join(self.params) or "()"
        r = ", ".join(self.results) or "()"
        return f"[{p}] -> [{r}]"


@dataclass(frozen=True)
class Import:
    module: str
    name: str
    type_index: int


@dataclass(frozen=True)
class Export:
    name: str
    kind: str  # "func" | "table" | "memory" | "global"
    index: int


@dataclass
class FuncBody:
    type_index: int
    locals: tuple[str, ...]  # expanded local value types, params excluded
    body: list[Instr]


@dataclass(frozen=True)
class MemorySpec:
    initial_pages: int
    max_pages: int | None  # None means the 65536-page ceiling applies

    @property
    def effective_max(self) -> int:
        return MAX_PAGES if self.max_pages is None else self.max_pages


@dataclass(frozen=True)
class TableSpec:
    initial: int
    max: int | None


@dataclass(frozen=True)
class GlobalSpec:
    valtype: str
    mutable: bool
    init: Instr  # single const instruction


@dataclass(frozen=True)
class ElemSegment:
    offset: Instr  # i32.const expression
    func_indices: tuple[int, ...]


@dataclass(frozen=True)
class DataSegment:
    offset: Instr  # i32.const expression
    data: bytes


@dataclass
class Module:
    """A fully decoded (not yet validated) Wasm module."""

    types: list[FuncType] = field(default_factory=list)
    imports: list[Import] = field(default_factory=list)
    functions: list[FuncBody] = field(default_factory=list)
    table: TableSpec | None = None
    memory: MemorySpec | None = None
    globals: list[GlobalSpec] = field(default_factory=list)
    exports: list[Export] = field(default_factory=list)
    start: int | None = None
    elements: list[ElemSegment] = field(default_factory=list)
    data_segments: list[DataSegment] = field(default_factory=list)

    @property
    def num_imported_funcs(self) -> int:
        return len(self.imports)

    def func_type(self, func_index: int) -> FuncType:
        """Signature of a function in the combined (imports-first) index space."""
        if func_index < len(self.imports):
            return self.types[self.imports[func_index].type_index]
        return self.types[self.functions[func_index - len(self.imports)].type_index]


@dataclass
class ValidatedModule:
    """A module that passed validation; content identical to .module.

    Carries the canonical signature ids: structurally identical function
    types share one id, and so one call_indirect table (ids start at 1).
    """

    module: Module
    type_ids: dict[FuncType, int]

    def __getattr__(self, name):
        return getattr(self.module, name)
