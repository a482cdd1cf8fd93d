"""Error types shared across the toolchain."""

from __future__ import annotations


class SeamError(Exception):
    """Base class for all toolchain errors."""


class MalformedBinary(SeamError):
    """The input is not a well-formed Wasm binary."""

    def __init__(self, offset: int, reason: str):
        self.offset = offset
        self.reason = reason
        super().__init__(f"malformed binary at offset {offset:#x}: {reason}")


class UnsupportedFeature(SeamError):
    """The binary uses a Wasm proposal outside the supported feature set."""

    def __init__(self, name: str, offset: int | None = None):
        self.name = name
        self.offset = offset
        where = f" at offset {offset:#x}" if offset is not None else ""
        super().__init__(f"unsupported feature: {name}{where}")


class ValidationError(SeamError):
    """A decoded module failed type checking."""

    def __init__(self, func_index: int | None, instr_index: int | None, reason: str):
        self.func_index = func_index
        self.instr_index = instr_index  # flat index into the function body
        where = "module" if func_index is None else f"func {func_index}"
        at = "-" if instr_index is None else instr_index
        super().__init__(f"validation failed in {where} at instr {at}: {reason}")


class CodegenError(SeamError):
    """Code generation could not lower the module."""


class UnsupportedImportModule(CodegenError):
    def __init__(self, module: str):
        self.module = module
        super().__init__(
            f"import module {module!r} is not supported; only wasi_snapshot_preview1 imports can be left unresolved"
        )


class AbiViolation(CodegenError):
    """An import is not an ABI function, or is imported with another type."""

    def __init__(self, name: str, reason: str):
        self.name = name
        super().__init__(f"import {name!r} {reason}")


class PathTooLong(SeamError):
    """A path cannot be stored in a ustar header (100-byte name / 155-byte
    prefix) or is longer than the runtime's limit."""

    def __init__(self, path: str, limit: int):
        self.path = path
        super().__init__(
            f"path does not fit ustar name+prefix fields or the {limit}-byte limit: {path!r}")


class TooManyEntries(SeamError):
    """A tree has more entries than the runtime's node table holds."""

    def __init__(self, count: int, limit: int):
        self.count = count
        super().__init__(f"{count} entries exceed the tar filesystem's limit of {limit}")


class LinkError(SeamError):
    """Static linking left unresolved symbols or the linker failed."""

    def __init__(self, message: str, unresolved: list[str] | None = None):
        self.unresolved = unresolved or []
        super().__init__(message)


class ToolchainMissing(LinkError):
    """The build host lacks a start file or archive the static-PIE link
    needs. No guest is at fault, so the CLI reports it as an input error
    (exit 1), like a C compiler that cannot run."""


class ProfileDisabled(SeamError):
    """The executable produced no profile report."""


class TargetUnreachable(SeamError):
    """The load generator could not reach the target URL."""
