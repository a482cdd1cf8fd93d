from .compile import (
    ObjectArtifact,
    compile_module,
    compile_wasm_file,
    write_artifact,
)
from .symbols import (
    ABI,
    ALLOWED_UNRESOLVED,
    BUCKET,
    NOSYS,
    RUNTIME_HOOKS,
    SymbolManifest,
    WASI_MODULE,
)

__all__ = [
    "ObjectArtifact",
    "SymbolManifest",
    "compile_module",
    "compile_wasm_file",
    "write_artifact",
    "ABI",
    "ALLOWED_UNRESOLVED",
    "BUCKET",
    "NOSYS",
    "RUNTIME_HOOKS",
    "WASI_MODULE",
]
