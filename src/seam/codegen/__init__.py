from .compile import (
    ObjectArtifact,
    compile_module,
    compile_wasm_file,
    host_target,
    supported_targets,
    write_artifact,
)
from .symbols import (
    ALLOWED_UNRESOLVED,
    IMPLEMENTED_WASI,
    RUNTIME_HOOKS,
    SOCK_EXTENSION,
    SymbolManifest,
    WASI_MODULE,
    WASI_PREVIEW1,
)

__all__ = [
    "ObjectArtifact",
    "SymbolManifest",
    "compile_module",
    "compile_wasm_file",
    "write_artifact",
    "host_target",
    "supported_targets",
    "ALLOWED_UNRESOLVED",
    "IMPLEMENTED_WASI",
    "RUNTIME_HOOKS",
    "SOCK_EXTENSION",
    "WASI_MODULE",
    "WASI_PREVIEW1",
]
