"""Just enough ELF64 reading for symbol audits.

Covers relocatable objects and executables: global symbol tables
(defined vs undefined), function addresses and sizes, the size of the
code sections, the file type, the program headers and the DT_NEEDED list
of dynamic executables.
"""

from __future__ import annotations

import struct
from pathlib import Path

_SHT_SYMTAB = 2
_SHT_DYNAMIC = 6
_SHT_DYNSYM = 11
_DT_NEEDED = 1
_STB_LOCAL = 0
STB_GLOBAL = 1
_STT_FUNC = 2
_SHN_UNDEF = 0

ET_DYN = 3  # a shared object, or a position-independent executable
PT_INTERP = 3
PT_GNU_STACK = 0x6474E551
PF_X = 1


class ElfError(Exception):
    pass


def _read(path: str | Path) -> bytes:
    data = Path(path).read_bytes()
    if data[:4] != b"\x7fELF":
        raise ElfError("not an ELF file")
    if data[4] != 2 or data[5] != 1:
        raise ElfError("only little-endian ELF64 is supported")
    return data


def _sections(data: bytes):
    e_shoff, = struct.unpack_from("<Q", data, 0x28)
    e_shentsize, e_shnum, e_shstrndx = struct.unpack_from("<HHH", data, 0x3A)
    secs = []
    for i in range(e_shnum):
        off = e_shoff + i * e_shentsize
        sh_name, sh_type = struct.unpack_from("<II", data, off)
        sh_offset, sh_size = struct.unpack_from("<QQ", data, off + 0x18)
        sh_link, = struct.unpack_from("<I", data, off + 0x28)
        sh_entsize, = struct.unpack_from("<Q", data, off + 0x38)
        secs.append({
            "name": sh_name, "type": sh_type, "offset": sh_offset, "size": sh_size,
            "link": sh_link, "entsize": sh_entsize,
        })
    names = secs[e_shstrndx]["offset"] if e_shstrndx else None
    for sec in secs:
        sec["name"] = "" if names is None else _cstr(data, names + sec["name"])
    return secs


def _cstr(data: bytes, off: int) -> str:
    end = data.index(b"\x00", off)
    return data[off:end].decode("utf-8", "replace")


def _symtab(data: bytes, types=(_SHT_SYMTAB, _SHT_DYNSYM)):
    """(name, st_info, st_shndx, st_value, st_size) of each named symbol."""
    secs = _sections(data)
    for sec in secs:
        if sec["type"] not in types:
            continue
        strtab = secs[sec["link"]]
        count = sec["size"] // sec["entsize"] if sec["entsize"] else 0
        for i in range(count):
            off = sec["offset"] + i * sec["entsize"]
            st_name, st_info = struct.unpack_from("<IB", data, off)
            st_shndx, st_value, st_size = struct.unpack_from("<HQQ", data, off + 6)
            if st_name:
                yield _cstr(data, strtab["offset"] + st_name), st_info, st_shndx, st_value, st_size


def symbols(path: str | Path) -> tuple[set[str], set[str]]:
    """Global (defined, undefined) symbol names of an object or executable."""
    defined: set[str] = set()
    undefined: set[str] = set()
    for name, info, shndx, _, _ in _symtab(_read(path)):
        if (info >> 4) != _STB_LOCAL:
            (undefined if shndx == _SHN_UNDEF else defined).add(name)
    return defined, undefined


def definitions(path: str | Path) -> list[tuple[str, int]]:
    """(name, binding) of each defined non-local symbol: STB_GLOBAL, or
    STB_WEAK (2) for a definition any strong one overrides."""
    return [(name, info >> 4) for name, info, shndx, _, _ in _symtab(_read(path))
            if (info >> 4) != _STB_LOCAL and shndx != _SHN_UNDEF]


def function_addresses(path: str | Path) -> dict[str, int]:
    """Address of each defined function in the static symbol table, local
    ones included; a name defined twice keeps its last address."""
    return {name: value for name, info, shndx, value, _ in _symtab(_read(path), (_SHT_SYMTAB,))
            if info & 0xF == _STT_FUNC and shndx != _SHN_UNDEF}


def function_sizes(path: str | Path) -> dict[str, int]:
    """Size in bytes of each defined function in the static symbol table."""
    return {name: size for name, info, shndx, _, size in _symtab(_read(path), (_SHT_SYMTAB,))
            if info & 0xF == _STT_FUNC and shndx != _SHN_UNDEF}


def text_bytes(path: str | Path) -> int:
    """Total size of the code sections, .text and every .text.*."""
    return sum(sec["size"] for sec in _sections(_read(path))
               if sec["name"] == ".text" or sec["name"].startswith(".text."))


def elf_type(path: str | Path) -> int:
    return struct.unpack_from("<H", _read(path), 0x10)[0]


def program_headers(path: str | Path) -> list[tuple[int, int]]:
    """(p_type, p_flags) of each program header."""
    data = _read(path)
    phoff, = struct.unpack_from("<Q", data, 0x20)
    phentsize, phnum = struct.unpack_from("<HH", data, 0x36)
    return [struct.unpack_from("<II", data, phoff + i * phentsize) for i in range(phnum)]


def needed_libs(path: str | Path) -> list[str]:
    """DT_NEEDED entries of a dynamically linked executable."""
    data = _read(path)
    secs = _sections(data)
    out: list[str] = []
    for sec in secs:
        if sec["type"] != _SHT_DYNAMIC:
            continue
        strtab = secs[sec["link"]]
        count = sec["size"] // 16
        for i in range(count):
            d_tag, d_val = struct.unpack_from("<qQ", data, sec["offset"] + i * 16)
            if d_tag == _DT_NEEDED:
                out.append(_cstr(data, strtab["offset"] + d_val))
    return out
