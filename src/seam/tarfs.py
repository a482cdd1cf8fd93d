"""Deterministic ustar packer for the runtime's tar filesystem.

pack_dir produces byte-identical archives for identical trees: entries
sorted by path, mtime 0, uid/gid 0, mode 0644/0755, POSIX ustar only.
The only reader is the runtime's (runtime/c/tarfs.c); pack_dir refuses
any tree that reader would reject at boot.
"""

from __future__ import annotations

from pathlib import Path

from .errors import PathTooLong, TooManyEntries

BLOCK = 512
# tarfs.c's MAX_PATH - 1 (the mounted path is "/" + the relative one) and
# MAX_NODES - 1 (the root is a node)
MAX_PATH = 254
MAX_ENTRIES = 8191


def _octal(value: int, width: int) -> bytes:
    return (f"{value:0{width - 1}o}").encode() + b"\x00"


def _split_ustar_name(name: str) -> tuple[bytes, bytes]:
    raw = name.encode("utf-8")
    if len(raw) <= 100:
        return raw, b""
    # split at the leftmost slash that leaves prefix <= 155 and name <= 100
    for cut, byte in enumerate(raw):
        if byte == ord("/") and len(raw) - cut - 1 <= 100:
            prefix, rest = raw[:cut], raw[cut + 1 :]
            if len(prefix) <= 155 and rest:
                return rest, prefix
    raise PathTooLong(name, MAX_PATH)


def _header(name: str, size: int, is_dir: bool) -> bytes:
    if is_dir:
        # trailing slash is cosmetic (typeflag marks the directory); drop it
        # when it would force an unnecessary prefix split failure
        try:
            name_field, prefix = _split_ustar_name(name + "/")
        except PathTooLong:
            name_field, prefix = _split_ustar_name(name)
    else:
        name_field, prefix = _split_ustar_name(name)
    hdr = bytearray(BLOCK)
    hdr[0:100] = name_field.ljust(100, b"\x00")
    hdr[100:108] = _octal(0o755 if is_dir else 0o644, 8)
    hdr[108:116] = _octal(0, 8)   # uid
    hdr[116:124] = _octal(0, 8)   # gid
    hdr[124:136] = _octal(size, 12)
    hdr[136:148] = _octal(0, 12)  # mtime pinned to 0 for determinism
    hdr[148:156] = b" " * 8       # checksum computed below
    hdr[156] = 0x35 if is_dir else 0x30
    hdr[257:263] = b"ustar\x00"
    hdr[263:265] = b"00"
    hdr[329:337] = _octal(0, 8)   # devmajor
    hdr[337:345] = _octal(0, 8)   # devminor
    hdr[345:500] = prefix.ljust(155, b"\x00")
    chksum = sum(hdr)
    hdr[148:156] = f"{chksum:06o}".encode() + b"\x00 "
    return bytes(hdr)


def pack(dir_path: str | Path) -> tuple[bytes, int]:
    """Pack a directory tree into a deterministic ustar image; returns the
    image and its entry count. Raises PathTooLong or TooManyEntries for a
    tree the runtime could not mount."""
    root = Path(dir_path)
    if not root.is_dir():
        raise IOError(f"not a directory: {root}")
    entries = sorted(p for p in root.rglob("*"))
    if len(entries) > MAX_ENTRIES:
        raise TooManyEntries(len(entries), MAX_ENTRIES)
    out = bytearray()
    for p in entries:
        rel = p.relative_to(root).as_posix()
        if len(rel.encode("utf-8")) > MAX_PATH:
            raise PathTooLong(rel, MAX_PATH)
        if p.is_dir():
            out += _header(rel, 0, True)
        elif p.is_file():
            data = p.read_bytes()
            out += _header(rel, len(data), False)
            out += data
            if len(data) % BLOCK:
                out += b"\x00" * (BLOCK - len(data) % BLOCK)
        else:
            raise IOError(f"unsupported entry (symlink/special): {p}")
    out += b"\x00" * (2 * BLOCK)
    return bytes(out), len(entries)


def pack_dir(dir_path: str | Path) -> bytes:
    """Pack a directory tree into a deterministic ustar image."""
    return pack(dir_path)[0]
