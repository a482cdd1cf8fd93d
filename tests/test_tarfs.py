"""tarfs: deterministic packer, the runtime's strict ustar reader, round-trip
fidelity.

The reader under test is the one executables run, runtime/c/tarfs.c, through
the ctypes facade: rt_fs_mount and rt_fs_lookup_at. Python's tarfile is the
independent oracle on both sides: it must be able to read what pack_dir
writes, and rt_fs_mount must index what tarfile writes.
"""

import ctypes
import hashlib
import io
import tarfile
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seam.errors import PathTooLong, TooManyEntries
from seam.tarfs import pack_dir

W_INVAL, W_NOENT = 28, 44


def write_tree(root, tree: dict):
    for rel, content in tree.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(content)


def pack_dir_from(tree: dict) -> bytes:
    with tempfile.TemporaryDirectory() as td:
        write_tree(Path(td), tree)
        return pack_dir(td)


def tarfile_image(members) -> bytes:
    """A ustar image written by Python's tarfile: name -> bytes, or None for a
    directory; a list of (name, data) pairs may repeat a name."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tf:
        for name, data in members.items() if isinstance(members, dict) else members:
            info = tarfile.TarInfo(name)
            if data is None:
                info.type = tarfile.DIRTYPE
                tf.addfile(info)
            else:
                info.size = len(data)
                tf.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def with_header_field(img: bytes, at: int, value: bytes) -> bytes:
    """img with the first header's bytes at `at` replaced and its checksum fixed."""
    out = bytearray(img)
    out[at : at + len(value)] = value
    chk = sum(out[:148]) + 8 * 0x20 + sum(out[156:512])
    out[148:156] = f"{chk:06o}".encode() + b"\x00 "
    return bytes(out)


def rejected(rt, capfd, img: bytes) -> str:
    """Mount img, which must fail; returns the runtime's diagnostic."""
    capfd.readouterr()
    assert rt.mount(img) == -1
    return capfd.readouterr().err


def test_pack_single_file_size_and_content(rt, tmp_path):
    write_tree(tmp_path, {"index.html": b"hello, world!"})
    img = pack_dir(tmp_path)
    assert rt.mount(img) == 0
    node, err = rt.lookup("/index.html")
    assert err == 0 and not node.is_dir
    assert node.size == 13
    assert rt.content(node) == b"hello, world!"
    # ustar stores sizes in octal ASCII: 13 -> "...015"
    assert img[124:136] == b"00000000015\x00"


def test_pack_empty_dir(rt, tmp_path):
    img = pack_dir(tmp_path)
    assert img == b"\x00" * 1024
    assert rt.mount(img) == 0
    assert rt.fs_count.value == 1  # the root alone


def test_pack_deterministic(tmp_path):
    write_tree(tmp_path, {"b.txt": b"2", "a/x.bin": bytes(300), "a/y": b"", "c": b"3"})
    assert pack_dir(tmp_path) == pack_dir(tmp_path)


def test_pack_deterministic_across_creation_order(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    write_tree(d1, {"a": b"1", "b": b"2", "sub/c": b"3"})
    # same tree, different creation order
    write_tree(d2, {"sub/c": b"3", "b": b"2", "a": b"1"})
    assert pack_dir(d1) == pack_dir(d2)


def test_python_tarfile_reads_our_archives(tmp_path):
    tree = {"www/index.html": b"<html>", "www/a/b.bin": bytes(range(256)), "top.txt": b"t"}
    write_tree(tmp_path, tree)
    img = pack_dir(tmp_path)
    with tarfile.open(fileobj=io.BytesIO(img)) as tf:
        got = {}
        for mem in tf:
            if mem.isfile():
                got[mem.name] = tf.extractfile(mem).read()
            assert mem.uid == 0 and mem.gid == 0 and mem.mtime == 0
    assert got == tree


def test_mount_reads_python_tarfile_archives(rt):
    assert rt.mount(tarfile_image({"dir": None, "dir/file.bin": b"payload" * 100})) == 0
    assert rt.lookup("/dir")[0].is_dir
    node, _ = rt.lookup("/dir/file.bin")
    assert rt.content(node) == b"payload" * 100


def test_mount_checksum_violation(rt, capfd):
    img = bytearray(pack_dir_from({"a.txt": b"x"}))
    img[0] ^= 0xFF  # corrupt the name; checksum no longer matches
    assert "tarfs: bad checksum at block 0" in rejected(rt, capfd, bytes(img))


def test_mount_truncated_entry(rt, capfd):
    img = pack_dir_from({"a.txt": b"x" * 1000})
    # header only, data missing
    assert "tarfs: truncated entry at block 0" in rejected(rt, capfd, img[:512])


def test_mount_missing_terminator(rt, capfd):
    img = pack_dir_from({"a.txt": b"x"})
    assert "tarfs: missing end-of-archive marker at block 2" in rejected(rt, capfd, img[:-1024])


def test_mount_rejects_gnu_longname(rt, capfd):
    img = with_header_field(pack_dir_from({"a.txt": b"x"}), 156, b"L")
    assert "tarfs: unsupported entry type at block 0" in rejected(rt, capfd, img)


def test_mount_rejects_bad_octal_fields(rt, capfd):
    img = pack_dir_from({"a.txt": b"x"})
    bad_size = with_header_field(img, 124, b"0000000009")
    assert "tarfs: bad size field at block 0" in rejected(rt, capfd, bad_size)
    bad_mtime = with_header_field(img, 136, b"9")
    assert "tarfs: bad mtime field at block 0" in rejected(rt, capfd, bad_mtime)


def test_mount_implied_parent_dirs(rt):
    assert rt.mount(tarfile_image({"a/b/c.txt": b"deep"})) == 0  # no explicit dir entries
    a, _ = rt.lookup("/a")
    b, _ = rt.lookup("/a/b")
    c, _ = rt.lookup("/a/b/c.txt")
    assert a.is_dir and b.is_dir
    assert c.size == 4
    assert rt.fs_nodes[c.parent].path == b"/a/b" and rt.fs_nodes[b.parent].path == b"/a"


def test_lookup_normalization(rt):
    # lookup("") is not checked here: it resolves to the base directory
    assert rt.mount(pack_dir_from({"index.html": b"x"})) == 0
    for path in ["/index.html", "/a/../index.html", "//index.html", "/./index.html", "index.html"]:
        node, err = rt.lookup(path)
        assert err == 0 and not node.is_dir, path
    assert rt.lookup("/")[0].is_dir
    assert rt.lookup("/../etc") == (None, W_INVAL)
    assert rt.lookup("/nope") == (None, W_NOENT)


def test_normalize_cases(rt):
    assert rt.mount(pack_dir_from({"a/b/x": b"", "a/c": b""})) == 0
    assert rt.lookup("/a/b/../c")[0].path == b"/a/c"
    assert rt.lookup("a//b/./")[0].path == b"/a/b"
    assert rt.lookup("/")[0].path == b"/"
    assert rt.lookup("/..") == (None, W_INVAL)
    # relative paths walk from the base directory, absolute ones from the root
    b, _ = rt.lookup("/a/b")
    assert rt.lookup("../c", base=b)[0].path == b"/a/c"
    assert rt.lookup("/a/c", base=b)[0].path == b"/a/c"
    assert rt.lookup("../../..", base=b) == (None, W_INVAL)


def test_member_names_walk_like_lookups(rt, capfd):
    # a member's ".." that stays inside the root resolves; one that leaves it
    # is a corrupt archive
    assert rt.mount(tarfile_image({"a/../b.txt": b"b", "./c/./d.txt": b"d"})) == 0
    assert rt.files() == {"/b.txt": b"b", "/c/d.txt": b"d"}
    img = tarfile_image({"ok.txt": b"", "a/../../x": b"x"})
    assert "tarfs: member escapes the root at block 1" in rejected(rt, capfd, img)


def test_path_too_long():
    deep = "d" * 99 + "/" + "n" * 120
    with pytest.raises(PathTooLong):
        pack_dir_from({deep: b"x"})


def test_long_path_with_prefix_split_ok(rt):
    # 121-byte directory path + file name: fits via the 155-byte prefix field
    long_dir = "d" * 60 + "/" + "e" * 60
    assert rt.mount(pack_dir_from({f"{long_dir}/file.txt": b"deep content"})) == 0
    assert rt.lookup(f"/{long_dir}/file.txt")[0].size == 12


def test_single_component_over_100_bytes_impossible():
    # ustar has no way to split a 120-byte single component
    with pytest.raises(PathTooLong):
        pack_dir_from({"p" * 120: b"x"})


def test_pack_path_limit_is_the_runtime_limit(rt, capfd):
    # each fits the ustar fields (155-byte prefix, 100-byte name); the
    # runtime holds "/" + the path in 255 bytes
    def path(n):
        return "a" * 100 + "/" + "b" * 54 + "/" + "c" * (n - 156)

    assert rt.mount(pack_dir_from({path(254): b"x"})) == 0
    assert rt.files() == {"/" + path(254): b"x"}
    for n in (255, 256):
        with pytest.raises(PathTooLong):
            pack_dir_from({path(n): b"x"})
        img = tarfile_image({path(n): b"x"})
        assert "tarfs: member name too long at block 0" in rejected(rt, capfd, img)


def test_pack_entry_limit_is_the_runtime_limit(rt, capfd, tmp_path):
    for i in range(8191):
        (tmp_path / f"{i:04x}").touch()
    assert rt.mount(pack_dir(tmp_path)) == 0
    assert rt.fs_count.value == 8192  # the entries and the root
    (tmp_path / "one-more").touch()
    with pytest.raises(TooManyEntries):
        pack_dir(tmp_path)
    img = tarfile_image({f"{i:04x}": b"" for i in range(8192)})
    assert "tarfs: node table full at block 8191" in rejected(rt, capfd, img)


def test_index_resolves_every_node_of_a_full_table(rt):
    # 64 implied directories and 8127 files fill all 8192 nodes; each node's
    # path must find that node, and absent paths, among them siblings that
    # differ from a present name only in the last byte, must not
    names = [f"d{i % 64:02x}/n{i:04x}" for i in range(8127)]
    assert rt.mount(tarfile_image({n: b"" for n in names})) == 0
    assert rt.fs_count.value == 8192
    for i in range(8192):
        node, err = rt.lookup(rt.fs_nodes[i].path.decode())
        assert err == 0 and ctypes.addressof(node) == ctypes.addressof(rt.fs_nodes[i])
    absent = [f"/d{i % 64:02x}/n{i:04x}" for i in range(8127, 8627)]
    absent += [f"/{n[:-1]}{'z' if n[-1] != 'z' else 'y'}" for n in names[:500]]
    for path in absent:
        assert rt.lookup(path) == (None, W_NOENT), path


def test_shadowed_entry_is_one_node_with_the_later_content(rt):
    img = tarfile_image([("a.txt", b"old"), ("b.txt", b"b"), ("a.txt", b"newer")])
    assert rt.mount(img) == 0
    assert rt.fs_count.value == 3  # the root, a.txt, b.txt
    node, _ = rt.lookup("/a.txt")
    assert ctypes.addressof(node) == ctypes.addressof(rt.fs_nodes[1])  # first position kept
    assert rt.files() == {"/a.txt": b"newer", "/b.txt": b"b"}


def test_remount_replaces_the_index(rt):
    # A has more nodes than B, so a stale index would point past B's nodes at
    # paths A left behind
    a = {f"a/{i}.txt": b"A" for i in range(50)} | {"both/x": b"Ax"}
    b = {"b.txt": b"B", "both/y": b"By"}
    assert rt.mount(tarfile_image(a)) == 0
    assert rt.mount(tarfile_image(b)) == 0
    for path in ["/a", "/a/0.txt", "/a/49.txt", "/both/x"]:
        assert rt.lookup(path) == (None, W_NOENT), path
    assert rt.files() == {"/b.txt": b"B", "/both/y": b"By"}
    for path, data in rt.files().items():
        assert rt.content(rt.lookup(path)[0]) == data


def test_index_grows_through_every_doubling_and_remount_clears_it(rt):
    # the index doubles its slots as nodes are added: counts on both sides
    # of every power of two up to the full table cross each doubling step,
    # whatever size it starts from
    def site(n):
        """n nodes: the root, directory d and n - 2 files in it, with d and
        its first file each archived twice"""
        files = [f"d/{i:04x}" for i in range(n - 2)]
        members = [("d", None), *((f, f.encode()) for f in files), ("d", None)]
        return members + [(f, b"later") for f in files[:1]], files

    for n in sorted({2**k + d for k in range(1, 13) for d in (0, 1)} | {8192}):
        members, files = site(n)
        assert rt.mount(tarfile_image(members)) == 0, n
        assert rt.fs_count.value == n
        for i in range(n):
            node, err = rt.lookup(rt.fs_nodes[i].path.decode())
            assert err == 0 and ctypes.addressof(node) == ctypes.addressof(rt.fs_nodes[i]), (n, i)
        absent = ["/e", "/d/zzzz", f"/d/{n - 2:04x}"]
        absent += [f"/{f[:-1]}{'z' if f[-1] != 'z' else 'y'}" for f in files[:300]]
        for path in absent:
            assert rt.lookup(path) == (None, W_NOENT), (n, path)
        if files:  # shadowed: one node, at its first position, with the later content
            node, _ = rt.lookup(f"/{files[0]}")
            assert ctypes.addressof(node) == ctypes.addressof(rt.fs_nodes[2])
            assert rt.content(node) == b"later"

    # a small mount after the full table finds nothing the full one held
    members, files = site(8192)
    assert rt.mount(tarfile_image(members)) == 0
    assert rt.mount(tarfile_image({"x": b"1", "y": b"2", "z": b"3"})) == 0
    assert rt.fs_count.value == 4
    for path in ["/d", *(f"/{f}" for f in files[::97])]:
        assert rt.lookup(path) == (None, W_NOENT), path
    assert rt.files() == {"/x": b"1", "/y": b"2", "/z": b"3"}


def test_mount_is_linear_in_entries(rt):
    # best of three mounts each; a linear mount reads ~10x for 10x the
    # entries, one that scans the node table per entry ~100x
    def best_mount_s(n):
        img = tarfile_image({f"f{i:05d}": b"" for i in range(n)})
        assert rt.mount(img) == 0
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            assert rt.lib.rt_fs_mount(rt.tar_image, len(img)) == 0
            times.append(time.perf_counter() - t0)
        return min(times)

    small, large = best_mount_s(819), best_mount_s(8190)
    assert large / small < 30, (small, large)


def test_zero_copy_content_is_view(rt):
    img = pack_dir_from({"a.bin": b"0123456789"})
    assert rt.mount(img) == 0
    node, _ = rt.lookup("/a.bin")
    off = ctypes.cast(node.content, ctypes.c_void_p).value - ctypes.addressof(rt.tar_image)
    assert off == 512  # right after the header, in the mounted buffer
    assert img[off : off + node.size] == rt.content(node) == b"0123456789"


def test_mount_does_not_mutate_image(rt):
    img = pack_dir_from({"x": b"abc", "y/z": b"def"})
    digest = hashlib.sha256(img).hexdigest()
    assert rt.mount(img) == 0
    assert rt.files() == {"/x": b"abc", "/y/z": b"def"}
    for path in ["/x", "/y", "/y/z", "/y/../x"]:
        rt.lookup(path)
    assert hashlib.sha256(rt.tar_image.raw).hexdigest() == digest


NAME = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-.", min_size=1, max_size=12).filter(
    lambda s: s not in (".", "..") and not s.endswith(".")
)


@st.composite
def tree_strategy(draw):
    n = draw(st.integers(1, 8))
    tree = {}
    for _ in range(n):
        depth = draw(st.integers(0, 3))
        parts = [draw(NAME) for _ in range(depth + 1)]
        rel = "/".join(parts)
        if rel in tree or any(k.startswith(rel + "/") or rel.startswith(k + "/") for k in tree):
            continue
        tree[rel] = draw(st.binary(max_size=2048))
    return tree


@given(tree_strategy())
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(rt, tmp_path_factory, tree):
    root = tmp_path_factory.mktemp("rt")
    write_tree(root, tree)
    assert rt.mount(pack_dir(root)) == 0
    assert rt.files() == {"/" + k: v for k, v in tree.items()}
