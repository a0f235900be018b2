"""CLI workflows over directory-backed servers."""

import builtins
import errno
import hashlib
import io
import os
import random
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import porcrs
from porcrs import client, harness, store
from porcrs.cli import main
from porcrs.server import Column


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = tmp_path / "root"
    yield tmp_path, root
    # Whatever a command did, it left no staged file behind.
    assert not list(tmp_path.rglob("*.staged"))


ZP = "zp:2305843009213693951"
# (field token, block size): one depot per branch of the share-file codec.
PRIME = (ZP, 4096)
BINARY = ("gf2:16", 64)


def keygen_and_outsource(tmp_path, root, data=b"0123456789" * 60, seed=1, field=PRIME):
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    assert main(["keygen", "--key", "client.key", "--seed", "7", "--field", field[0]]) == 0
    assert outsource(root, src, seed, field) == 0
    return src


def outsource(root, src, seed=1, field=PRIME):
    token, block_size = field
    return main(
        [
            "outsource", "--root", str(root), "--meta", "file.meta",
            "--key", "client.key", "--n", "5", "--k", "3", "--stilde", "2",
            "--field", token, "--block-size", str(block_size),
            "--seed", str(seed), str(src),
        ]
    )


def audit(root, extra=()):
    return main(
        ["audit", "--root", str(root), "--meta", "file.meta", "--key", "client.key",
         "--seed", "3", *extra]
    )


def test_outsource_then_audit_passes(workspace, capsys):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    assert audit(root) == 0
    out = capsys.readouterr().out
    assert "audit passed" in out


def test_flipped_share_byte_fails_audit_and_names_server(workspace, capsys):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    meta = store.read_meta("file.meta")
    victim = store.share_path(root, 2, meta.fid)
    raw = bytearray(open(victim, "rb").read())
    raw[-1] ^= 0x01
    open(victim, "wb").write(bytes(raw))
    rc = audit(root, extra=["--l", str(meta.r)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "server 2: FAIL" in out
    assert "failed for servers: 2" in out


def check_repair_restores_wiped_servers(workspace, field):
    tmp_path, root = workspace
    data = b"A" * 997
    src = keygen_and_outsource(tmp_path, root, data=data, field=field)
    shutil.rmtree(root / "server_1")
    shutil.rmtree(root / "server_4")  # s = 2 servers gone
    rc = main(
        ["repair", "--root", str(root), "--meta", "file.meta",
         "--key", "client.key", "--out", "restored.bin"]
    )
    assert rc == 0
    assert open("restored.bin", "rb").read() == data
    assert audit(root) == 0


def test_repair_restores_wiped_servers(workspace):
    check_repair_restores_wiped_servers(workspace, PRIME)


def test_repair_restores_wiped_servers_binary_field(workspace):
    check_repair_restores_wiped_servers(workspace, BINARY)


def test_repair_reports_unavailable(workspace, capsys):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    for j in (1, 2, 4):  # s + 1 servers gone
        shutil.rmtree(root / f"server_{j}")
    rc = main(
        ["repair", "--root", str(root), "--meta", "file.meta", "--key", "client.key"]
    )
    assert rc == 3


def check_append_then_audit_and_status(workspace, capsys, field):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root, field=field)
    meta = store.read_meta("file.meta")
    row = tmp_path / "row.bin"
    row.write_bytes(b"B" * (meta.k * client.block_payload_size(meta.field, meta.chunks)))
    rc = main(
        ["append", "--root", str(root), "--meta", "file.meta", "--key", "client.key",
         str(row)]
    )
    assert rc == 0
    assert audit(root) == 0
    assert main(["status", "--root", str(root), "--meta", "file.meta"]) == 0
    out = capsys.readouterr().out
    assert "ctr=2" in out


def test_append_then_audit_and_status(workspace, capsys):
    check_append_then_audit_and_status(workspace, capsys, PRIME)


def test_append_then_audit_and_status_binary_field(workspace, capsys):
    check_append_then_audit_and_status(workspace, capsys, BINARY)


def test_append_wrong_length_rejected(workspace):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    row = tmp_path / "row.bin"
    row.write_bytes(b"B" * 5)
    rc = main(
        ["append", "--root", str(root), "--meta", "file.meta", "--key", "client.key",
         str(row)]
    )
    assert rc == 6


def append_file(root, row):
    return main(
        ["append", "--root", str(root), "--meta", "file.meta", "--key", "client.key",
         str(row)]
    )


def depot_bytes(tmp_path):
    """Every file of the workspace (shares, metadata, key), by path."""
    return {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}


def write_rows(tmp_path, *fills):
    meta = store.read_meta("file.meta")
    size = meta.k * client.block_payload_size(meta.field, meta.chunks)
    rows = []
    for fill in fills:
        rows.append(tmp_path / f"row_{fill.decode()}.bin")
        rows[-1].write_bytes(fill * size)
    return rows


@pytest.mark.parametrize("field", [PRIME, BINARY], ids=["zp", "gf2:16"])
def test_interrupted_append_resumes_only_with_its_row(workspace, monkeypatch, field):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root, field=field)
    row_a, row_b = write_rows(tmp_path, b"A", b"B")
    snapshot = depot_bytes(tmp_path)
    share_bytes = store.share_bytes
    written = []

    def fail_after_two(state):
        if len(written) == 2:
            raise OSError("device gone")
        written.append(state.j)
        return share_bytes(state)

    # A write that fails after two servers are staged replaces no share and
    # leaves no staged file behind.
    monkeypatch.setattr(store, "share_bytes", fail_after_two)
    assert append_file(root, row_a) == 4
    monkeypatch.setattr(store, "share_bytes", share_bytes)
    assert len(written) == 2
    assert depot_bytes(tmp_path) == snapshot

    # An append cut off after the shares of servers 1 and 2 were replaced:
    # they hold row A at the new counter, every other file is as before.
    assert append_file(root, row_a) == 0
    meta = store.read_meta("file.meta")
    taken = {Path(store.share_path(root, j, meta.fid)) for j in (1, 2)}
    for path, data in snapshot.items():
        if path not in taken:
            path.write_bytes(data)
    assert store.read_meta("file.meta").ctr == meta.ctr - 1

    # Row B must not be counted as applied on servers 1 and 2 and go on to
    # the other servers.
    before = depot_bytes(tmp_path)
    assert append_file(root, row_b) == 8
    assert depot_bytes(tmp_path) == before

    assert append_file(root, row_a) == 0
    meta = store.read_meta("file.meta")
    assert audit(root, extra=["--l", str(meta.r)]) == 0
    assert main(
        ["repair", "--root", str(root), "--meta", "file.meta", "--key", "client.key",
         "--out", "restored.bin"]
    ) == 0
    assert open("restored.bin", "rb").read().endswith(row_a.read_bytes())


@pytest.mark.parametrize(
    "field, j", [(PRIME, 1), (PRIME, 5), (BINARY, 3)], ids=["zp-1", "zp-5", "gf2:16-3"]
)
def test_interrupted_repair_changes_nothing(workspace, monkeypatch, tmp_path_factory, field, j):
    tmp_path, root = workspace
    data = b"C" * 997
    keygen_and_outsource(tmp_path, root, data=data, field=field)
    shutil.rmtree(root / "server_1")  # repair makes its directory again
    snapshot = depot_bytes(tmp_path)
    out = tmp_path_factory.mktemp("out") / "restored.bin"
    repair = ["repair", "--root", str(root), "--meta", "file.meta", "--key", "client.key",
              "--out", str(out)]
    share_bytes = store.share_bytes
    written = []

    def fail_at_share_j(state):
        if len(written) == j - 1:
            raise OSError("device gone")
        written.append(state.j)
        return share_bytes(state)

    # Shares are staged in server order; the write of share j fails.
    monkeypatch.setattr(store, "share_bytes", fail_at_share_j)
    assert main(repair) == 4
    monkeypatch.setattr(store, "share_bytes", share_bytes)
    assert len(written) == j - 1
    assert depot_bytes(tmp_path) == snapshot  # also: no staged file is left

    assert main(repair) == 0
    assert out.read_bytes() == data
    meta = store.read_meta("file.meta")
    assert audit(root, extra=["--l", str(meta.r)]) == 0


class _DiskFullAfter7:
    """A file whose first write stores 7 bytes and then fails with ENOSPC."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:7])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("earlier", [None, b"an earlier recovery\n"], ids=["new", "earlier"])
def test_repair_output_is_written_in_one_step(workspace, monkeypatch, earlier):
    tmp_path, root = workspace
    data = b"R" * 997
    keygen_and_outsource(tmp_path, root, data=data)
    shutil.rmtree(root / "server_3")
    out = tmp_path / "out.bin"
    if earlier is not None:
        out.write_bytes(earlier)
    snapshot = depot_bytes(tmp_path)
    repair = ["repair", "--root", str(root), "--meta", "file.meta", "--key", "client.key",
              "--out", str(out)]
    real_open = builtins.open

    def open_full(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(path).startswith(out.name):
            return _DiskFullAfter7(fh)
        return fh

    monkeypatch.setattr(builtins, "open", open_full)
    assert main(repair) == 4
    monkeypatch.setattr(builtins, "open", real_open)
    # No output file (or the earlier one intact), no staged file, no share
    # or metadata changed.
    assert depot_bytes(tmp_path) == snapshot
    assert main(repair) == 0
    assert out.read_bytes() == data


def fill_disk(monkeypatch, name=""):
    """Make every write-mode open of a file whose name starts with ``name``
    store 7 bytes and then fail with ENOSPC; returns the real ``open``."""
    real_open = builtins.open

    def open_full(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(str(file)).startswith(name):
            return _DiskFullAfter7(fh)
        return fh

    monkeypatch.setattr(builtins, "open", open_full)
    monkeypatch.setattr(io, "open", open_full)  # what os.fdopen calls
    return real_open


def restore_open(monkeypatch, real_open):
    monkeypatch.setattr(builtins, "open", real_open)
    monkeypatch.setattr(io, "open", real_open)


def test_failed_keygen_leaves_no_keyfile(workspace, monkeypatch):
    # A keyfile cut after 7 bytes ("alpha=1") would fail to load, and keygen
    # would then refuse to replace it.
    tmp_path, _ = workspace
    keygen = ["keygen", "--key", "client.key", "--field", ZP, "--seed", "1"]
    real_open = fill_disk(monkeypatch)
    assert main(keygen) == 4
    restore_open(monkeypatch, real_open)
    assert list(tmp_path.iterdir()) == []
    assert main(keygen) == 0


BENCH = ["bench", "--field", "gf2:16", "--n", "5", "--k", "3", "--stilde", "2",
         "--block-size", "64", "--sizes", "4096", "--query-sizes", "2",
         "--bench-out", "bench.tsv", "--seed", "0"]


def test_failed_bench_table_write_leaves_no_table(workspace, monkeypatch):
    tmp_path, root = workspace
    real_open = fill_disk(monkeypatch, "bench.tsv")
    assert main([*BENCH, "--root", str(root)]) == 4
    restore_open(monkeypatch, real_open)
    assert list(tmp_path.iterdir()) == []


def leave_staged(*paths):
    """A staged file readable by others at each path, as a killed run
    leaves it."""
    for path in paths:
        staged = Path(store.staged_path(path))
        staged.parent.mkdir(parents=True, exist_ok=True)
        staged.write_bytes(b"left by a killed run\n")
        staged.chmod(0o644)


def test_every_written_file_is_owner_only(workspace):
    tmp_path, root = workspace
    umask = os.umask(0o022)  # a plainly created file would be 0644
    try:
        leave_staged("client.key", "file.meta")
        keygen_and_outsource(tmp_path, root)
        meta = store.read_meta("file.meta")
        shares = [store.share_path(root, j, meta.fid) for j in range(1, meta.n + 1)]
        (row,) = write_rows(tmp_path, b"A")
        leave_staged(shares[0], "file.meta")
        assert append_file(root, row) == 0
        leave_staged(shares[1], "out.bin")
        assert main(["repair", "--root", str(root), "--meta", "file.meta",
                     "--key", "client.key", "--out", "out.bin"]) == 0
        leave_staged("bench.tsv")
        assert main([*BENCH, "--root", str(root)]) == 0
        leave_staged("report.txt", "report.tsv")
        report = harness.run(harness.HarnessConfig(adversary="tamper", budget=1, epochs=2))
        harness.write_report(report, "report.txt", "report.tsv")
    finally:
        os.umask(umask)
    written = ["client.key", "file.meta", *shares, "out.bin", "bench.tsv", "report.txt",
               "report.tsv"]
    modes = {path: stat.S_IMODE(os.stat(path).st_mode) for path in written}
    assert modes == dict.fromkeys(written, 0o600)


def test_keygen_refuses_to_replace_a_key(workspace):
    keygen = ["keygen", "--key", "client.key", "--field", ZP, "--seed"]
    assert main([*keygen, "1"]) == 0
    key = Path("client.key").read_bytes()
    assert main([*keygen, "2"]) == 6
    assert Path("client.key").read_bytes() == key


# The files outsource writes, in order: the shares of servers 1..5, then
# the metadata.
@pytest.mark.parametrize("j", [1, 3, 5, 6], ids=["share-1", "share-3", "share-5", "meta"])
def test_failed_outsource_leaves_nothing(workspace, monkeypatch, j):
    tmp_path, root = workspace
    src = tmp_path / "input.bin"
    src.write_bytes(b"F" * 997)
    assert main(["keygen", "--key", "client.key", "--seed", "7", "--field", ZP]) == 0
    before = depot_bytes(tmp_path)
    opened = []

    def store_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" in mode:
            opened.append(path)
            if len(opened) == j:  # the file exists, its write fails
                fh.close()
                raise OSError(28, "No space left on device")
        return fh

    monkeypatch.setattr(store, "open", store_open, raising=False)
    assert outsource(root, src) == 4
    monkeypatch.delattr(store, "open")
    assert len(opened) == j
    # No share, no metadata and no staged file.
    assert depot_bytes(tmp_path) == before


def fail_renames_after(monkeypatch, j):
    """Make ``os.replace`` fail once it has made j renames; returns the
    real ``os.replace`` and the list of renamed paths."""
    replace, done = os.replace, []

    def replace_j(src, dst):
        if len(done) == j:
            raise OSError(5, "Input/output error")
        replace(src, dst)
        done.append(dst)

    monkeypatch.setattr(os, "replace", replace_j)
    return replace, done


# outsource renames n = 5 shares, then the metadata: rename j + 1 fails.
@pytest.mark.parametrize("j", [1, 3, 5], ids=["share-1", "share-3", "share-5"])
def test_outsource_failing_after_rename_j_leaves_nothing(workspace, monkeypatch, j):
    tmp_path, root = workspace
    src = tmp_path / "input.bin"
    src.write_bytes(b"F" * 997)
    assert main(["keygen", "--key", "client.key", "--seed", "7", "--field", ZP]) == 0
    before = depot_bytes(tmp_path)

    replace, done = fail_renames_after(monkeypatch, j)
    assert outsource(root, src) == 4
    monkeypatch.setattr(os, "replace", replace)
    assert len(done) == j
    # No share, no metadata and no staged file.
    assert depot_bytes(tmp_path) == before

    assert outsource(root, src) == 0
    meta = store.read_meta("file.meta")
    for server in range(1, meta.n + 1):
        share = Path(store.share_path(root, server, meta.fid))
        assert list(share.parent.iterdir()) == [share]
    assert audit(root, extra=["--l", str(meta.r)]) == 0


# append and repair rename n = 5 shares, then the metadata: rename j + 1 fails.
@pytest.mark.parametrize("j", range(6))
@pytest.mark.parametrize("field", [PRIME, BINARY], ids=["zp", "gf2:16"])
@pytest.mark.parametrize("command", ["append", "repair"])
def test_failure_after_rename_j(workspace, monkeypatch, tmp_path_factory, command, field, j):
    tmp_path, root = workspace
    data = b"E" * 997
    keygen_and_outsource(tmp_path, root, data=data, field=field)
    row_a, row_b = write_rows(tmp_path, b"A", b"B")
    out = tmp_path_factory.mktemp("out") / "restored.bin"
    repair = ["repair", "--root", str(root), "--meta", "file.meta", "--key", "client.key",
              "--out", str(out)]
    if command == "append":
        argv = ["append", "--root", str(root), "--meta", "file.meta", "--key", "client.key",
                str(row_a)]
    else:
        shutil.rmtree(root / "server_2")
        argv = repair
    snapshot = depot_bytes(tmp_path)

    replace, done = fail_renames_after(monkeypatch, j)
    assert main(argv) == 4
    monkeypatch.setattr(os, "replace", replace)
    assert len(done) == j
    assert not list(tmp_path.rglob("*.staged"))
    if j == 0:
        assert depot_bytes(tmp_path) == snapshot

    if command == "append":
        # Once a share holds row A, row B is refused and nothing changes.
        before = depot_bytes(tmp_path)
        assert append_file(root, row_b) == (8 if j >= 1 else 0)
        if j == 0:  # no share held row A: row B was a plain append; undo it
            for path, raw in before.items():
                path.write_bytes(raw)
        assert depot_bytes(tmp_path) == before

    assert main(argv) == 0
    meta = store.read_meta("file.meta")
    assert audit(root, extra=["--l", str(meta.r)]) == 0
    if command == "append":
        assert main(repair) == 0
        row = row_a.read_bytes()
        data = data.ljust(len(out.read_bytes()) - len(row), b"\0") + row
    assert out.read_bytes() == data


@pytest.mark.parametrize("field", [PRIME, BINARY], ids=["zp", "gf2:16"])
def test_append_with_missing_share_writes_nothing(workspace, field):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root, field=field)
    (row,) = write_rows(tmp_path, b"A")
    meta = store.read_meta("file.meta")
    os.remove(store.share_path(root, meta.n, meta.fid))
    before = depot_bytes(tmp_path)
    assert append_file(root, row) == 4
    assert depot_bytes(tmp_path) == before


def damage_share(root, meta, damage):
    """Damage the share of server n - 1, so that n - 2 servers come before it."""
    victim = store.share_path(root, meta.n - 1, meta.fid)
    raw = open(victim, "rb").read()
    if damage == "magic":
        raw = bytes([raw[0] ^ 0x01]) + raw[1:]
    elif damage == "cut":
        raw = raw[:-1]
    elif damage == "word":  # the last tag element, outside Z_p
        raw = raw[:-8] + (meta.field.order + 5).to_bytes(8, "little")
    elif damage == "data-word":  # row 1's first block element, outside Z_p
        assert meta.ktilde > 1  # so row 1 is neither the newest nor a parity row
        off = len(raw) - meta.r * 2 * meta.chunks * 8
        raw = raw[:off] + (meta.field.order + 5).to_bytes(8, "little") + raw[off + 8 :]
    elif damage == "short":  # one parity row fewer, with a consistent header
        state = store.read_share(victim)
        state.stilde -= 1
        del state.cells[-1]
        store.write_share(state, victim)
        return
    else:  # another server's share in its place
        raw = open(store.share_path(root, meta.n, meta.fid), "rb").read()
    open(victim, "wb").write(raw)


FIELD_IDS = {PRIME: "zp", BINARY: "gf2:16"}


# Every GF(2^16) word is an element, so "word" damage is zp only.
@pytest.mark.parametrize(
    "damage, code, field",
    [
        (damage, code, field)
        for damage, code in [("magic", 4), ("cut", 4), ("other-server", 8), ("short", 8)]
        for field in (PRIME, BINARY)
    ] + [("word", 4, PRIME), ("data-word", 4, PRIME)],
    ids=FIELD_IDS.get,
)
def test_append_with_damaged_share_writes_nothing(workspace, field, damage, code):
    tmp_path, root = workspace
    if damage == "data-word":  # 30 data rows
        keygen_and_outsource(tmp_path, root, data=b"D" * 630, field=field)
    else:
        keygen_and_outsource(tmp_path, root, field=field)
    (row,) = write_rows(tmp_path, b"A")
    meta = store.read_meta("file.meta")
    damage_share(root, meta, damage)
    before = depot_bytes(tmp_path)
    assert append_file(root, row) == code
    # Also no staged file: depot_bytes lists every file of the workspace.
    assert depot_bytes(tmp_path) == before


# SHA-256 of the five share files, in server order, then the metadata, after
# three `porcrs append`s (rows of A, B and C) onto keygen_and_outsource's
# depot: any change to the bytes an append writes fails here.
APPEND_DIGESTS = {
    PRIME: "0b1217d337180a84fee2c78b26b3fb4a31db15675bf548884b2ff326fa6e22bf",
    BINARY: "1f5cd3d90bd95e8a3d1d20ef52b6961fd28d427fa6dc8bd3f3b2e8f5df0707ea",
}


@pytest.mark.parametrize("field", list(APPEND_DIGESTS), ids=FIELD_IDS.get)
def test_cli_append_known_answer(workspace, field):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root, field=field)
    for row in write_rows(tmp_path, b"A", b"B", b"C"):
        assert append_file(root, row) == 0
    meta = store.read_meta("file.meta")
    assert meta.ctr == 4
    digest = hashlib.sha256()
    for j in range(1, meta.n + 1):
        digest.update(Path(store.share_path(root, j, meta.fid)).read_bytes())
    digest.update(Path("file.meta").read_bytes())
    assert digest.hexdigest() == APPEND_DIGESTS[field]


def test_status_names_mismatched_share_fields(workspace, capsys):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    meta = store.read_meta("file.meta")
    own = open(store.share_path(root, 4, meta.fid), "rb").read()
    damage_share(root, meta, "other-server")
    status = ["status", "--root", str(root), "--meta", "file.meta"]
    assert main(status) == 0
    out = capsys.readouterr().out
    assert "server 4: mismatch: j=5 (want 4)\n" in out
    assert f"server 5: ok (r={meta.r}, ctr=1)" in out

    # A share left behind by an append: its r and counter are stale.
    open(store.share_path(root, 4, meta.fid), "wb").write(own)
    stale = open(store.share_path(root, 1, meta.fid), "rb").read()
    (row,) = write_rows(tmp_path, b"A")
    assert append_file(root, row) == 0
    open(store.share_path(root, 1, meta.fid), "wb").write(stale)
    assert main(status) == 0
    out = capsys.readouterr().out
    new = store.read_meta("file.meta")
    assert f"server 1: mismatch: r={meta.r} (want {new.r}), ctr=1 (want 2)\n" in out
    assert f"server 2: ok (r={new.r}, ctr=2)" in out


def test_status_reports_parity_fraction_against_eps_p(workspace, capsys):
    tmp_path, root = workspace
    status = ["status", "--root", str(root), "--meta", "file.meta"]
    keygen_and_outsource(tmp_path, root)  # 29 data rows, 2 parity rows
    assert main(status) == 0
    out = capsys.readouterr().out
    assert "parity: stilde/r = 2/31 = 0.0645, eps_p = 0.05\n" in out
    assert "below eps_p" not in out

    # 60 data rows: 2 / 62 is under the default eps_p = 0.05.
    (tmp_path / "client.key").unlink()
    Path("file.meta").unlink()
    shutil.rmtree(root)
    keygen_and_outsource(tmp_path, root, data=b"E" * (60 * 3 * 7))  # 7 bytes a zp block
    assert main(status) == 0
    out = capsys.readouterr().out
    grown = "below eps_p, the next repair grows stilde to 7"
    assert f"parity: stilde/r = 2/62 = 0.0323, eps_p = 0.05; {grown}\n" in out
    repair = ["repair", "--root", str(root), "--meta", "file.meta", "--key", "client.key"]
    assert main([*repair, "--out", "back.bin"]) == 0
    assert store.read_meta("file.meta").stilde == 7
    assert main(status) == 0
    out = capsys.readouterr().out
    assert "parity: stilde/r = 7/67 = 0.1045, eps_p = 0.05\n" in out


def record_reads(monkeypatch) -> list:
    """Patch store.read_share to note, for each share it reads, the 1-based
    rows whose cells can be read from the column it returns."""
    noted = []
    read = store.read_share

    def recording(*args, **kwargs):
        state = read(*args, **kwargs)
        readable = []
        for i in range(1, len(state.cells) + 1):
            try:
                state.cells[i - 1]
            except LookupError:
                continue
            readable.append(i)
        noted.append(readable)
        return state

    monkeypatch.setattr(store, "read_share", recording)
    return noted


def record_decodes(monkeypatch) -> list:
    """Patch store.read_share and server.Column to note, for each share it
    reads, the column it returns and the 1-based rows of it that are
    decoded into cells or written by an insert with added words: the new
    cell and the rows that move and take the words, numbered as after the
    insert.  Each column is held, so no later one can take its place."""
    noted = []
    read, getitem, insert = store.read_share, Column.__getitem__, Column.insert

    def rows_of(column):  # None for a column no share read returned
        return next((rows for seen, rows in noted if seen is column), None)

    def reading(*args, **kwargs):
        state = read(*args, **kwargs)
        noted.append((state.cells, []))
        return state

    def decoding(self, index):
        rows = rows_of(self)
        if rows is not None:
            picked = range(1, len(self) + 1)[index]
            rows += picked if isinstance(index, slice) else [picked]
        return getitem(self, index)

    def inserting(self, index, cell, added=None):
        rows = rows_of(self)
        if rows is not None and added is not None:
            rows += range(index + 1, len(self) + 2)
        return insert(self, index, cell, added)

    monkeypatch.setattr(store, "read_share", reading)
    monkeypatch.setattr(Column, "__getitem__", decoding)
    monkeypatch.setattr(Column, "insert", inserting)
    return noted


@pytest.mark.parametrize("field", [PRIME, BINARY], ids=FIELD_IDS.get)
def test_status_reads_headers_only(workspace, capsys, monkeypatch, field):
    # status checks header, shape and file length, and decodes no cell.
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root, field=field)
    meta = store.read_meta("file.meta")
    decoded = record_reads(monkeypatch)
    status = ["status", "--root", str(root), "--meta", "file.meta"]
    victim = store.share_path(root, 2, meta.fid)
    raw = open(victim, "rb").read()
    for damaged, message in [
        (raw[:-1], "server 2: malformed: share file truncated in cell "),
        (raw + b"\0\0\0", "server 2: malformed: 3 trailing bytes after body\n"),
    ]:
        open(victim, "wb").write(damaged)
        assert main(status) == 0
        out = capsys.readouterr().out
        assert message in out
        for j in (1, 3, 4, 5):
            assert f"server {j}: ok (r={meta.r}, ctr=1)" in out
    assert decoded == [[]] * 8  # four good shares per run, no row of them read


@pytest.mark.parametrize("rows", [30, 3000])
def test_append_decodes_the_same_cells_at_any_height(workspace, monkeypatch, rows):
    # Each share's new data row is written and its stilde parity rows take
    # their deltas as words, with no cell decoded; every other word is
    # range-checked and copied as it was stored.
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root, data=b"E" * (rows * 3 * 7))  # 7 bytes a zp block
    meta = store.read_meta("file.meta")
    assert meta.ktilde == rows
    (row,) = write_rows(tmp_path, b"A")
    decoded = record_decodes(monkeypatch)
    assert append_file(root, row) == 0
    meta = store.read_meta("file.meta")
    assert [rows for _, rows in decoded] == [list(range(meta.ktilde, meta.r + 1))] * meta.n


def test_audit_sees_a_bad_word_only_in_a_challenged_cell(workspace, capsys):
    # An audit reads the challenged cells alone; a word outside Z_p in any
    # other cell waits for the audit that challenges it (or for append,
    # which checks every word, or repair, which decodes every cell).
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root, data=b"D" * 30000)
    meta = store.read_meta("file.meta")
    ((challenged, _),) = client.challenge(meta, 1, random.Random(3)).entries  # audit's seed
    unread = challenged % meta.r + 1
    assert unread != challenged
    victim = store.share_path(root, 2, meta.fid)
    raw = bytearray(open(victim, "rb").read())
    cell_bytes = 2 * meta.chunks * 8
    off = len(raw) - (meta.r - unread + 1) * cell_bytes  # the first word of that cell
    raw[off : off + 8] = (meta.field.order + 5).to_bytes(8, "little")
    open(victim, "wb").write(bytes(raw))

    assert audit(root, extra=["--l", "1"]) == 0
    assert "audit passed (1 rows challenged)" in capsys.readouterr().out
    assert audit(root, extra=["--l", str(meta.r)]) == 2
    out = capsys.readouterr().out
    assert [j for j in range(1, 6) if f"server {j}: FAIL" in out] == [2]
    assert "audit failed for servers: 2\n" in out


def test_audit_fails_a_stale_share_alone(workspace, capsys):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    meta = store.read_meta("file.meta")
    stale = open(store.share_path(root, 4, meta.fid), "rb").read()
    (row,) = write_rows(tmp_path, b"A")
    assert append_file(root, row) == 0
    open(store.share_path(root, 4, meta.fid), "wb").write(stale)
    new = store.read_meta("file.meta")
    assert new.r == meta.r + 1
    capsys.readouterr()
    # Row r is beyond the stale share: that server fails, the audit goes on.
    assert audit(root, extra=["--l", str(new.r)]) == 2
    out = capsys.readouterr().out
    assert [j for j in range(1, 6) if f"server {j}: PASS" in out] == [1, 2, 3, 5]
    assert "audit failed for servers: 4\n" in out


def test_status_lists_every_server_past_an_unreadable_share(workspace, capsys):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    meta = store.read_meta("file.meta")
    os.remove(store.share_path(root, 2, meta.fid))
    os.mkdir(store.share_path(root, 2, meta.fid))
    shutil.rmtree(root / "server_4")
    assert main(["status", "--root", str(root), "--meta", "file.meta"]) == 0
    out = capsys.readouterr().out
    assert "server 2: unreadable: " in out
    assert "server 4: missing\n" in out
    for j in (1, 3, 5):
        assert f"server {j}: ok (r={meta.r}, ctr=1)" in out


def test_malformed_meta_exit_code(workspace):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    with open("file.meta", "a") as fh:
        fh.write("bogus=1\n")
    assert audit(root) == 4


@pytest.mark.parametrize("key, value", [("n", "0"), ("c", "0"), ("k", "9"), ("ctr", "-1")])
def test_impossible_meta_exit_code(workspace, key, value):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    lines = [
        f"{key}={value}" if line.partition("=")[0] == key else line
        for line in open("file.meta").read().splitlines()
    ]
    with open("file.meta", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    row = tmp_path / "row.bin"
    row.write_bytes(bytes(3 * 7))
    common = ["--root", str(root), "--meta", "file.meta", "--key", "client.key"]
    assert audit(root) == 4
    assert main(["append", *common, str(row)]) == 4
    assert main(["repair", *common]) == 4


@pytest.mark.parametrize("field", [PRIME, BINARY], ids=["zp", "gf2:16"])
def test_alpha_zero_keyfile_exit_code(workspace, field):
    # With alpha = 0 every tag is its mask alone and any block would verify.
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root, field=field)
    kprf = open("client.key").read().splitlines()[1]
    with open("client.key", "w") as fh:
        fh.write(f"alpha=0\n{kprf}\n")
    assert audit(root) == 4


def test_meta_that_is_not_utf8_exit_code(workspace, capsys):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    lines = Path("file.meta").read_bytes().splitlines(keepends=True)
    Path("file.meta").write_bytes(b"".join([*lines[:2], b"fid=\xff\xfe\n", *lines[3:]]))
    capsys.readouterr()
    assert main(["status", "--root", str(root), "--meta", "file.meta"]) == 4
    assert "line 3: line is not UTF-8 text" in capsys.readouterr().err


def test_missing_meta_exit_code(workspace):
    tmp_path, root = workspace
    assert main(["status", "--root", str(root), "--meta", "missing.meta"]) == 4


def test_bad_field_token_exit_code(workspace):
    assert main(["keygen", "--key", "k", "--field", "zp:10"]) == 6


def test_bench_writes_table(workspace, capsys):
    tmp_path, root = workspace
    rc = main(
        ["bench", "--root", str(root), "--field", "gf2:16", "--n", "5", "--k", "3",
         "--stilde", "2", "--block-size", "64", "--sizes", "4096",
         "--query-sizes", "2,4", "--bench-out", "bench.tsv", "--seed", "0"]
    )
    assert rc == 0
    rows = open("bench.tsv").read().splitlines()
    assert rows[0] == "file_bytes\tquery_size\tphase\tseconds"
    assert any("prove" in row for row in rows)
    prf_rows = [row.split("\t") for row in rows if "\tprf_cell\t" in row]
    assert len(prf_rows) == 1
    size, l, _, secs = prf_rows[0]
    assert (size, l) == ("0", "0") and float(secs) > 0
    append_rows = [row.split("\t") for row in rows if "\tappend\t" in row]
    assert len(append_rows) == 1
    size, l, _, secs = append_rows[0]
    assert (size, l) == ("4096", "0") and float(secs) > 0
    # The median of the audits after the appends, at the first query size.
    audit_rows = [row.split("\t") for row in rows if "\taudit\t" in row]
    assert len(audit_rows) == 1
    size, l, _, secs = audit_rows[0]
    assert (size, l) == ("4096", "2") and float(secs) > 0
    # The field layer alone: one vec_combine per query size, file-independent.
    combine_rows = [row.split("\t") for row in rows if "\tcombine\t" in row]
    assert [(size, l) for size, l, _, _ in combine_rows] == [("0", "2"), ("0", "4")]
    assert all(float(secs) > 0 for *_, secs in combine_rows)
    # Processes sharing the PRF work: this toy file stays below the fork
    # threshold, so one each.
    split = {row[2]: row[3] for row in map(str.split, rows) if row[2].endswith("_processes")}
    assert split == {"outsource_processes": "1", "append_processes": "1"}
    out = capsys.readouterr().out
    assert "|F|=4096: PRF work on 1 process(es) for outsource, 1 for append" in out
    assert "append bytes" in out
    assert "us per cell of 32 chunks" in out
    assert "|F|=4096: append " in out
    assert "|F|=4096 |Q|=2: audit after the appends " in out
    assert "(uniform rows, median of 5), pass" in out and "FAIL" not in out
    assert "us over |Q|=4 rows of 64 words (median of 5)" in out


def test_outsource_refuses_an_existing_meta_before_encoding(workspace, monkeypatch, capsys):
    tmp_path, root = workspace
    src = keygen_and_outsource(tmp_path, root)
    before = depot_bytes(tmp_path)

    def encode(*args, **kwargs):
        raise AssertionError("outsource ran before the --meta check")

    monkeypatch.setattr(client, "outsource", encode)
    assert outsource(root, src, seed=2) == 6
    assert "file.meta exists" in capsys.readouterr().err
    assert depot_bytes(tmp_path) == before


def test_bench_prints_outsource_throughput(workspace, capsys):
    tmp_path, root = workspace
    rc = main(
        ["bench", "--root", str(root), "--n", "5", "--k", "3",
         "--stilde", "2", "--sizes", "2100,4200", "--query-sizes", "2",
         "--bench-out", "bench.tsv", "--seed", "0"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    seconds = {}
    for row in open("bench.tsv").read().splitlines()[1:]:
        size, _, phase, secs = row.split("\t")
        if phase == "outsource":
            seconds[int(size)] = float(secs)
    assert sorted(seconds) == [2100, 4200]
    for size, secs in seconds.items():
        line = next(line for line in out.splitlines() if line.startswith(f"|F|={size}: outsource"))
        mib_s = float(line.split("(")[1].split(" MiB/s)")[0])
        assert mib_s == pytest.approx(size / 2**20 / secs, rel=0.01, abs=0.01)


def test_cli_audit_matches_in_process_audit(workspace, capsys):
    # The CLI layer adds no protocol logic: a seeded CLI audit returns the
    # same verdicts as driving the modules directly on the same artifacts.
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    import random

    from porcrs import server
    from porcrs.auth import read_keyfile

    meta = store.read_meta("file.meta")
    victim = store.share_path(root, 3, meta.fid)
    raw = bytearray(open(victim, "rb").read())
    raw[-1] ^= 0xFF
    open(victim, "wb").write(bytes(raw))

    rc = audit(root, extra=["--l", str(meta.r)])
    out = capsys.readouterr().out
    cli_verdicts = [f"server {j}: PASS" in out for j in range(1, 6)]

    meta = store.read_meta("file.meta")
    sk = read_keyfile("client.key", meta.field)
    q = client.challenge(meta, meta.r, random.Random(3))
    proof = []
    for j in range(1, 6):
        try:
            proof.append(server.prove(store.read_share(store.share_path(root, j, meta.fid)), q))
        except Exception:
            proof.append(None)
    direct = client.verify(sk, meta, q, proof)
    assert cli_verdicts == direct
    assert rc == 2 and direct[2] is False


def test_console_entry_point_help():
    # The child imports porcrs from where this process did, installed or not.
    src = os.path.dirname(os.path.dirname(porcrs.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "porcrs.cli", "audit", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "--l" in proc.stdout


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["audit"])  # --meta is required
    assert exc.value.code == 6


@pytest.mark.parametrize("option", ["--sizes", "--query-sizes"])
@pytest.mark.parametrize("value", ["12x", "4096,0", "-1"])
def test_bench_size_lists_are_usage_errors(option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", option, value])
    assert exc.value.code == 6
    assert "positive integers" in capsys.readouterr().err
