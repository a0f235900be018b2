"""Every step of every commit: a failure leaves the depot checkable and the
command re-runnable.

``store.replace_files`` is the one place porcrs writes a file, so the steps
of a command are the paths it hands there: each is staged, then each is
renamed.  Each case fails one step of one command: the write of one staged
file (ENOSPC after 7 bytes), or the moment just after one rename.  Then
no staged file remains; ``status`` flags every server whose share header
disagrees with the metadata; the same command run again exits 0; and a
full-height audit passes and repair returns the file's bytes.
"""

import errno
import os
import re
import shutil

import pytest

from porcrs import client, store
from porcrs.cli import main
from porcrs.errors import FormatError

N, K, STILDE = 5, 3, 2
# (field token, block size): zp with one element per block, and gf2:8.
FIELDS = {"zp": ("zp:2305843009213693951", 7), "gf2:8": ("gf2:8", 16)}
DATA = bytes(range(7, 256, 3)) * 4
SERVERS = [f"server_{j}" for j in range(1, N + 1)]
# The paths each command hands to replace_files, in order: one name per
# path, the directory for a share.
STEPS = {
    "keygen": ["client.key"],
    "outsource": [*SERVERS, "file.meta"],
    "append": [*SERVERS, "file.meta"],
    "repair": ["out.bin", *SERVERS, "file.meta"],
}


def step_name(path) -> str:
    parent, base = os.path.split(os.fspath(path))
    return os.path.basename(parent) if base.endswith(".share") else base


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


def fail_stage(monkeypatch, index: int, hit: list):
    """Make the write of staged file ``index`` (0-based) fail."""
    opened = []

    def store_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        opened.append(path)
        if len(opened) - 1 != index:
            return fh
        hit.append(path.removesuffix(".staged"))
        return _DiskFullAfter7(fh)

    monkeypatch.setattr(store, "open", store_open, raising=False)


def fail_rename(monkeypatch, index: int, hit: list):
    """Make rename ``index`` (0-based) fail just after it is done."""
    replace, done = os.replace, []

    def replace_then_fail(src, dst):
        replace(src, dst)
        done.append(dst)
        if len(done) - 1 == index:
            hit.append(dst)
            raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, "replace", replace_then_fail)


CASES = [
    pytest.param(command, field, how, index,
                 id=f"{command}-{field}-{how}-{name}")
    for command, names in STEPS.items()
    for field in FIELDS
    for how in ("stage", "rename")
    for index, name in enumerate(names)
]


def files(tmp_path):
    return {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}


def flagged_servers(root, meta) -> set:
    """The servers whose share is missing, malformed or has a header that
    disagrees with the metadata, read apart from ``status``."""
    flagged = set()
    for j in range(1, meta.n + 1):
        try:
            state = store.read_share(store.share_path(root, j, meta.fid), ())
        except (OSError, FormatError):
            flagged.add(j)
            continue
        if (state.j, state.fid, state.r, state.ctr) != (j, meta.fid, meta.r, meta.ctr):
            flagged.add(j)
    return flagged


@pytest.mark.parametrize("command, field, how, index", CASES)
def test_failure_at_each_commit_step(tmp_path, monkeypatch, capsys, command, field, how, index):
    monkeypatch.chdir(tmp_path)
    root = tmp_path / "root"
    token, block_size = FIELDS[field]
    src = tmp_path / "input.bin"
    src.write_bytes(DATA)
    common = ["--root", str(root), "--meta", "file.meta", "--key", "client.key"]
    keygen = ["keygen", "--key", "client.key", "--seed", "7", "--field", token]
    outsource = ["outsource", *common, "--n", str(N), "--k", str(K), "--stilde", str(STILDE),
                 "--field", token, "--block-size", str(block_size), "--seed", "1", str(src)]
    repair = ["repair", *common, "--out", "out.bin"]
    argv = {"keygen": keygen, "outsource": outsource, "repair": repair}.get(command)
    expected = DATA
    if command != "keygen":
        assert main(keygen) == 0
    if command in ("append", "repair"):
        assert main(outsource) == 0
        meta = store.read_meta("file.meta")
        if command == "repair":
            shutil.rmtree(root / "server_2")
        else:
            row_size = K * client.block_payload_size(meta.field, meta.chunks)
            row = tmp_path / "row.bin"
            row.write_bytes(b"A" * row_size)
            argv = ["append", *common, str(row)]
            # A commit cut after its metadata rename is complete: the re-run
            # appends the row a second time.
            times = 2 if how == "rename" and STEPS[command][index] == "file.meta" else 1
            expected = DATA.ljust(meta.ktilde * row_size, b"\0") + b"A" * row_size * times
    before = files(tmp_path)

    hit = []
    with monkeypatch.context() as patch:
        (fail_stage if how == "stage" else fail_rename)(patch, index, hit)
        assert main(argv) == 4
    assert [step_name(path) for path in hit] == [STEPS[command][index]]
    assert not list(tmp_path.rglob("*.staged"))

    if command in ("keygen", "outsource"):
        assert files(tmp_path) == before  # all or nothing
    else:
        capsys.readouterr()
        assert main(["status", *common]) == 0
        out = capsys.readouterr().out
        meta = store.read_meta("file.meta")
        ok = {int(j) for j in re.findall(r"^server (\d+): ok ", out, re.MULTILINE)}
        assert set(range(1, N + 1)) - ok == flagged_servers(root, meta)

    assert main(argv) == 0
    if command == "keygen":
        assert main(outsource) == 0
    meta = store.read_meta("file.meta")
    assert main(["audit", *common, "--l", str(meta.r), "--seed", "3"]) == 0
    assert main(repair) == 0
    assert (tmp_path / "out.bin").read_bytes() == expected
