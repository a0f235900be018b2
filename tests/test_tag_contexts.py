"""Tag-context oracle: no server ever sees two blocks under one context.

A tag is PRF(fid, row, server, ctr) + alpha * block.  A server that holds
two different blocks under one context (fid, row, server, ctr) learns
alpha = (sigma_1 - sigma_2) / (m_1 - m_2) and can then forge a tag for any
block.  The oracle records every share a server directory ever holds:
after each command it reads every file under ``server_*``, and it catches
every staged share at ``store.replace_files``, including those removed
again when a command fails.  Rows up to the header's ktilde are data rows,
tagged at counter 0; the rows above are parity, tagged at the header's ctr.

Sequences with an interrupted command are marked xfail: an interrupted
``append`` leaves shares one row ahead of the metadata, and the repair or
append that follows reissues those contexts with other blocks (ROADMAP,
"Interrupted commands must never reissue a tag context").
"""

import os
from pathlib import Path

import pytest

from porcrs import store
from porcrs.cli import main

N, K, STILDE = 5, 3, 2
# (field token, block size): zp with one element per block, and gf2:16.
FIELDS = {"zp": ("zp:2305843009213693951", 7), "gf2:16": ("gf2:16", 64)}


class ContextReused(AssertionError):
    """One tag context was issued with two different blocks."""


class Oracle:
    """(fid, server, row, ctr) -> block bytes, over every share seen."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.blocks = {}
        self.reused = set()

    def record(self, state) -> None:
        fld = state.field
        for i, (block, _) in enumerate(state.cells, 1):
            ctr = 0 if i <= state.ktilde else state.ctr
            key = (state.fid, state.j, i, ctr)
            raw = fld.vectors_to_words([block], state.chunks).tobytes()
            if self.blocks.setdefault(key, raw) != raw:
                self.reused.add(key)

    def record_bytes(self, data: bytes) -> None:
        path = self.scratch / "seen.share"
        path.write_bytes(data)
        self.record(store.read_share(path))

    def record_depot(self, root: Path) -> None:
        for path in sorted(root.glob("server_*/*")):
            self.record(store.read_share(path))

    def check(self) -> None:
        if self.reused:
            shown = sorted((j, i, ctr) for _, j, i, ctr in self.reused)
            raise ContextReused(f"(server, row, ctr) with two blocks: {shown}")


@pytest.fixture()
def depot(tmp_path, monkeypatch, tmp_path_factory):
    """Runs porcrs commands in tmp_path and records every share."""
    monkeypatch.chdir(tmp_path)
    root = tmp_path / "root"
    oracle = Oracle(tmp_path_factory.mktemp("oracle"))
    replace_files = store.replace_files

    def recording(stages):
        def watch(path, stage):
            def run():
                data = stage()
                if data is not None and Path(path).parent.name.startswith("server_"):
                    oracle.record_bytes(data)
                return data
            return run

        replace_files({path: watch(path, stage) for path, stage in stages.items()})

    monkeypatch.setattr(store, "replace_files", recording)

    def porcrs(command, *args):
        common = ["--root", str(root), "--meta", "file.meta", "--key", "client.key"]
        code = main([command, *common, *map(str, args)])
        oracle.record_depot(root)
        return code

    return tmp_path, porcrs, oracle


def start(tmp_path, porcrs, field):
    """Key, a 3,000-byte file outsourced at eps_p = 0.005, and rows A and B."""
    token, block_size = FIELDS[field]
    assert main(["keygen", "--key", "client.key", "--seed", "7", "--field", token]) == 0
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(256)) * 11 + bytes(184))
    assert porcrs("outsource", "--n", N, "--k", K, "--stilde", STILDE, "--field", token,
                  "--block-size", block_size, "--eps-p", "0.005", "--seed", 1, src) == 0
    rows = []
    for fill in b"AB":
        rows.append(tmp_path / f"row_{chr(fill)}.bin")
        rows[-1].write_bytes(bytes([fill]) * (K * block_size))
    return rows


def fail_metadata_rename(monkeypatch):
    """Make the sixth rename (after n = 5 shares, the metadata) fail once."""
    replace, done = os.replace, []

    def replace_5(src, dst):
        if len(done) == N:
            done.append(dst)
            raise OSError(5, "Input/output error")
        replace(src, dst)
        done.append(dst)

    monkeypatch.setattr(os, "replace", replace_5)
    return replace


@pytest.mark.parametrize("field", FIELDS)
def test_clean_sequence_reuses_no_context(depot, field):
    tmp_path, porcrs, oracle = depot
    row_a, row_b = start(tmp_path, porcrs, field)
    assert porcrs("append", row_a) == 0
    assert porcrs("audit", "--l", 5, "--seed", 3) == 0
    assert porcrs("repair", "--out", tmp_path / "out.bin") == 0
    assert porcrs("append", row_b) == 0
    assert oracle.blocks  # the oracle saw shares: it is not vacuous
    oracle.check()


INTERRUPTED = pytest.mark.xfail(
    raises=ContextReused, strict=True,
    reason="ROADMAP: interrupted commands must never reissue a tag context",
)


@INTERRUPTED
@pytest.mark.parametrize("then_append", [False, True], ids=["repair", "repair-append"])
@pytest.mark.parametrize("field", FIELDS)
def test_interrupted_append_then_repair(depot, monkeypatch, field, then_append):
    tmp_path, porcrs, oracle = depot
    row_a, row_b = start(tmp_path, porcrs, field)
    replace = fail_metadata_rename(monkeypatch)
    assert porcrs("append", row_a) == 4
    monkeypatch.setattr(os, "replace", replace)
    assert porcrs("repair", "--out", tmp_path / "out.bin") == 0
    if then_append:
        # Only what append B adds: it writes B where the shares held A.
        oracle.reused.clear()
        assert porcrs("append", row_b) == 0
    oracle.check()


@pytest.mark.parametrize("taken", ["fid", "meta"])
@pytest.mark.parametrize("field", FIELDS)
def test_outsource_refuses_a_taken_fid_or_metadata_path(depot, field, taken):
    # One --seed gives one fid: a second file under it would be tagged
    # under the first file's contexts.  An existing --meta would be orphaned.
    tmp_path, porcrs, oracle = depot
    start(tmp_path, porcrs, field)
    token, block_size = FIELDS[field]
    other = tmp_path / "other.bin"
    other.write_bytes(bytes(range(255, -1, -1)) * 11 + bytes(184))
    seed, meta = (1, "other.meta") if taken == "fid" else (2, "file.meta")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert porcrs("outsource", "--n", N, "--k", K, "--stilde", STILDE, "--field", token,
                  "--block-size", block_size, "--eps-p", "0.005", "--seed", seed,
                  "--meta", meta, other) == 6
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    oracle.check()
    r = store.read_meta(tmp_path / "file.meta").r
    assert porcrs("audit", "--l", r, "--seed", 3) == 0
