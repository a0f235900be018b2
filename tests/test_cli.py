"""CLI workflows over directory-backed servers."""

import os
import shutil
import subprocess
import sys

import pytest

import porcrs
from porcrs.cli import main


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = tmp_path / "root"
    return tmp_path, root


def keygen_and_outsource(tmp_path, root, data=b"0123456789" * 60, seed=1):
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    assert main(["keygen", "--key", "client.key", "--seed", "7"]) == 0
    rc = main(
        [
            "outsource", "--root", str(root), "--meta", "file.meta",
            "--key", "client.key", "--n", "5", "--k", "3", "--stilde", "2",
            "--seed", str(seed), str(src),
        ]
    )
    assert rc == 0
    return src


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
    from porcrs import store

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


def test_repair_restores_wiped_servers(workspace, capsys):
    tmp_path, root = workspace
    data = b"A" * 997
    src = keygen_and_outsource(tmp_path, root, data=data)
    shutil.rmtree(root / "server_1")
    shutil.rmtree(root / "server_4")  # s = 2 servers gone
    rc = main(
        ["repair", "--root", str(root), "--meta", "file.meta",
         "--key", "client.key", "--out", "restored.bin"]
    )
    assert rc == 0
    assert open("restored.bin", "rb").read() == data
    assert audit(root) == 0


def test_repair_reports_unavailable(workspace, capsys):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    for j in (1, 2, 4):  # s + 1 servers gone
        shutil.rmtree(root / f"server_{j}")
    rc = main(
        ["repair", "--root", str(root), "--meta", "file.meta", "--key", "client.key"]
    )
    assert rc == 3


def test_append_then_audit_and_status(workspace, capsys):
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    row = tmp_path / "row.bin"
    row.write_bytes(b"B" * (3 * 7))
    rc = main(
        ["append", "--root", str(root), "--meta", "file.meta", "--key", "client.key",
         str(row)]
    )
    assert rc == 0
    assert audit(root) == 0
    assert main(["status", "--root", str(root), "--meta", "file.meta"]) == 0
    out = capsys.readouterr().out
    assert "ctr=2" in out


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
    out = capsys.readouterr().out
    assert "append bytes" in out


def test_cli_audit_matches_in_process_audit(workspace, capsys):
    # The CLI layer adds no protocol logic: a seeded CLI audit returns the
    # same verdicts as driving the modules directly on the same artifacts.
    tmp_path, root = workspace
    keygen_and_outsource(tmp_path, root)
    import random

    from porcrs import client, server, store
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
