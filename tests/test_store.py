"""Persistence: bit-exact round trips and strictness under corruption."""

import dataclasses
import hashlib
import os
import random
import struct

import pytest

from porcrs import client, server, store
from porcrs.client import outsource, setup
from porcrs.errors import FormatError, MetaFormatError, ParameterError
from porcrs.field import binary_field, prime_field

M61 = prime_field()
GF8 = binary_field(8)
GF16 = binary_field(16)


def build_states(fld, rng, block_size=64, rows=3):
    sk, params = setup(fld, 5, 3, 2, block_size=block_size, rng=rng)
    payload = client.block_payload_size(
        fld, client.chunks_per_block(fld, block_size)
    )
    data = rng.randbytes(rows * 3 * payload)
    meta, shares = outsource(sk, params, data, rng=rng)
    return meta, client.make_server_states(meta, shares)


# build_states shares have r = 5.  Every reader check runs on a whole read
# and on a read of the last, first and middle rows, one of them repeated.
ROWS = [5, 1, 3, 1]
READS = (
    store.read_share,
    lambda path: store.read_share(path, ROWS),
)


def assert_unreadable(path, match=None):
    """Every read raises the same FormatError."""
    messages = []
    for read in READS:
        with pytest.raises(FormatError, match=match) as caught:
            read(path)
        messages.append(str(caught.value))
    assert len(set(messages)) == 1


@pytest.mark.parametrize("fld", [M61, GF8, GF16], ids=lambda f: f.token)
def test_share_round_trip_bit_exact(fld, tmp_path):
    rng = random.Random(0)
    meta, states = build_states(fld, rng)
    for state in states:
        path = tmp_path / f"{state.j}.share"
        store.write_share(state, path)
        loaded = store.read_share(path)
        assert loaded.j == state.j
        assert loaded.fid == state.fid
        assert loaded.ktilde == state.ktilde
        assert loaded.stilde == state.stilde
        assert loaded.ctr == state.ctr
        assert loaded.chunks == state.chunks
        assert loaded.field is state.field
        for a, b in zip(loaded.cells, state.cells):
            assert fld.vec_eq(a[0], b[0]) and fld.vec_eq(a[1], b[1])
        # writing the loaded state reproduces the file byte for byte
        path2 = tmp_path / f"{state.j}.share2"
        store.write_share(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_share_serialization_is_canonical(tmp_path):
    rng = random.Random(1)
    _, states = build_states(M61, rng)
    a, b = tmp_path / "a", tmp_path / "b"
    store.write_share(states[0], a)
    store.write_share(states[0], b)
    assert a.read_bytes() == b.read_bytes()


def test_share_bad_magic(tmp_path):
    rng = random.Random(2)
    _, states = build_states(M61, rng)
    path = tmp_path / "x.share"
    store.write_share(states[0], path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    assert_unreadable(path, "bad magic")


def test_share_bad_version(tmp_path):
    rng = random.Random(3)
    _, states = build_states(M61, rng)
    path = tmp_path / "x.share"
    store.write_share(states[0], path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    assert_unreadable(path, "version 99")


def test_share_trailing_garbage(tmp_path):
    rng = random.Random(4)
    _, states = build_states(M61, rng)
    path = tmp_path / "x.share"
    store.write_share(states[0], path)
    path.write_bytes(path.read_bytes() + b"\x00")
    assert_unreadable(path, "1 trailing bytes")


@pytest.mark.parametrize("fld", [M61, GF8, GF16], ids=lambda f: f.token)
def test_share_truncation_fuzz(fld, tmp_path):
    rng = random.Random(5)
    _, states = build_states(fld, rng)
    path = tmp_path / "x.share"
    store.write_share(states[1], path)
    raw = path.read_bytes()
    for _ in range(250):
        cut = rng.randrange(len(raw))
        path.write_bytes(raw[:cut])
        assert_unreadable(path)


def check_prime_element_out_of_range(tmp_path, cell, half):
    rng = random.Random(6)
    _, states = build_states(M61, rng)
    assert states[0].r == 5 and states[0].chunks == 1
    path = tmp_path / "x.share"
    store.write_share(states[0], path)
    raw = bytearray(path.read_bytes())
    off = len(raw) - 5 * 16 + cell * 16 + half * 8  # 5 cells of two 8-byte words
    raw[off : off + 8] = (M61.order + 5).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    assert cell + 1 in ROWS
    assert_unreadable(path, "outside")
    # A row read that leaves the bad cell out does not see it.
    others = [i for i in range(1, 6) if i != cell + 1]
    partial = store.read_share(path, others)
    assert [partial.cells[i - 1] for i in others] == [states[0].cells[i - 1] for i in others]


def test_share_prime_element_out_of_range(tmp_path):
    check_prime_element_out_of_range(tmp_path, 4, 1)  # the last tag


@pytest.mark.parametrize("cell, half", [(0, 0), (2, 1)], ids=["first-block", "middle-tag"])
def test_share_prime_element_out_of_range_inner(tmp_path, cell, half):
    check_prime_element_out_of_range(tmp_path, cell, half)


@pytest.mark.parametrize("fld", [M61, GF8, GF16], ids=lambda f: f.token)
def test_row_read_matches_whole_read(fld, tmp_path):
    rng = random.Random(22)
    _, states = build_states(fld, rng, rows=9)
    path = tmp_path / "x.share"
    store.write_share(states[2], path)
    whole = store.read_share(path)
    r = whole.r
    assert r == 11
    header = ("j", "fid", "field", "ktilde", "stilde", "ctr", "chunks")
    for _ in range(40):
        rows = rng.choices(range(1, r + 1), k=rng.randrange(1, r))
        rows += [1, r, rows[0]]  # the first row, the last row and a repeat
        rng.shuffle(rows)
        part = store.read_share(path, rows)
        assert [getattr(part, a) for a in header] == [getattr(whole, a) for a in header]
        assert len(part.cells) == r
        for i in rows:
            for got, want in zip(part.cells[i - 1], whole.cells[i - 1]):
                assert type(got) is type(want) and fld.vec_eq(got, want)
        for i in set(range(1, r + 1)) - set(rows):
            with pytest.raises(LookupError, match=f"row {i} was not read"):
                part.cells[i - 1]


@pytest.mark.parametrize("fld", [M61, GF8, GF16], ids=lambda f: f.token)
def test_append_read_writes_back_what_a_whole_read_does(fld, tmp_path):
    rng = random.Random(24)
    sk, params = setup(fld, 5, 3, 2, block_size=64, rng=rng)
    payload = 3 * client.block_payload_size(fld, client.chunks_per_block(fld, 64))
    meta, shares = outsource(sk, params, rng.randbytes(9 * payload), rng=rng)
    path = tmp_path / "x.share"
    # The state written, kept in memory, against the same share read back.
    whole = client.make_server_states(meta, shares)[2]
    store.write_share(whole, path)
    raw = path.read_bytes()
    tail = store.read_share(path)
    assert (whole.ktilde, whole.r) == (9, 11)
    assert store.share_bytes(tail) == raw
    for i in range(1, whole.r + 1):
        for got, want in zip(tail.cells[i - 1], whole.cells[i - 1]):
            assert type(got) is type(want) and fld.vec_eq(got, want)
    with pytest.raises(IndexError, match="row 12 out of range 1..11"):
        tail.cells[11]
    # Two appends later both serialize to the same bytes.
    for _ in range(2):
        row = client.row_blocks_from_payload(meta, rng.randbytes(payload))
        order = client.append(sk, meta, row)[2]
        server.apply_append(whole, order)
        server.apply_append(tail, order)
        assert store.share_bytes(tail) == store.share_bytes(whole)
    assert fld.vec_eq(tail.cells[8][0], whole.cells[8][0])


@pytest.mark.parametrize("fld", [M61, GF8], ids=lambda f: f.token)
def test_whole_read_takes_an_append_in_place(fld, tmp_path):
    # A whole read keeps room for one more row, so apply_append neither
    # regrows nor copies the column it read.
    rng = random.Random(25)
    sk, params = setup(fld, 5, 3, 2, block_size=64, rng=rng)
    payload = 3 * client.block_payload_size(fld, client.chunks_per_block(fld, 64))
    meta, shares = outsource(sk, params, rng.randbytes(9 * payload), rng=rng)
    path = tmp_path / "x.share"
    store.write_share(client.make_server_states(meta, shares)[2], path)
    state = store.read_share(path)
    words = state.cells.words
    assert len(words) == state.r + 1
    order = client.append(sk, meta, client.row_blocks_from_payload(meta, rng.randbytes(payload)))[2]
    server.apply_append(state, order)
    assert state.cells.words is words and len(state.cells) == len(words)
    assert fld.vec_eq(state.cells[state.ktilde - 1][0], order.new_block)


def test_partial_share_never_answers_for_an_unread_row(tmp_path):
    _, states = build_states(M61, random.Random(23))
    path = tmp_path / "x.share"
    store.write_share(states[0], path)
    part = store.read_share(path, [2])
    # Not zero-filled as a wiped cell would be.
    with pytest.raises(LookupError, match="row 1 was not read"):
        server.prove(part, client.ChallengeSet(epoch=0, entries=((2, 1), (1, 1))))
    assert server.prove(part, client.ChallengeSet(epoch=0, entries=((2, 1),))) == states[0].cells[1]
    with pytest.raises(ParameterError, match="read at some rows"):
        store.write_share(part, tmp_path / "y.share")
    assert os.listdir(tmp_path) == ["x.share"]
    for row in (0, 6):
        with pytest.raises(ParameterError, match=f"row {row} out of range 1..5"):
            store.read_share(path, [1, row])


# SHA-256 of the five share files of build_states(fld, random.Random(19)),
# concatenated in server order: any change to the bytes on disk fails here.
SHARE_DIGESTS = {
    M61: "6a3d7c54359aaf29ae5151a889a392ae06e9bcdbcedbcf447e2334fdfeb1c2c0",
    GF8: "9f47e84d86d3972a032bd82c1afdc18f8c1c90a0c0b04f02bd9ce319085c8272",
    GF16: "103ef692c2b5eff6cd7ced6df791f7b40c1b86d7020d37cd8ea681fba4bb26f5",
}


@pytest.mark.parametrize("fld", list(SHARE_DIGESTS), ids=lambda f: f.token)
def test_share_known_answer(fld, tmp_path):
    _, states = build_states(fld, random.Random(19))
    digest = hashlib.sha256()
    for state in states:
        path = tmp_path / f"{state.j}.share"
        store.write_share(state, path)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == SHARE_DIGESTS[fld]


# SHA-256 of the write_meta text of build_states(fld, random.Random(19)).
META_DIGESTS = {
    M61: "cb1f64431772f5ac8292a6123c23488d5b4ba33c806cb28530b3c523d88a6ebe",
    GF16: "8ecf6d579d432a95547d21739f9b23b785608f7e067c9fe3b386fba95ccd0c21",
}


@pytest.mark.parametrize("fld", list(META_DIGESTS), ids=lambda f: f.token)
def test_meta_known_answer(fld, tmp_path):
    meta, _ = build_states(fld, random.Random(19))
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == META_DIGESTS[fld]


# SHA-256 of the share_bytes of a tall zp file: 3,000 data rows at n = 15,
# k = 9, stilde = 12, as outsourced, and as redistribute re-shares it after
# server 1 is wiped (eps_p = 0.05, so stilde grows).
TALL_DIGESTS = {
    "outsource": "e62062cf1aee7019b11ae9649a04c559ea077f5611fc0057cb5dd5e7d4eabbb0",
    "repair": "ed5fdb3dc41056f4259596c64ed77219813821c103df35bec4eebe9a6a53dadd",
}


@pytest.fixture(scope="module")
def tall_shares():
    rng = random.Random(23)
    sk, params = setup(M61, 15, 9, 12, eps_p=0.05, rng=rng)
    data = rng.randbytes(3000 * 9 * M61.payload_size)
    meta, shares = outsource(sk, params, data, rng=rng)
    states = client.make_server_states(meta, shares)
    dumps = [server.dump_all(state) for state in states]
    dumps[0] = None
    result = client.redistribute(sk, meta, dumps)
    assert result.data == data
    assert result.meta.stilde > meta.stilde
    return {
        "outsource": states,
        "repair": client.make_server_states(result.meta, result.shares),
    }


@pytest.mark.parametrize("kind", list(TALL_DIGESTS))
def test_tall_share_known_answer(tall_shares, kind):
    digest = hashlib.sha256()
    for state in tall_shares[kind]:
        digest.update(store.share_bytes(state))
    assert digest.hexdigest() == TALL_DIGESTS[kind]


def _failing_replace(*args):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("kind", ["share", "meta"])
def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, kind):
    meta, states = build_states(M61, random.Random(20))
    if kind == "share":
        write, old, new = store.write_share, states[0], states[1]
    else:
        write, old, new = store.write_meta, meta, dataclasses.replace(meta, ctr=meta.ctr + 1)
    path = tmp_path / "x"
    write(old, path)
    before = path.read_bytes()
    monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError, match="No space"):
        write(new, path)
    assert os.listdir(tmp_path) == ["x"]
    assert path.read_bytes() == before


def test_share_without_data_rows_rejected(tmp_path):
    # No outsource makes ktilde = 0; an empty body must not pass as a share.
    rng = random.Random(21)
    _, states = build_states(M61, rng)
    path = tmp_path / "x.share"
    store.write_share(states[0], path)
    raw = bytearray(path.read_bytes())
    header_end = len(raw) - 5 * 16
    raw[header_end - 48 : header_end] = struct.pack("<6Q", 1, 0, 0, 0, 1, 1)
    path.write_bytes(bytes(raw[:header_end]))
    assert_unreadable(path, "at least 1")


def test_share_cannot_serialize_wiped_cells(tmp_path):
    rng = random.Random(7)
    _, states = build_states(M61, rng)
    states[0].cells[0] = None
    with pytest.raises(Exception):
        store.write_share(states[0], tmp_path / "x.share")


@pytest.mark.parametrize("fld", [M61, GF16], ids=lambda f: f.token)
def test_share_cannot_serialize_misshapen_cells(fld, tmp_path):
    _, states = build_states(fld, random.Random(7))
    block, tag = states[0].cells[0]
    states[0].cells[0] = (block[:-1], tag)
    with pytest.raises(ParameterError, match="chunk count"):
        store.write_share(states[0], tmp_path / "x.share")
    assert os.listdir(tmp_path) == []


def test_meta_round_trip(tmp_path):
    rng = random.Random(8)
    meta, _ = build_states(M61, rng)
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    loaded = store.read_meta(path)
    for attr in (
        "fid", "n", "k", "ktilde", "stilde", "stilde0", "ctr", "chunks",
        "original_length", "eps_q", "eps_p", "window",
    ):
        assert getattr(loaded, attr) == getattr(meta, attr)
    assert loaded.field is meta.field
    path2 = tmp_path / "f2.meta"
    store.write_meta(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_meta_skips_comment_and_blank_lines(tmp_path):
    meta, _ = build_states(M61, random.Random(8))
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["# client metadata", "", *lines[:3], "  # middle  ", *lines[3:]]))
    loaded = store.read_meta(path)
    assert store.meta_bytes(loaded) == store.meta_bytes(meta)


def test_meta_missing_key(tmp_path):
    rng = random.Random(9)
    meta, _ = build_states(M61, rng)
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("fid=")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MetaFormatError, match="missing"):
        store.read_meta(path)


def test_meta_bad_int_reports_line(tmp_path):
    rng = random.Random(10)
    meta, _ = build_states(M61, rng)
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    text = path.read_text().replace(f"ctr={meta.ctr}", "ctr=abc")
    path.write_text(text)
    with pytest.raises(MetaFormatError, match="line 8"):
        store.read_meta(path)


@pytest.mark.parametrize("key, value, line", [("fid", "zz" * 16, 1), ("field", "zp:10", 2)])
def test_meta_bad_fid_or_field_reports_line(tmp_path, key, value, line):
    meta, _ = build_states(M61, random.Random(10))
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    lines = [
        f"{key}={value}" if text.partition("=")[0] == key else text
        for text in path.read_text().splitlines()
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MetaFormatError, match=f"^line {line}: "):
        store.read_meta(path)


def test_meta_unknown_key_rejected(tmp_path):
    rng = random.Random(11)
    meta, _ = build_states(M61, rng)
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    path.write_text(path.read_text() + "mystery=1\n")
    with pytest.raises(MetaFormatError, match="unknown key"):
        store.read_meta(path)


def test_meta_inconsistent_r_rejected(tmp_path):
    rng = random.Random(12)
    meta, _ = build_states(M61, rng)
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    path.write_text(path.read_text().replace(f"r={meta.r}", f"r={meta.r + 1}"))
    with pytest.raises(MetaFormatError, match="inconsistent"):
        store.read_meta(path)


def test_meta_duplicate_key_rejected(tmp_path):
    rng = random.Random(13)
    meta, _ = build_states(M61, rng)
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    path.write_text(path.read_text() + f"ctr={meta.ctr}\n")
    with pytest.raises(MetaFormatError, match="duplicate"):
        store.read_meta(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("n", "0"),
        ("n", "1"),  # k = 3 > n
        ("k", "9"),
        ("c", "0"),
        ("c", "2"),  # zp carries one chunk per block
        ("ctr", "-1"),
        ("stilde0", "-1"),
        ("window", "0"),
        ("eps_q", "1.5"),
        ("original_length", "0"),
        ("original_length", str(3 * 3 * 7 + 1)),
    ],
)
def test_meta_impossible_parameters_rejected(tmp_path, key, value):
    rng = random.Random(15)
    meta, _ = build_states(M61, rng)
    assert meta.ktilde == 3 and meta.chunks == 1
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    lines = [
        f"{key}={value}" if line.partition("=")[0] == key else line
        for line in path.read_text().splitlines()
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MetaFormatError):
        store.read_meta(path)


def test_meta_zero_ktilde_rejected(tmp_path):
    rng = random.Random(16)
    meta, _ = build_states(M61, rng)
    meta.ktilde, meta.stilde = 0, meta.r
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    with pytest.raises(MetaFormatError, match="ktilde"):
        store.read_meta(path)


def test_meta_binary_chunk_count_checked(tmp_path):
    rng = random.Random(17)
    meta, _ = build_states(GF16, rng)  # 64-byte blocks: 32 chunks
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    assert store.read_meta(path).chunks == 32
    meta.chunks = 0
    store.write_meta(meta, path)
    with pytest.raises(MetaFormatError):
        store.read_meta(path)


def test_meta_counter_zero_still_loads(tmp_path):
    rng = random.Random(18)
    meta, _ = build_states(M61, rng)
    meta.ctr = 0
    path = tmp_path / "f.meta"
    store.write_meta(meta, path)
    assert store.read_meta(path).ctr == 0


def test_share_tree_layout(tmp_path):
    rng = random.Random(14)
    meta, states = build_states(M61, rng)
    store.write_share_tree(tmp_path, states)
    for state in states:
        expected = tmp_path / f"server_{state.j}" / f"{meta.fid.hex()}.share"
        assert expected.exists()
        assert store.share_path(tmp_path, state.j, meta.fid) == str(expected)
