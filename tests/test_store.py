"""Persistence: bit-exact round trips and strictness under corruption."""

import random

import pytest

from porcrs import client, store
from porcrs.client import outsource, setup
from porcrs.errors import FormatError, MetaFormatError
from porcrs.field import binary_field, prime_field

M61 = prime_field()
GF16 = binary_field(16)


def build_states(fld, rng, block_size=64, rows=3):
    sk, params = setup(fld, 5, 3, 2, block_size=block_size, rng=rng)
    payload = client.block_payload_size(
        fld, client.chunks_per_block(fld, block_size)
    )
    data = rng.randbytes(rows * 3 * payload)
    meta, shares = outsource(sk, params, data, rng=rng)
    return meta, client.make_server_states(meta, shares)


@pytest.mark.parametrize("fld", [M61, GF16], ids=lambda f: f.token)
def test_share_round_trip_bit_exact(fld, tmp_path):
    rng = random.Random(0)
    meta, states = build_states(fld, rng)
    for state in states:
        path = tmp_path / f"{state.j}.share"
        store.write_share(state, path)
        loaded = store.read_share(path)
        assert loaded.j == state.j
        assert loaded.fid == state.fid
        assert loaded.params.ktilde == state.params.ktilde
        assert loaded.params.stilde == state.params.stilde
        assert loaded.params.ctr == state.params.ctr
        assert loaded.params.chunks == state.params.chunks
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
    with pytest.raises(FormatError):
        store.read_share(path)


def test_share_bad_version(tmp_path):
    rng = random.Random(3)
    _, states = build_states(M61, rng)
    path = tmp_path / "x.share"
    store.write_share(states[0], path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        store.read_share(path)


def test_share_trailing_garbage(tmp_path):
    rng = random.Random(4)
    _, states = build_states(M61, rng)
    path = tmp_path / "x.share"
    store.write_share(states[0], path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        store.read_share(path)


@pytest.mark.parametrize("fld", [M61, GF16], ids=lambda f: f.token)
def test_share_truncation_fuzz(fld, tmp_path):
    rng = random.Random(5)
    _, states = build_states(fld, rng)
    path = tmp_path / "x.share"
    store.write_share(states[1], path)
    raw = path.read_bytes()
    for _ in range(250):
        cut = rng.randrange(len(raw))
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            store.read_share(path)


def test_share_prime_element_out_of_range(tmp_path):
    rng = random.Random(6)
    _, states = build_states(M61, rng)
    path = tmp_path / "x.share"
    store.write_share(states[0], path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = (M61.order + 5).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        store.read_share(path)


def test_share_cannot_serialize_wiped_cells(tmp_path):
    rng = random.Random(7)
    _, states = build_states(M61, rng)
    states[0].cells[0] = None
    with pytest.raises(Exception):
        store.write_share(states[0], tmp_path / "x.share")


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
