"""Server columns as stored words: the sequence view the tests, the harness
and the benchmark use, and what a column holds in memory."""

import gc
import random
import tracemalloc

import numpy as np
import pytest

from porcrs import client, server, store
from porcrs.errors import ParameterError
from porcrs.field import binary_field, prime_field
from porcrs.server import Column

M61 = prime_field()
GF8 = binary_field(8)


def build(fld, rng, rows=6, n=5, k=3, stilde=2, block_size=16):
    sk, params = client.setup(fld, n, k, stilde, block_size=block_size, rng=rng)
    chunks = client.chunks_per_block(fld, block_size)
    payload = client.block_payload_size(fld, chunks) * k
    meta, shares = client.outsource(sk, params, rng.randbytes(rows * payload), rng=rng)
    return sk, meta, shares, client.make_server_states(meta, shares)


def same(fld, a, b):
    if a is None or b is None:
        return a is b
    return all(fld.vec_eq(x, y) for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("fld", [M61, GF8], ids=lambda f: f.token)
def test_get_set_and_wipe(fld):
    _, meta, _, states = build(fld, random.Random(1))
    cells = states[0].cells
    block, tag = cells[2]
    zero = fld.vec_from_ints([0] * meta.chunks)
    assert type(block) is type(zero)
    assert getattr(block, "dtype", None) == getattr(zero, "dtype", None)
    bumped = fld.vec_add(block, fld.vec_from_ints([1] + [0] * (meta.chunks - 1)))
    cells[2] = (bumped, tag)
    assert same(fld, cells[2], (bumped, tag))
    assert same(fld, cells[-6], (bumped, tag))  # r = 8: row 3 from the end
    # A cell read is a copy: changing it leaves the column as it was.
    if fld is GF8:
        got = cells[2]
        got[0][0] ^= 1
        assert same(fld, cells[2], (bumped, tag))
    cells[2] = None
    assert cells[2] is None
    mu, sigma = server.prove(states[0], client.ChallengeSet(0, ((3, 1),)))
    assert fld.vec_eq(mu, zero) and fld.vec_eq(sigma, zero)  # a wiped cell adds zeros
    with pytest.raises(IndexError, match="row 9 out of range 1..8"):
        cells[8]


@pytest.mark.parametrize("fld", [M61, GF8], ids=lambda f: f.token)
def test_slices_len_iteration_and_equality(fld):
    sk, meta, shares, states = build(fld, random.Random(2))
    state = states[1]
    cells = state.cells
    assert len(cells) == meta.r
    listed = list(cells)
    assert len(listed) == meta.r and all(same(fld, a, cells[i]) for i, a in enumerate(listed))
    assert cells == listed and listed == cells
    assert cells == shares[1] and cells != shares[2]
    stale = cells[meta.ktilde :]
    assert len(stale) == meta.stilde
    payload = client.block_payload_size(fld, meta.chunks) * meta.k
    row = client.row_blocks_from_payload(meta, random.Random(3).randbytes(payload))
    for st, order in zip(states, client.append(sk, meta, row)):
        server.apply_append(st, order)
    assert len(cells) == meta.r and cells != listed
    # A rollback: the parity rows put back as they were before the append.
    cells[meta.ktilde :] = stale
    assert all(same(fld, cells[meta.ktilde + t], cell) for t, cell in enumerate(stale))
    with pytest.raises(ParameterError, match="2 cells for 3 rows"):
        cells[meta.ktilde - 1 :] = stale


@pytest.mark.parametrize("fld", [M61, GF8], ids=lambda f: f.token)
def test_delete_and_whole_assignment(fld, tmp_path):
    _, meta, shares, states = build(fld, random.Random(4))
    state = states[2]
    last = state.cells[-2]
    del state.cells[-1]
    assert len(state.cells) == meta.r - 1 and same(fld, state.cells[-1], last)
    state.stilde -= 1
    store.write_share(state, tmp_path / "short.share")
    assert store.read_share(tmp_path / "short.share").cells == state.cells
    state.cells = [None] * meta.r
    assert isinstance(state.cells, Column) and list(state.cells) == [None] * meta.r
    # The shares the states were made from never see a state's changes.
    assert shares[2][0] is not None and len(shares[2]) == meta.r
    state.cells = shares[0]
    assert state.cells is shares[0]


@pytest.mark.parametrize("fld", [M61, GF8], ids=lambda f: f.token)
def test_misshapen_cell_raises_parameter_error(fld, tmp_path):
    _, meta, _, states = build(fld, random.Random(5))
    cells = states[0].cells
    block, tag = cells[0]
    cells[0] = (block[:-1], tag)
    for use in (
        lambda: cells[0],
        lambda: cells[:2],
        lambda: server.prove(states[0], client.ChallengeSet(0, ((1, 1),))),
        lambda: store.share_bytes(states[0]),
    ):
        with pytest.raises(ParameterError, match="chunk count"):
            use()
    assert same(fld, cells[1], states[0].cells[1])  # other rows read as before
    cells[0] = (block, tag)
    store.write_share(states[0], tmp_path / "x.share")
    for bad in (5, (block,), (block, tag, tag)):
        with pytest.raises(ParameterError, match="pair"):
            cells[1] = bad
    with pytest.raises(ParameterError, match="chunk count"):
        store_share_of(fld, meta, [(block, tag)] * (meta.r - 1) + [(block[:-1], tag)])


def store_share_of(fld, meta, cells):
    state = server.store_share(
        1, meta.fid, cells, field=fld, ktilde=meta.ktilde, stilde=meta.stilde,
        ctr=meta.ctr, chunks=meta.chunks,
    )
    return store.share_bytes(state)


@pytest.mark.parametrize("fld", [M61, GF8], ids=lambda f: f.token)
def test_unread_rows_raise_lookup_error(fld, tmp_path):
    _, meta, _, states = build(fld, random.Random(6))
    path = tmp_path / "x.share"
    store.write_share(states[3], path)
    part = store.read_share(path, [2, 5])
    for use in (
        lambda: part.cells[0],
        lambda: part.cells[1:3],
        lambda: list(part.cells),
        lambda: server.prove(part, client.ChallengeSet(0, ((5, 1), (4, 1)))),
    ):
        with pytest.raises(LookupError, match="was not read"):
            use()
    with pytest.raises(LookupError, match="row 3 was not read"):
        part.cells[2] = states[3].cells[2]
    assert same(fld, part.cells[4], states[3].cells[4])


@pytest.mark.parametrize("fld", [M61, GF8], ids=lambda f: f.token)
def test_append_read_writes_back_the_files_own_bytes(fld, tmp_path):
    sk, meta, _, states = build(fld, random.Random(7))
    path = tmp_path / "x.share"
    store.write_share(states[4], path)
    raw = path.read_bytes()
    tail = store.read_share(path)
    assert store.share_bytes(tail) == raw
    payload = client.block_payload_size(fld, meta.chunks) * meta.k
    row = client.row_blocks_from_payload(meta, random.Random(8).randbytes(payload))
    order = client.append(sk, meta, row)[4]
    server.apply_append(tail, order)
    server.apply_append(states[4], order)
    written = store.share_bytes(tail)
    assert written == store.share_bytes(states[4])
    # Rows 1..ktilde - 1 (before the append) are the file's bytes, verbatim.
    cell = 2 * meta.chunks * fld.element_size
    header = len(raw) - (meta.r - 1) * cell
    kept = slice(header, header + (meta.ktilde - 2) * cell)
    assert written[kept] == raw[kept]


@pytest.mark.parametrize("fld", [M61, GF8], ids=lambda f: f.token)
def test_appends_past_the_spare_rows(fld):
    # A column grows when its room for appends runs out, and a column made
    # from another (make_server_states, dump_all) copies before it changes.
    sk, meta, shares, states = build(fld, random.Random(11), rows=2)
    dumps = [server.dump_all(state) for state in states]
    payload = client.block_payload_size(fld, meta.chunks) * meta.k
    rng = random.Random(12)
    for _ in range(30):
        row = client.row_blocks_from_payload(meta, rng.randbytes(payload))
        for state, order in zip(states, client.append(sk, meta, row)):
            server.apply_append(state, order)
    assert all(len(d.cells) == len(s) == 2 + meta.stilde for d, s in zip(dumps, shares))
    q = client.challenge(meta, meta.r, rng)
    assert all(client.verify(sk, meta, q, [server.prove(s, q) for s in states]))


def test_column_memory_zp():
    # A 2,000-row zp file at n = 15, k = 9, stilde 12: 30,180 cells.  Each
    # holds 16 bytes of words; as a pair of 1-tuples of ints it takes 230.
    rng = random.Random(9)
    sk, params = client.setup(M61, 15, 9, 12, rng=rng)
    data = rng.randbytes(2000 * 9 * M61.payload_size)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        meta, shares = client.outsource(sk, params, data, rng=rng)
        states = client.make_server_states(meta, shares)
        del shares
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # The words live on pages of their own, which tracemalloc does not see;
    # count them whole, room for appends included.
    held += sum(state.cells.words.nbytes for state in states)
    cells = meta.n * meta.r
    assert cells == 30_180
    assert held <= 48 * cells, f"{held / cells:.0f} bytes per cell"
    assert all(state.cells.words.dtype == np.dtype("<u8") for state in states)


def test_column_memory_gf2_holds_no_object_per_cell():
    rng = random.Random(10)
    sk, params = client.setup(GF8, 15, 9, 12, block_size=64, rng=rng)
    data = rng.randbytes(200 * 9 * 64)
    gc.collect()
    tracemalloc.start()
    try:
        meta, shares = client.outsource(sk, params, data, rng=rng)
        states = client.make_server_states(meta, shares)
        del shares
        gc.collect()
        blocks = sum(stat.count for stat in tracemalloc.take_snapshot().statistics("filename"))
    finally:
        tracemalloc.stop()
    cells = meta.n * meta.r
    assert cells == 3_180
    # Per server: a state, its column and their arrays; no (block, tag) pair.
    assert blocks < cells // 4, f"{blocks} live allocations for {cells} cells"
    assert len(states) == 15
