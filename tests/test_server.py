"""Server state machine: aggregates, self-updating parity, dumps."""

import random

import pytest

from porcrs import client, crs
from porcrs.auth import TagContext, keygen, tag_block, verify_block
from porcrs.client import ChallengeSet
from porcrs.errors import OrderRejectedError, ParameterError
from porcrs.field import PrimeField, prime_field
from porcrs.server import (
    ShareParams,
    apply_append,
    dump_all,
    prove,
    read_block,
    store_share,
)

M61 = prime_field()
Z11 = prime_field(11)
FID = bytes(16)


def build_system(rng, n=5, k=3, stilde=2, rows=4):
    sk, params = client.setup(M61, n, k, stilde, rng=rng)
    data = rng.randbytes(rows * k * 7)
    meta, shares = client.outsource(sk, params, data, rng=rng)
    return sk, meta, client.make_server_states(meta, shares)


def test_store_share_shapes():
    cells = [((1,), (2,))] * 5
    params = ShareParams(field=M61, ktilde=3, stilde=2, ctr=0, chunks=1)
    state = store_share(1, FID, cells, params)
    assert state.r == 5 and len(state.cells) == 5


def test_store_share_rejects_inconsistent_params():
    cells = [((1,), (2,))] * 5
    params = ShareParams(field=M61, ktilde=3, stilde=3, ctr=0, chunks=1)
    with pytest.raises(ParameterError):
        store_share(1, FID, cells, params)


def test_store_share_replaces_wholesale():
    params = ShareParams(field=M61, ktilde=1, stilde=0, ctr=0, chunks=1)
    first = store_share(1, FID, [((1,), (2,))], params)
    again = store_share(1, FID, [((3,), (4,))], params)
    assert again.cells == [((3,), (4,))]
    assert first.cells == [((1,), (2,))]


def test_prove_singleton_returns_cell():
    rng = random.Random(0)
    _, _, servers = build_system(rng)
    state = servers[0]
    q = ChallengeSet(0, ((2, 1),))
    mu, sigma = prove(state, q)
    block, tag = state.cells[1]
    assert mu == block and sigma == tag


def test_prove_toy_aggregate():
    cells = [((4,), (0,)), ((5,), (0,))]
    params = ShareParams(field=Z11, ktilde=2, stilde=0, ctr=0, chunks=1)
    state = store_share(1, FID, cells, params)
    mu, _ = prove(state, ChallengeSet(0, ((1, 2), (2, 3))))
    assert mu == (1,)  # (2*4 + 3*5) mod 11


def test_prove_zero_coefficient_contributes_nothing():
    rng = random.Random(1)
    _, _, servers = build_system(rng)
    state = servers[2]
    base = prove(state, ChallengeSet(0, ((1, 7),)))
    both = prove(state, ChallengeSet(0, ((1, 7), (3, 0))))
    assert base == both


def test_prove_out_of_range_is_explicit():
    rng = random.Random(2)
    _, meta, servers = build_system(rng)
    with pytest.raises(ParameterError):
        prove(servers[0], ChallengeSet(0, ((meta.r + 1, 1),)))


def test_prove_linearity_over_disjoint_challenges():
    rng = random.Random(3)
    _, meta, servers = build_system(rng)
    state = servers[1]
    rows = rng.sample(range(1, meta.r + 1), 4)
    entries = [(i, M61.rand_element(rng)) for i in rows]
    q1, q2 = ChallengeSet(0, tuple(entries[:2])), ChallengeSet(0, tuple(entries[2:]))
    q12 = ChallengeSet(0, tuple(entries))
    mu1, s1 = prove(state, q1)
    mu2, s2 = prove(state, q2)
    mu, s = prove(state, q12)
    assert M61.vec_eq(mu, M61.vec_add(mu1, mu2))
    assert M61.vec_eq(s, M61.vec_add(s1, s2))


def test_apply_append_zero_block_keeps_parity_blocks():
    rng = random.Random(4)
    sk, meta, servers = build_system(rng)
    state = servers[0]
    old_parity_blocks = [state.cells[meta.ktilde + t][0] for t in range(meta.stilde)]
    old_parity_tags = [state.cells[meta.ktilde + t][1] for t in range(meta.stilde)]
    zero_row = [M61.vec_zeros(1) for _ in range(meta.k)]
    orders = client.append(sk, meta, zero_row)
    apply_append(state, orders[0])
    for t in range(meta.stilde):
        block, tag = state.cells[meta.ktilde + t]  # parity moved down one row
        assert M61.vec_eq(block, old_parity_blocks[t])
        assert not M61.vec_eq(tag, old_parity_tags[t])  # tags still shift ctr


def test_apply_append_parity_verifies_at_new_context():
    rng = random.Random(5)
    sk, meta, servers = build_system(rng)
    for step in range(3):
        row = [
            M61.vec_from_ints([M61.rand_element(rng)]) for _ in range(meta.k)
        ]
        orders = client.append(sk, meta, row)
        for state, order in zip(servers, orders):
            apply_append(state, order)
        for state in servers:
            for slot in range(1, meta.stilde + 1):
                block, tag = state.cells[meta.ktilde + slot - 1]
                ctx = TagContext(meta.fid, meta.ktilde + slot, state.j, meta.ctr)
                assert verify_block(sk, block, tag, ctx, M61)


def test_apply_append_column_stays_codeword():
    rng = random.Random(6)
    sk, meta, servers = build_system(rng)
    for _ in range(4):
        row = [M61.vec_from_ints([M61.rand_element(rng)]) for _ in range(meta.k)]
        for state, order in zip(servers, client.append(sk, meta, row)):
            apply_append(state, order)
    code = crs.canonical_matrix(meta.stilde, meta.ktilde, M61)
    for state in servers:
        column = [cell[0][0] for cell in state.cells]
        assert code.encode(column[: meta.ktilde]) == column


def test_apply_append_rejects_wrong_sequence():
    rng = random.Random(7)
    sk, meta, servers = build_system(rng)
    row = [M61.vec_zeros(1) for _ in range(meta.k)]
    orders = client.append(sk, meta, row)
    apply_append(servers[0], orders[0])
    with pytest.raises(OrderRejectedError):
        apply_append(servers[0], orders[0])  # replay
    # order skipping a counter is also rejected
    orders2 = client.append(sk, meta, row)
    with pytest.raises(OrderRejectedError):
        apply_append(servers[1], orders2[1])


def test_apply_append_rejects_bad_shapes():
    rng = random.Random(8)
    sk, meta, servers = build_system(rng)
    row = [M61.vec_zeros(1) for _ in range(meta.k)]
    orders = client.append(sk, meta, row)
    bad = client.AppendOrder(
        orders[0].fid,
        orders[0].server,
        orders[0].target_ctr,
        orders[0].new_block,
        orders[0].new_tag,
        orders[0].deltas[:-1],
    )
    with pytest.raises(OrderRejectedError):
        apply_append(servers[0], bad)
    wrong_fid = client.AppendOrder(
        bytes(16), orders[1].server, orders[1].target_ctr,
        orders[1].new_block, orders[1].new_tag, orders[1].deltas,
    )
    with pytest.raises(OrderRejectedError):
        apply_append(servers[1], wrong_fid)


def test_read_block():
    rng = random.Random(9)
    sk, meta, servers = build_system(rng)
    state = servers[3]
    assert read_block(state, 1) == state.cells[0]
    row = [M61.vec_from_ints([5]) for _ in range(meta.k)]
    orders = client.append(sk, meta, row)
    apply_append(state, orders[3])
    assert read_block(state, meta.ktilde) == state.cells[meta.ktilde - 1]
    with pytest.raises(ParameterError):
        read_block(state, meta.r + 1)
    with pytest.raises(ParameterError):
        read_block(state, 0)


def test_dump_all_verbatim_and_passthrough():
    rng = random.Random(10)
    sk, meta, servers = build_system(rng)
    state = servers[0]
    dump = dump_all(state)
    assert dump.cells == state.cells and dump.j == state.j
    # corrupting the live state is visible in later dumps, not earlier ones
    state.cells[0] = None
    assert dump.cells[0] is not None
    assert dump_all(state).cells[0] is None


def test_append_order_carries_no_foreign_state():
    # Server autonomy at the interface level: an append order holds only
    # the new cell, the per-slot tag deltas, and addressing/sequencing.
    import dataclasses

    names = {f.name for f in dataclasses.fields(client.AppendOrder)}
    assert names == {"fid", "server", "target_ctr", "new_block", "new_tag", "deltas"}


def test_prove_zero_fills_wiped_cells():
    rng = random.Random(11)
    sk, meta, servers = build_system(rng)
    state = servers[0]
    state.cells[2] = None
    mu, sigma = prove(state, ChallengeSet(0, ((3, 5),)))
    assert mu == M61.vec_zeros(1) and sigma == M61.vec_zeros(1)


def test_append_makes_one_batch_inversion_per_server(monkeypatch):
    rng = random.Random(15)
    sk, meta, servers = build_system(rng, n=15, k=9, stilde=12, rows=20)
    calls = []
    inv = PrimeField.inv

    def counted(self, a):
        calls.append(a)
        return inv(self, a)

    monkeypatch.setattr(PrimeField, "inv", counted)
    row = client.row_blocks_from_payload(meta, rng.randbytes(9 * 7))
    orders = client.append(sk, meta, row)
    client_inversions = len(calls)
    for state, order in zip(servers, orders):
        apply_append(state, order)
    assert len(calls) - client_inversions == 15  # one per server, not per slot
    assert client_inversions <= meta.s + 1  # s row-code rows, one new column
