"""Client protocol: outsourcing oracle, appends, audits, redistribution."""

import dataclasses
import gc
import math
import random
import weakref

import numpy as np
import pytest

from porcrs import auth, client, crs, server, store
from porcrs.auth import keygen, prf
from porcrs.client import (
    cell_context,
    challenge,
    needs_redistribute,
    outsource,
    redistribute,
    setup,
    verify,
)
from porcrs.errors import CapacityError, ParameterError
from porcrs.field import binary_field, prime_field

M61 = prime_field()
P = M61.order


def brute_force_grid(sk, fid, data, n, k, stilde):
    """Independent product-code + tag oracle.

    Builds the share grid with nothing from the coding modules: explicit
    Fermat-inverse Cauchy entries over the canonical sets, plain matrix
    multiplication for both codes, and the tag formula applied directly.
    """
    payload = 7
    row_bytes = payload * k
    padded = data + b"\x00" * (-len(data) % row_bytes)
    blocks = [
        int.from_bytes(padded[t : t + payload], "little")
        for t in range(0, len(padded), payload)
    ]
    ktilde = len(blocks) // k
    grid = [[blocks[i * k + j] for j in range(k)] for i in range(ktilde)]

    def centry(x, y):
        return pow((x - y) % P, P - 2, P)

    # column code: xs = 0..stilde-1, ys descending from the top
    for t in range(stilde):
        grid.append(
            [
                sum(centry(t, P - (i + 1)) * grid[i][j] for i in range(ktilde)) % P
                for j in range(k)
            ]
        )
    # dispersal code across servers
    s = n - k
    for row in grid:
        row.extend(
            sum(centry(t, P - (j + 1)) * row[j] for j in range(k)) % P
            for t in range(s)
        )
    cells = [[None] * n for _ in range(len(grid))]
    from porcrs.auth import TagContext

    for i0, row in enumerate(grid):
        for j0, value in enumerate(row):
            # data rows at counter 0, fresh parity rows at counter 1
            ctx = TagContext(fid, i0 + 1, j0 + 1, 0 if i0 < ktilde else 1)
            tag = (prf(sk.kprf, ctx, M61) + sk.alpha * value) % P
            cells[i0][j0] = ((value,), (tag,))
    return cells


def test_setup_validation():
    rng = random.Random(0)
    sk, params = setup(M61, 15, 9, 12, 0.1, 0.05, rng=rng)
    assert params.s == 6
    with pytest.raises(ParameterError):
        setup(M61, 9, 9, 3)  # n == k: no dispersal parity
    with pytest.raises(CapacityError):
        setup(prime_field(11), 12, 3, 2)  # n > field order
    with pytest.raises(ParameterError):
        setup(M61, 5, 3, 2, eps_q=1.5)


@pytest.mark.parametrize(
    "args, kwargs",
    [((5, 5, 2), {}), ((5, 0, 2), {}), ((5, 3, 2), {"eps_q": 3.0}), ((5, 3, 2), {"window": 0})],
    ids=["k=n", "k=0", "eps_q=3", "window=0"],
)
def test_scheme_params_check_themselves(args, kwargs):
    with pytest.raises(ParameterError):
        client.SchemeParams(M61, *args, **kwargs)


def test_outsource_pads_single_block_file():
    rng = random.Random(1)
    sk, params = setup(M61, 4, 2, 1, rng=rng)
    meta, shares = outsource(sk, params, b"\x01", rng=rng)
    assert meta.ktilde == 1 and meta.original_length == 1
    # cell (1,1) holds the byte, cell (1,2) the zero pad block
    assert shares[0][0][0] == (1,)
    assert shares[1][0][0] == (0,)


def test_outsource_double_systematic():
    rng = random.Random(2)
    sk, params = setup(M61, 7, 4, 3, rng=rng)
    data = rng.randbytes(7 * 4 * 5)
    meta, shares = outsource(sk, params, data, rng=rng)
    for i0 in range(meta.ktilde):
        for j0 in range(meta.k):
            expected = M61.payload_words(
                data[(i0 * meta.k + j0) * 7 : (i0 * meta.k + j0 + 1) * 7]
            )
            assert shares[j0][i0][0] == tuple(expected.tolist())


def test_outsource_matches_brute_force_oracle():
    rng = random.Random(3)
    sk, params = setup(M61, 7, 4, 3, rng=rng)
    data = rng.randbytes(64 * 7)  # 64 blocks
    meta, shares = outsource(sk, params, data, rng=rng)
    oracle = brute_force_grid(sk, meta.fid, data, 7, 4, 3)
    assert meta.ktilde == 16 and meta.r == 19
    for j0 in range(7):
        for i0 in range(meta.r):
            assert shares[j0][i0] == oracle[i0][j0]


def cauchy_coefficients(fld, s, k):
    """The canonical Cauchy grid, entry by entry: 1 / (i - (order - 1 - j))."""
    return [[fld.inv(fld.sub(i, fld.order - 1 - j)) for j in range(k)] for i in range(s)]


@pytest.mark.parametrize("token, block_size, ktilde", [("zp", 7, 2500), ("gf2:8", 64, 60)])
def test_outsource_over_several_row_batches_matches_row_by_row(token, block_size, ktilde):
    fld = FIELDS[token]
    rng = random.Random(30)
    n, k, stilde = 15, 9, 12
    sk, params = setup(fld, n, k, stilde, block_size=block_size, rng=rng)
    payload = rng.randbytes(ktilde * k * block_size)
    meta, shares = outsource(sk, params, payload, rng=rng)
    c, r = meta.chunks, meta.r
    assert meta.ktilde == ktilde and r > 2 * (client._ROW_BATCH_WORDS // (n * c))
    # Reference: each column's parity cell by cell, then each row's.
    grid = fld.payload_words(payload).reshape(ktilde, k, c)
    col_rows = cauchy_coefficients(fld, stilde, ktilde)
    blocks = []
    for j in range(k):
        column = list(fld.vectors_from_words(grid[:, j]))
        blocks.append(column + [fld.vec_combine(row, grid[:, j]) for row in col_rows])
    row_rows = cauchy_coefficients(fld, n - k, k)
    for i0 in range(r):
        line = [column[i0] for column in blocks]
        for t, row in enumerate(row_rows):
            want = fld.vectors_to_words([fld.vec_combine(row, line)], c)[0]
            assert (shares[k + t].words[i0, 0] == want).all(), (i0, t)
    for j in range(k):
        assert (shares[j].words[:r, 0] == fld.vectors_to_words(blocks[j], c)).all()


def test_outsource_rejects_empty_and_oversize():
    rng = random.Random(4)
    sk, params = setup(M61, 4, 2, 1, rng=rng)
    with pytest.raises(ParameterError):
        outsource(sk, params, b"", rng=rng)
    small = prime_field(257)  # order 257: at most 257 grid rows
    sk2, params2 = setup(small, 4, 2, 9, rng=rng)
    with pytest.raises(CapacityError):
        outsource(sk2, params2, b"\x01" * (2 * 249), rng=rng)
    with pytest.raises(ParameterError):
        setup(prime_field(11), 4, 2, 1)  # toy modulus carries no payload


def oracle_state_after_appends(sk, meta, full_data):
    """Fresh outsource of the final content, parity tags moved to ctr."""
    cells = brute_force_grid(sk, meta.fid, full_data, meta.n, meta.k, meta.stilde)
    from porcrs.auth import TagContext

    for i0 in range(meta.ktilde, meta.r):
        for j0 in range(meta.n):
            value = cells[i0][j0][0][0]
            ctx = TagContext(meta.fid, i0 + 1, j0 + 1, meta.ctr)
            tag = (prf(sk.kprf, ctx, M61) + sk.alpha * value) % P
            cells[i0][j0] = ((value,), (tag,))
    return cells


def run_campaign(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 7)
    k = rng.randrange(1, n)
    stilde = rng.randrange(0, 4)
    rows0 = rng.randrange(1, 4)
    sk, params = setup(M61, n, k, stilde, rng=rng)
    data = rng.randbytes(rows0 * k * 7)
    meta, shares = outsource(sk, params, data, rng=rng)
    servers = client.make_server_states(meta, shares)
    appends = rng.randrange(0, 51)
    for _ in range(appends):
        chunk = rng.randbytes(k * 7)
        data += chunk
        orders = client.append(sk, meta, client.row_blocks_from_payload(meta, chunk))
        for state, order in zip(servers, orders):
            server.apply_append(state, order)
    oracle = oracle_state_after_appends(sk, meta, data)
    for state in servers:
        assert state.ctr == meta.ctr and state.r == meta.r
        for i0 in range(meta.r):
            assert state.cells[i0] == oracle[i0][state.j - 1]
    return meta


def test_append_equivalence_small_campaigns():
    for seed in range(25):
        run_campaign(seed)


def test_append_on_empty_parity_is_pure_row_append():
    rng = random.Random(5)
    sk, params = setup(M61, 4, 2, 0, rng=rng)
    meta, shares = outsource(sk, params, b"ab", rng=rng)
    orders = client.append(
        sk, meta, client.row_blocks_from_payload(meta, rng.randbytes(14))
    )
    assert all(order.deltas == () for order in orders)


def test_append_wire_size_independent_of_height():
    rng = random.Random(6)
    sizes = []
    for rows in (2, 20):
        sk, params = setup(M61, 5, 3, 2, rng=rng)
        meta, _ = outsource(sk, params, rng.randbytes(rows * 3 * 7), rng=rng)
        orders = client.append(
            sk, meta, client.row_blocks_from_payload(meta, rng.randbytes(21))
        )
        total = sum(o.wire_size(M61) for o in orders)
        # n * (block + tag) + n * stilde * tag, with 8-byte elements
        assert total == 5 * 2 * 8 + 5 * 2 * 8
        sizes.append(total)
    assert sizes[0] == sizes[1]


def test_challenge_full_coverage_and_determinism():
    rng = random.Random(7)
    sk, params = setup(M61, 5, 3, 2, rng=rng)
    meta, _ = outsource(sk, params, rng.randbytes(3 * 3 * 7), rng=rng)
    q = challenge(meta, meta.r, random.Random(99))
    assert sorted(i for i, _ in q.entries) == list(range(1, meta.r + 1))
    q1 = challenge(meta, 3, random.Random(5))
    q2 = challenge(meta, 3, random.Random(5))
    assert q1 == q2
    with pytest.raises(ParameterError):
        challenge(meta, 0, rng)
    with pytest.raises(ParameterError):
        challenge(meta, meta.r + 1, rng)


def test_challenge_uniformity():
    rng = random.Random(8)
    sk, params = setup(M61, 5, 3, 2, rng=rng)
    meta, _ = outsource(sk, params, rng.randbytes(8 * 3 * 7), rng=rng)
    assert meta.r == 10
    counts = {i: 0 for i in range(1, 11)}
    for _ in range(10_000):
        for i, _ in challenge(meta, 5, rng).entries:
            counts[i] += 1
    for i, count in counts.items():
        assert abs(count / 10_000 - 0.5) < 0.02


def audit_once(sk, meta, servers, q):
    proof = []
    for state in servers:
        try:
            proof.append(server.prove(state, q))
        except ParameterError:
            proof.append(None)
    return verify(sk, meta, q, proof)


def test_verify_honest_servers_pass():
    rng = random.Random(9)
    sk, params = setup(M61, 6, 4, 2, rng=rng)
    meta, shares = outsource(sk, params, rng.randbytes(5 * 4 * 7), rng=rng)
    servers = client.make_server_states(meta, shares)
    for _ in range(20):
        q = challenge(meta, rng.randrange(1, meta.r + 1), rng)
        assert audit_once(sk, meta, servers, q) == [True] * 6


def test_verify_detects_tampered_challenged_block():
    rng = random.Random(10)
    sk, params = setup(M61, 6, 4, 2, rng=rng)
    meta, shares = outsource(sk, params, rng.randbytes(5 * 4 * 7), rng=rng)
    servers = client.make_server_states(meta, shares)
    victim, row = 2, 3
    block, tag = servers[victim].cells[row - 1]
    servers[victim].cells[row - 1] = (M61.vec_add(block, (1,)), tag)
    entries = ((row, M61.rand_nonzero(rng)),) + tuple(
        (i, M61.rand_element(rng)) for i in (1, meta.r)
    )
    q = client.ChallengeSet(0, entries)
    verdicts = audit_once(sk, meta, servers, q)
    assert verdicts[victim] is False
    assert all(v for j, v in enumerate(verdicts) if j != victim)


def test_verify_detects_stale_parity():
    rng = random.Random(11)
    sk, params = setup(M61, 5, 3, 2, rng=rng)
    meta, shares = outsource(sk, params, rng.randbytes(2 * 3 * 7), rng=rng)
    servers = client.make_server_states(meta, shares)
    stale = [list(state.cells[meta.ktilde :]) for state in servers]
    orders = client.append(
        sk, meta, client.row_blocks_from_payload(meta, rng.randbytes(21))
    )
    for state, order in zip(servers, orders):
        server.apply_append(state, order)
    # one server rolls its parity rows back to the pre-append copies
    for t, cell in enumerate(stale[1]):
        servers[1].cells[meta.ktilde + t] = cell
    parity_row = meta.ktilde + 1
    q = client.ChallengeSet(0, ((parity_row, M61.rand_nonzero(rng)),))
    verdicts = audit_once(sk, meta, servers, q)
    assert verdicts[1] is False
    # a challenge touching only data rows cannot see the rollback
    q_data = client.ChallengeSet(0, ((1, M61.rand_element(rng)),))
    assert audit_once(sk, meta, servers, q_data) == [True] * 5


@pytest.mark.parametrize("token", ["zp", "gf2:16"])
def test_verify_caches_only_data_cell_masks(token, monkeypatch):
    # A parity cell's tag context moves with every append, so its cached
    # mask could never be looked up again: only counter-0 data cells may
    # stay in the PRF cache, and a mixed challenge must not move a verdict.
    fld = M61 if token == "zp" else binary_field(16)
    rng = random.Random(27)
    sk, params = setup(fld, 6, 4, 3, block_size=8, rng=rng)
    meta, shares = outsource(sk, params, rng.randbytes(120), rng=rng)
    servers = client.make_server_states(meta, shares)
    stale = list(servers[2].cells[meta.ktilde :])
    payload = client.block_payload_size(fld, meta.chunks) * meta.k
    orders = client.append(
        sk, meta, client.row_blocks_from_payload(meta, rng.randbytes(payload))
    )
    for state, order in zip(servers, orders):
        server.apply_append(state, order)
    assert meta.ctr >= 1
    # Without the masks the append carries, as in a porcrs audit process:
    # every parity cell goes to the kernel.
    meta.parity_masks = None
    servers[2].cells[meta.ktilde :] = stale  # keeps its pre-append parity
    computed = spy_on_kernel(monkeypatch)
    auth.clear_prf_cache()
    data_rows, parity_rows = range(1, meta.ktilde + 1), range(meta.ktilde + 1, meta.r + 1)
    servers_1_to_n = range(1, meta.n + 1)
    for _ in range(4):
        rows = rng.sample(data_rows, 3) + rng.sample(parity_rows, 2)
        rng.shuffle(rows)
        q = client.ChallengeSet(0, tuple((i, fld.rand_nonzero(rng)) for i in rows))
        proof = [server.prove(state, q) for state in servers]
        oracle = []
        for state, (_, sigma) in zip(servers, proof):
            want = fld.vec_combine(
                [nu for _, nu in q.entries],
                [
                    auth.tag_block(
                        sk,
                        state.cells[i - 1][0],
                        cell_context(meta.fid, meta.ktilde, meta.ctr, i, state.j),
                        fld,
                    )
                    for i, _ in q.entries
                ],
            )
            oracle.append(fld.vec_eq(sigma, want))
        assert verify(sk, meta, q, proof) == oracle
        assert oracle == [True, True, False, True, True, True]
        assert {key[2] for key in auth._PRF_CACHE} <= set(data_rows)
        # The same challenge again: data rows hit, parity rows are
        # recomputed, every server's in one kernel call.
        computed.clear()
        assert verify(sk, meta, q, proof) == oracle
        parity = sorted((i, j, meta.ctr) for i in rows if i > meta.ktilde for j in servers_1_to_n)
        assert [sorted(cells) for cells in computed] == [parity]


@pytest.mark.parametrize("token", ["zp", "gf2:16"])
def test_prf_cache_holds_data_rows_only(token):
    # Outsource, append, audit and repair: whatever reaches the PRF cache,
    # only data rows' masks stay in it.
    fld = M61 if token == "zp" else binary_field(16)
    rng = random.Random(28)
    auth.clear_prf_cache()
    sk, params = setup(fld, 6, 4, 3, block_size=8, rng=rng)
    meta, shares = outsource(sk, params, rng.randbytes(120), rng=rng)
    servers = client.make_server_states(meta, shares)
    payload = client.block_payload_size(fld, meta.chunks) * meta.k
    orders = client.append(
        sk, meta, client.row_blocks_from_payload(meta, rng.randbytes(payload))
    )
    for state, order in zip(servers, orders):
        server.apply_append(state, order)
    q = challenge(meta, meta.r, rng)
    assert verify(sk, meta, q, [server.prove(state, q) for state in servers]) == [True] * 6
    servers[0].cells = [None] * meta.r
    result = redistribute(sk, meta, [server.dump_all(state) for state in servers])
    assert result is not None
    keys = list(auth._PRF_CACHE)
    assert keys and {key[2] for key in keys} <= set(range(1, meta.ktilde + 1))


def test_verify_counts_absent_servers_as_failures():
    rng = random.Random(12)
    sk, params = setup(M61, 5, 3, 2, rng=rng)
    meta, shares = outsource(sk, params, rng.randbytes(21), rng=rng)
    servers = client.make_server_states(meta, shares)
    q = challenge(meta, 2, rng)
    proof = [server.prove(s, q) for s in servers]
    proof[4] = None
    verdicts = verify(sk, meta, q, proof)
    assert verdicts == [True, True, True, True, False]


def test_needs_redistribute_thresholds():
    rng = random.Random(13)
    sk, params = setup(M61, 5, 3, 2, rng=rng)
    meta, _ = outsource(sk, params, b"x", rng=rng)
    assert not needs_redistribute(meta, 1)
    hist = meta.history(1)
    hist.extend([False] * 3 + [True] * 17)
    assert needs_redistribute(meta, 1)  # 0.15 > 0.1
    hist.clear()
    hist.extend([True] * 20)
    assert not needs_redistribute(meta, 1)
    hist.clear()
    hist.extend([False] * 2 + [True] * 18)
    assert not needs_redistribute(meta, 1)  # exactly 0.1 does not exceed


def test_redistribute_round_trip_without_corruption():
    rng = random.Random(14)
    sk, params = setup(M61, 7, 4, 3, rng=rng)
    data = rng.randbytes(997)  # ragged length exercises unpadding
    meta, shares = outsource(sk, params, data, rng=rng)
    servers = client.make_server_states(meta, shares)
    meta.history(1).append(False)
    result = redistribute(sk, meta, [server.dump_all(s) for s in servers])
    assert result is not None
    assert result.data == data
    assert result.meta.ctr == meta.ctr + 1
    # The fresh shares start a fresh audit history, not the old one's.
    assert result.meta.audit_history == {}
    assert result.meta.audit_history is not meta.audit_history
    # fresh shares verify end to end
    fresh = client.make_server_states(result.meta, result.shares)
    q = challenge(result.meta, result.meta.r, rng)
    assert audit_once(sk, result.meta, fresh, q) == [True] * 7


def test_redistribute_survives_s_wiped_servers():
    rng = random.Random(15)
    sk, params = setup(M61, 7, 4, 3, rng=rng)
    data = rng.randbytes(13 * 4 * 7)
    meta, shares = outsource(sk, params, data, rng=rng)
    for wiped in ([0, 1, 2], [4, 5, 6], [0, 3, 6]):
        servers = client.make_server_states(meta, shares)
        dumps = [
            None if j0 in wiped else server.dump_all(s)
            for j0, s in enumerate(servers)
        ]
        result = redistribute(sk, meta, dumps)
        assert result is not None and result.data == data


def test_redistribute_two_step_recovery():
    # Row decoding alone is stuck (s+1 columns gone), but one column is
    # recoverable column-wise, which then unlocks the rows.
    rng = random.Random(16)
    sk, params = setup(M61, 7, 4, 3, rng=rng)
    data = rng.randbytes(10 * 4 * 7)
    meta, shares = outsource(sk, params, data, rng=rng)
    servers = client.make_server_states(meta, shares)
    for j0 in (0, 1, 2):  # s = 3 servers fully gone
        servers[j0].cells = [None] * meta.r
    # a fourth column loses stilde cells: still column-decodable
    for i0 in range(meta.stilde):
        servers[3].cells[i0] = None
    result = redistribute(
        sk, meta, [server.dump_all(s) for s in servers]
    )
    assert result is not None and result.data == data


def test_redistribute_unavailable_beyond_bounds():
    rng = random.Random(17)
    sk, params = setup(M61, 7, 4, 3, rng=rng)
    data = rng.randbytes(10 * 4 * 7)
    meta, shares = outsource(sk, params, data, rng=rng)
    servers = client.make_server_states(meta, shares)
    for j0 in (0, 1, 2, 3):  # s + 1 servers gone
        servers[j0].cells = [None] * meta.r
    # more than stilde corruptions in a surviving column
    for i0 in range(meta.stilde + 1):
        block, tag = servers[4].cells[i0]
        servers[4].cells[i0] = (M61.vec_add(block, (1,)), tag)
    result = redistribute(sk, meta, [server.dump_all(s) for s in servers])
    assert result is None


def test_redistribute_detects_corruption_as_erasure():
    rng = random.Random(18)
    sk, params = setup(M61, 7, 4, 3, rng=rng)
    data = rng.randbytes(6 * 4 * 7)
    meta, shares = outsource(sk, params, data, rng=rng)
    servers = client.make_server_states(meta, shares)
    # corrupt scattered cells (block or tag) across 3 servers
    for j0 in (1, 3, 5):
        for i0 in rng.sample(range(meta.r), 3):
            block, tag = servers[j0].cells[i0]
            if rng.random() < 0.5:
                servers[j0].cells[i0] = (M61.vec_add(block, (2,)), tag)
            else:
                servers[j0].cells[i0] = (block, M61.vec_add(tag, (2,)))
    result = redistribute(sk, meta, [server.dump_all(s) for s in servers])
    assert result is not None and result.data == data


def test_redistribute_after_appends_checks_current_counter():
    rng = random.Random(19)
    sk, params = setup(M61, 5, 3, 2, rng=rng)
    data = rng.randbytes(4 * 3 * 7)
    meta, shares = outsource(sk, params, data, rng=rng)
    servers = client.make_server_states(meta, shares)
    for _ in range(3):
        chunk = rng.randbytes(21)
        data += chunk
        orders = client.append(sk, meta, client.row_blocks_from_payload(meta, chunk))
        for state, order in zip(servers, orders):
            server.apply_append(state, order)
    result = redistribute(sk, meta, [server.dump_all(s) for s in servers])
    assert result is not None and result.data == data
    assert result.meta.ctr == meta.ctr + 1


def test_parity_floor_grows_on_redistribute():
    rng = random.Random(20)
    sk, params = setup(M61, 5, 3, 1, eps_p=0.2, rng=rng)
    data = rng.randbytes(3 * 7)
    meta, shares = outsource(sk, params, data, rng=rng)
    servers = client.make_server_states(meta, shares)
    for _ in range(10):  # push the parity fraction well below eps_p
        chunk = rng.randbytes(21)
        data += chunk
        orders = client.append(sk, meta, client.row_blocks_from_payload(meta, chunk))
        for state, order in zip(servers, orders):
            server.apply_append(state, order)
    assert meta.stilde / meta.r < meta.eps_p
    result = redistribute(sk, meta, [server.dump_all(s) for s in servers])
    assert result is not None and result.data == data
    assert result.meta.stilde / result.meta.r >= meta.eps_p


def test_appended_row_and_old_parity_never_share_a_prf_input():
    # A server that keeps the parity cell it held at row ktilde + 1 and then
    # receives the data cell appended at that row holds two blocks tagged
    # under one PRF input if their contexts coincide; then
    # alpha = (sigma_new - sigma_old) / (m_new - m_old).
    rng = random.Random(21)
    sk, params = setup(M61, 5, 3, 2, rng=rng)
    meta, shares = outsource(sk, params, rng.randbytes(4 * 3 * 7), rng=rng)
    row_no, ctr_old = meta.ktilde + 1, meta.ctr
    kept = [shares[j0][row_no - 1] for j0 in range(meta.n)]
    orders = client.append(
        sk, meta, client.row_blocks_from_payload(meta, rng.randbytes(21))
    )

    def recovered_alpha(old_cell, new_block, new_tag):
        (m_old,), (s_old,) = old_cell
        (m_new,), (s_new,) = M61.vec_to_ints(new_block), M61.vec_to_ints(new_tag)
        return (s_new - s_old) * M61.inv((m_new - m_old) % P) % P

    for j0, order in enumerate(orders):
        j = j0 + 1
        old_ctx = cell_context(meta.fid, row_no - 1, ctr_old, row_no, j)
        new_ctx = cell_context(meta.fid, meta.ktilde, meta.ctr, row_no, j)
        assert old_ctx != new_ctx
        assert recovered_alpha(kept[j0], order.new_block, order.new_tag) != sk.alpha
        # The same arithmetic does recover alpha when the inputs coincide.
        forged_tag = auth.tag_block(sk, order.new_block, old_ctx, M61)
        assert recovered_alpha(kept[j0], order.new_block, forged_tag) == sk.alpha


def test_append_refuses_parity_at_counter_zero():
    # Metadata written before parity started at counter 1.
    rng = random.Random(24)
    sk, params = setup(M61, 5, 3, 2, rng=rng)
    meta, _ = outsource(sk, params, rng.randbytes(21), rng=rng)
    meta.ctr = 0
    with pytest.raises(ParameterError):
        client.append(sk, meta, client.row_blocks_from_payload(meta, rng.randbytes(21)))


@pytest.mark.parametrize(
    "token, word",
    [("zp", P), ("zp", -1), ("gf2:8", 256), ("gf2:8", -1)],
    ids=["zp-p", "zp-negative", "gf2:8-256", "gf2:8-negative"],
)
def test_append_rejects_a_row_of_non_elements(token, word):
    # The row is screened before the metadata moves: client and servers
    # stay in step, and the next good append goes through.
    fld = M61 if token == "zp" else binary_field(8)
    rng = random.Random(23)
    sk, params = setup(fld, 5, 3, 2, block_size=8, rng=rng)
    meta, shares = outsource(sk, params, rng.randbytes(60), rng=rng)
    servers = client.make_server_states(meta, shares)
    for state, order in zip(servers, client.append(sk, meta, next_row(meta, rng))):
        server.apply_append(state, order)
    before = (meta.ktilde, meta.ctr, meta.original_length, meta.parity_masks)
    good = next_row(meta, rng)
    row = good.tolist()
    row[1][-1] = word
    for bad in (row, [list(good[0]), *row[1:]]):
        with pytest.raises(ParameterError, match="elements of"):
            client.append(sk, meta, bad)
        assert (meta.ktilde, meta.ctr, meta.original_length) == before[:3]
        assert meta.parity_masks is before[3]
    for state, order in zip(servers, client.append(sk, meta, good)):
        server.apply_append(state, order)
    q = challenge(meta, meta.r, rng)
    assert all(verify(sk, meta, q, [server.prove(state, q) for state in servers]))


def test_append_after_partial_last_row_keeps_the_padding():
    rng = random.Random(22)
    sk, params = setup(M61, 5, 3, 2, rng=rng)
    row_bytes = 3 * 7
    data = rng.randbytes(20 * row_bytes + 10)
    meta, shares = outsource(sk, params, data, rng=rng)
    servers = client.make_server_states(meta, shares)
    row = rng.randbytes(row_bytes)
    orders = client.append(sk, meta, client.row_blocks_from_payload(meta, row))
    for state, order in zip(servers, orders):
        server.apply_append(state, order)
    assert meta.original_length == 22 * row_bytes
    result = redistribute(sk, meta, [server.dump_all(s) for s in servers])
    assert result is not None
    assert result.data == data + bytes(row_bytes - 10) + row


def test_redistribute_builds_one_plan_per_erasure_mask(monkeypatch):
    rng = random.Random(23)
    sk, params = setup(M61, 7, 4, 3, rng=rng)
    data = rng.randbytes(30 * 4 * 7)
    meta, shares = outsource(sk, params, data, rng=rng)
    servers = client.make_server_states(meta, shares)
    servers[2].cells = [None] * meta.r
    masks = []
    build = crs.DistributionMatrix.recovery_plan

    def counted(self, present):
        masks.append(tuple(present))
        return build(self, present)

    monkeypatch.setattr(crs.DistributionMatrix, "recovery_plan", counted)
    result = redistribute(sk, meta, [server.dump_all(s) for s in servers])
    assert result is not None and result.data == data
    row_mask = tuple(j0 != 2 for j0 in range(meta.n))
    assert masks == [row_mask]


def test_verify_malformed_response_fails_only_that_server():
    rng = random.Random(25)
    sk, params = setup(M61, 5, 3, 2, rng=rng)
    meta, shares = outsource(sk, params, rng.randbytes(3 * 3 * 7), rng=rng)
    servers = client.make_server_states(meta, shares)
    q = challenge(meta, 3, rng)
    proof = [server.prove(s, q) for s in servers]
    mu, sigma = proof[1]
    proof[1] = (mu,)  # does not unpack into (mu, sigma)
    proof[2] = (mu, sigma, sigma)
    proof[3] = 7
    verdicts = verify(sk, meta, q, proof)
    assert verdicts == [True, False, False, False, True]
    assert [list(meta.history(j)) for j in range(1, 6)] == [[v] for v in verdicts]


@pytest.mark.parametrize("token", ["zp", "gf2:16"])
def test_verify_non_field_elements_fail_only_that_server(token):
    fld = M61 if token == "zp" else binary_field(16)
    rng = random.Random(27)
    sk, params = setup(fld, 9, 3, 2, block_size=4, rng=rng)
    meta, shares = outsource(sk, params, rng.randbytes(3 * 3 * 7), rng=rng)
    servers = client.make_server_states(meta, shares)
    q = challenge(meta, 3, rng)
    proof = [server.prove(s, q) for s in servers]
    c = meta.chunks
    for j0, bad in enumerate([("x",) * c, (0.5,) * c, (b"\x01",) * c, (-1,) * c,
                              (fld.order,) * c], 1):
        proof[j0] = (bad, proof[j0][1])
    proof[6] = (proof[6][0], ("x",) * c)
    mu, sigma = proof[7]
    proof[7] = (fld.vec_to_ints(mu), fld.vec_to_ints(sigma))  # plain ints still pass
    verdicts = verify(sk, meta, q, proof)
    assert verdicts == [True] + [False] * 6 + [True, True]
    assert [list(meta.history(j)) for j in range(1, 10)] == [[v] for v in verdicts]


@pytest.mark.parametrize("token", ["zp", "gf2:16"])
def test_append_orders_match_per_cell_tags(token):
    fld = M61 if token == "zp" else binary_field(16)
    rng = random.Random(26)
    sk, params = setup(fld, 6, 4, 3, block_size=8, rng=rng)
    meta, _ = outsource(sk, params, rng.randbytes(50), rng=rng)
    for _ in range(2):
        ktilde_old, ctr_old = meta.ktilde, meta.ctr
        payload = client.block_payload_size(fld, meta.chunks) * meta.k
        row = client.row_blocks_from_payload(meta, rng.randbytes(payload))
        orders = client.append(sk, meta, row)
        col_ext = crs.canonical_matrix(meta.stilde, meta.ktilde, fld)
        for j, order in enumerate(orders, 1):
            blk = order.new_block
            tag = auth.tag_block(sk, blk, auth.TagContext(meta.fid, meta.ktilde, j, 0), fld)
            assert fld.vec_eq(order.new_tag, tag)
            assert len(order.deltas) == meta.stilde
            for slot, (delta, dm) in enumerate(zip(order.deltas, col_ext.parity_delta(blk)), 1):
                want = auth.tag_delta(
                    sk,
                    auth.TagContext(meta.fid, ktilde_old + slot, j, ctr_old),
                    auth.TagContext(meta.fid, meta.ktilde + slot, j, meta.ctr),
                    dm,
                    fld,
                )
                assert fld.vec_eq(delta, want)


FIELDS = {"zp": M61, "gf2:8": binary_field(8), "gf2:16": binary_field(16)}


def order_bytes(orders, fld):
    """Every order's header and its block, tag and deltas as stored bytes."""
    return [
        (o.fid, o.server, o.target_ctr,
         fld.vectors_to_words([o.new_block, o.new_tag, *o.deltas], len(o.new_block)).tobytes())
        for o in orders
    ]


def spy_on_prf_masks(monkeypatch):
    """Record the cell count of every prf_masks call."""
    asked = []
    kernel = auth.prf_masks

    def spy(kprf, fid, j, cells, count, fld, **kwargs):
        asked.append(len(cells))
        return kernel(kprf, fid, j, cells, count, fld, **kwargs)

    monkeypatch.setattr(auth, "prf_masks", spy)
    return asked


def spy_on_kernel(monkeypatch):
    """Record the cells of every prf_cells call."""
    asked = []
    kernel = auth.prf_cells

    def spy(kprf, fid, cells, count, fld, **kwargs):
        asked.append(list(cells))
        return kernel(kprf, fid, cells, count, fld, **kwargs)

    monkeypatch.setattr(auth, "prf_cells", spy)
    return asked


def next_row(meta, rng):
    payload = client.block_payload_size(meta.field, meta.chunks) * meta.k
    return client.row_blocks_from_payload(meta, rng.randbytes(payload))


@pytest.mark.parametrize("token", sorted(FIELDS))
def test_carried_parity_masks_give_the_same_orders(token, monkeypatch):
    # Each append leaves its new parity masks on the metadata; the next one
    # uses them as its old masks.  Its orders must be those of an append
    # that recomputes them.
    fld = FIELDS[token]
    rng = random.Random(41)
    sk, params = setup(fld, 6, 4, 3, block_size=8, rng=rng)
    meta, _ = outsource(sk, params, rng.randbytes(50), rng=rng)
    twin = dataclasses.replace(meta)
    asked = spy_on_prf_masks(monkeypatch)
    for t in range(4):
        row = next_row(meta, rng)
        asked.clear()
        orders = client.append(sk, meta, row)
        assert asked == [1 + (1 if t else 2) * meta.stilde] * meta.n
        twin.parity_masks = None
        assert order_bytes(orders, fld) == order_bytes(client.append(sk, twin, row), fld)
        assert meta == twin


def fallback_cases(tmp_path):
    """(name, meta, key) pairs an append must not use a carry for."""
    rng = random.Random(42)
    # eps_p = 0.2 with one parity row: the appends below push the parity
    # fraction under it, so redistribute grows stilde.
    sk, params = setup(M61, 5, 3, 1, eps_p=0.2, rng=rng)
    meta, shares = outsource(sk, params, rng.randbytes(42), rng=rng)
    servers = client.make_server_states(meta, shares)
    for _ in range(6):
        orders = client.append(sk, meta, next_row(meta, rng))
        for state, order in zip(servers, orders):
            server.apply_append(state, order)
    assert meta.parity_masks is not None
    result = redistribute(sk, meta, [server.dump_all(state) for state in servers])
    assert result.meta.ctr == meta.ctr + 1 and result.meta.stilde > meta.stilde
    path = tmp_path / "file.meta"
    path.write_bytes(store.meta_bytes(meta))
    grown = dataclasses.replace(meta)
    grown.stilde += 1
    return rng, meta, [
        ("other key", meta, keygen(M61, rng)),
        ("redistributed", result.meta, sk),
        ("redistributed with the old carry",
         dataclasses.replace(result.meta, parity_masks=meta.parity_masks), sk),
        ("stilde changed", grown, sk),
        # What a redistribute that keeps stilde changes.
        ("counter moved", dataclasses.replace(meta, ctr=meta.ctr + 1), sk),
        ("read back", store.read_meta(path), sk),
    ]


def test_appends_outside_the_carry_key_recompute_every_mask(tmp_path, monkeypatch):
    rng, meta, cases = fallback_cases(tmp_path)
    asked = spy_on_prf_masks(monkeypatch)
    for name, case, key in cases:
        row = next_row(case, rng)
        fresh = dataclasses.replace(case, parity_masks=None)
        asked.clear()
        orders = client.append(key, dataclasses.replace(case), row)
        assert asked == [1 + 2 * case.stilde] * case.n, name
        assert order_bytes(orders, M61) == order_bytes(client.append(key, fresh, row), M61), name


def test_carry_is_invisible_outside_append(tmp_path):
    _, meta, _ = fallback_cases(tmp_path)
    bare = dataclasses.replace(meta, parity_masks=None)
    assert meta.parity_masks is not None
    assert store.meta_bytes(meta) == store.meta_bytes(bare)
    assert meta == bare and repr(meta) == repr(bare)
    assert "parity_masks" not in repr(meta)


def appended_servers(fld, rng, appends=3):
    """A small file after in-memory appends, with its servers, the key and
    each server's parity cells from before the last append."""
    sk, params = setup(fld, 6, 4, 3, block_size=8, rng=rng)
    meta, shares = outsource(sk, params, rng.randbytes(50), rng=rng)
    servers = client.make_server_states(meta, shares)
    for _ in range(appends):
        stale = [list(state.cells[meta.ktilde :]) for state in servers]
        orders = client.append(sk, meta, next_row(meta, rng))
        for state, order in zip(servers, orders):
            server.apply_append(state, order)
    return sk, meta, servers, stale


@pytest.mark.parametrize("token", sorted(FIELDS))
def test_verify_with_the_carry_gives_the_same_verdicts(token, monkeypatch):
    # Rows ktilde..r come from the masks the last append carried; every
    # verdict must be that of a verify that recomputes them.
    fld = FIELDS[token]
    rng = random.Random(43)
    sk, meta, servers, stale = appended_servers(fld, rng)
    assert meta.parity_masks is not None
    servers[1].cells[meta.ktilde :] = stale[1]  # parity rolled back one append
    block, tag = servers[2].cells[meta.ktilde - 1]  # the newest row, tampered
    one = fld.vec_from_ints([1] * len(block))
    servers[2].cells[meta.ktilde - 1] = (fld.vec_add(block, one), tag)
    newest, parity = [meta.ktilde], list(range(meta.ktilde + 1, meta.r + 1))
    older = list(range(1, meta.ktilde))
    row_sets = [newest + parity, parity, newest, rng.sample(older, 3) + newest + parity]
    row_sets += [rng.sample(older, 2) + rng.sample(newest + parity, 2) for _ in range(4)]
    row_sets += [[i for i, _ in challenge(meta, l, rng).entries] for l in (1, 4, meta.r)]
    for rows in row_sets:
        rng.shuffle(rows)
        q = client.ChallengeSet(0, tuple((i, fld.rand_nonzero(rng)) for i in rows))
        proof = [server.prove(state, q) for state in servers]
        proof[3] = proof[3][:1]  # misshapen
        proof[4] = None  # missing
        verdicts = verify(sk, meta, q, proof)
        assert verdicts == verify(sk, dataclasses.replace(meta, parity_masks=None), q, proof)
        touches = set(rows).__contains__
        rolled_back = any(map(touches, parity))
        assert verdicts == [True, not rolled_back, not touches(meta.ktilde), False, False, True]

    # Carried rows with cached data rows: the kernel is not asked at all,
    # and the newest row's masks join the cache like computed ones.
    auth.clear_prf_cache()
    data = rng.sample(older, 3)
    q = client.ChallengeSet(0, tuple((i, fld.rand_nonzero(rng)) for i in data))
    verify(sk, meta, q, [server.prove(state, q) for state in servers])
    asked = spy_on_kernel(monkeypatch)
    rows = data + newest + parity
    q = client.ChallengeSet(0, tuple((i, fld.rand_nonzero(rng)) for i in rows))
    proof = [server.prove(state, q) for state in servers]
    assert verify(sk, meta, q, proof) == [True, False, False, True, True, True]
    assert asked == []
    # One entry for the newest row, holding all six servers' masks.
    entry = auth._PRF_CACHE[(sk.kprf, meta.fid, meta.ktilde, meta.chunks, fld.token)]
    assert len(entry) == 6 * meta.chunks * fld.element_size


def proof_for(sk, meta, q, rng):
    """A response that passes exactly when the masks are those of meta's
    current contexts under sk, computed here by the kernel."""
    fld, c = meta.field, meta.chunks
    cells = [(i, client.cell_ctr(meta.ktilde, meta.ctr, i)) for i, _ in q.entries]
    coeffs = [nu for _, nu in q.entries]
    proof = []
    for j in range(1, meta.n + 1):
        mu = fld.vec_from_ints([fld.rand_element(rng) for _ in range(c)])
        masks = auth.prf_masks(sk.kprf, meta.fid, j, cells, c, fld)
        sigma = fld.vec_add(fld.vec_combine(coeffs, masks), fld.vec_scale(sk.alpha, mu))
        proof.append((mu, sigma))
    return proof


def test_verify_ignores_a_carry_under_another_key(tmp_path, monkeypatch):
    rng, meta, cases = fallback_cases(tmp_path)
    for name, case, key in cases:
        rows = list(range(case.ktilde, case.r + 1)) + rng.sample(range(1, case.ktilde), 2)
        q = client.ChallengeSet(0, tuple((i, M61.rand_nonzero(rng)) for i in rows))
        proof = proof_for(key, case, q, rng)
        proof[0] = (proof[0][0], M61.vec_add(proof[0][1], (1,)))
        verdicts = []
        for twin in (dataclasses.replace(case), dataclasses.replace(case, parity_masks=None)):
            auth.clear_prf_cache()
            asked = spy_on_kernel(monkeypatch)
            verdicts.append(verify(key, twin, q, proof))
            monkeypatch.undo()
            assert list(map(len, asked)) == [len(rows) * case.n], name
        assert verdicts[0] == verdicts[1] == [False] + [True] * (case.n - 1), name


@pytest.mark.parametrize("token", sorted(FIELDS))
def test_carried_masks_are_read_only(token):
    # append and verify share the carried arrays, and so may the PRF cache.
    rng = random.Random(44)
    _, meta, _, _ = appended_servers(FIELDS[token], rng, appends=2)
    _, carried = meta.parity_masks
    assert len(carried) == meta.n and {masks.shape for masks in carried} == {
        (1 + meta.stilde, meta.chunks)
    }
    for vec in (vec for masks in carried for vec in masks):
        with pytest.raises(ValueError):
            vec[0] ^= 1


@pytest.mark.parametrize("token", sorted(FIELDS))
def test_cached_masks_keep_no_append_array_alive(token):
    # An audit stores the carried mask of the newest data row in the PRF
    # cache; the cache must keep its own copy, not a view that pins the
    # append's whole array once the carry and the orders are gone.
    rng = random.Random(45)
    auth.clear_prf_cache()
    sk, meta, servers, _ = appended_servers(FIELDS[token], rng, appends=1)
    _, carried = meta.parity_masks
    arrays = [weakref.ref(masks.base) for masks in carried]
    q = client.ChallengeSet(0, ((meta.ktilde, 1),))
    assert all(verify(sk, meta, q, [server.prove(state, q) for state in servers]))
    assert {key[2] for key in auth._PRF_CACHE} == {meta.ktilde}
    del carried
    meta.parity_masks = None
    gc.collect()
    assert [ref() for ref in arrays] == [None] * meta.n


def reference_verdicts(sk, meta, q, proof):
    """Per-server verdicts from the definition: a response is two rows of
    c field elements, and sigma = sum_i nu_i PRF(i, j, ctr_i) + alpha mu,
    chunk by chunk, with the masks from the kernel, one server at a time."""
    fld, c = meta.field, meta.chunks
    cells = [(i, client.cell_ctr(meta.ktilde, meta.ctr, i)) for i, _ in q.entries]
    verdicts = []
    for j, response in enumerate(proof, 1):
        try:
            rows = [np.asarray(v) for v in response]
        except TypeError:
            rows = []
        if len(rows) != 2 or any(
            v.shape != (c,) or v.dtype.kind not in "iu" or v.min() < 0 or v.max() >= fld.order
            for v in rows
        ):
            verdicts.append(False)
            continue
        mu, sigma = (list(map(int, v)) for v in rows)
        masks = auth.prf_masks(sk.kprf, meta.fid, j, cells, c, fld).tolist()
        want = [fld.mul(sk.alpha, x) for x in mu]
        for (_, nu), mask in zip(q.entries, masks):
            want = [fld.add(w, fld.mul(nu, m)) for w, m in zip(want, mask)]
        verdicts.append(want == sigma)
    return verdicts


@pytest.mark.parametrize("token", sorted(FIELDS))
def test_one_pass_verify_matches_a_per_server_reference(token, monkeypatch):
    fld = FIELDS[token]
    rng = random.Random(46)
    sk, meta, servers, stale = appended_servers(fld, rng)
    c = meta.chunks
    servers[5].cells[meta.ktilde :] = stale[5]  # parity rolled back one append
    other = keygen(fld, rng)
    newest, parity = [meta.ktilde], list(range(meta.ktilde + 1, meta.r + 1))
    older = list(range(1, meta.ktilde))
    row_sets = [older[:2] + newest + parity, rng.sample(older, 3), newest, parity[:1]]
    # The second time, data rows come from the cache.  Last, all coefficients
    # 0: a zero response then matches, and only screening fails a bad pair.
    challenges = [[(i, fld.rand_element(rng)) for i in rows] for rows in row_sets * 2]
    challenges.append([(i, 0) for i in row_sets[0]])
    kernel_calls = spy_on_kernel(monkeypatch)
    auth.clear_prf_cache()
    for entries in challenges:
        q = client.ChallengeSet(0, tuple(entries))
        rows = [i for i, _ in entries]
        honest = [server.prove(state, q) for state in servers]
        mu, sigma = honest[4]
        bumped = fld.vec_add(fld.vectors_from_words(mu[None])[0], fld.vec_from_ints([1] * c))
        proofs = {
            "honest": honest,
            "none": [None] + honest[1:],
            "not a pair": [honest[0][:1], (mu, sigma, mu)] + honest[2:],
            "wrong shape": [(mu[:-1], sigma[:-1]), (mu[None], sigma)] + honest[2:],
            "non-elements": [
                (mu.astype(float), sigma),
                (np.full(c, fld.order, np.int64), sigma),
                ([True] * c, sigma),
            ] + honest[3:],
            "tampered mu": honest[:4] + [(bumped, sigma)] + honest[5:],
        }
        failing = {
            "honest": [], "none": [0], "not a pair": [0, 1], "wrong shape": [0, 1],
            "non-elements": [0, 1, 2], "tampered mu": [4],
        }
        for name, proof in proofs.items():
            metas = {
                "carry": (sk, meta),
                "no carry": (sk, dataclasses.replace(meta, parity_masks=None)),
                "carry under another key": (other, meta),
            }
            for how, (key, case) in metas.items():
                kernel_calls.clear()
                got = verify(key, case, q, proof)
                assert len(kernel_calls) <= 1, (rows, name, how)
                assert got == reference_verdicts(key, case, q, proof), (rows, name, how)
            want = [True] * 5 + [not any(nu for i, nu in entries if i in parity)]
            for t in failing[name]:
                want[t] = False
            assert verify(sk, meta, q, proof) == want, (rows, name)


def test_repair_checks_each_cell_alone(monkeypatch):
    # Repair's tag checks take a cached row's slot or compute their one
    # cell: the kernel sees the checked cells that no cached row holds,
    # plus the re-tagging of every cell, and never a whole row on a miss.
    rng = random.Random(47)
    sk, meta, servers, _ = appended_servers(M61, rng, appends=2)
    auth.clear_prf_cache()
    q = client.ChallengeSet(0, tuple((i, 1) for i in (1, 3)))
    assert all(verify(sk, meta, q, [server.prove(state, q) for state in servers]))
    cached = {key[2] for key in auth._PRF_CACHE}
    assert cached == {1, 3}
    servers[2].cells = [None] * meta.r
    dumps = [server.dump_all(state) for state in servers]
    checked = [(i, j) for j in range(1, meta.n + 1) if j != 3 for i in range(1, meta.r + 1)]
    asked = spy_on_kernel(monkeypatch)
    result = redistribute(sk, meta, dumps)
    assert result is not None
    misses = [cell for cell in checked if cell[0] not in cached]
    retagged = meta.n * result.meta.r
    assert sum(map(len, asked)) == len(misses) + retagged
    checks = [cells for cells in asked if len(cells) == 1]
    assert sorted((i, j) for ((i, j, _),) in checks) == sorted(misses)
