"""Per-server work shared between forked processes (fanout.map_servers).

Whether a call forks must change no byte: the shares, the append orders
and their carried masks, and the metadata are compared against a run on
one CPU.  A child that fails, a fork that fails and a live thread must
each leave no child process behind.
"""

import os
import random
import threading

import numpy as np
import pytest

from porcrs import auth, client, fanout, server, store
from porcrs.field import binary_field, prime_field

FIELDS = {"zp": prime_field(), "gf2:8": binary_field(8), "gf2:16": binary_field(16)}
N = 7  # servers: not a multiple of the CPU counts below


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the process may use, with the fork threshold at 0
    so that toy shapes fork; returns a list that records each os.fork from
    then on."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(fanout, "FORK_CHUNKS", 0)
    monkeypatch.setattr(os, "fork", counted)

    def allow(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        forks.clear()
        return forks

    return allow


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def column_bytes(columns):
    return [column.words[: len(column)].tobytes() for column in columns]


def protocol_bytes(fld, seed=7):
    """Every byte the client produces over outsource, 3 appends and a
    redistribute with one server wiped."""
    rng = random.Random(seed)
    sk, params = client.setup(fld, N, 4, 3, block_size=8, rng=rng)
    meta, shares = client.outsource(sk, params, rng.randbytes(60), rng=rng)

    def stored(vecs):
        return fld.vectors_to_words(vecs, meta.chunks).tobytes()

    out = [column_bytes(shares)]
    servers = client.make_server_states(meta, shares)
    payload = client.block_payload_size(fld, meta.chunks) * meta.k
    for _ in range(3):
        row = client.row_blocks_from_payload(meta, rng.randbytes(payload))
        orders = client.append(sk, meta, row)
        for state, order in zip(servers, orders):
            server.apply_append(state, order)
        _, carried = meta.parity_masks
        out.append([
            (o.server, o.target_ctr, stored([o.new_block, o.new_tag, *o.deltas]))
            for o in orders
        ])
        out.append([stored(masks) for masks in carried])
        out.append(store.meta_bytes(meta))
    dumps = [server.dump_all(state) for state in servers]
    dumps[2] = None
    result = client.redistribute(sk, meta, dumps)
    out += [result.data, column_bytes(result.shares), store.meta_bytes(result.meta)]
    return out


@pytest.mark.parametrize("token", sorted(FIELDS))
def test_forked_and_serial_runs_give_the_same_bytes(token, cpus):
    fld = FIELDS[token]
    forks = cpus(3)
    forked = protocol_bytes(fld)
    # outsource, 3 appends and redistribute, each split over 3 processes.
    assert len(forks) == 5 * 2
    forks = cpus(1)
    assert protocol_bytes(fld) == forked
    assert forks == []
    assert_no_child_left()


def test_results_cross_the_pipe_as_they_were(cpus):
    def fn(j):
        rows = (j - 1) % 3  # servers 1, 4 and 7 send no rows
        return np.arange(rows * j, dtype=["<u8", "<u2", "|u1"][j % 3]).reshape(rows, j)

    serial = list(map(fn, range(1, N + 1)))
    for count in (2, 3, N, N + 4):
        forks = cpus(count)
        got = list(fanout.map_servers(fn, N, 1))
        assert len(forks) == min(count, N) - 1
        assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape) for a in serial]
        assert all(np.array_equal(a, b) for a, b in zip(got, serial))
    assert_no_child_left()


def test_shares_are_contiguous_and_the_first_is_smallest():
    assert fanout._shares(7, 3) == [range(1, 3), range(3, 5), range(5, 8)]
    assert fanout._shares(15, 2) == [range(1, 8), range(8, 16)]
    assert fanout._shares(4, 4) == [range(t, t + 1) for t in range(1, 5)]


def test_small_calls_and_single_cpus_stay_in_this_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert fanout.processes(15, fanout.FORK_CHUNKS - 1) == 1
    assert fanout.processes(15, fanout.FORK_CHUNKS) == 2
    assert fanout.processes(1, fanout.FORK_CHUNKS) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert fanout.processes(15, 1 << 30) == 1


def test_a_failing_child_makes_the_parent_raise(cpus):
    def fn(j):
        if j == N:
            raise ValueError("the last server fails")
        return np.full((1, 2), j, dtype="<u8")

    cpus(2)  # the parent takes servers 1..3, the child 4..7
    got = []
    with pytest.raises(ChildProcessError, match=r"servers 4\.\.7 ended with exit status 1"):
        got.extend(fanout.map_servers(fn, N, 1))
    assert [int(words[0, 0]) for words in got] == [1, 2, 3]  # nothing of the child's
    assert_no_child_left()


def test_a_failing_child_fails_outsource(cpus, monkeypatch):
    kernel = auth.prf_masks

    def prf_masks(kprf, fid, j, *args, **kwargs):
        if j == N:
            raise ValueError("the last server fails")
        return kernel(kprf, fid, j, *args, **kwargs)

    monkeypatch.setattr(auth, "prf_masks", prf_masks)
    cpus(2)
    rng = random.Random(8)
    sk, params = client.setup(FIELDS["gf2:16"], N, 4, 3, block_size=8, rng=rng)
    with pytest.raises(ChildProcessError):
        client.outsource(sk, params, rng.randbytes(60), rng=rng)
    assert_no_child_left()


def test_a_failure_in_the_parent_kills_the_children(cpus):
    started = threading.Event()

    def fn(j):
        if j == 1:
            raise ValueError("the first server fails")
        started.wait(60)  # never set: each child would wait its full minute
        return np.zeros((1, 1), dtype="<u8")

    cpus(3)
    with pytest.raises(ValueError, match="first server"):
        list(fanout.map_servers(fn, N, 1))
    assert_no_child_left()


def test_leaving_early_kills_the_children(cpus):
    def fn(j):
        return np.full((1, 1), j, dtype="<u8")

    cpus(3)
    results = fanout.map_servers(fn, N, 1)
    assert int(next(results)[0, 0]) == 1
    results.close()
    assert_no_child_left()


@pytest.mark.parametrize("token", ["zp", "gf2:16"])
def test_a_failed_fork_runs_the_servers_here(token, cpus, monkeypatch):
    fld = FIELDS[token]
    cpus(1)
    serial = protocol_bytes(fld)

    def fork():
        raise OSError("no more processes")

    cpus(3)
    monkeypatch.setattr(os, "fork", fork)
    assert protocol_bytes(fld) == serial
    assert_no_child_left()


def test_a_live_thread_keeps_the_work_here(cpus):
    fld = FIELDS["gf2:16"]
    forks = cpus(1)
    serial = protocol_bytes(fld)
    forks = cpus(3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert protocol_bytes(fld) == serial
    finally:
        stop.set()
        thread.join()
    assert forks == []
    assert_no_child_left()
