"""Per-server client work spread over the CPUs this process may use.

The client's PRF work is independent from server to server: the tags of
each column at outsource and repair, and each server's new tag, tag
deltas and carried masks at an append.  hashlib holds the GIL while it
hashes a 40-byte input, so threads cannot share that work; map_servers
forks instead.  It forks only when the process may run on more than one
CPU (``os.sched_getaffinity``), the call has at least FORK_CHUNKS PRF
chunks, and no other Python thread is alive (a fork copies only the
calling thread, so a lock another thread holds would stay held in the
child).  Otherwise, and when ``os.fork`` fails, the same per-server
function runs here, server after server.

Each child takes a contiguous share of the servers and the parent takes
the first, the smallest, since it also reads the children's results.  A
child writes nothing but its own anonymous pipe: it never writes the
parent's ``Column`` pages, which are shared ``mmap`` pages, and no file.
It sends each server's result as stored words, then ends with
``os._exit``, with a nonzero status on any error.  The parent reads the
results one server at a time, in server order, and reaps every child
with ``os.waitpid``; a child that fails makes the parent raise
ChildProcessError.  A child inherits the key as any fork does; only
stored words and masks cross the pipe.

Work done in a child is invisible to anything that watches this process:
a spy or a counter patched over a kernel sees none of its calls, and a
span around one sees only the wait.  Tests that count kernel calls use
shapes below FORK_CHUNKS.
"""

from __future__ import annotations

import os
import signal
import struct
import threading

import numpy as np

# PRF chunks below which a call stays in this process.  A fork, its pipe
# and its reaping take about 2 ms in a 60 MiB process; 2^15 chunks take
# about 16 ms of PRF work in GF(2^16) and 47 ms in Z_p.
FORK_CHUNKS = 1 << 15

_HEAD = struct.Struct("<4sQQ")  # dtype, rows and columns of one result


def processes(servers: int, chunks: int) -> int:
    """How many processes map_servers shares a call over servers with
    chunks PRF chunks in all between."""
    if chunks < FORK_CHUNKS or threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), servers))


def _shares(n: int, count: int) -> list[range]:
    """Servers 1..n cut into count contiguous shares, the smallest first."""
    size, extra = divmod(n, count)
    shares, lo = [], 1
    for t in range(count):
        hi = lo + size + (t >= count - extra)
        shares.append(range(lo, hi))
        lo = hi
    return shares


def map_servers(fn, n: int, chunks: int):
    """Yield fn(j) for servers j = 1..n, in server order.

    fn(j) returns server j's result as a 2-D array of stored words, and
    reads, but never writes, what the caller holds.  chunks is the PRF
    chunks of the whole call, which decides whether it forks.  Close the
    generator when leaving it early: that kills and reaps the children.
    """
    shares = _shares(n, processes(n, chunks))
    children = []  # (share, pid, read end) of each forked share
    complete = False
    try:
        for share in shares[1:]:
            child = _fork(fn, share)
            if child is None:
                break  # this share and those after it run here
            children.append((share, *child))
        source = {j: fd for share, _, fd in children for j in share}
        for j in range(1, n + 1):
            fd = source.get(j)
            words = fn(j) if fd is None else _receive(fd)
            if words is None:
                break  # the child ended before it sent server j
            yield words
        else:
            complete = True
    finally:
        for _, pid, fd in children:
            os.close(fd)
            if not complete:
                os.kill(pid, signal.SIGKILL)
        statuses = [(share, os.waitpid(pid, 0)[1]) for share, pid, _ in children]
    failed = [(share, status) for share, status in statuses if status]
    if failed or not complete:
        raise ChildProcessError(
            "; ".join(
                f"worker for servers {share[0]}..{share[-1]} ended with "
                f"{_describe(status)}" for share, status in failed
            ) or "a worker ended before sending its results"
        )


def _describe(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"signal {-code}" if code < 0 else f"exit status {code}"


def _fork(fn, share):
    """(pid, read end) of a child that sends fn(j) for each server j of
    share, or None when the pipe or the fork fails."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:  # the child: never returns
        status = 1
        try:
            os.close(read)
            _send([np.ascontiguousarray(fn(j)) for j in share], write)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _send(results, fd: int) -> None:
    for words in results:
        _write(fd, _HEAD.pack(words.dtype.str.encode("ascii"), *words.shape))
        _write(fd, words.reshape(-1).view(np.uint8))


def _write(fd: int, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _receive(fd: int):
    """One result from a child's pipe, or None at its end."""
    head = _read(fd, _HEAD.size)
    if head is None:
        return None
    dtype, rows, cols = _HEAD.unpack(head)
    dtype = np.dtype(dtype.rstrip(b"\0").decode("ascii"))
    body = _read(fd, rows * cols * dtype.itemsize)
    return None if body is None else np.frombuffer(body, dtype).reshape(rows, cols)


def _read(fd: int, size: int):
    """Exactly size bytes from fd, or None when it ends before them."""
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        count = os.readv(fd, [view[got:]])
        if not count:
            return None
        got += count
    return buf
