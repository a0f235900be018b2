"""Secret keys, the keyed PRF, and per-chunk homomorphic block tags.

A tag binds one stored block to its logical position: for every chunk u of
block m at grid cell (row i, server j) under append counter ctr,

    tag[u] = PRF(kprf; fid, i, j, ctr, u) + alpha * m[u]

in the file's field.  Linear combinations of tags therefore authenticate
the same combinations of blocks, which is what lets servers answer audits
with aggregates and apply client-supplied tag deltas to self-updated
parity blocks without ever seeing the key.

The PRF is keyed BLAKE2b with a 16-byte digest (digest_size=16) over the
canonical serialization fid || i || j || ctr || u with fid as 16 raw bytes
and each index as an 8-byte big-endian integer.  The 16 digest bytes, read
as a big-endian integer, are reduced into the field: mod p in a prime
field, the low w bits in GF(2^w).  This serialization is fixed so
independently produced artifacts interoperate.  fid and the chunk index u
take part in the input to domain-separate files under one key and to give
every chunk its own mask.

One kernel, prf_cells, computes the masks of many cells, given as
(row, server, ctr), of one server's column or of all n: it keys one
BLAKE2b state and feeds it fid once per call, and each chunk then hashes
a copy of that state, updated with i || j || ctr and then u.  The bytes
hashed are those above, so the masks are unchanged; a batch saves the
key-block compression and the per-cell set-up.  The chunk suffixes u are
built per call; no module-level table holds them.  States are copied,
updated and read in C-level passes, 256 at a time: in Z_p over the
chunks of all cells, in GF(2^w) over each cell's chunks.  prf_masks is
the kernel for one server's column (cells as (row, ctr)), and prf,
prf_vector, prf_vector_cached, tag_block, tag_delta and verify_block are
one-cell wrappers over the kernel.  The client calls prf_masks once per
server for outsource and append, and an audit makes at most one kernel
call for all n servers.  Outsource, repair's re-tagging and append share
their servers between forked processes (``fanout.map_servers``) when the
call is large enough and the process may use more than one CPU; each
server's call runs whole in one process, so its masks are the ones
above.  The children inherit the key as any fork does, and only stored
words come back through an anonymous pipe.  Audits and repair's cell
checks stay in this process, since their stores into the mask cache
would be lost in a child.

Masks, tags and tag deltas are arrays of stored words, one row per cell.
An append asks for 1 + 2 stilde cells per server (the new data cell and
each parity slot at its old and new context), but an in-memory append
after the first asks for 1 + stilde: it reuses the masks the previous
append left on the metadata.  That carry is one read-only
(1 + stilde, c) array per server, the masks of the newest data row and
of the parity rows in row order.  An audit takes the masks of those rows
from the carry too, so right after an in-memory append it asks the
kernel only for data rows the mask cache lacks.  A ``porcrs append`` or
``porcrs audit`` process reads fresh metadata, has no carry, and
computes every mask it needs.

The mask cache keeps data rows only (counter 0, a context that never
changes), one entry per grid row: the bytes of the stored words of
servers 1..n's masks of that row, n the file's server count.  An audit
(prf_rows_cached) takes one lookup per challenged row, and stores each
data row it held or computed: a carried mask of a data row joins the
cache as a computed one would, and the entry holds no view of a larger
array.  Repair's cell check (prf_vector_cached) reads its server's slot
of a cached row; on a miss it computes its one cell, never the row, and
stores nothing.  The cache holds about 16,384 cells (16,384 // n rows)
and is cleared wholesale when full.  Only those two functions and
clear_prf_cache touch it.

alpha is never 0: with alpha = 0 a tag is its mask alone, and any block
would verify.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import os
import random
import struct
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat, starmap

import numpy as np

from .errors import FormatError, ParameterError
from .field import BinaryField, Field
from .textfile import read_entries

_DIGEST = 16


@dataclass(frozen=True)
class SecretKey:
    """Client-only key: a uniform field element and a 32-byte PRF key."""

    alpha: int
    kprf: bytes

    def __post_init__(self):
        if len(self.kprf) != 32:
            raise ParameterError("kprf must be exactly 32 bytes")


@dataclass(frozen=True)
class TagContext:
    """Logical position a tag is bound to."""

    fid: bytes
    row: int  # 1-based grid row
    server: int  # 1-based server index
    ctr: int  # append counter the tag was issued under
    chunk: int = 0

    def __post_init__(self):
        if len(self.fid) != 16:
            raise ParameterError("fid must be exactly 16 bytes")
        if min(self.row, self.server, self.ctr, self.chunk) < 0:
            raise ParameterError("context indices must be nonnegative")


def keygen(fld: Field, rng=None) -> SecretKey:
    """Sample a fresh key (alpha nonzero); rng is for deterministic tests
    and simulations."""
    if rng is None:
        return SecretKey(fld.rand_nonzero(random.SystemRandom()), os.urandom(32))
    return SecretKey(fld.rand_nonzero(rng), rng.getrandbits(256).to_bytes(32, "big"))


# Chunk states alive at once: 256 BLAKE2b objects take 112 KiB.  With a
# whole 2048-chunk cell at once, the allocator kept about 2 MiB more after
# archive-gf2's set-up, memory those objects had used.
_GROUP = 256
_CONTEXT = struct.Struct(">QQQ")  # row || server || ctr


def _hashed(state, *parts) -> list:
    """Copies of state, copy t updated with part[t] of each part in turn,
    in C-level passes."""
    blake = hashlib.blake2b
    states = list(map(blake.copy, repeat(state, len(parts[0]))))
    for part in parts:
        deque(map(blake.update, states, part), maxlen=0)
    return states


def prf_cells(kprf: bytes, fid: bytes, cells, count: int, fld: Field, *, first: int = 0):
    """PRF masks of many cells, of one server's column or of several.

    cells is a list of (row, server, ctr) triples; row t of the
    (len(cells), count) array of stored words that is returned holds the
    PRF values of chunks first..first+count-1 of cell t.  One keyed BLAKE2b
    state absorbs fid once per call, and each chunk hashes a copy of it
    updated with row || server || ctr, then with u, so the bytes are those
    of the per-cell definition above.  Copies are made, updated and read
    in C-level passes over _GROUP states at a time, and the 8-byte chunk
    suffixes u are built once per call.  In Z_p a state is copied per
    chunk and takes both parts, and each digest is reduced mod p.  In
    GF(2^w) each cell's state takes row || server || ctr once and is
    copied per chunk, and the low w bits of each digest, its last w/8
    bytes, are read as one big-endian word, whatever w is.
    """
    if len(fid) != 16:
        raise ParameterError("fid must be exactly 16 bytes")
    if min(count, first) < 0 or (cells and min(chain.from_iterable(cells)) < 0):
        raise ParameterError("context indices must be nonnegative")
    base = hashlib.blake2b(fid, key=kprf, digest_size=_DIGEST)
    chunks = list(map(int.to_bytes, range(first, first + count), repeat(8), repeat("big")))
    contexts = list(starmap(_CONTEXT.pack, cells))
    digest = hashlib.blake2b.digest
    if isinstance(fld, BinaryField):
        out = np.empty((len(cells), count), dtype=fld.stored_dtype)
        word = np.dtype(f">u{fld.element_size}")
        groups = [chunks[lo : lo + _GROUP] for lo in range(0, count, _GROUP)]
        for t, context in enumerate(contexts):
            cell = base.copy()
            cell.update(context)
            digests = b"".join([b"".join(map(digest, _hashed(cell, group))) for group in groups])
            raw = np.frombuffer(digests, dtype=np.uint8).reshape(count, _DIGEST)
            out[t] = raw[:, _DIGEST - word.itemsize :].copy().view(word).ravel()
        return out
    if count != 1:
        contexts = list(chain.from_iterable(map(repeat, contexts, repeat(count))))
    suffixes = chunks * len(cells)

    def masks(lo: int):
        states = _hashed(base, contexts[lo : lo + _GROUP], suffixes[lo : lo + _GROUP])
        values = map(int.from_bytes, map(digest, states), repeat("big"))
        return map(operator.mod, values, repeat(fld.order))

    groups = map(masks, range(0, len(contexts), _GROUP))
    out = np.fromiter(chain.from_iterable(groups), fld.stored_dtype, len(contexts))
    return out.reshape(len(cells), count)


def prf_masks(
    kprf: bytes, fid: bytes, server: int, cells, count: int, fld: Field, *, first: int = 0
):
    """prf_cells for one server's column: cells is a list of (row, ctr)
    pairs, and the array is the same."""
    cells = [(row, server, ctr) for row, ctr in cells]
    return prf_cells(kprf, fid, cells, count, fld, first=first)


def prf(kprf: bytes, ctx: TagContext, fld: Field) -> int:
    """One PRF value, reduced into the field."""
    cells = [(ctx.row, ctx.ctr)]
    return int(prf_masks(kprf, ctx.fid, ctx.server, cells, 1, fld, first=ctx.chunk)[0][0])


def prf_vector(kprf: bytes, ctx: TagContext, count: int, fld: Field):
    """PRF values for chunks 0..count-1 of one cell, as a chunk vector."""
    masks = prf_masks(kprf, ctx.fid, ctx.server, [(ctx.row, ctx.ctr)], count, fld)
    return fld.vectors_from_words(masks)[0]


# Masks are PRF values the client can always recompute; memoize those of
# counter-0 (data) rows, whose context never changes, while a parity
# row's moves with every append.  One entry per grid row holds the bytes
# of the masks of servers 1..n, n the file's server count: about
# _PRF_CACHE_MAX cells, 16,384 // n rows, cleared wholesale when full.
_PRF_CACHE: dict = {}
_PRF_CACHE_MAX = 16384


def _row_key(kprf: bytes, fid: bytes, row: int, count: int, fld: Field) -> tuple:
    return (kprf, fid, row, count, fld.token)


def prf_rows_cached(kprf: bytes, fid: bytes, rows, fld: Field, out, held=None) -> None:
    """Write the masks of servers 1..n at each (row, ctr) of rows into out,
    a (len(rows), n, count) array of stored words.

    A counter-0 row takes one cache lookup.  held maps the index of a row
    in rows to the (n, count) stored words the caller already holds for
    it; they stand in for the kernel.  Every other row's n cells go to one
    kernel call with the other misses.  Counter-0 rows, held or computed,
    are stored as bytes of their own, never a view: a held row is often
    made of rows of an append's arrays, which a cache entry would
    otherwise keep alive long after the append.  A mask does not depend on
    n, so an entry of more servers serves a smaller n too.
    """
    _, n, count = out.shape
    keys = [_row_key(kprf, fid, row, count, fld) if ctr == 0 else None for row, ctr in rows]
    fresh, missing = [], []
    for t, key in enumerate(keys):
        entry = _PRF_CACHE.get(key) if key else None
        if entry is not None and len(entry) >= out[t].nbytes:
            out[t] = np.frombuffer(entry, fld.stored_dtype, n * count).reshape(n, count)
        elif held and t in held:
            out[t] = held[t]
            fresh.append(t)
        else:
            missing.append(t)
    if missing:
        cells = [(rows[t][0], j, rows[t][1]) for t in missing for j in range(1, n + 1)]
        out[missing] = prf_cells(kprf, fid, cells, count, fld).reshape(len(missing), n, count)
    for t in fresh + missing:
        if keys[t] is None:
            continue
        if len(_PRF_CACHE) >= max(1, _PRF_CACHE_MAX // n):
            _PRF_CACHE.clear()
        _PRF_CACHE[keys[t]] = out[t].tobytes()


def prf_vector_cached(kprf: bytes, ctx: TagContext, count: int, fld: Field):
    """One cell's masks, as a read-only row of stored words: its server's
    slot of a cached row, or on a miss that cell alone from the kernel,
    never its whole row, and stored nowhere."""
    size = count * fld.element_size
    entry = _PRF_CACHE.get(_row_key(kprf, ctx.fid, ctx.row, count, fld)) if ctx.ctr == 0 else None
    if entry is not None and 0 < ctx.server and ctx.server * size <= len(entry):
        return np.frombuffer(entry, fld.stored_dtype, count, (ctx.server - 1) * size)
    masks = prf_cells(kprf, ctx.fid, [(ctx.row, ctx.server, ctx.ctr)], count, fld)[0]
    masks.flags.writeable = False
    return masks


def clear_prf_cache() -> None:
    _PRF_CACHE.clear()


def tags_from_masks(alpha: int, masks, blocks, fld: Field):
    """mask + alpha * block for each cell: the tag formula, on (cells, c)
    arrays of stored words.  In Z_p one flat pass covers every chunk of
    every cell."""
    if masks.shape != blocks.shape:
        raise ParameterError("each cell's mask and block must have the same chunk count")
    if isinstance(fld, BinaryField):
        return fld.vec_add(masks, fld.vec_scale(alpha, blocks))
    p = fld.order
    pairs = zip(masks.ravel().tolist(), blocks.ravel().tolist())
    # A generator, so that no list of a whole column's tags is held.
    tags = ((x + alpha * y) % p for x, y in pairs)
    return np.fromiter(tags, fld.stored_dtype, masks.size).reshape(masks.shape)


def tag_block(sk: SecretKey, block, ctx: TagContext, fld: Field):
    """Tag every chunk of a block at the given position."""
    c = len(block)
    masks = fld.vectors_to_words([prf_vector(sk.kprf, ctx, c, fld)], c)
    tags = tags_from_masks(sk.alpha, masks, fld.vectors_to_words([block], c), fld)
    return fld.vectors_from_words(tags)[0]


def verify_block(sk: SecretKey, block, tag, ctx: TagContext, fld: Field) -> bool:
    """Check a (block, tag) pair against its expected position."""
    if len(block) != len(tag):
        raise ParameterError("block and tag must have the same chunk count")
    c = len(block)
    words = fld.vectors_to_words([block, tag], c)
    masks = prf_vector_cached(sk.kprf, ctx, c, fld)
    return bool((words[1:] == tags_from_masks(sk.alpha, masks[None], words[:1], fld)).all())


def tag_deltas(alpha: int, old_masks, new_masks, delta_blocks, fld: Field):
    """(new mask - old mask) + alpha * delta block for each parity slot, on
    (slots, c) arrays of stored words.

    In Z_p one flat pass covers every chunk of every slot, as in
    tags_from_masks.
    """
    if not old_masks.shape == new_masks.shape == delta_blocks.shape:
        raise ParameterError("old and new masks and delta blocks must cover the same cells")
    if isinstance(fld, BinaryField):
        return tags_from_masks(alpha, fld.vec_sub(new_masks, old_masks), delta_blocks, fld)
    p = fld.order
    flat = zip(*(a.ravel().tolist() for a in (new_masks, old_masks, delta_blocks)))
    deltas = ((x - y + alpha * d) % p for x, y, d in flat)
    return np.fromiter(deltas, fld.stored_dtype, new_masks.size).reshape(new_masks.shape)


def tag_delta(
    sk: SecretKey, ctx_old: TagContext, ctx_new: TagContext, delta_block, fld: Field
):
    """Tag adjustment moving a slot from ctx_old to ctx_new.

    Adding the result chunk-wise to the old tag yields a tag that verifies
    against (old block + delta_block) under ctx_new.  Both contexts are
    explicit because an append shifts a parity slot's row and counter at
    the same time.
    """
    if ctx_old.fid != ctx_new.fid or ctx_old.server != ctx_new.server:
        raise ParameterError("tag delta must stay within one file and server")
    c = len(delta_block)
    cells = [(ctx_old.row, ctx_old.ctr), (ctx_new.row, ctx_new.ctr)]
    masks = prf_masks(sk.kprf, ctx_old.fid, ctx_old.server, cells, c, fld)
    delta = fld.vectors_to_words([delta_block], c)
    return fld.vectors_from_words(tag_deltas(sk.alpha, masks[:1], masks[1:], delta, fld))[0]


# -- keyfile persistence -------------------------------------------------

def _keyfile_entries(fld: Field) -> dict:
    """key -> (parse, format) of each keyfile line, in file order."""
    alpha = (int, str) if fld.kind == "prime" else (functools.partial(int, base=16), "{:x}".format)
    return {"alpha": alpha, "kprf": (bytes.fromhex, bytes.hex)}


def _keyfile_error(message: str, line: int) -> FormatError:
    return FormatError(f"keyfile line {line}: {message}")


def write_keyfile(path, sk: SecretKey, fld: Field) -> None:
    """Two-line text keyfile; alpha decimal for prime fields, hex for binary."""
    from . import store  # not at module load: store imports client, which imports auth
    entries = _keyfile_entries(fld).items()
    data = "".join(f"{key}={fmt(getattr(sk, key))}\n" for key, (_, fmt) in entries)
    store.replace_files({path: lambda: data.encode("ascii")})


def read_keyfile(path, fld: Field) -> SecretKey:
    entries = _keyfile_entries(fld)
    parsers = {key: parse for key, (parse, _) in entries.items()}
    values = read_entries(path, parsers, _keyfile_error)
    if values.keys() != entries.keys():
        raise FormatError("keyfile must contain exactly alpha and kprf")
    if len(values["kprf"]) != 32:
        raise FormatError("keyfile: kprf must be 64 hex characters")
    if not 0 < values["alpha"] < fld.order:
        raise FormatError(f"keyfile: alpha must be a nonzero element of {fld.token}")
    return SecretKey(**values)
