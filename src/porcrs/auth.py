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

One kernel, prf_masks, computes the masks of many cells of one server's
column: it keys one BLAKE2b state and feeds it fid once per call, and each
cell then hashes a copy of that state, updated with i || j || ctr || u.
The bytes hashed are those above, so the masks are unchanged; a batch
saves the key-block compression and the per-cell set-up.  The chunk
suffixes u are built per call; no module-level table holds them.  In
GF(2^w) each cell's chunks go through three C-level passes, 256 chunks
at a time: copy the cell state, update each copy, join the digests.
prf, prf_vector, tag_block, tag_delta and verify_block are one-cell
wrappers over it, and the client calls it once per server for outsource,
append and audit.  Outsource, repair's re-tagging and append share their
servers between forked processes (``fanout.map_servers``) when the call
is large enough and the process may use more than one CPU; each server's
call runs whole in one process, so its masks are the ones above.  The
children inherit the key as any fork does, and only stored words and
masks come back through an anonymous pipe.  Audits and repair's cell
checks stay in this process, since their stores into the mask cache
would be lost in a child.  An append asks for 1 + 2 stilde cells per server (the
new data cell and each parity slot at its old and new context), but an
in-memory append after the first asks for 1 + stilde: it reuses the
masks the previous append left on the metadata.  An audit takes the
masks of the newest data row and of the parity rows from that carry too,
so right after an in-memory append it asks the kernel only for data rows
the mask cache lacks.  A ``porcrs append`` or ``porcrs audit`` process
reads fresh metadata, has no carry, and computes every mask it needs.
The mask cache keeps data cells only (counter 0, a context that never
changes), whoever calls it; a carried mask of a data row joins it as a
computed one would.  Every mask an append carries or the cache holds is
read-only in GF(2^w), since several holders share it.

alpha is never 0: with alpha = 0 a tag is its mask alone, and any block
would verify.
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice, repeat

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


# Chunk states alive at once in GF(2^w): 256 BLAKE2b objects take 112 KiB.
# With a whole 2048-chunk cell at once, the allocator kept about 2 MiB more
# after archive-gf2's set-up, memory those objects had used.
_GROUP = 256


def _digests(cell, suffixes) -> bytes:
    """Digests of copies of the state cell, copy t updated with suffix t,
    in three C-level passes: copy, update, join."""
    blake = hashlib.blake2b
    states = list(map(blake.copy, repeat(cell, len(suffixes))))
    deque(map(blake.update, states, suffixes), maxlen=0)
    return b"".join(map(blake.digest, states))


def prf_masks(
    kprf: bytes, fid: bytes, server: int, cells, count: int, fld: Field, *, first: int = 0
):
    """PRF mask vectors of many cells of one server's column.

    cells is a list of (row, ctr) pairs; entry t of the result holds the
    PRF values of chunks first..first+count-1 of cell t, as a chunk vector.
    One keyed BLAKE2b state absorbs fid once per call, and each cell hashes
    a copy of it updated with row || server || ctr || u, so the bytes are
    those of the per-cell definition above.  The 8-byte chunk suffixes u
    are built once per call.  A digest is reduced mod p in Z_p.  In
    GF(2^w) a cell's chunk states go through three C-level passes (copy
    the cell state, update each copy with its suffix, join the digests),
    _GROUP chunks at a time, and the low w bits of each digest, its last
    w/8 bytes, are kept as one big-endian word, whatever w is.
    """
    if len(fid) != 16:
        raise ParameterError("fid must be exactly 16 bytes")
    if min(server, count, first) < 0 or (cells and min(chain.from_iterable(cells)) < 0):
        raise ParameterError("context indices must be nonnegative")
    base = hashlib.blake2b(fid, key=kprf, digest_size=_DIGEST)
    sj = server.to_bytes(8, "big")
    chunks = list(map(int.to_bytes, range(first, first + count), repeat(8), repeat("big")))
    out = []
    if isinstance(fld, BinaryField):
        word = np.dtype(f">u{fld.element_size}")
        groups = [chunks[lo : lo + _GROUP] for lo in range(0, count, _GROUP)]
        for row, ctr in cells:
            cell = base.copy()
            cell.update(row.to_bytes(8, "big") + sj + ctr.to_bytes(8, "big"))
            digests = b"".join([_digests(cell, group) for group in groups])
            raw = np.frombuffer(digests, dtype=np.uint8).reshape(count, _DIGEST)
            tail = raw[:, _DIGEST - word.itemsize :].copy()
            out.append(tail.view(word).astype(fld.dtype).ravel())
        return out
    p = fld.order
    copy = base.copy
    for row, ctr in cells:
        msg = row.to_bytes(8, "big") + sj + ctr.to_bytes(8, "big")
        vec = []
        for u8 in chunks:
            h = copy()
            h.update(msg + u8)
            vec.append(int.from_bytes(h.digest(), "big") % p)
        out.append(tuple(vec))
    return out


def prf(kprf: bytes, ctx: TagContext, fld: Field) -> int:
    """One PRF value, reduced into the field."""
    cells = [(ctx.row, ctx.ctr)]
    return int(prf_masks(kprf, ctx.fid, ctx.server, cells, 1, fld, first=ctx.chunk)[0][0])


def prf_vector(kprf: bytes, ctx: TagContext, count: int, fld: Field):
    """PRF values for chunks 0..count-1 of one cell, as a chunk vector."""
    return prf_masks(kprf, ctx.fid, ctx.server, [(ctx.row, ctx.ctr)], count, fld)[0]


# Masks are PRF values the client can always recompute; memoize those of
# counter-0 (data) cells, whose context never changes, while a parity
# cell's moves with every append.  Cleared wholesale when full.
_PRF_CACHE: dict = {}
_PRF_CACHE_MAX = 16384


def read_only(masks) -> tuple:
    """The masks as a tuple, each GF(2^w) array made read-only, so that
    holders who share them cannot change one another's copy."""
    for vec in masks:
        if isinstance(vec, np.ndarray):
            vec.flags.writeable = False
    return tuple(masks)


def prf_masks_cached(
    kprf: bytes, fid: bytes, server: int, cells, count: int, fld: Field, held=None
):
    """prf_masks, with counter-0 cells looked up in and stored to the cache.

    held maps the index of a cell in cells to the mask the caller already
    holds for it; that mask stands in for a kernel call and is stored like
    a computed one.  Every other cell and every miss take one kernel call,
    whose masks are returned read-only (GF(2^w)), since the cache may share
    them.
    """
    keys = [(kprf, fid, row, server, count, fld.token) if ctr == 0 else None for row, ctr in cells]
    out = [key and _PRF_CACHE.get(key) for key in keys]
    taken = [(t, vec) for t, vec in held.items() if out[t] is None] if held else []
    for t, vec in taken:
        out[t] = vec
    missing = [t for t, vec in enumerate(out) if vec is None]
    fresh = ()
    if missing:
        fresh = read_only(prf_masks(kprf, fid, server, [cells[t] for t in missing], count, fld))
    for t, vec in chain(taken, zip(missing, fresh)):
        out[t] = vec
        if keys[t] is None:
            continue
        if len(_PRF_CACHE) >= _PRF_CACHE_MAX:
            _PRF_CACHE.clear()
        _PRF_CACHE[keys[t]] = vec
    return out


def prf_vector_cached(kprf: bytes, ctx: TagContext, count: int, fld: Field):
    """prf_vector through the cache."""
    return prf_masks_cached(kprf, ctx.fid, ctx.server, [(ctx.row, ctx.ctr)], count, fld)[0]


def clear_prf_cache() -> None:
    _PRF_CACHE.clear()


def tags_from_masks(alpha: int, masks, blocks, fld: Field) -> list:
    """mask + alpha * block for each cell: the tag formula.

    Each cell's mask and block must have the same chunk count; blocks may
    also be a 2-D array of stored words, one row per cell.  In Z_p one
    flat pass covers every chunk of every cell.
    """
    lengths = list(map(len, masks))
    stored = isinstance(blocks, np.ndarray)
    if lengths != ([blocks.shape[1]] * len(blocks) if stored else list(map(len, blocks))):
        raise ParameterError("each cell's mask and block must have the same chunk count")
    if isinstance(fld, BinaryField):
        return [fld.vec_add(m, fld.vec_scale(alpha, b)) for m, b in zip(masks, blocks)]
    p = fld.order
    flat = blocks.ravel().tolist() if stored else chain.from_iterable(blocks)
    pairs = zip(chain.from_iterable(masks), flat)
    # A generator, so that no list of a whole column's tags is held.
    tags = ((x + alpha * y) % p for x, y in pairs)
    return [tuple(islice(tags, c)) for c in lengths]


def tag_block(sk: SecretKey, block, ctx: TagContext, fld: Field):
    """Tag every chunk of a block at the given position."""
    masks = prf_vector(sk.kprf, ctx, len(block), fld)
    return tags_from_masks(sk.alpha, [masks], [block], fld)[0]


def verify_block(sk: SecretKey, block, tag, ctx: TagContext, fld: Field) -> bool:
    """Check a (block, tag) pair against its expected position."""
    if len(block) != len(tag):
        raise ParameterError("block and tag must have the same chunk count")
    masks = prf_vector_cached(sk.kprf, ctx, len(block), fld)
    return fld.vec_eq(tag, tags_from_masks(sk.alpha, [masks], [block], fld)[0])


def tag_deltas(alpha: int, old_masks, new_masks, delta_blocks, fld: Field) -> list:
    """(new mask - old mask) + alpha * delta block for each parity slot.

    In Z_p one flat pass covers every chunk of every slot, as in
    tags_from_masks.
    """
    lengths = list(map(len, new_masks))
    if list(map(len, old_masks)) != lengths:
        raise ParameterError("old and new masks must cover the same cells")
    if isinstance(fld, BinaryField):
        moved = [fld.vec_sub(new, old) for old, new in zip(old_masks, new_masks)]
        return tags_from_masks(alpha, moved, delta_blocks, fld)
    if list(map(len, delta_blocks)) != lengths:
        raise ParameterError("each cell's mask and block must have the same chunk count")
    p = fld.order
    flat = zip(*map(chain.from_iterable, (new_masks, old_masks, delta_blocks)))
    deltas = ((x - y + alpha * d) % p for x, y, d in flat)
    return [tuple(islice(deltas, c)) for c in lengths]


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
    cells = [(ctx_old.row, ctx_old.ctr), (ctx_new.row, ctx_new.ctr)]
    old, new = prf_masks(sk.kprf, ctx_old.fid, ctx_old.server, cells, len(delta_block), fld)
    return tag_deltas(sk.alpha, [old], [new], [delta_block], fld)[0]


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
