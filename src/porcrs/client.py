"""Client (data-owner) side of the audited storage protocol.

The client keeps only a secret key and per-file metadata.  A file is
padded into a grid of fixed-size blocks, k per row; each of the k primary
columns is extended with parity blocks by the column code, then every row
is extended across servers by the dispersal code, and every resulting cell
gets a homomorphic tag.  Server j stores column j.

Data rows are tagged at counter 0 and parity rows at the append counter,
which starts at 1, so no data cell and parity cell ever share a PRF input.
Blocks, tags, masks, append orders and audit proofs are arrays of stored
words.  Appends add one grid row: the client screens and row-encodes the
k new blocks, tags them at counter 0, and ships each server its new cell
plus one tag delta per parity slot; servers update their own parity
blocks, so nothing is downloaded.  A delta needs each parity slot's PRF
mask at its old and at its new (row, counter).  The old contexts are the
new ones of the append before, so the metadata object carries each
server's masks of the new data cell and of its new parity contexts (rows
ktilde..r), never persisted: an in-memory append after the first asks
the PRF for 1 + stilde cells per server, while one on freshly read
metadata (each ``porcrs append`` process) asks for 1 + 2 stilde.  Audits
challenge l random rows with random coefficients and check the servers'
aggregates against the PRF masks of the challenged cells; parity rows are
checked at the current append counter, which is what makes stale
(pre-append) parity detectable.  Verify checks all n servers in one
pass: it screens every response, fetches each challenged row's masks of
all n servers at once (rows ktilde..r from the carry, data rows from the
PRF mask cache, one lookup per row, and the rest from one kernel call),
and makes one combination over every server's masks and mu.  So an
audit right after an in-memory append computes no mask of the newest
row or of any parity row; a ``porcrs audit`` process reads fresh
metadata and has no carry.  The carry reissues no tag context and
changes no verdict; it only skips recomputing masks.  Each server's PRF
work is independent of the others', so outsource, redistribute's
re-tagging and append share the servers between forked processes when
the call has enough PRF chunks and the process may use more than one CPU
(``fanout.map_servers``): each child sends back one server at a time, as
stored words (a column's tags, or an append's order and carried masks),
and the bytes are those of a run in one process.  When a server fails
too often, the client pulls every share, turns tag mismatches into
erasures, and runs row-wise and column-wise erasure decoding, on chunk
vectors, to a fixpoint before re-encoding and re-sharing.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import auth, crs, fanout
from .auth import SecretKey, TagContext
from .errors import CapacityError, ParameterError
from .field import Field
from .server import Column, ServerState, store_share


@dataclass
class SchemeParams:
    """Deployment-wide choices made at setup time; checked when built."""

    field: Field
    n: int  # servers
    k: int  # primary servers
    stilde0: int  # initial parity rows per column
    eps_q: float = 0.1
    eps_p: float = 0.05
    window: int = 20
    block_size: int = 4096  # payload bytes per block (binary profile)

    def __post_init__(self):
        fld = self.field
        if not 0 < self.k < self.n:
            raise ParameterError(f"need 0 < k < n, got k={self.k} n={self.n}")
        if self.n > fld.order:
            raise CapacityError(f"n={self.n} exceeds the order of {fld.token}")
        if self.stilde0 < 0:
            raise ParameterError("parity row count cannot be negative")
        if not (0 < self.eps_q < 1 and 0 < self.eps_p < 1):
            raise ParameterError("thresholds must lie in (0, 1)")
        if self.window < 1:
            raise ParameterError("audit window must be at least 1")
        chunks_per_block(fld, self.block_size)  # validates block_size for the field

    @property
    def s(self) -> int:
        return self.n - self.k


@dataclass
class FileMetadata:
    """Everything the client remembers about one outsourced file."""

    fid: bytes
    field: Field
    n: int
    k: int
    ktilde: int
    stilde: int
    stilde0: int
    ctr: int
    chunks: int
    original_length: int
    eps_q: float
    eps_p: float
    window: int
    audit_history: dict = dc_field(default_factory=dict)
    # (key, masks) left by the last append: masks[j - 1] is server j's
    # read-only (1 + stilde, c) array of stored words, row t its mask of row
    # ktilde + t at its current counter (the newest data row, then the
    # parity rows); key is what they depend on.  append and verify read it.
    parity_masks: tuple | None = dc_field(default=None, compare=False, repr=False)

    @property
    def r(self) -> int:
        return self.ktilde + self.stilde

    @property
    def s(self) -> int:
        return self.n - self.k

    def history(self, j: int) -> deque:
        h = self.audit_history.get(j)
        if h is None:
            h = self.audit_history[j] = deque(maxlen=self.window)
        return h


@dataclass(frozen=True)
class ChallengeSet:
    """l distinct rows with random coefficients, for one audit."""

    epoch: int
    entries: tuple  # ((row, coefficient), ...)


@dataclass(frozen=True)
class AppendOrder:
    """What one server receives for one append; from client.append, each
    row is a read-only view into one (2 + stilde, c) array of stored words."""

    fid: bytes
    server: int
    target_ctr: int
    new_block: object
    new_tag: object
    deltas: tuple  # one tag delta per parity slot

    def wire_size(self, fld: Field) -> int:
        """Bytes of block/tag payload shipped to this server."""
        c = len(self.new_block)
        return (2 + len(self.deltas)) * c * fld.element_size


@dataclass
class RedistributeResult:
    """Successful recovery: the file, fresh metadata, fresh shares."""

    data: bytes
    meta: FileMetadata
    shares: list  # per server: a Column of (block, tag) cells


def setup(
    fld: Field,
    n: int,
    k: int,
    stilde0: int,
    eps_q: float = 0.1,
    eps_p: float = 0.05,
    window: int = 20,
    block_size: int = 4096,
    rng=None,
) -> tuple[SecretKey, SchemeParams]:
    """Generate a key and validate the deployment parameters."""
    params = SchemeParams(fld, n, k, stilde0, eps_q, eps_p, window, block_size)
    sk = auth.keygen(fld, rng)
    return sk, params


def chunks_per_block(fld: Field, block_size: int) -> int:
    """How many field elements one block of payload carries."""
    if fld.payload_size < 1:
        raise ParameterError(f"{fld.token} is too small to carry file payloads")
    if fld.kind == "prime":
        return 1
    if block_size < fld.payload_size or block_size % fld.payload_size:
        raise ParameterError(
            f"block size must be a positive multiple of {fld.payload_size}"
        )
    return block_size // fld.payload_size


def block_payload_size(fld: Field, chunks: int) -> int:
    return chunks * fld.payload_size


def cell_ctr(ktilde: int, ctr: int, i: int) -> int:
    """Tag counter of grid row i: data rows stay at counter 0, parity rows
    take the append counter, which is at least 1."""
    return 0 if i <= ktilde else ctr


def cell_context(fid: bytes, ktilde: int, ctr: int, i: int, j: int) -> TagContext:
    """Tag context of grid cell (i, j)."""
    return TagContext(fid, i, j, cell_ctr(ktilde, ctr, i))


def _data_words(fld: Field, data: bytes, k: int, chunks: int):
    """Pad to a whole number of k-block rows; the blocks' stored words as a
    (rows, k, chunks) array."""
    row_bytes = block_payload_size(fld, chunks) * k
    padded = data + b"\x00" * (-len(data) % row_bytes)
    return fld.payload_words(padded).reshape(-1, k, chunks)


# Stored words of the blocks in one call of the dispersal code: the bound on
# the Python ints (Z_p) or index arrays (GF(2^w)) that one row encode holds.
_ROW_BATCH_WORDS = 1 << 14


def _product_encode(fld: Field, data, n: int, k: int, stilde: int) -> list[Column]:
    """Column-encode the k primary columns, then row-encode every row.

    data is the data blocks' stored words, a (ktilde, k, c) array.  Returns
    one new column per server with its blocks written and its tags still
    to come.  Both codes encode stored words: one call per data column,
    then one per batch of rows, each column's blocks of it as one row.
    """
    ktilde, _, c = data.shape
    r = ktilde + stilde
    columns = [Column.empty(fld, c, r) for _ in range(n)]
    col_code = crs.canonical_matrix(stilde, ktilde, fld)
    for j, column in enumerate(columns[:k]):
        blocks = column.words[:r, 0]
        blocks[:ktilde] = data[:, j]
        blocks[ktilde:] = col_code.encode_words(blocks[:ktilde])
    del col_code  # frees its inverse table and packed ints before the rows
    row_code = crs.row_code(n - k, k, fld)
    batch = max(1, _ROW_BATCH_WORDS // (n * c))
    for lo in range(0, r, batch):
        hi = min(lo + batch, r)
        message = np.stack([column.words[lo:hi, 0] for column in columns[:k]])
        parity = row_code.encode_words(message.reshape(k, -1))
        for column, words in zip(columns[k:], parity):
            column.words[lo:hi, 0] = words.reshape(hi - lo, c)
    return columns


def _tag_columns(sk: SecretKey, fld: Field, fid: bytes, columns, ktilde: int, parity_ctr: int):
    """Tag every cell of the columns, in place, one PRF batch per server,
    the servers shared between processes (fanout.map_servers)."""
    n, r, c = len(columns), len(columns[0]), columns[0].chunks
    cells = [(i, cell_ctr(ktilde, parity_ctr, i)) for i in range(1, r + 1)]

    def tag_words(j: int):
        masks = auth.prf_masks(sk.kprf, fid, j, cells, c, fld)
        return auth.tags_from_masks(sk.alpha, masks, columns[j - 1].words[:r, 0], fld)

    with closing(fanout.map_servers(tag_words, n, n * r * c)) as results:
        for column, tags in zip(columns, results):
            column.words[:r, 1] = tags
    return columns


def outsource(
    sk: SecretKey, params: SchemeParams, data: bytes, rng=None, fid: bytes | None = None
) -> tuple[FileMetadata, list]:
    """Encode, tag, and split a file into n server shares plus metadata."""
    if not data:
        raise ParameterError("cannot outsource an empty file")
    fld = params.field
    if fid is None:
        fid = (
            rng.getrandbits(128).to_bytes(16, "big") if rng is not None else os.urandom(16)
        )
    chunks = chunks_per_block(fld, params.block_size)
    words = _data_words(fld, data, params.k, chunks)
    ktilde = len(words)
    if ktilde + params.stilde0 > fld.order:
        raise CapacityError(
            f"file needs {ktilde} rows + {params.stilde0} parity rows, "
            f"exceeding the order of {fld.token}"
        )
    columns = _product_encode(fld, words, params.n, params.k, params.stilde0)
    # Parity starts at counter 1: at 0 it would share its PRF input with the
    # data row appended later at its row number, and that pair reveals alpha.
    shares = _tag_columns(sk, fld, fid, columns, ktilde, parity_ctr=1)
    meta = FileMetadata(
        fid=fid,
        field=fld,
        n=params.n,
        k=params.k,
        ktilde=ktilde,
        stilde=params.stilde0,
        stilde0=params.stilde0,
        ctr=1,
        chunks=chunks,
        original_length=len(data),
        eps_q=params.eps_q,
        eps_p=params.eps_p,
        window=params.window,
    )
    return meta, shares


def make_server_states(meta: FileMetadata, shares) -> list[ServerState]:
    return [
        store_share(
            j + 1, meta.fid, cells, field=meta.field, ktilde=meta.ktilde,
            stilde=meta.stilde, ctr=meta.ctr, chunks=meta.chunks,
        )
        for j, cells in enumerate(shares)
    ]


def row_blocks_from_payload(meta: FileMetadata, data: bytes):
    """One append row from raw payload bytes: the k blocks' stored words,
    as a (k, chunks) array."""
    fld = meta.field
    payload = block_payload_size(fld, meta.chunks)
    if len(data) != payload * meta.k:
        raise ParameterError(
            f"append row must be exactly {payload * meta.k} bytes, got {len(data)}"
        )
    return fld.payload_words(data).reshape(-1, meta.chunks)


def _mask_key(sk: SecretKey, meta: FileMetadata, ktilde: int, ctr: int) -> tuple:
    """What each server's masks of rows ktilde..ktilde + stilde depend on:
    row ktilde at counter 0, the parity rows after it at ctr."""
    return (sk.kprf, meta.fid, meta.n, ktilde, ctr, meta.stilde, meta.chunks, meta.field.token)


def _carried_masks(sk: SecretKey, meta: FileMetadata) -> tuple | None:
    """Per server, the masks of rows ktilde..r that the last append left on
    this metadata, or None when there are none under this key."""
    carry = meta.parity_masks
    if carry is None or carry[0] != _mask_key(sk, meta, meta.ktilde, meta.ctr):
        return None
    return carry[1]


def append(sk: SecretKey, meta: FileMetadata, row_blocks) -> list[AppendOrder]:
    """Append one row of k data blocks; returns one order per server.

    Mutates the metadata (ktilde and ctr advance) once the row has passed
    its screening: k blocks of chunks elements each.  The client computes
    the new cells and the parity-slot tag deltas from the new row alone --
    nothing is fetched from the servers.  The parity masks the previous
    append left on this metadata under this key stand in for the old ones;
    any other metadata or key recomputes them.
    """
    fld = meta.field
    row = fld.as_words(row_blocks, meta.chunks)
    if row is None or len(row) != meta.k:
        raise ParameterError(
            f"append row needs exactly k = {meta.k} blocks of {meta.chunks} "
            f"elements of {fld.token}"
        )
    if meta.r + 1 > fld.order:
        raise CapacityError("append would exceed field order")
    if meta.stilde and meta.ctr < 1:
        # Metadata from before parity started at counter 1: this append
        # would tag the new row under its parity's PRF input.
        raise ParameterError(
            "file has parity at counter 0; outsource it again under a fresh key"
        )

    ktilde_old, ctr_old, stilde = meta.ktilde, meta.ctr, meta.stilde
    ktilde_new, ctr_new = ktilde_old + 1, ctr_old + 1
    encoded = np.concatenate([row, crs.row_code(meta.s, meta.k, fld).encode_words(row)])
    col_ext = crs.canonical_matrix(stilde, ktilde_new, fld)

    # The carry is taken off the metadata first, so that a failure below
    # leaves none behind.
    held = _carried_masks(sk, meta)
    meta.parity_masks = None
    if held is not None:
        held = list(held)  # each server's entry is dropped once used

    # Per server, one PRF batch: the new cell, then each parity slot at its
    # old (unless held) and at its new (row, counter).
    slots = range(1, stilde + 1)
    cells = [(ktilde_new, 0)]
    if held is None:
        cells += [(ktilde_old + slot, ctr_old) for slot in slots]
    cells += [(ktilde_new + slot, ctr_new) for slot in slots]

    def order_words(j: int):
        """Server j's order (new block, new tag, tag deltas), then its masks
        of rows ktilde_new..r, as one array of stored words."""
        block = encoded[j - 1 : j]
        masks = auth.prf_masks(sk.kprf, meta.fid, j, cells, meta.chunks, fld)
        # Server j's held masks: row ktilde_old, then the parity slots.
        old = masks[1 : 1 + stilde] if held is None else held[j - 1][1:]
        new = masks[len(cells) - stilde :]
        new_tag = auth.tags_from_masks(sk.alpha, masks[:1], block, fld)
        deltas = auth.tag_deltas(sk.alpha, old, new, col_ext.parity_delta(block[0]), fld)
        return np.concatenate([block, new_tag, deltas, masks[:1], new])

    orders, carried = [], []
    chunks = meta.n * len(cells) * meta.chunks
    with closing(fanout.map_servers(order_words, meta.n, chunks)) as results:
        for j, words in enumerate(results, 1):
            if held is not None:
                held[j - 1] = None
            words.flags.writeable = False  # shared by the order, the carry and verify
            new_block, new_tag, *deltas = words[: 2 + stilde]
            orders.append(AppendOrder(meta.fid, j, ctr_new, new_block, new_tag, tuple(deltas)))
            carried.append(words[2 + stilde :])
    meta.ktilde, meta.ctr, meta.parity_masks = (
        ktilde_new, ctr_new, (_mask_key(sk, meta, ktilde_new, ctr_new), tuple(carried))
    )
    # The zero padding of a partial last row becomes file content.
    meta.original_length = ktilde_new * block_payload_size(fld, meta.chunks) * meta.k
    return orders


def challenge(meta: FileMetadata, l: int, rng, epoch: int = 0) -> ChallengeSet:
    """l distinct uniform rows, each with a uniform coefficient."""
    if not 1 <= l <= meta.r:
        raise ParameterError(f"challenge size {l} out of range 1..{meta.r}")
    rows = rng.sample(range(1, meta.r + 1), l)
    fld = meta.field
    return ChallengeSet(
        epoch=epoch,
        entries=tuple((i, fld.rand_element(rng)) for i in rows),
    )


def verify(sk: SecretKey, meta: FileMetadata, q: ChallengeSet, proof) -> list[bool]:
    """Per-server verdicts for an audit; absences count as failures.

    For each responding server the aggregate tag must equal the challenge
    combination of that server's PRF masks (data rows at counter 0, parity
    rows at the current counter) plus alpha times the aggregate block.
    All n servers are checked in one pass.  Each pair is screened as an
    order is, and a bad one fails its own server only.  The masks of the
    challenged rows come from auth.prf_rows_cached, one (n, c) row each:
    rows ktilde..r from the masks the last append left on this metadata
    under this key, the others from the cache or one kernel call, and the
    newest data row joins the cache as a computed one would.  One
    combination over every server's masks and mu (alpha mu's coefficient)
    must then give each server's sigma.
    """
    fld, n, c = meta.field, meta.n, meta.chunks
    if len(proof) != n:
        raise ParameterError(f"proof must cover all {n} servers")
    for i, _ in q.entries:
        if not 1 <= i <= meta.r:
            raise ParameterError(f"challenged row {i} out of range")
    l = len(q.entries)
    # Rows 0..l-1 of the combine: each challenged row's masks of servers
    # 1..n; row l: every server's mu.  Zeros where a pair fails screening.
    stacked = np.zeros((l + 1, n, c), fld.stored_dtype)
    sigmas = np.zeros((n, c), fld.stored_dtype)
    screened = []
    for j, response in enumerate(proof):
        try:
            mu, sigma = response
        except (TypeError, ValueError):
            mu = sigma = None  # missing (None), or not a pair
        # Anything but two rows of c field elements fails this server only.
        pair = fld.as_words([mu, sigma], c)
        if pair is not None:
            stacked[l, j], sigmas[j] = pair
        screened.append(pair is not None)
    rows = [(i, cell_ctr(meta.ktilde, meta.ctr, i)) for i, _ in q.entries]
    carried = _carried_masks(sk, meta)
    # Challenge entry -> carry slot, for each challenged row the carry holds.
    lifted = {} if carried is None else {
        t: i - meta.ktilde for t, (i, _) in enumerate(q.entries) if i >= meta.ktilde
    }
    held = None
    if lifted:
        slots = list(lifted.values())
        held = dict(zip(lifted, np.stack([masks[slots] for masks in carried], axis=1)))
    auth.prf_rows_cached(sk.kprf, meta.fid, rows, fld, stacked[:l], held)
    coeffs = [nu for _, nu in q.entries] + [sk.alpha]
    expected = fld.vec_combine(coeffs, stacked.reshape(l + 1, n * c))
    matches = (np.asarray(expected, fld.stored_dtype).reshape(n, c) == sigmas).all(axis=1)
    verdicts = [ok and match for ok, match in zip(screened, matches.tolist())]
    for j, ok in enumerate(verdicts, 1):
        meta.history(j).append(ok)
    return verdicts


def needs_redistribute(meta: FileMetadata, j: int) -> bool:
    """True when server j's recent audit failure fraction exceeds eps_q."""
    hist = meta.audit_history.get(j)
    if not hist:
        return False
    return hist.count(False) / len(hist) > meta.eps_q


def target_stilde(meta: FileMetadata) -> int:
    """Parity rows for the re-encoded file, honouring the eps_p floor: what
    the next redistribute gives the file."""
    if meta.stilde0 == 0 and meta.stilde == 0:
        return 0  # deployment opted out of the column code
    if meta.stilde and meta.stilde / meta.r >= meta.eps_p:
        return meta.stilde
    # Fraction dropped below eps_p: grow the parity rows so the fresh
    # codeword sits comfortably above the threshold (2x, capped).
    target = min(2 * meta.eps_p, 0.5)
    needed = math.ceil(target * meta.ktilde / (1 - target))
    grown = max(meta.stilde0, meta.stilde, needed)
    return min(grown, meta.field.order - meta.ktilde)


def _decode_data_rows(sk: SecretKey, meta: FileMetadata, dumps):
    """The k data blocks of each data row, decoded from the cells that pass
    their tag check, or None when some data cell stays erased."""
    fld = meta.field
    n, k, r = meta.n, meta.k, meta.r
    ktilde, c = meta.ktilde, meta.chunks
    blocks = [None] * (r * n)  # cell (i0, j0) at i0 * n + j0, both 0-based
    for j0, dump in enumerate(dumps):
        if dump is None:
            continue
        if dump.cells.field != fld or dump.cells.chunks != c:
            continue
        for i0, cell in enumerate(dump.cells[:r]):
            if cell is None:
                continue
            block, tag = cell
            ctx = cell_context(meta.fid, ktilde, meta.ctr, i0 + 1, j0 + 1)
            if auth.verify_block(sk, block, tag, ctx, fld):
                blocks[i0 * n + j0] = block

    # Each line is a code and the indices of its cells: the rows first, then
    # the columns, which the column code covers on every server by linearity.
    lines = [(crs.row_code(meta.s, k, fld), range(i0 * n, i0 * n + n)) for i0 in range(r)]
    if meta.stilde:
        col_code = crs.canonical_matrix(meta.stilde, ktilde, fld)
        lines += [(col_code, range(j0, r * n, n)) for j0 in range(n)]
    # A wiped server erases the same position in every row: one plan per
    # (code, erasure mask) serves them all.
    plans: dict[tuple, crs.RecoveryPlan] = {}
    changed = True
    while changed:
        changed = False
        for code, cells in lines:
            line = [blocks[t] for t in cells]
            present = tuple(v is not None for v in line)
            if not code.k_cols <= sum(present) < len(line):
                continue
            plan = plans.get((code, present))
            if plan is None:
                plan = plans[code, present] = code.recovery_plan(present)
            for t, v in zip(cells, code.encode_vectors(plan.apply_vectors(line))):
                blocks[t] = v
            changed = True

    data_rows = [blocks[i0 * n : i0 * n + k] for i0 in range(ktilde)]
    if any(v is None for row in data_rows for v in row):
        return None
    return data_rows


def redistribute(sk: SecretKey, meta: FileMetadata, dumps) -> RedistributeResult | None:
    """Recover the file from possibly corrupted dumps and re-share it.

    Every cell is first checked against its expected tag context; failures
    and absences become erasures.  Rows (dispersal code) and columns
    (column code, valid on every server by linearity) are then erasure
    decoded alternately until no progress remains.  Returns None when the
    data cells cannot all be recovered -- never wrong data.
    """
    fld = meta.field
    if len(dumps) != meta.n:
        raise ParameterError(f"need a dump slot for each of the {meta.n} servers")
    data_rows = _decode_data_rows(sk, meta, dumps)
    if data_rows is None:
        return None

    words = fld.vectors_to_words([v for row in data_rows for v in row], meta.chunks)
    del data_rows
    data = fld.chunks_to_payload(words)[: meta.original_length]

    stilde_new = target_stilde(meta)
    ctr_new = meta.ctr + 1
    words = words.reshape(-1, meta.k, meta.chunks)
    columns = _product_encode(fld, words, meta.n, meta.k, stilde_new)
    shares = _tag_columns(sk, fld, meta.fid, columns, meta.ktilde, parity_ctr=ctr_new)
    fresh = replace(meta, stilde=stilde_new, ctr=ctr_new, audit_history={}, parity_masks=None)
    return RedistributeResult(data=data, meta=fresh, shares=shares)
