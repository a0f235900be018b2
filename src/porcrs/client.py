"""Client (data-owner) side of the audited storage protocol.

The client keeps only a secret key and per-file metadata.  A file is
padded into a grid of fixed-size blocks, k per row; each of the k primary
columns is extended with parity blocks by the column code, then every row
is extended across servers by the dispersal code, and every resulting cell
gets a homomorphic tag.  Server j stores column j.

Data rows are tagged at counter 0 and parity rows at the append counter,
which starts at 1, so no data cell and parity cell ever share a PRF input.
Appends add one grid row: the client row-encodes the k new blocks, tags
them at counter 0, and ships each server its new cell plus one tag delta
per parity slot; servers update their own parity blocks, so nothing is
downloaded.  Audits challenge l random rows with random coefficients and
check the servers' aggregates against locally recomputed PRF masks; parity
rows are checked at the current append counter, which is what makes stale
(pre-append) parity detectable.  When a server fails too often, the client
pulls every share, turns tag mismatches into erasures, and runs row-wise
and column-wise erasure decoding to a fixpoint before re-encoding and
re-sharing.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field as dc_field

from . import auth, crs
from .auth import SecretKey, TagContext
from .errors import CapacityError, ParameterError
from .field import Field
from .server import ServerState, ShareParams


@dataclass
class SchemeParams:
    """Deployment-wide choices made at setup time."""

    field: Field
    n: int  # servers
    k: int  # primary servers
    stilde0: int  # initial parity rows per column
    eps_q: float = 0.1
    eps_p: float = 0.05
    window: int = 20
    block_size: int = 4096  # payload bytes per block (binary profile)

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
    """What one server receives for one append."""

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
    shares: list  # per server: list of (block, tag) cells


def validate_params(params: SchemeParams) -> SchemeParams:
    fld = params.field
    if not 0 < params.k < params.n:
        raise ParameterError(f"need 0 < k < n, got k={params.k} n={params.n}")
    if params.n > fld.order:
        raise CapacityError(f"n={params.n} exceeds the order of {fld.token}")
    if params.stilde0 < 0:
        raise ParameterError("parity row count cannot be negative")
    if not (0 < params.eps_q < 1 and 0 < params.eps_p < 1):
        raise ParameterError("thresholds must lie in (0, 1)")
    if params.window < 1:
        raise ParameterError("audit window must be at least 1")
    chunks_per_block(fld, params.block_size)  # validates block_size for the field
    return params


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
    params = validate_params(
        SchemeParams(fld, n, k, stilde0, eps_q, eps_p, window, block_size)
    )
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


def cell_context(fid: bytes, ktilde: int, ctr: int, i: int, j: int) -> TagContext:
    """Tag context of grid cell (i, j): data rows stay at counter 0, parity
    rows take the append counter, which is at least 1."""
    return TagContext(fid, i, j, 0 if i <= ktilde else ctr)


def _split_blocks(fld: Field, data: bytes, k: int, chunks: int):
    """Pad to a whole number of k-block rows and split into chunk vectors."""
    payload = block_payload_size(fld, chunks)
    row_bytes = payload * k
    padded = data + b"\x00" * (-len(data) % row_bytes)
    blocks = [
        fld.chunks_from_payload(padded[off : off + payload])
        for off in range(0, len(padded), payload)
    ]
    return [blocks[t : t + k] for t in range(0, len(blocks), k)]


def _product_encode(fld: Field, data_rows, n: int, k: int, stilde: int):
    """Column-encode the k primary columns, then row-encode every row."""
    ktilde = len(data_rows)
    col_code = crs.canonical_matrix(stilde, ktilde, fld)
    cols = [col_code.encode_vectors([row[j] for row in data_rows]) for j in range(k)]
    row_code = crs.canonical_matrix(n - k, k, fld)
    return [row_code.encode_vectors([col[i] for col in cols]) for i in range(ktilde + stilde)]


def _tag_grid(sk: SecretKey, fld: Field, fid: bytes, grid, ktilde: int, parity_ctr: int):
    """Tag every cell; returns per-server cell columns."""
    n = len(grid[0])
    shares = [[] for _ in range(n)]
    for i0, row in enumerate(grid):
        for j0, block in enumerate(row):
            ctx = cell_context(fid, ktilde, parity_ctr, i0 + 1, j0 + 1)
            shares[j0].append((block, auth.tag_block(sk, block, ctx, fld)))
    return shares


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
    data_rows = _split_blocks(fld, data, params.k, chunks)
    ktilde = len(data_rows)
    if ktilde + params.stilde0 > fld.order:
        raise CapacityError(
            f"file needs {ktilde} rows + {params.stilde0} parity rows, "
            f"exceeding the order of {fld.token}"
        )
    grid = _product_encode(fld, data_rows, params.n, params.k, params.stilde0)
    # Parity starts at counter 1: at 0 it would share its PRF input with the
    # data row appended later at its row number, and that pair reveals alpha.
    shares = _tag_grid(sk, fld, fid, grid, ktilde, parity_ctr=1)
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


def share_params(meta: FileMetadata) -> ShareParams:
    return ShareParams(
        field=meta.field,
        ktilde=meta.ktilde,
        stilde=meta.stilde,
        ctr=meta.ctr,
        chunks=meta.chunks,
    )


def make_server_states(meta: FileMetadata, shares) -> list[ServerState]:
    from .server import store_share

    return [
        store_share(j + 1, meta.fid, cells, share_params(meta))
        for j, cells in enumerate(shares)
    ]


def row_blocks_from_payload(meta: FileMetadata, data: bytes):
    """One append row (k blocks) from raw payload bytes."""
    fld = meta.field
    payload = block_payload_size(fld, meta.chunks)
    if len(data) != payload * meta.k:
        raise ParameterError(
            f"append row must be exactly {payload * meta.k} bytes, got {len(data)}"
        )
    return [
        fld.chunks_from_payload(data[off : off + payload])
        for off in range(0, len(data), payload)
    ]


def append(sk: SecretKey, meta: FileMetadata, row_blocks) -> list[AppendOrder]:
    """Append one row of k data blocks; returns one order per server.

    Mutates the metadata (ktilde and ctr advance).  The client computes the
    new cells and the parity-slot tag deltas from the new row alone --
    nothing is fetched from the servers.
    """
    fld = meta.field
    if len(row_blocks) != meta.k:
        raise ParameterError(f"append row needs exactly k = {meta.k} blocks")
    for blk in row_blocks:
        if len(blk) != meta.chunks:
            raise ParameterError("append block has the wrong chunk count")
    if meta.r + 1 > fld.order:
        raise CapacityError("append would exceed field order")
    if meta.stilde and meta.ctr < 1:
        # Metadata from before parity started at counter 1: this append
        # would tag the new row under its parity's PRF input.
        raise ParameterError(
            "file has parity at counter 0; outsource it again under a fresh key"
        )

    ktilde_old, ctr_old = meta.ktilde, meta.ctr
    ktilde_new, ctr_new = ktilde_old + 1, ctr_old + 1
    row_code = crs.canonical_matrix(meta.s, meta.k, fld)
    encoded = row_code.encode_vectors(list(row_blocks))
    col_ext = crs.canonical_matrix(meta.stilde, ktilde_new, fld)

    orders = []
    for j in range(1, meta.n + 1):
        blk = encoded[j - 1]
        new_tag = auth.tag_block(sk, blk, TagContext(meta.fid, ktilde_new, j, 0), fld)
        deltas = tuple(
            auth.tag_delta(
                sk,
                TagContext(meta.fid, ktilde_old + slot, j, ctr_old),
                TagContext(meta.fid, ktilde_new + slot, j, ctr_new),
                delta_m,
                fld,
            )
            for slot, delta_m in enumerate(col_ext.parity_delta(blk), 1)
        )
        orders.append(AppendOrder(meta.fid, j, ctr_new, blk, new_tag, deltas))
    meta.ktilde, meta.ctr = ktilde_new, ctr_new
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
    """
    fld = meta.field
    c = meta.chunks
    if len(proof) != meta.n:
        raise ParameterError(f"proof must cover all {meta.n} servers")
    for i, _ in q.entries:
        if not 1 <= i <= meta.r:
            raise ParameterError(f"challenged row {i} out of range")
    coeffs = [nu for _, nu in q.entries]
    verdicts = []
    for j in range(1, meta.n + 1):
        resp = proof[j - 1]
        ok = False
        if resp is not None:
            mu, sigma = resp
            if len(mu) == c and len(sigma) == c:
                masks = [
                    auth.prf_vector_cached(
                        sk.kprf, cell_context(meta.fid, meta.ktilde, meta.ctr, i, j), c, fld
                    )
                    for i, _ in q.entries
                ]
                expected = fld.vec_add(
                    fld.vec_combine(coeffs, fld.vec_stack(masks)),
                    fld.vec_scale(sk.alpha, mu),
                )
                ok = fld.vec_eq(sigma, expected)
        verdicts.append(ok)
        meta.history(j).append(ok)
    return verdicts


def needs_redistribute(meta: FileMetadata, j: int) -> bool:
    """True when server j's recent audit failure fraction exceeds eps_q."""
    hist = meta.audit_history.get(j)
    if not hist:
        return False
    return hist.count(False) / len(hist) > meta.eps_q


def _target_stilde(meta: FileMetadata) -> int:
    """Parity rows for the re-encoded file, honouring the eps_p floor."""
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


def redistribute(sk: SecretKey, meta: FileMetadata, dumps) -> RedistributeResult | None:
    """Recover the file from possibly corrupted dumps and re-share it.

    Every cell is first checked against its expected tag context; failures
    and absences become erasures.  Rows (dispersal code) and columns
    (column code, valid on every server by linearity) are then erasure
    decoded alternately until no progress remains.  Returns None when the
    data cells cannot all be recovered -- never wrong data.
    """
    fld = meta.field
    n, k, r = meta.n, meta.k, meta.r
    ktilde, c = meta.ktilde, meta.chunks
    if len(dumps) != n:
        raise ParameterError(f"need a dump slot for each of the {n} servers")

    blocks = [[None] * n for _ in range(r)]
    for j0, dump in enumerate(dumps):
        if dump is None:
            continue
        for i0, cell in enumerate(dump.cells[:r]):
            if cell is None:
                continue
            block, tag = cell
            if len(block) != c or len(tag) != c:
                continue
            ctx = cell_context(meta.fid, ktilde, meta.ctr, i0 + 1, j0 + 1)
            if auth.verify_block(sk, block, tag, ctx, fld):
                blocks[i0][j0] = block

    row_code = crs.canonical_matrix(meta.s, k, fld)
    col_code = crs.canonical_matrix(meta.stilde, ktilde, fld) if meta.stilde else None
    # A wiped server erases the same position in every row: one plan per
    # (code, erasure mask) serves them all.
    plans: dict[tuple, crs.RecoveryPlan] = {}

    def plan_for(code, present):
        key = (code is col_code, tuple(present))
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = code.recovery_plan(present)
        return plan

    changed = True
    while changed:
        changed = False
        for i0 in range(r):
            row = blocks[i0]
            present = [v is not None for v in row]
            have = sum(present)
            if have < n and have >= k:
                plan = plan_for(row_code, present)
                message = plan.apply_vectors(row)
                blocks[i0] = row_code.encode_vectors(message)
                changed = True
        for j0 in range(n):
            col = [blocks[i0][j0] for i0 in range(r)]
            present = [v is not None for v in col]
            have = sum(present)
            if col_code is not None and have < r and have >= ktilde:
                plan = plan_for(col_code, present)
                message = plan.apply_vectors(col)
                full = col_code.encode_vectors(message)
                for i0 in range(r):
                    blocks[i0][j0] = full[i0]
                changed = True

    if any(
        blocks[i0][j0] is None for i0 in range(ktilde) for j0 in range(k)
    ):
        return None

    payload = bytearray()
    for i0 in range(ktilde):
        for j0 in range(k):
            payload += fld.chunks_to_payload(blocks[i0][j0])
    data = bytes(payload[: meta.original_length])

    stilde_new = _target_stilde(meta)
    ctr_new = meta.ctr + 1
    data_rows = [[blocks[i0][j0] for j0 in range(k)] for i0 in range(ktilde)]
    grid = _product_encode(fld, data_rows, n, k, stilde_new)
    shares = _tag_grid(sk, fld, meta.fid, grid, ktilde, parity_ctr=ctr_new)
    fresh = FileMetadata(
        fid=meta.fid,
        field=fld,
        n=n,
        k=k,
        ktilde=ktilde,
        stilde=stilde_new,
        stilde0=meta.stilde0,
        ctr=ctr_new,
        chunks=c,
        original_length=meta.original_length,
        eps_q=meta.eps_q,
        eps_p=meta.eps_p,
        window=meta.window,
    )
    return RedistributeResult(data=data, meta=fresh, shares=shares)
