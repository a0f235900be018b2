"""Per-server state machine.

A server holds one column of the share grid: r cells, each a (block, tag)
pair of chunk vectors.  It answers audits with linear aggregates, extends
its own column code to absorb appends (recomputing the new parity
contributions locally, so an append never moves existing data), and serves
reads and full dumps.  Servers never see key material; tag updates arrive
as opaque deltas from the client.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

from . import crs
from .errors import CapacityError, OrderRejectedError, ParameterError
from .field import Field


@dataclass
class ServerState:
    """One server's share of one file: its column of the grid and the
    column-code shape it is stored under."""

    j: int
    fid: bytes
    field: Field
    ktilde: int
    stilde: int
    ctr: int
    chunks: int  # chunks per block
    cells: list = dc_field(default_factory=list)  # (block, tag) or None if wiped

    @property
    def r(self) -> int:
        return self.ktilde + self.stilde


def store_share(
    j: int, fid: bytes, cells: list, *, field: Field, ktilde: int, stilde: int,
    ctr: int, chunks: int,
) -> ServerState:
    """Initialize (or wholesale replace) a server's share."""
    if len(cells) != ktilde + stilde:
        raise ParameterError(f"{len(cells)} cells do not match r = {ktilde} + {stilde}")
    for cell in cells:
        if cell is None:
            continue
        block, tag = cell
        if len(block) != chunks or len(tag) != chunks:
            raise ParameterError("cell chunk count does not match share parameters")
    return ServerState(j, fid, field, ktilde, stilde, ctr, chunks, list(cells))


def prove(state: ServerState, challenge) -> tuple:
    """Aggregate response (mu, sigma) to a challenge set.

    Cells wiped from under the server contribute zeros: without the key it
    cannot fabricate matching tags, so the response simply fails
    verification.
    """
    fld = state.field
    c = state.chunks
    r = state.r
    coeffs, blocks, tags = [], [], []
    zeros = None
    for i, nu in challenge.entries:
        if not 1 <= i <= r:
            raise ParameterError(f"challenged row {i} out of range 1..{r}")
        cell = state.cells[i - 1]
        if cell is None:
            if zeros is None:
                zeros = fld.vec_zeros(c)
            cell = (zeros, zeros)
        coeffs.append(nu)
        blocks.append(cell[0])
        tags.append(cell[1])
    mu = fld.vec_combine(coeffs, blocks)
    sigma = fld.vec_combine(coeffs, tags)
    return mu, sigma


def apply_append(state: ServerState, order) -> None:
    """Absorb one append order: insert the new row, self-update parity.

    The order's target counter must be exactly one past the local counter,
    giving at-most-once semantics under replays and reordering.
    """
    fld = state.field
    if order.fid != state.fid:
        raise OrderRejectedError("append order is for a different file")
    if order.server != state.j:
        raise OrderRejectedError("append order addressed to a different server")
    if order.target_ctr != state.ctr + 1:
        raise OrderRejectedError(
            f"append order targets ctr {order.target_ctr}, local ctr is {state.ctr}"
        )
    if len(order.deltas) != state.stilde:
        raise OrderRejectedError(
            f"{len(order.deltas)} tag deltas for {state.stilde} parity slots"
        )
    # Every vector is screened before any cell changes, and stored as screened.
    vecs = fld.as_vectors([order.new_block, order.new_tag, *order.deltas], state.chunks)
    if vecs is None:
        raise OrderRejectedError(
            f"append order holds a vector that is not {state.chunks} elements of {fld.token}"
        )
    new_block, new_tag, *tag_deltas = vecs
    if state.r + 1 > fld.order:
        raise CapacityError("append would exceed field order")

    ktilde_new = state.ktilde + 1
    extended = crs.canonical_matrix(state.stilde, ktilde_new, fld)
    deltas = extended.parity_delta(new_block)
    for slot in range(state.stilde):
        cell = state.cells[state.ktilde + slot]
        if cell is None:
            continue  # wiped cell stays wiped; audits will flag it
        block, tag = cell
        block = fld.vec_add(block, deltas[slot])
        tag = fld.vec_add(tag, tag_deltas[slot])
        state.cells[state.ktilde + slot] = (block, tag)
    state.cells.insert(state.ktilde, (new_block, new_tag))
    state.ktilde = ktilde_new
    state.ctr += 1


def read_block(state: ServerState, i: int) -> tuple:
    """The stored (block, tag) pair at row i, verbatim."""
    if not 1 <= i <= state.r:
        raise ParameterError(f"row {i} out of range 1..{state.r}")
    cell = state.cells[i - 1]
    if cell is None:
        raise ParameterError(f"row {i} is not present on server {state.j}")
    return cell


def dump_all(state: ServerState) -> ServerState:
    """Snapshot of the whole share for client-side reconstruction."""
    return replace(state, cells=list(state.cells))
