"""Per-server state machine.

A server holds one column of the share grid: r cells, each a (block, tag)
pair of chunk vectors.  It answers audits with linear aggregates, extends
its own column code to absorb appends (recomputing the new parity
contributions locally, so an append never moves existing data), and serves
reads and full dumps.  Servers never see key material; tag updates arrive
as opaque deltas from the client.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import crs
from .errors import CapacityError, OrderRejectedError, ParameterError
from .field import Field


@dataclass
class ShareParams:
    """Column-shape parameters a share is stored under."""

    field: Field
    ktilde: int
    stilde: int
    ctr: int
    chunks: int  # chunks per block

    @property
    def r(self) -> int:
        return self.ktilde + self.stilde


@dataclass
class ServerState:
    """One server's share of one file."""

    j: int
    fid: bytes
    params: ShareParams
    cells: list = dc_field(default_factory=list)  # (block, tag) or None if wiped

    @property
    def field(self) -> Field:
        return self.params.field

    @property
    def r(self) -> int:
        return self.params.r

    @property
    def ktilde(self) -> int:
        return self.params.ktilde

    @property
    def ctr(self) -> int:
        return self.params.ctr


def store_share(j: int, fid: bytes, cells: list, params: ShareParams) -> ServerState:
    """Initialize (or wholesale replace) a server's share."""
    if len(cells) != params.r:
        raise ParameterError(
            f"{len(cells)} cells do not match r = {params.ktilde} + {params.stilde}"
        )
    for cell in cells:
        if cell is None:
            continue
        block, tag = cell
        if len(block) != params.chunks or len(tag) != params.chunks:
            raise ParameterError("cell chunk count does not match share parameters")
    return ServerState(j=j, fid=fid, params=params, cells=list(cells))


def prove(state: ServerState, challenge) -> tuple:
    """Aggregate response (mu, sigma) to a challenge set.

    Cells wiped from under the server contribute zeros: without the key it
    cannot fabricate matching tags, so the response simply fails
    verification.
    """
    fld = state.field
    c = state.params.chunks
    coeffs, blocks, tags = [], [], []
    zeros = None
    for i, nu in challenge.entries:
        if not 1 <= i <= state.r:
            raise ParameterError(f"challenged row {i} out of range 1..{state.r}")
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
    params = state.params
    fld = state.field
    if order.fid != state.fid:
        raise OrderRejectedError("append order is for a different file")
    if order.server != state.j:
        raise OrderRejectedError("append order addressed to a different server")
    if order.target_ctr != params.ctr + 1:
        raise OrderRejectedError(
            f"append order targets ctr {order.target_ctr}, local ctr is {params.ctr}"
        )
    if len(order.deltas) != params.stilde:
        raise OrderRejectedError(
            f"{len(order.deltas)} tag deltas for {params.stilde} parity slots"
        )
    if len(order.new_block) != params.chunks or len(order.new_tag) != params.chunks:
        raise OrderRejectedError("new cell chunk count does not match share")
    if params.r + 1 > fld.order:
        raise CapacityError("append would exceed field order")

    ktilde_new = params.ktilde + 1
    extended = crs.canonical_matrix(params.stilde, ktilde_new, fld)
    deltas = extended.parity_delta(order.new_block)
    for slot in range(params.stilde):
        cell = state.cells[params.ktilde + slot]
        if cell is None:
            continue  # wiped cell stays wiped; audits will flag it
        block, tag = cell
        block = fld.vec_add(block, deltas[slot])
        tag = fld.vec_add(tag, order.deltas[slot])
        state.cells[params.ktilde + slot] = (block, tag)
    state.cells.insert(params.ktilde, (order.new_block, order.new_tag))
    params.ktilde = ktilde_new
    params.ctr += 1


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
    return ServerState(
        j=state.j,
        fid=state.fid,
        params=ShareParams(
            field=state.field,
            ktilde=state.params.ktilde,
            stilde=state.params.stilde,
            ctr=state.params.ctr,
            chunks=state.params.chunks,
        ),
        cells=list(state.cells),
    )
