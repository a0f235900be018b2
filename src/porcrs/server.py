"""Per-server state machine.

A server holds one column of the share grid: r cells, each a (block, tag)
pair of chunk vectors.  In memory the column has the share file's body
layout (``Column``): one array of stored words, row i0 holding cell
i0 + 1's c block words and then its c tag words, data rows first and the
stilde parity rows after them.  The server answers audits with linear
aggregates over the challenged rows, gathered by index; it extends its
own column code to absorb appends, recomputing the new parity
contributions locally in O(stilde) rows, so an append never changes a
data cell; and it serves reads and full dumps.  Servers never see key
material; tag updates arrive as opaque deltas from the client.
"""

from __future__ import annotations

import copy
import mmap
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import crs
from .errors import CapacityError, OrderRejectedError, ParameterError
from .field import Field


# What each row of a column holds; rows from _MISSHAPEN on cannot be read.
_WIPED, _CELL, _MISSHAPEN, _UNREAD = range(4)


class Column(Sequence):
    """A server's cells as stored words: index i0 holds row i0 + 1.

    ``words`` is a (capacity, 2, chunks) array in the field's stored dtype;
    its first ``len(self)`` rows are cells, and any rows after them are
    room for appends, not touched until used.  Reading a cell gives a
    fresh (block, tag) pair of field vectors (tuples of ints in Z_p,
    arrays in GF(2^w)); setting one stores its words.  A row's state says
    what else it can hold:

    * a wiped cell (set to None) reads as None, and its words are zeros;
    * a misshapen cell, a pair that is not two vectors of ``chunks``
      elements, has no words: reading it, gathering or moving it with
      added words, and writing the share raise ParameterError;
    * a row that an audit's share read left unread raises LookupError on
      any access, so it can never pass for a wiped cell; the column holds
      no words for it and cannot be written.

    ``share`` gives a second column over the same arrays; whichever of the
    two changes first while the other lives copies them, with room for
    appends.
    """

    def __init__(self, field: Field, chunks: int, words, rows: int | None = None, *,
                 read=None):
        """A column over words, its first rows (all by default) holding
        cells.  With read, an index of the rows read, every other row is
        unread."""
        self.field = field
        self.chunks = chunks
        self.words = words
        self._len = len(words) if rows is None else rows
        self._state = np.full(len(words), _CELL, np.uint8)
        if read is not None:
            self._state[:] = _UNREAD
            self._state[read] = _CELL
        self._plain = read is None  # every row holds a cell or is wiped
        self._owners = [weakref.ref(self)]  # the columns over these arrays

    @classmethod
    def empty(cls, field: Field, chunks: int, rows: int) -> Column:
        """rows cells whose words the caller writes, every one, and room
        for appends that takes no memory until they come."""
        return cls(field, chunks, _pages(rows + _spare(rows), chunks, field.stored_dtype), rows)

    @classmethod
    def of_cells(cls, field: Field, chunks: int, cells) -> Column:
        """A new column holding cells: another column's (shared until one
        of them changes) or a sequence of (block, tag) pairs and Nones."""
        if isinstance(cells, Column):
            if cells.field != field or cells.chunks != chunks:
                raise ParameterError("cell chunk count does not match share parameters")
            return cells.share()
        cells = list(cells)
        column = cls.empty(field, chunks, len(cells))
        column[:] = cells
        return column

    def share(self) -> Column:
        """A second column over the same arrays, which either copies on
        its first change while the other lives."""
        twin = copy.copy(self)
        self._owners.append(weakref.ref(twin))
        return twin

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return iter(self[:])

    def __repr__(self) -> str:
        return f"<Column {self.field.token} rows={self._len} chunks={self.chunks}>"

    def __getitem__(self, index):
        if isinstance(index, slice):
            rows = np.arange(*index.indices(self._len))
            self._check(rows)
            vecs = self.field.vectors_from_words(self.words[rows].reshape(-1, self.chunks))
            cells = list(zip(vecs[0::2], vecs[1::2]))
            for t in np.flatnonzero(self._state[rows] == _WIPED):
                cells[t] = None
            return cells
        i0 = self._row(index)
        state = self._state[i0]
        if state != _CELL:
            if state == _WIPED:
                return None
            self._check([i0])
        return tuple(self.field.vectors_from_words(self.words[i0]))

    def __setitem__(self, index, cells) -> None:
        if isinstance(index, slice):
            rows = np.arange(*index.indices(self._len))
            cells = list(cells)
            if len(cells) != len(rows):
                raise ParameterError(
                    f"{len(cells)} cells for {len(rows)} rows: a column's length "
                    "changes only by insert and del"
                )
        else:
            rows, cells = [self._row(index)], [cells]
        self._check(rows, allow_misshapen=True)
        self._own(self._len)
        for i0, cell in zip(rows, cells):
            self.words[i0], self._state[i0] = self._encode(cell)

    def __delitem__(self, index) -> None:
        n = self._len
        keep = np.ones(n, dtype=bool)
        keep[index if isinstance(index, slice) else self._row(index)] = False
        self._own(n)
        m = int(keep.sum())
        for array in (self.words, self._state):
            array[:m] = array[:n][keep]
        self._len = m

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        n = self._len
        if len(other) != n:
            return False
        if isinstance(other, Column) and self._plain and other._plain:
            return (
                self.field == other.field
                and np.array_equal(self._state[:n], other._state[:n])
                and np.array_equal(self.words[:n], other.words[:n])  # wiped: zeros
            )
        return all(map(self._cell_eq, self, other))

    __hash__ = None

    def _cell_eq(self, a, b) -> bool:
        if a is None or b is None:
            return a is b
        eq = self.field.vec_eq
        return len(a) == len(b) == 2 and eq(a[0], b[0]) and eq(a[1], b[1])

    def insert(self, index: int, cell, added=None) -> None:
        """Put cell at row index + 1, moving the rows from there down one.

        With added, the stored words of as many rows as move, each moving
        row takes those words added to its own, field element by element;
        a wiped cell stays wiped.
        """
        n = self._len
        i0 = min(max(index + n if index < 0 else index, 0), n)
        moved = self.words[i0:n]
        if added is not None:
            self._check(slice(i0, n))
            moved = self.field.add_words(moved, added)
            if not self._state[i0:n].all():  # some are wiped
                moved[self._state[i0:n] == _WIPED] = 0
        self._own(n + 1)
        self.words[i0 + 1 : n + 1] = moved
        self._state[i0 + 1 : n + 1] = self._state[i0:n]
        self._len = n + 1
        self.words[i0], self._state[i0] = self._encode(cell)

    def gather(self, rows):
        """Stored words of the given 0-based rows, as an (len(rows), 2,
        chunks) array; a wiped cell's words are zeros."""
        self._check(rows)
        return self.words[rows]

    def body(self):
        """The words of every cell, as a share file stores them;
        ParameterError unless every row holds a cell whose words are held."""
        n = self._len
        state = self._state[:n]
        count = np.bincount(state, minlength=_UNREAD + 1)
        if count[_UNREAD]:
            raise ParameterError("share was read at some rows only; cannot serialize")
        if count[_WIPED]:
            wiped = np.flatnonzero(state == _WIPED)[0]
            raise ParameterError(f"cell {wiped + 1} is absent; cannot serialize")
        if count[_MISSHAPEN]:
            self._check(np.flatnonzero(state == _MISSHAPEN))
        return self.words[:n]

    def _row(self, index) -> int:
        n = self._len
        i0 = index + n if index < 0 else index
        if not 0 <= i0 < n:
            raise IndexError(f"row {index + 1} out of range 1..{n}")
        return i0

    def _check(self, rows, allow_misshapen: bool = False) -> None:
        """Raise for a row that cannot be read, among rows (an index array
        or a slice); a misshapen cell passes if allow_misshapen."""
        if self._plain:
            return
        state = self._state[rows]
        bad = state >= (_UNREAD if allow_misshapen else _MISSHAPEN)
        if not bad.any():
            return
        t = int(np.flatnonzero(bad)[0])
        i = (np.arange(self._len)[rows] if isinstance(rows, slice) else np.asarray(rows))[t] + 1
        if state[t] == _UNREAD:
            raise LookupError(f"row {i} was not read from the share file")
        raise ParameterError(
            f"row {i} holds a misshapen cell: its block or tag is not the "
            f"chunk count, {self.chunks}, of elements of {self.field.token}"
        )

    def _encode(self, cell):
        """The stored words and the state of one cell."""
        if cell is None:
            return 0, _WIPED
        try:
            block, tag = cell
        except (TypeError, ValueError):
            raise ParameterError("a cell is a (block, tag) pair or None") from None
        fld, c = self.field, self.chunks
        vecs = fld.as_vectors([block, tag], c)
        if vecs is None:
            self._plain = False
            return 0, _MISSHAPEN
        return fld.vectors_to_words(vecs, c), _CELL

    def _own(self, rows: int) -> None:
        """Make the arrays this column's alone, with room for rows cells;
        a copy leaves room for appends, so they copy the column only
        O(log) times."""
        # The list of owners is shared: keep only those alive but this one.
        others = [ref for ref in self._owners if ref() is not None and ref() is not self]
        self._owners[:] = others
        if not others and rows <= len(self.words):
            self._owners.append(weakref.ref(self))
            return
        n = self._len
        words = _pages(max(rows, n + _spare(n)), self.chunks, self.words.dtype)
        words[:n] = self.words[:n]
        state = np.full(len(words), _WIPED, np.uint8)
        state[:n] = self._state[:n]
        self.words, self._state, self._owners = words, state, [weakref.ref(self)]


def _spare(rows: int) -> int:
    """Rows of room for appends that a column of rows cells keeps: an
    eighth more."""
    return rows // 8 + 4


def _pages(rows: int, chunks: int, dtype):
    """A (rows, 2, chunks) array of zero words on pages of its own.

    A page takes memory only once it is written, so room for appends costs
    none until they come; and when the array goes, its pages go back to
    the system at once, so a column that grows leaves no hole in the heap
    for the next one to miss.
    """
    count = rows * 2 * chunks
    pages = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(pages, dtype, count).reshape(rows, 2, chunks)


@dataclass
class ServerState:
    """One server's share of one file: its column of the grid and the
    column-code shape it is stored under.

    Assigning ``cells`` a sequence of (block, tag) pairs and Nones stores
    them as a new ``Column``; a ``Column`` is kept as it is.
    """

    j: int
    fid: bytes
    field: Field
    ktilde: int
    stilde: int
    ctr: int
    chunks: int  # chunks per block
    cells: Column = ()  # (block, tag) or None if wiped

    def __setattr__(self, name, value):
        if name == "cells" and not isinstance(value, Column):
            value = Column.of_cells(self.field, self.chunks, value)
        object.__setattr__(self, name, value)

    @property
    def r(self) -> int:
        return self.ktilde + self.stilde


def store_share(
    j: int, fid: bytes, cells, *, field: Field, ktilde: int, stilde: int,
    ctr: int, chunks: int,
) -> ServerState:
    """Initialize (or wholesale replace) a server's share with cells, a
    column (shared until either changes) or a sequence of cells."""
    if len(cells) != ktilde + stilde:
        raise ParameterError(f"{len(cells)} cells do not match r = {ktilde} + {stilde}")
    return ServerState(
        j, fid, field, ktilde, stilde, ctr, chunks, Column.of_cells(field, chunks, cells)
    )


def prove(state: ServerState, challenge) -> tuple:
    """Aggregate response (mu, sigma) to a challenge set.

    Cells wiped from under the server contribute zeros: without the key it
    cannot fabricate matching tags, so the response simply fails
    verification.
    """
    fld = state.field
    r = state.r
    rows = [i for i, _ in challenge.entries]
    if rows and not (1 <= min(rows) and max(rows) <= r):
        bad = next(i for i in rows if not 1 <= i <= r)
        raise ParameterError(f"challenged row {bad} out of range 1..{r}")
    coeffs = [nu for _, nu in challenge.entries]
    words = state.cells.gather(np.array(rows, dtype=np.intp) - 1)
    # One combine of whole rows: each row's block words, then its tag words.
    both = fld.vec_combine(coeffs, words.reshape(len(rows), -1))
    return both[: state.chunks], both[state.chunks :]


def apply_append(state: ServerState, order) -> None:
    """Absorb one append order: insert the new row, self-update parity.

    The stilde parity rows take their deltas and move down one row, and
    the new cell goes in at row ktilde + 1: O(stilde) rows at any height.
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
    added = None
    if state.stilde:
        extended = crs.canonical_matrix(state.stilde, ktilde_new, fld)
        pairs = zip(extended.parity_delta(new_block), tag_deltas)
        added = fld.vectors_to_words([v for pair in pairs for v in pair], state.chunks)
        added = added.reshape(state.stilde, 2, state.chunks)
    # The parity rows take their deltas as they move down one row.
    state.cells.insert(state.ktilde, (new_block, new_tag), added)
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
    return replace(state, cells=state.cells.share())
