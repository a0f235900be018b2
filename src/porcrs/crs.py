"""Systematic Cauchy Reed-Solomon erasure codes.

A distribution matrix stacks a k x k identity on top of an s x k Cauchy
grid with entries a_ij = 1 / (x_i - y_j), built from two disjoint sets X
(one x per parity row) and Y (one y per message column).  Every k x k
submatrix of such a matrix is invertible, so any k surviving codeword
symbols recover the message.

The protocol always uses the canonical sets (x_i = i, y_j = order - 1 - j,
both 0-based): they are recomputable from the bare parameters (s, k,
field) and extend by one message column without touching existing
entries -- the new y simply continues downward from the top of the field.
:func:`canonical_matrix` holds them in closed form, as ``range`` objects
checked by their bounds, so building, extending and reading single
entries take time and memory independent of k; Cauchy rows are computed
only when asked for.  Over Z_p the canonical grid is Hankel, entry (i, j)
being 1 / (i + j + 1), so all its rows are slices of one table of s + k - 1
inverses; otherwise each row takes one batch inversion.  The encode maps
a (k, L) array of stored words to the (s, L) parity words; over Z_p one
big-int sum per position gives up to 64 parity rows (see
DistributionMatrix.encode_words).  Explicit X/Y sets are accepted for
library use and test vectors.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import CapacityError, ParameterError, UnrecoverableError
from .field import Field, PrimeField

# Parity rows per packed int in the Z_p encode (see encode_words).  More
# rows take several groups, each built when used and cached only when it is
# the only one: at 2x10^4 inputs and s = 2,000, all packed ints together
# would take about 700 MB.
_PACKED_ROWS = 64


@dataclass(frozen=True)
class CauchySets:
    """The x-values (one per parity row) and y-values (one per column).

    Either may be a ``range``, as in the closed-form canonical sets.
    """

    xs: Sequence[int]
    ys: Sequence[int]

    def validate(self, fld: Field) -> None:
        """Check distinctness and disjointness of the two sets."""
        if _ranges_valid(self.xs, self.ys, fld.order):
            return
        for v in (*self.xs, *self.ys):
            fld.check_element(v)
        if len(set(self.xs)) != len(self.xs):
            raise ParameterError("x-values must be pairwise distinct")
        if len(set(self.ys)) != len(self.ys):
            raise ParameterError("y-values must be pairwise distinct")
        if set(self.xs) & set(self.ys):
            raise ParameterError("x-values and y-values must be disjoint")


def _ranges_valid(xs, ys, order: int) -> bool:
    """Bounds check for two ranges.

    A range's values are distinct by construction, so two spans inside
    [0, order) that do not overlap make valid sets.  False means "check
    element by element", not "invalid".
    """
    if not (isinstance(xs, range) and isinstance(ys, range)):
        return False
    spans = [(min(r[0], r[-1]), max(r[0], r[-1])) for r in (xs, ys) if r]
    if any(lo < 0 or hi >= order for lo, hi in spans):
        return False
    return len(spans) < 2 or spans[0][1] < spans[1][0] or spans[1][1] < spans[0][0]


def _canonical_ranges(s: int, k: int, fld: Field) -> CauchySets:
    """The canonical sets in closed form: x_i = i, y_j = order - 1 - j."""
    if s < 0 or k < 0:
        raise ParameterError("set sizes must be nonnegative")
    if s + k > fld.order:
        raise CapacityError(
            f"{s} + {k} elements exceed the order of {fld.token}"
        )
    return CauchySets(range(s), range(fld.order - 1, fld.order - 1 - k, -1))


def canonical_sets(s: int, k: int, fld: Field) -> CauchySets:
    """First s field elements as xs, elements descending from the top as ys.

    The j-th y is order - j, so extending to k+1 columns appends order-k-1
    and leaves every existing entry untouched.  Materialized as tuples;
    :func:`canonical_matrix` keeps the same sets in closed form.
    """
    sets = _canonical_ranges(s, k, fld)
    return CauchySets(tuple(sets.xs), tuple(sets.ys))


class DistributionMatrix:
    """Identity over Cauchy; immutable once built (extend returns a copy).

    Cauchy rows are materialized lazily.  With the canonical sets over Z_p
    every row is a slice of one table of s + k - 1 inverses, built with one
    batch inversion on first use; otherwise each row is inverted on its own
    and cached per matrix.
    """

    def __init__(self, sets: CauchySets, fld: Field):
        sets.validate(fld)
        if len(sets.xs) + len(sets.ys) > fld.order:
            raise CapacityError("codeword length exceeds field order")
        self.sets = sets
        self.field = fld
        self.k_cols = len(sets.ys)
        self.n_rows = self.k_cols + len(sets.xs)
        self._table: list[int] | None = None
        self._rows: dict[int, list[int]] = {}
        self._last_col: list[int] | None = None
        self._packed: list[int] | None = None  # see _packed_group

    @property
    def s_rows(self) -> int:
        return self.n_rows - self.k_cols

    @functools.cached_property
    def _hankel(self) -> bool:
        """The canonical sets in closed form over Z_p: see _inverse_table."""
        fld = self.field
        return isinstance(fld, PrimeField) and self.sets == _canonical_ranges(
            self.s_rows, self.k_cols, fld
        )

    def _inverse_table(self) -> list[int]:
        """h[t] = 1 / (t + 1) for t = 0 .. s + k - 2, one batch inversion.

        With the canonical sets over Z_p, x_i - y_j = i - (p - 1 - j) =
        i + j + 1 mod p, so Cauchy entry (i, j) is h[i + j]: a Hankel grid.
        """
        if self._table is None:
            self._table = self.field.inv_many(range(1, self.n_rows))
        return self._table

    def cauchy_row(self, i: int) -> list[int]:
        """Row i (0-based) of the s x k Cauchy grid."""
        if not 0 <= i < self.s_rows:
            raise ParameterError(f"cauchy row {i} out of range")
        if self._hankel:
            return self._inverse_table()[i : i + self.k_cols]
        row = self._rows.get(i)
        if row is None:
            fld, x = self.field, self.sets.xs[i]
            row = self._rows[i] = fld.inv_many([fld.sub(x, y) for y in self.sets.ys])
        return row

    def cauchy_entry(self, i: int, j: int) -> int:
        """Single entry; builds no row or table that is not built already."""
        if not 0 <= i < self.s_rows or not 0 <= j < self.k_cols:
            raise ParameterError(f"cauchy entry ({i}, {j}) out of range")
        row = self._rows.get(i)
        if row is not None:
            return row[j]
        fld = self.field
        return fld.inv(fld.sub(self.sets.xs[i], self.sets.ys[j]))

    def cauchy_rows(self) -> list[list[int]]:
        return [self.cauchy_row(i) for i in range(self.s_rows)]

    def extend(self, y: int | None = None) -> "DistributionMatrix":
        """Append one message column; parity count stays fixed.

        Without an explicit y the canonical continuation order-(k+1) is
        used, and closed-form sets stay closed-form.  Existing Cauchy
        entries keep their values.
        """
        fld = self.field
        if self.n_rows + 1 > fld.order:
            raise CapacityError("extension would exceed field order")
        if y is None:
            y = fld.order - (self.k_cols + 1)
        fld.check_element(y)
        ys = self.sets.ys
        if isinstance(ys, range) and y == ys.start + len(ys) * ys.step:
            ys = range(ys.start, y + ys.step, ys.step)
        else:
            ys = (*ys, y)
        return DistributionMatrix(CauchySets(self.sets.xs, ys), fld)

    def encode(self, message) -> list[int]:
        """Message of k symbols -> systematic codeword of n symbols."""
        fld = self.field
        vec = fld.vec_from_ints(message)
        parity = self.encode_words(np.array([vec], dtype=fld.stored_dtype).T)
        return fld.vec_to_ints(vec) + parity[:, 0].tolist()

    def encode_vectors(self, vecs) -> list:
        """Systematic encode applied position-wise to chunk vectors: a
        wrapper over :meth:`encode_words`, by way of their stored words."""
        if len(vecs) != self.k_cols or len(set(map(len, vecs))) != 1:
            raise ParameterError(f"need k = {self.k_cols} vectors of one length")
        parity = self.encode_words(self.field.vectors_to_words(vecs, len(vecs[0])))
        return list(vecs) + self.field.vectors_from_words(parity)

    def encode_words(self, words):
        """The (s, L) parity words of a (k, L) array of stored words.

        In GF(2^w) each parity row is one vec_combine.  Over Z_p, input t's
        coefficients a_it of a group of rows sit in one int, a_it in slot
        i, each slot wide enough for a sum of k products below p^2: at
        position u, sum_t words[t, u] * packed_t holds the group's parity
        values at u, one per slot, before reduction mod p (Kronecker
        substitution).
        """
        k, s = self.k_cols, self.s_rows
        if words.ndim != 2 or len(words) != k:
            raise ParameterError(f"need a ({k}, L) array of words, got {words.shape}")
        fld = self.field
        out = np.empty((s, words.shape[1]), dtype=fld.stored_dtype)
        if not isinstance(fld, PrimeField):
            for i in range(s):
                out[i] = fld.vec_combine(self.cauchy_row(i), words)
            return out
        p = fld.order
        slot = 2 * p.bit_length() + k.bit_length() + 1
        mask = (1 << slot) - 1
        positions = words.T.tolist()
        for lo in range(0, s, _PACKED_ROWS):
            rows = min(_PACKED_ROWS, s - lo)
            packed = self._packed_group(lo, rows, slot)
            totals = [sum(map(operator.mul, column, packed)) for column in positions]
            shifts = range(0, rows * slot, slot)
            out[lo : lo + rows] = [[(t >> b & mask) % p for t in totals] for b in shifts]
        return out

    def _packed_group(self, lo: int, rows: int, slot: int) -> list[int]:
        """Per input t, rows lo..lo+rows-1 of column t in one int, row lo
        in the lowest slot.  Cached when one group covers every row."""
        if self._packed is not None:
            return self._packed
        k = self.k_cols
        if self._hankel:
            # Column t is h[lo + t : lo + t + rows]: slide a window along h,
            # dropping the lowest slot and adding one at the top per step.
            h = self._inverse_table()
            top = (rows - 1) * slot
            acc = 0
            for a in reversed(h[lo : lo + rows]):
                acc = acc << slot | a
            packed = [acc]
            for a in h[lo + rows : lo + rows + k - 1]:
                acc = acc >> slot | a << top
                packed.append(acc)
        else:
            offsets = range(0, rows * slot, slot)
            grid = [self.cauchy_row(i) for i in range(lo, lo + rows)]
            packed = [sum(map(operator.lshift, column, offsets)) for column in zip(*grid)]
        if rows == self.s_rows:
            self._packed = packed
        return packed

    def parity_delta(self, new_words):
        """Parity adjustment when the last column's words arrive, as an
        (s, len(new_words)) array of stored words.

        Adding row i to the i-th parity row of the shorter code's codeword
        yields the parity of the extended codeword.  The last column is
        computed once per matrix, with one batch inversion.
        """
        fld = self.field
        if self._last_col is None:
            y = self.sets.ys[-1]
            self._last_col = fld.inv_many([fld.sub(x, y) for x in self.sets.xs])
        return fld.vec_scale_many(self._last_col, new_words)

    # -- erasure decoding ------------------------------------------------

    def recovery_plan(self, present: Sequence[bool]) -> "RecoveryPlan":
        """Choose k rows and solve for the erased message positions.

        Surviving systematic rows are used as-is; remaining rank comes from
        the lowest-index surviving parity rows.  Returns coefficients that
        express every message symbol as a combination of surviving symbols,
        applied position-wise to chunk vectors.
        """
        if len(present) != self.n_rows:
            raise ParameterError("presence mask length must equal n")
        k = self.k_cols
        fld = self.field
        have_sys = [j for j in range(k) if present[j]]
        erased = [j for j in range(k) if not present[j]]
        need = len(erased)
        parity_rows = [i for i in range(self.s_rows) if present[k + i]][:need]
        if len(parity_rows) < need:
            raise UnrecoverableError(
                f"{sum(present)} survivors cannot restore rank {k}"
            )
        # For each chosen parity row l:
        #   sum_{j erased} a_lj m_j = c_l - sum_{j present} a_lj m_j
        # The submatrix over erased columns is itself Cauchy, so it inverts.
        sub = [[row[j] for j in erased] for row in map(self.cauchy_row, parity_rows)]
        inv_sub = _invert(sub, fld)
        return RecoveryPlan(self, have_sys, erased, parity_rows, inv_sub)

    def decode_erasures(self, symbols) -> list[int]:
        """Recover the message from a codeword with None marking erasures.

        If the present symbols are inconsistent (not from one codeword) the
        result satisfies the chosen k rows only.  A one-chunk wrapper over
        :meth:`RecoveryPlan.apply_vectors`.
        """
        fld = self.field
        plan = self.recovery_plan([s is not None for s in symbols])
        vectors = [None if s is None else fld.vec_from_ints([s]) for s in symbols]
        return [int(v[0]) for v in plan.apply_vectors(vectors)]


@dataclass
class RecoveryPlan:
    """Solved erasure pattern: how to rebuild each message symbol."""

    matrix: DistributionMatrix
    have_sys: list[int]
    erased: list[int]
    parity_rows: list[int]
    inv_sub: list[list[int]]
    _coeffs: list[list[tuple[int, int]]] | None = dc_field(default=None, repr=False)

    def coefficients(self) -> list[list[tuple[int, int]]]:
        """Per message position: [(codeword_row, coefficient), ...].

        An erased position's terms come in codeword-row order, zero
        coefficients left out: each present systematic row j' with
        -sum_l w_l a_lj', then each chosen parity row l with w_l, its
        weight in inv_sub.
        """
        if self._coeffs is not None:
            return self._coeffs
        m, fld = self.matrix, self.matrix.field
        k = m.k_cols
        out: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for j in self.have_sys:
            out[j] = [(j, 1)]
        rows = np.array([m.cauchy_row(i) for i in self.parity_rows], dtype=fld.stored_dtype)
        for j, weights in zip(self.erased, self.inv_sub):
            sums = fld.vec_to_ints(fld.vec_combine(weights, rows))  # sum_l w_l a_lj'
            terms = [(jp, fld.neg(sums[jp])) for jp in self.have_sys if sums[jp]]
            terms += [(k + i, w) for i, w in zip(self.parity_rows, weights) if w]
            out[j] = terms
        self._coeffs = out
        return out

    def apply_vectors(self, vectors) -> list:
        """Same solve applied position-wise to chunk vectors."""
        fld = self.matrix.field
        out = []
        for terms in self.coefficients():
            coeffs = [c for _, c in terms]
            vecs = [vectors[row] for row, _ in terms]
            out.append(fld.vec_combine(coeffs, vecs))
        return out


def _invert(mat: list[list[int]], fld: Field) -> list[list[int]]:
    """Gauss-Jordan inverse over the field, each row joined to its identity
    row so that a row operation is one vec_scale or vec_sub; raises if
    singular."""
    n = len(mat)
    rows = [
        fld.vec_from_ints([*row, *(int(i == j) for j in range(n))])
        for i, row in enumerate(mat)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise UnrecoverableError("singular system in erasure decode")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = fld.vec_scale(fld.inv(int(rows[col][col])), rows[col])
        for r in range(n):
            factor = int(rows[r][col])
            if r != col and factor:
                rows[r] = fld.vec_sub(rows[r], fld.vec_scale(factor, rows[col]))
    return [fld.vec_to_ints(row[n:]) for row in rows]


def build_distribution(sets: CauchySets, fld: Field) -> DistributionMatrix:
    """Distribution matrix from explicit sets (test vectors, library use)."""
    return DistributionMatrix(sets, fld)


def canonical_matrix(s: int, k: int, fld: Field) -> DistributionMatrix:
    """The protocol's matrix: canonical sets for the given shape, in closed
    form, so building it takes time and memory independent of s and k."""
    return DistributionMatrix(_canonical_ranges(s, k, fld), fld)


@functools.lru_cache(maxsize=32)
def row_code(s: int, k: int, fld: Field) -> DistributionMatrix:
    """The dispersal code across n = k + s servers, built once per shape.

    One matrix serves every outsource, append and repair of that shape, so
    its Cauchy rows are inverted once; it holds only public coefficients.
    """
    return canonical_matrix(s, k, fld)
