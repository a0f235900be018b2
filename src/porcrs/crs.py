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
only when asked for, with one batch inversion per row.  Explicit X/Y sets
are accepted for library use and test vectors.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

from .errors import CapacityError, ParameterError, UnrecoverableError
from .field import Field


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

    Cauchy rows are materialized lazily and cached per matrix.
    """

    def __init__(self, sets: CauchySets, fld: Field):
        sets.validate(fld)
        if len(sets.xs) + len(sets.ys) > fld.order:
            raise CapacityError("codeword length exceeds field order")
        self.sets = sets
        self.field = fld
        self.k_cols = len(sets.ys)
        self.n_rows = self.k_cols + len(sets.xs)
        self._rows: dict[int, list[int]] = {}
        self._last_col: list[int] | None = None

    @property
    def s_rows(self) -> int:
        return self.n_rows - self.k_cols

    def cauchy_row(self, i: int) -> list[int]:
        """Row i (0-based) of the s x k Cauchy grid."""
        if not 0 <= i < self.s_rows:
            raise ParameterError(f"cauchy row {i} out of range")
        row = self._rows.get(i)
        if row is None:
            fld, x = self.field, self.sets.xs[i]
            row = self._rows[i] = fld.inv_many([fld.sub(x, y) for y in self.sets.ys])
        return row

    def cauchy_entry(self, i: int, j: int) -> int:
        """Single entry; avoids materializing the row when it is not cached."""
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
        """Message of k symbols -> systematic codeword of n symbols.

        A one-chunk wrapper over :meth:`encode_vectors`.
        """
        fld = self.field
        codeword = self.encode_vectors([fld.vec_from_ints([m]) for m in message])
        return [int(v[0]) for v in codeword]

    def encode_vectors(self, vecs) -> list:
        """Systematic encode applied position-wise to chunk vectors."""
        if len(vecs) != self.k_cols:
            raise ParameterError(f"need k = {self.k_cols} vectors, got {len(vecs)}")
        fld = self.field
        stacked = fld.vec_stack(vecs)
        out = list(vecs)
        for i in range(self.s_rows):
            out.append(fld.vec_combine(self.cauchy_row(i), stacked))
        return out

    def parity_delta(self, new_vec) -> list:
        """Parity adjustment when the last column's chunk vector arrives.

        Adding delta[i] to the i-th parity vector of the shorter code's
        codeword yields the parity of the extended codeword.  The last
        column is computed once per matrix, with one batch inversion.
        """
        fld = self.field
        if self._last_col is None:
            y = self.sets.ys[-1]
            self._last_col = fld.inv_many([fld.sub(x, y) for x in self.sets.xs])
        return [fld.vec_scale(a, new_vec) for a in self._last_col]

    # -- erasure decoding ------------------------------------------------

    def recovery_plan(self, present: list[bool]) -> "RecoveryPlan":
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
        sub = [[self.cauchy_row(i)[j] for j in erased] for i in parity_rows]
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
        """Per message position: [(codeword_row, coefficient), ...]."""
        if self._coeffs is not None:
            return self._coeffs
        m, fld = self.matrix, self.matrix.field
        k = m.k_cols
        out: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for j in self.have_sys:
            out[j] = [(j, 1)]
        rows = [m.cauchy_row(i) for i in self.parity_rows]
        for row_idx, j in enumerate(self.erased):
            terms: list[tuple[int, int]] = []
            for col_idx, i in enumerate(self.parity_rows):
                w = self.inv_sub[row_idx][col_idx]
                if w == 0:
                    continue
                terms.append((k + i, w))
                row = rows[col_idx]
                for jp in self.have_sys:
                    coeff = fld.neg(fld.mul(w, row[jp]))
                    if coeff:
                        terms.append((jp, coeff))
            out[j] = _merge_terms(terms, fld)
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


def _merge_terms(terms, fld):
    acc: dict[int, int] = {}
    for row, coeff in terms:
        acc[row] = fld.add(acc.get(row, 0), coeff)
    return [(row, c) for row, c in sorted(acc.items()) if c]


def _invert(mat: list[list[int]], fld: Field) -> list[list[int]]:
    """Gauss-Jordan inverse over the field; raises if singular."""
    n = len(mat)
    a = [list(row) for row in mat]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise UnrecoverableError("singular system in erasure decode")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = fld.inv(a[col][col])
        a[col] = [fld.mul(scale, v) for v in a[col]]
        inv[col] = [fld.mul(scale, v) for v in inv[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            factor = a[r][col]
            a[r] = [fld.sub(v, fld.mul(factor, w)) for v, w in zip(a[r], a[col])]
            inv[r] = [fld.sub(v, fld.mul(factor, w)) for v, w in zip(inv[r], inv[col])]
    return inv


def build_distribution(sets: CauchySets, fld: Field) -> DistributionMatrix:
    """Distribution matrix from explicit sets (test vectors, library use)."""
    return DistributionMatrix(sets, fld)


def canonical_matrix(s: int, k: int, fld: Field) -> DistributionMatrix:
    """The protocol's matrix: canonical sets for the given shape, in closed
    form, so building it takes time and memory independent of s and k."""
    return DistributionMatrix(_canonical_ranges(s, k, fld), fld)
