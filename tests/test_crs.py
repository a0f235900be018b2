"""Coding layer: worked matrix vectors, erasure recovery, extension."""

import random

import numpy as np
import pytest

from porcrs import crs
from porcrs.crs import (
    CauchySets,
    build_distribution,
    canonical_matrix,
    canonical_sets,
)
from porcrs.errors import CapacityError, ParameterError, UnrecoverableError
from porcrs.field import PrimeField, binary_field, prime_field

Z11 = prime_field(11)
GF8 = binary_field(8)
GF16 = binary_field(16)
M61 = prime_field()

# The worked 3x4 example: X = {1, 2, 7}, Y = {5, 6, 8, 9} over Z_11.
EXAMPLE_SETS = CauchySets((1, 2, 7), (5, 6, 8, 9))
EXAMPLE_ROWS = [[8, 2, 3, 4], [7, 8, 9, 3], [6, 1, 10, 5]]


def test_canonical_sets_prime():
    sets = canonical_sets(6, 9, M61)
    assert sets.xs == (0, 1, 2, 3, 4, 5)
    assert set(sets.ys) == {M61.order - j for j in range(1, 10)}
    assert min(sets.ys) == 2**61 - 10 and max(sets.ys) == 2**61 - 2


def test_canonical_sets_minimal_binary():
    sets = canonical_sets(1, 1, GF8)
    assert sets.xs == (0,)
    assert sets.ys == (255,)


def test_canonical_sets_capacity():
    with pytest.raises(CapacityError):
        canonical_sets(3, 254, GF8)  # 257 > 256


def test_canonical_sets_satisfy_cauchy_conditions():
    for s, k, fld in ((6, 9, M61), (12, 243, GF16), (3, 5, GF8)):
        sets = canonical_sets(s, k, fld)
        sets.validate(fld)  # distinct xs, distinct ys, disjoint


def test_example_matrix_entries():
    m = build_distribution(EXAMPLE_SETS, Z11)
    assert m.cauchy_rows() == EXAMPLE_ROWS
    # independent check: every entry is the Fermat inverse of x - y
    for i, x in enumerate(EXAMPLE_SETS.xs):
        for j, y in enumerate(EXAMPLE_SETS.ys):
            assert m.cauchy_entry(i, j) == pow((x - y) % 11, 9, 11)


def test_one_by_one_matrix():
    m = build_distribution(CauchySets((0,), (M61.order - 1,)), M61)
    assert m.cauchy_rows() == [[1]]  # inv(0 - (p-1)) = inv(1)


def test_binary_entries_use_xor_subtraction():
    sets = canonical_sets(3, 5, GF8)
    m = build_distribution(sets, GF8)
    for i, x in enumerate(sets.xs):
        for j, y in enumerate(sets.ys):
            entry = m.cauchy_entry(i, j)
            assert GF8.mul(entry, x ^ y) == 1


def test_invalid_sets_rejected():
    with pytest.raises(ParameterError):
        CauchySets((1, 1), (2, 3)).validate(Z11)
    with pytest.raises(ParameterError):
        CauchySets((1, 2), (2, 3)).validate(Z11)
    with pytest.raises(ParameterError):
        CauchySets((1,), (3, 3)).validate(Z11)


def test_encode_unit_vector_selects_cauchy_column():
    m = build_distribution(EXAMPLE_SETS, Z11)
    assert m.encode([1, 0, 0, 0]) == [1, 0, 0, 0, 8, 7, 6]


def test_encode_zero_message():
    m = build_distribution(EXAMPLE_SETS, Z11)
    assert m.encode([0, 0, 0, 0]) == [0] * 7


def test_encode_length_mismatch():
    m = build_distribution(EXAMPLE_SETS, Z11)
    with pytest.raises(ParameterError):
        m.encode([1, 2, 3])


def test_systematic_prefix():
    rng = random.Random(0)
    m = canonical_matrix(6, 9, M61)
    msg = [M61.rand_element(rng) for _ in range(9)]
    assert m.encode(msg)[:9] == msg


def test_decode_zero_erasures():
    rng = random.Random(1)
    m = build_distribution(EXAMPLE_SETS, Z11)
    msg = [rng.randrange(11) for _ in range(4)]
    cw = m.encode(msg)
    assert m.decode_erasures(cw) == msg


def test_decode_all_systematic_erased():
    m = build_distribution(EXAMPLE_SETS, Z11)
    cw = m.encode([1, 0, 0, 0])
    survivors = [1, None, None, None, 8, 7, 6]
    assert m.decode_erasures(survivors) == [1, 0, 0, 0]


def test_decode_below_rank_is_unrecoverable():
    m = build_distribution(EXAMPLE_SETS, Z11)
    cw = m.encode([3, 1, 4, 1])
    for idx in (0, 1, 2, 5):  # n - k + 1 = 4 erasures
        cw[idx] = None
    with pytest.raises(UnrecoverableError):
        m.decode_erasures(cw)


def test_decode_random_erasure_patterns():
    rng = random.Random(2)
    for fld in (M61, GF16):
        m = canonical_matrix(6, 9, fld)
        for _ in range(200):
            msg = [fld.rand_element(rng) for _ in range(9)]
            cw = m.encode(msg)
            for idx in rng.sample(range(15), 6):
                cw[idx] = None
            assert m.decode_erasures(cw) == msg


def test_extend_matches_worked_example():
    m = build_distribution(EXAMPLE_SETS, Z11)
    ext = m.extend(y=10)
    assert ext.n_rows == 8 and ext.k_cols == 5
    assert [ext.cauchy_entry(i, 4) for i in range(3)] == [6, 4, 7]
    # old entries bit-identical
    for i in range(3):
        assert ext.cauchy_row(i)[:4] == EXAMPLE_ROWS[i]


def test_extend_canonical_choice():
    m = canonical_matrix(12, 243, GF16)
    ext = m.extend()
    assert ext.sets.ys[-1] == 65536 - 244
    assert ext.k_cols == 244 and ext.s_rows == 12


def test_extend_capacity():
    m = canonical_matrix(3, 253, GF8)  # fills the field exactly
    with pytest.raises(CapacityError):
        m.extend()


def test_parity_delta_zero_symbol():
    m = build_distribution(EXAMPLE_SETS, Z11).extend(y=10)
    assert m.parity_delta((0,)) == [(0,), (0,), (0,)]


def test_parity_delta_unit_symbol_is_new_column():
    m = build_distribution(EXAMPLE_SETS, Z11).extend(y=10)
    assert m.parity_delta((1,)) == [(6,), (4,), (7,)]


def test_parity_delta_matches_reencode():
    rng = random.Random(3)
    m0 = canonical_matrix(4, 6, M61)
    for _ in range(1000):
        msg = [M61.rand_element(rng) for _ in range(6)]
        old_parity = m0.encode(msg)[6:]
        ext = m0.extend()
        sym = M61.rand_element(rng)
        delta = ext.parity_delta((sym,))
        patched = [M61.add(p, d) for p, (d,) in zip(old_parity, delta)]
        assert patched == ext.encode(msg + [sym])[7:]


def test_iterated_extension_equals_full_reencode():
    rng = random.Random(4)
    for _ in range(20):
        k0 = rng.randrange(1, 5)
        s = rng.randrange(1, 5)
        appends = rng.randrange(0, 51)
        m = canonical_matrix(s, k0, M61)
        msg = [M61.rand_element(rng) for _ in range(k0)]
        parity = m.encode(msg)[k0:]
        for _ in range(appends):
            m = m.extend()
            sym = M61.rand_element(rng)
            msg.append(sym)
            parity = [M61.add(p, d) for p, (d,) in zip(parity, m.parity_delta((sym,)))]
        fresh = canonical_matrix(s, len(msg), M61)
        assert parity == fresh.encode(msg)[len(msg):]
        assert m.cauchy_rows() == fresh.cauchy_rows()


def test_product_code_commutes():
    rng = random.Random(5)
    for fld in (M61, GF16):
        for _ in range(50):
            ktilde, k = rng.randrange(1, 6), rng.randrange(1, 6)
            stilde, s = rng.randrange(0, 4), rng.randrange(0, 4)
            grid = [[fld.rand_element(rng) for _ in range(k)] for _ in range(ktilde)]
            col_code = canonical_matrix(stilde, ktilde, fld)
            row_code = canonical_matrix(s, k, fld)
            # columns first, then rows
            cols_first = [list(row) for row in grid]
            cols_first += [[0] * k for _ in range(stilde)]
            for j in range(k):
                col = col_code.encode([grid[i][j] for i in range(ktilde)])
                for i in range(stilde):
                    cols_first[ktilde + i][j] = col[ktilde + i]
            cols_first = [row_code.encode(row) for row in cols_first]
            # rows first, then columns
            rows_first = [row_code.encode(row) for row in grid]
            parity = [[0] * (k + s) for _ in range(stilde)]
            for j in range(k + s):
                col = col_code.encode([rows_first[i][j] for i in range(ktilde)])
                for i in range(stilde):
                    parity[i][j] = col[ktilde + i]
            assert cols_first == rows_first + parity


def test_random_square_submatrices_invertible():
    rng = random.Random(6)
    m = canonical_matrix(6, 9, M61)
    full = [[1 if i == j else 0 for j in range(9)] for i in range(9)]
    full += m.cauchy_rows()
    from porcrs.crs import _invert

    for _ in range(100):
        rows = rng.sample(range(15), 9)
        sub = [full[i] for i in rows]
        _invert(sub, M61)  # raises if singular


def test_recovery_plan_vectors_match_scalars():
    rng = random.Random(7)
    m = canonical_matrix(3, 4, M61)
    msg = [M61.rand_element(rng) for _ in range(4)]
    cw = m.encode(msg)
    symbols = list(cw)
    for idx in (0, 2, 5):
        symbols[idx] = None
    assert m.decode_erasures(symbols) == msg
    vectors = [None if s is None else (s,) for s in symbols]
    plan = m.recovery_plan([s is not None for s in symbols])
    assert [v[0] for v in plan.apply_vectors(vectors)] == msg


# -- Z_p packed encode and Hankel rows against the direct paths ------------

CAP = crs._PACKED_ROWS
PRIMES = [prime_field(11), prime_field(257), prime_field(65537), M61]
# (s, k): k < s, k = 1, s in {0, 1}, s over the slot cap and not a multiple.
SHAPES = [(4, 2), (3, 1), (0, 5), (1, 4), (2 * CAP + 3, 5), (CAP + 1, 1)]


def direct_rows(m):
    """Each Cauchy row by its own batch inversion of x_i - y_j."""
    fld, ys = m.field, m.sets.ys
    return [fld.inv_many([fld.sub(x, y) for y in ys]) for x in m.sets.xs]


def direct_parity(m, vecs):
    return [m.field.vec_combine(row, vecs) for row in direct_rows(m)]


def random_vectors(fld, k, c, rng):
    return [tuple(fld.rand_element(rng) for _ in range(c)) for _ in range(k)]


def check_against_direct(m, c, rng):
    fld = m.field
    assert m.cauchy_rows() == direct_rows(m)
    vecs = random_vectors(fld, m.k_cols, c, rng)
    # Extremes too: every element p - 1 makes every slot as full as it gets.
    for message in (vecs, [(fld.order - 1,) * c] * m.k_cols):
        codeword = m.encode_vectors(message)
        assert codeword[: m.k_cols] == message
        assert codeword[m.k_cols :] == direct_parity(m, message)
    return m.encode_vectors(vecs), vecs


@pytest.mark.parametrize(
    "fld, s, k, c",
    [
        pytest.param(fld, s, k, c, id=f"{fld.token}-s{s}-k{k}-c{c}")
        for fld in PRIMES
        for s, k in SHAPES
        for c in (1, 3)
        if s + k + 1 <= fld.order  # room for one extension
    ],
)
def test_packed_and_hankel_paths_match_direct(fld, s, k, c):
    rng = random.Random(s * 1000 + k * 10 + c)
    m = canonical_matrix(s, k, fld)
    codeword, vecs = check_against_direct(m, c, rng)
    # Random patterns of up to s erasures, decoded from the packed codeword.
    for _ in range(5):
        erased = set(rng.sample(range(m.n_rows), rng.randint(0, s)))
        line = [None if t in erased else v for t, v in enumerate(codeword)]
        plan = m.recovery_plan([v is not None for v in line])
        assert plan.apply_vectors(line) == vecs
    ext = m.extend()
    assert [row[:k] for row in ext.cauchy_rows()] == m.cauchy_rows()
    check_against_direct(ext, c, rng)


@pytest.mark.parametrize("fld", PRIMES, ids=lambda f: f.token)
def test_hankel_table_is_one_inversion(fld, monkeypatch):
    calls = []
    inv_many = PrimeField.inv_many
    monkeypatch.setattr(
        PrimeField, "inv_many", lambda self, values: calls.append(1) or inv_many(self, values)
    )
    s, k = 3, 4
    canonical_matrix(s, k, fld).encode_vectors([(1,)] * k)
    assert len(calls) == 1
    calls.clear()
    # The same canonical sets as tuples, and non-canonical sets, take the
    # direct path: one inversion per row, same values as the closed form.
    explicit = build_distribution(canonical_sets(s, k, fld), fld)
    assert explicit.cauchy_rows() == canonical_matrix(s, k, fld).cauchy_rows()
    assert len(calls) == s + 1
    calls.clear()
    shifted = build_distribution(CauchySets(range(1, s + 1), canonical_sets(s, k, fld).ys), fld)
    shifted.encode_vectors([(1,)] * k)
    assert len(calls) == s
    monkeypatch.undo()
    check_against_direct(shifted, 3, random.Random(1))


# -- the word kernel against the direct paths -------------------------------

WORD_FIELDS = [*PRIMES, GF8, GF16]


@pytest.mark.parametrize(
    "fld, s, k, L",
    [
        pytest.param(fld, s, k, L, id=f"{fld.token}-s{s}-k{k}-L{L}")
        for fld in WORD_FIELDS
        for s, k in SHAPES
        for L in (1, 3, 1100)
        if s + k <= fld.order
    ],
)
def test_encode_words_matches_direct(fld, s, k, L):
    rng = np.random.default_rng(s * 10_000 + k * 10 + L)
    m = canonical_matrix(s, k, fld)
    random_words = rng.integers(0, fld.order, size=(k, L), dtype=np.uint64)
    # Extremes too: every word order - 1 fills every Z_p slot as far as it goes.
    for words in (random_words, np.full((k, L), fld.order - 1, dtype=np.uint64)):
        words = words.astype(fld.stored_dtype)
        parity = m.encode_words(words)
        assert parity.shape == (s, L) and parity.dtype == fld.stored_dtype
        want = [fld.vec_to_ints(v) for v in direct_parity(m, words)]
        assert parity.tolist() == want


@pytest.mark.parametrize("fld", [M61, GF8], ids=lambda f: f.token)
def test_encode_words_refuses_the_wrong_row_count(fld):
    m = canonical_matrix(3, 4, fld)
    for shape in [(3, 2), (5, 2), (4,), (4, 2, 1)]:
        with pytest.raises(ParameterError):
            m.encode_words(np.zeros(shape, dtype=fld.stored_dtype))


# -- recovery plans against the scalar reference ---------------------------


def scalar_invert(mat, fld):
    """Gauss-Jordan by scalar field ops, as plans were first solved."""
    n = len(mat)
    a = [list(row) for row in mat]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise UnrecoverableError("singular")
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


def scalar_coefficients(plan):
    """Per message position, its terms by scalar field ops, zeros left out."""
    m, fld = plan.matrix, plan.matrix.field
    k = m.k_cols
    out = [[] for _ in range(k)]
    for j in plan.have_sys:
        out[j] = [(j, 1)]
    rows = [m.cauchy_row(i) for i in plan.parity_rows]
    for j, weights in zip(plan.erased, plan.inv_sub):
        terms = []
        for jp in plan.have_sys:
            coeff = 0
            for w, row in zip(weights, rows):
                coeff = fld.sub(coeff, fld.mul(w, row[jp]))
            if coeff:
                terms.append((jp, coeff))
        terms += [(k + i, w) for i, w in zip(plan.parity_rows, weights) if w]
        out[j] = terms
    return out


def all_ints(nested):
    return all(
        all_ints(x) if isinstance(x, (list, tuple)) else type(x) is int for x in nested
    )


PLAN_FIELDS = [Z11, prime_field(257), M61, GF8, GF16]


@pytest.mark.parametrize(
    "fld, s, k",
    [
        pytest.param(fld, s, k, id=f"{fld.token}-s{s}-k{k}")
        for fld in PLAN_FIELDS
        for s, k in [(3, 4), (6, 9), (2, 1), (12, 200)]
        if s + k <= fld.order
    ],
)
def test_recovery_plans_match_scalar_reference(fld, s, k):
    rng = random.Random(s * 1000 + k)
    m = canonical_matrix(s, k, fld)
    for _ in range(6):
        present = [True] * (s + k)
        for t in rng.sample(range(s + k), rng.randint(0, s)):
            present[t] = False
        plan = m.recovery_plan(present)
        sub = [[row[j] for j in plan.erased] for row in map(m.cauchy_row, plan.parity_rows)]
        assert plan.inv_sub == scalar_invert(sub, fld) == crs._invert(sub, fld)
        coeffs = plan.coefficients()
        assert coeffs == scalar_coefficients(plan)
        assert all_ints(plan.inv_sub) and all_ints(coeffs)


@pytest.mark.parametrize("fld", PLAN_FIELDS, ids=lambda f: f.token)
def test_invert_matches_scalar_reference_and_refuses_singular(fld):
    rng = random.Random(8)
    for n in (1, 2, 5):
        mat = [[fld.rand_element(rng) for _ in range(n)] for _ in range(n)]
        try:
            want = scalar_invert(mat, fld)
        except UnrecoverableError:
            with pytest.raises(UnrecoverableError):
                crs._invert(mat, fld)
        else:
            assert crs._invert(mat, fld) == want
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]] if fld.kind == "prime" else [[1, 2], [1, 2]]
    with pytest.raises(UnrecoverableError):
        crs._invert(singular, fld)
    with pytest.raises(UnrecoverableError):
        crs._invert([[0]], fld)
