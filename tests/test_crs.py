"""Coding layer: worked matrix vectors, erasure recovery, extension."""

import random

import pytest

from porcrs.crs import (
    CauchySets,
    build_distribution,
    canonical_matrix,
    canonical_sets,
)
from porcrs.errors import CapacityError, ParameterError, UnrecoverableError
from porcrs.field import binary_field, prime_field

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
