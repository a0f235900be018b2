"""Closed-form canonical code: cost independent of file height."""

import random
import tracemalloc

import pytest

from porcrs import client
from porcrs.auth import keygen
from porcrs.crs import CauchySets, build_distribution, canonical_matrix, canonical_sets
from porcrs.errors import FieldMismatchError, ParameterError
from porcrs.field import binary_field, prime_field

M61 = prime_field()
P = M61.order
GF8 = binary_field(8)
GF16 = binary_field(16)
TALL = 10**6
BUDGET = 64 * 1024  # bytes; a materialized y-set at TALL rows takes tens of MB


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tall_matrix_build_extend_entry_allocate_little():
    def work():
        m = canonical_matrix(12, TALL, M61).extend()
        assert m.k_cols == TALL + 1
        for i in range(12):
            m.cauchy_entry(i, TALL)

    work()  # first call pays one-time imports and caches
    assert peak_bytes(work) < BUDGET


def test_tall_entries_are_fermat_inverses():
    rng = random.Random(1)
    m = canonical_matrix(12, TALL, M61)
    ext = m.extend()
    for _ in range(200):
        i, j = rng.randrange(12), rng.randrange(TALL)
        x, y = i, P - 1 - j
        assert m.cauchy_entry(i, j) == pow(x - y, P - 2, P)
        assert ext.cauchy_entry(i, j) == m.cauchy_entry(i, j)
    for i in range(12):
        assert ext.cauchy_entry(i, TALL) == pow(i - (P - 1 - TALL), P - 2, P)


def test_tall_client_append_allocates_little():
    rng = random.Random(2)
    fld = M61
    sk = keygen(fld, rng)
    meta = client.FileMetadata(
        fid=bytes(16), field=fld, n=15, k=9, ktilde=TALL, stilde=12, stilde0=12,
        ctr=1, chunks=1, original_length=TALL * 63, eps_q=0.1, eps_p=0.05, window=20,
    )
    rows = [client.row_blocks_from_payload(meta, rng.randbytes(63)) for _ in range(2)]

    client.append(sk, meta, rows[0])
    assert peak_bytes(lambda: client.append(sk, meta, rows[1])) < BUDGET
    assert meta.ktilde == TALL + 2 and meta.ctr == 3


@pytest.mark.parametrize("fld", [M61, GF16, GF8], ids=lambda f: f.token)
def test_closed_form_rows_equal_explicit_sets(fld):
    s, k = 3, 40
    closed = canonical_matrix(s, k, fld)
    explicit = build_distribution(canonical_sets(s, k, fld), fld)
    assert closed.cauchy_rows() == explicit.cauchy_rows()
    assert tuple(closed.sets.xs) == explicit.sets.xs
    assert tuple(closed.sets.ys) == explicit.sets.ys
    for i in range(s):
        for j in range(k):
            assert fld.mul(closed.cauchy_entry(i, j), fld.sub(i, fld.order - 1 - j)) == 1


def test_extension_on_and_off_the_canonical_chain():
    m = canonical_matrix(3, 5, GF8)
    rows = m.cauchy_rows()
    on_chain = m.extend()
    assert isinstance(on_chain.sets.ys, range)
    assert on_chain.cauchy_rows() == canonical_matrix(3, 6, GF8).cauchy_rows()
    off_chain = m.extend(y=100)
    assert off_chain.sets.ys == (*m.sets.ys, 100)
    assert off_chain.cauchy_rows() == build_distribution(
        CauchySets(tuple(range(3)), (*m.sets.ys, 100)), GF8
    ).cauchy_rows()
    for ext in (on_chain, off_chain):
        assert [row[:5] for row in ext.cauchy_rows()] == rows


def test_invalid_ranges_still_rejected():
    with pytest.raises(ParameterError):
        CauchySets(range(5), range(3, 8)).validate(M61)  # overlap at 3 and 4
    with pytest.raises(FieldMismatchError):
        CauchySets(range(3), range(250, 260)).validate(GF8)  # beyond the field
    # Interleaved strided ranges are disjoint although their spans overlap.
    CauchySets(range(0, 10, 2), range(1, 11, 2)).validate(M61)
