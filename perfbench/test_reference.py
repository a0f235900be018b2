"""Tests of the benchmark's reference arithmetic (run with pytest)."""

import random

import numpy as np
import pytest

import reference
from reference import BinaryRef, PrimeRef, canonical_rows, cauchy_rows

M61 = (1 << 61) - 1
FIELDS = [PrimeRef(11), PrimeRef(M61), BinaryRef()]


def test_self_check_passes():
    reference.self_check()


def test_worked_z11_matrix_and_extension():
    z11 = PrimeRef(11)
    assert cauchy_rows(z11, (1, 2, 7), (5, 6, 8, 9)) == [
        [8, 2, 3, 4],
        [7, 8, 9, 3],
        [6, 1, 10, 5],
    ]
    assert [r[0] for r in cauchy_rows(z11, (1, 2, 7), (10,))] == [6, 4, 7]


@pytest.mark.parametrize("ref", FIELDS, ids=["z11", "m61", "gf16"])
def test_field_axioms_on_random_samples(ref):
    rng = random.Random(5)
    for _ in range(300):
        a, b, c = (rng.randrange(ref.order) for _ in range(3))
        assert ref.add(a, b) == ref.add(b, a)
        assert ref.mul(a, b) == ref.mul(b, a)
        assert ref.add(ref.add(a, b), c) == ref.add(a, ref.add(b, c))
        assert ref.mul(ref.mul(a, b), c) == ref.mul(a, ref.mul(b, c))
        assert ref.mul(a, ref.add(b, c)) == ref.add(ref.mul(a, b), ref.mul(a, c))
        assert ref.add(a, 0) == a and ref.mul(a, 1) == a
        assert ref.add(ref.sub(a, b), b) == a
        if a:
            assert ref.mul(a, ref.inv(a)) == 1


def test_gf16_generator_has_full_order():
    gf, x, seen = BinaryRef(), 1, set()
    for _ in range(gf.order - 1):
        seen.add(x)
        x = gf.mul(x, 2)
    assert x == 1 and len(seen) == gf.order - 1


@pytest.mark.parametrize("ref", [PrimeRef(M61), BinaryRef()], ids=["m61", "gf16"])
def test_combine_matches_scalar_products(ref):
    rng = random.Random(9)
    coeffs = [rng.randrange(ref.order) for _ in range(5)]
    vecs = [[rng.randrange(ref.order) for _ in range(7)] for _ in range(5)]
    want = []
    for u in range(7):
        acc = 0
        for a, v in zip(coeffs, vecs):
            acc = ref.add(acc, ref.mul(a, v[u]))
        want.append(acc)
    got = ref.combine(coeffs, [np.array(v) if isinstance(ref, BinaryRef) else v for v in vecs])
    assert [int(x) for x in got] == want


def test_canonical_rows_use_paper_sets():
    z11 = PrimeRef(11)
    # x = 0, 1 and y = 10, 9, 8: row 1 is 1/1, 1/2, 1/3 and row 2 is
    # 1/2, 1/3, 1/4 in Z_11.
    rows = canonical_rows(z11, 2, 3)
    assert rows == [[1, 6, 4], [6, 4, 3]]
    assert canonical_rows(z11, 2, 4)[0][:3] == rows[0]
