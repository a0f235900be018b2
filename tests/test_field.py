"""Field arithmetic against independent oracles and algebraic laws."""

import random

import numpy as np
import pytest

from porcrs.errors import FieldMismatchError, ParameterError
from porcrs.field import (
    MERSENNE61,
    binary_field,
    field_from_token,
    is_prime,
    prime_field,
)


def egcd_inverse(a: int, p: int) -> int:
    """Extended-Euclid inverse, independent of the field implementation."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def clmul_reduce(a: int, b: int, poly: int, w: int) -> int:
    """Carry-less multiply then polynomial reduction, bit by bit."""
    acc = 0
    for bit in range(w):
        if (b >> bit) & 1:
            acc ^= a << bit
    for bit in range(2 * w - 2, w - 1, -1):
        if (acc >> bit) & 1:
            acc ^= poly << (bit - w)
    return acc


Z11 = prime_field(11)
GF8 = binary_field(8)
GF16 = binary_field(16)
M61 = prime_field()


def test_z11_examples():
    assert Z11.add(8, 5) == 2
    assert Z11.mul(7, 8) == 1
    assert Z11.inv(7) == egcd_inverse(7, 11) == 8


def test_identities():
    rng = random.Random(0)
    for fld in (Z11, GF8, GF16, M61):
        for _ in range(50):
            a = fld.rand_element(rng)
            assert fld.add(a, 0) == a
            assert fld.mul(a, 1) == a
        assert fld.inv(1) == 1


def test_gf8_self_cancellation():
    rng = random.Random(1)
    for _ in range(200):
        a = rng.getrandbits(8)
        assert GF8.add(a, a) == 0


def test_gf8_multiply_matches_clmul_oracle():
    assert GF8.mul(0x02, 0x80) == clmul_reduce(0x02, 0x80, 0x11D, 8) == 0x1D
    rng = random.Random(2)
    for _ in range(500):
        a, b = rng.getrandbits(8), rng.getrandbits(8)
        assert GF8.mul(a, b) == clmul_reduce(a, b, 0x11D, 8)


def test_gf16_multiply_matches_clmul_oracle():
    rng = random.Random(3)
    for _ in range(500):
        a, b = rng.getrandbits(16), rng.getrandbits(16)
        assert GF16.mul(a, b) == clmul_reduce(a, b, 0x1100B, 16)


def _multiply_operands(fld):
    """Every element of GF(2^8); a seeded sample of GF(2^16) with 0 and 1."""
    if fld.order <= 256:
        return list(range(fld.order))
    rng = random.Random(13)
    return [0, 1, fld.order - 1, *(rng.randrange(2, fld.order - 1) for _ in range(61))]


@pytest.mark.parametrize("fld", [GF8, GF16], ids=lambda f: f.token)
def test_every_multiply_path_matches_shift_and_xor(fld):
    values = _multiply_operands(fld)
    oracle = {a: [clmul_reduce(a, b, fld.poly, fld.width) for b in values] for a in values}
    vec = fld.vec_from_ints(values)  # zero among the entries
    for a in values:  # zero among the scalars
        assert [fld.mul(a, b) for b in values] == oracle[a]
        assert fld.vec_to_ints(fld.vec_scale(a, vec)) == oracle[a]
        assert fld.vec_to_ints(fld.vec_combine([a], [vec])) == oracle[a]
    # Row t pairs coefficient values[t] with the entries rotated by t.
    rows = [np.roll(vec, -t) for t in range(len(values))]
    expect = [0] * len(values)
    for t, a in enumerate(values):
        for u in range(len(values)):
            expect[u] ^= oracle[a][(u + t) % len(values)]
    assert fld.vec_to_ints(fld.vec_combine(values, rows)) == expect
    assert fld.vec_to_ints(fld.vec_combine(values, np.stack(rows))) == expect


def _kernel_operands(fld):
    """Scalars and entries with zeros among both, and the largest element."""
    rng = random.Random(fld.width)
    scalars = [0, 1, fld.order - 1, 0, *(rng.randrange(fld.order) for _ in range(5))]
    entries = [0, fld.order - 1, 1, *(rng.randrange(fld.order) for _ in range(9)), 0]
    return scalars, entries


@pytest.mark.parametrize("fld", [GF8, GF16], ids=lambda f: f.token)
def test_vec_scale_many_matches_shift_and_xor(fld):
    scalars, entries = _kernel_operands(fld)
    expect = [[clmul_reduce(s, x, fld.poly, fld.width) for x in entries] for s in scalars]
    vec = fld.vec_from_ints(entries)
    words = np.array(entries, dtype=fld.stored_dtype)  # <u1 or <u2, as stored
    for v in (vec, words):
        many = fld.vec_scale_many(scalars, v)
        assert many.shape == (len(scalars), len(entries)) and many.dtype == fld.dtype
        assert [fld.vec_to_ints(row) for row in many] == expect


@pytest.mark.parametrize("fld", [GF8, GF16], ids=lambda f: f.token)
def test_vec_combine_on_stored_words_matches_shift_and_xor(fld):
    # server.prove hands vec_combine one 2-D array of stored words.
    scalars, entries = _kernel_operands(fld)
    rows = [entries[t:] + entries[:t] for t in range(len(scalars))]
    words = np.array(rows, dtype=fld.stored_dtype)
    expect = [0] * len(entries)
    for s, row in zip(scalars, rows):
        for u, x in enumerate(row):
            expect[u] ^= clmul_reduce(s, x, fld.poly, fld.width)
    got = fld.vec_combine(scalars, words)
    assert got.dtype == fld.dtype and fld.vec_to_ints(got) == expect
    assert fld.vec_to_ints(fld.vec_combine(scalars, words[:, 3:9])) == expect[3:9]


@pytest.mark.parametrize("fld", [GF8, GF16], ids=lambda f: f.token)
def test_word_outside_the_field_raises_and_is_never_reduced(fld):
    # The lookups keep np.take's mode="raise": a word >= order, held in a
    # wider integer dtype, raises rather than wrap or clip to an element.
    for bad in (fld.order, fld.order + 1, 2 * fld.order - 1):
        v = np.array([1, 0, bad, fld.order - 1], dtype=np.int64)
        with pytest.raises(IndexError):
            fld.vec_scale(3, v)
        with pytest.raises(IndexError):
            fld.vec_scale_many([0, 3], v)
        with pytest.raises(IndexError):
            fld.vec_combine([1, 3], np.stack([v, v[::-1]]))
        with pytest.raises(IndexError):
            fld.vec_combine([3], [v.astype(np.uint32)])
    # The scalar side is checked too.
    v = fld.vec_from_ints([1, 2])
    with pytest.raises(IndexError):
        fld.vec_scale(fld.order, v)
    with pytest.raises(IndexError):
        fld.vec_scale_many([1, fld.order], v)
    with pytest.raises(IndexError):
        fld.vec_combine([fld.order], [v])


def test_gf16_inverse_property():
    rng = random.Random(4)
    for _ in range(1000):
        a = GF16.rand_nonzero(rng)
        assert GF16.mul(a, GF16.inv(a)) == 1


def test_prime_inverse_matches_egcd_oracle():
    rng = random.Random(5)
    for _ in range(200):
        a = M61.rand_nonzero(rng)
        assert M61.inv(a) == egcd_inverse(a, MERSENNE61)
        assert M61.mul(a, M61.inv(a)) == 1


def test_zero_inverse_is_reported():
    for fld in (Z11, GF8, GF16, M61):
        with pytest.raises(ZeroDivisionError):
            fld.inv(0)


@pytest.mark.parametrize("fld", [Z11, GF8, GF16, M61], ids=lambda f: f.token)
def test_inv_many_matches_inv(fld):
    rng = random.Random(21)
    for size in (0, 1, 2, 7, 300):
        values = [fld.rand_nonzero(rng) for _ in range(size)]
        got = fld.inv_many(values)
        assert got == [fld.inv(a) for a in values]
        assert all(type(a) is int for a in got)


@pytest.mark.parametrize("fld", [Z11, GF8, GF16, M61], ids=lambda f: f.token)
def test_inv_many_rejects_zero(fld):
    for values in ([0], [1, 0], [3, 5, 0, 2]):
        with pytest.raises(ZeroDivisionError):
            fld.inv_many(values)


@pytest.mark.parametrize("fld", [Z11, GF8, GF16, M61], ids=lambda f: f.token)
def test_ring_laws_on_random_triples(fld):
    rng = random.Random(6)
    for _ in range(10_000):
        a, b, c = (fld.rand_element(rng) for _ in range(3))
        assert fld.add(a, b) == fld.add(b, a)
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
        assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


def test_binary_add_is_xor():
    rng = random.Random(7)
    for fld in (GF8, GF16):
        for _ in range(500):
            a, b = fld.rand_element(rng), fld.rand_element(rng)
            assert fld.add(a, b) == a ^ b
            assert fld.sub(a, b) == a ^ b


def test_tokens_round_trip():
    for fld in (Z11, GF8, GF16, M61):
        assert field_from_token(fld.token) is fld
    with pytest.raises(ParameterError):
        field_from_token("zp:abc")
    with pytest.raises(ParameterError):
        field_from_token("nope:8")


def test_bad_field_parameters_rejected():
    with pytest.raises(ParameterError):
        prime_field(9)  # composite
    with pytest.raises(ParameterError):
        prime_field(2)  # even
    with pytest.raises(ParameterError):
        prime_field((1 << 62) + 57)  # too wide
    with pytest.raises(ParameterError):
        binary_field(12)


def test_is_prime_against_small_sieve():
    sieve = {n for n in range(2, 2000) if all(n % d for d in range(2, n))}
    for n in range(2000):
        assert is_prime(n) == (n in sieve)


def test_check_element_range():
    with pytest.raises(FieldMismatchError):
        Z11.check_element(11)
    with pytest.raises(FieldMismatchError):
        GF8.check_element(-1)
    assert GF8.check_element(255) == 255


@pytest.mark.parametrize("fld", [Z11, GF16, M61], ids=lambda f: f.token)
def test_vector_ops_match_scalar_ops(fld):
    rng = random.Random(9)
    c = 5
    for _ in range(100):
        u = fld.vec_from_ints([fld.rand_element(rng) for _ in range(c)])
        v = fld.vec_from_ints([fld.rand_element(rng) for _ in range(c)])
        s = fld.rand_element(rng)
        assert fld.vec_to_ints(fld.vec_add(u, v)) == [
            fld.add(a, b) for a, b in zip(fld.vec_to_ints(u), fld.vec_to_ints(v))
        ]
        assert fld.vec_to_ints(fld.vec_sub(u, v)) == [
            fld.sub(a, b) for a, b in zip(fld.vec_to_ints(u), fld.vec_to_ints(v))
        ]
        assert fld.vec_to_ints(fld.vec_scale(s, u)) == [
            fld.mul(s, a) for a in fld.vec_to_ints(u)
        ]
        combo = fld.vec_combine([s, 1], [u, v])
        expect = [
            fld.add(fld.mul(s, a), b)
            for a, b in zip(fld.vec_to_ints(u), fld.vec_to_ints(v))
        ]
        assert fld.vec_to_ints(combo) == expect


@pytest.mark.parametrize("fld", [Z11, M61, GF8, GF16], ids=lambda f: f.token)
def test_vector_shape_mismatch_is_parameter_error(fld):
    u, v = fld.vec_from_ints([1, 2, 3]), fld.vec_from_ints([1, 2])
    for op in (fld.vec_add, fld.vec_sub):
        with pytest.raises(ParameterError):
            op(u, v)
        with pytest.raises(ParameterError):
            op(v, u)
    with pytest.raises(ParameterError):
        fld.vec_combine([], [])
    with pytest.raises(ParameterError):
        fld.vec_combine([1, 1], [u])
    # Ragged input is refused, not truncated to the first vector's length.
    for ragged in ([v, u], [u, v]):
        with pytest.raises(ParameterError, match="same length"):
            fld.vec_combine([1, 1], ragged)


def test_vec_combine_accepts_stacked_matrix():
    rng = random.Random(10)
    vecs = [GF16.vec_from_ints([rng.getrandbits(16) for _ in range(8)]) for _ in range(6)]
    coeffs = [rng.getrandbits(16) for _ in range(6)]
    a = GF16.vec_combine(coeffs, vecs)
    b = GF16.vec_combine(coeffs, np.stack(vecs))
    assert GF16.vec_eq(a, b)


@pytest.mark.parametrize("fld", [M61, GF8, GF16], ids=lambda f: f.token)
def test_stored_word_ops_match_vector_ops(fld):
    # A server computes on arrays of stored words; each op must give what
    # the vector ops give, element for element.
    rng = random.Random(13)
    c = 5
    vecs = [fld.vec_from_ints([fld.rand_element(rng) for _ in range(c)]) for _ in range(7)]
    vecs[0] = fld.vec_from_ints([fld.order - 1] * c)  # the largest sums and products
    words = fld.vectors_to_words(vecs, c)
    coeffs = [fld.order - 1] + [fld.rand_element(rng) for _ in range(6)]
    assert fld.vec_eq(fld.vec_combine(coeffs, words), fld.vec_combine(coeffs, vecs))
    total = fld.vectors_from_words(fld.add_words(words[:3], words[3:6]))
    assert all(fld.vec_eq(t, fld.vec_add(u, v)) for t, u, v in zip(total, vecs[:3], vecs[3:6]))
    scalars = [1, fld.order - 1, fld.rand_element(rng)]
    many = fld.vec_scale_many(scalars, vecs[1])
    assert len(many) == 3
    assert all(fld.vec_eq(m, fld.vec_scale(s, vecs[1])) for m, s in zip(many, scalars))


def test_payload_round_trip():
    rng = random.Random(11)
    for fld, nbytes in ((M61, 7 * 9), (GF8, 13), (GF16, 26)):
        data = rng.randbytes(nbytes)
        words = fld.payload_words(data)
        assert words.dtype == fld.stored_dtype
        assert fld.chunks_to_payload(words) == data
        # A decoded vector gives the same bytes as its stored words.
        (vec,) = fld.vectors_from_words(words.reshape(1, -1))
        assert fld.chunks_to_payload(vec) == data
    with pytest.raises(ParameterError):
        GF16.payload_words(b"\x00" * 3)
    with pytest.raises(ParameterError):
        Z11.payload_words(b"ab")  # toy modulus carries no payload


@pytest.mark.parametrize("p", [257, 65537, MERSENNE61])
def test_prime_payload_words(p):
    fld = prime_field(p)
    g = fld.payload_size
    rng = random.Random(p)
    data = rng.randbytes(g * 50) + b"\xff" * g
    words = fld.payload_words(data)
    vec = tuple(words.tolist())
    assert vec == tuple(int.from_bytes(data[t : t + g], "little") for t in range(0, len(data), g))
    assert fld.chunks_to_payload(words) == fld.chunks_to_payload(vec) == data
    assert fld.payload_words(b"").size == 0 and fld.chunks_to_payload(()) == b""
    if g > 1:
        with pytest.raises(ParameterError, match=f"multiple of {g}"):
            fld.payload_words(data + b"\x00")
    for bad in (1 << (8 * g), -1):
        with pytest.raises(ParameterError, match="does not fit the payload width"):
            fld.chunks_to_payload(vec[:3] + (bad,))
    with pytest.raises(ParameterError, match="does not fit the payload width"):
        fld.chunks_to_payload(np.append(words[:3], np.uint64(1 << (8 * g))))
    with pytest.raises(ParameterError, match="too small"):
        Z11.chunks_to_payload((1,))


@pytest.mark.parametrize("fld", [M61, GF8, GF16], ids=lambda f: f.token)
def test_stored_vectors_round_trip(fld):
    rng = random.Random(12)
    for count, c in ((0, 3), (1, 1), (6, 4)):
        vecs = [fld.vec_from_ints([fld.rand_element(rng) for _ in range(c)])
                for _ in range(count)]
        words = fld.vectors_to_words(vecs, c)
        assert words.shape == (count, c) and words.dtype == fld.stored_dtype
        data = words.tobytes()
        assert len(data) == count * c * fld.element_size
        # Each element little-endian in element_size bytes, in order.
        assert data == b"".join(int(x).to_bytes(fld.element_size, "little")
                                for v in vecs for x in v)
        stored = np.frombuffer(b"pad" + data, fld.stored_dtype, count * c, 3)
        got = fld.vectors_from_words(stored.reshape(count, c))
        assert len(got) == count
        assert all(fld.vec_eq(a, b) for a, b in zip(got, vecs))
        if fld is not M61:
            for v in got:
                assert v.dtype == fld.dtype and v.flags.writeable


def test_stored_prime_word_out_of_range():
    data = M61.vectors_to_words([(1, 2)], 2).tobytes() + M61.order.to_bytes(8, "little")
    M61.check_words(np.frombuffer(data[:16], M61.stored_dtype))
    with pytest.raises(FieldMismatchError, match="outside"):
        M61.check_words(np.frombuffer(data, M61.stored_dtype).reshape(3, 1))
