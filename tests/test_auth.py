"""Tag scheme: PRF separation, round trips, deltas, counter binding."""

import hashlib
import os
import random
import stat

import numpy as np
import pytest

from porcrs import auth
from porcrs.auth import (
    SecretKey,
    TagContext,
    keygen,
    prf,
    prf_vector,
    read_keyfile,
    tag_block,
    tag_delta,
    verify_block,
    write_keyfile,
)
from porcrs.errors import FormatError, ParameterError
from porcrs.field import binary_field, prime_field

M61 = prime_field()
GF16 = binary_field(16)
Z11 = prime_field(11)

FID = bytes(range(16))
KEY = bytes(32)


def rand_block(fld, c, rng):
    return fld.vec_from_ints([fld.rand_element(rng) for _ in range(c)])


def test_prf_deterministic():
    ctx = TagContext(FID, 3, 2, 1, 0)
    assert prf(KEY, ctx, M61) == prf(KEY, ctx, M61)


def test_prf_separates_counters():
    seen = set()
    for ctr in range(10_000):
        seen.add(prf(KEY, TagContext(FID, 1, 1, ctr, 0), M61))
    assert len(seen) == 10_000


def test_prf_separates_chunks():
    seen = set()
    for u in range(10_000):
        seen.add(prf(KEY, TagContext(FID, 1, 1, 0, u), M61))
    assert len(seen) == 10_000


def test_prf_vector_matches_single_calls():
    for fld in (M61, GF16, binary_field(8)):
        ctx = TagContext(FID, 5, 3, 2)
        vec = prf_vector(KEY, ctx, 40, fld)
        singles = [
            prf(KEY, TagContext(FID, 5, 3, 2, u), fld) for u in range(40)
        ]
        assert fld.vec_to_ints(vec) == singles


def test_prf_vector_cached_is_consistent():
    auth.clear_prf_cache()
    ctx = TagContext(FID, 7, 1, 4)
    a = auth.prf_vector_cached(KEY, ctx, 16, GF16)
    b = auth.prf_vector_cached(KEY, ctx, 16, GF16)
    assert GF16.vec_eq(a, b)
    assert GF16.vec_eq(a, prf_vector(KEY, ctx, 16, GF16))


def test_tag_block_toy_values(monkeypatch):
    # With the mask stubbed to 5: tag = 5 + 3 * 4 mod 11 = 6.
    monkeypatch.setattr(auth, "prf_vector", lambda *a, **k: (5,))
    sk = SecretKey(alpha=3, kprf=KEY)
    tag = tag_block(sk, (4,), TagContext(FID, 1, 1, 0), Z11)
    assert tag == (6,)


def test_tag_of_zero_block_is_the_mask():
    sk = keygen(M61, random.Random(0))
    ctx = TagContext(FID, 2, 4, 1)
    tag = tag_block(sk, M61.vec_from_ints([0] * 3), ctx, M61)
    assert M61.vec_eq(tag, prf_vector(sk.kprf, ctx, 3, M61))


@pytest.mark.parametrize("fld", [M61, GF16], ids=lambda f: f.token)
def test_tag_verify_round_trip(fld):
    rng = random.Random(1)
    sk = keygen(fld, rng)
    for _ in range(1000):
        ctx = TagContext(FID, rng.randrange(1, 50), rng.randrange(1, 16), rng.randrange(5))
        block = rand_block(fld, 4, rng)
        tag = tag_block(sk, block, ctx, fld)
        assert verify_block(sk, block, tag, ctx, fld)


def test_single_chunk_perturbation_detected():
    rng = random.Random(2)
    sk = keygen(M61, rng)
    ctx = TagContext(FID, 1, 1, 0)
    block = rand_block(M61, 4, rng)
    tag = tag_block(sk, block, ctx, M61)
    for u in range(4):
        bumped = list(block)
        bumped[u] = M61.add(bumped[u], 1)
        assert not verify_block(sk, tuple(bumped), tag, ctx, M61)


def test_stale_counter_detected():
    rng = random.Random(3)
    sk = keygen(M61, rng)
    block = rand_block(M61, 2, rng)
    tag = tag_block(sk, block, TagContext(FID, 9, 2, 4), M61)
    assert not verify_block(sk, block, tag, TagContext(FID, 9, 2, 5), M61)


def test_counter_binding_statistical():
    rng = random.Random(4)
    sk = keygen(M61, rng)
    misses = 0
    for _ in range(10_000):
        i, j = rng.randrange(1, 30), rng.randrange(1, 10)
        ctr = rng.randrange(50)
        other = (ctr + rng.randrange(1, 50)) % 100
        if other == ctr:
            other += 1
        block = rand_block(M61, 1, rng)
        tag = tag_block(sk, block, TagContext(FID, i, j, ctr), M61)
        if verify_block(sk, block, tag, TagContext(FID, i, j, other), M61):
            misses += 1
    assert misses == 0


def test_length_mismatch_raises():
    sk = keygen(M61, random.Random(5))
    with pytest.raises(ParameterError):
        verify_block(sk, (1, 2), (1,), TagContext(FID, 1, 1, 0), M61)


def rand_words(fld, cells, c, rng):
    """A (cells, c) array of stored words of random elements."""
    rows = [[fld.rand_element(rng) for _ in range(c)] for _ in range(cells)]
    return np.array(rows, dtype=fld.stored_dtype).reshape(cells, c)


@pytest.mark.parametrize("fld", [M61, GF16], ids=lambda f: f.token)
def test_tags_from_masks_checks_each_cell(fld):
    rng = random.Random(30)
    masks, blocks = rand_words(fld, 3, 2, rng), rand_words(fld, 3, 2, rng)
    masks[0] = blocks[0] = fld.order - 1  # the largest sums and products
    alpha = fld.rand_nonzero(rng)
    tags = auth.tags_from_masks(alpha, masks, blocks, fld)
    assert tags.shape == (3, 2) and tags.dtype == fld.stored_dtype
    for m, b, t in zip(masks.tolist(), blocks.tolist(), tags.tolist()):
        assert t == [fld.add(x, fld.mul(alpha, y)) for x, y in zip(m, b)]
    # Six chunks on each side, but the cells disagree.
    with pytest.raises(ParameterError):
        auth.tags_from_masks(alpha, masks, blocks.reshape(2, 3), fld)
    with pytest.raises(ParameterError):  # one cell short
        auth.tags_from_masks(alpha, masks, blocks[:2], fld)


@pytest.mark.parametrize("fld", [M61, GF16], ids=lambda f: f.token)
def test_tag_deltas_check_shapes(fld):
    rng = random.Random(31)
    old, new, delta = (rand_words(fld, 3, 2, rng) for _ in range(3))
    alpha = fld.rand_nonzero(rng)
    got = auth.tag_deltas(alpha, old, new, delta, fld)
    assert got.shape == (3, 2) and got.dtype == fld.stored_dtype
    for x, y, d, t in zip(*(a.ravel().tolist() for a in (new, old, delta, got))):
        assert t == fld.add(fld.sub(x, y), fld.mul(alpha, d))
    short_mask = new[:, :1]
    for args in [(old[:2], new, delta), (old, new, delta[:2]), (old, short_mask, delta)]:
        with pytest.raises(ParameterError):
            auth.tag_deltas(alpha, *args, fld)


def test_tag_delta_noop():
    sk = keygen(M61, random.Random(6))
    ctx = TagContext(FID, 4, 2, 7)
    delta = tag_delta(sk, ctx, ctx, M61.vec_from_ints([0] * 3), M61)
    assert M61.vec_eq(delta, M61.vec_from_ints([0] * 3))


@pytest.mark.parametrize("fld", [M61, GF16], ids=lambda f: f.token)
def test_tag_delta_moves_tags(fld):
    rng = random.Random(7)
    sk = keygen(fld, rng)
    for _ in range(1000):
        i, j, q = rng.randrange(1, 40), rng.randrange(1, 16), rng.randrange(1, 20)
        ctx_old = TagContext(FID, i, j, q - 1)
        ctx_new = TagContext(FID, i + 1, j, q)
        block = rand_block(fld, 2, rng)
        dm = rand_block(fld, 2, rng)
        tag = tag_block(sk, block, ctx_old, fld)
        moved = fld.vec_add(tag, tag_delta(sk, ctx_old, ctx_new, dm, fld))
        assert verify_block(sk, fld.vec_add(block, dm), moved, ctx_new, fld)
        # bit-exact against a direct re-tag of the updated block
        direct = tag_block(sk, fld.vec_add(block, dm), ctx_new, fld)
        assert fld.vec_eq(moved, direct)


def test_delta_consistency_identity():
    rng = random.Random(8)
    sk = keygen(M61, rng)
    for _ in range(200):
        ctx_old = TagContext(FID, rng.randrange(1, 9), 3, rng.randrange(4))
        ctx_new = TagContext(FID, rng.randrange(1, 9), 3, rng.randrange(4))
        m = rand_block(M61, 3, rng)
        dm = rand_block(M61, 3, rng)
        lhs = tag_block(sk, M61.vec_add(m, dm), ctx_new, M61)
        rhs = M61.vec_add(
            tag_block(sk, m, ctx_old, M61), tag_delta(sk, ctx_old, ctx_new, dm, M61)
        )
        assert M61.vec_eq(lhs, rhs)


def test_tag_delta_requires_same_file_and_server():
    sk = keygen(M61, random.Random(9))
    with pytest.raises(ParameterError):
        tag_delta(
            sk,
            TagContext(FID, 1, 1, 0),
            TagContext(FID, 2, 2, 1),
            M61.vec_from_ints([0]),
            M61,
        )


def test_aggregate_homomorphism():
    rng = random.Random(10)
    sk = keygen(M61, rng)
    ctxs = [TagContext(FID, i, 1, 0) for i in range(1, 6)]
    blocks = [rand_block(M61, 2, rng) for _ in ctxs]
    tags = [tag_block(sk, b, ctx, M61) for b, ctx in zip(blocks, ctxs)]
    nus = [M61.rand_element(rng) for _ in ctxs]
    mu = M61.vec_combine(nus, blocks)
    sigma = M61.vec_combine(nus, tags)
    masks = M61.vec_combine(nus, [prf_vector(sk.kprf, c, 2, M61) for c in ctxs])
    assert M61.vec_eq(sigma, M61.vec_add(masks, M61.vec_scale(sk.alpha, mu)))


def test_keygen_uniformity_smoke():
    rng = random.Random(11)
    alphas = {keygen(M61, rng).alpha for _ in range(50)}
    assert len(alphas) == 50


@pytest.mark.parametrize("fld", [M61, GF16], ids=lambda f: f.token)
def test_keyfile_round_trip(fld, tmp_path):
    sk = keygen(fld, random.Random(12))
    path = tmp_path / "client.key"
    for existing in (None, 0o644):  # a new file, and one readable by others
        if existing is not None:
            path.write_text("old\n")
            os.chmod(path, existing)
        write_keyfile(path, sk, fld)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        assert read_keyfile(path, fld) == sk


def test_keyfile_malformed(tmp_path):
    path = tmp_path / "bad.key"
    path.write_text("alpha=5\n")
    with pytest.raises(FormatError):
        read_keyfile(path, M61)
    path.write_text("alpha=5\nkprf=zz\n")
    with pytest.raises(FormatError):
        read_keyfile(path, M61)
    path.write_text("alpha=5\nkprf=00\nextra=1\n")
    with pytest.raises(FormatError):
        read_keyfile(path, M61)
    # A second alpha or kprf line is refused, not taken as the value.
    for again in ("alpha=6", f"kprf={bytes(range(32)).hex()}"):
        path.write_text(f"alpha=5\nkprf={KEY.hex()}\n{again}\n")
        with pytest.raises(FormatError, match="line 3: duplicate key"):
            read_keyfile(path, M61)


def test_keyfile_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "bad.key"
    path.write_bytes(b"alpha=5\nkprf=\xff\xfe\n")
    with pytest.raises(FormatError, match="keyfile line 2: line is not UTF-8 text"):
        read_keyfile(path, M61)


@pytest.mark.parametrize("fld", [M61, GF16], ids=lambda f: f.token)
def test_keyfile_skips_comment_and_blank_lines(fld, tmp_path):
    sk = keygen(fld, random.Random(13))
    path = tmp_path / "client.key"
    write_keyfile(path, sk, fld)
    alpha, kprf = path.read_text().splitlines()
    path.write_text(f"# porcrs key\n\n  {alpha}  \n   # kept offline\n{kprf}\n")
    assert read_keyfile(path, fld) == sk


def test_keyfile_bad_value_reports_its_line(tmp_path):
    path = tmp_path / "bad.key"
    path.write_text(f"# key\nkprf={KEY.hex()}\nalpha=5x\n")
    with pytest.raises(FormatError, match="^keyfile line 3: bad value for alpha: "):
        read_keyfile(path, M61)
    path.write_text("alpha=5\nkprf=zz\n")
    with pytest.raises(FormatError, match="^keyfile line 2: bad value for kprf: "):
        read_keyfile(path, M61)
    # Keys are taken verbatim: a space before "=" makes an unknown key.
    path.write_text(f"alpha =5\nkprf={KEY.hex()}\n")
    with pytest.raises(FormatError, match="^keyfile line 1: unknown key 'alpha '"):
        read_keyfile(path, M61)


def test_context_validation():
    with pytest.raises(ParameterError):
        TagContext(b"short", 1, 1, 0)
    with pytest.raises(ParameterError):
        TagContext(FID, -1, 1, 0)
    with pytest.raises(ParameterError):
        SecretKey(1, b"short")


# Known-answer vectors of the PRF and the tags, recorded from the
# per-cell implementation before the batched kernel replaced it.  The key
# and fid are fixed; the row is above 2^32 and the counter above 0, so every
# 8-byte index field of the serialization is exercised.
KAT_KEY = bytes.fromhex("106fe7896a5fd2b57b1eb38b71e95b5e989a45da504dfd1b446514caf3507d8c")
KAT_FID = bytes.fromhex("14faa1c1b310616ecef1b9c8a2358e34")
KAT_CTX = TagContext(KAT_FID, (1 << 32) + 7, 5, 3)
KAT_NEW = TagContext(KAT_FID, (1 << 32) + 8, 5, 4)
GF8 = binary_field(8)


def test_prf_known_answer_prime():
    assert prf(KAT_KEY, KAT_CTX, M61) == 369254211623769828
    assert prf(KAT_KEY, TagContext(KAT_FID, (1 << 32) + 7, 5, 3, 2), M61) == 233855555132316693
    assert prf_vector(KAT_KEY, KAT_CTX, 1, M61) == (369254211623769828,)
    assert prf_vector(KAT_KEY, KAT_CTX, 3, M61) == (
        369254211623769828,
        836265287721019534,
        233855555132316693,
    )


@pytest.mark.parametrize(
    "fld, expected",
    [(GF8, [67, 4, 70, 79]), (GF16, [22339, 25348, 53318, 27215])],
    ids=["gf2:8", "gf2:16"],
)
def test_prf_vector_known_answer_binary(fld, expected):
    assert fld.vec_to_ints(prf_vector(KAT_KEY, KAT_CTX, 4, fld)) == expected


FULL_CELLS = [((1 << 32) + 7, 3), (1, 0), (40, 9)]


@pytest.mark.parametrize(
    "fld, digest, tail",
    [
        (
            GF8,
            "349ca2551f188a833c8564af32da081c708fd78f246700e265d307c6305d06dd",
            [[187, 141, 35], [228, 169, 76], [186, 77, 183]],
        ),
        (
            GF16,
            "1f59fd6068bcef6fd0dce946c8b9cf3fa264cd2df51858e56c60c9089e76c189",
            [[47547, 12429, 3619], [36068, 28073, 36684], [51642, 31821, 50359]],
        ),
    ],
    ids=["gf2:8", "gf2:16"],
)
def test_prf_masks_known_answer_full_width(fld, digest, tail):
    # A whole 2048-chunk cell, as a gf2:16 4 KiB block has, and the last
    # three chunks of it on their own: SHA-256 of the stored encoding.
    full = auth.prf_masks(KAT_KEY, KAT_FID, 5, FULL_CELLS, 2048, fld)
    assert hashlib.sha256(fld.vectors_to_words(full, 2048).tobytes()).hexdigest() == digest
    last = auth.prf_masks(KAT_KEY, KAT_FID, 5, FULL_CELLS, 3, fld, first=2045)
    assert [fld.vec_to_ints(v) for v in last] == tail
    assert [fld.vec_to_ints(v)[2045:] for v in full] == tail


@pytest.mark.parametrize(
    "fld, alpha, block, delta, tag, moved",
    [
        (
            M61,
            123456789,
            (11, 22, 33),
            (1, 2, 3),
            [369254212981794507, 836265290437068892, 233855559206390730],
            [2064287226982885450, 1490376289162804175, 2080860800720043345],
        ),
        (
            GF16,
            0x1234,
            [11, 22, 33, 44],
            [1, 2, 3, 4],
            [61631, 15607, 42212, 54697],
            [48030, 43570, 46246, 980],
        ),
    ],
    ids=["zp", "gf2:16"],
)
def test_tag_known_answer(fld, alpha, block, delta, tag, moved):
    sk = SecretKey(alpha, KAT_KEY)
    block, delta = fld.vec_from_ints(block), fld.vec_from_ints(delta)
    assert fld.vec_to_ints(tag_block(sk, block, KAT_CTX, fld)) == tag
    assert fld.vec_to_ints(tag_delta(sk, KAT_CTX, KAT_NEW, delta, fld)) == moved


class _FirstDrawZero:
    """rng whose first getrandbits draw is 0; later draws come from Random."""

    def __init__(self, seed):
        self.first = True
        self.rng = random.Random(seed)

    def getrandbits(self, bits):
        if self.first:
            self.first = False
            return 0
        return self.rng.getrandbits(bits)


@pytest.mark.parametrize("fld", [M61, GF8, GF16], ids=lambda f: f.token)
def test_keygen_never_draws_alpha_zero(fld):
    sk = keygen(fld, _FirstDrawZero(13))
    assert sk.alpha != 0
    fld.check_element(sk.alpha)


@pytest.mark.parametrize(
    "fld, alpha",
    [(GF8, "0"), (GF8, "100"), (M61, "0"), (M61, str(M61.order))],
    ids=["gf2:8-zero", "gf2:8-too-wide", "zp-zero", "zp-order"],
)
def test_keyfile_alpha_outside_field_rejected(tmp_path, fld, alpha):
    path = tmp_path / "bad.key"
    path.write_text(f"alpha={alpha}\nkprf={KEY.hex()}\n")
    with pytest.raises(FormatError, match="alpha"):
        read_keyfile(path, fld)


@pytest.mark.parametrize("fld", [M61, GF8, GF16], ids=lambda f: f.token)
def test_prf_masks_match_per_cell_vectors(fld):
    rng = random.Random(14)
    for count in (1, 3):
        for server in (1, 7):
            cells = [
                (rng.randrange(1, 1 << 40), rng.randrange(5)) for _ in range(rng.randrange(1, 30))
            ]
            masks = auth.prf_masks(KEY, FID, server, cells, count, fld)
            assert len(masks) == len(cells)
            for (row, ctr), vec in zip(cells, masks):
                one = prf_vector(KEY, TagContext(FID, row, server, ctr), count, fld)
                assert fld.vec_to_ints(vec) == fld.vec_to_ints(one)
    empty = auth.prf_masks(KEY, FID, 1, [], 4, fld)
    assert empty.shape == (0, 4) and empty.dtype == fld.stored_dtype


@pytest.mark.parametrize("fld", [M61, GF8, GF16], ids=lambda f: f.token)
def test_prf_masks_match_per_cell_blake2b(fld):
    # The PRF's definition, one cell and one chunk at a time: keyed BLAKE2b
    # with a 16-byte digest over fid || row || server || ctr || u, read as a
    # big-endian integer and reduced mod p, or to its low w bits.
    # 257 chunks span more than one of the kernel's chunk groups.
    rng = random.Random(15)
    key, fid = rng.randbytes(32), rng.randbytes(16)
    server = rng.randrange(1, 100)
    cells = [(rng.randrange(1, 1 << 40), rng.randrange(5)) for _ in range(40)]
    for count, first in ((3, 0), (257, 0), (257, 200)):
        masks = auth.prf_masks(key, fid, server, cells, count, fld, first=first)
        for (row, ctr), vec in zip(cells, masks):
            want = []
            for u in range(first, first + count):
                msg = b"".join(x.to_bytes(8, "big") for x in (row, server, ctr, u))
                digest = hashlib.blake2b(fid + msg, key=key, digest_size=16).digest()
                value = int.from_bytes(digest, "big")
                want.append(
                    value % fld.order if fld.kind == "prime" else value & (fld.order - 1)
                )
            assert fld.vec_to_ints(vec) == want


@pytest.mark.parametrize("fld", [M61, GF8, GF16], ids=lambda f: f.token)
def test_prf_cells_take_cells_of_several_servers(fld):
    # One call over (row, server, ctr) cells gives each server's masks as
    # its own column's call does, chunk groups and a chunk offset included.
    rng = random.Random(16)
    cells = [(rng.randrange(1, 50), rng.randrange(1, 20), rng.randrange(3)) for _ in range(12)]
    for count, first in ((3, 0), (257, 40)):
        masks = auth.prf_cells(KEY, FID, cells, count, fld, first=first)
        assert masks.shape == (len(cells), count) and masks.dtype == fld.stored_dtype
        for (row, server, ctr), got in zip(cells, masks):
            want = auth.prf_masks(KEY, FID, server, [(row, ctr)], count, fld, first=first)
            assert np.array_equal(got, want[0])


def spy_on_kernel(monkeypatch):
    """Record the cells of every prf_cells call."""
    asked = []
    kernel = auth.prf_cells

    def spy(kprf, fid, cells, count, fld, **kwargs):
        asked.append(list(cells))
        return kernel(kprf, fid, cells, count, fld, **kwargs)

    monkeypatch.setattr(auth, "prf_cells", spy)
    return asked


def rows_cached(n, rows, count, fld, held=None):
    """prf_rows_cached into a new (len(rows), n, count) array."""
    out = np.empty((len(rows), n, count), fld.stored_dtype)
    auth.prf_rows_cached(KEY, FID, rows, fld, out, held)
    return out


def server_rows(rows, n, count, fld):
    """The kernel's masks of servers 1..n at each (row, ctr), as an
    (len(rows), n, count) array."""
    return np.stack([auth.prf_masks(KEY, FID, j, rows, count, fld) for j in range(1, n + 1)], 1)


@pytest.mark.parametrize("fld", [M61, GF16], ids=lambda f: f.token)
def test_prf_masks_cached_matches_kernel(fld, monkeypatch):
    # Counter-0 rows are looked up and stored, one entry per row holding
    # every server's masks; any other row is computed in the same kernel
    # call as the misses and never stored.
    auth.clear_prf_cache()
    n, rows = 3, [(3, 0), (9, 2), (4, 1), (5, 0)]
    first = rows_cached(n, rows[:2], 4, fld)
    fresh = server_rows(rows, n, 4, fld)
    asked = spy_on_kernel(monkeypatch)
    both = rows_cached(n, rows, 4, fld)
    # A hit is not computed; counter 2 is, again, with the other misses.
    assert asked == [[(i, j, ctr) for i, ctr in rows[1:] for j in range(1, n + 1)]]
    assert sorted(key[2] for key in auth._PRF_CACHE) == [3, 5]
    assert {len(entry) for entry in auth._PRF_CACHE.values()} == {n * 4 * fld.element_size}
    assert np.array_equal(first, fresh[:2]) and np.array_equal(both, fresh)
    # The cache keeps words of its own: changing the array changes no entry.
    both[...] = 0
    assert np.array_equal(rows_cached(n, rows[:1], 4, fld), fresh[:1])
    # A mask does not depend on n: a row of 3 servers serves 2, but not 4.
    asked.clear()
    assert np.array_equal(rows_cached(2, rows[:1], 4, fld), fresh[:1, :2])
    assert asked == []
    wider = rows_cached(4, rows[:1], 4, fld)
    assert asked == [[(3, j, 0) for j in range(1, 5)]]
    assert np.array_equal(wider, server_rows(rows[:1], 4, 4, fld))


@pytest.mark.parametrize("fld", [M61, GF16], ids=lambda f: f.token)
def test_prf_masks_cached_takes_held_masks(fld, monkeypatch):
    # A held row stands in for the kernel, and a counter-0 one is stored
    # as a computed one would be.
    auth.clear_prf_cache()
    n, rows = 3, [(3, 0), (9, 2), (4, 1), (5, 0)]
    fresh = server_rows(rows, n, 4, fld)
    held = {0: fresh[0], 1: fresh[1]}
    asked = spy_on_kernel(monkeypatch)
    got = rows_cached(n, rows, 4, fld, held)
    assert asked == [[(i, j, ctr) for i, ctr in rows[2:] for j in range(1, n + 1)]]
    assert np.array_equal(got, fresh)
    assert sorted(key[2] for key in auth._PRF_CACHE) == [3, 5]
    asked.clear()
    assert np.array_equal(rows_cached(n, rows[:1], 4, fld)[0], fresh[0])
    assert asked == []


def test_prf_cache_is_cleared_when_its_rows_reach_the_cell_bound(monkeypatch):
    # The bound is _PRF_CACHE_MAX cells: _PRF_CACHE_MAX // n rows of n.
    monkeypatch.setattr(auth, "_PRF_CACHE_MAX", 12)
    auth.clear_prf_cache()
    for row in range(1, 5):
        rows_cached(3, [(row, 0)], 2, M61)
    assert sorted(key[2] for key in auth._PRF_CACHE) == [1, 2, 3, 4]
    rows_cached(3, [(5, 0)], 2, M61)
    assert sorted(key[2] for key in auth._PRF_CACHE) == [5]
    auth.clear_prf_cache()


@pytest.mark.parametrize("fld", [M61, GF16], ids=lambda f: f.token)
def test_prf_vector_cached_reads_one_slot_or_computes_one_cell(fld, monkeypatch):
    # A hit is its server's slot of a cached row; a miss is that one cell,
    # never its row, and it is stored nowhere.
    auth.clear_prf_cache()
    n, count = 4, 5
    rows = rows_cached(n, [(6, 0)], count, fld)
    asked = spy_on_kernel(monkeypatch)
    for j in range(1, n + 1):
        got = auth.prf_vector_cached(KEY, TagContext(FID, 6, j, 0), count, fld)
        assert np.array_equal(got, rows[0, j - 1]) and not got.flags.writeable
    assert asked == []
    for ctx in (TagContext(FID, 7, 2, 0), TagContext(FID, 6, 2, 3), TagContext(FID, 6, n + 1, 0)):
        asked.clear()
        got = auth.prf_vector_cached(KEY, ctx, count, fld)
        assert asked == [[(ctx.row, ctx.server, ctx.ctr)]]
        want = auth.prf_masks(KEY, FID, ctx.server, [(ctx.row, ctx.ctr)], count, fld)
        assert np.array_equal(got, want[0])
        assert not got.flags.writeable
    assert list(auth._PRF_CACHE) == [auth._row_key(KEY, FID, 6, count, fld)]


@pytest.mark.parametrize(
    "fid, server, cells",
    [
        (b"short", 1, [(1, 0)]),
        (FID + b"x", 1, [(1, 0)]),
        (FID, -1, [(1, 0)]),
        (FID, 1, [(1, 0), (-1, 0)]),
        (FID, 1, [(1, 0), (2, -3)]),
    ],
    ids=["short-fid", "long-fid", "negative-server", "negative-row", "negative-ctr"],
)
def test_prf_masks_validation(fid, server, cells):
    with pytest.raises(ParameterError):
        auth.prf_masks(KEY, fid, server, cells, 1, M61)
    with pytest.raises(ParameterError):
        auth.prf_cells(KEY, fid, [(row, server, ctr) for row, ctr in cells], 1, M61)
