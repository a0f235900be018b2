"""Finite-field arithmetic underlying the coding and authentication layers.

Two field kinds are supported, selected by a compact token:

* ``zp:<p>``  -- the prime field Z_p for an odd prime p < 2^62.  The default
  modulus is the Mersenne prime 2^61 - 1: residues fit one machine word and
  an audit forger has to guess a 61-bit secret.
* ``gf2:<w>`` -- the binary field GF(2^w) for w in {8, 16}, with fixed
  reduction polynomials (x^8+x^4+x^3+x^2+1 and x^16+x^12+x^3+x+1) so that
  encoded artifacts are portable across implementations.

Scalars are plain Python ints in canonical reduced form.  Bulk data (block
and tag chunk vectors) moves through the ``vec_*`` methods: tuples of ints
for prime fields, numpy arrays for binary fields.  Treat returned vectors
as immutable.  Bytes become vectors, and vectors bytes, only by way of
arrays of stored words, each element little-endian in ``element_size``
bytes: ``payload_words`` and ``chunks_to_payload`` convert file payloads,
``vectors_from_words`` and ``vectors_to_words`` convert vectors, and a
share body is such an array.  Both binary widths multiply through one
pair of log/antilog tables, zero included (see :class:`BinaryField`);
tables are built once per process and never mutated, so field objects are
safe to share across threads.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .errors import FieldMismatchError, ParameterError

MERSENNE61 = (1 << 61) - 1

# Reduction polynomials (including the x^w term); both are primitive, so
# x = 2 generates the multiplicative group and log/antilog tables close.
_REDUCTION_POLY = {8: 0x11D, 16: 0x1100B}
_DTYPE = {8: np.uint8, 16: np.uint16}

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of prime and binary fields.

    Instances are cached per token (see :func:`prime_field`,
    :func:`binary_field`, :func:`field_from_token`), so equal tokens give
    the same object.
    """

    kind: str
    order: int
    token: str
    element_size: int  # bytes per element in persisted artifacts
    stored_dtype: np.dtype  # numpy dtype of one persisted element
    payload_size: int  # file-payload bytes packed into one element

    def check_element(self, a: int) -> int:
        """Return a if it is a canonical residue, else raise."""
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise FieldMismatchError(f"{a!r} is not an element of {self.token}")
        return a

    def __repr__(self):
        return f"<Field {self.token}>"

    def __eq__(self, other):
        return isinstance(other, Field) and other.token == self.token

    def __hash__(self):
        return hash(self.token)

    # -- scalar ops (implemented by subclasses) --

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def inv_many(self, values) -> list[int]:
        """Inverses of all values; ZeroDivisionError if any is zero."""
        raise NotImplementedError

    def rand_element(self, rng) -> int:
        """Uniform element; rng needs a getrandbits method."""
        raise NotImplementedError

    def rand_nonzero(self, rng) -> int:
        while True:
            a = self.rand_element(rng)
            if a != 0:
                return a

    # -- chunk-vector ops --

    def vec_add(self, u, v):
        raise NotImplementedError

    def vec_sub(self, u, v):
        raise NotImplementedError

    def vec_scale(self, s: int, v):
        raise NotImplementedError

    def vec_scale_many(self, scalars, v):
        """s * v for each scalar s, in order: a list of vectors, or in
        GF(2^w) the rows of one 2-D array."""
        return [self.vec_scale(s, v) for s in scalars]

    def vec_combine(self, coeffs, vecs):
        """Sum of coeffs[i] * vecs[i]; vecs may also be a stacked 2-D array."""
        raise NotImplementedError

    def vec_stack(self, vecs):
        """Pack vectors for repeated vec_combine calls over the same rows."""
        return list(vecs)

    def vec_eq(self, u, v) -> bool:
        raise NotImplementedError

    def as_vectors(self, vecs, c: int):
        """Each of vecs as a vector of c field elements, or None if any is
        not one.

        Screens vectors that arrive from outside: audit responses and
        append orders.
        """
        raise NotImplementedError

    def vec_from_ints(self, values):
        raise NotImplementedError

    def vec_to_ints(self, v) -> list[int]:
        return [int(x) for x in v]

    def payload_words(self, data: bytes):
        """The elements of file-payload bytes (len a multiple of
        payload_size), as a 1-D array of stored words."""
        raise NotImplementedError

    def chunks_to_payload(self, words) -> bytes:
        """The inverse of payload_words: the payload bytes of an array of
        stored words (or of a vector), in order."""
        raise NotImplementedError

    def vectors_to_words(self, vecs, c: int):
        """A (len(vecs), c) array of the vectors' stored words, in
        ``stored_dtype``; the vectors must be elements already."""
        raise NotImplementedError

    def vectors_from_words(self, words) -> list:
        """The rows of a 2-D array of stored words, as vectors; the words
        must have passed ``check_words``."""
        raise NotImplementedError

    def check_words(self, words) -> None:
        """FieldMismatchError unless every stored word of the array is an
        element; decodes none."""
        raise NotImplementedError

    def add_words(self, a, b):
        """The element-wise sum of two arrays of stored words."""
        raise NotImplementedError


class PrimeField(Field):
    """Z_p for an odd prime p < 2^62; vectors are tuples of ints."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3 or p >= (1 << 62):
            raise ParameterError(f"prime modulus must be an odd prime < 2^62, got {p}")
        if p % 2 == 0 or not is_prime(p):
            raise ParameterError(f"{p} is not an odd prime")
        self.modulus = p
        self.order = p
        self.token = f"zp:{p}"
        self.element_size = 8
        self.stored_dtype = np.dtype("<u8")
        # 7-byte payload groups stay below 2^56 < p for any 61+-bit prime;
        # smaller primes get the widest group that still fits (toy moduli
        # like Z_11 carry no payload and only serve the coding layer).
        self.payload_size = min(7, (p.bit_length() - 1) // 8)

    def add(self, a, b):
        s = a + b
        return s - self.modulus if s >= self.modulus else s

    def sub(self, a, b):
        s = a - b
        return s + self.modulus if s < 0 else s

    def neg(self, a):
        return self.modulus - a if a else 0

    def mul(self, a, b):
        return a * b % self.modulus

    def inv(self, a):
        if a % self.modulus == 0:
            raise ZeroDivisionError(f"no inverse of 0 in {self.token}")
        return pow(a, self.modulus - 2, self.modulus)

    def inv_many(self, values):
        """Montgomery's batch inversion: one inv and about 3n products."""
        values = list(values)
        if not values:
            return []
        p = self.modulus
        prefix = []  # prefix[t] = values[0] * ... * values[t-1]
        acc = 1
        for a in values:
            prefix.append(acc)
            acc = acc * a % p
        acc = self.inv(acc)  # raises if any value is zero
        out = [0] * len(values)
        for t in range(len(values) - 1, -1, -1):
            out[t] = prefix[t] * acc % p
            acc = acc * values[t] % p
        return out

    def rand_element(self, rng):
        bits = self.modulus.bit_length()
        while True:
            a = rng.getrandbits(bits)
            if a < self.modulus:
                return a

    def vec_add(self, u, v):
        p = self.modulus
        try:
            return tuple([(a + b) % p for a, b in zip(u, v, strict=True)])
        except ValueError:
            raise ParameterError("vector length mismatch") from None

    def vec_sub(self, u, v):
        p = self.modulus
        try:
            return tuple([(a - b) % p for a, b in zip(u, v, strict=True)])
        except ValueError:
            raise ParameterError("vector length mismatch") from None

    def vec_scale(self, s, v):
        p = self.modulus
        return tuple([s * a % p for a in v])

    def vec_combine(self, coeffs, vecs):
        if len(coeffs) != len(vecs):
            raise ParameterError("one coefficient per vector required")
        if not len(vecs):
            raise ParameterError("vec_combine needs at least one vector")
        if isinstance(vecs, np.ndarray):
            columns = vecs.T.tolist()  # stored words, as Python ints
        elif len(set(map(len, vecs))) > 1:
            raise ParameterError("vectors must have the same length")
        else:
            columns = [map(operator.itemgetter(u), vecs) for u in range(len(vecs[0]))]
        p = self.modulus
        out = []
        for column in columns:
            acc = 0
            for s, x in zip(coeffs, column):
                acc += s * x
            out.append(acc % p)
        return tuple(out)

    def vec_eq(self, u, v):
        return tuple(u) == tuple(v)

    def as_vectors(self, vecs, c):
        """One flat pass over every element of every vector."""
        try:
            vecs = list(map(tuple, vecs))
        except TypeError:
            return None
        flat = list(itertools.chain.from_iterable(vecs))
        if set(map(len, vecs)) != {c} or set(map(type, flat)) != {int}:
            return None
        return vecs if 0 <= min(flat) and max(flat) < self.modulus else None

    def vec_from_ints(self, values):
        return tuple(self.check_element(int(x)) for x in values)

    def payload_words(self, data):
        """One numpy pass: each g-byte group becomes an 8-byte little-endian
        word whose top 8 - g bytes are zero."""
        g = self._payload_width()
        if len(data) % g:
            raise ParameterError(f"payload length must be a multiple of {g}")
        words = np.zeros((len(data) // g, 8), dtype=np.uint8)
        words[:, :g] = np.frombuffer(data, dtype=np.uint8).reshape(-1, g)
        return words.view(self.stored_dtype).ravel()

    def chunks_to_payload(self, words):
        """One numpy pass: the low g bytes of each little-endian word."""
        g = self._payload_width()
        words = np.asarray(words)
        if words.size and not (words.min() >= 0 and words.max() < 1 << (8 * g)):
            raise ParameterError("element does not fit the payload width")
        return words.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :g].tobytes()

    def _payload_width(self) -> int:
        if self.payload_size < 1:
            raise ParameterError(f"{self.token} is too small to carry byte payloads")
        return self.payload_size

    def vectors_to_words(self, vecs, c):
        flat = itertools.chain.from_iterable(vecs)
        return np.fromiter(flat, dtype=self.stored_dtype, count=len(vecs) * c).reshape(-1, c)

    def vectors_from_words(self, words):
        return list(map(tuple, words.tolist()))  # tuples of c ints

    def check_words(self, words):
        if words.size and words.max() >= self.modulus:
            raise FieldMismatchError(f"stored element {words.max()} outside {self.token}")

    def add_words(self, a, b):
        return (a + b) % self.modulus  # both below p < 2^62: no uint64 overflow


class BinaryField(Field):
    """GF(2^w) for w in {8, 16}; vectors are numpy arrays.

    Addition and subtraction are XOR.  Multiplication is one lookup,
    ``exp[log[a] + log[b]]``, in tables built once at construction.  The
    antilog table runs through the generator's cycle twice, so a sum of
    two logs needs no modulo, and is zero from index 2(order - 1) onward.
    log(0) is the sentinel 2(order - 1): any sum with it lands in the zero
    tail, so a zero factor needs no test.

    The vector ops look words up with ``np.take`` gathers over the flat
    tables: under numpy 2.4 that is about twice as fast as fancy indexing
    with a 2-D index array, and gives the same words.  They keep take's
    default ``mode="raise"`` on purpose: a word outside the field (held in
    a wider integer dtype) raises IndexError, where "clip" or "wrap" would
    quietly turn it into some element.
    """

    kind = "binary"

    def __init__(self, w: int):
        if w not in _REDUCTION_POLY:
            raise ParameterError(f"binary width must be 8 or 16, got {w}")
        self.width = w
        self.poly = _REDUCTION_POLY[w]
        self.order = 1 << w
        self.token = f"gf2:{w}"
        self.element_size = w // 8
        self.payload_size = w // 8
        self.dtype = _DTYPE[w]
        self.stored_dtype = np.dtype(self.dtype).newbyteorder("<")
        self._build_tables()

    def _build_tables(self):
        order, poly = self.order, self.poly
        cycle = order - 1
        # Index sums reach 2 * log(0) = 4 * cycle; the tail past the two
        # cycles stays zero.
        exp = np.zeros(4 * cycle + 1, dtype=self.dtype)
        log = np.full(order, 2 * cycle, dtype=np.int32)
        x = 1
        for i in range(cycle):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & order:
                x ^= poly
        if x != 1:
            raise AssertionError("reduction polynomial is not primitive")
        exp[cycle : 2 * cycle] = exp[:cycle]
        inv = np.zeros(order, dtype=self.dtype)
        inv[1:] = exp[cycle - log[1:]]
        self._exp, self._log, self._inv = exp, log, inv

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"no inverse of 0 in {self.token}")
        return int(self._inv[a])

    def inv_many(self, values):
        # A 1-D index: fancy indexing here measured faster than np.take.
        idx = np.asarray(values, dtype=np.int64)
        if not idx.all():
            raise ZeroDivisionError(f"no inverse of 0 in {self.token}")
        return self._inv[idx].tolist()

    def rand_element(self, rng):
        return rng.getrandbits(self.width)

    def vec_add(self, u, v):
        if len(u) != len(v):
            raise ParameterError("vector length mismatch")
        return np.bitwise_xor(u, v)

    vec_sub = vec_add

    def vec_scale(self, s, v):
        return np.take(self._exp, np.take(self._log, v) + self._log[s])

    def vec_scale_many(self, scalars, v):
        idx = np.take(self._log, scalars)[:, None] + np.take(self._log, v)
        return np.take(self._exp, idx)

    def vec_combine(self, coeffs, vecs):
        if not len(vecs):
            raise ParameterError("vec_combine needs at least one vector")
        try:
            mat = vecs if isinstance(vecs, np.ndarray) else np.stack(vecs)
        except ValueError:
            raise ParameterError("vectors must have the same length") from None
        if len(coeffs) != mat.shape[0]:
            raise ParameterError("one coefficient per vector required")
        idx = np.take(self._log, mat)
        idx += np.take(self._log, coeffs)[:, None]  # in place: no second index array
        return np.bitwise_xor.reduce(np.take(self._exp, idx), axis=0)

    def vec_stack(self, vecs):
        return np.stack(list(vecs))

    def vec_eq(self, u, v):
        return len(u) == len(v) and bool(np.array_equal(u, v))

    def as_vectors(self, vecs, c):
        out = []
        for v in vecs:
            try:
                a = np.asarray(v)
            except (TypeError, ValueError):
                return None
            if a.shape != (c,) or a.dtype.kind not in "iu":
                return None
            # The field's own dtype holds nothing but elements.
            if a.dtype != self.dtype and not (a.min() >= 0 and a.max() < self.order):
                return None
            out.append(a.astype(self.dtype, copy=False))
        return out

    def vec_from_ints(self, values):
        arr = np.array([self.check_element(int(x)) for x in values], dtype=self.dtype)
        return arr

    def payload_words(self, data):
        if len(data) % self.payload_size:
            raise ParameterError(
                f"payload length must be a multiple of {self.payload_size}"
            )
        return np.frombuffer(data, dtype=self.stored_dtype)

    def chunks_to_payload(self, words):
        return np.asarray(words, dtype=self.stored_dtype).tobytes()

    def vectors_to_words(self, vecs, c):
        words = np.empty((len(vecs), c), dtype=self.stored_dtype)
        if len(vecs):
            np.stack(vecs, out=words, casting="unsafe")
        return words

    def vectors_from_words(self, words):
        return list(words.astype(self.dtype))  # rows of a writeable copy

    def check_words(self, words):
        pass  # every w-bit word is an element

    def add_words(self, a, b):
        return np.bitwise_xor(a, b)


_FIELDS: dict[str, Field] = {}


def prime_field(p: int = MERSENNE61) -> PrimeField:
    token = f"zp:{p}"
    if token not in _FIELDS:
        _FIELDS[token] = PrimeField(p)
    return _FIELDS[token]  # type: ignore[return-value]


def binary_field(w: int) -> BinaryField:
    token = f"gf2:{w}"
    if token not in _FIELDS:
        _FIELDS[token] = BinaryField(w)
    return _FIELDS[token]  # type: ignore[return-value]


def field_from_token(token: str) -> Field:
    """Parse ``zp:<decimal p>`` or ``gf2:<w>`` into a (cached) field."""
    name, _, arg = token.partition(":")
    try:
        value = int(arg)
    except ValueError:
        raise ParameterError(f"bad field token {token!r}") from None
    if name == "zp":
        return prime_field(value)
    if name == "gf2":
        return binary_field(value)
    raise ParameterError(f"unknown field kind in token {token!r}")
