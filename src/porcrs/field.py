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
as immutable.  GF(2^16) multiplies via log/antilog tables, GF(2^8) via a
full 256x256 product table; tables are built once per process and never
mutated, so field objects are safe to share across threads.
"""

from __future__ import annotations

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

    def element_from_wide_bytes(self, data: bytes) -> int:
        """Reduce a 16-byte big-endian string into the field.

        Prime kind: residue of the 128-bit integer mod p (bias under
        2^-66 per residue).  Binary kind: the low w bits.
        """
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

    def vec_zeros(self, c: int):
        raise NotImplementedError

    def vec_add(self, u, v):
        raise NotImplementedError

    def vec_sub(self, u, v):
        raise NotImplementedError

    def vec_scale(self, s: int, v):
        raise NotImplementedError

    def vec_combine(self, coeffs, vecs):
        """Sum of coeffs[i] * vecs[i]; vecs may also be a stacked 2-D array."""
        raise NotImplementedError

    def vec_stack(self, vecs):
        """Pack vectors for repeated vec_combine calls over the same rows."""
        return list(vecs)

    def vec_eq(self, u, v) -> bool:
        raise NotImplementedError

    def vec_from_ints(self, values):
        raise NotImplementedError

    def vec_to_ints(self, v) -> list[int]:
        return [int(x) for x in v]

    def chunks_from_payload(self, data: bytes):
        """Decode file-payload bytes (len a multiple of payload_size)."""
        raise NotImplementedError

    def chunks_to_payload(self, v) -> bytes:
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

    def element_from_wide_bytes(self, data):
        if len(data) != 16:
            raise ParameterError("wide-bytes reduction expects exactly 16 bytes")
        return int.from_bytes(data, "big") % self.modulus

    def rand_element(self, rng):
        bits = self.modulus.bit_length()
        while True:
            a = rng.getrandbits(bits)
            if a < self.modulus:
                return a

    def vec_zeros(self, c):
        return (0,) * c

    def vec_add(self, u, v):
        p = self.modulus
        return tuple((a + b) % p for a, b in zip(u, v, strict=True))

    def vec_sub(self, u, v):
        p = self.modulus
        return tuple((a - b) % p for a, b in zip(u, v, strict=True))

    def vec_scale(self, s, v):
        p = self.modulus
        return tuple(s * a % p for a in v)

    def vec_combine(self, coeffs, vecs):
        if len(coeffs) != len(vecs):
            raise ParameterError("one coefficient per vector required")
        if not vecs:
            raise ParameterError("vec_combine needs at least one vector")
        c = len(vecs[0])
        p = self.modulus
        out = []
        for u in range(c):
            acc = 0
            for s, v in zip(coeffs, vecs):
                acc += s * v[u]
            out.append(acc % p)
        return tuple(out)

    def vec_eq(self, u, v):
        return tuple(u) == tuple(v)

    def vec_from_ints(self, values):
        return tuple(self.check_element(int(x)) for x in values)

    def chunks_from_payload(self, data):
        g = self.payload_size
        if g < 1:
            raise ParameterError(f"{self.token} is too small to carry byte payloads")
        if len(data) % g:
            raise ParameterError(f"payload length must be a multiple of {g}")
        return tuple(
            int.from_bytes(data[i : i + g], "little") for i in range(0, len(data), g)
        )

    def chunks_to_payload(self, v):
        g = self.payload_size
        if g < 1:
            raise ParameterError(f"{self.token} is too small to carry byte payloads")
        limit = 1 << (8 * g)
        out = bytearray()
        for x in v:
            x = int(x)
            if not 0 <= x < limit:
                raise ParameterError("element does not fit the payload width")
            out += x.to_bytes(g, "little")
        return bytes(out)


class BinaryField(Field):
    """GF(2^w) for w in {8, 16}; vectors are numpy arrays.

    Addition and subtraction are XOR.  Multiplication uses tables built once
    at construction: log/antilog for w=16, plus a dense product table for
    w=8 (the antilog table is doubled so index sums need no modulo).
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
        self._build_tables()

    def _build_tables(self):
        order, poly, w = self.order, self.poly, self.width
        exp = np.zeros(2 * (order - 1), dtype=self.dtype)
        log = np.zeros(order, dtype=np.int32)
        x = 1
        for i in range(order - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & order:
                x ^= poly
        if x != 1:
            raise AssertionError("reduction polynomial is not primitive")
        exp[order - 1 :] = exp[: order - 1]
        inv = np.zeros(order, dtype=self.dtype)
        inv[1:] = exp[(order - 1) - log[1:]]
        self._exp, self._log, self._inv = exp, log, inv
        if w == 8:
            prod = exp[log[:, None] + log[None, :]].astype(np.uint8)
            prod[0, :] = 0
            prod[:, 0] = 0
            self._prod = prod

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"no inverse of 0 in {self.token}")
        return int(self._inv[a])

    def inv_many(self, values):
        idx = np.asarray(values, dtype=np.int64)
        if not idx.all():
            raise ZeroDivisionError(f"no inverse of 0 in {self.token}")
        return self._inv[idx].tolist()

    def element_from_wide_bytes(self, data):
        if len(data) != 16:
            raise ParameterError("wide-bytes reduction expects exactly 16 bytes")
        return int.from_bytes(data, "big") & (self.order - 1)

    def rand_element(self, rng):
        return rng.getrandbits(self.width)

    def vec_zeros(self, c):
        return np.zeros(c, dtype=self.dtype)

    def vec_add(self, u, v):
        if len(u) != len(v):
            raise ParameterError("vector length mismatch")
        return np.bitwise_xor(u, v)

    vec_sub = vec_add

    def vec_scale(self, s, v):
        if s == 0:
            return self.vec_zeros(len(v))
        if self.width == 8:
            return self._prod[s][v]
        return np.where(v == 0, 0, self._exp[self._log[v] + self._log[s]])

    def vec_combine(self, coeffs, vecs):
        mat = vecs if isinstance(vecs, np.ndarray) else np.stack(vecs)
        if len(coeffs) != mat.shape[0]:
            raise ParameterError("one coefficient per vector required")
        co = np.asarray(coeffs, dtype=np.int64)
        if self.width == 8:
            prods = self._prod[co[:, None], mat]
        else:
            prods = np.where(
                (mat == 0) | (co[:, None] == 0),
                0,
                self._exp[self._log[mat] + self._log[co][:, None]],
            )
        return np.bitwise_xor.reduce(prods, axis=0)

    def vec_stack(self, vecs):
        return np.stack(list(vecs))

    def vec_eq(self, u, v):
        return len(u) == len(v) and bool(np.array_equal(u, v))

    def vec_from_ints(self, values):
        arr = np.array([self.check_element(int(x)) for x in values], dtype=self.dtype)
        return arr

    def chunks_from_payload(self, data):
        if len(data) % self.payload_size:
            raise ParameterError(
                f"payload length must be a multiple of {self.payload_size}"
            )
        return np.frombuffer(data, dtype=np.dtype(self.dtype).newbyteorder("<")).astype(
            self.dtype
        )

    def chunks_to_payload(self, v):
        return np.asarray(v, dtype=np.dtype(self.dtype).newbyteorder("<")).tobytes()


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
