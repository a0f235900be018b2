"""Reference arithmetic for the benchmark's output checks.

It is written apart from the program, so that a fault in the program's
field tables or coding code cannot hide in the check as well:

* GF(2^16) products are carry-less multiplies reduced by
  x^16 + x^12 + x^3 + x + 1 (0x1100B); a constant times a chunk vector is
  the XOR of the constant's products with the powers of two that the
  vector's set bits select (multiplication by a constant is GF(2)-linear).
* Z_p products are Python ints reduced mod p.
* Cauchy entries are 1 / (x_i - y_j) from the canonical sets the paper
  defines: x_i = i - 1 for parity row i, y_j = order - j for column j.

Nothing here reads the program's tables, counters or caches.
"""

from __future__ import annotations

import numpy as np

W = 16
GF16_POLY = 0x1100B  # x^16 + x^12 + x^3 + x + 1


class PrimeRef:
    """Z_p with Python ints; vectors are sequences of ints."""

    def __init__(self, p: int):
        self.p = p
        self.order = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def combine(self, coeffs, vecs):
        """sum(coeffs[i] * vecs[i]) position-wise, as a tuple of ints."""
        width = len(vecs[0])
        return tuple(
            sum(a * int(v[u]) for a, v in zip(coeffs, vecs)) % self.p
            for u in range(width)
        )

    def equal(self, u, v) -> bool:
        return [int(x) for x in u] == [int(x) for x in v]


class BinaryRef:
    """GF(2^16) by carry-less multiply; vectors are numpy integer arrays."""

    order = 1 << W

    def __init__(self):
        self._bit_products: dict[tuple, np.ndarray] = {}

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        prod = 0
        while b:
            if b & 1:
                prod ^= a
            a <<= 1
            b >>= 1
        for bit in range(2 * W - 2, W - 1, -1):
            if prod >> bit & 1:
                prod ^= GF16_POLY << (bit - W)
        return prod

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        # a^(2^16 - 2) by square and multiply.
        result, base, e = 1, a, self.order - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def combine(self, coeffs, vecs):
        """XOR of coeffs[i] * vecs[i], bit-sliced over each vector's bits."""
        key = tuple(coeffs)
        products = self._bit_products.get(key)
        if products is None:
            products = np.array(
                [[self.mul(a, 1 << bit) for a in key] for bit in range(W)],
                dtype=np.uint32,
            )
            self._bit_products[key] = products
        mat = np.asarray([np.asarray(v, dtype=np.uint32) for v in vecs])
        out = np.zeros(mat.shape[1], dtype=np.uint32)
        for bit in range(W):
            slices = (mat >> bit) & 1
            out ^= np.bitwise_xor.reduce(slices * products[bit][:, None], axis=0)
        return out

    def equal(self, u, v) -> bool:
        return bool(np.array_equal(np.asarray(u, np.uint32), np.asarray(v, np.uint32)))


def reference_for(token: str):
    """Reference field for a program field token (zp:<p> or gf2:16)."""
    kind, _, arg = token.partition(":")
    if kind == "zp":
        return PrimeRef(int(arg))
    if kind == "gf2" and arg == "16":
        return BinaryRef()
    raise ValueError(f"no reference arithmetic for {token}")


def cauchy_rows(ref, xs, ys) -> list[list[int]]:
    """Rows 1 / (x - y) for x in xs, y in ys."""
    return [[ref.inv(ref.sub(x, y)) for y in ys] for x in xs]


def canonical_rows(ref, s: int, k: int) -> list[list[int]]:
    """The s x k Cauchy grid on the canonical sets x_i = i-1, y_j = order-j."""
    return cauchy_rows(ref, range(s), [ref.order - j for j in range(1, k + 1)])


def self_check() -> None:
    """Raise RuntimeError unless the reference reproduces known values:
    the paper's worked Z_11 matrix and two GF(2^16) identities."""
    z11 = PrimeRef(11)
    gf = BinaryRef()
    found = {
        "Z_11 rows": cauchy_rows(z11, (1, 2, 7), (5, 6, 8, 9)),
        "Z_11 extension column": [row[0] for row in cauchy_rows(z11, (1, 2, 7), (10,))],
        "x^15 * x in GF(2^16)": gf.mul(0x8000, 2),
        "0x1234 * 0x1234^-1": gf.mul(0x1234, gf.inv(0x1234)),
    }
    wanted = {
        "Z_11 rows": [[8, 2, 3, 4], [7, 8, 9, 3], [6, 1, 10, 5]],
        "Z_11 extension column": [6, 4, 7],
        "x^15 * x in GF(2^16)": 0x100B,
        "0x1234 * 0x1234^-1": 1,
    }
    for what, value in found.items():
        if value != wanted[what]:
            raise RuntimeError(f"reference arithmetic: {what} is {value}, not {wanted[what]}")
