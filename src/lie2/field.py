"""Exact arithmetic in GF(2^k).

Field elements are plain Python integers in ``[0, 2^k)`` whose binary
digits are the coefficients of a polynomial over GF(2); bit ``i`` is the
coefficient of ``x^i``.  Arithmetic is done modulo a fixed irreducible
polynomial of degree ``k``, so results are reproducible bit for bit.

Addition is exclusive-or, every element is its own additive inverse, and
the Frobenius map ``x -> x^2`` is an additive bijection; those three facts
are what the rest of the package leans on.

The modulus table below lists, for each degree, the lexicographically
smallest irreducible polynomial of that degree (verified by the test
suite with an independent irreducibility check).
"""

from __future__ import annotations

from functools import lru_cache

# Degree -> irreducible modulus, bit i = coefficient of x^i.
IRREDUCIBLE_POLY = {
    1: 0b11,  # x + 1 (GF(2) itself; arithmetic never actually reduces)
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000000011,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000000001001,
    13: 0b10000000011011,
    14: 0b100000000100001,
    15: 0b1000000000000011,
    16: 0b10000000000101011,
}


class GF2k:
    """The field GF(2^k) for a fixed degree ``k``.

    Instances are stateless contexts: they hold the modulus and expose
    arithmetic on int-encoded elements.  Obtain them through :func:`gf`
    so equal degrees share one instance.
    """

    def __init__(self, k: int):
        if k not in IRREDUCIBLE_POLY:
            raise ValueError(f"unsupported field degree k={k}; need 1 <= k <= 16")
        self.k = k
        self.order = 1 << k
        self.mask = self.order - 1
        self.modulus = IRREDUCIBLE_POLY[k]

    def __repr__(self):
        return "GF(2)" if self.k == 1 else f"GF(2^{self.k})"

    def __eq__(self, other):
        return isinstance(other, GF2k) and other.k == self.k

    def __hash__(self):
        return hash(("GF2k", self.k))

    def elements(self):
        """All field elements, ascending."""
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Carry-less product reduced by the modulus."""
        if self.k == 1:
            return a & b
        r = 0
        k, mod = self.k, self.modulus
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if (a >> k) & 1:
                a ^= mod
        return r

    def square(self, a: int) -> int:
        """Frobenius: a -> a^2."""
        return self.mul(a, a)

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        e %= self.order - 1
        if e == 0:
            e = self.order - 1  # a != 0, so a^(order-1) = 1 anyway
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^k)")
        if self.k == 1:
            return 1
        return self.pow(a, self.order - 2)


@lru_cache(maxsize=None)
def gf(k: int) -> GF2k:
    """Shared field context of degree ``k``."""
    return GF2k(k)

