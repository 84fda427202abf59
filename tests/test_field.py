"""Field arithmetic: exactness, Frobenius, and the shipped modulus table."""

import pytest

from lie2.field import IRREDUCIBLE_POLY, gf


def poly_is_irreducible(p: int, k: int) -> bool:
    """Rabin irreducibility test for a degree-``k`` binary polynomial.

    Independent of the field arithmetic; certifies the modulus table.
    """
    if p.bit_length() - 1 != k:
        return False
    if k == 1:
        return True  # both degree-1 binary polynomials are irreducible

    def mulmod(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if (a >> k) & 1:
                a ^= p
        return r

    def gcd_poly(a, b):
        while b:
            while a and a.bit_length() >= b.bit_length():
                a ^= b << (a.bit_length() - b.bit_length())
            a, b = b, a
        return a

    def frob_iter(times):
        cur = 2  # the polynomial x
        for _ in range(times):
            cur = mulmod(cur, cur)
        return cur

    if frob_iter(k) != 2:
        return False
    n, q, primes = k, 2, []
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return all(gcd_poly(frob_iter(k // q) ^ 2, p) == 1 for q in primes)


@pytest.mark.parametrize("k", sorted(IRREDUCIBLE_POLY))
def test_modulus_table_is_irreducible(k):
    # independent Rabin test certifies every shipped modulus
    assert poly_is_irreducible(IRREDUCIBLE_POLY[k], k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_frobenius_additive_bijection(k):
    f = gf(k)
    seen = set()
    for a in f.elements():
        seen.add(f.square(a))
    assert len(seen) == f.order  # bijective
    for a in f.elements():
        for b in f.elements():
            assert f.square(a ^ b) == f.square(a) ^ f.square(b)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_multiplicative_group(k):
    f = gf(k)
    for a in f.elements():
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    # associativity and commutativity, exhaustive at small degree
    if k <= 3:
        for a in f.elements():
            for b in f.elements():
                assert f.mul(a, b) == f.mul(b, a)
                for c in f.elements():
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8])
def test_frobenius_is_a_bijection(k):
    # a -> a^(2^(k-1)) inverts squaring on both sides, so every element has
    # exactly one square root
    f = gf(k)
    for a in f.elements():
        assert f.pow(f.square(a), 1 << (k - 1)) == a
        assert f.square(f.pow(a, 1 << (k - 1))) == a


def test_every_element_is_own_additive_inverse():
    f = gf(4)
    for a in f.elements():
        assert a ^ a == 0


def test_pow_matches_repeated_mul():
    f = gf(5)
    for a in list(f.elements())[:8]:
        acc = 1
        for e in range(1, 10):
            acc = f.mul(acc, a)
            assert f.pow(a, e) == acc


def test_unsupported_degree_rejected():
    with pytest.raises(ValueError):
        gf(17)
