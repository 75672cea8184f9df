"""GF(2) polynomial arithmetic and primitive-polynomial enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lds import gf2

# Non-zero polynomials as integers; keep degrees modest for speed.
polys = st.integers(min_value=1, max_value=1 << 12)


class TestDegree:
    def test_zero_polynomial(self):
        assert gf2.degree(0) == -1

    def test_constant_one(self):
        assert gf2.degree(1) == 0

    def test_known_degrees(self):
        assert gf2.degree(0b10) == 1
        assert gf2.degree(0b1011) == 3
        assert gf2.degree(1 << 13) == 13


class TestMul:
    def test_by_zero(self):
        assert gf2.mul(0b1011, 0) == 0

    def test_by_one(self):
        assert gf2.mul(0b1011, 1) == 0b1011

    def test_x_times_x(self):
        assert gf2.mul(0b10, 0b10) == 0b100

    def test_known_product(self):
        # (x + 1)(x + 1) = x^2 + 1 over GF(2)
        assert gf2.mul(0b11, 0b11) == 0b101

    @given(a=polys, b=polys)
    @settings(max_examples=60)
    def test_degree_additivity(self, a, b):
        assert gf2.degree(gf2.mul(a, b)) == gf2.degree(a) + gf2.degree(b)

    @given(a=polys, b=polys)
    @settings(max_examples=60)
    def test_commutative(self, a, b):
        assert gf2.mul(a, b) == gf2.mul(b, a)


class TestDivMod:
    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gf2.divmod_poly(0b101, 0)

    @given(a=polys, b=polys)
    @settings(max_examples=60)
    def test_reconstruction(self, a, b):
        q, r = gf2.divmod_poly(a, b)
        assert gf2.mul(q, b) ^ r == a
        assert gf2.degree(r) < gf2.degree(b)

    def test_exact_division(self):
        product = gf2.mul(0b1011, 0b111)
        q, r = gf2.divmod_poly(product, 0b1011)
        assert (q, r) == (0b111, 0)


class TestGcd:
    def test_coprime(self):
        # x and x + 1 are coprime
        assert gf2.gcd(0b10, 0b11) == 1

    def test_common_factor(self):
        a = gf2.mul(0b1011, 0b11)
        b = gf2.mul(0b1011, 0b111)
        assert gf2.gcd(a, b) == 0b1011

    @given(a=polys, b=polys)
    @settings(max_examples=40)
    def test_gcd_divides_both(self, a, b):
        g = gf2.gcd(a, b)
        assert gf2.mod(a, g) == 0
        assert gf2.mod(b, g) == 0


class TestPowMod:
    def test_identity_exponent(self):
        assert gf2.pow_mod(0b10, 1, 0b1011) == 0b10

    def test_zero_exponent(self):
        assert gf2.pow_mod(0b10, 0, 0b1011) == 1

    def test_fermat_like(self):
        # In GF(8) built from x^3+x+1: x^7 = 1.
        assert gf2.pow_mod(0b10, 7, 0b1011) == 1


class TestPrimeFactors:
    def test_small(self):
        assert gf2.prime_factors(12) == [2, 3]
        assert gf2.prime_factors(1) == []
        assert gf2.prime_factors(8191) == [8191]  # 2^13 - 1 is prime

    def test_mersenne_composite(self):
        assert gf2.prime_factors((1 << 11) - 1) == [23, 89]


class TestIrreducible:
    def test_known_irreducible(self):
        assert gf2.is_irreducible(0b1011)   # x^3 + x + 1
        assert gf2.is_irreducible(0b10011)  # x^4 + x + 1

    def test_known_reducible(self):
        assert not gf2.is_irreducible(0b101)   # (x+1)^2
        assert not gf2.is_irreducible(0b1111)  # (x+1)(x^2+x+1)

    def test_divisible_by_x(self):
        assert not gf2.is_irreducible(0b110)

    @given(a=st.integers(2, 200), b=st.integers(2, 200))
    @settings(max_examples=40)
    def test_products_never_irreducible(self, a, b):
        assert not gf2.is_irreducible(gf2.mul(a, b))


class TestPrimitive:
    def test_degree_one(self):
        assert gf2.is_primitive(0b11)
        assert not gf2.is_primitive(0b10)

    def test_known_primitive(self):
        assert gf2.is_primitive(0b1011)    # x^3 + x + 1
        assert gf2.is_primitive(0b10011)   # x^4 + x + 1

    def test_irreducible_but_not_primitive(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5 != 15.
        assert gf2.is_irreducible(0b11111)
        assert not gf2.is_primitive(0b11111)

    def test_counts_per_degree(self):
        # phi(2^d - 1) / d for d = 1..8: 1 1 2 2 6 6 18 16
        expected = [1, 1, 2, 2, 6, 6, 18, 16]
        for degree, count in enumerate(expected, start=1):
            assert len(list(gf2.primitive_polynomials(degree))) == count


class TestFirstPrimitivePolynomials:
    def test_prefix(self):
        assert gf2.first_primitive_polynomials(4) == [0b11, 0b111, 0b1011, 0b1101]

    def test_all_distinct_and_primitive(self):
        found = gf2.first_primitive_polynomials(60)
        assert len(set(found)) == 60
        assert all(gf2.is_primitive(p) for p in found)

    def test_ordering_by_degree(self):
        found = gf2.first_primitive_polynomials(30)
        degrees = [gf2.degree(p) for p in found]
        assert degrees == sorted(degrees)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            gf2.first_primitive_polynomials(-1)

    def test_zero_count(self):
        assert gf2.first_primitive_polynomials(0) == []

    def test_matches_the_per_degree_enumeration(self):
        expected = []
        degree = 1
        while len(expected) < 100:
            expected.extend(gf2.primitive_polynomials(degree))
            degree += 1
        assert gf2.first_primitive_polynomials(100) == expected[:100]

    def test_second_engine_runs_no_primitivity_checks(self, monkeypatch):
        from repro.lds.sobol import SobolEngine

        SobolEngine(120, init="recurrence")
        calls = []
        real = gf2.is_primitive
        monkeypatch.setattr(
            gf2, "is_primitive", lambda poly: calls.append(poly) or real(poly)
        )
        SobolEngine(120, init="recurrence")
        assert calls == []

    def test_callers_cannot_mutate_the_memo(self):
        first = gf2.first_primitive_polynomials(4)
        first.append(0)
        first[0] = 0
        assert gf2.first_primitive_polynomials(4) == [0b11, 0b111, 0b1011, 0b1101]
