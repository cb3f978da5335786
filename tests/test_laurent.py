import random
from fractions import Fraction

import pytest

from twistvol import (LaurentPolynomial, PolyMatrix, determinant,
                      divide_exact, equal_up_to_unit, gcd, normalize_unit,
                      order_at_one, parse_polynomial, reduce, symmetric_power)


def cofactor_determinant(m):
    """Independent oracle: first-row cofactor expansion."""
    n = m.nrows
    if n == 0:
        return LaurentPolynomial.one(m.field)
    if n == 1:
        return m[0, 0]
    total = LaurentPolynomial.zero(m.field)
    for j in range(n):
        minor = PolyMatrix(m.field, [[m[i, k] for k in range(n) if k != j]
                                     for i in range(1, n)])
        term = m[0, j] * cofactor_determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def random_poly(field, rng, lo=-2, hi=2, density=0.7):
    coeffs = {}
    for e in range(lo, hi + 1):
        if rng.random() < density:
            coeffs[e] = field.element([Fraction(rng.randrange(-4, 5))
                                       for _ in range(field.degree)])
    return LaurentPolynomial(field, coeffs)


class TestArithmetic:

    def test_difference_of_squares(self, qfield):
        t = LaurentPolynomial.t(qfield)
        assert (t - 1) * (t + 1) == t ** 2 - 1

    def test_additive_identity(self, ufield):
        rng = random.Random(1)
        p = random_poly(ufield, rng)
        assert p + LaurentPolynomial.zero(ufield) == p

    def test_laurent_units(self, qfield):
        t = LaurentPolynomial.t(qfield)
        tinv = LaurentPolynomial.t(qfield, -1)
        assert tinv * t == LaurentPolynomial.one(qfield)

    def test_no_zero_coefficients_stored(self, qfield):
        t = LaurentPolynomial.t(qfield)
        assert ((t - 1) - (t - 1)).coeffs == {}


class TestDeterminant:

    def test_triangular(self, qfield):
        t = LaurentPolynomial.t(qfield)
        m = PolyMatrix(qfield, [[t, LaurentPolynomial.one(qfield)],
                                [LaurentPolynomial.zero(qfield), t]])
        assert determinant(m) == t ** 2

    def test_twisted_denominator_golden(self, ufield, fig8_rep):
        # det(t * sigma_2(rho(b)) - I) = (t - 1)^2
        B = symmetric_power(fig8_rep.images[1], 2)
        t = LaurentPolynomial.t(ufield)
        entries = [[t * B[i, j] - (1 if i == j else 0) for j in range(2)]
                   for i in range(2)]
        m = PolyMatrix(ufield, entries)
        assert determinant(m) == (t - 1) ** 2

    def test_against_cofactor_oracle(self, ufield):
        rng = random.Random(314)
        for trial in range(55):
            n = rng.randrange(1, 6)
            m = PolyMatrix(ufield, [[random_poly(ufield, rng)
                                     for _ in range(n)] for _ in range(n)])
            assert determinant(m) == cofactor_determinant(m)

    def test_alternating_under_row_swap(self, ufield):
        rng = random.Random(315)
        for _ in range(10):
            n = rng.randrange(2, 5)
            m = PolyMatrix(ufield, [[random_poly(ufield, rng)
                                     for _ in range(n)] for _ in range(n)])
            rows = list(m.entries)
            rows[0], rows[-1] = rows[-1], rows[0]
            swapped = PolyMatrix(ufield, rows)
            assert determinant(swapped) == -determinant(m)

    def test_empty_matrix(self, qfield):
        assert determinant(PolyMatrix(qfield, [])) == LaurentPolynomial.one(qfield)

    def test_non_square_rejected(self, qfield):
        m = PolyMatrix(qfield, [[LaurentPolynomial.one(qfield),
                                 LaurentPolynomial.one(qfield)]])
        with pytest.raises(ValueError, match='square'):
            determinant(m)

    def test_zero_row_short_circuits(self, qfield):
        z = LaurentPolynomial.zero(qfield)
        one = LaurentPolynomial.one(qfield)
        m = PolyMatrix(qfield, [[z, z], [one, one]])
        assert determinant(m).is_zero()


class TestGcd:

    def test_common_factor(self, qfield):
        t = LaurentPolynomial.t(qfield)
        g = gcd((t - 1) ** 2, (t - 1) * (t + 1))
        assert g == t - 1

    def test_gcd_with_zero(self, qfield):
        t = LaurentPolynomial.t(qfield)
        p = (3 * (t - 1)).shifted(-2)
        g = gcd(p, LaurentPolynomial.zero(qfield))
        assert g == t - 1     # monic, lowest exponent 0

    def test_shared_factor_of_raw_quotient(self, qfield):
        # the raw n=2 quotient shares exactly (t-1)^2
        t = LaurentPolynomial.t(qfield)
        num = ((t - 1) ** 2 * (t ** 2 - 4 * t + 1)).shifted(-2)
        den = (t - 1) ** 2
        assert gcd(num, den) == (t - 1) ** 2

    def test_divides_exactly_random(self, ufield):
        rng = random.Random(500)
        for _ in range(40):
            p = random_poly(ufield, rng)
            q = random_poly(ufield, rng)
            if p.is_zero() and q.is_zero():
                continue
            g = gcd(p, q)
            for poly in (p, q):
                if not poly.is_zero():
                    quotient = divide_exact(poly, g)
                    assert quotient * g == poly

    def test_gcd_of_two_zeros_undefined(self, qfield):
        z = LaurentPolynomial.zero(qfield)
        with pytest.raises(ValueError):
            gcd(z, z)


class TestReduce:

    def test_golden_reduction(self, qfield):
        t = LaurentPolynomial.t(qfield)
        rf = reduce((t - 1) ** 2 * (t ** 2 - 4 * t + 1), (t - 1) ** 2)
        assert rf.num == t ** 2 - 4 * t + 1
        assert rf.den == LaurentPolynomial.one(qfield)

    def test_zero_numerator(self, qfield):
        t = LaurentPolynomial.t(qfield)
        rf = reduce(LaurentPolynomial.zero(qfield), t - 1)
        assert rf.is_zero()
        assert rf.den == LaurentPolynomial.one(qfield)

    def test_self_quotient(self, ufield):
        rng = random.Random(501)
        p = random_poly(ufield, rng) + LaurentPolynomial.one(ufield)
        rf = reduce(p, p)
        assert rf.num == LaurentPolynomial.one(ufield)
        assert rf.den == LaurentPolynomial.one(ufield)

    def test_cancellation_invariance(self, ufield):
        rng = random.Random(502)
        for _ in range(25):
            num = random_poly(ufield, rng)
            den = random_poly(ufield, rng) + LaurentPolynomial.one(ufield)
            s = random_poly(ufield, rng)
            if s.is_zero() or den.is_zero():
                continue
            assert reduce(num * s, den * s) == reduce(num, den)

    def test_zero_denominator_rejected(self, qfield):
        t = LaurentPolynomial.t(qfield)
        with pytest.raises(ZeroDivisionError):
            reduce(t, LaurentPolynomial.zero(qfield))

    def test_denominator_normal_form(self, qfield):
        t = LaurentPolynomial.t(qfield)
        rf = reduce(t + 1, (2 * (t - 1)).shifted(3))
        assert rf.den == t - 1
        assert rf.den.coefficient(rf.den.max_exp) == qfield.one


class TestOrderAtOne:

    def test_simple_zero_factor(self, qfield):
        t = LaurentPolynomial.t(qfield)
        order, value = order_at_one((t - 1) * (t ** 2 - 5 * t + 1))
        assert order == 1 and value.as_rational() == -3

    def test_no_zero(self, qfield):
        t = LaurentPolynomial.t(qfield)
        order, value = order_at_one(t ** 2 - 4 * t + 1)
        assert order == 0 and value.as_rational() == -2

    def test_triple_zero(self, qfield):
        t = LaurentPolynomial.t(qfield)
        order, value = order_at_one((t - 1) ** 3)
        assert order == 3 and value.as_rational() == 1

    def test_zero_polynomial_rejected(self, qfield):
        with pytest.raises(ValueError):
            order_at_one(LaurentPolynomial.zero(qfield))

    def test_factorization_property(self, ufield):
        rng = random.Random(600)
        t = LaurentPolynomial.t(ufield)
        for _ in range(30):
            p = random_poly(ufield, rng)
            if p.is_zero():
                continue
            k = rng.randrange(0, 4)
            q = p * (t - 1) ** k
            order, value = order_at_one(q)
            cofactor = divide_exact(q, (t - 1) ** order)
            assert cofactor * (t - 1) ** order == q
            assert cofactor.evaluate(1) == value
            assert not value.is_zero()


class TestEvaluate:

    def test_known_values(self, qfield):
        t = LaurentPolynomial.t(qfield)
        assert (t ** 2 - 4 * t + 1).evaluate(1).as_rational() == -2
        big = t ** 4 - 9 * t ** 3 + 44 * t ** 2 - 9 * t + 1
        assert big.evaluate(1).as_rational() == 28

    def test_negative_exponents(self, qfield):
        p = LaurentPolynomial.t(qfield, -2)
        assert p.evaluate(1).as_rational() == 1
        assert p.evaluate(2).as_rational() == Fraction(1, 4)

    def test_zero_point_rejected(self, qfield):
        t = LaurentPolynomial.t(qfield)
        with pytest.raises(ZeroDivisionError):
            (t + 1).evaluate(0)


class TestPrintParse:

    def test_round_trip_exact(self, ufield):
        rng = random.Random(700)
        for _ in range(40):
            coeffs = {}
            for e in range(-3, 4):
                if rng.random() < 0.5:
                    coeffs[e] = ufield.element(
                        [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                         for _ in range(2)])
            p = LaurentPolynomial(ufield, coeffs)
            assert parse_polynomial(ufield, str(p)) == p

    def test_descending_exponents(self, qfield):
        t = LaurentPolynomial.t(qfield)
        assert str(t ** 2 - 4 * t + 1) == '[1]*t^2 + [-4]*t^1 + [1]*t^0'

    def test_zero(self, qfield):
        z = LaurentPolynomial.zero(qfield)
        assert str(z) == '0'
        assert parse_polynomial(qfield, '0').is_zero()


class TestNormalizeUnit:

    def test_splits_unit(self, qfield):
        t = LaurentPolynomial.t(qfield)
        p = (-(t ** 3 - 6 * t ** 2 + 6 * t - 1)).shifted(-3)
        canonical, sign, k = normalize_unit(p)
        assert canonical == t ** 3 - 6 * t ** 2 + 6 * t - 1
        assert sign == -1 and k == -3
        assert canonical.shifted(k) * sign == p

    def test_equal_up_to_unit(self, qfield):
        t = LaurentPolynomial.t(qfield)
        p = t ** 2 - 4 * t + 1
        assert equal_up_to_unit(p, (-p).shifted(5))
        assert not equal_up_to_unit(p, p * (t - 1))
