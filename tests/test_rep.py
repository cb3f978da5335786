import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistvol import (Matrix, NumberField, Representation, parse_job,
                      parse_presentation, rep, symmetric_power)
from twistvol.field import _horner
from twistvol.rep import _is_sl2

from conftest import K7_3_TEXT, K17_5_FIELD


@pytest.fixture(scope='module')
def linear():
    """A degree-1 field other than Q[x]/(x): x is the rational 3."""
    return NumberField((-3, 1), ('3', '0'))


@pytest.fixture(scope='module')
def octic():
    return NumberField(*K17_5_FIELD)


def shear_entry(rng, max_den):
    num = rng.randrange(-3, 4)
    if max_den == 1:
        return Fraction(num)
    return Fraction(num, rng.randrange(1, max_den + 1))


def random_sl2(field, rng, length=5, max_den=1):
    """Product of elementary shears: always determinant 1, exactly.

    Shear coordinates are integers in -3..3, divided by a denominator
    drawn from 1..max_den when max_den > 1 (max_den = 1 draws no
    denominators, so a seed gives the same integral matrices as before).
    """
    m = Matrix.identity(field, 2)
    for _ in range(length):
        x = field.element([shear_entry(rng, max_den)
                           for _ in range(field.degree)])
        if rng.random() < 0.5:
            e = Matrix(field, [[field.one, x], [field.zero, field.one]])
        else:
            e = Matrix(field, [[field.one, field.zero], [x, field.one]])
        m = m * e
    return m


def adjugate(m):
    """Inverse of a determinant-1 2x2 matrix."""
    (a, b), (c, d) = m.rows
    return Matrix(m.field, [[d, -b], [-c, a]])


def binomial_sigma(m, n):
    """Reference sigma_n by NFElement arithmetic on Fraction coordinates.

    Entry (i, j) is the coefficient of x^(n-1-i) y^i in
    (a x + b y)^(n-1-j) (c x + d y)^j, where M^-1 = [[a, b], [c, d]].
    """
    (a, b), (c, d) = adjugate(m).rows
    deg = n - 1
    a, b, c, d = ([x ** k for k in range(n)] for x in (a, b, c, d))
    rows = [[m.field.zero] * n for _ in range(n)]
    for j in range(n):
        for i1 in range(deg - j + 1):
            left = comb(deg - j, i1) * a[deg - j - i1] * b[i1]
            for i2 in range(j + 1):
                term = left * (comb(j, i2) * c[j - i2] * d[i2])
                rows[i1 + i2][j] = rows[i1 + i2][j] + term
    return rows


class TestEvaluate:

    def test_identity_word(self, fig8, fig8_rep, ufield):
        w = fig8.word_from_string('aA')
        assert fig8_rep.evaluate(w) == Matrix.identity(ufield, 2)

    def test_ab_golden(self, fig8, fig8_rep, ufield):
        u = ufield.generator
        got = fig8_rep.evaluate(fig8.word_from_string('ab'))
        assert got == Matrix(ufield, [[1 - u, ufield.one], [-u, ufield.one]])

    def test_relator_maps_to_identity(self, fig8, fig8_rep, ufield):
        r = fig8.relators()[0]
        assert fig8_rep.evaluate(r) == Matrix.identity(ufield, 2)

    def test_unknown_generator(self, fig8, fig8_rep):
        from twistvol import Word
        with pytest.raises(ValueError, match='generator'):
            fig8_rep.evaluate(Word([3]))


class TestSymmetricPowerGoldens:

    def test_sigma2_of_rho_a(self, fig8_rep, ufield):
        got = symmetric_power(fig8_rep.images[0], 2)
        assert got == Matrix(ufield, [[1, 0], [-1, 1]])

    def test_sigma2_equals_transposed_inverse(self, fig8_rep):
        for m in fig8_rep.images:
            assert symmetric_power(m, 2) == adjugate(m).transpose()

    def test_sigma3_of_rho_a(self, fig8_rep, ufield):
        got = symmetric_power(fig8_rep.images[0], 3)
        assert got == Matrix(ufield, [[1, 0, 0], [-2, 1, 0], [1, -1, 1]])

    def test_sigma3_of_rho_b(self, fig8_rep, ufield):
        u = ufield.generator
        got = symmetric_power(fig8_rep.images[1], 3)
        expected = Matrix(ufield, [[ufield.one, u, u * u],
                                   [ufield.zero, ufield.one, 2 * u],
                                   [ufield.zero, ufield.zero, ufield.one]])
        assert got == expected

    def test_sigma4_of_rho_a(self, fig8_rep, ufield):
        got = symmetric_power(fig8_rep.images[0], 4)
        expected = Matrix(ufield, [[1, 0, 0, 0],
                                   [-3, 1, 0, 0],
                                   [3, -2, 1, 0],
                                   [-1, 1, -1, 1]])
        assert got == expected

    def test_sigma4_of_rho_b(self, fig8_rep, ufield):
        u = ufield.generator
        one, zero = ufield.one, ufield.zero
        got = symmetric_power(fig8_rep.images[1], 4)
        expected = Matrix(ufield, [[one, u, u ** 2, u ** 3],
                                   [zero, one, 2 * u, 3 * u ** 2],
                                   [zero, zero, one, 3 * u],
                                   [zero, zero, zero, one]])
        assert got == expected

    def test_sigma_of_identity(self, ufield):
        eye = Matrix.identity(ufield, 2)
        for n in range(1, 7):
            assert symmetric_power(eye, n) == Matrix.identity(ufield, n)

    def test_n1_is_trivial(self, fig8_rep, ufield):
        assert symmetric_power(fig8_rep.images[1], 1) == Matrix.identity(ufield, 1)

    def test_rejects_non_sl2(self, ufield):
        with pytest.raises(ValueError, match='determinant'):
            symmetric_power(Matrix(ufield, [[2, 0], [0, 1]]), 3)

    @pytest.mark.parametrize('n', [1, 4])
    def test_rejects_determinant_off_in_one_coordinate(self, ufield, n):
        # det = 1 + u (off in the irrational coordinate only) and
        # det = 1 - 1/36 (non-integral entries), each rejected; the
        # same entries with c = 0 give det 1 and are accepted
        u = ufield.generator
        sixth = Fraction(1, 6)
        for a, b, c, d in [(1, -1, u, 1), (1, sixth, sixth, 1)]:
            with pytest.raises(ValueError, match='determinant 1'):
                symmetric_power(Matrix(ufield, [[a, b], [c, d]]), n)
            assert symmetric_power(Matrix(ufield, [[a, b], [0, d]]), n).det() \
                == ufield.one


class TestSymmetricPowerProperties:

    def test_multiplicative_and_unimodular(self, ufield, qfield):
        rng = random.Random(42)
        for field in (qfield, ufield):
            for n in range(2, 9):
                m1 = random_sl2(field, rng)
                m2 = random_sl2(field, rng)
                s1, s2 = symmetric_power(m1, n), symmetric_power(m2, n)
                assert symmetric_power(m1 * m2, n) == s1 * s2
                assert s1.det() == field.one

    def test_inverse_compatibility(self, ufield):
        rng = random.Random(43)
        for n in range(2, 7):
            m = random_sl2(ufield, rng)
            product = symmetric_power(adjugate(m), n) * symmetric_power(m, n)
            assert product == Matrix.identity(ufield, n)

    @pytest.mark.parametrize('max_den', [1, 6])
    @pytest.mark.parametrize('field_name', ['qfield', 'linear', 'ufield',
                                            'cubic', 'octic'])
    def test_matches_binomial_reference(self, request, field_name, max_den):
        # max_den = 6 gives M^-1 non-integral entries, so the integral
        # expansion divides scale^(n-1) out of every coordinate
        field = request.getfixturevalue(field_name)
        rng = random.Random(44)
        fractional = False
        for n in range(1, 13):
            m1 = random_sl2(field, rng, max_den=max_den)
            m2 = random_sl2(field, rng, max_den=max_den)
            fractional |= any(c.denominator > 1 for row in m1.rows
                              for e in row for c in e.coeffs)
            s1 = symmetric_power(m1, n)
            assert s1.rows == tuple(map(tuple, binomial_sigma(m1, n)))
            assert all(type(c) is Fraction
                       for row in s1.rows for e in row for c in e.coeffs)
            assert symmetric_power(m1 * m2, n) == s1 * symmetric_power(m2, n)
            if n == 2:
                assert s1 == adjugate(m1).transpose()
        assert fractional == (max_den > 1)

    @pytest.mark.parametrize('field_name', ['qfield', 'ufield', 'octic'])
    def test_expansion_makes_no_field_multiply(self, request, field_name,
                                               monkeypatch):
        """The packed expansion multiplies ints: the only NumberField._mul
        calls are the two of the det = 1 check."""
        field = request.getfixturevalue(field_name)
        rng = random.Random(45)
        calls = []
        multiply = NumberField._mul

        def counting(self, a, b):
            calls.append(None)
            return multiply(self, a, b)

        monkeypatch.setattr(NumberField, '_mul', counting)
        for n in (1, 2, 5, 9):
            m = random_sl2(field, rng, max_den=6)
            calls.clear()
            assert _is_sl2(m)
            check = len(calls)
            calls.clear()
            symmetric_power(m, n)
            assert len(calls) == check == 2, n

    def test_too_small_shift_is_caught(self, octic):
        """The shared decode refuses a value with digits left over."""
        rng = random.Random(46)
        m = random_sl2(octic, rng)
        (a, b), (c, d) = m.ints
        norm = max(1, sum(map(abs, d + b)), sum(map(abs, c + a)))
        n = 4
        shift = (norm ** (n - 1)).bit_length() + 1
        size = (n - 1) * (octic.degree - 1) + 1
        value = _horner(d, 1 << shift) ** (n - 1)
        want = symmetric_power(m, n).ints[0][0]
        assert octic._decode(value, shift, size) == want
        with pytest.raises(ArithmeticError, match='coefficient bound'):
            octic._decode(value, shift - 2, size)
        with pytest.raises(ArithmeticError, match='coefficient bound'):
            octic._decode(value, shift, size - 1)

    def test_trace_of_diagonal(self, qfield):
        # diag(lam, 1/lam) has sigma_n trace sum lam^(n-1-2k), fixing basis order
        for lam in (Fraction(2), Fraction(3, 2), Fraction(-5, 3)):
            m = Matrix(qfield, [[lam, 0], [0, 1 / lam]])
            for n in range(1, 8):
                expected = sum((Fraction(lam) ** (n - 1 - 2 * k)
                                for k in range(n)), Fraction(0))
                assert symmetric_power(m, n).trace().as_rational() == expected


def weighted_sum(terms, n):
    """sum_k w_k sigma_n(M_k) as NFElement rows, one expansion per term."""
    field = terms[0][1].field
    rows = [[field.zero] * n for _ in range(n)]
    for weight, m in terms:
        power = symmetric_power(m, n).rows
        for i in range(n):
            for j in range(n):
                rows[i][j] = rows[i][j] + weight * power[i][j]
    return tuple(map(tuple, rows))


class TestLinearSymmetricPower:
    """symmetric_power of (weight, matrix) pairs is the weighted sum of
    the one-term expansions, decoded once per cell."""

    @pytest.mark.parametrize('field_name', ['qfield', 'ufield', 'cubic'])
    @settings(max_examples=15, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_equals_sum_of_one_term_expansions(self, request, field_name,
                                               fig8_rep, data):
        field = request.getfixturevalue(field_name)
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        pool = [random_sl2(field, rng, max_den=data.draw(st.sampled_from(
            [1, 6]))) for _ in range(3)]
        if field_name == 'ufield':
            # the figure-eight's images conjugated by diag(2, 1/2): scale 4
            p = Matrix(field, [[2, 0], [0, Fraction(1, 2)]])
            q = Matrix(field, [[Fraction(1, 2), 0], [0, 2]])
            pool += [p * image * q for image in fig8_rep.images]
        picks = data.draw(st.lists(st.tuples(
            st.sampled_from([-3, -2, -1, 1, 2, 3]),
            st.integers(0, len(pool) - 1)), min_size=1, max_size=5))
        terms = [(w, pool[k]) for w, k in picks]
        n = data.draw(st.integers(1, 6))
        got = symmetric_power(terms, n)
        assert got.rows == weighted_sum(terms, n)
        # a sum that cancels is the zero matrix, in lowest terms
        zero = symmetric_power(terms + [(-w, m) for w, m in terms], n)
        assert zero.is_zero() and zero.scale == 1
        assert (zero.nrows, zero.ncols) == (n, n)

    def test_scales_combine(self, qfield):
        # sigma_3 of diag(2, 1/2) and diag(3, 1/3) are over 4 and 9: the
        # sum is over their lcm, 36, and equal matrices merge
        d2 = Matrix(qfield, [[2, 0], [0, Fraction(1, 2)]])
        d3 = Matrix(qfield, [[3, 0], [0, Fraction(1, 3)]])
        terms = [(1, d2), (2, d3), (-1, d2), (1, d2)]
        got = symmetric_power(terms, 3)
        assert got.scale == 36
        assert got.rows == weighted_sum(terms, 3)
        assert [row[i].as_rational() for i, row in enumerate(got.rows)] == [
            Fraction(1, 4) + Fraction(2, 9), 1 + 2, 4 + 18]

    @pytest.mark.parametrize('n', [1, 3])
    def test_every_matrix_is_checked(self, ufield, n):
        eye = Matrix.identity(ufield, 2)
        bad = Matrix(ufield, [[2, 0], [0, 1]])
        # even where the weights cancel
        for terms in ([(1, eye), (1, bad)], [(1, bad), (-1, bad)]):
            with pytest.raises(ValueError, match='expects determinant 1'):
                symmetric_power(terms, n)

    def test_short_shift_is_caught(self, qfield, ufield, monkeypatch):
        """A shift too short for the summed coefficients leaves digits
        over: ArithmeticError from the one decode per cell."""
        shear = Matrix(qfield, [[1, 3], [0, 1]])
        eye = Matrix.identity(qfield, 2)
        u = ufield.generator
        lower = Matrix(ufield, [[ufield.one, ufield.zero], [3 * u, ufield.one]])
        cases = [[(2, shear), (-1, eye)],
                 [(3, lower), (2, Matrix.identity(ufield, 2))]]
        for terms in cases:
            assert symmetric_power(terms, 3).rows == weighted_sum(terms, 3)
        monkeypatch.setattr(rep, '_digit_shift', lambda bound: 2)
        for terms in cases:
            with pytest.raises(ArithmeticError, match='coefficient bound'):
                symmetric_power(terms, 3)


class TestRepresentationValidation:

    def test_fig8_relations_hold(self, fig8, fig8_rep):
        assert fig8_rep.check_relations(fig8) == []

    def test_u_replaced_by_one_breaks_relation(self, fig8, qfield):
        # with u = 1 the quadratic condition u^2 + u + 1 = 0 fails
        rho_a = Matrix(qfield, [[1, 1], [0, 1]])
        rho_b = Matrix(qfield, [[1, 0], [-1, 1]])
        broken = Representation(fig8, {'a': rho_a, 'b': rho_b})
        report = broken.check_relations(fig8)
        assert len(report) == 1
        assert not report[0][1].is_zero()

    def test_no_relations_empty_report(self, qfield):
        pres = parse_presentation('gens: a\n')
        rep = Representation.trivial(pres, qfield)
        assert rep.check_relations(pres) == []

    def test_det_one_enforced(self, fig8, qfield):
        scaled = Matrix(qfield, [[2, 0], [0, 1]])
        eye = Matrix.identity(qfield, 2)
        with pytest.raises(ValueError, match='determinant'):
            Representation(fig8, {'a': scaled, 'b': eye})

    @pytest.mark.parametrize('field_name', ['qfield', 'ufield', 'octic'])
    def test_sl2_image_inverts_by_adjugate(self, request, field_name,
                                           monkeypatch):
        """SL(2) images over a scale > 1, with a != d, invert exactly
        with no field inverse."""
        from twistvol import Word
        field = request.getfixturevalue(field_name)
        pres = parse_presentation('gens: a\n')

        def refuse(*args):
            raise AssertionError('field inverse of an SL(2) image')

        monkeypatch.setattr(NumberField, '_inv_integral', refuse)
        rng = random.Random(31)
        images = [random_sl2(field, rng, max_den=3) for _ in range(4)]
        assert any(m.scale > 1 for m in images)
        assert all(m[0, 0] != m[1, 1] for m in images)
        eye = Matrix.identity(field, 2)
        for m in images:
            inverse = Representation(pres, {'a': m}).evaluate(Word([-1]))
            assert inverse * m == eye and m * inverse == eye

    def test_unaudited_image_inverts_exactly(self, qfield, ufield):
        from twistvol import Word
        pres = parse_presentation('gens: a\n')
        u = ufield.generator
        cubic = parse_job(K7_3_TEXT).representation.field
        x = cubic.generator
        # the ufield image has non-integral entries and det u - 1/3; the
        # cubic one, det x^3/2 + x - 1/3, inverts by the generated step
        for field, m in [(qfield, Matrix(qfield, [[2, 1], [0, 1]])),
                         (ufield, Matrix(ufield, [[u / 2, Fraction(1, 3)],
                                                  [1, 2]])),
                         (cubic, Matrix(cubic, [[x / 2, Fraction(1, 3)],
                                                [1, x * x + 2]]))]:
            rep = Representation(pres, {'a': m}, require_sl2=False)
            assert rep.sl2_failures() == ['a']
            inverse = rep.evaluate(Word([-1]))
            assert inverse * m == Matrix.identity(field, 2)
            assert m * inverse == Matrix.identity(field, 2)

    def test_relation_difference_over_different_scales(self, fig8, qfield):
        rho_a = Matrix(qfield, [[1, Fraction(1, 2)], [0, 1]])
        rho_b = Matrix(qfield, [[1, 0], [Fraction(-1, 3), 1]])
        rep = Representation(fig8, {'a': rho_a, 'b': rho_b})
        lhs, rhs = (rep.evaluate(w) for w in fig8.relations[0])
        assert (lhs.scale, rhs.scale) == (72, 108)
        [(k, diff)] = rep.check_relations(fig8)
        assert k == 0
        assert diff.rows == tuple(tuple(x - y for x, y in zip(r, s))
                                  for r, s in zip(lhs.rows, rhs.rows))
        assert diff.scale == 216

    def test_missing_generator_rejected(self, fig8, qfield):
        eye = Matrix.identity(qfield, 2)
        with pytest.raises(ValueError, match='no matrix'):
            Representation(fig8, {'a': eye})


class TestMatrix:

    def test_det_of_triangular(self, qfield):
        m = Matrix(qfield, [[2, 5], [0, 3]])
        assert m.det().as_rational() == 6

    @pytest.mark.parametrize('field_name, rows, det', [
        ('qfield', [[0, 1], [1, 0]], -1),             # zero pivot: row swap
        ('qfield', [[0, 2, 1], [0, 1, 5], [3, 4, 6]], 27),  # swap past a row
        ('qfield', [[1, 2], [2, 4]], 0),              # singular
        ('qfield', [[0, 1], [0, 2]], 0),              # no pivot in a column
        ('qfield', [[Fraction(1, 2), Fraction(1, 3), 1],   # rational rows
                    [Fraction(1, 4), Fraction(1, 5), 0],
                    [0, Fraction(2, 3), Fraction(1, 6)]], Fraction(61, 360)),
        # pivot 1 + x of norm 3 in Z[x]/(x^3 - 2): (1+x)^3 - 2(1+x)
        ('cubic', [[[1, 1], 1, 0], [1, [1, 1], 1], [0, 1, [1, 1]]],
         [1, 1, 3]),
        ('qfield', [], 1),                            # empty: det = 1
        ('cubic', [], 1),
    ], ids=['rows0--1', 'rows1-27', 'rows2-0', 'rows3-0', 'rational-rows',
            'cubic-non-unit-pivot', 'empty', 'cubic-empty'])
    def test_det_pivoting_and_singular(self, request, field_name, rows, det):
        field = request.getfixturevalue(field_name)
        assert Matrix(field, rows).det() == field.element(det)


def assert_canonical(m):
    """m is stored as ints over the least common denominator of m.rows."""
    assert Matrix(m.field, m.rows) == m
    assert m.scale == lcm(*(c.denominator for row in m.rows for e in row
                            for c in e.coeffs))
    assert gcd(m.scale, *(x for row in m.ints for e in row for x in e)) == 1


class TestIntegralStorage:

    @pytest.mark.parametrize('max_den', [1, 6])
    @pytest.mark.parametrize('field_name', ['qfield', 'ufield', 'cubic'])
    def test_canonical(self, request, field_name, max_den):
        field = request.getfixturevalue(field_name)
        rng = random.Random(45)
        for n in range(1, 6):
            m1 = random_sl2(field, rng, max_den=max_den)
            m2 = random_sl2(field, rng, max_den=max_den)
            for m in (m1, m1 * m2, m1.transpose(), m1 - m2, m1 - m1,
                      symmetric_power(m1, n)):
                assert_canonical(m)

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3'])
    def test_prefix_products_and_powers_build_no_fraction(self, request,
                                                           monkeypatch, knot):
        if knot == 'fig8':
            rep = request.getfixturevalue('fig8_rep')
            pres = request.getfixturevalue('fig8')
        else:
            job = request.getfixturevalue('k7_3')
            rep, pres = job.representation, job.presentation
        letters = tuple(pres.relators()[0])
        calls = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(None)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, '__new__', staticmethod(counting))
        prefixes = {}
        powers = [symmetric_power(rep.evaluate(letters[:k], prefixes), 4)
                  for k in range(1, len(letters) + 1)]
        monkeypatch.undo()
        assert len(calls) == 0
        # the shared prefixes give the products a fresh evaluation gives
        for k, power in enumerate(powers, start=1):
            assert power == symmetric_power(rep.evaluate(letters[:k]), 4)
